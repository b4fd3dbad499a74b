"""Independent solves and factors of the engine's tridiagonal systems, for checking its factor sets.

A is the ghost-node Laplacian of `laplacian_bands` and s one step's scale
(-theta dt nu). The symmetric form is W(I + s A), with
W = diag(1/2, 1, ..., 1, 1/2): its off-diagonal is s/h^2 and its row sums
are w = (1/2, 1, ..., 1, 1/2). `excess_factors` factors it as L D L^T from
those row-sum excesses in a plain scalar loop, in the engine's operation
order, and `excess_solve` solves with those factors and LAPACK `pttrs` on
W rhs, as the engine does. `ldlt_solve` forms W(I + s A) straight from the
unsymmetric bands and factors it with LAPACK `pttrf` instead. `lu_solve` is
the general LU form with pivoting (`gttrf`/`gttrs`) on the unscaled system,
and `LuFactors` a drop-in for `PttrsFactors` built on it, so a stepper can be
run on the LU form as a second oracle. `PttrsFactors` solves with a factor
set's own d and e tables by LAPACK `pttrs`, not by the compiled loop that
reads them in the engine: it takes the rhs scaled by w, for the W-scaled
system the set factors, and overwrites it with the solution;
`LuFactors.solve` divides that scale back out, which is exact, and writes
into the rhs too. `node_major_factors` is the numpy form of the factor
set build, the row-sum excess recurrence run node by node across every
step and block at once, against which the compiled recurrence is checked
bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from evosis.model import Grid1D

PTTRF, PTTRS, GTTRF, GTTRS = get_lapack_funcs(("pttrf", "pttrs", "gttrf", "gttrs"), (np.empty(0),))


def laplacian_bands(grid: Grid1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub/main/super diagonals of the ghost-node Laplacian.

    Returns (sub, diag, sup) with sub of length N (entries A[i+1, i]) and
    sup of length N (entries A[i, i+1]).
    """
    inv_h2 = 1.0 / grid.h**2
    sub = np.full(grid.N, inv_h2)
    sub[-1] = 2.0 * inv_h2
    diag = np.full(grid.N + 1, -2.0 * inv_h2)
    sup = np.full(grid.N, inv_h2)
    sup[0] = 2.0 * inv_h2
    return sub, diag, sup


def row_weights(n: int) -> np.ndarray:
    weights = np.ones(n)
    weights[0] = weights[-1] = 0.5
    return weights


def excess_factors(row_sums: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """(D, L) of the symmetric tridiagonal matrix with off-diagonal -c and the given row sums.

    t starts at the first row sum; then D_i = t + c, L_i = -c / D_i and
    t <- s_{i+1} - t L_i, and the last pivot is t.
    """
    n = row_sums.size
    d, e = np.empty(n), np.empty(n - 1)
    t = float(row_sums[0])
    for i in range(n - 1):
        d[i] = t + c
        e[i] = -c / d[i]
        t = float(row_sums[i + 1]) - t * e[i]
    d[-1] = t
    return d, e


def excess_solve(grid: Grid1D, scale: float, rhs: np.ndarray) -> np.ndarray:
    weights = row_weights(grid.N + 1)
    d, e = excess_factors(weights, -scale * (1.0 / grid.h**2))
    return PTTRS(d, e, weights * rhs)[0]


def ldlt_solve(grid: Grid1D, scale: float, rhs: np.ndarray) -> np.ndarray:
    sub, diag, sup = laplacian_bands(grid)
    weights = row_weights(grid.N + 1)
    d = weights * (scale * diag + 1.0)
    e = weights[:-1] * (scale * sup)
    assert np.array_equal(e, weights[1:] * (scale * sub))
    d, e, info = PTTRF(d, e)
    assert info == 0
    return PTTRS(d, e, weights * rhs)[0]


def lu_solve(grid: Grid1D, scale: float, rhs: np.ndarray) -> np.ndarray:
    sub, diag, sup = (scale * band for band in laplacian_bands(grid))
    dl, d, du, du2, ipiv, info = GTTRF(sub, diag + 1.0, sup)
    assert info == 0
    return GTTRS(dl, d, du, du2, ipiv, rhs)[0]


def node_major_factors(grid: Grid1D, nus: tuple[np.ndarray, ...], q: np.ndarray | None,
                       theta_dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The step-major (d, e) tables of `_FactorSet(grid, nus, q, theta_dt)`, without its definiteness check.

    The row sums are w(1 - theta_dt q) per block, formed as the factor set
    forms them; then the recurrence of `excess_factors` runs one node at a
    time on (blocks, steps) arrays of ufunc calls. e is zero at the end of
    each block.
    """
    n, blocks, steps = grid.N + 1, len(nus), nus[0].size
    weights = row_weights(n)
    s = np.tile(weights, (steps, blocks)) if q is None else (q * -theta_dt + 1.0) * weights
    s = s.reshape(steps, blocks, n).transpose(2, 1, 0)  # node-major: (n, blocks, steps)
    c = np.stack([(theta_dt * nu) * (1.0 / grid.h**2) for nu in nus])
    minus_c = -c
    d, e = np.empty_like(s), np.zeros_like(s)
    t = s[0].copy()
    with np.errstate(all="ignore"):
        for i in range(n - 1):
            d[i] = t + c
            e[i] = minus_c / d[i]
            t = s[i + 1] - t * e[i]
    d[n - 1] = t
    return tuple(table.transpose(2, 1, 0).reshape(steps, blocks * n) for table in (d, e))


class PttrsFactors:
    """Per-step LAPACK `pttrs` solves with a factor set's d and e tables, with `LuFactors.solve`'s signature."""

    def __init__(self, factors) -> None:
        self._d, self._e = factors.d, factors.e

    def solve(self, k: int, rhs: np.ndarray) -> None:
        rhs[...] = PTTRS(self._d[k], self._e[k, :-1], rhs)[0]


class LuFactors:
    """Per-step LU solves of I - theta dt nu_k A on one block, for a stepper's W-scaled right-hand sides."""

    def __init__(self, grid: Grid1D, nu: np.ndarray, theta_dt: float) -> None:
        self._grid = grid
        self._scales = -theta_dt * nu
        self._w = row_weights(grid.N + 1)

    def solve(self, k: int, rhs: np.ndarray) -> None:
        w = self._w.reshape((-1,) + (1,) * (rhs.ndim - 1))
        rhs[...] = lu_solve(self._grid, self._scales[k], rhs / w)
