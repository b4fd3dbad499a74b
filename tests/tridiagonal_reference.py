"""Independent one-block solves of (I + s A) x = rhs, for checking the engine's factor sets.

A is the ghost-node Laplacian of `laplacian_bands` and s one step's scale
(-theta dt nu). The symmetric form is W(I + s A), with
W = diag(1/2, 1, ..., 1, 1/2): its off-diagonal is s/h^2 and its row sums
are w = (1/2, 1, ..., 1, 1/2). `excess_factors` factors it as L D L^T from
those row-sum excesses in a plain scalar loop, in the engine's operation
order, and `excess_solve` solves with those factors and LAPACK `pttrs` on
W rhs, as the engine does. `ldlt_solve` forms W(I + s A) straight from the
unsymmetric bands and factors it with LAPACK `pttrf` instead. `lu_solve` is
the general LU form with pivoting (`gttrf`/`gttrs`) on the unscaled system,
and `LuFactors` a drop-in for `_FactorSet` built on it, so a stepper can be
run on the LU form as a second oracle. `_FactorSet.solve` takes its rhs
scaled by w, for the W-scaled system it factors, and overwrites it with the
solution; `LuFactors.solve` divides that scale back out, which is exact,
and writes into the rhs too.
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


class LuFactors:
    """Per-step LU solves of I - theta dt nu_k A on one block, with `_FactorSet.solve`'s signature."""

    def __init__(self, grid: Grid1D, nu: np.ndarray, theta_dt: float) -> None:
        self._grid = grid
        self._scales = -theta_dt * nu
        self._w = row_weights(grid.N + 1)

    def solve(self, k: int, rhs: np.ndarray) -> None:
        w = self._w.reshape((-1,) + (1,) * (rhs.ndim - 1))
        rhs[...] = lu_solve(self._grid, self._scales[k], rhs / w)
