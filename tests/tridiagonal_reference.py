"""Independent solves and factors of the engine's tridiagonal systems, for checking its factor sets.

A is the ghost-node Laplacian of `laplacian_bands` and s one step's scale
(-theta dt nu). The symmetric form is W(I + s A), with
W = diag(1/2, 1, ..., 1, 1/2): its off-diagonal is s/h^2 and its row sums
are w = (1/2, 1, ..., 1, 1/2). `excess_factors` factors it in twisted form
from those row-sum excesses in a plain scalar loop, in the engine's
operation order: L D L^T from the first node down to the twist row
k = n/2, U D U^T from the last node up to it. It returns the pivots D,
of which a factor set's d table holds the reciprocals 1/D.
`twisted_solve` solves with such reciprocals and multipliers in the
compiled loop's operation order, and `excess_solve` with the factors of
`excess_factors` on W rhs, as the engine does.
`ldlt_solve` forms W(I + s A) straight from the unsymmetric bands and
factors and solves it with LAPACK `pttrf`/`pttrs` instead. `lu_solve` is
the general LU form with pivoting (`gttrf`/`gttrs`) on the unscaled
system, and `LuFactors` a drop-in for `TwistedFactors` built on it, so a
stepper can be run on the LU form as a second oracle. `TwistedFactors`
solves with a factor set's own d and e tables by `twisted_solve`, each
block alone, not by the compiled loop that reads them in the engine: it
takes the rhs scaled by w, for the W-scaled system the set factors, and
overwrites it with the solution; `LuFactors.solve` divides that scale
back out, which is exact, and writes into the rhs too.
`node_major_factors` is the numpy form of the factor set build, the
twisted row-sum excess recurrence run node by node across every step and
block at once, against which the compiled recurrence is checked bit for
bit: its pivots, inverted, give the set's d table, and its multipliers
the e table.
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
    """Twisted (D, E) of the symmetric tridiagonal matrix with off-diagonal -c and the given row sums.

    With k = n // 2, the top half runs from t = s_0: D_i = t + c,
    E_i = -c / D_i and t <- s_{i+1} - t E_i for i < k; the bottom half from
    u = s_{n-1}: D_i = u + c, E_i = -c / D_i and u <- s_{i-1} - u E_i for
    i > k, where s_k is the top half's last t. The twist pivot D_k is the
    last u (or t, with no bottom half) and E_k = 0.
    """
    n = row_sums.size
    k = n // 2
    s = [float(value) for value in row_sums]
    d, e = np.empty(n), np.zeros(n)
    t = s[0]
    for i in range(k):
        d[i] = t + c
        e[i] = -c / d[i]
        t = s[i + 1] - t * e[i]
    s[k] = t
    u = s[n - 1]
    for i in range(n - 1, k, -1):
        d[i] = u + c
        e[i] = -c / d[i]
        u = s[i - 1] - u * e[i]
    d[k] = u
    return d, e


def twisted_solve(d: np.ndarray, e: np.ndarray, x: np.ndarray) -> None:
    """Solves in place with twisted factors, x of shape (n,) or (n, columns), in the compiled order.

    d holds the reciprocal pivots 1/D, as a factor set's table does.
    Forward, the top chain y_i = x_i - y_{i-1} E_{i-1} (0 < i < k) and the
    bottom chain y_i = x_i - y_{i+1} E_{i+1} (k < i < n-1); at the twist
    y_k = (x_k - y_{k-1} E_{k-1}) - y_{k+1} E_{k+1}, a missing node's term
    left out, and x_k = y_k (1/D_k); back, x_i = y_i (1/D_i) - x_{i+1} E_i
    (i < k) and x_i = y_i (1/D_i) - x_{i-1} E_i (i > k).
    """
    n = d.size
    k = n // 2
    for i in range(1, k):
        x[i] = x[i] - x[i - 1] * e[i - 1]
    for i in range(n - 2, k, -1):
        x[i] = x[i] - x[i + 1] * e[i + 1]
    if k > 0:
        x[k] = x[k] - x[k - 1] * e[k - 1]
    if k + 1 < n:
        x[k] = x[k] - x[k + 1] * e[k + 1]
    x[k] = x[k] * d[k]
    for i in range(k - 1, -1, -1):
        x[i] = x[i] * d[i] - x[i + 1] * e[i]
    for i in range(k + 1, n):
        x[i] = x[i] * d[i] - x[i - 1] * e[i]


def excess_solve(grid: Grid1D, scale: float, rhs: np.ndarray) -> np.ndarray:
    weights = row_weights(grid.N + 1)
    d, e = excess_factors(weights, -scale * (1.0 / grid.h**2))
    x = weights * rhs
    twisted_solve(1.0 / d, e, x)
    return x


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
    """The step-major pivots and e table of a `_FactorSet` on the full potential q, without its definiteness check.

    That is `_FactorSet(grid, nus, (q, 0, 1), theta_dt)`, or with the zero
    potential (0, 0, 1) for q = None, whose row sums are w, and the set's d
    table holds the reciprocals of these pivots.
    The row sums are w(1 - theta_dt q) per block, formed in numpy's order
    ((q (-theta_dt)) + 1) w, as the factor set's loop forms them;
    then the twisted recurrence of `excess_factors` runs one node at a time
    on (blocks, steps) arrays of ufunc calls. e is zero at each block's
    twist row.
    """
    n, blocks, steps = grid.N + 1, len(nus), nus[0].size
    k = n // 2
    weights = row_weights(n)
    s = np.tile(weights, (steps, blocks)) if q is None else (q * -theta_dt + 1.0) * weights
    s = s.reshape(steps, blocks, n).transpose(2, 1, 0).copy()  # node-major: (n, blocks, steps)
    c = np.stack([(theta_dt * nu) * (1.0 / grid.h**2) for nu in nus])
    minus_c = -c
    d, e = np.empty_like(s), np.zeros_like(s)
    with np.errstate(all="ignore"):
        t = s[0].copy()
        for i in range(k):
            d[i] = t + c
            e[i] = minus_c / d[i]
            t = s[i + 1] - t * e[i]
        s[k] = t
        t = s[n - 1].copy()
        for i in range(n - 1, k, -1):
            d[i] = t + c
            e[i] = minus_c / d[i]
            t = s[i - 1] - t * e[i]
    d[k] = t
    return tuple(table.transpose(2, 1, 0).reshape(steps, blocks * n) for table in (d, e))


class TwistedFactors:
    """Per-step twisted solves with a factor set's d and e tables, each of its `blocks` blocks alone,
    with `LuFactors.solve`'s signature."""

    def __init__(self, factors, blocks: int = 1) -> None:
        self._d, self._e = factors.d, factors.e
        self._n = self._d.shape[1] // blocks

    def solve(self, k: int, rhs: np.ndarray) -> None:
        for start in range(0, self._d.shape[1], self._n):
            block = slice(start, start + self._n)
            twisted_solve(self._d[k, block], self._e[k, block], rhs[block])


class LuFactors:
    """Per-step LU solves of I - theta dt nu_k A on one block, for a stepper's W-scaled right-hand sides."""

    def __init__(self, grid: Grid1D, nu: np.ndarray, theta_dt: float) -> None:
        self._grid = grid
        self._scales = -theta_dt * nu
        self._w = row_weights(grid.N + 1)

    def solve(self, k: int, rhs: np.ndarray) -> None:
        w = self._w.reshape((-1,) + (1,) * (rhs.ndim - 1))
        rhs[...] = lu_solve(self._grid, self._scales[k], rhs / w)
