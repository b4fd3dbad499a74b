"""Independent one-block solves of (I + s A) x = rhs, for checking the engine's factor sets.

A is the ghost-node Laplacian of `laplacian_bands` and s one step's scale
(-theta dt nu). `ldlt_solve` forms the symmetric W(I + s A), with
W = diag(1/2, 1, ..., 1, 1/2), straight from the unsymmetric bands and
solves it with LAPACK `pttrf`/`pttrs` on W rhs, as the engine does.
`lu_solve` is the general LU form with pivoting (`gttrf`/`gttrs`) on the
unscaled system, and `LuFactors` a drop-in for `_FactorSet` built on it, so
a stepper can be run on the LU form as a second oracle. `_FactorSet.solve`
takes its rhs scaled by w = (1/2, 1, ..., 1, 1/2), for the W-scaled system
it factors, and overwrites it with the solution; `LuFactors.solve` divides
that scale back out, which is exact, and writes into the rhs too.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import get_lapack_funcs

from evosis.engine import laplacian_bands
from evosis.model import Grid1D

PTTRF, PTTRS, GTTRF, GTTRS = get_lapack_funcs(("pttrf", "pttrs", "gttrf", "gttrs"), (np.empty(0),))


def row_weights(n: int) -> np.ndarray:
    weights = np.ones(n)
    weights[0] = weights[-1] = 0.5
    return weights


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
