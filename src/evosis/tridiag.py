"""Symmetric tridiagonal operators and their smallest eigenvalue.

Used for the principal eigenvalue of -d w'' + c(y) w on (0, L), discretized
on the uniform grid. The Neumann (no-flux) discretization uses ghost nodes;
its boundary rows are unsymmetric but similar, via the square root of the
trapezoid weights, to a symmetric matrix with boundary off-diagonal entries
scaled by sqrt(2). Eigenvalues are unchanged by that similarity.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
import numpy.typing as npt
from scipy.linalg import eigh_tridiagonal

FloatArray = npt.NDArray[np.floating[Any]]


def smallest_eigenvalue(diag: FloatArray, off: FloatArray) -> float:
    """Smallest eigenvalue of a symmetric tridiagonal matrix (LAPACK stebz).

    Raises ValueError when off does not have one entry fewer than a
    non-empty diag.
    """
    return float(eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))[0])


def neumann_operator(d: float, c_nodes: FloatArray, h: float) -> tuple[FloatArray, FloatArray]:
    """Symmetric tridiagonal form of -d u'' + c u with no-flux endpoints.

    The ghost-node rows couple each endpoint to its neighbour with weight
    -2d/h^2; the symmetrized matrix carries -sqrt(2)*d/h^2 there instead.

    Args:
        d: diffusion rate, positive.
        c_nodes: potential at the N+1 grid nodes.
        h: grid spacing.

    Returns:
        (diag, off) arrays of the symmetric matrix, sizes N+1 and N.
    """
    c_nodes = np.asarray(c_nodes, dtype=float)
    w = d / h**2
    diag = 2.0 * w + c_nodes
    off = np.full(c_nodes.size - 1, -w)
    off[0] = -math.sqrt(2.0) * w
    off[-1] = -math.sqrt(2.0) * w
    return diag, off


def dirichlet_operator(d: float, c_nodes: FloatArray, h: float) -> tuple[FloatArray, FloatArray]:
    """Symmetric tridiagonal form of -d u'' + c u with zero endpoints.

    Only the N-1 interior nodes carry unknowns; c_nodes still lists all
    N+1 nodal values and the endpoint entries are dropped.
    """
    c_nodes = np.asarray(c_nodes, dtype=float)
    w = d / h**2
    diag = 2.0 * w + c_nodes[1:-1]
    off = np.full(c_nodes.size - 3, -w)
    return diag, off
