"""Symmetric tridiagonal operators and their smallest eigenvalue."""

from __future__ import annotations

import math

import numpy as np
import pytest

from evosis.tridiag import dirichlet_operator, neumann_operator, smallest_eigenvalue

# Fixed symmetric tridiagonal instance used for the dense cross-checks.
SAMPLE_DIAG = np.array([2.0, 1.5, 3.0, 0.7, 2.2])
SAMPLE_OFF = np.array([0.4, -0.3, 0.9, 0.1])


def _dense(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    matrix = np.diag(diag)
    matrix += np.diag(off, 1) + np.diag(off, -1)
    return matrix


# ---- smallest eigenvalue ----

def test_smallest_eigenvalue_matches_dense_solver():
    expected = float(np.min(np.linalg.eigvalsh(_dense(SAMPLE_DIAG, SAMPLE_OFF))))
    assert smallest_eigenvalue(SAMPLE_DIAG, SAMPLE_OFF) == pytest.approx(expected, abs=1e-9)


def test_smallest_eigenvalue_of_diagonal_matrix():
    assert smallest_eigenvalue(np.array([4.0, -2.0, 7.0]), np.zeros(2)) == pytest.approx(
        -2.0, abs=1e-9)


def test_smallest_eigenvalue_rejects_bad_shapes():
    for diag, off in ((np.ones(3), np.ones(3)), (np.empty(0), np.empty(0))):
        with pytest.raises(ValueError):
            smallest_eigenvalue(diag, off)


# ---- discretized elliptic operators ----

def test_neumann_operator_boundary_entries():
    diag, off = neumann_operator(0.5, np.full(5, 1.0), 0.25)
    w = 0.5 / 0.25**2
    assert np.allclose(diag, 2.0 * w + 1.0)
    assert off[0] == pytest.approx(-math.sqrt(2.0) * w, abs=1e-15)
    assert off[-1] == pytest.approx(-math.sqrt(2.0) * w, abs=1e-15)
    assert np.allclose(off[1:-1], -w)


def test_neumann_constant_potential_gives_exact_eigenvalue():
    # the constant mode is in the kernel of the no-flux Laplacian, so the
    # principal eigenvalue equals the potential exactly at discrete level
    c = 3.7
    diag, off = neumann_operator(0.8, np.full(33, c), 1.0 / 32)
    assert smallest_eigenvalue(diag, off) == pytest.approx(c, abs=1e-12)


def test_neumann_matches_unsymmetrized_ghost_operator():
    # independent route: eigenvalues of the plain (unsymmetric) ghost-node
    # discretization -d A + diag(c), which the symmetrized form must share
    n = 40
    h = 1.0 / n
    d = 0.3
    nodes = np.linspace(0.0, 1.0, n + 1)
    c = 2.0 + np.sin(3.0 * nodes)
    lap = np.zeros((n + 1, n + 1))
    for j in range(1, n):
        lap[j, j - 1] = lap[j, j + 1] = 1.0 / h**2
        lap[j, j] = -2.0 / h**2
    lap[0, 0] = lap[n, n] = -2.0 / h**2
    lap[0, 1] = lap[n, n - 1] = 2.0 / h**2
    dense = -d * lap + np.diag(c)
    expected = float(np.min(np.real(np.linalg.eigvals(dense))))
    diag, off = neumann_operator(d, c, h)
    assert smallest_eigenvalue(diag, off) == pytest.approx(expected, abs=1e-8)


def test_dirichlet_constant_potential_matches_discrete_sine_mode():
    n = 50
    h = 1.0 / n
    d, c = 0.1, 6.96
    diag, off = dirichlet_operator(d, np.full(n + 1, c), h)
    expected = c + 4.0 * d / h**2 * math.sin(math.pi * h / 2.0) ** 2
    assert smallest_eigenvalue(diag, off) == pytest.approx(expected, abs=1e-9)


def test_dirichlet_operator_drops_endpoints():
    diag, off = dirichlet_operator(1.0, np.arange(6.0), 0.2)
    assert diag.size == 4
    assert off.size == 3
    assert np.allclose(diag - 2.0 / 0.04, np.arange(1.0, 5.0))
