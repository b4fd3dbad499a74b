"""The symmetric tridiagonal discretizations behind the closed form's lambda*."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from evosis.model import CoefficientProfile
from evosis.presets import load_preset
from evosis.spectral import lambda_star_from_config

# A strictly convex recovery profile, so no eigenvector is a plain cosine or sine.
CURVED = CoefficientProfile(form="exponential", c0=2.0, c1=1.0, c2=-3.0)


def _separable(space: CoefficientProfile, d: float, grid_points: int = 200):
    """example1-fixed (constant beta, L = 1) with gamma = space(y)/rho^2 and d_I = d."""
    return replace(load_preset("example1-fixed"), d_I=d, grid_points=grid_points,
                   gamma=CoefficientProfile(form="separable", space=space))


def _second_difference(n: int, h: float) -> np.ndarray:
    """Dense [1, -2, 1]/h^2 on n nodes, with no boundary rows changed."""
    return (np.diag(np.full(n - 1, 1.0), -1) + np.diag(np.full(n - 1, 1.0), 1) - 2.0 * np.eye(n)) / h**2


def test_smallest_eigenvalue_matches_dense_solver():
    # the symmetrized no-flux matrix, assembled densely, with its end
    # couplings scaled by sqrt(2); its eigenvalues come from a full solver
    d, n = 0.3, 200
    h = 1.0 / n
    c = CURVED.evaluate_z(np.linspace(0.0, 1.0, n + 1))
    dense = -d * _second_difference(n + 1, h) + np.diag(c)
    dense[0, 1] = dense[1, 0] = dense[n, n - 1] = dense[n - 1, n] = -math.sqrt(2.0) * d / h**2
    expected = float(np.min(np.linalg.eigvalsh(dense)))
    assert lambda_star_from_config(_separable(CURVED, d), "neumann") == pytest.approx(expected, abs=1e-9)


def test_neumann_constant_potential_gives_exact_eigenvalue():
    # the constant mode is in the kernel of the no-flux Laplacian, so the
    # principal eigenvalue equals the potential exactly at discrete level
    c = 3.7
    config = _separable(CoefficientProfile(form="constant", c0=c), 0.8)
    assert lambda_star_from_config(config, "neumann") == pytest.approx(c, abs=1e-12)


def test_neumann_matches_unsymmetrized_ghost_operator():
    # independent route: eigenvalues of the plain (unsymmetric) ghost-node
    # discretization -d A + diag(c), which the symmetrized form must share
    d, n = 0.3, 240
    h = 1.0 / n
    nodes = np.linspace(0.0, 1.0, n + 1)
    lap = _second_difference(n + 1, h)
    lap[0, 1] = lap[n, n - 1] = 2.0 / h**2
    dense = -d * lap + np.diag(CURVED.evaluate_z(nodes))
    expected = float(np.min(np.real(np.linalg.eigvals(dense))))
    config = _separable(CURVED, d, grid_points=n)
    assert lambda_star_from_config(config, "neumann") == pytest.approx(expected, abs=1e-8)


def test_dirichlet_constant_potential_matches_discrete_sine_mode():
    # the grid has the config's intervals, but at least 200
    d, c = 0.1, 6.96
    for grid_points, n in ((50, 200), (250, 250)):
        h = 1.0 / n
        config = _separable(CoefficientProfile(form="constant", c0=c), d, grid_points)
        expected = c + 4.0 * d / h**2 * math.sin(math.pi * h / 2.0) ** 2
        assert lambda_star_from_config(config, "paper-example") == pytest.approx(expected, abs=1e-9)


def test_dirichlet_operator_drops_endpoints():
    # absorbing ends: only the N-1 interior nodes carry unknowns
    d, n = 0.3, 200
    h = 1.0 / n
    interior = CURVED.evaluate_z(np.linspace(0.0, 1.0, n + 1))[1:-1]
    dense = -d * _second_difference(n - 1, h) + np.diag(interior)
    expected = float(np.min(np.linalg.eigvalsh(dense)))
    assert lambda_star_from_config(_separable(CURVED, d), "paper-example") == pytest.approx(expected, abs=1e-9)
