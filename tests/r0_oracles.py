"""Oracles for R0 and the Perron radius of the period map, independent of the engine's solves.

`scalar_r0` is the exact discrete R0 when beta and gamma are constant in
space. `log_perron_radius` forms the Crank-Nicolson period map of the
Phi-equation densely in `mpmath` at a given precision, from the same
double-precision step tables the engine takes, and returns ln r of its
eigenvalue with a one-signed eigenvector. It costs well under a second at
8x16 and 30 digits, and it does not assume any structure of beta or gamma.
"""

from __future__ import annotations

import mpmath
import numpy as np
from scipy.optimize import brentq

from evosis.engine import endpoint_mean
from evosis.model import ModelConfig, coefficient_table, evaluate_coefficient


def scalar_r0(config: ModelConfig) -> float:
    """Oracle for beta and gamma constant in space: the exact discrete R0.

    The constant vector is then an eigenvector of every Crank-Nicolson step,
    with factor (1 + theta dt q_k)/(1 - theta dt q_k), q_k = beta_k x - rest_k
    (endpoint means, rest = gamma + n rho'/rho, x = 1/mu). It is positive, so
    it is the Perron vector, and R0 is 1/x at the root of the log period
    factor, found by brentq.
    """
    times = np.linspace(0.0, config.T, config.steps_per_period + 1)
    rho = config.rho
    beta = np.broadcast_to(evaluate_coefficient(config.beta, rho, 0.0, times), times.shape)
    rest = evaluate_coefficient(config.gamma, rho, 0.0, times) + config.n * rho.derivative(times) / rho.value(times)
    beta_bar, rest_bar = 0.5 * (beta[:-1] + beta[1:]), 0.5 * (rest[:-1] + rest[1:])
    theta_dt = 0.5 * config.T / config.steps_per_period

    def log_factor(x: float) -> float:
        q = theta_dt * (beta_bar * x - rest_bar)
        return float(np.sum(np.log1p(q) - np.log1p(-q)))

    guess = np.sum(rest_bar) / np.sum(beta_bar)
    return 1.0 / brentq(log_factor, 0.5 * guess, 2.0 * guess, xtol=1e-300)


def log_perron_radius(config: ModelConfig, mu: float, digits: int = 30) -> float:
    """ln r of the period map at mu, each step (I - theta dt B_k)^-1 (I + theta dt B_k) in `digits` digits.

    B_k = nu_k A + diag(beta_bar_k / mu - rest_bar_k) with A the ghost-node
    Laplacian and the endpoint means taken in double precision, as the
    engine takes them; everything after that is exact to `digits` digits.
    The eigenvalue returned is the one whose eigenvector is one-signed,
    whatever the modulus of the stiff modes.
    """
    grid = config.grid
    times = np.linspace(0.0, config.T, config.steps_per_period + 1)
    beta_bar = endpoint_mean(coefficient_table(config.beta, config.rho, grid.nodes, times))
    rest_bar = endpoint_mean(coefficient_table(config.gamma, config.rho, grid.nodes, times)
                             + config.dilution(times)[:, None])
    nu_bar = endpoint_mean(config.d_I * np.asarray(config.rho.value(times), dtype=float) ** -2.0)
    q = beta_bar / mu - rest_bar
    n = grid.N + 1
    with mpmath.workdps(digits):
        theta_dt = mpmath.mpf(0.5 * config.T / config.steps_per_period)
        inv_h2 = 1 / mpmath.mpf(grid.h) ** 2
        laplacian = mpmath.zeros(n, n)
        for i in range(n):
            laplacian[i, i] = -2 * inv_h2
            if i > 0:
                laplacian[i, i - 1] = inv_h2
            if i < n - 1:
                laplacian[i, i + 1] = inv_h2
        laplacian[0, 1] = laplacian[n - 1, n - 2] = 2 * inv_h2
        period = mpmath.eye(n)
        for k in range(config.steps_per_period):
            generator = mpmath.mpf(nu_bar[k]) * laplacian + mpmath.diag([mpmath.mpf(v) for v in q[k]])
            step = mpmath.inverse(mpmath.eye(n) - theta_dt * generator) * (mpmath.eye(n) + theta_dt * generator)
            period = step * period
        values, vectors = mpmath.eig(period)
        tiny = mpmath.mpf(10) ** (5 - digits)
        for j, value in enumerate(values):
            vector = [vectors[i, j] for i in range(n)]
            largest = max(vector, key=abs)
            vector = [v / largest for v in vector]
            if all(mpmath.re(v) > 0 and abs(mpmath.im(v)) < tiny for v in vector):
                return float(mpmath.log(mpmath.re(value)))
    raise AssertionError("no eigenvector of the period map is one-signed")
