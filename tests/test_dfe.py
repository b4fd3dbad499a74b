"""Disease-free periodic orbit via monotone period-map iteration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from evosis import model
from evosis.dfe import monotone_sweep_levels, solve_dfe, upper_start_level
from evosis.model import CoefficientProfile, EvolutionRate, InitialSpec, ModelConfig
from evosis.presets import load_preset

QUARTER_TURN = math.pi / 2

# Orbit of the scalar periodic logistic flow u' = u(a - b u - rho'/rho) with
# a=1, b=10, rho = exp(0.3(1 - cos 4t)); closed form via integrating factors
# and high-precision quadrature, sampled at quarter-period times.
SCALAR_ORBIT = {
    0.00: 0.129690620346709,
    0.25: 0.091443615556522,
    0.50: 0.073704333387219,
    0.75: 0.105153962101663,
}


def _constant(c0: float) -> CoefficientProfile:
    return CoefficientProfile(form="constant", c0=c0)


def _scalar_config(rho: EvolutionRate, a: float, b: float, **overrides) -> ModelConfig:
    base = dict(
        d_S=0.05,
        d_I=0.1,
        L=1.0,
        T=rho.period,
        rho=rho,
        a=_constant(a),
        b=_constant(b),
        beta=_constant(1.0),
        gamma=_constant(1.0),
        initial_S=InitialSpec(mean=0.3),
        initial_I=InitialSpec(mean=0.1),
        grid_points=16,
        steps_per_period=64,
    )
    base.update(overrides)
    return ModelConfig(**base)


# ---- fixed-domain constants ----

def test_constant_coefficients_orbit_is_carrying_capacity():
    rho = EvolutionRate(kind="constant-one", period=1.0)
    result = solve_dfe(_scalar_config(rho, a=1.3, b=2.6))
    assert np.max(np.abs(result.orbit.values - 0.5)) < 1e-8
    assert result.residual <= 1e-9
    assert result.bracket_gap <= 1e-8
    assert result.monotone_defect <= 1e-12


# ---- evolving-domain scalar oracle ----

def test_evolving_orbit_matches_scalar_closed_form():
    rho = EvolutionRate(kind="exp-cosine", period=QUARTER_TURN,
                        amplitude=0.3, frequency=4.0)
    config = _scalar_config(rho, a=1.0, b=10.0, steps_per_period=2000)
    result = solve_dfe(config)
    values = result.orbit.values
    steps = config.steps_per_period
    for fraction, expected in SCALAR_ORBIT.items():
        index = int(round(fraction * steps))
        assert values[index, 0] == pytest.approx(expected, abs=5e-7), fraction
    # spatially constant coefficients keep the orbit flat across the grid
    assert float(np.max(np.ptp(values, axis=1))) < 1e-10


def test_orbit_is_positive_and_periodic_on_preset():
    config = load_preset("example1-evolving").with_resolution(64, 200)
    result = solve_dfe(config)
    assert np.min(result.orbit.values) > 0.0
    assert result.orbit.closure_defect <= 1e-7
    assert result.bracket_gap <= 1e-8
    assert result.monotone_defect <= 1e-12
    assert result.iterations < 500


def test_upper_start_dominates_orbit():
    config = load_preset("example1-evolving").with_resolution(64, 200)
    level = upper_start_level(config)
    result = solve_dfe(config)
    assert level > float(np.max(result.orbit.values))


def test_solve_dfe_evaluates_each_coefficient_table_once(monkeypatch):
    """Four stepper tables plus one a/b pass for both start levels."""
    config = load_preset("example4-b").with_resolution(16, 64)
    calls = []
    original = model.evaluate_coefficient

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(model, "evaluate_coefficient", counting)
    solve_dfe(config)
    assert len(calls) == 6


def test_monotone_sweep_levels_never_increase():
    config = load_preset("example1-evolving").with_resolution(48, 128)
    levels = monotone_sweep_levels(config, sweeps=6)
    assert levels.size == 7
    assert np.all(np.diff(levels) <= 1e-12)


def test_heterogeneous_preset_orbit_converges():
    config = load_preset("example4-a").with_resolution(64, 200)
    result = solve_dfe(config)
    assert result.bracket_gap <= 1e-8
    assert np.min(result.orbit.values) > 0.0

