"""Disease-free periodic orbit via monotone period-map iteration."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from evosis import dfe, model
from evosis.cli import main
from evosis.dfe import monotone_sweep_levels, solve_dfe, upper_start_level
from evosis.engine import CoupledStepper, endpoint_mean
from evosis.errors import ConvergenceError
from evosis.model import CoefficientProfile, EvolutionRate, InitialSpec, ModelConfig
from evosis.presets import load_preset, preset_names
from step_reference import ReferenceStepper, assert_same_bits
from tridiagonal_reference import LuFactors

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
    """The stepper's gain (from a) and b tables plus one a/b pass for both start levels."""
    config = load_preset("example4-b").with_resolution(16, 64)
    calls = []
    original = model.evaluate_coefficient

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(model, "evaluate_coefficient", counting)
    solve_dfe(config)
    assert len(calls) == 4


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


# ---- the I-free stepper against the coupled stepper on I = 0 ----

def _coupled_period(stepper: CoupledStepper, S: np.ndarray) -> np.ndarray:
    """S after one period of the coupled stepper on [S; 0], which must leave I at zero."""
    n = S.size
    u = stepper.period(np.concatenate((S, np.zeros(n))))
    assert not u[n:].any()
    return u[:n]


def _coupled_fixed_point(stepper: CoupledStepper, level: float) -> tuple[np.ndarray, int, float, float]:
    """One start iterated alone by the coupled stepper on I = 0: (fixed point, sweeps, residual, rise)."""
    u = np.full(stepper.n_nodes, level)
    worst_rise = 0.0
    for sweep in range(1, dfe.MAX_SWEEPS + 1):
        v = _coupled_period(stepper, u)
        change = v - u
        residual = float(np.max(np.abs(change)))
        worst_rise = max(worst_rise, float(np.max(change)))
        if residual < dfe.DEFAULT_TOL:
            return v, sweep, residual, worst_rise
        u = v
    raise AssertionError(f"no fixed point from {level} in {dfe.MAX_SWEEPS} sweeps")


def _sequential_reference(config: ModelConfig):
    """The orbit as the full coupled stepper on I = 0 finds it, upper start first, then lower.

    Returns the (fixed point, sweeps, residual, rise) of each start, the
    recorded orbit path and the stepper's clamp count.
    """
    stepper = CoupledStepper(config)
    top, bottom = dfe._start_levels(config)
    upper = _coupled_fixed_point(stepper, top)
    lower = _coupled_fixed_point(stepper, bottom)
    n = upper[0].size
    path = np.empty((stepper.n_steps + 1, 2 * n))
    stepper.period(np.concatenate((upper[0], np.zeros(n))), path)
    assert not path[:, n:].any()
    return upper, lower, path[:, :n], stepper.clamp_count


def _lu_dfe_stepper(config: ModelConfig) -> ReferenceStepper:
    """The frozen S-only step arithmetic with the LU form of the solves, with pivoting, for L D L^T."""
    stepper = CoupledStepper(config, infected=False)
    nu = endpoint_mean(config.d_S * np.asarray(config.rho.value(stepper.times), dtype=float) ** -2.0)
    solves = (LuFactors(config.grid, nu, stepper.dt), LuFactors(config.grid, nu, 0.5 * stepper.dt))
    return ReferenceStepper(config, stepper, infected=False, solves=solves)


@pytest.mark.parametrize("name", ["example1-evolving", "example4-b"])
@pytest.mark.parametrize("rows", [2, 1])
def test_dfe_stepper_matches_coupled_s_half_bit_for_bit(name, rows):
    """Rows of the S-only form, and its first field stepped alone as a 1-D state, equal the S half.

    Also, period by period from the same rows, the LU form of the solves to rounding.
    """
    config = load_preset(name).with_resolution(48, 256)
    levels = dfe._start_levels(config)[:rows]
    coupled, lone, lu = CoupledStepper(config), CoupledStepper(config, infected=False), _lu_dfe_stepper(config)
    single = CoupledStepper(config, infected=False)
    fields = [np.full(config.grid.N + 1, level) for level in levels]
    u = np.array(fields)
    field = fields[0]
    for _ in range(4):
        u, lu_rows = lone.period(u), lu.period(u)
        assert np.max(np.abs(lu_rows - u)) <= 1e-13
        fields = [_coupled_period(coupled, S) for S in fields]
        field = single.period(field)
        assert u.shape == (rows, config.grid.N + 1)
        assert field.shape == (config.grid.N + 1,)
        for row, S in zip(u, fields):
            assert_same_bits(row, S)
        assert_same_bits(field, fields[0])
    assert lone.clamp_count == coupled.clamp_count == lu.clamp_count


def _scalar_clamping_config() -> ModelConfig:
    """a dt = 3.75: the explicit reaction overshoots below zero and every sweep clamps.

    `validate_config` rejects it, so the command line never runs it; the
    solver takes it as given, which exercises its clamp branch.
    """
    return _scalar_config(EvolutionRate(kind="constant-one", period=1.0), a=60.0, b=120.0,
                          steps_per_period=16)


def test_dfe_strict_rejects_the_overshooting_reaction_step(tmp_path, capsys):
    """Both starts would clamp to the zero orbit and report it converged: a configuration error."""
    path = tmp_path / "overshoot.json"
    path.write_text(json.dumps(model.config_to_dict(_scalar_clamping_config())), encoding="utf-8")
    assert main(["dfe", "--strict", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error: steps_per_period: the explicit reaction step needs" in err
    assert "got 3.75" in err and "need steps_per_period >= 60" in err


@pytest.mark.parametrize("config", [
    *(load_preset(name).with_resolution(48, 256) for name in preset_names()),
    _scalar_clamping_config(),
], ids=[*preset_names(), "scalar-clamping"])
def test_solve_dfe_matches_sequential_coupled_reference(config):
    """Also the LU form of the solves: the same fixed points to rounding, sweeps and clamps."""
    upper, lower, path, clamps = _sequential_reference(config)
    lu = _lu_dfe_stepper(config)
    for got, want in zip(dfe._fixed_points(lu, dfe._start_levels(config)), (upper, lower)):
        assert np.max(np.abs(got[0] - want[0])) <= 1e-13
        assert got[1] == want[1]
    lu.period(upper[0])
    assert lu.clamp_count == clamps
    result = solve_dfe(config)
    assert result.iterations == upper[1]
    assert result.residual == upper[2]
    assert result.monotone_defect == upper[3]
    assert result.lower_iterations == lower[1]
    assert result.bracket_gap == float(np.max(np.abs(upper[0] - lower[0])))
    assert_same_bits(result.orbit.values, path)
    assert result.clamp_count == clamps


def test_scalar_clamping_config_reports_its_clamps():
    assert solve_dfe(_scalar_clamping_config()).clamp_count > 0


@pytest.mark.parametrize("name", ["example1-evolving", "example4-b"])
def test_fixed_points_retire_rows_in_either_order(name):
    """The upper start retires first; swapped, the retiring row is the last one instead of the first.

    The LU form of the solves reaches the same fixed points to rounding, in as many sweeps.
    """
    config = load_preset(name).with_resolution(48, 256)
    top, bottom = dfe._start_levels(config)
    stepper = CoupledStepper(config, infected=False)
    coupled = CoupledStepper(config)
    expected = [_coupled_fixed_point(coupled, level) for level in (top, bottom)]
    assert expected[0][1] < expected[1][1]
    for got, want in zip(dfe._fixed_points(_lu_dfe_stepper(config), (top, bottom)), expected):
        assert np.max(np.abs(got[0] - want[0])) <= 1e-13
        assert got[1] == want[1]
    for levels, order in (((top, bottom), (0, 1)), ((bottom, top), (1, 0))):
        found = dfe._fixed_points(stepper, levels)
        for got, index in zip(found, order):
            want = expected[index]
            assert_same_bits(got[0], want[0])
            assert got[1:] == want[1:]


@pytest.mark.parametrize("budget, start", [(5, 0), (13, 1), (14, 1)])
def test_sweep_budget_error_names_the_first_unsettled_start(monkeypatch, budget, start):
    """Upper unsettled: its residual is reported, as when it ran alone first; then the lower one's.

    The upper start settles in exactly 13 sweeps, so at a budget of 13 it
    retires on the last sweep and the error names the lower start.
    """
    config = load_preset("example1-evolving").with_resolution(48, 256)
    stepper = CoupledStepper(config)
    u = np.full(config.grid.N + 1, dfe._start_levels(config)[start])
    for _ in range(budget):
        u, v = _coupled_period(stepper, u), u
    residual = float(np.max(np.abs(u - v)))
    monkeypatch.setattr(dfe, "MAX_SWEEPS", budget)
    with pytest.raises(ConvergenceError, match=f"still moving by {residual:.3e} after {budget} sweeps"):
        solve_dfe(config)


def test_solve_dfe_raises_when_the_two_starts_settle_apart(monkeypatch):
    """With no room left between them, the two fixed points, which settle to within DEFAULT_TOL but not to the bit,
    are too far apart."""
    monkeypatch.setattr(dfe, "TWO_SIDED_FACTOR", 0.0)
    with pytest.raises(ConvergenceError, match=r"upper and lower iterations settled \S+ apart, beyond 0\.000e\+00; "
                                               r"the orbit bracket did not close"):
        solve_dfe(load_preset("example4-b").with_resolution(16, 64))


def test_dfe_stepper_holds_about_half_the_coupled_stepper_memory():
    """No I factors or beta/gamma tables: the S-only form holds 0.38x the coupled form's bytes at 200x2000."""
    config = load_preset("example4-b").with_resolution(200, 2000)
    held = {}
    for infected in (True, False):
        tracemalloc.start()
        try:
            stepper = CoupledStepper(config, infected=infected)
            held[infected] = tracemalloc.get_traced_memory()[0]
            del stepper
        finally:
            tracemalloc.stop()
    assert held[False] <= 0.40 * held[True]
