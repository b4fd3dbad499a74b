"""Linear period maps, the coupled stepper, and whole-period simulation."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from scipy.linalg import solve_banded

from evosis import spectral
from evosis.engine import (
    DENOMINATOR_GUARD,
    CoupledStepper,
    LinearEquationSpec,
    PeriodMapOperator,
    _FactorSet,
    endpoint_mean,
    simulate,
    step_lattice,
    trapezoid_weights,
)
from evosis.errors import StepError
from evosis.model import CoefficientProfile, EvolutionRate, Grid1D, InitialSpec, ModelConfig, coefficient_table
from evosis.presets import load_preset
from step_reference import ReferenceStepper, assert_same_bits, reference_apply
from tridiagonal_reference import (
    TwistedFactors,
    excess_factors,
    excess_solve,
    laplacian_bands,
    ldlt_solve,
    lu_solve,
    node_major_factors,
    row_weights,
    twisted_solve,
)

ROOT = Path(__file__).resolve().parents[1]
UNIT_PERIOD = EvolutionRate(kind="constant-one", period=1.0)


def _constant(c0: float) -> CoefficientProfile:
    return CoefficientProfile(form="constant", c0=c0)


def _homogeneous_config(beta: float = 3.0, gamma: float = 1.0, **overrides) -> ModelConfig:
    base = dict(
        d_S=0.05,
        d_I=0.1,
        L=1.0,
        T=1.0,
        rho=UNIT_PERIOD,
        a=_constant(1.0),
        b=_constant(2.0),
        beta=_constant(beta),
        gamma=_constant(gamma),
        initial_S=InitialSpec(mean=0.4),
        initial_I=InitialSpec(mean=0.2),
        grid_points=16,
        steps_per_period=64,
    )
    base.update(overrides)
    return ModelConfig(**base)


def _full(q: np.ndarray | None) -> tuple[np.ndarray | float, float, float]:
    """A full potential table q as a factor set takes it, (q, 0, 1): q/1 - 0 forms the bits of q, -0 included;
    None, the reference's q = 0, as the steppers' zero potential (0, 0, 1)."""
    return (0.0 if q is None else q, 0.0, 1.0)


def _dense_laplacian(grid: Grid1D) -> np.ndarray:
    sub, diag, sup = laplacian_bands(grid)
    return np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)


def step_linear(spec: LinearEquationSpec, u: np.ndarray, step_index: int) -> np.ndarray:
    """Independent Crank-Nicolson step from t_k to t_{k+1} via solve_banded.

    Diffusion scale and potential are averaged over the two step endpoints,
    which keeps the scheme exact for potentials constant in time and second
    order otherwise.
    """
    times = np.linspace(0.0, spec.rho.period, spec.steps_per_period + 1)
    t0, t1 = float(times[step_index]), float(times[step_index + 1])
    nodes = spec.grid.nodes
    nu0 = spec.d / float(spec.rho.value(t0)) ** 2
    nu1 = spec.d / float(spec.rho.value(t1)) ** 2
    nu_bar = 0.5 * (nu0 + nu1)
    q0 = np.full(nodes.shape, spec.potential(nodes, t0), dtype=float)
    q1 = np.full(nodes.shape, spec.potential(nodes, t1), dtype=float)
    q_bar = 0.5 * (q0 + q1)
    sub, diag, sup = laplacian_bands(spec.grid)
    half = 0.5 * spec.dt
    rhs = (1.0 + half * (nu_bar * diag + q_bar)) * u
    rhs[:-1] += half * nu_bar * sup * u[1:]
    rhs[1:] += half * nu_bar * sub * u[:-1]
    ab = np.zeros((3, spec.grid.N + 1))
    ab[0, 1:] = -half * nu_bar * sup
    ab[1] = 1.0 - half * (nu_bar * diag + q_bar)
    ab[2, :-1] = -half * nu_bar * sub
    out = solve_banded((1, 1), ab, rhs)
    assert np.all(np.isfinite(out))
    return out


# ---- discrete Laplacian ----

def test_laplacian_bands_ghost_rows():
    grid = Grid1D(L=1.0, N=4)
    sub, diag, sup = laplacian_bands(grid)
    inv_h2 = 16.0
    assert np.allclose(diag, -2.0 * inv_h2)
    assert sup[0] == pytest.approx(2.0 * inv_h2)
    assert sub[-1] == pytest.approx(2.0 * inv_h2)
    assert np.allclose(sup[1:], inv_h2)
    assert np.allclose(sub[:-1], inv_h2)


def test_laplacian_conserves_trapezoid_mass():
    grid = Grid1D(L=1.5, N=12)
    weights = trapezoid_weights(grid)
    dense = _dense_laplacian(grid)
    assert np.max(np.abs(weights @ dense)) < 1e-11


def test_laplacian_has_exact_cosine_eigenvector():
    grid = Grid1D(L=1.0, N=32)
    mode = np.cos(math.pi * grid.nodes / grid.L)
    eigenvalue = -(2.0 / grid.h**2) * (1.0 - math.cos(math.pi * grid.h / grid.L))
    assert np.max(np.abs(_dense_laplacian(grid) @ mode - eigenvalue * mode)) < 1e-9


def test_trapezoid_weights_sum_to_length():
    grid = Grid1D(L=2.5, N=10)
    assert trapezoid_weights(grid).sum() == pytest.approx(2.5, abs=1e-14)


# ---- linear stepping ----

def _linear_spec(potential, d: float = 0.1, n_points: int = 16, steps: int = 64,
                 rho: EvolutionRate = UNIT_PERIOD) -> LinearEquationSpec:
    return LinearEquationSpec(d=d, rho=rho, potential=potential,
                              grid=Grid1D(L=1.0, N=n_points), steps_per_period=steps)


def test_step_linear_constant_potential_is_exact_on_constants():
    q = 0.7
    spec = _linear_spec(lambda y, t: q)
    u = np.full(17, 2.0)
    stepped = step_linear(spec, u, 0)
    factor = (1.0 + 0.5 * q * spec.dt) / (1.0 - 0.5 * q * spec.dt)
    assert np.max(np.abs(stepped - 2.0 * factor)) < 1e-13


def test_period_map_constant_potential_growth_factor():
    q = 0.7
    steps = 64
    spec = _linear_spec(lambda y, t: q, steps=steps)
    out = PeriodMapOperator.from_spec(spec).apply(np.ones(17))
    factor = ((1.0 + 0.5 * q * spec.dt) / (1.0 - 0.5 * q * spec.dt)) ** steps
    assert np.max(np.abs(out - factor)) < 1e-11
    assert factor == pytest.approx(math.exp(q), rel=1e-4)


EVOLVING_RATE = EvolutionRate(kind="exp-cosine", period=1.0, amplitude=0.3, frequency=2.0 * math.pi)


@pytest.mark.parametrize("mode_index,d", [(1, 0.1), (3, 0.1), (32, 10.0)], ids=["1", "3", "32-stiff"])
@pytest.mark.parametrize("rho", [UNIT_PERIOD, EVOLVING_RATE], ids=["constant-one", "exp-cosine"])
def test_period_map_decays_cosine_mode_at_discrete_rate(rho, mode_index, d):
    """cos(j pi y/L) is an exact eigenvector of the discrete Laplacian, so each
    Crank-Nicolson step scales it by (1 - dt nu_k lam/2)/(1 + dt nu_k lam/2)."""
    steps = 128
    spec = _linear_spec(lambda y, t: 0.0, d=d, n_points=32, steps=steps, rho=rho)
    grid = spec.grid
    mode = np.cos(mode_index * math.pi * grid.nodes / grid.L)
    eigenvalue = (2.0 / grid.h**2) * (1.0 - math.cos(mode_index * math.pi * grid.h / grid.L))
    nu = d / np.asarray(rho.value(np.linspace(0.0, rho.period, steps + 1))) ** 2
    nu_bar = 0.5 * (nu[:-1] + nu[1:])
    half = 0.5 * spec.dt * nu_bar * eigenvalue
    factor = float(np.prod((1.0 - half) / (1.0 + half)))
    out = PeriodMapOperator.from_spec(spec).apply(mode)
    assert np.max(np.abs(out - factor * mode)) < 1e-12
    if mode_index == grid.N:
        # the highest mode with x_k = dt nu_k lam >= 96 on every step: each
        # step maps it by nearly -1, so the period factor (0.202 and 0.041)
        # stays far above the continuum decay, which underflows to 0; this
        # is why the radius route picks its eigenvalue by the sign of the
        # eigenvector, not by modulus, and also requires a small residual
        assert np.min(2.0 * half) >= 96.0
        assert factor > 0.04
        return
    # the continuum decay exp(-(j pi/L)^2 int nu) is met to O((j h)^2) in the exponent
    continuum = math.exp(-(mode_index * math.pi / grid.L) ** 2 * spec.dt * float(np.sum(nu_bar)))
    assert factor == pytest.approx(continuum, rel=1e-3 * mode_index**4)


def test_pure_diffusion_conserves_mass_on_evolving_domain():
    rho = EvolutionRate(kind="exp-cosine", period=1.0, amplitude=0.3,
                        frequency=2.0 * math.pi)
    spec = _linear_spec(lambda y, t: 0.0, d=0.4, n_points=24, steps=200, rho=rho)
    weights = trapezoid_weights(spec.grid)
    u = 1.0 + 0.5 * np.cos(math.pi * spec.grid.nodes)
    out = PeriodMapOperator.from_spec(spec).apply(u)
    assert weights @ out == pytest.approx(weights @ u, rel=1e-12)


def test_period_map_operator_matches_step_linear_loop():
    """Every time slice of the recorded period, and its end, against the independent banded steps."""
    def potential(y, t):
        return (1.0 + 0.5 * y) * math.sin(2.0 * math.pi * t)

    spec = _linear_spec(potential, n_points=16, steps=50)
    u = 1.0 + 0.1 * np.cos(math.pi * spec.grid.nodes)
    op = PeriodMapOperator.from_spec(spec)
    path = np.empty((spec.steps_per_period + 1, u.size))
    end = op.apply(u, path)
    looped = u.copy()
    assert np.array_equal(path[0], u)
    for k in range(spec.steps_per_period):
        looped = step_linear(spec, looped, k)
        assert np.max(np.abs(path[k + 1] - looped)) < 1e-12
    assert np.max(np.abs(end - looped)) < 1e-12


def test_period_map_recording_and_dense_matrix_agree_with_apply():
    spec = _linear_spec(lambda y, t: 0.5 * y, n_points=10, steps=40)
    op = PeriodMapOperator.from_spec(spec)
    u = 1.0 + 0.2 * np.cos(math.pi * spec.grid.nodes)
    path = np.empty((41, 11))
    end = op.apply(u, path)
    assert np.array_equal(path[0], u)
    assert np.array_equal(path[-1], end)
    assert np.array_equal(end, op.apply(u))
    dense = op.apply(np.eye(11))
    assert np.max(np.abs(dense @ u - op.apply(u))) < 1e-11


# ---- coupled stepper ----

def _assert_periods_match_reference(stepper, reference, u, periods=3):
    """Each period's path, result and clamp count equal the reference's, bit for bit; returns the last path."""
    path = np.empty((stepper.n_steps + 1,) + np.shape(u))
    for _ in range(periods):
        want = reference.path(u)
        u = stepper.period(u, path)
        assert_same_bits(path, want)
        assert_same_bits(u, want[-1])
    assert stepper.clamp_count == reference.clamp_count
    return path


def test_reaction_keeps_disease_free_state_invariant():
    """With I = 0 the incidence vanishes, so I stays exactly zero at every step
    and S follows the logistic reaction a S - b S^2."""
    config = _homogeneous_config()
    stepper = CoupledStepper(config)
    reference = ReferenceStepper(config, stepper)
    u = np.concatenate((np.full(17, 0.3), np.zeros(17)))
    r_s, r_i = np.split(reference.reaction(u, 0), 2)
    assert np.array_equal(r_i, np.zeros(17))
    assert np.allclose(r_s, 1.0 * 0.3 - 2.0 * 0.09)
    path = _assert_periods_match_reference(stepper, reference, u, periods=1)
    assert np.array_equal(path[:, 17:], np.zeros((65, 17)))
    assert np.all(np.diff(path[:, 0]) > 0.0)


def test_reaction_guards_vanishing_population():
    """S + I stays below DENOMINATOR_GUARD for several steps: at the zero state,
    where (beta S) I / (S + I) would be 0/0, and at three nodes of tiny S and I.
    There the incidence is zero, and every step stays finite and equals the
    reference's bit for bit. Diffusion is weak enough that the 0.3 around
    those nodes does not lift them over the guard within the period."""
    config = _homogeneous_config(d_S=1e-15, d_I=1e-15)
    for u in (np.zeros(34), np.full(34, 0.3)):
        u[[3, 8, 11, 17 + 3, 17 + 8, 17 + 11]] = [1e-14, 0.0, 0.0, 2e-14, 0.0, 0.0]
        stepper = CoupledStepper(config)
        path = _assert_periods_match_reference(stepper, ReferenceStepper(config, stepper), u, periods=1)
        assert np.all(np.isfinite(path))
        below = path[:, :17] + path[:, 17:] < DENOMINATOR_GUARD
        assert np.all(below[:, [3, 8, 11]])


def test_fused_reaction_zeroes_the_guarded_incidence_and_matches_the_unfused_formula():
    """S + I below the guard at three nodes of an evolving-domain preset: there
    the reference's incidence is zero, so R_I is exactly -(gamma + dil) I;
    everywhere its reaction is the unfused formula to 1e-15 rel, at the level
    of every step. The stepper takes every step of the period as the
    reference does, bit for bit, and never writes u. The S-only form takes a
    (2, N+1) state, and each row's path equals, bit for bit, the coupled S
    half on [row; 0]."""
    config = load_preset("example1-evolving").with_resolution(16, 32)
    coupled, lone = CoupledStepper(config), CoupledStepper(config, infected=False)
    reference, lone_reference = ReferenceStepper(config, coupled), ReferenceStepper(config, lone, infected=False)
    tables = _coefficient_tables(config, coupled.times)
    n = config.grid.N + 1
    assert tables["dil"][5, 0] != 0.0
    rng = np.random.default_rng(11)
    S, I = 0.1 + 2.0 * rng.random(n), 0.1 + 2.0 * rng.random(n)
    guarded = [0, 7, 16]
    S[guarded], I[guarded] = [1e-13, 0.0, 4e-13], [3e-13, 5e-13, 0.0]
    assert np.all((S + I < DENOMINATOR_GUARD) == np.isin(np.arange(n), guarded))
    u = np.concatenate((S, I))
    for k in range(coupled.n_steps + 1):
        r_S, r_I = np.split(reference.reaction(u, k), 2)
        assert np.array_equal(r_I[guarded], (-(tables["gamma"][k] + tables["dil"][k]) * I)[guarded])
        for got, want in zip((r_S, r_I), _reference_reaction(tables, S, I, k, fused=False)):
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    before = u.copy()
    _assert_periods_match_reference(coupled, reference, u, periods=1)
    assert np.array_equal(u, before)

    rows = np.stack((S, rng.random(n)))
    zeros = np.zeros(n)
    for row in rows:
        got = lone_reference.reaction(row, 5)
        want = _reference_reaction(tables, row, zeros, 5, fused=False)[0]
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    before = rows.copy()
    path = _assert_periods_match_reference(lone, lone_reference, rows, periods=1)
    assert np.array_equal(rows, before)
    whole = np.empty((coupled.n_steps + 1, 2 * n))
    for j, row in enumerate(rows):
        coupled.period(np.concatenate((row, zeros)), whole)
        assert_same_bits(path[:, j], whole[:, :n])


def test_coupled_step_fixes_logistic_equilibrium_exactly():
    config = _homogeneous_config()
    stepper = CoupledStepper(config)
    u = np.concatenate((np.full(17, 0.5), np.zeros(17)))  # S = a/b for a=1, b=2
    path = _assert_periods_match_reference(stepper, ReferenceStepper(config, stepper), u, periods=1)
    assert np.max(np.abs(path[:, :17] - 0.5)) < 1e-13
    assert np.array_equal(path[:, 17:], np.zeros((65, 17)))
    assert stepper.clamp_count == 0


def test_coupled_step_raises_on_nonfinite_state():
    config = _homogeneous_config()
    stepper = CoupledStepper(config)
    u = np.concatenate((np.full(17, np.inf), np.zeros(17)))
    with np.errstate(invalid="ignore"):
        with pytest.raises(StepError, match=r"after step 0$"):
            ReferenceStepper(config, stepper).period(u)
        with pytest.raises(StepError, match=r"non-finite state after step 0 \(t = 0\.015625\)"):
            stepper.period(u)


@pytest.mark.parametrize("node, value", [(17 + 5, np.nan), (17 + 5, np.inf), (3, -np.inf)],
                         ids=["nan-in-I", "inf-in-I", "minus-inf-in-S"])
def test_coupled_step_raises_on_one_nonfinite_entry(node, value):
    stepper = CoupledStepper(_homogeneous_config())
    u = np.full(34, 0.3)
    u[node] = value
    with np.errstate(invalid="ignore"), pytest.raises(StepError, match=r"after step 0 "):
        stepper.period(u)


def test_coupled_step_raises_on_positive_infinity_alone():
    """A +inf with no NaN and no negative beside it passes the min half of the
    step's guard, so only the max half can catch it. The compiled loop runs on
    a doctored corrector factor row: a zero pivot at I node 5 of step 3, in
    the top half of the I block, makes that node +inf, and the top chain of
    the back sweep carries it down the I block to node 0 as +inf. S and I are
    separate systems, each solved alone, so nothing of it reaches S. The
    three steps before it are taken, and the error names step 3."""
    stepper = CoupledStepper(_homogeneous_config())
    d, e = stepper._corr.d[3], stepper._corr.e[3]
    assert 5 < 17 // 2 and e[17 + 17 // 2] == 0.0
    d[17 + 5] = np.inf  # the table holds 1/D, and a zero pivot's reciprocal is +inf
    probe = np.full(34, 0.3)
    with np.errstate(all="ignore"):
        TwistedFactors(stepper._corr, 2).solve(3, probe)
    assert np.all(np.isposinf(probe[17:17 + 6])) and np.all(np.isfinite(np.delete(probe, range(17, 17 + 6))))
    with pytest.raises(StepError, match=r"after step 3 "):
        stepper.period(np.full(34, 0.3))


def test_coupled_step_counts_every_clamped_entry():
    # with diffusion this weak the step is pointwise, so exactly the seeded
    # negatives (three in S, two in I) stay negative after the first step and
    # are clamped; from zero the next steps stay nonnegative
    config = _homogeneous_config(d_S=1e-9, d_I=1e-9)
    stepper = CoupledStepper(config)
    u = np.full(34, 0.3)
    negative = [2, 9, 16, 17 + 5, 17 + 12]
    u[negative] = [-0.1, -0.05, -0.2, -0.05, -0.1]
    path = _assert_periods_match_reference(stepper, ReferenceStepper(config, stepper), u, periods=1)
    assert stepper.clamp_count == len(negative)
    assert np.all(path[1:] >= 0.0)
    assert np.array_equal(np.flatnonzero(path[1] == 0.0), negative)


def _clamping_stepper() -> tuple[CoupledStepper, np.ndarray, list[int]]:
    """The pointwise stepper of the test above, a start with three seeded negatives in S, and their nodes."""
    stepper = CoupledStepper(_homogeneous_config(d_S=1e-9, d_I=1e-9))
    u = np.full(34, 0.3)
    negative = [2, 9, 16]
    u[negative] = [-0.1, -0.05, -0.2]
    return stepper, u, negative


def test_a_failing_step_counts_none_of_its_clamps():
    """Step 0 leaves the seeded negatives in S negative, as the test above
    shows, and a NaN reciprocal pivot at I node 5 of its corrector factors
    makes I NaN; S and I are separate systems, so S keeps its negatives. The
    state is scanned S first, so the negatives are met before the NaN; the
    step fails, and none of them is counted."""
    stepper, u, _ = _clamping_stepper()
    stepper._corr.d[0, 17 + 5] = np.nan
    with pytest.raises(StepError, match=r"after step 0 "):
        stepper.period(u)
    assert stepper.clamp_count == 0


def test_a_later_failing_step_keeps_the_clamps_before_it():
    """Step 0 clamps the three seeded negatives; step 3's corrector factors
    are doctored to make S node 4 negative (a negated reciprocal pivot) and
    I nodes 0-5 +inf (a zero pivot at I node 5, as in the +inf test above).
    Step 3 fails, and the count stays step 0's three."""
    stepper, u, negative = _clamping_stepper()
    d = stepper._corr.d[3]
    d[4] = -d[4]
    d[17 + 5] = np.inf
    probe = np.full(34, 0.3)
    with np.errstate(all="ignore"):
        TwistedFactors(stepper._corr, 2).solve(3, probe)
    assert probe[4] < 0.0 and np.all(np.isposinf(probe[17:17 + 6]))
    with pytest.raises(StepError, match=r"after step 3 "):
        stepper.period(u)
    assert stepper.clamp_count == len(negative)


@pytest.mark.parametrize("columns", [0, 3], ids=["one-field", "three-C-order-columns"])
def test_period_map_apply_never_writes_its_input(columns):
    """A 1-D field and a C-order block of columns: u is unchanged, and each result
    is F-contiguous and an array of its own, kept intact by the next call, and
    equal, column by column, to the independent banded steps."""
    spec = _linear_spec(lambda y, t: 0.5 * y, n_points=10, steps=40)
    op = PeriodMapOperator.from_spec(spec)
    nodes = spec.grid.nodes
    angles = math.pi * (np.outer(nodes, np.arange(1, columns + 1)) if columns else nodes)
    u = 1.0 + 0.2 * np.cos(angles)
    assert u.flags.c_contiguous and u.shape == ((11, columns) if columns else (11,))
    before = u.copy()
    out = op.apply(u)
    kept = out.copy()
    again = op.apply(u)
    assert np.array_equal(u, before)
    for result in (out, again):
        assert result.shape == u.shape and result.flags.f_contiguous
        assert not np.shares_memory(result, u)
    assert not np.shares_memory(again, out)
    assert np.array_equal(out, kept) and np.array_equal(again, out)
    looped = before.reshape(11, -1)
    for k in range(spec.steps_per_period):
        looped = np.column_stack([step_linear(spec, column, k) for column in looped.T])
    assert np.max(np.abs(out - looped.reshape(u.shape))) < 1e-12


@pytest.mark.parametrize("infected", [True, False], ids=["stacked-S-I", "two-S-rows"])
def test_period_never_writes_its_input(infected):
    """The 1-D [S; I] state and a 2-row S-only state, with seeded negatives so the clamp runs too."""
    stepper = CoupledStepper(_homogeneous_config(d_S=1e-9, d_I=1e-9), infected=infected)
    u = np.full((34,) if infected else (2, 17), 0.3)
    u.flat[[2, 9, 16, 17 + 5, 17 + 12]] = [-0.1, -0.05, -0.2, -0.05, -0.1]
    before = u.copy()
    out = stepper.period(u)
    assert np.array_equal(u, before)
    assert stepper.clamp_count > 0
    assert out.shape == u.shape and not np.shares_memory(out, u)
    assert not np.array_equal(out, before)
    # a second period returns an array of its own: the first result is neither written nor shared
    kept = out.copy()
    again = stepper.period(u)
    assert np.array_equal(out, kept) and np.array_equal(again, out)
    assert not np.shares_memory(again, out) and not np.shares_memory(again, u)


def test_the_compiled_loop_refuses_states_and_paths_it_cannot_take():
    """Each is checked before the loop gets a pointer: a wrong shape raises, and nothing is written."""
    coupled, lone = CoupledStepper(_homogeneous_config()), CoupledStepper(_homogeneous_config(), infected=False)
    for stepper, bad in ((coupled, np.full(17, 0.3)), (coupled, np.full((2, 34), 0.3)),
                         (lone, np.full(34, 0.3)), (lone, np.full((2, 2, 17), 0.3))):
        with pytest.raises(ValueError, match="state of shape"):
            stepper.period(bad)
    u = np.full(34, 0.3)
    for path in (np.empty((64, 34)), np.empty((65, 34), dtype=np.float32), np.empty((34, 65)).T,
                 np.empty((65, 34))[:, ::1][::-1]):
        with pytest.raises(ValueError, match="path must be"):
            coupled.period(u, path)
    assert coupled.clamp_count == 0


# ---- the step cores against the frozen reference of their arithmetic ----

@pytest.mark.parametrize("name", ["example4-b", "example1-evolving", "example2-fixed"])
def test_period_equals_the_frozen_step_arithmetic_bit_for_bit(name):
    """Tables that vary in space and time, in time only, and not at all."""
    config = load_preset(name).with_resolution(32, 64)
    stepper = CoupledStepper(config)
    reference = ReferenceStepper(config, stepper)
    nodes = config.grid.nodes
    u = np.concatenate((config.initial_S.evaluate(nodes, config.L), config.initial_I.evaluate(nodes, config.L)))
    _assert_periods_match_reference(stepper, reference, u)


def test_period_equals_the_frozen_step_arithmetic_through_the_guard_and_the_clamp():
    """S + I below DENOMINATOR_GUARD at three nodes, and seeded negatives that the step clamps,
    in the [S; I] state and in a 2-row S-only state."""
    config = _homogeneous_config(d_S=1e-9, d_I=1e-9)
    u = np.full(34, 0.3)
    u[[3, 8, 11, 17 + 3, 17 + 8, 17 + 11]] = [1e-13, 0.0, 0.0, 2e-13, 0.0, 0.0]
    assert np.count_nonzero(u[:17] + u[17:] < DENOMINATOR_GUARD) == 3
    stepper = CoupledStepper(config)
    _assert_periods_match_reference(stepper, ReferenceStepper(config, stepper), u)
    for infected in (True, False):
        u = np.full((34,) if infected else (2, 17), 0.3)
        u.flat[[2, 9, 16, 17 + 5, 17 + 12]] = [-0.1, -0.05, -0.2, -0.05, -0.1]
        stepper = CoupledStepper(config, infected=infected)
        _assert_periods_match_reference(stepper, ReferenceStepper(config, stepper, infected=infected), u)
        assert stepper.clamp_count > 0


@pytest.mark.parametrize("zeros", [17, 6], ids=["I-zero", "I-zero-at-the-left-end"])
def test_period_equals_the_frozen_step_arithmetic_with_a_zero_at_the_seam(zeros):
    """I = 0 at its first node, next to the last S node: there the predictor's
    right-hand side is zero. S and I are separate systems, each solved alone
    with its own twisted factors, so no term crosses from one block into the
    other and no zero's sign can flip there. With I zero on the left end only,
    diffusion lifts I at node 0 off zero after the first solve; with I = 0
    throughout, I stays +0 at every node and step, and S follows the S-only
    stepper bit for bit."""
    config = load_preset("example1-evolving").with_resolution(16, 32)
    stepper = CoupledStepper(config)
    reference = ReferenceStepper(config, stepper)
    nodes = config.grid.nodes
    I = config.initial_I.evaluate(nodes, config.L)
    I[:zeros] = 0.0
    u = np.concatenate((config.initial_S.evaluate(nodes, config.L), I))
    rhs = reference.reaction(u, 0) * (stepper.dt * reference.w) + u * reference.w
    assert rhs[17] == 0.0
    path = _assert_periods_match_reference(stepper, reference, u)
    if zeros == 17:
        assert_same_bits(path[:, 17:], np.zeros((33, 17)))
        lone = CoupledStepper(config, infected=False)
        lone_path = np.empty((33, 17))
        lone.period(path[0, :17], lone_path)
        assert_same_bits(path[:, :17], lone_path)
    else:
        assert np.all(path[1:, 17] > 0.0)


def test_period_equals_the_frozen_step_arithmetic_where_the_last_s_node_solves_to_zero():
    """Doctored factor rows cut the last S node and the last I node off their
    blocks (a zero multiplier at each, the bottom chain's first, at every
    step), and both start at zero, so the last S node solves to zero in every
    predictor and corrector: its back sweep ends at zero, next to the first I
    node, which is nonzero. Each block is solved alone, so neither value
    reaches across. The reference solves with the same doctored rows."""
    config = _homogeneous_config()
    stepper = CoupledStepper(config)
    for factors in (stepper._pred, stepper._corr):
        assert np.all(factors.e[:, [8, 17 + 8]] == 0.0) and np.all(factors.e[:, [16, 17 + 16]] != 0.0)
        factors.e[:, [16, 17 + 16]] = 0.0
    u = np.concatenate((np.linspace(0.3, 0.6, 17), np.linspace(0.2, 0.1, 17)))
    u[[16, 17 + 16]] = 0.0
    path = _assert_periods_match_reference(stepper, ReferenceStepper(config, stepper), u)
    assert np.all(path[:, [16, 17 + 16]] == 0.0) and np.all(path[:, 17] > 0.0)
    assert np.all(path[:, :16] > 0.0)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_s_only_period_equals_the_frozen_step_arithmetic_bit_for_bit(rows):
    config = load_preset("example4-b").with_resolution(32, 64)
    stepper = CoupledStepper(config, infected=False)
    levels = (2.0, 0.05, 0.7)[:rows]
    u = np.repeat(np.asarray(levels)[:, None], config.grid.N + 1, axis=1)
    _assert_periods_match_reference(stepper, ReferenceStepper(config, stepper, infected=False),
                                    u[0] if rows == 1 else u)


@pytest.mark.parametrize("columns", [1, 2, 3, 8])
def test_period_map_apply_equals_the_frozen_step_arithmetic_bit_for_bit(columns):
    config = load_preset("example4-b").with_resolution(32, 64)
    op = spectral._phi_operators(config)(1.5)
    n = config.grid.N + 1
    u = spectral._cosines(n, 0, columns) + 1.5 if columns > 1 else np.linspace(1.0, 2.0, n)
    assert_same_bits(op.apply(u), reference_apply(op, u))
    assert_same_bits(op.apply(np.asfortranarray(u)), reference_apply(op, u))


def _coefficient_tables(config, times):
    """The a, b, beta and gamma tables on the stepper's lattice, and the dilution column n rho'/rho."""
    nodes = config.grid.nodes
    tables = {name: coefficient_table(getattr(config, name), config.rho, nodes, times)
              for name in ("a", "b", "beta", "gamma")}
    tables["dil"] = config.dilution(times)[:, None]
    return tables


def _reference_reaction(tables, S, I, j, fused=True):
    """(R_S, R_I) at t_j, in the stepper's fused operation order with gain = a - dil and
    loss = gamma + dil, or with fused=False in the unfused order, dilution subtracted last."""
    a, b, beta, gamma, dil = (tables[name][j] for name in ("a", "b", "beta", "gamma", "dil"))
    total = S + I
    incidence = np.zeros_like(S)
    np.divide(beta * S * I, total, out=incidence, where=total >= DENOMINATOR_GUARD)
    if fused:
        return S * ((a - dil) - b * S) - incidence + gamma * I, incidence - (gamma + dil) * I
    recovery = gamma * I
    return (a * S - b * S * S - incidence + recovery - dil * S,
            incidence - recovery - dil * I)


def _per_species_step(stepper, tables, grid, nus, S, I, k, solve_block=excess_solve, stencil=False,
                      fused=True):
    """Reference IMEX step with S and I kept apart: two reactions and four
    solves per step, each solve by solve_block on its own block. The
    trapezoidal corrector (I - theta B) x = (I + theta B) u + f is solved as
    x = (I - theta B)^-1 (2u + f) - u, or with stencil=True by applying
    I + theta B to u explicitly. fused=True takes the stepper's operation
    order (the right-hand sides r dt + u and (r1 + r0) half + u + u);
    fused=False the unfused one (u + dt r and half (r0 + r1) + 2u), with
    the unfused reaction. Returns the next (S, I), unclamped."""
    bands = laplacian_bands(grid)
    dt, half = stepper.dt, 0.5 * stepper.dt

    def solve(theta, nu, rhs):
        return solve_block(grid, (-theta * nu)[k], rhs)

    def apply(nu, u):
        sub, diag, sup = ((half * nu)[k] * band for band in bands)
        out = diag * u
        out[:-1] += sup * u[1:]
        out[1:] += sub * u[:-1]
        return out

    r0 = _reference_reaction(tables, S, I, k, fused)
    if not fused:
        star = [solve(dt, nu, u + dt * r) for nu, u, r in zip(nus, (S, I), r0)]
        r1 = _reference_reaction(tables, *star, k + 1, fused)
        return [solve(half, nu, half * (ra + rb) + 2.0 * u) - u
                for nu, u, ra, rb in zip(nus, (S, I), r0, r1)]
    star = [solve(dt, nu, r * dt + u) for nu, u, r in zip(nus, (S, I), r0)]
    r1 = _reference_reaction(tables, *star, k + 1)
    if stencil:
        return [solve(half, nu, u + apply(nu, u) + half * (ra + rb))
                for nu, u, ra, rb in zip(nus, (S, I), r0, r1)]
    return [solve(half, nu, (rb + ra) * half + u + u) - u
            for nu, u, ra, rb in zip(nus, (S, I), r0, r1)]


def test_coupled_step_matches_per_species_reference_bit_for_bit():
    """The reference solves each species with its own L D L^T factors from the
    scalar row-sum excess loop, in the stepper's fused order, from each row
    of the period's path to the next. Also, step by step, the `pttrf` and LU forms of the solves, the stencil form of the
    corrector and the unfused reaction and right-hand sides, each to rounding
    and with the same clamps."""
    # example4-a at 20 steps per period first clamps in period 18 (54 clamps by period 20)
    config = load_preset("example4-a").with_resolution(48, 20)
    stepper = CoupledStepper(config)
    tables = _coefficient_tables(config, stepper.times)
    inv_rho2 = np.asarray(config.rho.value(stepper.times), dtype=float) ** -2.0
    nus = (endpoint_mean(config.d_S * inv_rho2), endpoint_mean(config.d_I * inv_rho2))
    u = np.concatenate((config.initial_S.evaluate(config.grid.nodes, config.L),
                        config.initial_I.evaluate(config.grid.nodes, config.L)))
    path = np.empty((stepper.n_steps + 1, u.size))
    clamps = {"excess": 0, "ldlt": 0, "lu": 0, "stencil": 0, "unfused": 0}
    for _ in range(20):
        u = stepper.period(u, path)
        for k in range(stepper.n_steps):
            S, I = np.split(path[k], 2)
            reference = partial(_per_species_step, stepper, tables, config.grid, nus, S, I, k)
            steps = {"excess": reference(), "ldlt": reference(ldlt_solve), "lu": reference(lu_solve),
                     "stencil": reference(stencil=True), "unfused": reference(fused=False)}
            expected = np.concatenate(steps["excess"])
            for name, step in steps.items():
                step = np.concatenate(step)
                assert np.max(np.abs(step - expected)) <= 1e-13, name
                clamps[name] += int(np.count_nonzero(step < 0.0))
            assert np.array_equal(path[k + 1], np.maximum(expected, 0.0))
    assert len(set(clamps.values())) == 1
    assert stepper.clamp_count == clamps["excess"] > 0


def test_stacked_bands_solve_like_each_species_alone():
    """A factor set over the stacked bands of two species holds each block's
    own twisted factors: solving each block alone with them equals the two
    separate solves with the scalar loop's factors bit for bit; the `pttrf`
    and LU solves agree to rounding. The stacked factors, like the
    reference's, are those of the W-scaled system, solved on the rhs scaled
    by w."""
    grid = Grid1D(L=2.0, N=24)
    w = np.tile(row_weights(grid.N + 1), 2)
    rng = np.random.default_rng(7)
    steps, theta = 6, 0.01
    nu_S = 0.1 * (1.0 + rng.random(steps))
    for nu_I in (0.5 * (1.0 + rng.random(steps)), nu_S):
        factors = _FactorSet(grid, (nu_S, nu_I), (0.0, 0.0, 1.0), theta)
        for k in range(steps):
            rhs = rng.standard_normal(2 * (grid.N + 1))
            parts = list(zip((nu_S, nu_I), np.split(rhs, 2)))
            stacked = rhs * w
            TwistedFactors(factors, 2).solve(k, stacked)
            expected = np.concatenate([excess_solve(grid, (-theta * nu)[k], part) for nu, part in parts])
            assert np.array_equal(stacked, expected)
            for solve_block in (ldlt_solve, lu_solve):
                other = np.concatenate([solve_block(grid, (-theta * nu)[k], part) for nu, part in parts])
                assert np.max(np.abs(other - expected)) <= 1e-13, solve_block.__name__


@pytest.mark.parametrize("steps", [5, 8, 19], ids=["under-one-group", "one-group", "two-groups-and-a-tail"])
def test_weighted_laplacian_and_per_step_systems_are_exactly_symmetric(steps):
    """W A is symmetric to the bit. The twisted factors of each step's system
    W(I - theta dt (nu A + diag q)) multiply back to it: N D N^T, with N unit
    lower bidiagonal above each block's twist row k = n/2 and unit upper
    bidiagonal below it, has its off-diagonals and row sums within a few
    ulps, with a zero seam between blocks. The reference forms
    I + (-theta dt nu) A - theta dt diag q densely, then scales its rows by W.
    Each block's factors also equal the scalar reference loop's bit for bit,
    whether the compiled recurrence runs its steps in a part of one group of
    8 chains, in one whole group, or in two with a tail of 3: the set's d
    table holds the reciprocals of the reference pivots, and the product is
    formed with the pivots."""
    grid = Grid1D(L=1.7, N=12)
    n = grid.N + 1
    k_twist = n // 2
    weights = row_weights(n)
    dense = _dense_laplacian(grid)
    assert np.array_equal(weights[:, None] * dense, (weights[:, None] * dense).T)
    rng = np.random.default_rng(3)
    theta_dt = 0.013
    nus = (0.2 + rng.random(steps), 3.0 + rng.random(steps))
    q = rng.standard_normal((steps, n))
    ulp = np.finfo(float).eps
    for blocks, potential in (((nus[0],), q), ((nus[0],), None), (nus, None)):
        factors = _FactorSet(grid, blocks, _full(potential), theta_dt)
        assert np.array_equal(factors.w, np.tile(weights, len(blocks)))
        for k in range(steps):
            system = np.zeros((len(blocks) * n, len(blocks) * n))
            for j, nu in enumerate(blocks):
                block = np.eye(n) + (-theta_dt * nu)[k] * dense
                if potential is not None:
                    block -= np.diag(theta_dt * potential[k])
                system[j * n:(j + 1) * n, j * n:(j + 1) * n] = weights[:, None] * block
            assert np.array_equal(system, system.T)
            row_sums = factors.w if potential is None else (potential[k] * -theta_dt + 1.0) * factors.w
            pivots, e = np.empty(factors.d.shape[1]), factors.e[k]
            for j, nu in enumerate(blocks):
                ref_d, ref_e = excess_factors(row_sums[j * n:(j + 1) * n], (theta_dt * nu[k]) * (1.0 / grid.h**2))
                pivots[j * n:(j + 1) * n] = ref_d
                assert np.array_equal(e[j * n:(j + 1) * n], ref_e)
            assert np.array_equal(factors.d[k], 1.0 / pivots)
            twisted = np.eye(pivots.size)
            for start in range(0, pivots.size, n):
                for i in range(n):
                    if i != k_twist:
                        twisted[start + i + (1 if i < k_twist else -1), start + i] = e[start + i]
            product = twisted @ np.diag(pivots) @ twisted.T
            off = np.diag(system, 1)
            assert np.all(np.abs(np.diag(product, 1) - off) <= 2 * ulp * np.abs(off))
            assert np.all(np.abs(product.sum(axis=1) - system.sum(axis=1))
                          <= 4 * ulp * np.abs(system).sum(axis=1))
            if len(blocks) == 2:
                assert product[n - 1, n] == product[n, n - 1] == 0.0


@pytest.mark.parametrize("steps", [8, 21], ids=["one-group", "two-groups-and-a-tail"])
def test_compiled_factors_equal_the_node_major_recurrence_bit_for_bit(steps):
    """One block with a potential, one without, and two blocks: every reciprocal
    pivot and multiplier of the compiled recurrence has the bits of the numpy
    form, also when the step count leaves a tail of fewer than 8 chains."""
    grid = Grid1D(L=2.3, N=40)
    rng = np.random.default_rng(11)
    theta_dt = 0.007
    nus = (0.05 + rng.random(steps), 30.0 * (1.0 + rng.random(steps)))
    q = 40.0 * rng.standard_normal((steps, grid.N + 1))
    for blocks, potential in (((nus[0],), q), ((nus[1],), None), (nus, None)):
        factors = _FactorSet(grid, blocks, _full(potential), theta_dt)
        pivots, want_e = node_major_factors(grid, blocks, potential, theta_dt)
        assert_same_bits(factors.d, 1.0 / pivots)
        assert_same_bits(factors.e, want_e)


_APPLY_LAYOUTS = """
import numpy as np
from evosis import spectral
from evosis.presets import load_preset
op = spectral._phi_operators(load_preset("example4-b").with_resolution(8, 4))(1.5)
ints = np.arange(27).reshape(9, 3) % 5 + 1
block = ints.astype(float)
padded = np.zeros((18, 6))
padded[::2, ::2] = block
want = op.apply(block)
same = lambda got, ref: bool(np.all(got.view(np.uint64) == ref.view(np.uint64)))
checks = []
for u in (ints, np.asfortranarray(block), padded[::2, ::2], block[:, 0], padded[::2, 0]):
    before = u.copy()
    got = op.apply(u)
    checks.append(same(got, want if u.ndim == 2 else want[:, 0]) and np.array_equal(u, before)
                  and not np.shares_memory(got, u))
field = block[:, 0]
paths = (np.empty((4, 9)), np.empty((5, 9), dtype=np.float32), np.empty((9, 5)).T, np.empty((5, 9))[::-1],
         np.empty((5, 3, 9)), np.empty((5, 9)))
paths[-1].flags.writeable = False
for path in paths:
    try:
        op.apply(field, path)
        checks.append(False)
    except ValueError as error:
        checks.append(str(error).startswith("path must be") and np.array_equal(field, block[:, 0]))
print(__debug__, *checks)
"""


def test_period_map_apply_takes_any_input_layout_and_checks_its_path_under_python_O():
    """Integer, F-ordered and strided input give the bits of a C-ordered float
    block, and u is never written or shared; a path of the wrong shape,
    dtype, layout or writability raises ValueError before the loop gets a
    pointer. No check is an assert, so `python -O` keeps them all."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-O", "-c", _APPLY_LAYOUTS], capture_output=True, text=True,
                         timeout=120, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"] + ["True"] * 11


@pytest.mark.parametrize("stiffness", [1e4, 1e8, 1e12])
def test_factor_sets_solve_to_relative_accuracy_however_stiff(stiffness):
    """The exact discrete oracle: with q constant in space the row sums are
    w (1 - theta dt q) and A 1 = 0, so with the right-hand side w the solution
    is 1/(1 - theta dt q) at every node, whatever theta dt nu / h^2 is. The
    factors come from the row sums, so the solves stay within a few ulps even
    at theta dt nu / h^2 = 1e12 (the `pttrf` pivots d_i - c^2/D_{i-1} lose
    7.4e-13, 9.9e-9 and 7.1e-5 here). One block with q constant in space
    but varying per step, and two blocks without q."""
    grid = Grid1D(L=1.0, N=32)
    steps, theta_dt = 4, 0.01
    nus = (stiffness * grid.h**2 / theta_dt * np.array([1.0, 0.5, 2.0, 1.5]),
           stiffness * grid.h**2 / theta_dt * np.array([3.0, 1.0, 0.25, 1.0]))
    levels = np.array([0.3, -2.0, 50.0, 99.0])
    q = np.repeat(levels[:, None], grid.N + 1, axis=1)
    for blocks, potential in (((nus[0],), q), (nus, None)):
        factors = _FactorSet(grid, blocks, _full(potential), theta_dt)
        for k in range(steps):
            rhs = factors.w.copy()
            TwistedFactors(factors, len(blocks)).solve(k, rhs)
            exact = 1.0 / (1.0 - theta_dt * levels[k]) if potential is not None else 1.0
            assert np.max(np.abs(rhs / exact - 1.0)) <= 1e-14


def test_period_map_rejects_a_system_that_is_not_positive_definite():
    """theta dt q > 1 at one step: the factorization stops there, and the
    error names the step, the first pivot that is not positive in the
    numpy form of the recurrence, and the definiteness bound."""
    spec = _linear_spec(lambda y, t: 0.0, steps=16)
    q = np.zeros((16, 17))
    q[5] = 3.0 / (0.5 * spec.dt)
    q[5, :4] = 0.0
    nu = np.full(16, spec.d)
    d = node_major_factors(spec.grid, (nu,), q, 0.5 * spec.dt)[0]
    assert np.all(d[:5] > 0.0) and np.all(d[6:] > 0.0)
    pivot = int(np.argmax(~(d[5] > 0.0))) + 1
    assert pivot > 1
    with pytest.raises(StepError, match=rf"step 5: .*not positive definite \(pivot {pivot} of 17\).*"
                                        r"theta\*dt\*sup q < 1, here theta\*dt\*sup q = 3"):
        PeriodMapOperator(spec.grid, spec.dt, nu, (q, 0.0, 1.0))
    q[5] = 0.99 / (0.5 * spec.dt)
    PeriodMapOperator(spec.grid, spec.dt, nu, (q, 0.0, 1.0))


def test_period_map_rejects_a_zero_pivot_before_inverting_it():
    """theta dt q = 1 exactly (theta dt = 1/32, q = 32) and nu = 0 on step 5:
    there every row sum w(1 - theta dt q), the coupling c and so the first
    pivot are exactly +0, whose reciprocal +inf would pass for a positive
    number. The factor loop checks each pivot before it inverts it, so the
    error names step 5 and its first node."""
    spec = _linear_spec(lambda y, t: 0.0, steps=16)
    theta_dt = 0.5 * spec.dt
    q = np.zeros((16, 17))
    q[5] = 1.0 / theta_dt
    nu = np.full(16, spec.d)
    nu[5] = 0.0
    assert theta_dt == 1.0 / 32.0 and np.all(q[5] * -theta_dt + 1.0 == 0.0)
    pivots = node_major_factors(spec.grid, (nu,), q, theta_dt)[0]
    assert pivots[5, 0] == 0.0 and not np.signbit(pivots[5, 0])
    with np.errstate(divide="ignore"):
        assert np.isposinf(1.0 / pivots[5, 0])
    with pytest.raises(StepError, match=r"^step 5: .*not positive definite \(pivot 1 of 17\).*"
                                        r"here theta\*dt\*sup q = 1$"):
        PeriodMapOperator(spec.grid, spec.dt, nu, (q, 0.0, 1.0))


# ---- row sums formed in the compiled loop, from potential tables held at the shape they vary in ----

def _layout(values: np.ndarray, layout: str) -> np.ndarray:
    """values, of shape (steps, n), held as `layout`: the full table C- or F-ordered, a strided view of it, or
    its first column (time only), first row (space only) or first value (constant)."""
    if layout == "full":
        return values
    if layout == "fortran":
        return np.asfortranarray(values)
    if layout == "strided":
        padded = np.zeros((2 * values.shape[0], 3 * values.shape[1]))
        padded[::2, ::3] = values
        return padded[::2, ::3]
    return {"time": values[:, :1], "space": values[:1], "constant": values[:1, :1]}[layout]


_LAYOUTS = ("full", "fortran", "strided", "time", "space", "constant")


@pytest.mark.parametrize("p_layout", _LAYOUTS)
def test_compiled_row_sums_of_compact_and_full_potentials_equal_numpy_bit_for_bit(p_layout):
    """The factor set forms each step's row sums ((p/mu - r)(-theta dt) + 1) w in the compiled loop,
    reading p and r in place by their strides (0 along an axis they do not vary in). Its tables equal
    the node-major recurrence run on numpy's full q = p/mu - r, at mu != 1, for p and r each full (in
    three memory layouts) or held constant in time, in space or in both; 21 steps leave a tail of 5."""
    grid, steps, theta_dt, mu = Grid1D(L=2.3, N=40), 21, 0.007, 0.37
    n = grid.N + 1
    rng = np.random.default_rng(17)
    nu = 0.05 + rng.random(steps)
    p_values = 20.0 * rng.random((steps, n))
    p_values[3, 7] = -0.0
    r_values = 5.0 * rng.standard_normal((steps, n))
    p = _layout(p_values, p_layout)
    for r_layout in _LAYOUTS:
        r = _layout(r_values, r_layout)
        q = np.broadcast_to(p, (steps, n)) / mu - np.broadcast_to(r, (steps, n))
        assert theta_dt * np.max(q) < 1.0
        factors = _FactorSet(grid, (nu,), (p, r, mu), theta_dt)
        pivots, e = node_major_factors(grid, (nu,), q, theta_dt)
        assert_same_bits(factors.d, 1.0 / pivots)
        assert_same_bits(factors.e, e)


def test_stepper_factor_sets_have_the_weight_rows_as_their_row_sums():
    """The steppers pass the zero potential: the predictor's and the corrector's factor sets, on both blocks of
    the coupled stepper and on the S block alone, are those of the row sums w, bit for bit."""
    config = load_preset("example4-b").with_resolution(32, 64)
    inv_rho2 = np.asarray(config.rho.value(np.linspace(0.0, config.T, 65)), dtype=float) ** -2.0
    nus = (endpoint_mean(config.d_S * inv_rho2), endpoint_mean(config.d_I * inv_rho2))
    for stepper, blocks in ((CoupledStepper(config), nus), (CoupledStepper(config, infected=False), nus[:1])):
        for factors, theta_dt in ((stepper._pred, stepper.dt), (stepper._corr, 0.5 * stepper.dt)):
            pivots, e = node_major_factors(config.grid, blocks, None, theta_dt)
            assert_same_bits(factors.d, 1.0 / pivots)
            assert_same_bits(factors.e, e)


def _with_rate(config: ModelConfig, kind: str) -> ModelConfig:
    """config on the constant-one rate, or on a tabulated rate of 16 samples of its own rho over one period."""
    if kind == "constant-one":
        return replace(config, rho=EvolutionRate(kind="constant-one", period=config.T))
    samples = tuple(float(v) for v in np.asarray(config.rho.value(np.arange(16) * (config.T / 16))))
    return replace(config, rho=EvolutionRate(kind="tabulated", period=config.T, samples=samples))


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (7, 1), (7, 5)], ids=["value", "row", "column", "full"])
@pytest.mark.parametrize("special", [-0.0, 1.5e308], ids=["minus-zero", "sum-overflows"])
def test_endpoint_mean_of_a_compact_table_equals_that_of_the_full_table_bit_for_bit(shape, special):
    """A table held at one time level stands for the full table with that row at every level. Its
    `endpoint_mean`, broadcast to the M steps, has the bits of the full table's step means, a -0 entry
    included, and one whose sum with itself overflows: there 0.5 (t + t) is inf, not t."""
    steps, n = 6, 5
    compact = np.random.default_rng(23).standard_normal(shape)
    compact.flat[0] = special
    with np.errstate(over="ignore"):
        got, want = endpoint_mean(compact), endpoint_mean(np.broadcast_to(compact, (steps + 1, n)))
    assert_same_bits(np.broadcast_to(got, (steps, n)), want)


@pytest.mark.parametrize("rate", ["constant-one", "exp-cosine", "tabulated"])
def test_step_lattice_is_the_one_lattice_of_both_engines(rate):
    """The coupled stepper's times are the lattice's, rho^-2 is rho's at them, and the dilution is one
    +0.0 on the constant-one rate, where it is zero, and otherwise the column config.dilution(times),
    bit for bit."""
    config = load_preset("example4-b").with_resolution(16, 32)
    if rate != "exp-cosine":
        config = _with_rate(config, rate)
    times, inv_rho2, dil = step_lattice(config)
    assert_same_bits(times, np.linspace(0.0, config.T, 33))
    assert_same_bits(times, CoupledStepper(config).times)
    assert_same_bits(inv_rho2, np.asarray(config.rho.value(times), dtype=float) ** -2.0)
    assert_same_bits(dil, np.zeros((1, 1)) if rate == "constant-one" else config.dilution(times)[:, None])


@pytest.mark.parametrize(("preset", "rate"), [("example1-fixed", None), ("example4-b", None),
                                              ("example4-b", "constant-one")])
def test_phi_operators_equal_the_full_table_route_bit_for_bit(preset, rate):
    """`_phi_operators` holds beta and the rest gamma + n rho'/rho at the shape they vary in (on
    example1-fixed beta is constant and gamma varies in time only; on example4-b both vary in space and
    time; on example4-b moved to the constant-one rate both vary in space only, and the dilution is one
    value). Each trial's factors equal those of the full route: `endpoint_mean` of the full tables, then
    q = beta_bar/mu - rest_bar in numpy, through the node-major recurrence."""
    config = load_preset(preset).with_resolution(32, 64)
    if rate is not None:
        config = _with_rate(config, rate)
    grid = config.grid
    times = np.linspace(0.0, config.T, config.steps_per_period + 1)
    beta = coefficient_table(config.beta, config.rho, grid.nodes, times)
    gamma = coefficient_table(config.gamma, config.rho, grid.nodes, times)
    beta_bar = endpoint_mean(beta)
    rest_bar = endpoint_mean(gamma + config.dilution(times)[:, None])
    nu_bar = endpoint_mean(config.d_I * np.asarray(config.rho.value(times), dtype=float) ** -2.0)
    operator_at = spectral._phi_operators(config)
    for mu in (0.37, 1.0, 2.9):
        pivots, e = node_major_factors(grid, (nu_bar,), beta_bar / mu - rest_bar, 0.5 * (config.T / 64))
        factors = operator_at(mu)._factors
        assert_same_bits(factors.d, 1.0 / pivots)
        assert_same_bits(factors.e, e)


def test_phi_operators_hold_no_full_table_when_the_coefficients_vary_in_time_only():
    """On example1-fixed at 200x2000, beta is one value and the rest one column: the setup holds the
    diffusion scales and one step mean per step of the rest (about 32 KB), not two full 2000x201
    tables (6.4 MB)."""
    config = load_preset("example1-fixed").with_resolution(200, 2000)
    tracemalloc.start()
    try:
        operator_at = spectral._phi_operators(config)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 64 * 2**10
    assert operator_at(1.5).n_steps == 2000


def test_a_compact_potential_that_is_not_definite_at_one_step_names_it():
    """p varies in time only and r in space only. At step 5, theta dt (p/mu - r) is 0 on nodes 0-3 and
    3 on the others; at every other step it is negative. The error names step 5, the first pivot that
    is not positive in the numpy form of the recurrence, and the bound theta dt sup(p/mu - r) of that
    step, as for the same potential passed as one full table."""
    spec = _linear_spec(lambda y, t: 0.0, steps=16)
    theta_dt, mu = 0.5 * spec.dt, 0.5
    p = np.full((16, 1), -50.0)
    p[5] = 2.0
    r = np.full((1, 17), 4.0 - 96.0)
    r[0, :4] = 4.0
    q = np.broadcast_to(p, (16, 17)) / mu - np.broadcast_to(r, (16, 17))
    nu = np.full(16, spec.d)
    d = node_major_factors(spec.grid, (nu,), q, theta_dt)[0]
    assert np.all(d[:5] > 0.0) and np.all(d[6:] > 0.0)
    pivot = int(np.argmax(~(d[5] > 0.0))) + 1
    assert pivot > 1
    for potential in ((p, r, mu), (q, 0.0, 1.0)):
        with pytest.raises(StepError, match=rf"^step 5: .*not positive definite \(pivot {pivot} of 17\).*"
                                            r"here theta\*dt\*sup q = 3$"):
            PeriodMapOperator(spec.grid, spec.dt, nu, potential)


# ---- the smallest systems: every layout of the twisted halves ----

def _constant_potential(steps: int) -> np.ndarray:
    """Per-step levels of a potential constant in space, theta dt q within (-0.4, 0.5)."""
    return np.linspace(-12.0, 15.0, steps)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
def test_small_period_maps_equal_the_twisted_reference_and_the_exact_oracle(n):
    """n nodes, even and odd, so the top half holds one node more than the
    bottom half or as many; at n = 2 there is no bottom half. With q constant
    in space, A 1 = 0 makes each step map a constant a to
    a (1 + theta dt q_k) / (1 - theta dt q_k) exactly, whatever the
    diffusion; the map's factor set and its applies of 0, 1, 2, 3 and 8
    columns (and of one field) equal the twisted reference bit for bit, and
    each column is its constant times that product to a few ulps per step."""
    grid, steps = Grid1D(L=1.0, N=n - 1), 10
    dt = 1.0 / steps
    levels = _constant_potential(steps)
    q = np.repeat(levels[:, None], n, axis=1)
    nu = np.linspace(0.5, 40.0, steps)
    op = PeriodMapOperator(grid, dt, nu, (q, 0.0, 1.0))
    pivots, e = node_major_factors(grid, (nu,), q, 0.5 * dt)
    assert_same_bits(op._factors.d, 1.0 / pivots)
    assert_same_bits(op._factors.e, e)
    factor = 1.0
    for level in levels:
        factor *= (1.0 + 0.5 * dt * level) / (1.0 - 0.5 * dt * level)
    for columns in (0, 1, 2, 3, 8):
        u = np.repeat(np.linspace(0.5, 2.0, columns)[None, :], n, axis=0)
        got = op.apply(u)
        assert got.shape == (n, columns)
        assert_same_bits(got, reference_apply(op, u))
        assert np.all(np.abs(got / (u * factor) - 1.0) <= 1e-15 * steps)
    field = np.full(n, 1.5)
    assert_same_bits(op.apply(field), reference_apply(op, field))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
def test_small_steppers_equal_the_twisted_reference_and_the_exact_oracle(n):
    """The S-only stepper on 1, 2 and 3 rows and the coupled stepper, whose S
    and I blocks are two systems of n nodes: every step equals the reference
    bit for bit. On constant fields of the homogeneous model, diffusion
    leaves each field constant, so each S-only row follows the scalar IMEX
    recursion of its level to a few ulps per step."""
    config = _homogeneous_config(grid_points=n - 1, steps_per_period=16)
    lone = CoupledStepper(config, infected=False)
    dt = lone.dt
    levels = (2.0, 0.05, 0.7)
    for rows in (1, 2, 3):
        u = np.repeat(np.asarray(levels[:rows])[:, None], n, axis=1)
        state = u[0] if rows == 1 else u
        path = _assert_periods_match_reference(lone, ReferenceStepper(config, lone, infected=False), state,
                                               periods=1)
        for j, level in enumerate(levels[:rows]):
            for k in range(lone.n_steps):
                r = (1.0 - 2.0 * level) * level
                star = r * dt + level
                level = (((1.0 - 2.0 * star) * star + r) * (0.5 * dt) + 2.0 * level) - level
                got = path[k + 1] if rows == 1 else path[k + 1, j]
                assert np.all(np.abs(got / level - 1.0) <= 1e-15 * (k + 1))
    coupled = CoupledStepper(config)
    u = np.concatenate((np.linspace(0.3, 0.6, n), np.linspace(0.2, 0.1, n)))
    _assert_periods_match_reference(coupled, ReferenceStepper(config, coupled), u, periods=2)


def test_one_node_factors_and_period_map_in_the_compiled_loop():
    """One node, where the twist row is the whole system: no half, the pivot
    is the row sum, and a solve is one multiplication by its reciprocal.
    `Grid1D` cannot hold one node (h = L/N), so the compiled entry points
    are called directly, with the row weight 1/2 of a node that is both
    ends and the potential levels as p, with r = 0 and mu = 1: the factors,
    from the row sums that the loop forms, equal the scalar reference's bit for bit, a map of 0,
    1, 2, 3 and 8 columns equals the twisted reference solve step by step,
    and each value is its start times the exact product of the steps."""
    from evosis.steploop import Table, library

    steps, theta_dt, w = 10, 0.05, 0.5
    levels = _constant_potential(steps)
    row_sums = (levels * -theta_dt + 1.0) * w
    d, e = np.full((steps, 1), np.nan), np.full((steps, 1), np.nan)
    c = np.linspace(1.0, 1e6, steps)
    weights = np.array([w])
    p, r = (Table.of(np.broadcast_to(table, (steps, 1))) for table in (levels[:, None], np.zeros(1)))
    assert library().evosis_factor(d.ctypes.data, e.ctypes.data, c.ctypes.data, weights.ctypes.data, p, r, 1.0,
                                   theta_dt, 1, 1, steps) == -1
    for k in range(steps):
        pivots, multipliers = excess_factors(row_sums[k:k + 1], c[k])
        assert_same_bits(d[k], 1.0 / pivots)
        assert_same_bits(e[k], multipliers)
    two_w = np.array([2.0 * w])
    for columns in (0, 1, 2, 3, 8):
        u = np.linspace(0.5, 2.0, columns)[:, None].copy()
        out, spare = np.empty_like(u), np.empty(1 + u.size)  # 2w of the one node, then a state
        library().evosis_period_map(d.ctypes.data, e.ctypes.data, weights.ctypes.data, 1, columns, steps,
                                    u.ctypes.data, out.ctypes.data, None, spare.ctypes.data)
        want, exact = u.T.copy(), u.T.copy()
        for k in range(steps):
            x = want * two_w
            twisted_solve(d[k], e[k], x)
            want = x - want
            exact = exact * ((1.0 + theta_dt * levels[k]) / (1.0 - theta_dt * levels[k]))
        assert_same_bits(out.T, want)
        assert np.all(np.abs(out.T / exact - 1.0) <= 1e-15 * steps)


def test_held_factors_fit_their_budgets():
    """At 200x2000 on example4-b the period map holds two tables of M(N+1)
    doubles (6.2 MiB). The coupled stepper holds about 88.6 B per N*M cell:
    the four tables of its two factor sets over both blocks (64 B), and
    beta, gamma and minus_loss, which vary in space and time (24 B); gain
    and b vary in time only or not at all, and hold one column and one
    value. The compiled loop reads every table in place, so it adds
    nothing. The S-only stepper holds about 32.3 B: the four factor tables
    of the S block (32 B). A factor set build, with q on one block or
    without it on two, needs under 1 MiB of scratch beyond the tables it
    keeps (65 KiB measured: the compiled recurrence runs in place)."""
    config = load_preset("example4-b").with_resolution(200, 2000)
    operator_at = spectral._phi_operators(config)
    held = {}
    for name, build in (("period map", lambda: operator_at(1.5)),
                        ("stepper", lambda: CoupledStepper(config)),
                        ("S-only stepper", lambda: CoupledStepper(config, infected=False))):
        tracemalloc.start()
        try:
            built = build()
            held[name] = tracemalloc.get_traced_memory()[0]
            del built
        finally:
            tracemalloc.stop()
    cells = config.grid_points * config.steps_per_period
    assert held["period map"] <= 8 * 2**20
    assert held["stepper"] <= 95 * cells
    assert held["S-only stepper"] <= 36 * cells
    grid, steps = config.grid, config.steps_per_period
    rng = np.random.default_rng(5)
    nus = (0.1 + rng.random(steps), 1.0 + rng.random(steps))
    q = rng.random((steps, grid.N + 1))
    for blocks, potential in (((nus[0],), q), (nus, None)):
        tracemalloc.start()
        try:
            factors = _FactorSet(grid, blocks, _full(potential), 1e-3)
            kept, peak = tracemalloc.get_traced_memory()
            del factors
        finally:
            tracemalloc.stop()
        assert peak - kept <= 2**20, len(blocks)


def test_homogeneous_system_settles_at_endemic_equilibrium():
    # spatially flat constants: S* = a/b and I* = S*(beta/gamma - 1)
    summary = simulate(_homogeneous_config(), periods=80)
    assert np.max(np.abs(summary.final_S - 0.5)) < 1e-6
    assert np.max(np.abs(summary.final_I - 1.0)) < 1e-6
    assert summary.clamp_count == 0


# ---- whole-period simulation ----

def test_simulate_records_per_period_diagnostics():
    summary = simulate(_homogeneous_config(), periods=5, record_last_period=True)
    assert [record.index for record in summary.records] == [1, 2, 3, 4, 5]
    assert all(record.sup_I > 0.0 for record in summary.records)
    assert all(record.l1_I > 0.0 for record in summary.records)
    times, s_path, i_path = summary.last_period
    assert times.size == 65
    assert s_path.shape == (65, 17)
    assert i_path.shape == (65, 17)
    assert np.max(np.abs(s_path[-1] - summary.final_S)) < 1e-15


def test_simulate_closure_defect_shrinks_as_orbit_settles():
    summary = simulate(load_preset("example2-fixed").with_resolution(48, 200), periods=12)
    defects = [record.s_closure_defect for record in summary.records]
    assert defects[-1] < 0.1 * defects[1]


def test_simulate_stops_early_below_extinction_level():
    config = load_preset("example4-a").with_resolution(48, 256)
    summary = simulate(config, periods=60, stop_below=1e-8)
    assert len(summary.records) < 30
    assert summary.records[-1].sup_I < 1e-8
    assert summary.clamp_count == 0
    assert summary.stop_reason == "extinct"
    assert simulate(config, periods=3, stop_below=1e-8).stop_reason == "horizon"



def test_simulate_is_second_order_in_time():
    """Observed order of sup-I after 10 periods over a doubling M ladder.

    On example4-b at N=32 the successive differences are 7.6e-7, 2.1e-7,
    5.3e-8 and 1.4e-8, orders 1.88, 1.94 and 1.97. Coarser ladders are not
    yet asymptotic: from M=50 the orders read 0.68, 1.62 and 1.84.
    """
    config = load_preset("example4-b")
    sups = [simulate(config.with_resolution(32, steps), periods=10).records[-1].sup_I
            for steps in (250, 500, 1000, 2000, 4000)]
    differences = np.abs(np.diff(sups))
    orders = np.log2(differences[:-1] / differences[1:])
    assert np.all((orders >= 1.8) & (orders <= 2.2)), orders
