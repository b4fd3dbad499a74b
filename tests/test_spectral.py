"""Reproduction number: period-map radii, bounds, closed forms, certificates."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.sparse.linalg import LinearOperator, eigs

from evosis import spectral
from evosis.cli import EXIT_SOLVER, main
from evosis.engine import LinearEquationSpec, PeriodMapOperator
from evosis.errors import ConvergenceError, NotApplicableError, StepError
from evosis.model import (
    CoefficientProfile,
    EvolutionRate,
    Grid1D,
    InitialSpec,
    ModelConfig,
    coefficient_table,
    validate_config,
)
from evosis.presets import load_preset, preset_names
from evosis.spectral import (
    _operator_radius,
    closed_form_r0,
    compute_r0,
    eigenfunction_monotonicity_certificate,
    invasion_eigenvalue,
    lambda_star_from_config,
    period_map_spectral_radius,
    r0_bounds,
    r0_closed_form,
)
from r0_oracles import scalar_r0

QUARTER_TURN = math.pi / 2

# ---- frozen reference values ----

# period mean of rho^-2 for the exp-cosine rate (Bessel identity)
MEAN_INV_RHO2_035 = 0.559305526507068

# lambda* = c + d_I (pi/L)^2 for constant separable recovery, absorbing ends
LAMBDA_STAR_EX1 = 7.946960440108936
LAMBDA_STAR_EX2 = 5.986960440108936
LAMBDA_STAR_EX3B = 19.695683520871487

# closed-form R0 under the absorbing-endpoint (worked example) convention
PUBLISHED_R0 = {
    "example1-fixed": 0.880839920212821,
    "example1-evolving": 1.574881488680747,
    "example2-fixed": 1.169207658882181,
    "example2-evolving": 0.847005251817491,
    "example3-a": 1.574881488680747,
    "example3-b": 0.635444861567921,
}

# closed-form R0 under the no-flux convention, lambda* = c
NEUMANN_R0_E1_EVOLVING = 1.798207024196231

# period integrals of the nodal coefficient extremes for the two
# heterogeneous presets (independent high-precision quadrature)
BOUNDS_E4A = {
    "min_beta_integral": 1.067882804158198,
    "max_beta_integral": 1.068141502220530,
    "min_gamma_integral": 1.099557428756428,
    "max_gamma_integral": 3.385713018086869,
    "lower": 0.315408541259535,
    "upper": 0.971428571428571,
}
BOUNDS_E4B = {
    "min_beta_integral": 1.067626278316673,
    "max_beta_integral": 1.068141502220530,
    "min_gamma_integral": 0.973893722612836,
    "max_gamma_integral": 1.025851804188528,
    "lower": 1.040721743586726,
    "upper": 1.096774193548387,
}


def _constant(c0: float) -> CoefficientProfile:
    return CoefficientProfile(form="constant", c0=c0)


def _homogeneous_config(beta: float, gamma: float, rho: EvolutionRate,
                        **overrides) -> ModelConfig:
    base = dict(
        d_S=0.05,
        d_I=0.1,
        L=1.0,
        T=rho.period,
        rho=rho,
        a=_constant(1.0),
        b=_constant(2.0),
        beta=_constant(beta),
        gamma=_constant(gamma),
        initial_S=InitialSpec(mean=0.3),
        initial_I=InitialSpec(mean=0.1),
        grid_points=32,
        steps_per_period=200,
    )
    base.update(overrides)
    return ModelConfig(**base)


# ---- spectral radius of linear period maps ----

def test_spectral_radius_constant_potential_discrete_identity():
    q, steps = 0.7, 64
    spec = LinearEquationSpec(
        d=0.1, rho=EvolutionRate(kind="constant-one", period=1.0),
        potential=lambda y, t: q, grid=Grid1D(L=1.0, N=16), steps_per_period=steps)
    radius = period_map_spectral_radius(spec)
    factor = ((1.0 + 0.5 * q * spec.dt) / (1.0 - 0.5 * q * spec.dt)) ** steps
    assert radius == pytest.approx(factor, rel=1e-11)


def _oscillating_spec() -> LinearEquationSpec:
    def potential(y, t):
        return 0.5 + 0.4 * np.cos(math.pi * y) * math.sin(2.0 * math.pi * t)

    return LinearEquationSpec(
        d=0.05, rho=EvolutionRate(kind="constant-one", period=1.0),
        potential=potential, grid=Grid1D(L=1.0, N=8), steps_per_period=64)


def _dense_radius(op: PeriodMapOperator) -> float:
    """Oracle: the Perron eigenvalue of the assembled period-map matrix.

    The largest real positive eigenvalue whose eigenvector is one-signed,
    from one dense eigen-solve, with no iteration.
    """
    values, vectors = np.linalg.eig(op.apply(np.eye(op.grid.N + 1)))
    perron = []
    for value, vector in zip(values, vectors.T):
        x = vector.real * np.sign(vector.real[np.argmax(np.abs(vector.real))])
        if value.imag == 0.0 and value.real > 0.0 and np.min(x) >= -1e-10 * np.max(x):
            perron.append(value.real)
    return max(perron)


class _ColumnCounter:
    """Wraps a period map, recording the column count of every apply."""

    def __init__(self, op: PeriodMapOperator) -> None:
        self.grid, self._op, self.widths = op.grid, op, []

    def apply(self, u: np.ndarray) -> np.ndarray:
        self.widths.append(u.shape[1])
        return self._op.apply(u)


def test_spectral_radius_block_route_matches_dense_oracle():
    op = PeriodMapOperator.from_spec(_oscillating_spec())
    radius, mode, _ = _operator_radius(op)
    assert radius == pytest.approx(_dense_radius(op), abs=1e-12)
    assert np.min(mode) > 0.0 and np.max(mode) == 1.0
    assert np.max(np.abs(op.apply(mode) - radius * mode)) < 1e-7 * radius


def test_spectral_radius_stops_after_one_apply_when_the_start_block_holds_the_eigenvector():
    """A constant potential, and example1-fixed at its root (beta and gamma
    constant in space): the constant vector, the first cosine, is the
    eigenvector, so the first Ritz pair's residual certifies it."""
    constant = LinearEquationSpec(
        d=0.1, rho=EvolutionRate(kind="constant-one", period=1.0),
        potential=lambda y, t: 0.7, grid=Grid1D(L=1.0, N=16), steps_per_period=64)
    config = load_preset("example1-fixed").with_resolution(16, 32)
    root = spectral._phi_operators(config)(scalar_r0(config))
    for op in (PeriodMapOperator.from_spec(constant), root):
        counted = _ColumnCounter(op)
        radius, mode, _ = _operator_radius(counted)
        assert counted.widths == [2]
        assert radius == pytest.approx(_dense_radius(op), abs=1e-12)
        assert np.allclose(mode, 1.0, rtol=0.0, atol=1e-12)


def test_spectral_radius_takes_the_next_cosines_when_a_block_deflates():
    """A constant potential maps every cosine to a multiple of itself. From
    the block [cos(pi y/L), cos(2 pi y/L)], which holds no one-signed
    vector, the images add nothing to the basis; the next unused cosines,
    cos(0) and cos(pi y/L), take their place, the second is dropped as
    already spanned, and the constant vector certifies the pair."""
    spec = LinearEquationSpec(
        d=0.1, rho=EvolutionRate(kind="constant-one", period=1.0),
        potential=lambda y, t: 0.7, grid=Grid1D(L=1.0, N=16), steps_per_period=64)
    op = _ColumnCounter(PeriodMapOperator.from_spec(spec))
    radius, mode, _ = _operator_radius(op, spectral._cosines(17, 1, 3))
    assert op.widths == [2, 1]
    assert radius == pytest.approx(_dense_radius(op._op), abs=1e-12)
    assert np.allclose(mode, 1.0, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", ["example4-a", "example4-b"])
def test_spectral_radius_warm_started_at_a_nearby_mu_stops_after_one_apply(name):
    """The block a radius evaluation ended with, carried to mu(1 + 1e-6) as the
    root search carries it, certifies the new Perron pair from one apply;
    from the cosines the same map takes 3 or 4."""
    config = load_preset(name).with_resolution(16, 32)
    operator_at = spectral._phi_operators(config)
    mu = compute_r0(config).value
    cold = _ColumnCounter(operator_at(mu))
    _, _, block = _operator_radius(cold)
    assert len(cold.widths) > 1
    warm = _ColumnCounter(operator_at(mu * (1.0 + 1e-6)))
    radius, _, _ = _operator_radius(warm, block)
    assert warm.widths == [2]
    assert radius == pytest.approx(_dense_radius(warm._op), abs=1e-12)


def test_spectral_radius_basis_grows_to_the_full_space_and_matches_dense_oracle():
    """Nearly decoupled nodes with a potential rising by 0.01 over the
    interval: the top eigenvalues differ by about 0.1%, so no Ritz pair
    settles before the Krylov basis, grown by the 2-column images of each
    block, spans all N+1 = 9 columns, where the Ritz pairs are the
    eigenpairs. Of the last images, one column adds only rounding and is
    dropped."""
    spec = LinearEquationSpec(
        d=1e-4, rho=EvolutionRate(kind="constant-one", period=1.0),
        potential=lambda y, t: 0.5 + 0.01 * y, grid=Grid1D(L=1.0, N=8), steps_per_period=16)
    op = _ColumnCounter(PeriodMapOperator.from_spec(spec))
    radius, _, block = _operator_radius(op)
    assert op.widths == [2, 2, 2, 2, 1]
    assert sum(op.widths) == 9 and block.shape == (9, 2)
    assert radius == pytest.approx(_dense_radius(op._op), abs=1e-12)


def test_spectral_radius_keeps_orthogonality_when_the_perron_vector_spans_57_decades():
    """example4-a at d_I = 1e-4, L = 64 on 8x16: the Perron vector falls
    from 1 to 5e-58 across the 9 nodes, and the two images of the start
    block nearly cancel once projected (R diagonal 2.5e-9 of the column
    norm). One QR factorization after the projections leaves the second
    column 1.7e-8 off orthogonal to the basis; the full basis then has no
    one-signed Ritz vector, the first trial raises ConvergenceError and the
    search stalls after 80 evaluations."""
    config = validate_config(replace(load_preset("example4-a"), d_I=1e-4, L=64.0).with_resolution(8, 16))
    result = compute_r0(config)
    assert result.defect <= spectral.DEFECT_TOL
    assert result.iterations <= 5
    assert result.value == pytest.approx(0.97141510973540546, rel=1e-9)


def test_spectral_radius_on_a_clustered_spectrum_matches_dense_oracle(designed_config):
    """The designed config at d_I = 1.36409e-4 on 32x64, at the sandwich
    mean: the local growth factors form a near-continuum below the Perron
    root. The Krylov basis settles after 28 propagated columns; subspace
    iteration from the same cosines, which discards its basis each
    iteration, propagated 281."""
    config = replace(designed_config(grid_points=32, steps_per_period=64), d_I=1.36409e-4)
    bounds = r0_bounds(config)
    op = _ColumnCounter(spectral._phi_operators(config)(math.sqrt(bounds.lower * bounds.upper)))
    radius, mode, _ = _operator_radius(op)
    assert radius == pytest.approx(_dense_radius(op._op), abs=1e-12)
    assert np.min(mode) > 0.0
    assert sum(op.widths) <= 60


def test_spectral_radius_picks_the_perron_root_over_stiff_modes():
    """At d = 100, L = 0.1 with 32 steps, dt nu lambda_k reaches about 3e5:
    the top Crank-Nicolson modes map by nearly -1 each step, so a period
    maps them by 0.9996, far above the Perron root 0.6065. A pick by
    modulus returns the stiff mode; the radius is the positive mode's, within
    rounding of its 60-digit value."""
    L = 0.1
    spec = LinearEquationSpec(
        d=100.0, rho=EvolutionRate(kind="constant-one", period=1.0),
        potential=lambda y, t: -0.5 + 0.3 * np.cos(math.pi * y / L),
        grid=Grid1D(L=L, N=16), steps_per_period=32)
    radius = period_map_spectral_radius(spec)
    assert radius == pytest.approx(0.60652476701830931, rel=1e-12)
    assert radius == pytest.approx(_dense_radius(PeriodMapOperator.from_spec(spec)), rel=1e-12)


def test_spectral_radius_raises_without_a_positive_eigenvector():
    class Negation:
        grid = Grid1D(L=1.0, N=8)

        def apply(self, u):
            return -u

    with pytest.raises(ConvergenceError, match="one-signed"):
        _operator_radius(Negation())


def test_principal_periodic_eigenvalue_negates_constant_growth():
    q = 0.7
    spec = LinearEquationSpec(
        d=0.1, rho=EvolutionRate(kind="constant-one", period=QUARTER_TURN),
        potential=lambda y, t: q, grid=Grid1D(L=1.0, N=16), steps_per_period=256)
    eigenvalue = -math.log(period_map_spectral_radius(spec)) / spec.rho.period
    assert eigenvalue == pytest.approx(-q, abs=1e-5)


# ---- invasion eigenvalue and the sign relation ----

def test_invasion_eigenvalue_homogeneous_separable_value():
    config = load_preset("example1-evolving").with_resolution(48, 256)
    expected = -(7.0 - 6.96 * MEAN_INV_RHO2_035)
    assert invasion_eigenvalue(config) == pytest.approx(expected, abs=1e-3)


def test_sign_relation_on_contrasting_presets(preset_r0):
    grow = load_preset("example1-evolving").with_resolution(48, 256)
    decay = load_preset("example4-a").with_resolution(48, 256)
    assert preset_r0["example1-evolving"] > 1.0
    assert invasion_eigenvalue(grow) < 0.0
    assert preset_r0["example4-a"] < 1.0
    assert invasion_eigenvalue(decay) > 0.0


# ---- sandwich bounds ----

@pytest.mark.parametrize("name,frozen", [("example4-a", BOUNDS_E4A),
                                         ("example4-b", BOUNDS_E4B)])
def test_bounds_match_independent_quadrature(name, frozen):
    bounds = r0_bounds(load_preset(name))
    for field, expected in frozen.items():
        assert getattr(bounds, field) == pytest.approx(expected, abs=2e-9), field


def test_bounds_order_and_degenerate_homogeneous_case():
    bounds = r0_bounds(load_preset("example1-evolving"))
    assert bounds.lower == pytest.approx(bounds.upper, rel=1e-12)
    assert bounds.lower == pytest.approx(NEUMANN_R0_E1_EVOLVING, abs=1e-9)


# ---- unit-radius search ----

def test_compute_r0_constant_coefficients_identity():
    rho = EvolutionRate(kind="constant-one", period=1.0)
    result = compute_r0(_homogeneous_config(4.0, 2.5, rho))
    assert result.value == pytest.approx(1.6, abs=1e-9)
    assert result.defect <= 1e-8


def test_compute_r0_separable_recovery_matches_closed_form():
    config = load_preset("example1-evolving").with_resolution(32, 500)
    result = compute_r0(config)
    assert result.value == pytest.approx(NEUMANN_R0_E1_EVOLVING, abs=1e-5)
    assert result.bracket[0] - 1e-4 <= result.value <= result.bracket[1] + 1e-4


def test_compute_r0_certificate_fields():
    config = load_preset("example4-a").with_resolution(32, 200)
    result = compute_r0(config)
    assert result.eigenfunction.shape == (201, 33)
    assert np.all(result.eigenfunction > 0.0)
    assert np.max(result.eigenfunction[0]) == pytest.approx(1.0, abs=1e-12)
    assert result.defect <= 1e-8
    assert result.iterations >= 1


@pytest.mark.parametrize("scale", [10.0, 0.1], ids=["bracket-above-root", "bracket-below-root"])
def test_compute_r0_raises_when_widened_bracket_misses_root(monkeypatch, scale):
    true_bounds = spectral.r0_bounds

    def shifted(config):
        bounds = true_bounds(config)
        return replace(bounds, lower=scale * bounds.lower, upper=scale * bounds.upper)

    monkeypatch.setattr(spectral, "r0_bounds", shifted)
    with pytest.raises(ConvergenceError, match="not bracketed"):
        compute_r0(load_preset("example4-b").with_resolution(16, 32))


def test_compute_r0_raises_when_the_root_search_stalls(monkeypatch, capsys):
    """A radius that jumps from 2 to 1/2 at 1.01 times the sandwich mean never
    comes within DEFECT_TOL of 1: the search closes in on the jump for its 80
    trials and then stops, naming the defect of the last one. `evosis r0`
    reports the same as a solver failure."""
    config = load_preset("example4-b").with_resolution(16, 32)
    bounds = spectral.r0_bounds(config)
    jump = 1.01 * math.sqrt(bounds.lower * bounds.upper)
    trials: list[float] = []

    def radius(mu, block=None):
        trials.append(mu)
        return (2.0 if mu < jump else 0.5), None, None

    monkeypatch.setattr(spectral, "_phi_operators", lambda config: lambda mu: mu)  # each trial's "map" is its mu
    monkeypatch.setattr(spectral, "_operator_radius", radius)
    with pytest.raises(ConvergenceError, match=r"unit-radius search stalled with defect (1\.000e\+00|5\.000e-01)"):
        compute_r0(config)
    assert len(trials) == 80
    assert trials[-1] == pytest.approx(jump, rel=1e-12)
    assert main(["r0", "--preset", "example4-b", "--grid", "16", "--steps", "32"]) == EXIT_SOLVER
    assert capsys.readouterr().err.startswith("solver failure: unit-radius search stalled")


def _counted_radius_evaluations(monkeypatch) -> list[PeriodMapOperator]:
    calls: list[PeriodMapOperator] = []
    radius = spectral._operator_radius

    def counted(op, block=None):
        calls.append(op)
        return radius(op, block)

    monkeypatch.setattr(spectral, "_operator_radius", counted)
    return calls


def _scale_bounds(monkeypatch, factor: float) -> None:
    true_bounds = spectral.r0_bounds

    def scaled(config):
        bounds = true_bounds(config)
        return replace(bounds, lower=factor * bounds.lower, upper=factor * bounds.upper)

    monkeypatch.setattr(spectral, "r0_bounds", scaled)


@pytest.mark.parametrize(("name", "most"), [("example1-fixed", 1), ("example2-fixed", 1), ("example4-b", 3)])
def test_compute_r0_radius_evaluations(monkeypatch, name, most):
    """With beta and gamma constant in space, lower == upper and the first
    trial, the sandwich mean, is the root. example4-b's gamma varies in
    space; Newton steps with the sandwich slope close in on its root without
    a widened bracket end."""
    calls = _counted_radius_evaluations(monkeypatch)
    result = compute_r0(load_preset(name).with_resolution(16, 32))
    assert 1 <= len(calls) == result.iterations <= most


@pytest.mark.parametrize(("d_I", "beta", "gamma", "most"), [
    (1e-4, (0.01, 0.5), (0.001, 0.5), 12),
    (1e-3, (0.001, 5.0), (0.0001, 5.0), 25),
], ids=["eigenfunction-where-beta-is-small", "sharply-bent-ln-r"])
def test_compute_r0_radius_evaluations_with_heterogeneous_beta(monkeypatch, d_I, beta, gamma, most):
    """Affine beta and gamma whose ratio is largest where beta is smallest.
    Newton steps with the sandwich slope alone converge linearly on the
    first (24 evaluations), and secants taken whenever they fall inside the
    bracket creep on the second (46); the measured slope and the step guard
    take 8 and 20. A search that evaluates both widened ends first and then
    runs Illinois regula falsi takes 15 and 25."""
    config = replace(load_preset("example4-b"), d_I=d_I,
                     beta=CoefficientProfile(form="affine", c0=beta[0], c1=beta[1]),
                     gamma=CoefficientProfile(form="affine", c0=gamma[0], c1=gamma[1])).with_resolution(32, 64)
    calls = _counted_radius_evaluations(monkeypatch)
    result = compute_r0(config)
    assert result.defect <= spectral.DEFECT_TOL
    assert len(calls) == result.iterations <= most


def test_compute_r0_bracket_error_names_only_the_radii_it_computed(monkeypatch):
    _scale_bounds(monkeypatch, 10.0)
    calls = _counted_radius_evaluations(monkeypatch)
    with pytest.raises(ConvergenceError, match="not bracketed") as raised:
        compute_r0(load_preset("example4-b").with_resolution(16, 32))
    assert str(raised.value).count(" at mu = ") == len(calls) == 2


def test_compute_r0_takes_an_indefinite_trial_as_the_low_side(monkeypatch):
    """Constant beta = 150, gamma = 100 at 16 steps per unit period, with the
    sandwich halved to [0.75, 0.75]: the first trial mu = 0.75 has theta dt
    sup q = 3.125, so its period map has no LDL^T factors. Taken as r = +inf,
    it sends the search to the widened high end 2*0.75, which is the root."""
    config = _homogeneous_config(150.0, 100.0, EvolutionRate(kind="constant-one", period=1.0),
                                 grid_points=16, steps_per_period=16)
    _scale_bounds(monkeypatch, 0.5)
    with pytest.raises(StepError, match=r"theta\*dt\*sup q = 3\.125"):
        spectral._phi_operators(config)(0.75)
    result = compute_r0(config)
    assert result.value == pytest.approx(1.5, rel=1e-12)
    assert result.iterations == 2


def test_compute_r0_takes_an_overflowing_trial_as_the_low_side():
    """example1-fixed with beta = 1000 + 1000 y and gamma = 1500 at 8x1000,
    which validate_config accepts. At the first trial, the sandwich mean
    mu = 0.943, one period grows the start block past the float range. The
    radius evaluation raises StepError on the non-finite apply, and the
    search takes the trial as r = +inf."""
    config = validate_config(replace(load_preset("example1-fixed"),
                                     beta=CoefficientProfile(form="affine", c0=1000.0, c1=1000.0),
                                     gamma=CoefficientProfile(form="constant", c0=1500.0)).with_resolution(8, 1000))
    bounds = r0_bounds(config)
    with pytest.raises(StepError, match="float range"):
        _operator_radius(spectral._phi_operators(config)(math.sqrt(bounds.lower * bounds.upper)))
    result = compute_r0(config)
    assert result.defect <= spectral.DEFECT_TOL
    assert bounds.lower <= result.value <= bounds.upper
    assert result.value == pytest.approx(1.3228047, rel=1e-6)


@pytest.mark.parametrize(("d_I", "N", "M", "expected"), [
    (1.0, 16, 64, 0.63338970431071),
    (1e4, 16, 16, 0.018041409112608917),
    (1e-4, 16, 16, 0.9713747263984637),
], ids=["d_I=1,16x64", "d_I=1e4,16x16", "d_I=1e-4,16x16"])
def test_compute_r0_starts_below_the_definite_limit(d_I, N, M, expected):
    """example4-a at L = 64: at the bracket's low end 0.5*lower = 0.0036 the
    period map is not positive definite (theta dt sup q = 2.3 at M = 64 and
    9.3 at M = 16). The first two values are what the LU route gave. At
    d_I = 1e4 the root lies below the pointwise limit max beta/(1/(theta dt)
    + rest) = 0.033, which diffusion lowers. The third is the 16x64 value,
    which the LU route missed at M = 16 (its search stalled)."""
    config = replace(load_preset("example4-a"), d_I=d_I, L=64.0).with_resolution(N, M)
    with pytest.raises(StepError, match="not positive definite"):
        spectral._phi_operators(config)(0.5 * r0_bounds(config).lower)
    result = compute_r0(config)
    assert result.defect <= spectral.DEFECT_TOL
    assert result.value == pytest.approx(expected, rel=1e-6)


def test_invasion_eigenvalue_is_the_perron_root_past_stiff_modes():
    """example4-a at d_I = 100, L = 0.1 on 16x32: stiff modes of modulus near
    one outrank the Perron root, and a pick by modulus gives 2.8e-5."""
    config = replace(load_preset("example4-a"), d_I=100.0, L=0.1).with_resolution(16, 32)
    oracle = -math.log(_dense_radius(spectral._phi_operators(config)(1.0))) / config.T
    assert invasion_eigenvalue(config) == pytest.approx(oracle, rel=1e-10)
    assert invasion_eigenvalue(config) == pytest.approx(0.0463983347, rel=1e-8)


def test_compute_r0_takes_a_missing_perron_root_as_the_high_side():
    """example4-a at d_I = 1e4, L = 64 on 8x64: the Perron root lies far
    below the stiff modes. At the bracket's high end the dense full basis
    has no one-signed eigenpair, while the Krylov basis, which keeps the
    constant start vector, finds one at r of order 1e-19: either way the
    trial is on the high side. The first trial, the sandwich mean 0.083,
    finds no pair; the search takes it as r = 0 and goes on from the
    bracket's low end, whose map is not definite (r = +inf)."""
    config = replace(load_preset("example4-a"), d_I=1e4, L=64.0).with_resolution(8, 64)
    try:
        assert _operator_radius(spectral._phi_operators(config)(2.0 * r0_bounds(config).upper))[0] < 1.0
    except ConvergenceError:
        pass
    result = compute_r0(config)
    assert result.defect <= spectral.DEFECT_TOL
    assert result.value == pytest.approx(0.01818528408, rel=1e-9)


def test_compute_r0_takes_a_trial_without_a_perron_pair_as_r_equal_zero(monkeypatch):
    """A radius evaluation that raises ConvergenceError at a trial above the
    root counts as r = 0, the high side, and the search still converges."""
    config = load_preset("example4-b").with_resolution(16, 32)
    root = compute_r0(config).value
    radius = spectral._operator_radius
    failed: list[float] = []

    def missing_above_the_root(op, block=None):
        r = radius(op, block)
        if r[0] < 1.0 and not failed:
            failed.append(r[0])
            raise ConvergenceError("no one-signed pair")
        return r

    monkeypatch.setattr(spectral, "_operator_radius", missing_above_the_root)
    result = compute_r0(config)
    assert len(failed) == 1
    assert result.defect <= spectral.DEFECT_TOL
    assert result.value == pytest.approx(root, rel=1e-8)


def test_invasion_eigenvalue_needs_a_definite_period_map():
    """beta - gamma = 50 at 16 steps per unit period: theta dt sup q = 1.5625."""
    config = replace(load_preset("example2-fixed"), T=1.0, rho=EvolutionRate(kind="constant-one", period=1.0),
                     beta=CoefficientProfile(form="constant", c0=150.0),
                     gamma=CoefficientProfile(form="constant", c0=100.0), grid_points=16, steps_per_period=16)
    with pytest.raises(StepError, match=r"theta\*dt\*sup q = 1\.5625"):
        invasion_eigenvalue(config)


@pytest.mark.parametrize("name", ["example4-a", "example4-b"])
def test_compute_r0_is_second_order_in_space(name):
    """Observed order of R0 over N = 16, 32, 64, 128 at M = 128.

    Both presets read orders 2.009 and 2.002. A ladder in M is left out: its
    successive differences (1e-9 down to 4e-12) sit below DEFECT_TOL.
    """
    config = load_preset(name)
    values = [compute_r0(config.with_resolution(grid, 128)).value for grid in (16, 32, 64, 128)]
    differences = np.abs(np.diff(values))
    orders = np.log2(differences[:-1] / differences[1:])
    assert np.all((orders >= 1.8) & (orders <= 2.2)), orders


def _next_generation_radius(config: ModelConfig) -> float:
    """Spectral radius of the discrete next-generation operator G, with no root search.

    The Crank-Nicolson step of the Phi-equation reads
    (I - h/2 C_k) u_{k+1} - (I + h/2 C_k) u_k = (h/2 mu) B_k (u_k + u_{k+1}),
    with C_k = nu_k A - diag(rest_k) and B_k = diag(beta_k), all endpoint
    averaged. G U is the periodic solution of the no-infection flow forced by
    (h/2) B_k (u_k + u_{k+1}), so G U = mu U exactly when the period map at
    mu has radius one, and R0 = r(G). Every matrix here is dense and built
    from the coefficient tables alone.
    """
    grid, steps = config.grid, config.steps_per_period
    size = grid.N + 1
    times = np.linspace(0.0, config.T, steps + 1)
    rho, rho_dot = config.rho.value(times), config.rho.derivative(times)
    beta = coefficient_table(config.beta, config.rho, grid.nodes, times)
    rest = (coefficient_table(config.gamma, config.rho, grid.nodes, times)
            + (config.n * rho_dot / rho)[:, None])

    def mean(table):
        return 0.5 * (table[:-1] + table[1:])

    lap = (np.eye(size, k=1) + np.eye(size, k=-1) - 2.0 * np.eye(size)) / grid.h**2
    lap[0, 1] = lap[-1, -2] = 2.0 / grid.h**2
    half = 0.5 * config.T / steps
    flow = mean(config.d_I * rho**-2.0)[:, None, None] * lap - mean(rest)[:, :, None] * np.eye(size)
    implicit_inv = np.linalg.inv(np.eye(size) - half * flow)
    step = implicit_inv @ (np.eye(size) + half * flow)
    force = implicit_inv * (half * mean(beta))[:, None, :]
    period = np.eye(size)
    for k in range(steps):
        period = step[k] @ period
    periodic = lu_factor(np.eye(size) - period)

    def apply(flat):
        u = flat.reshape(steps, size)
        forcing = np.einsum("kij,kj->ki", force, u + np.roll(u, -1, axis=0))
        v = np.zeros(size)
        for k in range(steps):
            v = step[k] @ v + forcing[k]
        v = lu_solve(periodic, v)  # the start that closes the orbit
        out = np.empty_like(u)
        for k in range(steps):
            out[k] = v
            v = step[k] @ v + forcing[k]
        return out.ravel()

    operator = LinearOperator((steps * size, steps * size), matvec=apply, dtype=float)
    return float(abs(eigs(operator, k=1, v0=np.ones(steps * size))[0][0]))


@pytest.mark.parametrize("resolution", [(16, 32), (64, 256)], ids=["16x32", "64x256"])
@pytest.mark.parametrize("name", ["example1-fixed", "example1-evolving", "example2-fixed",
                                  "example2-evolving", "example3-b"])
def test_compute_r0_matches_the_scalar_oracle_when_rates_are_constant_in_space(name, resolution):
    # |r - 1| <= DEFECT_TOL moves x by at most DEFECT_TOL over the period
    # integral of beta, so R0 by DEFECT_TOL over that of gamma (>= 1 here)
    config = load_preset(name).with_resolution(*resolution)
    oracle = scalar_r0(config)
    assert abs(compute_r0(config).value - oracle) <= 1e-8 * oracle


@pytest.mark.parametrize("name, resolution, trials", [("example3-b", (64, 256), 2), ("example3-b", (16, 32), 3),
                                                     ("example1-fixed", (64, 256), 1)],
                         ids=["secant-of-two", "secant-of-three", "one-trial-sandwich-slope"])
def test_compute_r0_error_estimate_is_its_distance_from_the_scalar_oracle(name, resolution, trials):
    """R0^2 |ln r| / slope, with the secant slope of the last two trials, is the
    distance from the exact discrete root to a few percent (measured 4.80e-10
    against 4.80e-10 rel at 64x256, and 2.41e-14 against 2.39e-14 at 16x32).
    After a single trial it takes the sandwich slope, and both sit at rounding."""
    config = load_preset(name).with_resolution(*resolution)
    oracle = scalar_r0(config)
    result = compute_r0(config)
    assert result.iterations == trials
    assert result.error_estimate == pytest.approx(abs(result.value - oracle), rel=0.05, abs=1e-15 * oracle)
    assert result.error_estimate <= 1e-8 * oracle


@pytest.mark.parametrize(("d_I", "beta", "gamma"), [(1e-4, (0.01, 0.5), (0.001, 0.5)),
                                                   (1e-3, (0.001, 5.0), (0.0001, 5.0))],
                         ids=["sandwich-slope-twice-too-steep", "sandwich-slope-38-times-too-flat"])
def test_compute_r0_error_estimate_takes_the_measured_slope_where_beta_varies(d_I, beta, gamma):
    """On the affine configs of the heterogeneous-beta test the sandwich slope
    is 1.9 and 0.026 times that of ln r at the root, so an estimate on it
    would be off by as much; the secant slope is not. The reference root is
    one Newton step from the result, on the slope of ln r measured across a
    relative step of 1e-6 in mu (measured 2.033e-11 and 2.977e-10 rel,
    against estimates of 2.018e-11 and 2.988e-10)."""
    config = replace(load_preset("example4-b"), d_I=d_I,
                     beta=CoefficientProfile(form="affine", c0=beta[0], c1=beta[1]),
                     gamma=CoefficientProfile(form="affine", c0=gamma[0], c1=gamma[1])).with_resolution(32, 64)
    result = compute_r0(config)
    operator_at = spectral._phi_operators(config)
    x0, x1 = 1.0 / result.value, 1.0 / (result.value * (1.0 + 1e-6))
    f0, f1 = (math.log(spectral._operator_radius(operator_at(1.0 / x))[0]) for x in (x0, x1))
    root = 1.0 / (x0 - f0 * (x1 - x0) / (f1 - f0))
    assert result.error_estimate == pytest.approx(abs(result.value - root), rel=0.05)


@pytest.mark.parametrize("name", preset_names())
def test_compute_r0_matches_next_generation_operator(name):
    config = load_preset(name).with_resolution(32, 64)
    r0 = compute_r0(config).value
    assert abs(_next_generation_radius(config) - r0) <= 1e-8 * r0


@st.composite
def _rate_profiles(draw, least: float) -> CoefficientProfile:
    """Constant, affine or exponential, positive for every z = rho*y the
    strategy below reaches (z <= 4 e^0.6): c0 >= least, c1 >= -0.02 on the
    affine form, and exp(c2 z) <= 1 on the exponential one."""
    form = draw(st.sampled_from(["constant", "affine", "exponential"]))
    c0 = draw(st.floats(least, 2.0))
    if form == "constant":
        return CoefficientProfile(form=form, c0=c0)
    if form == "affine":
        return CoefficientProfile(form=form, c0=c0, c1=draw(st.floats(-0.02, 0.5)))
    return CoefficientProfile(form=form, c0=c0, c1=draw(st.floats(-0.15, 0.5)), c2=draw(st.floats(-1.0, 0.0)))


@st.composite
def _drawn_configs(draw) -> ModelConfig:
    amplitude = draw(st.none() | st.floats(-0.3, 0.3))
    rho = (EvolutionRate(kind="constant-one", period=math.pi) if amplitude is None
           else EvolutionRate(kind="exp-cosine", period=math.pi, amplitude=amplitude, frequency=2.0))
    # gamma >= 0.35 keeps its period integral above 1, where |r - 1| <=
    # DEFECT_TOL moves R0 by at most DEFECT_TOL relative
    config = _homogeneous_config(1.0, 1.0, rho, d_I=10.0 ** draw(st.floats(-3.0, 1.0)),
                                 L=draw(st.floats(0.25, 4.0)), grid_points=32, steps_per_period=64)
    return replace(config, beta=draw(_rate_profiles(0.2)), gamma=draw(_rate_profiles(0.5)))


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_drawn_configs())
def test_compute_r0_matches_next_generation_operator_on_drawn_configs(config):
    r0 = compute_r0(validate_config(config)).value
    assert abs(_next_generation_radius(config) - r0) <= 1e-8 * r0


# ---- closed form ----

def test_r0_closed_form_frozen_identity():
    rho = EvolutionRate(kind="exp-cosine", period=QUARTER_TURN,
                        amplitude=0.35, frequency=4.0)
    value = r0_closed_form(7.0, LAMBDA_STAR_EX1, rho, panels=512)
    assert value == pytest.approx(PUBLISHED_R0["example1-evolving"], abs=1e-9)


def test_lambda_star_conventions():
    config = load_preset("example1-fixed")
    absorbing = lambda_star_from_config(config, convention="paper-example")
    # The discrete absorbing eigenvalue sits d_I pi^4 h^2 / 12 ~ 2e-5 below
    # the continuum value at the default 200-interval grid.
    assert absorbing == pytest.approx(LAMBDA_STAR_EX1, abs=3e-5)
    no_flux = lambda_star_from_config(config, convention="neumann")
    assert no_flux == pytest.approx(6.96, abs=1e-8)
    with pytest.raises(ValueError, match="convention"):
        lambda_star_from_config(config, convention="robin")


@pytest.mark.parametrize("name", sorted(PUBLISHED_R0))
def test_closed_form_r0_reproduces_worked_examples(name):
    value = closed_form_r0(load_preset(name), convention="paper-example")
    assert value == pytest.approx(PUBLISHED_R0[name], abs=2e-5)


def test_closed_form_r0_neumann_convention_constant_case():
    value = closed_form_r0(load_preset("example2-fixed"), convention="neumann")
    assert value == pytest.approx(1.4, abs=1e-9)


def test_closed_form_requires_separable_shapes():
    config = load_preset("example4-a")
    with pytest.raises(NotApplicableError):
        closed_form_r0(config)
    with pytest.raises(NotApplicableError):
        lambda_star_from_config(config)


# ---- elliptic eigenvalues ----

def test_elliptic_eigenvalues_constant_potential():
    # constant c: no-flux lambda* is c itself; the absorbing one sits below
    # c + d_I (pi/L)^2 by at most d_I pi^4 h^2 / 12 at the 200-interval grid
    for name, continuum in (("example1-fixed", LAMBDA_STAR_EX1), ("example2-fixed", LAMBDA_STAR_EX2),
                            ("example3-b", LAMBDA_STAR_EX3B)):
        config = load_preset(name)
        assert lambda_star_from_config(config, convention="neumann") == pytest.approx(
            config.gamma.space.c0, abs=1e-8)
        gap = continuum - lambda_star_from_config(config, convention="paper-example")
        assert 0.0 < gap <= config.d_I * math.pi**4 * (config.L / 200) ** 2 / 12, name


# ---- monotonicity certificate ----

def test_certificate_detects_decreasing_mode():
    config = load_preset("example4-a").with_resolution(32, 200)
    result = compute_r0(config)
    assert eigenfunction_monotonicity_certificate(config, result) == "decreasing"


def test_certificate_detects_increasing_mode(designed_config):
    config = designed_config(grid_points=32, steps_per_period=200)
    result = compute_r0(config)
    assert eigenfunction_monotonicity_certificate(config, result) == "increasing"


def test_certificate_not_applicable_for_flat_profiles():
    config = load_preset("example1-fixed").with_resolution(24, 128)
    result = compute_r0(config)
    assert eigenfunction_monotonicity_certificate(config, result) == "not-applicable"
