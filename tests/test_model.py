"""Model types: evolution rates, coefficient profiles, grids, configuration."""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosis.errors import ConfigurationError
from evosis.model import (
    CoefficientProfile,
    EvolutionRate,
    Grid1D,
    InitialSpec,
    ModelConfig,
    PeriodicOrbit,
    coefficient_table,
    compact_coefficient_table,
    config_from_dict,
    config_to_dict,
    evaluate_coefficient,
    validate_config,
)
from evosis.presets import load_preset, preset_names
from evosis.spectral import DEFECT_TOL, compute_r0
from r0_oracles import log_perron_radius, scalar_r0

QUARTER_TURN = math.pi / 2

# rho = exp(0.3 * (1 - cos(4 t))) evaluated at t = pi/8, where cos(4t) = 0.
RHO_AT_PI_8 = 1.349858807576003
RHO_DOT_AT_PI_8 = 1.619830569091204


def _exp_cosine(amplitude: float = 0.3, frequency: float = 4.0,
                period: float = QUARTER_TURN) -> EvolutionRate:
    return EvolutionRate(kind="exp-cosine", period=period,
                         amplitude=amplitude, frequency=frequency)


def _constant(c0: float) -> CoefficientProfile:
    return CoefficientProfile(form="constant", c0=c0)


def _valid_config(**overrides) -> ModelConfig:
    base = dict(
        d_S=0.05,
        d_I=0.1,
        L=1.0,
        T=QUARTER_TURN,
        rho=_exp_cosine(),
        a=_constant(1.0),
        b=_constant(2.0),
        beta=_constant(3.0),
        gamma=_constant(1.0),
        initial_S=InitialSpec(mean=0.3),
        initial_I=InitialSpec(mean=0.1),
        grid_points=16,
        steps_per_period=64,
    )
    base.update(overrides)
    return ModelConfig(**base)


# ---- evolution rates ----

def test_constant_one_rate_values_and_derivative():
    rate = EvolutionRate(kind="constant-one", period=2.0)
    assert rate.value(0.7) == 1.0
    assert rate.derivative(0.7) == 0.0
    times = np.linspace(0.0, 2.0, 9)
    assert np.array_equal(rate.value(times), np.ones(9))
    assert np.array_equal(rate.derivative(times), np.zeros(9))
    assert rate.validate() == []


def test_exp_cosine_rate_matches_analytic_point():
    rate = _exp_cosine()
    assert rate.value(0.0) == pytest.approx(1.0, abs=1e-15)
    assert rate.value(math.pi / 8) == pytest.approx(RHO_AT_PI_8, abs=1e-12)
    assert rate.derivative(math.pi / 8) == pytest.approx(RHO_DOT_AT_PI_8, abs=1e-12)
    assert rate.validate() == []


def test_exp_cosine_rejects_incommensurate_frequency():
    rate = EvolutionRate(kind="exp-cosine", period=1.0, amplitude=0.2, frequency=3.0)
    messages = rate.validate()
    assert len(messages) == 1
    assert "frequency" in messages[0]


def test_unknown_kind_and_mode_are_reported():
    assert "kind" in EvolutionRate(kind="sawtooth", period=1.0).validate()[0]
    for period in (0.0, -1.0, math.inf):
        assert EvolutionRate(kind="constant-one", period=period).validate() == [
            f"rho.period: must be positive, got {period!r}"]


def test_tabulated_rate_reproduces_exp_cosine():
    reference = _exp_cosine()
    grid = np.linspace(0.0, QUARTER_TURN, 128, endpoint=False)
    samples = tuple(float(v) for v in np.asarray(reference.value(grid)))
    rate = EvolutionRate(kind="tabulated", period=QUARTER_TURN, samples=samples)
    assert rate.validate() == []
    probe = np.linspace(0.0, QUARTER_TURN, 37)
    assert np.max(np.abs(np.asarray(rate.value(probe))
                         - np.asarray(reference.value(probe)))) < 1e-12
    assert np.max(np.abs(np.asarray(rate.derivative(probe))
                         - np.asarray(reference.derivative(probe)))) < 1e-10


def test_tabulated_rate_accepts_duplicated_closing_sample():
    reference = _exp_cosine()
    grid = np.linspace(0.0, QUARTER_TURN, 33)
    samples = tuple(float(v) for v in np.asarray(reference.value(grid)))
    rate = EvolutionRate(kind="tabulated", period=QUARTER_TURN, samples=samples)
    assert rate.validate() == []
    assert rate.value(0.0) == pytest.approx(1.0, abs=1e-12)


def test_tabulated_rate_needs_enough_samples():
    rate = EvolutionRate(kind="tabulated", period=1.0, samples=(1.0, 1.0, 1.0))
    assert any("samples" in message for message in rate.validate())


def test_tabulated_rate_must_start_at_one():
    samples = tuple(1.5 + 0.1 * math.sin(2 * math.pi * k / 16) for k in range(16))
    rate = EvolutionRate(kind="tabulated", period=1.0, samples=samples)
    assert any("rho(0)" in message for message in rate.validate())


# ---- coefficient profiles ----

def test_profile_evaluate_z_forms():
    z = np.array([0.0, 0.5, 2.0])
    assert CoefficientProfile(form="constant", c0=1.5).evaluate_z(0.7) == 1.5
    affine = CoefficientProfile(form="affine", c0=1.0, c1=2.0)
    assert np.allclose(affine.evaluate_z(z), 1.0 + 2.0 * z)
    expo = CoefficientProfile(form="exponential", c0=0.3, c1=0.2, c2=-0.5)
    assert expo.evaluate_z(2.0) == pytest.approx(0.3 + 0.2 * math.exp(-1.0), abs=1e-15)
    with pytest.raises(ValueError):
        CoefficientProfile(form="separable", space=_constant(1.0)).evaluate_z(0.0)


def test_profile_z_derivative_sign():
    assert _constant(2.0).z_derivative_sign() == 0
    assert CoefficientProfile(form="affine", c0=1.0, c1=-0.5).z_derivative_sign() == -1
    assert CoefficientProfile(form="exponential", c0=0.3, c1=0.2, c2=-0.5).z_derivative_sign() == -1
    assert CoefficientProfile(form="exponential", c0=0.3, c1=-0.2, c2=-0.5).z_derivative_sign() == 1
    nested = CoefficientProfile(form="separable",
                                space=CoefficientProfile(form="affine", c0=1.0, c1=3.0))
    assert nested.z_derivative_sign() == 1


def test_profile_z_limit():
    assert _constant(2.0).z_limit() == 2.0
    assert CoefficientProfile(form="affine", c0=1.0, c1=0.1).z_limit() is None
    assert CoefficientProfile(form="affine", c0=1.0, c1=0.0).z_limit() == 1.0
    assert CoefficientProfile(form="exponential", c0=0.4, c1=-0.15, c2=-0.5).z_limit() == 0.4
    assert CoefficientProfile(form="exponential", c0=0.4, c1=0.15, c2=0.5).z_limit() is None
    assert CoefficientProfile(form="separable", space=_constant(2.0)).z_limit() is None


def test_profile_time_offset_series():
    profile = CoefficientProfile(form="separable", space=_constant(1.0),
                                 g_mean=0.5, g_harmonics=((1, 0.2, 0.0), (2, 0.0, 0.1)))
    period = 2.0
    assert profile.g_of_t(0.0, period) == pytest.approx(0.7, abs=1e-15)
    # quarter period: cos term of harmonic 1 vanishes, sin term of harmonic 2 too
    assert profile.g_of_t(0.5, period) == pytest.approx(0.5, abs=1e-15)


def test_profile_validation_messages():
    assert "form" in CoefficientProfile(form="spline").validate("beta")[0]
    missing = CoefficientProfile(form="separable")
    assert any("spatial profile" in m for m in missing.validate("gamma"))
    nested = CoefficientProfile(
        form="separable",
        space=CoefficientProfile(form="separable", space=_constant(1.0)))
    assert any("nested" in m for m in nested.validate("gamma"))
    bad_harmonic = CoefficientProfile(form="separable", space=_constant(1.0),
                                      g_harmonics=((0, 1.0, 0.0),))
    assert any("g_harmonics" in m for m in bad_harmonic.validate("gamma"))
    for name in ("c0", "c1", "c2", "g_mean"):
        profile = replace(CoefficientProfile(form="separable", space=_constant(1.0)), **{name: math.nan})
        assert profile.validate("beta") == [f"beta.{name}: value must be finite, got nan"]


def test_evaluate_coefficient_composes_with_material_coordinate():
    rho = _exp_cosine()
    profile = CoefficientProfile(form="exponential", c0=0.3, c1=0.2, c2=-0.5)
    y, t = 0.8, math.pi / 8
    expected = 0.3 + 0.2 * math.exp(-0.5 * RHO_AT_PI_8 * y)
    assert evaluate_coefficient(profile, rho, y, t) == pytest.approx(expected, abs=1e-12)


def test_evaluate_coefficient_separable_form():
    rho = _exp_cosine()
    profile = CoefficientProfile(
        form="separable",
        space=CoefficientProfile(form="affine", c0=1.0, c1=2.0),
        g_mean=0.25)
    y, t = 0.5, math.pi / 8
    expected = (1.0 + 2.0 * y) / RHO_AT_PI_8**2 + 0.25
    assert evaluate_coefficient(profile, rho, y, t) == pytest.approx(expected, abs=1e-12)


def test_evaluate_coefficient_broadcasts_tables():
    rho = _exp_cosine()
    profile = CoefficientProfile(form="affine", c0=1.0, c1=0.5)
    y = np.linspace(0.0, 1.0, 5)
    t = np.linspace(0.0, QUARTER_TURN, 7)[:, None]
    table = np.asarray(evaluate_coefficient(profile, rho, y, t))
    assert table.shape == (7, 5)
    assert table[3, 2] == pytest.approx(
        1.0 + 0.5 * float(rho.value(float(t[3, 0]))) * y[2], abs=1e-12)


_AFFINE = CoefficientProfile(form="affine", c0=1.0, c1=0.5)
_TABLE_PROFILES = {
    "constant": _constant(0.7),
    "affine": _AFFINE,
    "exponential": CoefficientProfile(form="exponential", c0=0.3, c1=0.2, c2=-0.5),
    "separable-constant": CoefficientProfile(form="separable", space=_constant(0.7), g_mean=0.25),
    "separable-affine": CoefficientProfile(form="separable", space=_AFFINE, g_mean=0.25),
    "separable-constant-harmonics": CoefficientProfile(
        form="separable", space=_constant(0.7), g_mean=0.25, g_harmonics=((1, 0.1, -0.05),)),
    "separable-affine-harmonics": CoefficientProfile(
        form="separable", space=_AFFINE, g_mean=0.25, g_harmonics=((1, 0.1, -0.05), (3, 0.0, 0.02))),
}
# compact shapes on 9 times x 6 nodes, by rate kind
_COMPACT_SHAPES = {
    "constant-one": {"constant": (1, 1), "affine": (1, 6), "exponential": (1, 6),
                     "separable-constant": (9, 1), "separable-affine": (1, 6),
                     "separable-constant-harmonics": (9, 1), "separable-affine-harmonics": (9, 6)},
    "exp-cosine": {"constant": (1, 1), "affine": (9, 6), "exponential": (9, 6),
                   "separable-constant": (9, 1), "separable-affine": (9, 6),
                   "separable-constant-harmonics": (9, 1), "separable-affine-harmonics": (9, 6)},
}


@pytest.mark.parametrize("rho", [EvolutionRate(kind="constant-one", period=QUARTER_TURN), _exp_cosine()],
                         ids=["fixed", "evolving"])
@pytest.mark.parametrize("name", list(_TABLE_PROFILES))
def test_coefficient_table_is_a_read_only_view_of_the_full_table(name, rho):
    """Held at the shape the form and rate allow, the view equals the full
    evaluation entry for entry and cannot be written."""
    profile = _TABLE_PROFILES[name]
    nodes = np.linspace(0.0, 1.3, 6)
    times = np.linspace(0.0, QUARTER_TURN, 9)
    full = np.broadcast_to(evaluate_coefficient(profile, rho, nodes, times[:, None]), (9, 6))
    table = coefficient_table(profile, rho, nodes, times)
    assert table.shape == (9, 6)
    assert np.array_equal(table, full)
    assert compact_coefficient_table(profile, rho, nodes, times).shape == _COMPACT_SHAPES[rho.kind][name]
    with pytest.raises(ValueError, match="read-only"):
        table[2, 3] = 1.0


# ---- grids, orbits, initial data ----

def test_grid_nodes_and_spacing():
    grid = Grid1D(L=2.0, N=8)
    assert grid.h == pytest.approx(0.25, abs=1e-15)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 2.0
    assert grid.nodes.size == 9


def test_periodic_orbit_accepts_closed_samples():
    values = np.vstack([np.linspace(1.0, 2.0, 5)] * 4)
    orbit = PeriodicOrbit.from_samples(values, period=1.0)
    assert orbit.closure_defect == 0.0
    assert orbit.times[-1] == pytest.approx(1.0, abs=1e-15)


def test_periodic_orbit_rejects_open_samples():
    values = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="closure defect"):
        PeriodicOrbit.from_samples(values, period=1.0)


def test_initial_spec_cosine_series_and_samples():
    y = np.linspace(0.0, 1.0, 5)
    series = InitialSpec(mean=0.3, modes=((2, 0.1),))
    assert np.allclose(series.evaluate(y, 1.0), 0.3 + 0.1 * np.cos(2 * math.pi * y))
    raw = InitialSpec(samples=(1.0, 2.0, 3.0, 4.0, 5.0))
    assert np.array_equal(raw.evaluate(y, 1.0), np.array([1.0, 2.0, 3.0, 4.0, 5.0]))


# ---- configuration validation ----

def test_validate_config_passes_valid_instance():
    config = _valid_config()
    assert validate_config(config) is config
    assert config.grid.N == 16


def test_validate_config_rejects_nonpositive_rates():
    with pytest.raises(ConfigurationError) as excinfo:
        validate_config(_valid_config(d_I=-0.1))
    assert any(message.startswith("d_I") for message in excinfo.value.errors)


def test_validate_config_rejects_period_mismatch():
    with pytest.raises(ConfigurationError) as excinfo:
        validate_config(_valid_config(T=1.0))
    assert any(message.startswith("T") for message in excinfo.value.errors)


def test_validate_config_rejects_bad_dimension():
    with pytest.raises(ConfigurationError) as excinfo:
        validate_config(_valid_config(n=0))
    assert any(message.startswith("n") for message in excinfo.value.errors)


def test_validate_config_rejects_sign_changing_coefficient():
    """Also a coefficient whose finite parameters evaluate past the float range, with no numpy warning."""
    gamma = CoefficientProfile(form="affine", c0=0.1, c1=-1.0)
    with pytest.raises(ConfigurationError) as excinfo:
        validate_config(_valid_config(gamma=gamma))
    assert any(message.startswith("gamma") for message in excinfo.value.errors)
    beta = CoefficientProfile(form="exponential", c0=1.0, c1=1.0, c2=1000.0)
    with pytest.raises(ConfigurationError) as excinfo, warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is reported as the error, not warned about first
        validate_config(_valid_config(beta=beta))
    assert excinfo.value.errors == ["beta: evaluation produced non-finite values"]


def test_validate_config_rejects_zero_infected_start():
    """Also initial data that are not finite, an S start that is not positive and a negative I start."""
    with pytest.raises(ConfigurationError) as excinfo:
        validate_config(_valid_config(initial_I=InitialSpec(mean=0.0)))
    assert any("identically zero" in message for message in excinfo.value.errors)
    for overrides, message in (({"initial_S": InitialSpec(mean=math.inf)}, "initial_S: values must be finite"),
                               ({"initial_I": InitialSpec(mean=math.nan)}, "initial_I: values must be finite"),
                               ({"initial_S": InitialSpec(mean=0.3, modes=((1, 0.4),))},
                                "initial_S: must be positive everywhere, minimum -0.1"),
                               ({"initial_I": InitialSpec(mean=0.1, modes=((2, 0.2),))},
                                "initial_I: must be nonnegative, minimum -0.1")):
        with pytest.raises(ConfigurationError) as excinfo:
            validate_config(_valid_config(**overrides))
        assert excinfo.value.errors == [message]


def test_validate_config_rejects_wrong_sample_count():
    with pytest.raises(ConfigurationError) as excinfo:
        validate_config(_valid_config(initial_S=InitialSpec(samples=(1.0, 1.0, 1.0))))
    assert any("nodal values" in message for message in excinfo.value.errors)


def test_validate_config_rejects_tiny_grid_and_budget_violation():
    with pytest.raises(ConfigurationError) as excinfo:
        validate_config(_valid_config(grid_points=4))
    assert any("grid_points" in message for message in excinfo.value.errors)
    with pytest.raises(ConfigurationError) as excinfo:
        validate_config(_valid_config(grid_points=5000, steps_per_period=5000))
    assert any("budget" in message for message in excinfo.value.errors)


def test_validate_config_bounds_the_explicit_reaction_step():
    """dt (sup a + sup |n rho'/rho|) <= 1, the dilution counted: a = 9.5 at
    16 steps of pi/32 passes on the fixed domain (0.93), not with the
    exp-cosine motion's sup |rho'/rho| = 1.2 added (1.05)."""
    fixed = EvolutionRate(kind="constant-one", period=QUARTER_TURN)
    assert validate_config(_valid_config(a=_constant(9.5), rho=fixed, steps_per_period=16))
    with pytest.raises(ConfigurationError) as excinfo:
        validate_config(_valid_config(a=_constant(9.5), steps_per_period=16))
    [message] = excinfo.value.errors
    assert message.startswith("steps_per_period: the explicit reaction step needs")
    assert "got 1.05" in message and "sup a = 9.5" in message and "need steps_per_period >= 17" in message
    assert validate_config(_valid_config(a=_constant(9.5), steps_per_period=17))


@pytest.mark.parametrize("name", preset_names())
def test_validate_config_accepts_the_stiff_stratum(name):
    """d_I = 1e4 and L = 0.01 on 8x16 put the stiffest Crank-Nicolson mode of
    the R0 period map within 1e-7 of modulus one, a stratum that
    `validate_config` once refused: every preset validates there."""
    assert validate_config(replace(load_preset(name), d_I=1e4, L=0.01).with_resolution(8, 16))


@pytest.mark.parametrize("name", ["example1-fixed", "example2-fixed"])
def test_r0_on_the_stiff_stratum_is_the_exact_discrete_root(name):
    """beta and gamma constant in space and time: R0 is the scalar oracle's
    root to rounding, where factors formed by pttrf stalled."""
    config = validate_config(replace(load_preset(name), d_I=1e4, L=0.01).with_resolution(8, 16))
    oracle = scalar_r0(config)
    assert compute_r0(config).value == pytest.approx(oracle, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("name", ["example3-b", "example4-a", "example4-b"])
def test_r0_on_the_stiff_stratum_passes_the_high_precision_period_map(name):
    """At the computed R0 the period map, formed in 30 digits from the same
    step tables, has |ln r| <= DEFECT_TOL: the radius the search stopped on
    is the true one, though the stiff modes sit within 1e-7 of it."""
    config = validate_config(replace(load_preset(name), d_I=1e4, L=0.01).with_resolution(8, 16))
    assert abs(log_perron_radius(config, compute_r0(config).value)) <= DEFECT_TOL


@pytest.mark.parametrize("field", ["grid_points", "steps_per_period"])
@pytest.mark.parametrize("value", [48.5, 48.0, True, "48"])
def test_validate_config_rejects_non_integer_resolution(field, value):
    with pytest.raises(ConfigurationError) as excinfo:
        validate_config(_valid_config(**{field: value}))
    assert [message.split(":")[0] for message in excinfo.value.errors] == [field]


def test_validate_config_accepts_numpy_integer_resolution():
    config = _valid_config(grid_points=np.int64(16), steps_per_period=np.int32(32))
    assert validate_config(config) is config
    doc = json.loads(json.dumps(config_to_dict(config)))
    assert (doc["grid_points"], doc["steps_per_period"]) == (16, 32)


def test_validate_config_takes_the_dimension_by_the_resolution_integer_rule():
    with pytest.raises(ConfigurationError) as excinfo:
        validate_config(_valid_config(n=True))
    assert [message.split(":")[0] for message in excinfo.value.errors] == ["n"]
    config = _valid_config(n=np.int64(2))
    assert validate_config(config) is config
    doc = json.loads(json.dumps(config_to_dict(config)))
    assert doc["n"] == 2 and isinstance(doc["n"], int)
    assert config_from_dict(doc) == config


# ---- document round trips ----

def _document() -> dict:
    return {
        "d_S": 0.05, "d_I": 0.1, "L": 1.0, "T": QUARTER_TURN,
        "rho": {"kind": "exp-cosine", "amplitude": 0.3, "frequency": 4.0},
        "a": {"form": "constant", "c0": 1.0},
        "b": {"form": "constant", "c0": 2.0},
        "beta": {"form": "exponential", "c0": 0.4, "c1": -0.15, "c2": -0.5},
        "gamma": {"form": "separable", "space": {"form": "constant", "c0": 1.0},
                  "g": {"mean": 0.1, "harmonics": [[1, 0.05, 0.0]]}},
        "initial_S": {"mean": 0.3, "modes": [[1, 0.01]]},
        "initial_I": {"mean": 0.1, "modes": []},
        "grid_points": 16,
        "steps_per_period": 64,
    }


def _tabulated_document() -> dict:
    """A tabulated rate, 16 samples of exp(0.2(1 - cos 2t)) over T = pi, and
    initial_S given as N+1 nodal samples."""
    doc = _document()
    doc["T"] = math.pi
    t = np.arange(16) * (math.pi / 16)
    doc["rho"] = {"kind": "tabulated", "samples": np.exp(0.2 * (1.0 - np.cos(2.0 * t))).tolist()}
    y = np.linspace(0.0, 1.0, doc["grid_points"] + 1)
    doc["initial_S"] = {"samples": (0.3 + 0.01 * np.cos(math.pi * y)).tolist()}
    return doc


def test_config_document_round_trip():
    config = validate_config(config_from_dict(_document()))
    doc = config_to_dict(config)
    again = config_from_dict(doc)
    assert again == config
    assert doc["gamma"]["g"]["harmonics"] == [[1, 0.05, 0.0]]
    assert doc["rho"]["amplitude"] == 0.3
    source = _tabulated_document()
    config = validate_config(config_from_dict(source))
    doc = config_to_dict(config)
    assert config_from_dict(json.loads(json.dumps(doc))) == config
    assert doc["rho"] == source["rho"]
    assert doc["initial_S"] == source["initial_S"]


# every drawn config has T = pi, 16 intervals and 64 steps per period; L <= 4 and
# rho <= e^0.7 keep the material coordinate z = rho*y below 8
_DRAWN_GRID = 16


@st.composite
def _drawn_rates(draw) -> EvolutionRate:
    """Each rate kind: exp-cosine at 1 or 2 turns per period, and 8 to 20 uniform samples
    of exp(a(1 - cos 2t)) + e sin 2t, with rho(0) = 1, optionally closed by a duplicate."""
    kind = draw(st.sampled_from(["constant-one", "exp-cosine", "tabulated"]))
    amplitude = draw(st.floats(-0.3, 0.3))
    if kind == "constant-one":
        return EvolutionRate(kind=kind, period=math.pi)
    if kind == "exp-cosine":
        return EvolutionRate(kind=kind, period=math.pi, amplitude=amplitude,
                             frequency=2.0 * draw(st.integers(1, 2)))
    count = draw(st.integers(8, 20))
    t = np.arange(count) * (math.pi / count)
    samples = np.exp(amplitude * (1.0 - np.cos(2.0 * t))) + draw(st.floats(-0.05, 0.05)) * np.sin(2.0 * t)
    return EvolutionRate(kind=kind, period=math.pi,
                         samples=tuple(samples.tolist() + ([1.0] if draw(st.booleans()) else [])))


@st.composite
def _drawn_shapes(draw) -> CoefficientProfile:
    """A z-profile at least 0.05 for every z <= 8."""
    form = draw(st.sampled_from(["constant", "affine", "exponential"]))
    c0 = draw(st.floats(0.25, 2.0))
    if form == "constant":
        return CoefficientProfile(form=form, c0=c0)
    if form == "affine":
        return CoefficientProfile(form=form, c0=c0, c1=draw(st.floats(-0.025, 0.5)))
    return CoefficientProfile(form=form, c0=c0, c1=draw(st.floats(-0.2, 0.5)), c2=draw(st.floats(-1.0, 0.0)))


@st.composite
def _drawn_profiles(draw) -> CoefficientProfile:
    """Every profile form; a separable one has up to two harmonics, and g stays above 0.05."""
    if not draw(st.booleans()):
        return draw(_drawn_shapes())
    harmonics = draw(st.lists(st.tuples(st.integers(1, 3), st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)),
                              max_size=2))
    return CoefficientProfile(form="separable", space=draw(_drawn_shapes()), g_mean=draw(st.floats(0.25, 1.0)),
                              g_harmonics=tuple(harmonics))


@st.composite
def _drawn_initial(draw) -> InitialSpec:
    """A cosine series with mean m and up to two modes of amplitude at most m/3, or N+1 positive samples."""
    if draw(st.booleans()):
        samples = draw(st.lists(st.floats(0.01, 2.0), min_size=_DRAWN_GRID + 1, max_size=_DRAWN_GRID + 1))
        return InitialSpec(samples=tuple(samples))
    mean = draw(st.floats(0.1, 1.0))
    modes = draw(st.lists(st.tuples(st.integers(1, 4), st.floats(-mean / 3.0, mean / 3.0)), max_size=2))
    return InitialSpec(mean=mean, modes=tuple(modes))


@st.composite
def _drawn_configs(draw) -> ModelConfig:
    return ModelConfig(
        d_S=10.0 ** draw(st.floats(-3.0, 1.0)), d_I=10.0 ** draw(st.floats(-3.0, 1.0)),
        L=draw(st.floats(0.5, 4.0)), T=math.pi, rho=draw(_drawn_rates()),
        a=draw(_drawn_profiles()), b=draw(_drawn_profiles()), beta=draw(_drawn_profiles()),
        gamma=draw(_drawn_profiles()), initial_S=draw(_drawn_initial()), initial_I=draw(_drawn_initial()),
        n=draw(st.integers(1, 2)), grid_points=_DRAWN_GRID, steps_per_period=64)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_drawn_configs())
def test_config_document_round_trip_on_drawn_configs(config):
    """Through JSON and back, a valid config keeps its document, and every
    coefficient table, dilution rate and initial field on its lattice bit for bit."""
    validate_config(config)
    doc = json.loads(json.dumps(config_to_dict(config)))
    again = config_from_dict(doc)
    assert config_to_dict(again) == doc
    assert validate_config(again) is again
    nodes = config.grid.nodes
    times = np.linspace(0.0, config.T, config.steps_per_period + 1)
    for name in ("a", "b", "beta", "gamma"):
        assert np.array_equal(coefficient_table(getattr(again, name), again.rho, nodes, times),
                              coefficient_table(getattr(config, name), config.rho, nodes, times)), name
    assert np.array_equal(again.dilution(times), config.dilution(times))
    for name in ("initial_S", "initial_I"):
        assert np.array_equal(getattr(again, name).evaluate(nodes, again.L),
                              getattr(config, name).evaluate(nodes, config.L)), name


def test_config_from_dict_rejects_unknown_and_missing_keys():
    doc = _document()
    doc["mystery"] = 1
    with pytest.raises(ConfigurationError, match="unknown keys"):
        config_from_dict(doc)
    doc = _document()
    doc["rho"]["phase"] = 0.5
    with pytest.raises(ConfigurationError, match="rho"):
        config_from_dict(doc)
    doc = _document()
    doc["beta"]["slope"] = 2.0
    with pytest.raises(ConfigurationError, match="beta"):
        config_from_dict(doc)
    doc = _document()
    del doc["d_I"]
    with pytest.raises(ConfigurationError, match="missing required"):
        config_from_dict(doc)


def test_integer_fields_take_integral_numbers_only():
    doc = _document()
    doc["grid_points"] = 48.0
    doc["initial_S"]["modes"] = [[2.0, 0.01]]
    config = config_from_dict(doc)
    assert config.grid_points == 48 and isinstance(config.grid_points, int)
    assert config.initial_S.modes == ((2, 0.01),)
    for key, value in (("grid_points", "48"), ("steps_per_period", 64.5), ("n", False)):
        doc = _document()
        doc[key] = value
        with pytest.raises(ConfigurationError, match=f"{key}: malformed"):
            config_from_dict(doc)
    doc = _document()
    doc["gamma"]["g"]["harmonics"] = [[1.5, 0.05, 0.0]]
    with pytest.raises(ConfigurationError, match="gamma.g.harmonics: malformed"):
        config_from_dict(doc)


def test_with_resolution_replaces_only_resolution():
    config = _valid_config()
    finer = config.with_resolution(grid_points=32)
    assert finer.grid_points == 32
    assert finer.steps_per_period == config.steps_per_period
    assert finer.beta == config.beta
    assert config.with_resolution() is config
