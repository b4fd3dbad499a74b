"""Core model types: domain evolution, coefficients, grids, and configuration.

The model lives on a fixed interval (0, L) obtained from a periodically
evolving habitat (0, rho(t)*L) by the material-coordinate change x = rho(t)*y.
Space-dependent rates are therefore always evaluated at z = rho(t)*y, except
for the separable form c(y)/rho^2(t) + g(t) which is expressed directly in
the fixed coordinate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

import numpy as np
import numpy.typing as npt

from .errors import ConfigurationError

FloatArray = npt.NDArray[np.floating[Any]]

# ---- invariant tolerances ----

RHO_AT_ZERO_TOL = 1e-12
PERIODICITY_TOL = 1e-10
FREQUENCY_PERIOD_TOL = 1e-10
DEFAULT_CLOSURE_TOL = 1e-8
DEFAULT_GRID_POINTS = 200
DEFAULT_STEPS_PER_PERIOD = 2000
DEFAULT_NM_BUDGET = 20_000_000
# Bound on dt*(sup a + sup |n rho'/rho|): the explicit reaction step of the
# coupled and disease-free steppers. At dt*a <= 1 the explicit predictor maps
# the constant supersolution start 2a/b of the disease-free iteration to
# (2a/b)(1 - a dt) >= 0 (constant coefficients); beyond it the start
# overshoots, and at dt*a = 3.75 both starts clamp to the zero orbit.
REACTION_STEP_BOUND = 1.0
MIN_TABULATED_SAMPLES = 8

_ERR_NOT_FINITE = "{path}: value must be finite, got {value!r}"
_ERR_NOT_POSITIVE = "{path}: must be positive, got {value!r}"
_ERR_REACTION_STEP = (
    "steps_per_period: the explicit reaction step needs T/steps_per_period*(sup a + sup |n rho'/rho|)"
    " <= {bound:g}, got {value:.6g} (T = {T:g}, sup a = {sup_a:.6g}, sup |n rho'/rho| = {sup_dil:.6g});"
    " need steps_per_period >= {least}"
)

RATE_KINDS = ("constant-one", "exp-cosine", "tabulated")
PROFILE_FORMS = ("constant", "affine", "exponential", "separable")


# ---- domain evolution ----

@dataclass(frozen=True, slots=True)
class EvolutionRate:
    """T-periodic domain scaling rho(t) with rho(0) = 1.

    kind is one of:
      * ``constant-one``: rho(t) = 1.
      * ``exp-cosine``: rho(t) = exp(amplitude * (1 - cos(frequency * t))).
      * ``tabulated``: uniform samples of rho over one period starting at t=0;
        a duplicated closing sample equal to the first is accepted.
    """

    kind: str
    period: float
    amplitude: float = 0.0
    frequency: float = 0.0
    samples: tuple[float, ...] | None = None

    def _open_samples(self) -> FloatArray:
        values = np.asarray(self.samples, dtype=float)
        if values.size > 1 and abs(values[-1] - values[0]) <= PERIODICITY_TOL * max(1.0, abs(values[0])):
            values = values[:-1]
        return values

    def _interpolant(self, t: FloatArray) -> tuple[FloatArray, FloatArray, FloatArray]:
        """(phases, scaled rfft coefficients, wavenumbers) of the trigonometric interpolant at t."""
        values = self._open_samples()
        coeffs = np.fft.rfft(values) / values.size
        wavenumbers = np.arange(coeffs.size) * (2.0 * math.pi / self.period)
        phases = np.exp(1j * np.multiply.outer(t, wavenumbers))
        scale = np.ones(coeffs.size)
        scale[1:] = 2.0
        if values.size % 2 == 0:
            scale[-1] = 1.0  # Nyquist mode appears once in the rfft expansion
        return phases, scale * coeffs, wavenumbers

    def _tabulated_value(self, t: FloatArray) -> FloatArray:
        phases, coeffs, _ = self._interpolant(t)
        return np.real(phases @ coeffs)

    def _tabulated_derivative(self, t: FloatArray) -> FloatArray:
        phases, coeffs, wavenumbers = self._interpolant(t)
        return np.real(phases @ (coeffs * 1j * wavenumbers))

    def value(self, t: FloatArray | float) -> Any:
        """Evaluates rho at time t (scalar or array)."""
        t_arr = np.asarray(t, dtype=float)
        if self.kind == "constant-one":
            out = np.ones_like(t_arr)
        elif self.kind == "exp-cosine":
            out = np.exp(self.amplitude * (1.0 - np.cos(self.frequency * t_arr)))
        else:
            out = self._tabulated_value(np.atleast_1d(t_arr)).reshape(t_arr.shape)
        return out if t_arr.shape else float(out)

    def derivative(self, t: FloatArray | float) -> Any:
        """Evaluates d(rho)/dt at time t (scalar or array)."""
        t_arr = np.asarray(t, dtype=float)
        if self.kind == "constant-one":
            out = np.zeros_like(t_arr)
        elif self.kind == "exp-cosine":
            rho = np.exp(self.amplitude * (1.0 - np.cos(self.frequency * t_arr)))
            out = self.amplitude * self.frequency * np.sin(self.frequency * t_arr) * rho
        else:
            out = self._tabulated_derivative(np.atleast_1d(t_arr)).reshape(t_arr.shape)
        return out if t_arr.shape else float(out)

    def validate(self, path: str = "rho") -> list[str]:
        """Returns one message per violated invariant (empty when valid)."""
        errors: list[str] = []
        if self.kind not in RATE_KINDS:
            return [f"{path}.kind: unknown kind {self.kind!r}, expected one of {RATE_KINDS}"]
        if not (math.isfinite(self.period) and self.period > 0.0):
            errors.append(_ERR_NOT_POSITIVE.format(path=f"{path}.period", value=self.period))
            return errors
        if self.kind == "exp-cosine":
            for name, value in (("amplitude", self.amplitude), ("frequency", self.frequency)):
                if not math.isfinite(value):
                    errors.append(_ERR_NOT_FINITE.format(path=f"{path}.{name}", value=value))
            if errors:
                return errors
            turns = self.frequency * self.period / (2.0 * math.pi)
            if abs(turns - round(turns)) > FREQUENCY_PERIOD_TOL or round(turns) < 1:
                errors.append(
                    f"{path}.frequency: frequency*period must be a positive multiple of 2*pi, got {turns}"
                )
        if self.kind == "tabulated":
            if self.samples is None or len(self.samples) < MIN_TABULATED_SAMPLES:
                errors.append(
                    f"{path}.samples: tabulated rate needs at least {MIN_TABULATED_SAMPLES} samples"
                )
                return errors
        if errors:
            return errors
        probe = np.linspace(0.0, self.period, 65)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as inf or NaN below
            values = np.asarray(self.value(probe))
            gap = np.max(np.abs(np.asarray(self.value(probe + self.period)) - values))
        if abs(values[0] - 1.0) > RHO_AT_ZERO_TOL:
            errors.append(f"{path}: rho(0) must equal 1, got {values[0]!r}")
        if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
            errors.append(f"{path}: rho must stay finite and positive over one period")
        if not gap <= PERIODICITY_TOL * max(1.0, float(np.max(np.abs(values)))):  # NaN fails too
            errors.append(f"{path}: rho(t+T) must equal rho(t) within {PERIODICITY_TOL}")
        return errors


# ---- coefficient profiles ----

@dataclass(frozen=True, slots=True)
class CoefficientProfile:
    """Scalar model coefficient.

    Non-separable forms are profiles of the material coordinate z = rho(t)*y:
      * ``constant``: c0
      * ``affine``: c0 + c1*z
      * ``exponential``: c0 + c1*exp(c2*z)

    The ``separable`` form is c(y)/rho^2(t) + g(t) with ``space`` the
    y-profile c and g(t) a truncated Fourier series with mean ``g_mean`` and
    harmonics (k, cos_amp, sin_amp) over the period.
    """

    form: str
    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    space: "CoefficientProfile | None" = None
    g_mean: float = 0.0
    g_harmonics: tuple[tuple[int, float, float], ...] = ()

    def evaluate_z(self, z: FloatArray | float) -> Any:
        """Evaluates a non-separable profile at material coordinate z."""
        if self.form == "constant":
            return self.c0 + np.zeros_like(np.asarray(z, dtype=float)) if np.ndim(z) else self.c0
        if self.form == "affine":
            return self.c0 + self.c1 * np.asarray(z, dtype=float) if np.ndim(z) else self.c0 + self.c1 * z
        if self.form == "exponential":
            zz = np.asarray(z, dtype=float)
            out = self.c0 + self.c1 * np.exp(self.c2 * zz)
            return out if np.ndim(z) else float(out)
        raise ValueError(f"separable profiles have no plain z evaluation (form={self.form!r})")

    def g_of_t(self, t: FloatArray | float, period: float) -> Any:
        """Evaluates the periodic time offset g(t) of the separable form."""
        t_arr = np.asarray(t, dtype=float)
        out = np.full_like(t_arr, self.g_mean, dtype=float)
        for k, cos_amp, sin_amp in self.g_harmonics:
            angle = 2.0 * math.pi * k * t_arr / period
            out = out + cos_amp * np.cos(angle) + sin_amp * np.sin(angle)
        return out if t_arr.shape else float(out)

    def z_derivative_sign(self) -> int:
        """Sign of d/dz of the spatial part: -1, 0, or +1."""
        if self.form == "constant":
            return 0
        if self.form == "affine":
            return int(np.sign(self.c1))
        if self.form == "exponential":
            return int(np.sign(self.c1 * self.c2))
        return self.space.z_derivative_sign() if self.space is not None else 0

    def z_limit(self) -> float | None:
        """Limit of the z-profile as z -> infinity, or None if unbounded."""
        if self.form == "constant":
            return self.c0
        if self.form == "affine":
            return self.c0 if self.c1 == 0.0 else None
        if self.form == "exponential":
            if self.c2 < 0.0 or self.c1 == 0.0:
                return self.c0
            return None
        return None

    def validate(self, path: str) -> list[str]:
        errors: list[str] = []
        if self.form not in PROFILE_FORMS:
            return [f"{path}.form: unknown form {self.form!r}, expected one of {PROFILE_FORMS}"]
        for name in ("c0", "c1", "c2", "g_mean"):
            value = getattr(self, name)
            if not math.isfinite(value):
                errors.append(_ERR_NOT_FINITE.format(path=f"{path}.{name}", value=value))
        if self.form == "separable":
            if self.space is None:
                errors.append(f"{path}.space: separable form requires a spatial profile")
            elif self.space.form == "separable":
                errors.append(f"{path}.space: nested separable profiles are not supported")
            else:
                errors.extend(self.space.validate(f"{path}.space"))
            for k, cos_amp, sin_amp in self.g_harmonics:
                if k < 1 or not (math.isfinite(cos_amp) and math.isfinite(sin_amp)):
                    errors.append(f"{path}.g_harmonics: bad harmonic ({k}, {cos_amp}, {sin_amp})")
        return errors


def evaluate_coefficient(
    profile: CoefficientProfile,
    rho: EvolutionRate,
    y: FloatArray | float,
    t: FloatArray | float,
) -> Any:
    """Evaluates a coefficient at fixed-domain position y and time t.

    Non-separable forms are evaluated at z = rho(t)*y; the separable form is
    space(y)/rho(t)^2 + g(t). Arguments broadcast like numpy arrays, so a
    (M, 1) time column against a (N+1,) node row yields a full table.

    Args:
        profile: coefficient description.
        rho: domain evolution rate supplying rho(t) and the period.
        y: fixed-domain coordinate(s) in [0, L].
        t: time(s).

    Returns:
        Scalar or broadcast array of coefficient values.
    """
    rho_t = rho.value(t)
    if profile.form == "separable":
        assert profile.space is not None
        spatial = profile.space.evaluate_z(y)
        return spatial / np.asarray(rho_t) ** 2 + profile.g_of_t(t, rho.period)
    return profile.evaluate_z(np.asarray(rho_t) * np.asarray(y)) if np.ndim(y) or np.ndim(t) else profile.evaluate_z(rho_t * y)


def _varies_in(profile: CoefficientProfile, rho: EvolutionRate) -> tuple[bool, bool]:
    """(in time, in space): which lattice axes a coefficient can vary along.

    Decided from the profile form and the evolution rate alone: a constant
    form varies in neither; a separable form with a constant space profile
    in time only; any other profile on the constant-one rate (z = y) with no
    g harmonics in space only; everything else in both.
    """
    if profile.form == "constant":
        return False, False
    if profile.form == "separable" and profile.space is not None and profile.space.form == "constant":
        return True, False
    if rho.kind == "constant-one" and not profile.g_harmonics:
        return False, True
    return True, True


def compact_coefficient_table(
    profile: CoefficientProfile,
    rho: EvolutionRate,
    nodes: FloatArray,
    times: FloatArray,
) -> FloatArray:
    """A coefficient on a time/node lattice, held at the shape it varies in.

    The shape is (times.size or 1, nodes.size or 1): an axis the
    coefficient cannot vary along keeps its first sample only. Each entry
    equals, bit for bit, the one `evaluate_coefficient` gives on the full
    lattice, so the array broadcasts to the full table.
    """
    in_time, in_space = _varies_in(profile, rho)
    times = times if in_time else times[:1]
    nodes = nodes if in_space else nodes[:1]
    return np.asarray(evaluate_coefficient(profile, rho, nodes, times[:, None]), dtype=float)


def coefficient_table(
    profile: CoefficientProfile,
    rho: EvolutionRate,
    nodes: FloatArray,
    times: FloatArray,
) -> FloatArray:
    """Read-only (times.size, nodes.size) view of a coefficient on a time/node lattice.

    The values are held at the shape they vary in (`compact_coefficient_table`)
    and broadcast to the full shape, so a table constant in space, in time
    or in both costs one column, one row or one value. Elementwise results
    equal those of a full table bit for bit; a matrix product or reduction
    over a view can round differently, so materialize the table for those.
    """
    return np.broadcast_to(compact_coefficient_table(profile, rho, nodes, times), (times.size, nodes.size))


# ---- grid and fields ----

@dataclass(frozen=True, slots=True)
class Grid1D:
    """Uniform grid on [0, L] with N+1 nodes (Neumann endpoints included)."""

    L: float
    N: int

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def nodes(self) -> FloatArray:
        return np.linspace(0.0, self.L, self.N + 1)


@dataclass(frozen=True, slots=True)
class PeriodicOrbit:
    """Space-time samples over one period with closure u(., 0) = u(., T).

    values has shape (M+1, N+1) with values[0] at t=0 and values[M] at t=T.
    """

    values: FloatArray
    period: float
    closure_defect: float

    @classmethod
    def from_samples(
        cls, values: FloatArray, period: float, tolerance: float = DEFAULT_CLOSURE_TOL
    ) -> "PeriodicOrbit":
        """Builds an orbit, checking the relative closure defect.

        Raises:
            ValueError: if the defect exceeds ``tolerance`` relative to the
                sup-norm of the samples.
        """
        values = np.asarray(values, dtype=float)
        scale = max(float(values.max()), -float(values.min()), 1e-300)
        defect = float(np.max(np.abs(values[0] - values[-1]))) / scale
        if defect > tolerance:
            raise ValueError(
                f"periodic closure defect {defect:.3e} exceeds tolerance {tolerance:.3e}"
            )
        return cls(values=values, period=period, closure_defect=defect)

    @property
    def times(self) -> FloatArray:
        return np.linspace(0.0, self.period, self.values.shape[0])


# ---- initial data ----

@dataclass(frozen=True, slots=True)
class InitialSpec:
    """Initial profile as a Neumann cosine series, or raw nodal samples.

    The series evaluates to mean + sum over (mode, amplitude) pairs of
    amplitude*cos(mode*pi*y/L). When ``samples`` is given it overrides the
    series and must match the grid nodes.
    """

    mean: float = 0.0
    modes: tuple[tuple[int, float], ...] = ()
    samples: tuple[float, ...] | None = None

    def evaluate(self, y: FloatArray, L: float) -> FloatArray:
        if self.samples is not None:
            return np.asarray(self.samples, dtype=float)
        out = np.full_like(np.asarray(y, dtype=float), self.mean)
        for mode, amplitude in self.modes:
            out = out + amplitude * np.cos(mode * math.pi * np.asarray(y) / L)
        return out


# ---- configuration ----

@dataclass(frozen=True, slots=True)
class ModelConfig:
    """Full problem instance on the fixed domain (0, L)."""

    d_S: float
    d_I: float
    L: float
    T: float
    rho: EvolutionRate
    a: CoefficientProfile
    b: CoefficientProfile
    beta: CoefficientProfile
    gamma: CoefficientProfile
    initial_S: InitialSpec
    initial_I: InitialSpec
    n: int = 1
    grid_points: int = DEFAULT_GRID_POINTS
    steps_per_period: int = DEFAULT_STEPS_PER_PERIOD

    @property
    def grid(self) -> Grid1D:
        return Grid1D(L=self.L, N=self.grid_points)

    def with_resolution(self, grid_points: int | None = None, steps_per_period: int | None = None) -> "ModelConfig":
        updates: dict[str, int] = {}
        if grid_points is not None:
            updates["grid_points"] = grid_points
        if steps_per_period is not None:
            updates["steps_per_period"] = steps_per_period
        return replace(self, **updates) if updates else self

    def dilution(self, times: FloatArray) -> FloatArray:
        """Dilution rate n * rho'(t)/rho(t) of the evolving domain at the given times."""
        rho_t = np.asarray(self.rho.value(times), dtype=float)
        rho_dot = np.asarray(self.rho.derivative(times), dtype=float)
        return self.n * rho_dot / rho_t


def _positive(errors: list[str], path: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        errors.append(_ERR_NOT_POSITIVE.format(path=path, value=value))


def _check_reaction_step(errors: list[str], config: ModelConfig, sup_a: float, t_probe: FloatArray) -> None:
    sup_dil = float(np.max(np.abs(config.dilution(t_probe))))
    value = config.T / config.steps_per_period * (sup_a + sup_dil)
    if value > REACTION_STEP_BOUND:
        least = math.ceil(config.T * (sup_a + sup_dil) / REACTION_STEP_BOUND)
        errors.append(_ERR_REACTION_STEP.format(bound=REACTION_STEP_BOUND, value=value, T=config.T,
                                                sup_a=sup_a, sup_dil=sup_dil, least=least))


def validate_config(config: ModelConfig) -> ModelConfig:
    """Checks every configuration invariant, raising on any violation.

    Returns the config unchanged when valid (defaults are dataclass-filled).

    Raises:
        ConfigurationError: carrying one message per violated invariant,
            each prefixed with the offending field path.
    """
    errors: list[str] = []
    _positive(errors, "d_S", config.d_S)
    _positive(errors, "d_I", config.d_I)
    _positive(errors, "L", config.L)
    _positive(errors, "T", config.T)
    if isinstance(config.n, bool) or not isinstance(config.n, numbers.Integral) or config.n < 1:
        errors.append(f"n: dilution dimension must be a positive integer, got {config.n!r}")
    errors.extend(config.rho.validate("rho"))
    if not errors and abs(config.rho.period - config.T) > PERIODICITY_TOL * max(1.0, config.T):
        errors.append(f"T: must match rho.period, got {config.T} vs {config.rho.period}")
    for name in ("a", "b", "beta", "gamma"):
        errors.extend(getattr(config, name).validate(name))
    integral = True
    for name, least in (("grid_points", 8), ("steps_per_period", 16)):
        value = getattr(config, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            errors.append(f"{name}: must be an integer, got {value!r}")
            integral = False
        elif value < least:
            errors.append(f"{name}: need at least {least}, got {value}")
    if integral and config.grid_points * config.steps_per_period > DEFAULT_NM_BUDGET:
        errors.append(
            "grid_points*steps_per_period: "
            f"{config.grid_points * config.steps_per_period} exceeds the desk-scale budget {DEFAULT_NM_BUDGET}"
        )
    if errors:
        raise ConfigurationError(errors)

    # Positivity of rates sampled across the admissible (y, t) range.
    y_probe = np.linspace(0.0, config.L, 65)
    t_probe = np.linspace(0.0, config.T, 65)
    for name in ("a", "b", "beta", "gamma"):
        with np.errstate(over="ignore", invalid="ignore"):  # overflow shows as inf or NaN below
            table = coefficient_table(getattr(config, name), config.rho, y_probe, t_probe)
        if not np.all(np.isfinite(table)):
            errors.append(f"{name}: evaluation produced non-finite values")
        elif np.min(table) <= 0.0:
            errors.append(f"{name}: must be positive on [0, L] x [0, T], minimum {float(np.min(table)):.6g}")
        elif name == "a":
            _check_reaction_step(errors, config, float(np.max(table)), t_probe)

    fine = np.linspace(0.0, config.L, 4 * config.grid_points + 1)
    for name, spec in (("initial_S", config.initial_S), ("initial_I", config.initial_I)):
        if spec.samples is not None and len(spec.samples) != config.grid_points + 1:
            errors.append(
                f"{name}.samples: expected {config.grid_points + 1} nodal values, got {len(spec.samples)}"
            )
            continue
        probe = fine if spec.samples is None else np.linspace(0.0, config.L, config.grid_points + 1)
        values = spec.evaluate(probe, config.L)
        if not np.all(np.isfinite(values)):
            errors.append(f"{name}: values must be finite")
        elif name == "initial_S" and np.min(values) <= 0.0:
            errors.append(f"initial_S: must be positive everywhere, minimum {float(np.min(values)):.6g}")
        elif name == "initial_I":
            if np.min(values) < 0.0:
                errors.append(f"initial_I: must be nonnegative, minimum {float(np.min(values)):.6g}")
            if np.max(values) <= 0.0:
                errors.append("initial_I: must not be identically zero")
    if errors:
        raise ConfigurationError(errors)
    return config


# ---- structured-document (de)serialization ----

def _read(path: str, convert: Callable[[Any], Any], value: Any) -> Any:
    """convert(value), with a failed conversion reported as a configuration error at path."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError([f"{path}: malformed value {value!r}"]) from None


def _integer(value: Any) -> int:
    """value as an int; bools, strings and non-integral numbers are rejected, 48.0 is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or int(value) != value:
        raise ValueError(value)
    return int(value)


def _document(doc: Any, known: set[str], path: str) -> dict[str, Any]:
    """doc itself, once it is checked to be an object with only known keys."""
    if not isinstance(doc, dict):
        raise ConfigurationError([f"{path}: expected an object, got {doc!r}"])
    unknown = set(doc) - known
    if unknown:
        raise ConfigurationError([f"{path}: unknown keys {sorted(unknown)}"])
    return doc


def _floats(values: Any) -> tuple[float, ...] | None:
    """An optional list of numbers as a tuple; None stays None."""
    return None if values is None else tuple(float(v) for v in values)


def _rate_from_dict(doc: Any, period: float) -> EvolutionRate:
    doc = _document(doc, {"kind", "amplitude", "frequency", "samples"}, "rho")
    return EvolutionRate(
        kind=doc.get("kind", "constant-one"),
        period=period,
        amplitude=_read("rho.amplitude", float, doc.get("amplitude", 0.0)),
        frequency=_read("rho.frequency", float, doc.get("frequency", 0.0)),
        samples=_read("rho.samples", _floats, doc.get("samples")),
    )


def _profile_from_dict(doc: Any, path: str) -> CoefficientProfile:
    doc = _document(doc, {"form", "c0", "c1", "c2", "space", "g"}, path)
    g_doc = _document(doc.get("g", {}), {"mean", "harmonics"}, f"{path}.g")
    space_doc = doc.get("space")
    return CoefficientProfile(
        form=doc.get("form", "constant"),
        c0=_read(f"{path}.c0", float, doc.get("c0", 0.0)),
        c1=_read(f"{path}.c1", float, doc.get("c1", 0.0)),
        c2=_read(f"{path}.c2", float, doc.get("c2", 0.0)),
        space=_profile_from_dict(space_doc, f"{path}.space") if space_doc is not None else None,
        g_mean=_read(f"{path}.g.mean", float, g_doc.get("mean", 0.0)),
        g_harmonics=_read(f"{path}.g.harmonics",
                          lambda rows: tuple((_integer(k), float(c), float(s)) for k, c, s in rows),
                          g_doc.get("harmonics", ())),
    )


def _initial_from_dict(doc: Any, path: str) -> InitialSpec:
    doc = _document(doc, {"mean", "modes", "samples"}, path)
    return InitialSpec(
        mean=_read(f"{path}.mean", float, doc.get("mean", 0.0)),
        modes=_read(f"{path}.modes", lambda rows: tuple((_integer(m), float(a)) for m, a in rows),
                    doc.get("modes", ())),
        samples=_read(f"{path}.samples", _floats, doc.get("samples")),
    )


def config_from_dict(doc: dict[str, Any]) -> ModelConfig:
    """Builds a ModelConfig from one structured configuration document.

    The document layout is described in docs/config_schema.md. Unknown keys
    are rejected so typos surface as configuration errors, and a value of
    the wrong shape or type is reported with its field path.
    """
    doc = _document(doc, {
        "d_S", "d_I", "n", "L", "T", "rho", "a", "b", "beta", "gamma",
        "grid_points", "steps_per_period", "initial_S", "initial_I",
    }, "config")
    missing = [key for key in ("d_S", "d_I", "L", "T", "rho", "a", "b", "beta", "gamma") if key not in doc]
    if missing:
        raise ConfigurationError([f"config: missing required keys {missing}"])
    period = _read("T", float, doc["T"])
    return ModelConfig(
        d_S=_read("d_S", float, doc["d_S"]),
        d_I=_read("d_I", float, doc["d_I"]),
        L=_read("L", float, doc["L"]),
        T=period,
        rho=_rate_from_dict(doc["rho"], period),
        a=_profile_from_dict(doc["a"], "a"),
        b=_profile_from_dict(doc["b"], "b"),
        beta=_profile_from_dict(doc["beta"], "beta"),
        gamma=_profile_from_dict(doc["gamma"], "gamma"),
        initial_S=_initial_from_dict(doc.get("initial_S", {"mean": 1.0}), "initial_S"),
        initial_I=_initial_from_dict(doc.get("initial_I", {"mean": 1.0}), "initial_I"),
        n=_read("n", _integer, doc.get("n", 1)),
        grid_points=_read("grid_points", _integer, doc.get("grid_points", DEFAULT_GRID_POINTS)),
        steps_per_period=_read("steps_per_period", _integer,
                               doc.get("steps_per_period", DEFAULT_STEPS_PER_PERIOD)),
    )


def _profile_to_dict(profile: CoefficientProfile) -> dict[str, Any]:
    doc: dict[str, Any] = {"form": profile.form}
    if profile.form in ("constant", "affine", "exponential"):
        doc["c0"] = profile.c0
        if profile.form in ("affine", "exponential"):
            doc["c1"] = profile.c1
        if profile.form == "exponential":
            doc["c2"] = profile.c2
    else:
        assert profile.space is not None
        doc["space"] = _profile_to_dict(profile.space)
        doc["g"] = {"mean": profile.g_mean, "harmonics": [list(h) for h in profile.g_harmonics]}
    return doc


def config_to_dict(config: ModelConfig) -> dict[str, Any]:
    """Serializes a ModelConfig back to its document form."""
    rho_doc: dict[str, Any] = {"kind": config.rho.kind}
    if config.rho.kind == "exp-cosine":
        rho_doc["amplitude"] = config.rho.amplitude
        rho_doc["frequency"] = config.rho.frequency
    if config.rho.kind == "tabulated":
        rho_doc["samples"] = list(config.rho.samples or ())
    def initial_doc(spec: InitialSpec) -> dict[str, Any]:
        if spec.samples is not None:
            return {"samples": list(spec.samples)}
        return {"mean": spec.mean, "modes": [list(m) for m in spec.modes]}
    return {
        "d_S": config.d_S,
        "d_I": config.d_I,
        "n": int(config.n),
        "L": config.L,
        "T": config.T,
        "rho": rho_doc,
        "a": _profile_to_dict(config.a),
        "b": _profile_to_dict(config.b),
        "beta": _profile_to_dict(config.beta),
        "gamma": _profile_to_dict(config.gamma),
        "grid_points": int(config.grid_points),
        "steps_per_period": int(config.steps_per_period),
        "initial_S": initial_doc(config.initial_S),
        "initial_I": initial_doc(config.initial_I),
    }
