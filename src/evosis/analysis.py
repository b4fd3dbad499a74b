"""Parameter sweeps, diffusion and length limits, and threshold dynamics.

These routines exercise the qualitative theory at desk scale: R0 falls
strictly as infected diffusivity grows, moves monotonically in the domain
length (direction set by the coefficient slopes), approaches explicit
targets in the extreme-diffusivity and extreme-length regimes, and its
position relative to one decides extinction versus persistence of the
infected density.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np
import numpy.typing as npt

from .engine import simulate, trapezoid_weights
from .errors import ConfigurationError, NotApplicableError
from .model import ModelConfig, coefficient_table, validate_config
from .spectral import compute_r0

FloatArray = npt.NDArray[np.floating[Any]]

STRICT_SLACK = 1e-9
LIMIT_GAP_BUDGET = 0.05
NEAR_THRESHOLD_BAND = 0.02
EXTINCTION_SUP = 1e-4
PERSISTENCE_FLOOR = 1e-3
DEEP_EXTINCTION = 1e-8
DEFAULT_HORIZON = 100

LIMIT_KINDS = ("small-diffusivity", "large-diffusivity", "small-length", "large-length")
SWEEP_PARAMS = ("d_I", "L")

_ERR_NOT_INCREASING = "{what}: values must be strictly increasing, got {values}"
_ERR_ORDERING = "{kind}: values must approach the limit monotonically, got {values}"
_ERR_KIND = "unknown limit kind {kind!r}, expected one of {known}"
_ERR_NO_TAIL_LIMIT = (
    "large-length target needs finite far-field limits of beta and gamma; "
    "{name} has none (form {form!r})"
)


# ---- monotone parameter sweeps ----

@dataclass(frozen=True, slots=True)
class SweepTable:
    """R0 along one strictly increasing parameter sequence."""

    param: str
    values: tuple[float, ...]
    r0_values: tuple[float, ...]
    verdict: str
    violation_indices: tuple[int, ...] = ()


def _sweep_verdict(r0_values: FloatArray, slack: float) -> tuple[str, tuple[int, ...]]:
    diffs = np.diff(r0_values)
    if np.all(diffs < -slack):
        return "strictly-decreasing", ()
    if np.all(diffs > slack):
        return "strictly-increasing", ()
    trend = 1.0 if r0_values[-1] >= r0_values[0] else -1.0
    bad = tuple(int(i) for i, d in enumerate(diffs) if not (trend * d > slack))
    return "violated-at-indices", bad


def _sweep(config: ModelConfig, param: str, values: tuple[float, ...]) -> SweepTable:
    array = np.asarray(values, dtype=float)
    if array.size < 2 or np.any(np.diff(array) <= 0.0):
        raise ConfigurationError([_ERR_NOT_INCREASING.format(what=f"sweep over {param}", values=list(values))])
    swept = [validate_config(replace(config, **{param: float(value)})) for value in array]
    r0s = [compute_r0(swept_config).value for swept_config in swept]
    verdict, bad = _sweep_verdict(np.asarray(r0s), STRICT_SLACK)
    return SweepTable(param=param, values=tuple(float(v) for v in array),
                      r0_values=tuple(r0s), verdict=verdict, violation_indices=bad)


def sweep_diffusivity(config: ModelConfig, values: tuple[float, ...]) -> SweepTable:
    """R0 across increasing infected diffusivities (theory: decreasing).

    Raises:
        ConfigurationError: fewer than two values, values not strictly
            increasing, or a swept config fails validation.
    """
    return _sweep(config, "d_I", values)


def sweep_length(config: ModelConfig, values: tuple[float, ...]) -> SweepTable:
    """R0 across increasing domain lengths.

    The expected direction depends on the coefficient slopes: increasing
    when transmission grows and recovery falls with the material
    coordinate, decreasing in the mirrored case.

    Raises:
        ConfigurationError: fewer than two values, values not strictly
            increasing, or a swept config fails validation.
    """
    return _sweep(config, "L", values)


# ---- extreme-parameter limits ----

@dataclass(frozen=True, slots=True)
class LimitReport:
    """R0 along a sequence approaching an extreme-parameter target."""

    kind: str
    values: tuple[float, ...]
    r0_values: tuple[float, ...]
    target: float
    gaps: tuple[float, ...]
    flagged: bool
    gaps_monotone: bool

    @property
    def final_gap(self) -> float:
        return self.gaps[-1]


def limit_target(config: ModelConfig, kind: str) -> float:
    """Limiting R0 for one of the extreme-parameter regimes.

    small-diffusivity: largest nodal ratio of the period integrals of beta
    and gamma. large-diffusivity: ratio of the space-time averages.
    small-length: ratio of the period integrals at the fixed origin.
    large-length: ratio of the far-field coefficient limits. Period
    integrals use the trapezoid rule on 512 panels.

    Raises:
        NotApplicableError: large-length with coefficients that have no
            finite far-field limit.
    """
    if kind not in LIMIT_KINDS:
        raise ValueError(_ERR_KIND.format(kind=kind, known=LIMIT_KINDS))
    if kind == "large-length":
        tails = {}
        for name in ("beta", "gamma"):
            profile = getattr(config, name)
            tail = profile.z_limit()
            if tail is None:
                raise NotApplicableError(_ERR_NO_TAIL_LIMIT.format(name=name, form=profile.form))
            tails[name] = tail
        return tails["beta"] / tails["gamma"]
    nodes = config.grid.nodes
    times = np.linspace(0.0, config.T, 513)
    beta = coefficient_table(config.beta, config.rho, nodes, times)
    gamma = coefficient_table(config.gamma, config.rho, nodes, times)
    dt = times[1] - times[0]
    if kind == "small-diffusivity":
        ratios = np.trapezoid(beta, dx=dt, axis=0) / np.trapezoid(gamma, dx=dt, axis=0)
        return float(np.max(ratios))
    if kind == "large-diffusivity":
        # materialized: a matrix product over a broadcast view can round differently
        beta, gamma = np.ascontiguousarray(beta), np.ascontiguousarray(gamma)
        w = trapezoid_weights(config.grid)
        return float(np.trapezoid(beta @ w, dx=dt) / np.trapezoid(gamma @ w, dx=dt))
    return float(np.trapezoid(beta[:, 0], dx=dt) / np.trapezoid(gamma[:, 0], dx=dt))


def verify_limit(config: ModelConfig, kind: str, values: tuple[float, ...]) -> LimitReport:
    """Computes R0 along the sequence and measures the gap to the target.

    values must run from moderate to extreme (decreasing for the small-*
    kinds, increasing for the large-* kinds). The report is flagged when
    the most extreme gap exceeds five percent.

    Raises:
        ConfigurationError: fewer than two values, values not running
            toward the limit, or a swept config fails validation.
    """
    if kind not in LIMIT_KINDS:
        raise ValueError(_ERR_KIND.format(kind=kind, known=LIMIT_KINDS))
    array = np.asarray(values, dtype=float)
    toward_zero = kind.startswith("small")
    diffs = np.diff(array)
    ordered = np.all(diffs < 0.0) if toward_zero else np.all(diffs > 0.0)
    if array.size < 2 or not ordered:
        raise ConfigurationError([_ERR_ORDERING.format(kind=kind, values=list(values))])
    param = "d_I" if kind.endswith("diffusivity") else "L"
    swept = [validate_config(replace(config, **{param: float(value)})) for value in array]
    target = limit_target(config, kind)
    r0s = [compute_r0(swept_config).value for swept_config in swept]
    gaps = tuple(abs(r0 - target) / abs(target) for r0 in r0s)
    monotone = bool(np.all(np.diff(np.asarray(gaps)) <= STRICT_SLACK))
    return LimitReport(kind=kind, values=tuple(float(v) for v in array), r0_values=tuple(r0s),
                       target=target, gaps=gaps, flagged=gaps[-1] > LIMIT_GAP_BUDGET,
                       gaps_monotone=monotone)


# ---- threshold dynamics ----

@dataclass(frozen=True, slots=True)
class StabilityVerdict:
    """Long-run classification of the infected density against R0.

    classification is 'extinction', 'persistence', 'inconclusive', or
    'near-threshold' (R0 within the band around one where the finite
    horizon cannot discriminate; no simulation is run there). flagged is
    set when a conclusive classification contradicts the sign of R0 - 1.
    stop_reason is the simulation's ('horizon' or 'extinct'), or 'not-run'
    near the threshold.
    """

    r0: float
    classification: str
    sup_I_final: float
    persistence_floor: float
    periods_run: int
    first_extinct_period: int | None
    flagged: bool
    stop_reason: str


def classify_stability(config: ModelConfig, horizon_periods: int = DEFAULT_HORIZON,
                       r0: float | None = None) -> StabilityVerdict:
    """Simulates to the horizon and classifies extinction or persistence.

    Extinction: infected sup norm below 1e-4 at the end of the run (the
    run may stop early once the field is far below that level, since the
    decay only continues). Persistence: the smallest of the last five
    period-end sup norms stays above 1e-3. Anything else is inconclusive.

    Raises:
        ConfigurationError: horizon_periods is below one and R0 is outside
            the near-threshold band.
    """
    if r0 is None:
        r0 = compute_r0(config).value
    if abs(r0 - 1.0) < NEAR_THRESHOLD_BAND:
        return StabilityVerdict(r0=r0, classification="near-threshold",
                                sup_I_final=float("nan"), persistence_floor=float("nan"),
                                periods_run=0, first_extinct_period=None, flagged=False,
                                stop_reason="not-run")
    summary = simulate(config, horizon_periods, stop_below=DEEP_EXTINCTION)
    sups = [record.sup_I for record in summary.records]
    final_sup = sups[-1]
    floor = float(min(sups[-5:]))
    first_extinct = next((record.index for record in summary.records
                          if record.sup_I < EXTINCTION_SUP), None)
    if final_sup < EXTINCTION_SUP:
        classification = "extinction"
    elif floor > PERSISTENCE_FLOOR:
        classification = "persistence"
    else:
        classification = "inconclusive"
    expected = "extinction" if r0 < 1.0 else "persistence"
    flagged = classification in ("extinction", "persistence") and classification != expected
    return StabilityVerdict(r0=r0, classification=classification, sup_I_final=final_sup,
                            persistence_floor=floor, periods_run=len(sups),
                            first_extinct_period=first_extinct, flagged=flagged,
                            stop_reason=summary.stop_reason)
