"""Spans around the public functions of each evosis layer, and the per-layer metrics.

The tracer patches module attributes and class methods where the program looks
them up (for example `compute_r0` both in `evosis.cli` and in
`evosis.analysis`, which hold their own imported references), so no source
file of the program changes. Hot spans (coupled step, reaction, period-map
apply) are aggregated per job as count, total and child time; every other
span is kept, with its parent and job id, in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

CLI = "cli.main"
LOAD = "model.load"
EVAL = "model.evaluate_coefficient"
R0 = "spectral.compute_r0"
BOUNDS = "spectral.r0_bounds"
CLOSED = "spectral.closed_form"
SMALLEST = "tridiag.smallest_eigenvalue"
INTEGRAL = "quadrature.periodic_integral"
SWEEP = "analysis.sweep"
SIM = "engine.simulate"
DFE = "dfe.solve"
BUILD = "engine.period_map.build"
APPLY = "engine.period_map.apply"
DENSE = "engine.period_map.dense"
DENSE_APPLY = "engine.period_map.dense_apply"
STEPPER = "engine.stepper.build"
STEP = "engine.coupled_step"
REACTION = "engine.reaction"

HOT = (APPLY, DENSE_APPLY, STEP, REACTION)

_EVAL_MODULES = ("model", "engine", "spectral", "analysis", "dfe")

FUNCTION_TARGETS = (
    ("cli", "main", CLI),
    ("cli", "config_from_dict", LOAD),
    ("cli", "validate_config", LOAD),
    ("cli", "load_preset", LOAD),
    ("cli", "compute_r0", R0),
    ("analysis", "compute_r0", R0),
    ("cli", "r0_bounds", BOUNDS),
    ("spectral", "r0_bounds", BOUNDS),
    ("cli", "closed_form_r0", CLOSED),
    ("spectral", "smallest_eigenvalue", SMALLEST),
    ("spectral", "periodic_integral", INTEGRAL),
    ("quadrature", "periodic_integral", INTEGRAL),
    ("cli", "sweep_diffusivity", SWEEP),
    ("cli", "sweep_length", SWEEP),
    ("cli", "simulate", SIM),
    ("analysis", "simulate", SIM),
    ("cli", "solve_dfe", DFE),
) + tuple((module, "evaluate_coefficient", EVAL) for module in _EVAL_MODULES)

METHOD_TARGETS = (
    ("engine", "PeriodMapOperator", "__init__", BUILD),
    ("engine", "PeriodMapOperator", "apply", APPLY),
    ("engine", "PeriodMapOperator", "apply_recording", APPLY),
    ("engine", "PeriodMapOperator", "dense_matrix", DENSE),
    ("engine", "CoupledStepper", "__init__", STEPPER),
    ("engine", "CoupledStepper", "step", STEP),
    ("engine", "CoupledStepper", "reaction", REACTION),
)


@dataclass(frozen=True, slots=True)
class Span:
    job: int
    name: str
    parent: str | None
    seconds: float
    child_seconds: float


class Tracer:
    """Collects spans and counts while installed; `job` names the running job."""

    def __init__(self) -> None:
        self.job = -1
        self.spans: list[Span] = []
        self.hot: dict[tuple[int, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list[Any]] = []
        self._single_applies: dict[int, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # ---- installation ----

    def install(self) -> None:
        observers: dict[str, Callable[..., None]] = {
            BUILD: self._on_build, APPLY: self._on_apply, DENSE: self._on_dense,
            STEPPER: self._on_stepper, R0: self._on_r0, DFE: self._on_dfe,
        }
        for module_name, attr, name in FUNCTION_TARGETS:
            self._patch(importlib.import_module(f"evosis.{module_name}"), attr, name, observers.get(name))
        for module_name, cls_name, attr, name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(f"evosis.{module_name}"), cls_name, None)
            self._patch(cls, attr, name, observers.get(name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, name: str, observe: Callable[..., None] | None) -> None:
        original = getattr(owner, "__dict__", {}).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, observe))

    def _wrap(self, fn: Callable[..., Any], name: str, observe: Callable[..., None] | None) -> Callable[..., Any]:
        stack = self._stack
        hot = name in HOT

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1] if stack else None
            span_name = DENSE_APPLY if name == APPLY and parent is not None and parent[0] == DENSE else name
            frame = [span_name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
            if hot:
                entry = self.hot[(self.job, span_name)]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[1]
            else:
                self.spans.append(Span(self.job, span_name, parent[0] if parent else None, elapsed, frame[1]))
            if observe is not None and span_name != DENSE_APPLY:
                observe(args, result)
            return result

        return wrapper

    # ---- counts read from arguments and results ----

    def _count(self, key: str, value: float) -> None:
        self.counts[(self.job, key)] += value

    def _on_build(self, args: tuple[Any, ...], _: Any) -> None:
        op = args[0]
        self._single_applies[id(op)] = 0
        self._count("factorizations", op.n_steps)

    def _on_apply(self, args: tuple[Any, ...], _: Any) -> None:
        op, u = args[0], args[1]
        columns = 1 if getattr(u, "ndim", 1) == 1 else int(u.shape[1])
        self._count("columns", columns)
        if columns == 1:
            self._single_applies[id(op)] = self._single_applies.get(id(op), 0) + 1

    def _on_dense(self, args: tuple[Any, ...], _: Any) -> None:
        self._count("wasted_applies", self._single_applies.pop(id(args[0]), 0))

    def _on_stepper(self, args: tuple[Any, ...], _: Any) -> None:
        self._count("factorizations", 4 * args[0].n_steps)

    def _on_r0(self, _: tuple[Any, ...], result: Any) -> None:
        self._count("root_iterations", result.iterations)

    def _on_dfe(self, _: tuple[Any, ...], result: Any) -> None:
        self._count("dfe_sweeps", result.iterations)


# ---- per-layer metrics ----

# Unit of each per-layer metric, in report order. README.md says what each one
# measures; counts and times are per round (one pass over the job list)
# unless the name says per call or per R0.
PER_LAYER_UNITS = {
    "spectral.applies_per_r0": "count",
    "spectral.radius_evals_per_r0": "count",
    "spectral.root_iterations": "count",
    "spectral.dense_fallbacks": "count",
    "spectral.wasted_applies": "count",
    "spectral.compute_r0.self_ms": "ms",
    "spectral.r0_bounds.ms": "ms",
    "spectral.closed_form.ms": "ms",
    "engine.period_map.builds": "count",
    "engine.period_map.build_ms": "ms",
    "engine.period_map.applies": "count",
    "engine.period_map.columns": "count",
    "engine.period_map.apply_ms": "ms",
    "engine.period_map.dense_ms": "ms",
    "engine.factorizations": "count",
    "engine.coupled_step.calls": "count",
    "engine.coupled_step.self_us": "us",
    "engine.reaction.calls": "count",
    "engine.reaction.us": "us",
    "engine.stepper.builds": "count",
    "engine.stepper.build_ms": "ms",
    "engine.simulate.periods": "count",
    "engine.simulate.useful_period_frac": "ratio",
    "engine.simulate.self_ms": "ms",
    "dfe.solve.calls": "count",
    "dfe.solve.self_ms": "ms",
    "dfe.sweeps": "count",
    "dfe.steps_per_solve": "count",
    "analysis.sweep.self_ms": "ms",
    "cli.self_ms": "ms",
    "model.load_ms": "ms",
    "model.evaluate_coefficient.calls": "count",
    "model.evaluate_coefficient.ms": "ms",
    "tridiag.smallest_eigenvalue.ms": "ms",
    "quadrature.periodic_integral.ms": "ms",
    "trace.overhead_frac": "ratio",
    "host.probe_ms": "ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, facts: list[dict[str, Any]], overhead: float,
                  probe_s: float) -> dict[str, float]:
    """Per-layer values from the spans of `rounds` complete traced rounds.

    The times are as measured, not rescaled; `host.probe_ms`, the median host
    speed probe of the run, lets a reader compare them across runs.
    """
    count: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    child: dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        count[span.name] += 1
        total[span.name] += span.seconds
        child[span.name] += span.child_seconds
    for (_, name), (n, seconds, child_seconds) in tracer.hot.items():
        count[name] += n
        total[name] += seconds
        child[name] += child_seconds
    counts: dict[str, float] = defaultdict(float)
    for (_, key), value in tracer.counts.items():
        counts[key] += value
    dfe_jobs = {span.job for span in tracer.spans if span.name == DFE}
    dfe_steps = sum(n for (job, name), (n, _, _) in tracer.hot.items() if name == STEP and job in dfe_jobs)
    simulated = [f for f in facts if "useful" in f]
    periods = sum(f["periods"] for f in simulated)

    def per_round(value: float) -> float:
        return value / rounds

    def ms(name: str) -> float:
        return per_round(total[name]) * 1e3

    def self_ms(name: str) -> float:
        return per_round(total[name] - child[name]) * 1e3

    n_r0 = count[R0]
    return {
        "spectral.applies_per_r0": _ratio(count[APPLY], n_r0),
        "spectral.radius_evals_per_r0": _ratio(count[BUILD], n_r0),
        "spectral.root_iterations": _ratio(counts["root_iterations"], n_r0),
        "spectral.dense_fallbacks": per_round(count[DENSE]),
        "spectral.wasted_applies": per_round(counts["wasted_applies"]),
        "spectral.compute_r0.self_ms": self_ms(R0),
        "spectral.r0_bounds.ms": ms(BOUNDS),
        "spectral.closed_form.ms": ms(CLOSED),
        "engine.period_map.builds": per_round(count[BUILD]),
        "engine.period_map.build_ms": ms(BUILD),
        "engine.period_map.applies": per_round(count[APPLY]),
        "engine.period_map.columns": per_round(counts["columns"]),
        "engine.period_map.apply_ms": ms(APPLY),
        "engine.period_map.dense_ms": ms(DENSE),
        "engine.factorizations": per_round(counts["factorizations"]),
        "engine.coupled_step.calls": per_round(count[STEP]),
        "engine.coupled_step.self_us": _ratio(total[STEP] - child[STEP], count[STEP]) * 1e6,
        "engine.reaction.calls": per_round(count[REACTION]),
        "engine.reaction.us": _ratio(total[REACTION], count[REACTION]) * 1e6,
        "engine.stepper.builds": per_round(count[STEPPER]),
        "engine.stepper.build_ms": ms(STEPPER),
        "engine.simulate.periods": per_round(periods),
        "engine.simulate.useful_period_frac": _ratio(sum(f["useful"] for f in simulated), periods),
        "engine.simulate.self_ms": self_ms(SIM),
        "dfe.solve.calls": per_round(count[DFE]),
        "dfe.solve.self_ms": self_ms(DFE),
        "dfe.sweeps": per_round(counts["dfe_sweeps"]),
        "dfe.steps_per_solve": _ratio(dfe_steps, count[DFE]),
        "analysis.sweep.self_ms": self_ms(SWEEP),
        "cli.self_ms": self_ms(CLI),
        "model.load_ms": ms(LOAD),
        "model.evaluate_coefficient.calls": per_round(count[EVAL]),
        "model.evaluate_coefficient.ms": ms(EVAL),
        "tridiag.smallest_eigenvalue.ms": ms(SMALLEST),
        "quadrature.periodic_integral.ms": ms(INTEGRAL),
        "trace.overhead_frac": overhead,
        "host.probe_ms": probe_s * 1e3,
    }


def job_table(tracer: Tracer, n_jobs: int) -> dict[int, dict[str, float]]:
    """Per job slot, over the traced rounds: steps, applies and compute_r0 calls with mean inclusive times."""
    sums: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (job, name), (n, seconds, _) in tracer.hot.items():
        if name in (STEP, APPLY):
            sums[job % n_jobs][name] += n
            sums[job % n_jobs][name + ".s"] += seconds
    for span in tracer.spans:
        if span.name == R0:
            sums[span.job % n_jobs][R0] += 1
            sums[span.job % n_jobs][R0 + ".s"] += span.seconds
    return {slot: {"steps": row[STEP], "step_us": _ratio(row[STEP + ".s"], row[STEP]) * 1e6,
                   "applies": row[APPLY], "apply_ms": _ratio(row[APPLY + ".s"], row[APPLY]) * 1e3,
                   "r0_calls": row[R0], "r0_s": _ratio(row[R0 + ".s"], row[R0])}
            for slot, row in sums.items()}


def matrix_check(workload: str, metrics: dict[str, float], facts: list[dict[str, Any]]) -> tuple[list[str], list[str]]:
    """Workload-and-layer self-check: (failures, notes).

    Failures are layer conditions any engine keeps: r0-spectral never steps
    the coupled system, long-run and dfe-orbit never apply the linear period
    map, and example1-evolving settles before its requested horizon while
    example4-b needs all of it. The dense fallback firing on r0-spectral is
    reported as a note only, since replacing that fallback is a planned change.
    """
    failures: list[str] = []
    notes: list[str] = []
    if workload == "r0-spectral":
        if metrics["engine.coupled_step.calls"] != 0:
            failures.append("r0-spectral stepped the coupled system")
        fallbacks = metrics["spectral.dense_fallbacks"]
        notes.append(f"spectral.dense_fallbacks = {fallbacks:g} on r0-spectral"
                     + (" (>= 1: the stall path is exercised)" if fallbacks >= 1 else " (stall path not exercised)"))
    else:
        if metrics["engine.period_map.applies"] != 0:
            failures.append(f"{workload} applied the linear period map")
    for fact in facts:
        if "useful" not in fact:
            continue
        if fact["preset"] == "example1-evolving" and not fact["useful"] < fact["requested"]:
            failures.append("example1-evolving did not settle before the requested horizon")
        if fact["preset"] == "example4-b" and fact["useful"] != fact["requested"]:
            failures.append("example4-b settled before the requested horizon")
    return failures, notes
