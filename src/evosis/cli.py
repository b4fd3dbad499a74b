"""Command-line interface.

Every run can echo a manifest (JSON) plus CSV artifacts into --out that are
byte-identical across repeated runs: '\\n' line endings, '.' decimal
separator, shortest round-trip float formatting (Python's `repr`), and no
timestamps. The space-time tables (`eigenfunction.csv`, `dfe_orbit.csv`,
`timeseries.csv`) are written by the compiled loop
(`steploop.space_time_csv`), byte for byte as `repr` would write them;
the other tables are rows of cells formatted here, so `bounds` and
`reproduce` need no compiler. Plots are never rendered here; commands
that produce plottable data also emit a small matplotlib script next to
the CSV.

Exit codes: 0 success, 1 configuration error, 2 solver non-convergence,
3 strict-mode check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .analysis import LIMIT_KINDS, SWEEP_PARAMS, sweep_diffusivity, sweep_length, verify_limit
from .dfe import solve_dfe
from .engine import simulate
from .errors import ConfigurationError, ConvergenceError, KernelBuildError, NotApplicableError, StepError
from .model import EvolutionRate, ModelConfig, config_from_dict, config_to_dict, validate_config
from .presets import load_preset, preset_names, preset_text
from .quadrature import mean_inverse_rho_squared
from .spectral import DEFECT_TOL, LAMBDA_STAR_CONVENTIONS, closed_form_r0, compute_r0, r0_bounds

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_STRICT = 3

REPRODUCE_TOL = 1e-3

# Published reference values reproduced by `evosis reproduce`.
R0_REFERENCE = (
    ("example1-fixed", 0.8808),
    ("example1-evolving", 1.5749),
    ("example2-fixed", 1.1692),
    ("example2-evolving", 0.8470),
    ("example3-a", 1.5749),
    ("example3-b", 0.6355),
)
MEAN_RHO_REFERENCE = (
    (0.35, 4.0, 1.5707963267948966, 0.5593),
    (-0.15, 4.0, 1.5707963267948966, 1.3804),
)
BOUNDS_REFERENCE = (
    ("example4-a", "lower", 1.0679, 3.3857),
    ("example4-b", "upper", 1.0681, 0.9739),
)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the config-error code."""

    def error(self, message: str) -> Any:
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# ---- shared helpers ----

@dataclass(frozen=True, slots=True)
class Report:
    """One subcommand's stdout lines, its artifacts by file name (a dict for `.json`,
    a (header, rows) or (header, body) pair for `.csv`, text for a plot script) and
    the message of a failed soft check, or None."""

    lines: list[str]
    artifacts: dict[str, Any]
    strict_failure: str | None = None


def _write_artifact(path: Path, content: Any) -> None:
    """Writes one artifact, choosing the format by the file suffix.

    A CSV artifact is its header and either rows of cells, floats in
    shortest round-trip form (`repr`), or a compiled body, the bytes of its
    lines (`_space_time`), written after the header as they are.
    """
    if path.suffix == ".json":
        text = json.dumps(content, indent=2, sort_keys=True) + "\n"
    elif path.suffix == ".csv":
        header, rows = content
        text = ",".join(header) + "\n"
        if isinstance(rows, memoryview):
            with path.open("wb") as handle:
                handle.write(text.encode("utf-8"))
                handle.write(rows)
            return
        text += "".join(",".join(repr(cell) if isinstance(cell, float) else str(cell) for cell in row) + "\n"
                        for row in rows)
    else:
        text = content
    path.write_text(text, encoding="utf-8", newline="\n")


def _manifest(args: argparse.Namespace, config: ModelConfig | None) -> dict[str, Any]:
    options = {key: str(value) if isinstance(value, Path) else value
               for key, value in vars(args).items() if key not in ("command", "handler", "out")}
    return {
        "version": __version__,
        "command": args.command,
        "options": options,
        "config": config_to_dict(config) if config is not None else None,
    }


def _load_config(args: argparse.Namespace) -> ModelConfig:
    if args.preset is not None:
        doc = json.loads(preset_text(args.preset))
    else:
        doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if isinstance(doc, dict):  # config_from_dict reports a document of any other type
        if args.grid is not None:
            doc["grid_points"] = args.grid
        if args.steps is not None:
            doc["steps_per_period"] = args.steps
    return validate_config(config_from_dict(doc))


def _parse_values(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(token) for token in text.replace(",", " ").split())
    except ValueError:
        raise ConfigurationError([f"values: could not parse {text!r} as numbers"])
    if not values:
        raise ConfigurationError(["values: at least one value is required"])
    return values


def _space_time(times: Any, nodes: Any, *tables: Any) -> memoryview:
    """The compiled body of a space-time CSV table, lines t,y,values... on about 64 evenly strided
    time slices (`steploop.space_time_csv`). The compiled loop is imported here, not with the CLI."""
    from .steploop import space_time_csv

    return space_time_csv(times, nodes, *tables)


_PLOT_TIMESERIES = '''"""Plot the infected density from timeseries.csv (run manually)."""
import csv
from collections import defaultdict

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

by_time = defaultdict(list)
with open("timeseries.csv") as handle:
    for row in csv.DictReader(handle):
        by_time[float(row["t"])].append((float(row["y"]), float(row["I"])))

fig, ax = plt.subplots(figsize=(7, 4))
for t, pairs in sorted(by_time.items()):
    pairs.sort()
    ax.plot([p[0] for p in pairs], [p[1] for p in pairs], lw=0.8)
ax.set_xlabel("y")
ax.set_ylabel("I(y, t)")
fig.tight_layout()
fig.savefig("timeseries.png", dpi=150)
'''

_PLOT_PERIODS = '''"""Plot per-period infected norms from periods.csv (run manually)."""
import csv

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

rows = list(csv.DictReader(open("periods.csv")))
m = [int(r["period"]) for r in rows]
fig, ax = plt.subplots(figsize=(7, 4))
ax.semilogy(m, [float(r["sup_I"]) for r in rows], marker="o", label="sup I")
ax.semilogy(m, [float(r["l1_I"]) for r in rows], marker="s", label="L1 I")
ax.set_xlabel("period")
ax.legend()
fig.tight_layout()
fig.savefig("periods.png", dpi=150)
'''

_PLOT_SWEEP = '''"""Plot R0 against the swept parameter from sweep.csv (run manually)."""
import csv

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

rows = list(csv.DictReader(open("sweep.csv")))
x = [float(r["value"]) for r in rows]
y = [float(r["r0"]) for r in rows]
fig, ax = plt.subplots(figsize=(6, 4))
ax.plot(x, y, marker="o")
ax.axhline(1.0, color="gray", lw=0.8, ls="--")
ax.set_xscale("log")
ax.set_xlabel(rows[0]["param"] if rows else "value")
ax.set_ylabel("R0")
fig.tight_layout()
fig.savefig("sweep.png", dpi=150)
'''

_PLOT_LIMITS = '''"""Plot the limit approach from limits.csv (run manually)."""
import csv

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

rows = list(csv.DictReader(open("limits.csv")))
x = [float(r["value"]) for r in rows]
gap = [float(r["gap"]) for r in rows]
fig, ax = plt.subplots(figsize=(6, 4))
ax.loglog(x, gap, marker="o")
ax.set_xlabel("parameter value")
ax.set_ylabel("relative gap to target")
fig.tight_layout()
fig.savefig("limits.png", dpi=150)
'''

_PLOT_ORBIT = '''"""Plot the disease-free orbit from dfe_orbit.csv (run manually)."""
import csv
from collections import defaultdict

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

by_node = defaultdict(list)
with open("dfe_orbit.csv") as handle:
    for row in csv.DictReader(handle):
        by_node[float(row["y"])].append((float(row["t"]), float(row["S"])))

fig, ax = plt.subplots(figsize=(7, 4))
for y, pairs in sorted(by_node.items()):
    pairs.sort()
    ax.plot([p[0] for p in pairs], [p[1] for p in pairs], lw=0.8)
ax.set_xlabel("t")
ax.set_ylabel("S*(y, t)")
fig.tight_layout()
fig.savefig("dfe_orbit.png", dpi=150)
'''


# ---- subcommands ----

def cmd_r0(args: argparse.Namespace, config: ModelConfig) -> Report:
    result = compute_r0(config)
    phi = result.eigenfunction
    slack = 1e-6 * max(1.0, result.value)
    inside = result.bracket[0] - slack <= result.value <= result.bracket[1] + slack
    artifacts: dict[str, Any] = {"r0.json": {"r0": result.value, "bracket": list(result.bracket),
                                             "iterations": result.iterations, "defect": result.defect}}
    if args.out is not None:
        artifacts["eigenfunction.csv"] = (("t", "y", "phi"), _space_time(
            np.linspace(0.0, config.T, phi.shape[0]), config.grid.nodes, phi))
    return Report(
        lines=[f"R0 = {result.value:.6f}",
               f"sandwich bracket = [{result.bracket[0]:.6f}, {result.bracket[1]:.6f}]",
               f"unit-radius defect = {result.defect:.3e} after {result.iterations} iterations"],
        artifacts=artifacts,
        strict_failure=("defect or bracket containment check failed"
                        if result.defect > DEFECT_TOL or not inside else None),
    )


def cmd_bounds(args: argparse.Namespace, config: ModelConfig) -> Report:
    bounds = r0_bounds(config)
    return Report(
        lines=[f"lower bound = {bounds.lower:.6f} (min-beta integral {bounds.min_beta_integral:.6f} "
               f"/ max-gamma integral {bounds.max_gamma_integral:.6f})",
               f"upper bound = {bounds.upper:.6f} (max-beta integral {bounds.max_beta_integral:.6f} "
               f"/ min-gamma integral {bounds.min_gamma_integral:.6f})"],
        artifacts={"bounds.json": asdict(bounds)},
        strict_failure=None if 0.0 < bounds.lower <= bounds.upper else "bound ordering check failed",
    )


def cmd_dfe(args: argparse.Namespace, config: ModelConfig) -> Report:
    result = solve_dfe(config)
    orbit = result.orbit
    artifacts: dict[str, Any] = {"dfe.json": {"iterations": result.iterations, "residual": result.residual,
                                              "bracket_gap": result.bracket_gap,
                                              "closure_defect": orbit.closure_defect}}
    if args.out is not None:
        artifacts["dfe_orbit.csv"] = (("t", "y", "S"), _space_time(orbit.times, config.grid.nodes, orbit.values))
        artifacts["plot_dfe_orbit.py"] = _PLOT_ORBIT
    return Report(
        lines=[f"disease-free orbit converged in {result.iterations} sweeps",
               f"residual = {result.residual:.3e}, two-sided gap = {result.bracket_gap:.3e}, "
               f"closure defect = {orbit.closure_defect:.3e}"],
        artifacts=artifacts,
        strict_failure="orbit closure check failed" if orbit.closure_defect > 1e-8 else None,
    )


def cmd_simulate(args: argparse.Namespace, config: ModelConfig) -> Report:
    periods = args.periods if args.periods is not None else 10
    summary = simulate(config, periods, record_last_period=args.out is not None)
    final = summary.records[-1]
    artifacts: dict[str, Any] = {
        "periods.csv": (("period", "sup_I", "l1_I", "s_closure_defect"),
                        ((r.index, r.sup_I, r.l1_I, r.s_closure_defect) for r in summary.records)),
        "plot_periods.py": _PLOT_PERIODS,
    }
    if summary.last_period is not None:
        times, s_path, i_path = summary.last_period
        artifacts["timeseries.csv"] = (("t", "y", "S", "I"),
                                       _space_time(times, config.grid.nodes, s_path, i_path))
        artifacts["plot_timeseries.py"] = _PLOT_TIMESERIES
    return Report(
        lines=[f"ran {len(summary.records)} periods; sup I = {final.sup_I:.6e}, "
               f"L1 I = {final.l1_I:.6e}, S closure defect = {final.s_closure_defect:.3e}",
               f"negativity clamps = {summary.clamp_count}"],
        artifacts=artifacts,
        strict_failure="positivity clamps occurred" if summary.clamp_count > 0 else None,
    )


def cmd_sweep(args: argparse.Namespace, config: ModelConfig) -> Report:
    values = _parse_values(args.values)
    if args.param == "d_I":
        table = sweep_diffusivity(config, values)
    else:
        table = sweep_length(config, values)
    pairs = list(zip(table.values, table.r0_values))
    return Report(
        lines=[*(f"{table.param} = {value:<12g} R0 = {r0:.8f}" for value, r0 in pairs),
               f"verdict: {table.verdict}"
               + (f" at indices {list(table.violation_indices)}" if table.violation_indices else "")],
        artifacts={
            "sweep.csv": (("param", "value", "r0"), [(table.param, v, r) for v, r in pairs]),
            "sweep.json": asdict(table),
            "plot_sweep.py": _PLOT_SWEEP,
        },
        strict_failure=None if table.verdict.startswith("strictly") else "sweep is not strictly monotone",
    )


def cmd_limits(args: argparse.Namespace, config: ModelConfig) -> Report:
    report = verify_limit(config, args.kind, _parse_values(args.values))
    rows = list(zip(report.values, report.r0_values, report.gaps))
    return Report(
        lines=[f"target ({report.kind}) = {report.target:.8f}",
               *(f"value = {value:<12g} R0 = {r0:.8f}  gap = {gap:.3e}" for value, r0, gap in rows),
               f"final gap = {report.final_gap:.3e}"
               + (" [FLAGGED > 5%]" if report.flagged else "")
               + ("" if report.gaps_monotone else " [gaps not monotone]")],
        artifacts={
            "limits.csv": (("value", "r0", "gap"), rows),
            "limits.json": asdict(report),
            "plot_limits.py": _PLOT_LIMITS,
        },
        strict_failure=("limit gap checks failed" if report.flagged or not report.gaps_monotone
                        else None),
    )


def cmd_reproduce(args: argparse.Namespace, config: None) -> Report:
    rows: list[tuple[str, float, float]] = []
    for name, reference in R0_REFERENCE:
        value = closed_form_r0(load_preset(name), convention=args.lambda_star_convention)
        rows.append((f"closed-form R0 [{name}]", reference, value))
    for amplitude, frequency, period, reference in MEAN_RHO_REFERENCE:
        rate = EvolutionRate(kind="exp-cosine", period=period,
                             amplitude=amplitude, frequency=frequency)
        rows.append((f"mean of rho^-2 [amplitude {amplitude:+.2f}]", reference,
                     mean_inverse_rho_squared(rate)))
    for name, side, ref_num, ref_den in BOUNDS_REFERENCE:
        bounds = r0_bounds(load_preset(name))
        if side == "lower":
            num, den, ratio = bounds.min_beta_integral, bounds.max_gamma_integral, bounds.lower
        else:
            num, den, ratio = bounds.max_beta_integral, bounds.min_gamma_integral, bounds.upper
        rows.append((f"{side}-bound numerator [{name}]", ref_num, num))
        rows.append((f"{side}-bound denominator [{name}]", ref_den, den))
        rows.append((f"{side} bound [{name}]", ref_num / ref_den, ratio))

    diffs = [abs(computed - reference) for _, reference, computed in rows]
    passed = sum(diff <= REPRODUCE_TOL for diff in diffs)
    lines = [f"{'quantity':<44} {'reference':>12} {'computed':>14} {'|diff|':>10}  status"]
    lines.extend(f"{label:<44} {reference:>12.4f} {computed:>14.6f} {diff:>10.2e}  "
                 + ("pass" if diff <= REPRODUCE_TOL else "FAIL")
                 for (label, reference, computed), diff in zip(rows, diffs))
    summary = f"{passed}/{len(rows)} rows within {REPRODUCE_TOL:g}"
    lines.append(summary)
    return Report(
        lines=lines,
        artifacts={"reproduction.csv": (("quantity", "reference", "computed", "abs_diff"),
                                        [(label, ref, comp, abs(comp - ref)) for label, ref, comp in rows])},
        strict_failure=None if passed == len(rows) else summary,
    )


def _run(args: argparse.Namespace) -> int:
    """Loads the config, prepares --out, runs the handler, writes its artifacts, maps --strict."""
    config = _load_config(args) if "preset" in vars(args) else None
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    report = args.handler(args, config)
    for line in report.lines:
        print(line)
    if args.out is not None:
        for name, content in {"manifest.json": _manifest(args, config), **report.artifacts}.items():
            _write_artifact(args.out / name, content)
    if args.strict and report.strict_failure is not None:
        print(f"strict: {report.strict_failure}", file=sys.stderr)
        return EXIT_STRICT
    return EXIT_OK


# ---- parser ----

_OPTIONS: dict[str, dict[str, Any]] = {
    "--preset": dict(choices=preset_names(), help="bundled configuration name"),
    "--config": dict(type=Path, help="path to a JSON configuration file"),
    "--grid": dict(type=int, metavar="N", help="override spatial intervals"),
    "--steps": dict(type=int, metavar="M", help="override steps per period"),
    "--periods": dict(type=int, metavar="P", help="periods to simulate"),
    "--param": dict(choices=SWEEP_PARAMS, required=True, help="which parameter to sweep"),
    "--kind": dict(choices=LIMIT_KINDS, required=True, help="which extreme-parameter regime"),
    "--values": dict(required=True, help="comma-separated values, strictly increasing for "
                                         "sweep and running toward the limit for limits"),
    "--lambda-star-convention": dict(choices=LAMBDA_STAR_CONVENTIONS, default="paper-example",
                                     help="endpoint convention of the closed-form eigenvalue"),
    "--out": dict(type=Path, help="directory for manifest/CSV/plot-script artifacts"),
    "--strict": dict(action="store_true", help="turn soft checks into exit code 3"),
}
# Exactly one source is required; --grid and --steps override the document it names.
_SOURCE = ("--preset", "--config")
_CONFIG = (*_SOURCE, "--grid", "--steps")
_RUN = ("--out", "--strict")


def build_parser() -> _Parser:
    parser = _Parser(prog="evosis",
                     description="epidemic thresholds on periodically evolving habitats")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    specs = (
        ("r0", cmd_r0, _CONFIG, "reproduction number of the periodic linearization"),
        ("simulate", cmd_simulate, (*_CONFIG, "--periods"), "run the coupled system for whole periods"),
        ("dfe", cmd_dfe, _CONFIG, "disease-free periodic orbit"),
        ("sweep", cmd_sweep, (*_CONFIG, "--param", "--values"), "R0 across a parameter sequence"),
        ("limits", cmd_limits, (*_CONFIG, "--kind", "--values"),
         "R0 approach to an extreme-parameter target"),
        ("bounds", cmd_bounds, _CONFIG, "sandwich bounds from coefficient extremes"),
        ("reproduce", cmd_reproduce, ("--lambda-star-convention",),
         "recompute the published headline numbers"),
    )
    for name, handler, options, help_text in specs:
        sub = commands.add_parser(name, help=help_text)
        source = sub.add_mutually_exclusive_group(required=True) if "--preset" in options else sub
        for flag in (*options, *_RUN):
            (source if flag in _SOURCE else sub).add_argument(flag, **_OPTIONS[flag])
        sub.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return _run(args)
    except ConfigurationError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except (NotApplicableError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, StepError, KernelBuildError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
