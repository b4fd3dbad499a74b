"""Cost of one step of each time-stepping engine, per preset, as one JSON line.

For each preset, at its own resolution or at `--grid N` / `--steps M`, it
times whole periods and divides by the M steps of each:

- `coupled_us`: one coupled IMEX step of the stacked [S; I] state, from the
  preset's initial data (`CoupledStepper.period`);
- `s_only_1_us`, `s_only_2_us`: one step of the S-only stepper
  (`infected=False`) on 1 and 2 rows, from the disease-free starts;
- `period_map_1_us`, `period_map_2_us`, `period_map_3_us`,
  `period_map_8_us`: one Crank-Nicolson step of the linearized-infection
  period map on 1, 2, 3 and 8 columns (`PeriodMapOperator.apply`, a
  compiled loop like the coupled stepper's), at mu = twice the upper
  sandwich bound of R0; 2 is the block width that the warm-started root
  search applies, and 3 a pair of columns solved side by side plus one
  solved alone;
- `period_map_path_us`: the same step on one column with a path table
  that records every time slice, the apply that ends every
  `compute_r0`;
- `radius_ms`, `radius_columns`: one cold radius evaluation
  (`spectral._operator_radius` from its cosine start block) at the
  sandwich mean mu = sqrt(lower*upper), the root search's first trial, and
  the number of period-map columns it propagates;

and times two factor set builds: the coupled stepper's predictor (both
blocks, `factor_set_ms`), and the period map's at the sandwich mean (one
block with its potential, `period_map_factor_ms`), which every trial mu
of the root search pays; and `csv_ms`, the write of one `timeseries.csv`
through the CLI's writer (`cli._write_artifact`), the S and I halves of
one recorded coupled period, (M+1)x(N+1) each, on about 64 time slices,
into a temporary directory. Each figure is the median of `--repeats` samples
after one untimed warm-up. BLAS is pinned to one thread and `evosis` is
imported from PYTHONPATH.

`--against PATH` also imports the `evosis` package under PATH (a tree's
`src` directory) as `evosis_against`, in the same process, and times its
figures interleaved with this tree's: in each round one sample of each,
the order alternating. Each preset then also reports that tree's figures
under "against", and under "faster_rounds" in how many of the rounds
this tree's sample was the faster, figure by figure. The speed of a
shared host can move between processes by more than a per-step change,
so two checkouts compare in one process with

    PYTHONPATH=src python tools/step_cost.py --grid 200 --steps 200 --against /path/to/old/src
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any, Callable  # noqa: E402

import numpy as np  # noqa: E402

# the module name of the tree that --against loads
AGAINST = "evosis_against"


def _load_tree(src: Path) -> str:
    """Imports the `evosis` package under `src` as AGAINST, beside this process's own, and returns that name."""
    init = src / "evosis" / "__init__.py"
    spec = importlib.util.spec_from_file_location(AGAINST, init, submodule_search_locations=[str(init.parent)])
    if spec is None or spec.loader is None:
        raise SystemExit(f"--against: no evosis package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[AGAINST] = module
    spec.loader.exec_module(module)
    return AGAINST


def _figures(package: str, preset: str, grid: int | None, steps: int | None, scratch: Path
             ) -> tuple[dict[str, tuple[Callable[[], Any], float]], dict[str, float]]:
    """One preset's timed runs on the tree imported as `package`, each with the factor that scales
    its seconds to the figure's unit, and its counts. The CSV write goes into `scratch`."""
    cli, dfe, engine, presets, spectral = (importlib.import_module(f"{package}.{name}")
                                           for name in ("cli", "dfe", "engine", "presets", "spectral"))
    config = presets.load_preset(preset).with_resolution(grid, steps)
    per_step_us = 1e6 / config.steps_per_period
    n = config.grid.N + 1
    runs: dict[str, tuple[Callable[[], Any], float]] = {}

    coupled = engine.CoupledStepper(config)
    u = np.concatenate((config.initial_S.evaluate(config.grid.nodes, config.L),
                        config.initial_I.evaluate(config.grid.nodes, config.L)))
    runs["coupled_us"] = (lambda: coupled.period(u), per_step_us)
    path = np.empty((config.steps_per_period + 1, 2 * n))
    coupled.period(u, path)
    # a tree from before the compiled CSV body wrote the lines of `_space_time_rows`
    body = getattr(cli, "_space_time", None) or cli._space_time_rows
    target = scratch / f"{package}-{preset}-timeseries.csv"
    recorded = (coupled.times, config.grid.nodes, path[:, :n], path[:, n:])
    runs["csv_ms"] = (lambda: cli._write_artifact(target, (("t", "y", "S", "I"), body(*recorded))), 1e3)

    s_only = engine.CoupledStepper(config, infected=False)
    levels = dfe._start_levels(config)
    for rows in (1, 2):
        fields = np.repeat(np.asarray(levels[:rows])[:, None], n, axis=1)
        state = fields[0] if rows == 1 else fields
        runs[f"s_only_{rows}_us"] = (lambda state=state: s_only.period(state), per_step_us)

    operator_at, bounds = spectral._phi_operators(config), spectral.r0_bounds(config)
    operator = operator_at(2.0 * bounds.upper)
    for columns in (1, 2, 3, 8):
        block = spectral._cosines(n, 0, columns) if columns > 1 else np.ones(n)
        runs[f"period_map_{columns}_us"] = (lambda block=block: operator.apply(block), per_step_us)
    field = np.ones(n)
    runs["period_map_path_us"] = (lambda: operator.apply(field, np.empty((operator.n_steps + 1, n))), per_step_us)

    at_mean = operator_at(math.sqrt(bounds.lower * bounds.upper))
    runs["radius_ms"] = (lambda: spectral._operator_radius(at_mean), 1e3)
    widths: list[int] = []

    class CountedMap:
        grid = at_mean.grid

        def apply(self, u: np.ndarray) -> np.ndarray:
            widths.append(u.shape[1])
            return at_mean.apply(u)

    spectral._operator_radius(CountedMap())

    inv_rho2 = np.asarray(config.rho.value(coupled.times), dtype=float) ** -2.0
    nus = (engine.endpoint_mean(config.d_S * inv_rho2), engine.endpoint_mean(config.d_I * inv_rho2))
    runs["factor_set_ms"] = (lambda: engine._FactorSet(config.grid, nus, None, coupled.dt), 1e3)
    runs["period_map_factor_ms"] = (lambda: operator_at(math.sqrt(bounds.lower * bounds.upper)), 1e3)
    counts = {"grid": config.grid_points, "steps": config.steps_per_period, "radius_columns": sum(widths)}
    return runs, counts


def _medians(trees: list[dict[str, tuple[Callable[[], Any], float]]], repeats: int
             ) -> tuple[list[dict[str, float]], dict[str, int]]:
    """Each tree's median per figure, its samples interleaved with the other tree's.

    Figure by figure, every run is warmed up once, untimed; then each of
    `repeats` rounds times one run per tree, the order alternating from
    round to round. Also returns, per figure, in how many rounds the first
    tree ran faster than the second.
    """
    medians: list[dict[str, float]] = [{} for _ in trees]
    faster: dict[str, int] = {}
    for name in trees[0]:
        for runs in trees:
            runs[name][0]()
        samples: list[list[float]] = [[] for _ in trees]
        for round_ in range(repeats):
            order = range(len(trees)) if round_ % 2 == 0 else reversed(range(len(trees)))
            for index in order:
                start = perf_counter()
                trees[index][name][0]()
                samples[index].append(perf_counter() - start)
        for index, runs in enumerate(trees):
            medians[index][name] = round(statistics.median(samples[index]) * runs[name][1], 3)
        if len(trees) == 2:
            faster[name] = sum(first < second for first, second in zip(*samples))
    return medians, faster


def main(argv: list[str] | None = None) -> None:
    from evosis.presets import preset_names

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", action="append", choices=preset_names(),
                        help="preset to measure (repeatable; default: every preset)")
    parser.add_argument("--grid", type=int, help="grid intervals N (default: the preset's)")
    parser.add_argument("--steps", type=int, help="steps per period M (default: the preset's)")
    parser.add_argument("--repeats", type=int, default=5, help="timed samples per figure")
    parser.add_argument("--against", type=Path, metavar="PATH",
                        help="directory holding another tree's evosis package, timed in the same process")
    args = parser.parse_args(argv)
    packages = ["evosis"] + ([_load_tree(args.against)] if args.against else [])
    results = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in args.preset or preset_names():
            figures = [_figures(package, name, args.grid, args.steps, Path(scratch)) for package in packages]
            medians, faster = _medians([runs for runs, _ in figures], args.repeats)
            results[name] = {**figures[0][1], **medians[0]}
            if args.against:
                results[name]["against"] = {**figures[1][1], **medians[1]}
                results[name]["faster_rounds"] = faster
    report: dict[str, Any] = {"repeats": args.repeats, "presets": results}
    if args.against:
        report["against"] = str(args.against)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
