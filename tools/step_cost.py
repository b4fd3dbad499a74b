"""Cost of one step of each time-stepping engine, per preset, as one JSON line.

For each preset, at its own resolution or at `--grid N` / `--steps M`, it
times whole periods and divides by the M steps of each:

- `coupled_us`: one coupled IMEX step of the stacked [S; I] state, from the
  preset's initial data (`CoupledStepper.period`);
- `s_only_1_us`, `s_only_2_us`: one step of the S-only stepper
  (`infected=False`) on 1 and 2 rows, from the disease-free starts;
- `period_map_1_us`, `period_map_2_us`, `period_map_8_us`: one
  Crank-Nicolson step of the linearized-infection period map on 1, 2 and 8
  columns (`PeriodMapOperator.apply`), at mu = twice the upper sandwich
  bound of R0; 2 is the block width that the warm-started root search
  applies;
- `radius_ms`, `radius_columns`: one cold radius evaluation
  (`spectral._operator_radius` from its cosine start block) at the
  sandwich mean mu = sqrt(lower*upper), the root search's first trial, and
  the number of period-map columns it propagates;

and times two factor set builds: the coupled stepper's predictor (both
blocks, `factor_set_ms`), and the period map's at the sandwich mean (one
block with its potential, `period_map_factor_ms`), which every trial mu
of the root search pays. Each figure is the median of `--repeats` samples
after one untimed warm-up. BLAS is pinned to one thread and `evosis` is
imported from PYTHONPATH, so two checkouts compare with

    PYTHONPATH=/path/to/old/src python tools/step_cost.py --grid 200 --steps 200
    PYTHONPATH=src python tools/step_cost.py --grid 200 --steps 200
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any, Callable  # noqa: E402

import numpy as np  # noqa: E402


def _median_seconds(run: Callable[[], Any], repeats: int) -> float:
    run()
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        run()
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def preset_costs(config: Any, repeats: int) -> dict[str, float]:
    from evosis import dfe, engine, spectral

    steps = config.steps_per_period
    n = config.grid.N + 1
    per_step_us = 1e6 / steps
    costs: dict[str, float] = {}

    coupled = engine.CoupledStepper(config)
    u = np.concatenate((config.initial_S.evaluate(config.grid.nodes, config.L),
                        config.initial_I.evaluate(config.grid.nodes, config.L)))
    costs["coupled_us"] = _median_seconds(lambda: coupled.period(u), repeats) * per_step_us

    s_only = engine.CoupledStepper(config, infected=False)
    levels = dfe._start_levels(config)
    for rows in (1, 2):
        fields = np.repeat(np.asarray(levels[:rows])[:, None], n, axis=1)
        state = fields[0] if rows == 1 else fields
        costs[f"s_only_{rows}_us"] = _median_seconds(lambda: s_only.period(state), repeats) * per_step_us

    operator_at, bounds = spectral._phi_operators(config), spectral.r0_bounds(config)
    operator = operator_at(2.0 * bounds.upper)
    for columns in (1, 2, 8):
        block = spectral._cosines(n, 0, columns) if columns > 1 else np.ones(n)
        costs[f"period_map_{columns}_us"] = _median_seconds(lambda: operator.apply(block), repeats) * per_step_us

    at_mean = operator_at(math.sqrt(bounds.lower * bounds.upper))
    costs["radius_ms"] = _median_seconds(lambda: spectral._operator_radius(at_mean), repeats) * 1e3
    widths: list[int] = []

    class CountedMap:
        grid = at_mean.grid

        def apply(self, u: np.ndarray) -> np.ndarray:
            widths.append(u.shape[1])
            return at_mean.apply(u)

    spectral._operator_radius(CountedMap())
    costs["radius_columns"] = sum(widths)

    inv_rho2 = np.asarray(config.rho.value(coupled.times), dtype=float) ** -2.0
    nus = (engine.endpoint_mean(config.d_S * inv_rho2), engine.endpoint_mean(config.d_I * inv_rho2))
    costs["factor_set_ms"] = _median_seconds(
        lambda: engine._FactorSet(config.grid, nus, None, coupled.dt), repeats) * 1e3
    costs["period_map_factor_ms"] = _median_seconds(
        lambda: operator_at(math.sqrt(bounds.lower * bounds.upper)), repeats) * 1e3
    return {name: round(value, 3) for name, value in costs.items()}


def main(argv: list[str] | None = None) -> None:
    from evosis.presets import load_preset, preset_names

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", action="append", choices=preset_names(),
                        help="preset to measure (repeatable; default: every preset)")
    parser.add_argument("--grid", type=int, help="grid intervals N (default: the preset's)")
    parser.add_argument("--steps", type=int, help="steps per period M (default: the preset's)")
    parser.add_argument("--repeats", type=int, default=5, help="timed samples per figure")
    args = parser.parse_args(argv)
    results = {}
    for name in args.preset or preset_names():
        config = load_preset(name).with_resolution(args.grid, args.steps)
        results[name] = {"grid": config.grid_points, "steps": config.steps_per_period,
                         **preset_costs(config, args.repeats)}
    print(json.dumps({"repeats": args.repeats, "presets": results}))


if __name__ == "__main__":
    main()
