"""R0 root search on four fixed blocks of probe configs, with radius-evaluation counts.

In the first block, of 96 coarse configs, each probe is a preset at one
of the grids 8x16, 16x16 and 8x64 (N x M),
with d_I in {1e-4, 1e4} and L in {0.01, 64}: extremes where the period
map is far from the presets' regime. The 24 at d_I = 1e4, L = 0.01 put
the stiffest Crank-Nicolson modes within rounding of modulus one. Each
probe passes through `validate_config` first. For each probe it prints
R0 (or the class of the error that `validate_config` or `compute_r0`
raised), the number of
period-map builds, which is the number of radius evaluations, and the
number of propagated columns, the sum of the column counts of every
period-map apply (the eigenfunction pass included); a summary line sums
both. A second block,
with a summary line of its own, runs the configs the search's evaluation
counts are tested on: the 8 presets at their own resolution and the two
affine configs of
`tests/test_spectral.py::test_compute_r0_radius_evaluations_with_heterogeneous_beta`
(example4-b at 32x64 with affine beta and gamma). A third block runs
the designed config of the sweep and limit criteria (`DESIGNED`, at
256x320) at the four d_I values of the seeded `d_I` sweep that perfbench
draws at seed 1; the smallest, 1.36409e-4, is where the local growth
factors form a near-continuum below the Perron root. A fourth block holds
two former stalls: example1-fixed and example2-fixed at 8x2000 with
d_I = 1.17e8. beta and gamma are constant in space there, so the exact
discrete roots are known (1.0057471264367819 and 1.3999999999999999).
With tridiagonal factors formed by `pttrf` the radius computed at those
roots was 6.3e-8 from one and the search stalled after 80 evaluations;
the factors from the row-sum excesses solve each in one evaluation. A
stall prints its error message, which holds the last defect. BLAS is
pinned to one thread and `evosis` is imported from PYTHONPATH, so two
checkouts compare with

    PYTHONPATH=/path/to/old/src python tools/r0_probes.py > old.txt
    PYTHONPATH=src python tools/r0_probes.py > new.txt
    diff old.txt new.txt

`--against PATH` instead runs every probe on this tree and on the
`evosis` package under PATH (a tree's `src` directory), imported beside
it in the same process, and prints only the probes whose outcome or
number of radius evaluations differs, each with both trees' lines, then
one summary line. Two outcomes agree when both are errors of the same
class, or both are R0 values within R0_TOL rel (the artifact digest's R0
bound); a change of rounding moves R0 by far less. Column counts may move
without failing the comparison; the summary counts the probes where they
did. It exits 1 when any probe differs; `--only TEXT` keeps the probes
whose label holds TEXT:

    PYTHONPATH=src python tools/r0_probes.py --against /path/to/old/src
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import math  # noqa: E402
from dataclasses import dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

from step_cost import load_tree  # noqa: E402

GRIDS = ((8, 16), (16, 16), (8, 64))
D_I = (1e-4, 1e4)
LENGTHS = (0.01, 64.0)
# (label, d_I, (c0, c1) of beta, (c0, c1) of gamma) on example4-b at 32x64
AFFINE = (
    ("eigenfunction-where-beta-is-small", 1e-4, (0.01, 0.5), (0.001, 0.5)),
    ("sharply-bent-ln-r", 1e-3, (0.001, 5.0), (0.0001, 5.0)),
)
DESIGNED = {
    "d_S": 0.05, "d_I": 0.1, "n": 1, "L": 1.0, "T": math.pi,
    "rho": {"kind": "exp-cosine", "amplitude": 0.2, "frequency": 2.0},
    "a": {"form": "constant", "c0": 1.0},
    "b": {"form": "constant", "c0": 2.0},
    "beta": {"form": "exponential", "c0": 0.4, "c1": -0.15, "c2": -0.5},
    "gamma": {"form": "exponential", "c0": 0.2, "c1": 0.2, "c2": -0.5},
    "initial_S": {"mean": 0.25, "modes": [[1, 0.01]]},
    "initial_I": {"mean": 0.05, "modes": [[1, 0.005]]},
    "grid_points": 256,
    "steps_per_period": 320,
}
SWEEP_D_I = (1.36409e-4, 1.07737e-3, 1.0277e-2, 8.96707e-2)
STALLS = (("example1-fixed", 8, 2000, 1.17e8), ("example2-fixed", 8, 2000, 1.17e8))
# two trees' R0 values agree within this relative distance (the artifact digest's R0 bound)
R0_TOL = 1e-8


@dataclass(frozen=True)
class Probe:
    """One probe's outcome: R0, or the class of the error raised (with the message of a stall), and its counts."""

    label: str
    value: float | None
    error: str
    evaluations: int
    columns: int

    def line(self) -> str:
        outcome = f"{self.value:.17g}" if self.value is not None else self.error
        return f"{self.label}  {outcome}  evaluations {self.evaluations}  columns {self.columns}"

    def agrees(self, other: "Probe") -> bool:
        """The same outcome and number of radius evaluations as `other`, columns aside."""
        if self.evaluations != other.evaluations:
            return False
        if self.value is None or other.value is None:
            return self.value is other.value and self.error.split(" ")[0] == other.error.split(" ")[0]
        return abs(self.value - other.value) <= R0_TOL * abs(other.value)


def probe_blocks(package: str) -> list[list[tuple[str, Callable[[], Any]]]]:
    """The four blocks of (label, run) cases on the tree imported as `package`.

    Each run returns that probe's `Probe`, counting the period-map builds
    and propagated columns of that tree's `engine.PeriodMapOperator`.
    """
    engine, errors, model, presets, spectral = (importlib.import_module(f"{package}.{name}")
                                                for name in ("engine", "errors", "model", "presets", "spectral"))
    counts = {"builds": 0, "columns": 0}
    build, apply = engine.PeriodMapOperator.__init__, engine.PeriodMapOperator.apply

    def counted_build(self, *args, **kwargs):
        counts["builds"] += 1
        build(self, *args, **kwargs)

    def counted_apply(self, u, *args, **kwargs):
        counts["columns"] += u.shape[1] if u.ndim == 2 else 1
        return apply(self, u, *args, **kwargs)

    engine.PeriodMapOperator.__init__ = counted_build
    engine.PeriodMapOperator.apply = counted_apply

    def case(label: str, config) -> tuple[str, Callable[[], Probe]]:
        def run() -> Probe:
            counts["builds"] = counts["columns"] = 0
            value, error = None, ""
            try:
                value = spectral.compute_r0(model.validate_config(config)).value
            except errors.EvosisError as exc:
                error = type(exc).__name__
                if isinstance(exc, errors.ConvergenceError):
                    error += f" ({exc})"
            return Probe(label, value, error, counts["builds"], counts["columns"])
        return label, run

    load_preset, names = presets.load_preset, presets.preset_names()
    coarse = [case(f"{name} {n}x{m} d_I={d_i:g} L={length:g}",
                   replace(load_preset(name), d_I=d_i, L=length).with_resolution(n, m))
              for name, (n, m), d_i, length in itertools.product(names, GRIDS, D_I, LENGTHS)]
    evidence = []
    for name in names:
        config = load_preset(name)
        evidence.append(case(f"{name} {config.grid_points}x{config.steps_per_period}", config))
    example4_b = load_preset("example4-b")
    for label, d_i, beta, gamma in AFFINE:
        config = replace(example4_b, d_I=d_i,
                         beta=model.CoefficientProfile(form="affine", c0=beta[0], c1=beta[1]),
                         gamma=model.CoefficientProfile(form="affine", c0=gamma[0], c1=gamma[1]))
        evidence.append(case(f"example4-b 32x64 d_I={d_i:g} affine {label}", config.with_resolution(32, 64)))
    designed = model.config_from_dict(DESIGNED)
    sweep = [case(f"designed 256x320 d_I={d_i:g}", replace(designed, d_I=d_i)) for d_i in SWEEP_D_I]
    stalls = [case(f"{name} {n}x{m} d_I={d_i:g}", replace(load_preset(name), d_I=d_i).with_resolution(n, m))
              for name, n, m, d_i in STALLS]
    return [coarse, evidence, sweep, stalls]


def _summary(probes: list[Probe]) -> str:
    solved = sum(probe.value is not None for probe in probes)
    evaluations, columns = (sum(getattr(probe, name) for probe in probes) for name in ("evaluations", "columns"))
    return f"solved {solved} of {len(probes)}, radius evaluations {evaluations}, columns {columns}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="PATH",
                        help="directory holding another tree's evosis package, run in the same process")
    parser.add_argument("--only", metavar="TEXT", help="run only the probes whose label holds TEXT")
    args = parser.parse_args(argv)
    packages = ["evosis"] + ([load_tree(args.against)] if args.against else [])
    trees = [probe_blocks(package) for package in packages]
    differing = moved = 0
    totals: list[list[Probe]] = [[] for _ in packages]
    for blocks in zip(*trees):
        outcomes: list[list[Probe]] = [[] for _ in packages]
        for cases in zip(*blocks):
            if args.only and args.only not in cases[0][0]:
                continue
            probes = [run() for _, run in cases]
            for kept, probe in zip(outcomes, probes):
                kept.append(probe)
            if not args.against:
                print(probes[0].line(), flush=True)
            elif not probes[0].agrees(probes[1]):
                differing += 1
                print(f"this:    {probes[0].line()}\nagainst: {probes[1].line()}", flush=True)
            else:
                moved += probes[0].columns != probes[1].columns
        if not args.against:
            print(_summary(outcomes[0]))
        for total, kept in zip(totals, outcomes):
            total.extend(kept)
    if args.against:
        print(f"{len(totals[0])} probes, {differing} differ in outcome or radius evaluations, "
              f"{moved} others in columns only; this tree: {_summary(totals[0])}; against: {_summary(totals[1])}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
