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
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import itertools  # noqa: E402
import math  # noqa: E402
from dataclasses import replace  # noqa: E402

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


def main() -> None:
    from evosis import engine
    from evosis.errors import ConvergenceError, EvosisError
    from evosis.model import CoefficientProfile, config_from_dict, validate_config
    from evosis.presets import load_preset, preset_names
    from evosis.spectral import compute_r0

    builds = columns = 0
    build, apply = engine.PeriodMapOperator.__init__, engine.PeriodMapOperator.apply

    def counted_build(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        build(self, *args, **kwargs)

    def counted_apply(self, u, *args, **kwargs):
        nonlocal columns
        columns += u.shape[1] if u.ndim == 2 else 1
        return apply(self, u, *args, **kwargs)

    engine.PeriodMapOperator.__init__ = counted_build
    engine.PeriodMapOperator.apply = counted_apply

    def run_block(cases) -> None:
        nonlocal builds, columns
        total = total_columns = solved = 0
        for label, config in cases:
            builds = columns = 0
            try:
                outcome = f"{compute_r0(validate_config(config)).value:.17g}"
                solved += 1
            except EvosisError as error:
                outcome = type(error).__name__
                if isinstance(error, ConvergenceError):
                    outcome += f" ({error})"
            total += builds
            total_columns += columns
            print(f"{label}  {outcome}  evaluations {builds}  columns {columns}", flush=True)
        print(f"solved {solved} of {len(cases)}, radius evaluations {total}, columns {total_columns}")

    run_block([(f"{name} {n}x{m} d_I={d_i:g} L={length:g}",
                replace(load_preset(name), d_I=d_i, L=length).with_resolution(n, m))
               for name, (n, m), d_i, length in itertools.product(preset_names(), GRIDS, D_I, LENGTHS)])
    evidence = []
    for name in preset_names():
        config = load_preset(name)
        evidence.append((f"{name} {config.grid_points}x{config.steps_per_period}", config))
    example4_b = load_preset("example4-b")
    for label, d_i, beta, gamma in AFFINE:
        config = replace(example4_b, d_I=d_i,
                         beta=CoefficientProfile(form="affine", c0=beta[0], c1=beta[1]),
                         gamma=CoefficientProfile(form="affine", c0=gamma[0], c1=gamma[1]))
        evidence.append((f"example4-b 32x64 d_I={d_i:g} affine {label}", config.with_resolution(32, 64)))
    run_block(evidence)
    designed = config_from_dict(DESIGNED)
    run_block([(f"designed 256x320 d_I={d_i:g}", replace(designed, d_I=d_i)) for d_i in SWEEP_D_I])
    run_block([(f"{name} {n}x{m} d_I={d_i:g}", replace(load_preset(name), d_I=d_i).with_resolution(n, m))
               for name, n, m, d_i in STALLS])


if __name__ == "__main__":
    main()
