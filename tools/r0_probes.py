"""R0 root search on a fixed set of 96 coarse configs, with radius-evaluation counts.

Each probe is a preset at one of the grids 8x16, 16x16 and 8x64 (N x M),
with d_I in {1e-4, 1e4} and L in {0.01, 64}: extremes that
`validate_config` accepted before it bounded the stiff Crank-Nicolson
modes, where the period map is far from the presets' regime. Each probe
passes through `validate_config` first, so the 24 at d_I = 1e4, L = 0.01
print `ConfigurationError`. For each probe it prints R0 (or the class of
the error that `validate_config` or `compute_r0` raised), the number of
period-map builds, which is the number of radius evaluations, and the
number of propagated columns, the sum of the column counts of every
period-map apply (the eigenfunction pass included); a summary line sums
both. A second block,
with a summary line of its own, runs the configs the search's evaluation
counts are tested on: the 8 presets at their own resolution and the two
affine configs of
`tests/test_spectral.py::test_compute_r0_radius_evaluations_with_heterogeneous_beta`
(example4-b at 32x64 with affine beta and gamma). BLAS is pinned to
one thread and `evosis` is imported from PYTHONPATH, so two checkouts
compare with

    PYTHONPATH=/path/to/old/src python tools/r0_probes.py > old.txt
    PYTHONPATH=src python tools/r0_probes.py > new.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import itertools  # noqa: E402
from dataclasses import replace  # noqa: E402

GRIDS = ((8, 16), (16, 16), (8, 64))
D_I = (1e-4, 1e4)
LENGTHS = (0.01, 64.0)
# (label, d_I, (c0, c1) of beta, (c0, c1) of gamma) on example4-b at 32x64
AFFINE = (
    ("eigenfunction-where-beta-is-small", 1e-4, (0.01, 0.5), (0.001, 0.5)),
    ("sharply-bent-ln-r", 1e-3, (0.001, 5.0), (0.0001, 5.0)),
)


def main() -> None:
    from evosis import engine
    from evosis.errors import EvosisError
    from evosis.model import CoefficientProfile, validate_config
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


if __name__ == "__main__":
    main()
