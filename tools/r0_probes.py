"""R0 root search on a fixed set of 96 coarse configs, with radius-evaluation counts.

Each probe is a preset at one of the grids 8x16, 16x16 and 8x64 (N x M),
with d_I in {1e-4, 1e4} and L in {0.01, 64}: extremes that
`validate_config` accepts, where the period map is far from the presets'
regime. For each probe it prints R0 (or the class of the error that
`compute_r0` raised) and the number of period-map builds, which is the
number of radius evaluations; the last line sums them. BLAS is pinned to
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


def main() -> None:
    from evosis import engine
    from evosis.errors import EvosisError
    from evosis.presets import load_preset, preset_names
    from evosis.spectral import compute_r0

    builds = 0
    build = engine.PeriodMapOperator.__init__

    def counted(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        build(self, *args, **kwargs)

    engine.PeriodMapOperator.__init__ = counted
    probes = list(itertools.product(preset_names(), GRIDS, D_I, LENGTHS))
    total = solved = 0
    for name, (n, m), d_i, length in probes:
        config = replace(load_preset(name), d_I=d_i, L=length).with_resolution(n, m)
        builds = 0
        try:
            outcome = f"{compute_r0(config).value:.17g}"
            solved += 1
        except EvosisError as error:
            outcome = type(error).__name__
        total += builds
        print(f"{name} {n}x{m} d_I={d_i:g} L={length:g}  {outcome}  evaluations {builds}", flush=True)
    print(f"solved {solved} of {len(probes)}, radius evaluations {total}")


if __name__ == "__main__":
    main()
