"""Records anchors.json: the reference values the anchor jobs are checked against.

Run from the root of a checkout of the reference commit:

    python3 perfbench/record_anchors.py

It runs every anchor job of every workload once and stores R0 per preset,
the final sup_I of each anchor simulation and the disease-free orbit at t=0
of each anchor DFE job. Re-recording on a later commit would turn the
anchor checks into self-comparisons; do it only when the reference moves
on purpose, and say so where the change is recorded.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
from collections import defaultdict
from pathlib import Path

import run


def main() -> int:
    run.pin_blas()
    sys.path.insert(0, str(run.SRC))
    import workloads
    from evosis import cli

    work = run.SCRATCH / "record-anchors"
    placeholder = defaultdict(lambda: defaultdict(lambda: None))
    anchors: dict[str, dict[str, object]] = {"r0": {}, "final_sup_I": {}, "orbit_start": {}}
    try:
        for workload in run.WORKLOADS:
            for job in workloads.build_jobs(workload, 0, work / "inputs", placeholder):
                if not job.anchor or job.name == "reproduce":
                    continue
                out = work / "out"
                shutil.rmtree(out, ignore_errors=True)
                code = cli.main([*job.argv, "--out", str(out)])
                if code != 0:
                    print(f"{job.name}: exit {code}", file=sys.stderr)
                    return 1
                command, _, name = job.name.partition("/")
                if command == "r0":
                    anchors["r0"][name] = float(workloads.read_json(out, "r0.json")["r0"])
                elif command == "simulate":
                    anchors["final_sup_I"][job.name] = float(workloads.read_csv(out, "periods.csv")[-1]["sup_I"])
                elif command == "dfe":
                    anchors["orbit_start"][job.name] = workloads.read_orbit_start(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.SCRATCH.rmdir()
    workloads.ANCHORS_FILE.write_text(json.dumps(anchors, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
