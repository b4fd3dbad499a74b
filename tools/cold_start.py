"""Wall time of each CLI path from a fresh interpreter, as one JSON line of medians.

Every sample starts a new `python` process and times it from before the
start to its exit, so a figure holds what a user waits for: interpreter
start, imports, the work and the artifacts. The paths, on `--preset`
(default example4-b) at its own resolution or at `--grid N` / `--steps M`:

- `import`: a bare `import evosis.cli`;
- `r0`, `dfe`, `bounds`: the command on the preset;
- `sweep`: `--param d_I --values 0.01,0.1,1,10`;
- `simulate`: `--periods 100`;
- `limits`: `--kind small-diffusivity --values 0.1,0.01,0.001`;
- `reproduce`: the headline table, which takes no preset or resolution.

Each command writes `--out` into a fresh directory under one temporary
directory. The children run with BLAS on one thread and with PYTHONPATH
set to the tree's `src` alone (this tree's is the `src` beside `tools/`).
Before any sample, one untimed process per tree imports the CLI and loads
the compiled loop, so the bytecode and the library are in place, which a
user pays once per install. Each figure is the median of `--repeats`
samples, in seconds.

`--against PATH` also times the tree whose `src` is PATH: path by path,
each of `--repeats` rounds runs one sample per tree, the order alternating
from round to round. The report then holds that tree's medians under
"against_seconds", and under "faster_rounds" in how many rounds this
tree's sample was the faster, path by path:

    python tools/cold_start.py --repeats 7 --against /path/to/old/src
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
IMPORT = "import evosis.cli"
WARM_UP = "import evosis.cli\nfrom evosis import steploop\nsteploop.library()\n"
CLI = "import sys\nfrom evosis.cli import main\nsys.exit(main())\n"


def commands(preset: str, grid: int | None, steps: int | None) -> dict[str, list[str] | None]:
    """The CLI arguments of each timed path, without `--out`; None is the bare import."""
    config = ["--preset", preset, *(["--grid", str(grid)] if grid else []), *(["--steps", str(steps)] if steps else [])]
    return {
        "import": None,
        "r0": ["r0", *config],
        "dfe": ["dfe", *config],
        "bounds": ["bounds", *config],
        "sweep": ["sweep", *config, "--param", "d_I", "--values", "0.01,0.1,1,10"],
        "simulate": ["simulate", *config, "--periods", "100"],
        "limits": ["limits", *config, "--kind", "small-diffusivity", "--values", "0.1,0.01,0.001"],
        "reproduce": ["reproduce"],
    }


def _environment(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def _run(argv: list[str], env: dict[str, str]) -> float:
    """Seconds from the start of the process to its exit; a failed run ends the tool with its stderr."""
    start = perf_counter()
    run = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
    seconds = perf_counter() - start
    if run.returncode != 0:
        raise SystemExit(f"{' '.join(argv[3:]) or argv[2]!r} exited with status {run.returncode}: {run.stderr}")
    return seconds


def measure(trees: list[Path], paths: dict[str, list[str] | None], repeats: int, scratch: Path
            ) -> tuple[list[dict[str, float]], dict[str, int]]:
    """Each tree's median seconds per path, the samples of the trees alternating round by round.

    Also returns, per path, in how many rounds the first tree ran faster
    than the second.
    """
    envs = [_environment(src) for src in trees]
    for env in envs:
        _run([sys.executable, "-c", WARM_UP], env)
    medians: list[dict[str, float]] = [{} for _ in trees]
    faster: dict[str, int] = {}
    runs = 0
    for name, argv in paths.items():
        samples: list[list[float]] = [[] for _ in trees]
        for round_ in range(repeats):
            order = range(len(trees)) if round_ % 2 == 0 else reversed(range(len(trees)))
            for index in order:
                if argv is None:
                    command = [sys.executable, "-c", IMPORT]
                else:
                    runs += 1
                    command = [sys.executable, "-c", CLI, *argv, "--out", str(scratch / f"{runs:04d}-{name}")]
                samples[index].append(_run(command, envs[index]))
        for index in range(len(trees)):
            medians[index][name] = round(statistics.median(samples[index]), 4)
        if len(trees) == 2:
            faster[name] = sum(first < second for first, second in zip(*samples))
    return medians, faster


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", default="example4-b", help="preset of every path but reproduce")
    parser.add_argument("--grid", type=int, help="grid intervals N (default: the preset's)")
    parser.add_argument("--steps", type=int, help="steps per period M (default: the preset's)")
    parser.add_argument("--repeats", type=int, default=5, help="timed samples per path and tree")
    parser.add_argument("--against", type=Path, metavar="PATH", help="another tree's src directory, timed alternately")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = [SRC] + ([args.against.resolve()] if args.against else [])
    if args.against and not (trees[1] / "evosis" / "cli.py").is_file():
        parser.error(f"--against: no evosis package under {args.against}")
    with tempfile.TemporaryDirectory() as scratch:
        medians, faster = measure(trees, commands(args.preset, args.grid, args.steps), args.repeats, Path(scratch))
    report: dict[str, object] = {"repeats": args.repeats, "preset": args.preset, "grid": args.grid,
                                 "steps": args.steps, "seconds": medians[0]}
    if args.against:
        report.update(against=str(args.against), against_seconds=medians[1], faster_rounds=faster)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
