"""Digest of the deterministic CLI artifacts, for byte-identity checks between trees.

Runs a fixed list of `evosis` command lines in-process through
`evosis.cli.main`, each writing `--out` into a fresh temporary directory,
and prints one `sha256  command/file` line per artifact plus each command's
exit code, stdout and stderr. BLAS is pinned to one thread and `evosis` is
imported from PYTHONPATH, so two checkouts compare with

    PYTHONPATH=/path/to/old/src python tools/artifact_digest.py > old.txt
    PYTHONPATH=src python tools/artifact_digest.py > new.txt
    diff old.txt new.txt

For changes that move rounding, the values mode compares numbers instead
of bytes. `--save DIR` prints the same digest and keeps every artifact in
DIR/NN/ with the run's argv, exit code, stdout and stderr in DIR/NN.json;
`--compare OLD NEW` then reads two saved trees and prints, per run, any
change in exit code, stdout/stderr text, artifact set, CSV header or row
count, JSON keys or non-numeric cell, and per file and column (a JSON
column is a key path with list indices dropped) the largest abs and rel
difference of the numeric cells. stdout and stderr lines are split into
text and number tokens, so their numbers are compared by value too, and
reported per stream like a column. Columns with a bound in TOLERANCES
(R0, the `r0` eigenfunction, simulate's infected density and the
disease-free orbit) are checked against it; the others are reported only.
reproduction.csv rows must keep their pass/fail verdict at REPRODUCE_TOL.
It exits 1 on any structural change or exceeded bound:

    PYTHONPATH=/path/to/old/src python tools/artifact_digest.py --save old
    PYTHONPATH=src python tools/artifact_digest.py --save new
    python tools/artifact_digest.py --compare old new

The list covers `r0`, `dfe`, `bounds` and a 3-period `simulate` on every
preset at a coarse resolution, `reproduce`, the README sweep and limits
examples, a coarse sweep whose smallest `d_I` grows the radius route's
Krylov basis to 38 of its 49 columns at the first trial, a 100-period
`simulate` and a fine-in-time `dfe`, plus runs that end on the other exit paths: `--strict` failures
(exit 3), and `r0`, `limits` and an `L` sweep under `--strict` or on a
second preset. A 40-period `simulate` of example4-a with 20 steps per
period clamps negative densities about 1700 times, so the clamp branch of
the coupled step is covered too. Last, `r0` and a 3-period `simulate` of
example3-b at 16 steps per period put dt * nu_k * lambda_N of the infected
diffusion between about 180 and 710, where a Crank-Nicolson step maps the
top modes by about -1: the period map and the trapezoidal corrector in
their stiffest regime.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

COARSE = ["--grid", "48", "--steps", "256"]

# Bounds on values that a change of rounding alone may move: R0 (the perfbench
# anchors), its eigenfunction, the infected density of simulate, and the
# disease-free orbit.
R0, PHI, FINAL_I, DFE_ORBIT = ("rel", 1e-8), ("abs", 1e-8), ("abs", 1e-12), ("abs", 1e-8)
TOLERANCES = {
    "r0.json:r0": R0, "sweep.csv:r0": R0, "sweep.json:r0_values": R0, "limits.csv:r0": R0,
    "limits.json:r0_values": R0, "reproduction.csv:computed": R0,
    "eigenfunction.csv:phi": PHI,
    "periods.csv:sup_I": FINAL_I, "periods.csv:l1_I": FINAL_I, "timeseries.csv:I": FINAL_I,
    "dfe_orbit.csv:S": DFE_ORBIT,
}
REPRODUCE_TOL = 1e-3
# A finite number in a stdout/stderr line, as a capturing group for re.split;
# "nan" and "inf" stay text, so a number that turns into one is structural.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def commands(presets: list[str]) -> list[list[str]]:
    argvs = [[command, "--preset", name, *COARSE]
             for name in presets for command in ("r0", "dfe", "bounds")]
    argvs += [["simulate", "--preset", name, *COARSE, "--periods", "3"] for name in presets]
    argvs += [
        ["reproduce"],
        ["sweep", "--preset", "example4-b", "--param", "d_I", "--values", "0.05,0.1,0.2,0.4"],
        ["sweep", "--preset", "example4-b", "--param", "d_I", "--values", "0.0001,0.001", *COARSE],
        ["limits", "--preset", "example1-evolving", "--kind", "large-diffusivity",
         "--values", "10,100,1000"],
        ["simulate", "--preset", "example4-b", "--steps", "200", "--periods", "100"],
        ["dfe", "--preset", "example4-b", "--steps", "500"],
        ["reproduce", "--strict", "--lambda-star-convention", "neumann"],
        ["r0", "--strict", "--preset", "example4-b", *COARSE],
        ["limits", "--strict", "--preset", "example4-b", "--kind", "small-diffusivity",
         "--values", "0.1,0.01", *COARSE],
        ["sweep", "--preset", "example4-b", "--param", "L", "--values", "1,2,4", *COARSE],
        ["simulate", "--preset", "example4-a", "--grid", "48", "--steps", "20", "--periods", "40"],
        ["r0", "--preset", "example3-b", "--grid", "48", "--steps", "16"],
        ["simulate", "--preset", "example3-b", "--grid", "48", "--steps", "16", "--periods", "3"],
    ]
    return argvs


def digest(save: Path | None) -> None:
    from evosis import cli
    from evosis.presets import preset_names

    for index, argv in enumerate(commands(list(preset_names()))):
        label = " ".join(argv)
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = save / f"{index:02d}" if save else Path(tmp) / "out"
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([*argv, "--out", str(out)])
            files = sorted(out.iterdir()) if out.is_dir() else []
            print(f"== {label}  exit {code}")
            for path in files:
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {label}/{path.name}")
        for stream, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
            for line in text.splitlines():
                print(f"{stream}: {line}")
        if save:
            (save / f"{index:02d}.json").write_text(json.dumps(
                {"argv": argv, "exit": code, "stdout": stdout.getvalue().splitlines(),
                 "stderr": stderr.getvalue().splitlines()}, indent=1), encoding="utf-8")
        sys.stdout.flush()


def _cells(path: Path) -> tuple[object, dict[str, list[object]]]:
    """The shape (a CSV header and row count, or the JSON key paths) and the cells by column."""
    columns: dict[str, list[object]] = {}
    if path.suffix == ".csv":
        header, *rows = list(csv.reader(path.open(newline="")))
        for row in rows:
            for name, cell in zip(header, row):
                columns.setdefault(name, []).append(cell)
        return (header, len(rows)), columns

    def walk(node: object, key: str) -> None:
        if isinstance(node, dict):
            for name, child in node.items():
                walk(child, f"{key}.{name}" if key else name)
        elif isinstance(node, list):
            for child in node:
                walk(child, key)
        else:
            columns.setdefault(key, []).append(node)
    walk(json.loads(path.read_text(encoding="utf-8")), "")
    return sorted(columns), columns


def _number(cell: object) -> float | None:
    try:
        return None if isinstance(cell, bool) else float(cell)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def _largest_difference(pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """Largest abs and rel change over (old, new) pairs; a number that turns NaN counts as inf."""
    worst_abs = worst_rel = 0.0
    for x, y in pairs:
        if x != y and not (math.isnan(x) and math.isnan(y)):
            change = abs(y - x)
            change = math.inf if math.isnan(change) else change
            worst_abs = max(worst_abs, change)
            worst_rel = max(worst_rel, change / max(abs(x), 1e-300))
    return worst_abs, worst_rel


def _compare_file(name: str, old: Path, new: Path) -> list[str]:
    if old.suffix not in (".csv", ".json"):
        return [] if old.read_bytes() == new.read_bytes() else [f"{name}: text changed"]
    (old_shape, old_cols), (new_shape, new_cols) = _cells(old), _cells(new)
    problems = []
    if old_shape != new_shape and old.suffix == ".csv":
        return [f"{name}: header and row count {old_shape} -> {new_shape}"]
    if old_shape != new_shape:
        problems.append(f"{name}: keys removed {sorted(set(old_shape) - set(new_shape))}, "
                        f"added {sorted(set(new_shape) - set(old_shape))}")
    for column, old_cells in old_cols.items():
        new_cells = new_cols.get(column, old_cells)
        if len(new_cells) != len(old_cells):
            problems.append(f"{name}:{column}: {len(old_cells)} -> {len(new_cells)} values")
            continue
        numbers = []
        for a, b in zip(old_cells, new_cells):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                if a != b:
                    problems.append(f"{name}:{column}: {a!r} -> {b!r}")
            else:
                numbers.append((x, y))
        worst_abs, worst_rel = _largest_difference(numbers)
        if worst_abs:
            kind, bound = TOLERANCES.get(f"{name}:{column}", (None, math.inf))
            over = (worst_rel if kind == "rel" else worst_abs) > bound
            print(f"  {name}:{column}  max abs {worst_abs:.3e}  max rel {worst_rel:.3e}"
                  + (f"  [{kind} bound {bound:g}: {'EXCEEDED' if over else 'ok'}]" if kind else ""))
            if over:
                problems.append(f"{name}:{column}: {kind} bound {bound:g} exceeded")
    if name == "reproduction.csv":
        verdicts = [[float(d) <= REPRODUCE_TOL for d in cols["abs_diff"]] for cols in (old_cols, new_cols)]
        if verdicts[0] != verdicts[1]:
            problems.append(f"{name}: pass/fail at {REPRODUCE_TOL:g} changed")
    return problems


def _compare_lines(stream: str, old: list[str], new: list[str]) -> list[str]:
    """Lines compared token by token: changed text is structural, changed numbers are reported."""
    problems = []
    numbers: list[tuple[float, float]] = []
    for a, b in itertools.zip_longest(old, new):
        if a == b:
            continue
        old_parts, new_parts = (_NUMBER.split(line) if line is not None else None for line in (a, b))
        # re.split with one group alternates text (even indices) and numbers (odd indices)
        if old_parts is None or new_parts is None or old_parts[::2] != new_parts[::2]:
            problems.append(f"{stream}: {a!r} -> {b!r}")
            continue
        numbers += zip(map(float, old_parts[1::2]), map(float, new_parts[1::2]))
    worst_abs, worst_rel = _largest_difference(numbers)
    if worst_abs:
        print(f"  {stream}  max abs {worst_abs:.3e}  max rel {worst_rel:.3e}")
    return problems


def compare(old_dir: Path, new_dir: Path) -> int:
    problems = 0
    for old_run in sorted(old_dir.glob("*.json")):
        old, new = (json.loads((d / old_run.name).read_text(encoding="utf-8"))
                    for d in (old_dir, new_dir))
        print(f"== {' '.join(old['argv'])}")
        found = [f"{key}: {old[key]!r} -> {new[key]!r}" for key in ("argv", "exit") if old[key] != new[key]]
        found += [problem for key in ("stdout", "stderr")
                  for problem in _compare_lines(key, old[key], new[key])]
        old_files, new_files = ({p.name for p in (d / old_run.stem).glob("*")}
                                for d in (old_dir, new_dir))
        if old_files != new_files:
            found.append(f"artifacts {sorted(old_files)} -> {sorted(new_files)}")
        for name in sorted(old_files & new_files):
            found += _compare_file(name, old_dir / old_run.stem / name, new_dir / old_run.stem / name)
        for line in found:
            print(f"  CHANGED {line}")
        problems += len(found)
    print(f"{problems} structural changes or exceeded bounds")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=Path, help="keep the artifacts and run records in this directory")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"),
                        help="compare the values of two saved directories")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.save:
        args.save.mkdir(parents=True)
    digest(args.save)
    return 0


if __name__ == "__main__":
    sys.exit(main())
