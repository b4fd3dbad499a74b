"""Digest of the deterministic CLI artifacts, for byte-identity checks between trees.

Runs a fixed list of `evosis` command lines in-process through
`evosis.cli.main`, each writing `--out` into a fresh temporary directory,
and prints one `sha256  command/file` line per artifact plus each command's
exit code, stdout and stderr. BLAS is pinned to one thread and `evosis` is
imported from PYTHONPATH, so two checkouts compare with

    PYTHONPATH=/path/to/old/src python tools/artifact_digest.py > old.txt
    PYTHONPATH=src python tools/artifact_digest.py > new.txt
    diff old.txt new.txt

The list covers `r0`, `dfe`, `bounds` and a 3-period `simulate` on every
preset at a coarse resolution, `reproduce`, the README sweep and limits
examples, a coarse sweep whose smallest `d_I` stalls power iteration (so
the dense radius route runs), a 100-period `simulate` and a fine-in-time
`dfe`, plus runs that end on the other exit paths: `--strict` failures
(exit 3), and `r0`, `limits` and an `L` sweep under `--strict` or on a
second preset.
"""

from __future__ import annotations

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

COARSE = ["--grid", "48", "--steps", "256"]


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
    ]
    return argvs


def main() -> int:
    from evosis import cli
    from evosis.presets import preset_names

    for argv in commands(list(preset_names())):
        label = " ".join(argv)
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([*argv, "--out", str(out)])
            files = sorted(out.iterdir()) if out.is_dir() else []
            print(f"== {label}  exit {code}")
            for path in files:
                print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {label}/{path.name}")
        for stream, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
            for line in text.splitlines():
                print(f"{stream}: {line}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
