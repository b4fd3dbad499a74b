"""The compiled loop under AddressSanitizer and UndefinedBehaviorSanitizer, over the test suite.

It builds `steploop.c` through `steploop.build`, with FLAGS below in
place of `steploop.FLAGS`, into a temporary cache, and then runs pytest
on every test file but EXCLUDED (or on the TEST arguments) in a
subprocess whose `steploop.library()` loads that build: the runner points
`steploop.CACHE` and `steploop.FLAGS` at it before any test runs, and
loads it once first to print its path. The subprocess has `libasan` and
`libubsan`, as `cc -print-file-name` finds them, in LD_PRELOAD (a Python
interpreter is not built with the sanitizers, so their runtimes must load
first) and ASAN_OPTIONS=detect_leaks=0 (the interpreter keeps objects
alive at exit by design). A sanitizer stops the process at its first
report, which it writes to a log file of its own, since pytest's capture
of stderr dies with the process; the subprocesses that some tests start
inherit the runtimes and write their reports there too. Tests that build
their own library into a temporary cache build it with these flags too,
and the CLI runs of the subprocess tests build the package's usual
library under the same preloaded runtimes.

It prints the pytest output and the sanitizer logs, then one JSON line:
the library, the number of distinct `__asan_`/`__ubsan_` symbols it holds
(nonzero shows that the instrumented build is what ran), the preloaded
runtimes, the test files, the subprocess's exit status, pytest's summary line,
every sanitizer report line, and `passed`. It exits 1 unless pytest
passed with no report:

    PYTHONPATH=src python tools/sanitize.py
    PYTHONPATH=src python tools/sanitize.py tests/test_steploop.py

Bit-for-bit tests hold at -O1 as at -O3: with contraction off and no
fast-math, every operation rounds the same. It is not part of the test
suite, which cannot set LD_PRELOAD for its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from evosis import steploop

ROOT = Path(__file__).resolve().parents[1]
FLAGS = ("-std=c99", "-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         "-ffp-contract=off", "-fPIC", "-shared")
RUNTIMES = ("libasan.so", "libubsan.so")
# asserts that the instrumented library is cached apart from the `steploop.FLAGS` build, which cannot hold
# in a run that swaps FLAGS
EXCLUDED = "tests/test_sanitize.py"
REPORT = re.compile(r"ERROR: (AddressSanitizer|LeakSanitizer)|runtime error:|SUMMARY: (Address|UndefinedBehavior)")
# each process with a report writes LOG.<pid> into the log directory
LOG = "sanitizer"

# argv: cache directory, JSON flags, pytest arguments
RUNNER = """import json, sys
from pathlib import Path
import pytest
from evosis import steploop
steploop.CACHE, steploop.FLAGS = Path(sys.argv[1]), tuple(json.loads(sys.argv[2]))
print("loaded", steploop.library()._name, flush=True)
sys.exit(pytest.main(sys.argv[3:]))
"""


def default_tests() -> list[str]:
    """Every test file of the suite but EXCLUDED, relative to the repository root."""
    files = sorted(path.relative_to(ROOT).as_posix() for path in (ROOT / "tests").glob("test_*.py"))
    return [name for name in files if name != EXCLUDED]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tests", nargs="*", default=default_tests(),
                        help=f"test files or ids, relative to the repository root (default: all but {EXCLUDED})")
    return parser.parse_args(argv)


def build(cache: Path) -> tuple[Path, int]:
    """The instrumented library built into `cache`, and how many distinct sanitizer symbols it holds."""
    library = steploop.build(cache, steploop.COMPILER, FLAGS)
    symbols = set(re.findall(rb"__(?:asan|ubsan)_\w+", library.read_bytes()))
    return library, len(symbols)


def runtimes() -> list[str]:
    """The sanitizer runtimes of the compiler, by the paths that `-print-file-name` gives."""
    paths = []
    for name in RUNTIMES:
        found = subprocess.run([steploop.COMPILER, f"-print-file-name={name}"], capture_output=True, text=True,
                               check=True).stdout.strip()
        if not Path(found).is_absolute() or not Path(found).exists():
            raise SystemExit(f"{steploop.COMPILER} has no {name}")
        paths.append(found)
    return paths


def run(cache: Path, tests: list[str], preload: list[str], logs: Path) -> subprocess.CompletedProcess[str]:
    """pytest on `tests` with the library in `cache` and the runtimes preloaded; reports go to `logs`."""
    log = logs / LOG
    env = dict(os.environ, LD_PRELOAD=" ".join(preload), ASAN_OPTIONS=f"detect_leaks=0:log_path={log}",
               UBSAN_OPTIONS=f"print_stacktrace=1:log_path={log}")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", RUNNER, str(cache), json.dumps(FLAGS), "-q", "-p", "no:cacheprovider",
                           *tests], capture_output=True, text=True, env=env, cwd=ROOT, check=False)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    preload = runtimes()
    with tempfile.TemporaryDirectory() as cache, tempfile.TemporaryDirectory() as logs:
        library, symbols = build(Path(cache))
        done = run(Path(cache), args.tests, preload, Path(logs))
        output = done.stdout + done.stderr + "".join(path.read_text(errors="replace")
                                                      for path in sorted(Path(logs).iterdir()))
    print(output, end="" if output.endswith("\n") else "\n")
    reports = [line for line in output.splitlines() if REPORT.search(line)]
    summary = next((line.strip("= ") for line in reversed(done.stdout.splitlines())
                    if " in " in line and ("passed" in line or "failed" in line or "error" in line)), "")
    passed = done.returncode == 0 and not reports and symbols > 0
    print(json.dumps({"library": library.name, "instrumented_symbols": symbols, "preload": preload,
                      "tests": args.tests, "exit_status": done.returncode, "summary": summary,
                      "sanitizer_reports": reports, "passed": passed}))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
