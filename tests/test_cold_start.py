"""Cold start: what a fresh CLI process imports, and `tools/cold_start.py` on a coarse grid."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cold_start.py"
PATHS = {"import", "r0", "dfe", "bounds", "sweep", "simulate", "limits", "reproduce"}

# prints, after each step, the scipy and matplotlib modules loaded so far
_LOADED = "sorted(name for name in sys.modules if name.partition('.')[0] in ('scipy', 'matplotlib'))"


def _fresh(code: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_importing_the_cli_loads_no_scipy_and_no_matplotlib():
    assert _fresh(f"import sys\nimport evosis.cli\nprint({_LOADED})\n") == ["[]"]


def test_r0_dfe_and_bounds_load_no_scipy_and_only_reproduce_does(tmp_path):
    """The commands run one after another in one process; `reproduce` last, whose lambda* is scipy's
    `eigh_tridiagonal`, shows that the check sees a deferred import when one happens."""
    code = ("import contextlib, io, sys\nfrom evosis.cli import main\n"
            "for index, argv in enumerate([['r0', *sys.argv[2:]], ['dfe', *sys.argv[2:]], ['bounds', *sys.argv[2:]],"
            " ['reproduce']]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main([*argv, '--out', f'{sys.argv[1]}/{index}'])\n"
            f"    print(argv[0], code, {_LOADED})\n")
    lines = _fresh(code, str(tmp_path), "--preset", "example4-b", "--grid", "16", "--steps", "32")
    assert lines[:3] == ["r0 0 []", "dfe 0 []", "bounds 0 []"]
    assert lines[3].startswith("reproduce 0 [") and "'scipy.linalg'" in lines[3]
    assert "matplotlib" not in lines[3]


def test_cold_start_prints_one_line_of_medians_for_both_trees():
    """`--against src` times this tree a second time as the other tree; no figure is held to a time."""
    run = subprocess.run([sys.executable, str(TOOL), "--grid", "16", "--steps", "32", "--repeats", "1",
                          "--against", "src"], capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert (report["repeats"], report["preset"], report["grid"], report["steps"]) == (1, "example4-b", 16, 32)
    assert report["against"] == "src"
    for seconds in (report["seconds"], report["against_seconds"]):
        assert set(seconds) == PATHS
        assert all(math.isfinite(value) and value > 0 for value in seconds.values())
    assert set(report["faster_rounds"]) == PATHS
    assert all(count in (0, 1) for count in report["faster_rounds"].values())


def test_cold_start_refuses_a_tree_without_the_package(tmp_path):
    run = subprocess.run([sys.executable, str(TOOL), "--against", str(tmp_path)], capture_output=True, text=True,
                         timeout=60, cwd=ROOT)
    assert run.returncode == 2
    assert "no evosis package under" in run.stderr
