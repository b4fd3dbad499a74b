"""`tools/r0_probes.py` on four coarse probes: the listing, and `--against` a tree in the same process."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "r0_probes.py"
ONLY = "example4-b 8x16"
# a tree whose root search fails at once: no period map is built, so nothing is compiled
FAILING_SEARCH = '''

def compute_r0(config, *args, **kwargs):
    raise ConvergenceError("no root")
'''


def _run_tool(*extra: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, str(TOOL), "--only", ONLY, *extra], capture_output=True, text=True,
                          timeout=120, env=env, cwd=ROOT)


def test_r0_probes_lists_the_probes_it_keeps():
    """The four probes of example4-b at 8x16, each solved, then one summary line per block."""
    run = _run_tool()
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    probes, summaries = lines[:4], lines[4:]
    assert all(line.startswith(f"{ONLY} d_I=") and "  evaluations " in line for line in probes)
    assert summaries[0].startswith("solved 4 of 4, radius evaluations ")
    assert summaries[1:] == ["solved 0 of 0, radius evaluations 0, columns 0"] * 3


def test_r0_probes_against_the_same_tree_finds_no_difference():
    """`--against src` loads this tree a second time, under another module name: no probe differs."""
    run = _run_tool("--against", "src")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    summary, this, against = lines[0].split("; ")
    assert summary == "4 probes, 0 differ in outcome or radius evaluations, 0 others in columns only"
    assert this.removeprefix("this tree: ") == against.removeprefix("against: ")


def test_r0_probes_against_a_tree_whose_search_fails_prints_each_probe_and_exits_1(tmp_path):
    package = tmp_path / "src" / "evosis"
    shutil.copytree(ROOT / "src" / "evosis", package, ignore=shutil.ignore_patterns("__pycache__"))
    spectral = package / "spectral.py"
    spectral.write_text(spectral.read_text() + "\nfrom .errors import ConvergenceError" + FAILING_SEARCH)
    run = _run_tool("--against", str(tmp_path / "src"))
    assert run.returncode == 1, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 9
    for this, against in zip(lines[0:8:2], lines[1:8:2]):
        assert this.startswith(f"this:    {ONLY} d_I=") and "ConvergenceError" not in this
        label = this.removeprefix("this:    ").split("  ")[0]
        assert against == f"against: {label}  ConvergenceError (no root)  evaluations 0  columns 0"
    assert lines[8].startswith("4 probes, 4 differ in outcome or radius evaluations, 0 others in columns only; ")
