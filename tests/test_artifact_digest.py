"""`tools/artifact_digest.py --compare` on two hand-made saved trees."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"
OLD_STDOUT = ["R0 = 1.068221", "unit-radius defect = 5.551e-16"]
OLD_ORBIT = "t,y,S\n0.0,0.0,0.5\n"


def _save(root: Path, stdout: list[str], orbit: str) -> Path:
    """One saved run with one artifact, as `--save` writes it."""
    (root / "00").mkdir(parents=True)
    (root / "00" / "dfe_orbit.csv").write_text(orbit, encoding="utf-8")
    (root / "00.json").write_text(json.dumps(
        {"argv": ["dfe", "--preset", "example4-b"], "exit": 0, "stdout": stdout, "stderr": []}),
        encoding="utf-8")
    return root


def _compare(tmp_path: Path, new_stdout: list[str],
             new_orbit: str = OLD_ORBIT) -> subprocess.CompletedProcess[str]:
    old = _save(tmp_path / "old", OLD_STDOUT, OLD_ORBIT)
    new = _save(tmp_path / "new", new_stdout, new_orbit)
    return subprocess.run([sys.executable, str(TOOL), "--compare", str(old), str(new)],
                          capture_output=True, text=True, timeout=60)


def test_compare_reports_a_moved_stdout_number_by_value(tmp_path):
    run = _compare(tmp_path, ["R0 = 1.068221", "unit-radius defect = 1.221e-15"])
    assert run.returncode == 0, run.stdout
    assert "stdout  max abs 6.659e-16  max rel 1.200e+00" in run.stdout
    assert "CHANGED" not in run.stdout


@pytest.mark.parametrize("new_stdout", [
    ["R0 = 1.068221", "unit-radius residual = 5.551e-16"],
    ["R0 = 1.068221"],
    ["R0 = 1.068221", "unit-radius defect = nan"],
], ids=["word", "missing-line", "number-to-nan"])
def test_compare_counts_changed_stdout_text_as_structural(tmp_path, new_stdout):
    run = _compare(tmp_path, new_stdout)
    assert run.returncode == 1, run.stdout
    assert "CHANGED stdout:" in run.stdout
    assert "1 structural changes or exceeded bounds" in run.stdout


def test_compare_counts_a_cell_that_turns_nan_as_exceeding_its_bound(tmp_path):
    run = _compare(tmp_path, OLD_STDOUT, "t,y,S\n0.0,0.0,nan\n")
    assert run.returncode == 1, run.stdout
    assert "dfe_orbit.csv:S  max abs inf" in run.stdout
    assert "CHANGED dfe_orbit.csv:S: abs bound 1e-08 exceeded" in run.stdout
