"""`tools/step_cost.py` on one coarse preset: it runs against the engine as it stands."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "step_cost.py"
FIGURES = {"grid", "steps", "coupled_us", "s_only_1_us", "s_only_2_us", "period_map_1_us", "period_map_2_us",
           "period_map_3_us", "period_map_8_us", "period_map_path_us",
           "radius_ms", "radius_columns", "factor_set_ms", "period_map_factor_ms", "csv_ms"}
TIMED = FIGURES - {"grid", "steps", "radius_columns"}


def _run_tool(*extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, str(TOOL), "--preset", "example4-b", "--grid", "16", "--steps", "32",
                          *extra], capture_output=True, text=True, timeout=120, env=env, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def _assert_figures(figures: dict) -> None:
    assert set(figures) == FIGURES
    assert (figures["grid"], figures["steps"]) == (16, 32)
    for name, value in figures.items():
        assert math.isfinite(value) and value > 0, name


def test_step_cost_prints_one_line_of_finite_positive_figures():
    report = _run_tool("--repeats", "1")
    assert report["repeats"] == 1 and set(report["presets"]) == {"example4-b"}
    _assert_figures(report["presets"]["example4-b"])


def test_step_cost_against_a_tree_times_both_in_one_process():
    """`--against src` loads this tree a second time, under another module name, and interleaves the pairs."""
    report = _run_tool("--repeats", "3", "--against", "src")
    assert report["against"] == "src" and set(report["presets"]) == {"example4-b"}
    figures = dict(report["presets"]["example4-b"])
    against, faster = figures.pop("against"), figures.pop("faster_rounds")
    _assert_figures(figures)
    _assert_figures(against)
    assert against["radius_columns"] == figures["radius_columns"]
    assert set(faster) == TIMED
    assert all(0 <= count <= 3 for count in faster.values())
