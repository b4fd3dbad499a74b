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
           "period_map_8_us",
           "radius_ms", "radius_columns", "factor_set_ms", "period_map_factor_ms"}


def test_step_cost_prints_one_line_of_finite_positive_figures():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, str(TOOL), "--preset", "example4-b", "--grid", "16", "--steps", "32",
                          "--repeats", "1"], capture_output=True, text=True, timeout=120, env=env)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 1
    report = json.loads(lines[0])
    assert report["repeats"] == 1 and set(report["presets"]) == {"example4-b"}
    figures = report["presets"]["example4-b"]
    assert set(figures) == FIGURES
    assert (figures["grid"], figures["steps"]) == (16, 32)
    for name, value in figures.items():
        assert math.isfinite(value) and value > 0, name
