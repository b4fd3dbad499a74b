"""Command-line entry point: outputs, artifacts, determinism, exit codes."""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from csv_reference import space_time_bytes
from evosis import cli, spectral
from evosis.cli import _parse_values, main
from evosis.errors import ConfigurationError, ConvergenceError, StepError
from evosis.model import CoefficientProfile, EvolutionRate, config_to_dict
from evosis.presets import load_preset

ROOT = Path(__file__).resolve().parents[1]


def _read(path):
    return path.read_text(encoding="utf-8")


# ---- argument handling ----

def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_preset_is_a_usage_error(capsys):
    assert main(["r0", "--preset", "example9-z"]) == 1
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bounds", "--preset", "example4-a", "--periods", "5"],
    ["bounds", "--preset", "example4-a", "--lambda-star-convention", "neumann"],
    ["r0", "--preset", "example4-a", "--periods", "3"],
    ["dfe", "--preset", "example4-a", "--lambda-star-convention", "neumann"],
    ["sweep", "--preset", "example4-b", "--param", "d_I", "--values", "0.1,0.2", "--periods", "2"],
    ["reproduce", "--grid", "16"],
    ["reproduce", "--steps", "32"],
    ["reproduce", "--preset", "example4-b"],
], ids=" ".join)
def test_options_a_subcommand_does_not_read_are_rejected(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_parse_values_accepts_commas_and_whitespace():
    assert _parse_values("0.1, 0.2,0.3") == (0.1, 0.2, 0.3)
    assert _parse_values("4") == (4.0,)


def test_parse_values_rejects_garbage():
    with pytest.raises(ConfigurationError, match="could not parse"):
        _parse_values("0.1,abc")
    with pytest.raises(ConfigurationError, match="at least one"):
        _parse_values("  ,  ")


# ---- r0 ----

def test_r0_command_prints_value_and_writes_identical_artifacts(tmp_path, capsys):
    args = ["r0", "--preset", "example2-fixed", "--grid", "24", "--steps", "96"]
    first = tmp_path / "first"
    second = tmp_path / "second"

    assert main(args + ["--out", str(first)]) == 0
    out = capsys.readouterr().out
    assert "R0 = 1.400" in out
    assert "sandwich bracket" in out

    assert main(args + ["--out", str(second)]) == 0
    capsys.readouterr()
    for name in ("manifest.json", "r0.json", "eigenfunction.csv"):
        assert _read(first / name) == _read(second / name)

    doc = json.loads(_read(first / "r0.json"))
    assert doc["r0"] == pytest.approx(1.4, abs=1e-6)
    assert doc["bracket"][0] <= doc["r0"] <= doc["bracket"][1]
    manifest = json.loads(_read(first / "manifest.json"))
    assert manifest["command"] == "r0"
    assert manifest["config"]["grid_points"] == 24


def test_r0_strict_passes_on_clean_run():
    assert main(["r0", "--preset", "example2-fixed", "--grid", "24",
                 "--steps", "96", "--strict"]) == 0


# ---- bounds ----

def test_bounds_command_reports_coefficient_extremes(tmp_path, capsys):
    out_dir = tmp_path / "bounds"
    assert main(["bounds", "--preset", "example4-a", "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "lower bound" in text and "upper bound" in text
    doc = json.loads(_read(out_dir / "bounds.json"))
    assert doc["min_beta_integral"] == pytest.approx(1.067882804158198, abs=1e-9)
    assert doc["max_gamma_integral"] == pytest.approx(3.385713018086869, abs=1e-9)
    assert doc["lower"] <= doc["upper"]


# ---- dfe ----

def test_dfe_command_emits_orbit_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "dfe"
    assert main(["dfe", "--preset", "example1-evolving", "--grid", "64",
                 "--steps", "250", "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "converged" in text
    doc = json.loads(_read(out_dir / "dfe.json"))
    assert doc["residual"] <= 1e-8
    with open(out_dir / "dfe_orbit.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert set(rows[0]) == {"t", "y", "S"}
    assert all(float(row["S"]) > 0 for row in rows)
    compile(_read(out_dir / "plot_dfe_orbit.py"), "plot_dfe_orbit.py", "exec")


# ---- simulate ----

def test_simulate_command_writes_period_table_and_snapshot(tmp_path, capsys):
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--preset", "example4-a", "--grid", "48",
                 "--steps", "200", "--periods", "6", "--out", str(out_dir)]) == 0
    assert "ran 6 periods" in capsys.readouterr().out
    with open(out_dir / "periods.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 6
    assert set(rows[0]) == {"period", "sup_I", "l1_I", "s_closure_defect"}
    with open(out_dir / "timeseries.csv", newline="") as handle:
        header = next(csv.reader(handle))
    assert header == ["t", "y", "S", "I"]
    compile(_read(out_dir / "plot_periods.py"), "plot_periods.py", "exec")
    compile(_read(out_dir / "plot_timeseries.py"), "plot_timeseries.py", "exec")


AWKWARD = [1e-05, 0.1 + 0.2, 5e-324, 1e16, -0.0, 1.0 / 3.0, -2.5e-300, 123456789.0]


@pytest.mark.parametrize("layout", ["path-halves", "f-ordered", "single-node"])
@pytest.mark.parametrize("steps", [5, 64, 129], ids=["below-64", "64", "129"])
def test_space_time_lines_match_the_per_cell_writer_byte_for_byte(tmp_path, steps, layout):
    """The compiled body that `_write_artifact` writes equals, byte for byte, the file of the per-cell
    reference writer (`tests/csv_reference.py`), on floats whose shortest round-trip form is awkward:
    the strided S and I halves of one (M+1)x2(N+1) path, as `timeseries.csv` reads them; an F-ordered
    table, as an eigenfunction may be; and the halves of a path on a single node. Below 64 steps every
    slice is written, at 64 every one of 65, and at 129 every second one."""
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 0.1 + 0.2, steps + 1)
    nodes = np.array([0.1 + 0.2] if layout == "single-node" else AWKWARD)
    n = nodes.size
    path = rng.choice(AWKWARD, size=(steps + 1, 2 * n)) * rng.choice([1.0, -1.0, 0.1], size=(steps + 1, 1))
    if layout == "f-ordered":
        header, tables = ("t", "y", "phi"), [np.asfortranarray(path[:, :n])]
        assert tables[0].flags.f_contiguous and not tables[0].flags.c_contiguous
    else:
        header, tables = ("t", "y", "S", "I"), [path[:, :n], path[:, n:]]
    target = tmp_path / "table.csv"
    cli._write_artifact(target, (header, cli._space_time(times, nodes, *tables)))
    expected = space_time_bytes(header, times, nodes, *tables)
    assert target.read_bytes() == expected
    assert expected.count(b"\n") == 1 + len(range(0, steps + 1, max(1, steps // 64))) * n
    assert b"5e-324" in expected and b"-0.0" in expected and b"1e+16" in expected


def test_simulate_rejects_zero_periods(capsys):
    assert main(["simulate", "--preset", "example4-a", "--grid", "16",
                 "--steps", "32", "--periods", "0"]) == 1
    assert "config error: periods" in capsys.readouterr().err


# ---- sweep ----

def test_sweep_command_reports_monotone_verdict(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--preset", "example4-b", "--param", "d_I",
                 "--values", "0.05,0.1,0.2", "--grid", "48", "--steps", "160",
                 "--out", str(out_dir), "--strict"]) == 0
    assert "verdict: strictly-decreasing" in capsys.readouterr().out
    doc = json.loads(_read(out_dir / "sweep.json"))
    assert doc["r0_values"] == sorted(doc["r0_values"], reverse=True)
    compile(_read(out_dir / "plot_sweep.py"), "plot_sweep.py", "exec")


def test_sweep_command_reports_a_monotonicity_violation(tmp_path, capsys):
    """Across L = 0.25..4, R0 of example4-a falls and then turns up between
    L = 2 and L = 4 (0.431553 to 0.431968), so the verdict names index 3
    and --strict fails."""
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--preset", "example4-a", "--param", "L",
                 "--values", "0.25,0.5,1,2,4", "--grid", "24", "--steps", "128",
                 "--out", str(out_dir), "--strict"]) == 3
    captured = capsys.readouterr()
    assert "verdict: violated-at-indices at indices [3]" in captured.out
    assert "strict: sweep is not strictly monotone" in captured.err
    doc = json.loads(_read(out_dir / "sweep.json"))
    assert doc["verdict"] == "violated-at-indices"
    assert doc["violation_indices"] == [3]
    assert doc["r0_values"][3] < doc["r0_values"][4]


def test_sweep_rejects_zero_length(capsys):
    assert main(["sweep", "--preset", "example4-b", "--param", "L", "--values", "0,1",
                 "--grid", "16", "--steps", "32"]) == 1
    assert "config error: L" in capsys.readouterr().err


def test_sweep_rejects_nan_diffusivity(capsys):
    """Also misordered and too-short value lists, which are config errors too."""
    for values, message in (("0.1,nan", "config error: d_I"),
                            ("0.2,0.1", "config error: sweep over d_I"),
                            ("0.2", "config error: sweep over d_I")):
        assert main(["sweep", "--preset", "example4-b", "--param", "d_I", "--values", values,
                     "--grid", "16", "--steps", "32"]) == 1
        assert message in capsys.readouterr().err


# ---- limits ----

def test_limits_strict_flags_a_truncated_sequence(tmp_path, capsys, designed_config):
    config_path = tmp_path / "standard.json"
    config_path.write_text(json.dumps(config_to_dict(designed_config())),
                           encoding="utf-8")
    args = ["limits", "--config", str(config_path), "--kind", "small-diffusivity",
            "--values", "0.1,0.05", "--grid", "64", "--steps", "192"]
    assert main(args) == 0
    assert "FLAGGED" in capsys.readouterr().out
    assert main(args + ["--strict"]) == 3
    captured = capsys.readouterr()
    assert "limit gap checks failed" in captured.err


def test_limits_rejects_negative_diffusivity(capsys):
    """Also values running away from the limit, which are config errors too."""
    for values, message in (("0.1,-1", "config error: d_I"),
                            ("0.1,0.2", "config error: small-diffusivity")):
        assert main(["limits", "--preset", "example4-b", "--kind", "small-diffusivity",
                     "--values", values, "--grid", "16", "--steps", "32"]) == 1
        assert message in capsys.readouterr().err


# ---- reproduce ----

def test_reproduce_matches_every_published_row(tmp_path, capsys):
    out_dir = tmp_path / "repro"
    assert main(["reproduce", "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "14/14 rows within 0.001" in text
    assert "FAIL" not in text
    with open(out_dir / "reproduction.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 14
    assert all(float(row["abs_diff"]) <= 1e-3 for row in rows)


def test_reproduce_strict_names_the_failed_rows(capsys):
    assert main(["reproduce", "--strict", "--lambda-star-convention", "neumann"]) == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert captured.err == "strict: 8/14 rows within 0.001\n"


# ---- error exits ----

def test_missing_config_file_exits_with_config_error(tmp_path, monkeypatch, capsys):
    """Also a --config naming a directory, and an --out naming an existing file,
    which fails before any solve and prints nothing."""
    existing = tmp_path / "existing.txt"
    existing.write_text("", encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli, "compute_r0", lambda config: calls.append(config))
    for argv in (["r0", "--config", str(tmp_path / "no-such.json")],
                 ["r0", "--config", str(tmp_path)],
                 ["bounds", "--preset", "example4-a", "--out", str(existing)],
                 ["r0", "--preset", "example1-fixed", "--out", str(existing)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert captured.out == ""
    assert calls == []


def test_invalid_json_exits_with_config_error(tmp_path, capsys):
    """Also a file that is not UTF-8 text, and a document that is not an
    object, with or without a --grid override."""
    bad = tmp_path / "bad.json"
    grid = ["--grid", "16"]
    for content, extra, message in ((b"{not json", [], "config error"),
                                    (b"\xff\xfe{}", [], "config error"),
                                    (b"[1, 2]", grid, "config error: config: expected an object, got [1, 2]"),
                                    (b'"text"', grid, "config error: config: expected an object, got 'text'")):
        bad.write_bytes(content)
        assert main(["r0", "--config", str(bad), *extra]) == 1
        assert message in capsys.readouterr().err


def test_invalid_field_reports_its_path(tmp_path, capsys):
    """Out-of-range values, and values of the wrong type or shape. JSON's NaN
    and Infinity load as floats, and a frequency of 1e308 makes rho(t+T)
    overflow to NaN."""
    tabulated = {"kind": "tabulated", "samples": [1, "x"]}
    exp_cosine = {"kind": "exp-cosine", "amplitude": 0.35}
    cases = (
        ("d_I", -1.0, "d_I"),
        ("d_S", "abc", "d_S"),
        ("n", "two", "n"),
        ("grid_points", "many", "grid_points"),
        ("grid_points", 48.7, "grid_points"),
        ("n", 1.9, "n"),
        ("n", True, "n"),
        ("a", {"c0": None}, "a.c0"),
        ("rho", 5, "rho"),
        ("rho", tabulated, "rho.samples"),
        ("rho", {**exp_cosine, "frequency": math.nan}, "rho.frequency"),
        ("rho", {**exp_cosine, "frequency": math.inf}, "rho.frequency"),
        ("rho", {**exp_cosine, "frequency": 4.0, "amplitude": -math.inf}, "rho.amplitude"),
        ("rho", {**exp_cosine, "frequency": 1e308}, "rho"),
        ("initial_I", {"modes": [[1]]}, "initial_I.modes"),
        ("gamma", {"form": "separable", "space": {"c0": 1.0}, "g": {"harmonics": [[1, 2]]}},
         "gamma.g.harmonics"),
    )
    bad = tmp_path / "bad.json"
    for key, value, path in cases:
        doc = config_to_dict(load_preset("example1-fixed"))
        doc[key] = value
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["r0", "--config", str(bad)]) == 1
        captured = capsys.readouterr()
        assert f"config error: {path}:" in captured.err
        assert captured.out == ""


def test_a_coefficient_that_overflows_is_a_config_error_alone_on_stderr(tmp_path):
    """beta = 1 + exp(1000 z) on example4-b overflows the float range. A fresh
    interpreter, with Python's default warning filters, writes the config
    error line to stderr and nothing before it: numpy's overflow warning is
    not shown."""
    doc = config_to_dict(load_preset("example4-b"))
    doc["beta"] = {"form": "exponential", "c0": 1, "c1": 1, "c2": 1000}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run([sys.executable, "-c", "import sys; from evosis.cli import main; sys.exit(main())",
                          "r0", "--config", str(path)], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 1
    assert run.stdout == ""
    assert run.stderr == "config error: beta: evaluation produced non-finite values\n"


def test_solver_failure_exits_with_solver_code(monkeypatch, capsys):
    def explode(config):
        raise ConvergenceError("radius bracket could not be closed")

    monkeypatch.setattr(cli, "compute_r0", explode)
    assert main(["r0", "--preset", "example1-fixed", "--grid", "16",
                 "--steps", "32"]) == 2
    assert "solver failure" in capsys.readouterr().err


def test_r0_exits_with_solver_code_when_bracket_misses_root(monkeypatch, capsys):
    true_bounds = spectral.r0_bounds

    def shifted(config):
        bounds = true_bounds(config)
        return replace(bounds, lower=10.0 * bounds.lower, upper=10.0 * bounds.upper)

    monkeypatch.setattr(spectral, "r0_bounds", shifted)
    assert main(["r0", "--preset", "example4-b", "--grid", "16", "--steps", "32"]) == 2
    assert "solver failure: the unit spectral radius is not bracketed" in capsys.readouterr().err



def test_r0_solves_a_config_whose_bracket_starts_below_the_definite_limit(tmp_path, capsys):
    """Constant beta = 150, gamma = 100 on a fixed domain: at the bracket's low
    end mu = 0.75 the potential is beta/mu - gamma = 100, so theta dt sup q =
    100/32 > 1 at 16 steps per unit period and that period map has no LDL^T
    factors. The search starts at the sandwich mean, R0 = beta/gamma, and
    never builds it."""
    config = replace(load_preset("example2-fixed"), T=1.0, rho=EvolutionRate(kind="constant-one", period=1.0),
                     beta=CoefficientProfile(form="constant", c0=150.0),
                     gamma=CoefficientProfile(form="constant", c0=100.0), grid_points=16, steps_per_period=16)
    with pytest.raises(StepError, match=r"theta\*dt\*sup q = 3\.125"):
        spectral._phi_operators(config)(0.75)
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(config_to_dict(config)), encoding="utf-8")
    assert main(["r0", "--strict", "--config", str(path)]) == 0
    assert "R0 = 1.500000" in capsys.readouterr().out


def test_r0_strict_solves_a_config_whose_first_trial_overflows(tmp_path, capsys):
    """beta = 1000 + 1000 y and gamma = 1500 on example1-fixed: at the first
    trial one period of the map overflows the float range. The search takes
    that trial as the low side and ends inside the sandwich [2/3, 4/3]."""
    doc = config_to_dict(load_preset("example1-fixed"))
    doc["beta"] = {"form": "affine", "c0": 1000, "c1": 1000}
    doc["gamma"] = {"form": "constant", "c0": 1500}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["r0", "--strict", "--config", str(path), "--grid", "8", "--steps", "1000"]) == 0
    captured = capsys.readouterr()
    r0 = float(captured.out.split("R0 = ")[1].split()[0])
    assert 2.0 / 3.0 <= r0 <= 4.0 / 3.0
    assert captured.err == ""
