"""Seeded inputs, job lists and output checks of the three benchmark workloads.

A job is one `evosis` command line run in-process through `evosis.cli.main`,
always with `--strict` and with `--out` pointing at a fresh directory whose
artifacts the job's check reads. Anchor jobs run bundled presets and compare
against `anchors.json`, recorded from the reference commit; seeded jobs run
`--config` files generated from the seed and are checked by invariants that
hold for every seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from evosis.model import config_from_dict, validate_config
from evosis.presets import preset_names, preset_text

ANCHORS_FILE = Path(__file__).resolve().parent / "anchors.json"

R0_REL_TOL = 1e-8
SUP_I_ABS_TOL = 1e-12
ORBIT_ABS_TOL = 1e-8
BRACKET_GAP_TOL = 1e-8
REPRODUCE_ROWS = 14
REPRODUCE_TOL = 1e-3

# classify_stability's rules, applied to periods.csv
EXTINCTION_SUP = 1e-4
PERSISTENCE_FLOOR = 1e-3
CLOSURE_PLATEAU = 1e-12
PLATEAU_PERIODS = 5

SIM_PERIODS = 100
SIM_STEPS = 200
SIM_PRESETS = ("example1-evolving", "example4-b", "example4-a")
DFE_STEPS = 500
DFE_PRESETS = ("example1-evolving", "example2-fixed", "example4-b")
FINE_GRID = 1000
FINE_STEPS = 1000

# d_I strata of the sweep. The first lies where power iteration stalls on the
# designed config and the dense fallback fires. Above it the number of power
# iterations falls with d_I (from 442 to 363 applies per R0 over [1e-3, 2e-3]),
# so the upper strata are kept narrow and the cost of a sweep barely moves
# with the seed; the last one stays clear of the drop in radius evaluations
# between 6.8e-2 and 7.7e-2.
SWEEP_STRATA = ((1.0e-4, 1.4e-4), (1.0e-3, 1.1e-3), (1.0e-2, 1.1e-2), (8.5e-2, 1.0e-1))

Facts = dict[str, Any]
Check = Callable[[Path], tuple[list[str], Facts]]


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check of its artifacts."""

    name: str
    argv: tuple[str, ...]
    check: Check = field(compare=False)
    anchor: bool = False


# ---- artifact readers ----

def read_json(out: Path, name: str) -> dict[str, Any]:
    return json.loads((out / name).read_text(encoding="utf-8"))


def read_csv(out: Path, name: str) -> list[dict[str, str]]:
    with (out / name).open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def read_orbit_start(out: Path) -> list[float]:
    """Disease-free orbit S*(y, 0) in node order, from dfe_orbit.csv."""
    return [float(row["S"]) for row in read_csv(out, "dfe_orbit.csv") if float(row["t"]) == 0.0]


def useful_periods(defects: list[float]) -> int:
    """Periods until the S closure defect has stayed <= 1e-12 for 5 periods.

    Equals the number of periods run when the plateau is never reached.
    """
    for start in range(len(defects) - PLATEAU_PERIODS + 1):
        if all(d <= CLOSURE_PLATEAU for d in defects[start:start + PLATEAU_PERIODS]):
            return start + PLATEAU_PERIODS
    return len(defects)


# ---- checks ----

def _check_r0(reference: float) -> Check:
    def check(out: Path) -> tuple[list[str], Facts]:
        value = float(read_json(out, "r0.json")["r0"])
        rel = abs(value - reference) / abs(reference)
        problems = [] if rel <= R0_REL_TOL else [f"R0 {value!r} differs from anchor {reference!r} by {rel:.2e} rel"]
        return problems, {}
    return check


def _check_sweep(values: tuple[float, ...]) -> Check:
    def check(out: Path) -> tuple[list[str], Facts]:
        doc = read_json(out, "sweep.json")
        problems = []
        if doc["verdict"] != "strictly-decreasing":
            problems.append(f"sweep verdict {doc['verdict']!r}, expected 'strictly-decreasing'")
        if len(doc["r0_values"]) != len(values) or any(
                not math.isclose(a, b, rel_tol=1e-12) for a, b in zip(doc["values"], values)):
            problems.append(f"sweep reported values {doc['values']} for requested {list(values)}")
        return problems, {}
    return check


def _check_reproduce(out: Path) -> tuple[list[str], Facts]:
    rows = read_csv(out, "reproduction.csv")
    passing = sum(1 for row in rows if float(row["abs_diff"]) <= REPRODUCE_TOL)
    if len(rows) == REPRODUCE_ROWS and passing == REPRODUCE_ROWS:
        return [], {}
    return [f"reproduce: {passing}/{len(rows)} rows within {REPRODUCE_TOL}, expected {REPRODUCE_ROWS}/{REPRODUCE_ROWS}"], {}


def _check_simulate(preset: str, r0: float, final_sup: float | None) -> Check:
    def check(out: Path) -> tuple[list[str], Facts]:
        rows = read_csv(out, "periods.csv")
        problems = []
        if not 1 <= len(rows) <= SIM_PERIODS or [int(r["period"]) for r in rows] != list(range(1, len(rows) + 1)):
            problems.append(f"periods.csv holds periods {[r['period'] for r in rows][:3]}... ({len(rows)} rows)")
            return problems, {}
        sups = [float(r["sup_I"]) for r in rows]
        defects = [float(r["s_closure_defect"]) for r in rows]
        if sups[-1] < EXTINCTION_SUP:
            verdict = "extinction"
        elif min(sups[-5:]) > PERSISTENCE_FLOOR:
            verdict = "persistence"
        else:
            verdict = "inconclusive"
        expected = "extinction" if r0 < 1.0 else "persistence"
        if verdict != expected:
            problems.append(f"{preset}: verdict {verdict} but R0 = {r0:.6f} predicts {expected}")
        if final_sup is not None and abs(sups[-1] - final_sup) > SUP_I_ABS_TOL:
            problems.append(f"{preset}: final sup_I {sups[-1]!r} differs from anchor {final_sup!r}")
        return problems, {"preset": preset, "periods": len(rows), "useful": useful_periods(defects),
                          "requested": SIM_PERIODS}
    return check


def _check_dfe(orbit_start: list[float] | None, level: float | None) -> Check:
    """bracket_gap bound, plus the anchor orbit or the constant orbit a/b."""
    def check(out: Path) -> tuple[list[str], Facts]:
        doc = read_json(out, "dfe.json")
        problems = []
        if not doc["bracket_gap"] <= BRACKET_GAP_TOL:
            problems.append(f"DFE bracket gap {doc['bracket_gap']:.3e} exceeds {BRACKET_GAP_TOL:g}")
        start = read_orbit_start(out)
        if orbit_start is not None:
            if len(start) != len(orbit_start):
                problems.append(f"DFE orbit has {len(start)} nodes at t=0, anchor {len(orbit_start)}")
            else:
                worst = max(abs(a - b) for a, b in zip(start, orbit_start))
                if worst > ORBIT_ABS_TOL:
                    problems.append(f"DFE orbit at t=0 differs from anchor by {worst:.3e}")
        if level is not None:
            worst = max(abs(s - level) for s in start)
            if worst > ORBIT_ABS_TOL:
                problems.append(f"constant-rho DFE orbit differs from a/b = {level!r} by {worst:.3e}")
        return problems, {}
    return check


# ---- seeded configs ----

def designed_config_doc() -> dict[str, Any]:
    """The designed monotone configuration of the sweep and limit criteria."""
    return {
        "d_S": 0.05, "d_I": 0.1, "n": 1, "L": 1.0, "T": math.pi,
        "rho": {"kind": "exp-cosine", "amplitude": 0.2, "frequency": 2.0},
        "a": {"form": "constant", "c0": 1.0},
        "b": {"form": "constant", "c0": 2.0},
        "beta": {"form": "exponential", "c0": 0.4, "c1": -0.15, "c2": -0.5},
        "gamma": {"form": "exponential", "c0": 0.2, "c1": 0.2, "c2": -0.5},
        "initial_S": {"mean": 0.25, "modes": [[1, 0.01]]},
        "initial_I": {"mean": 0.05, "modes": [[1, 0.005]]},
        "grid_points": 256,
        "steps_per_period": 320,
    }


def _preset_doc(name: str) -> dict[str, Any]:
    return json.loads(preset_text(name))


def _jitter_modes(rng: random.Random, spec: dict[str, Any]) -> None:
    spec["modes"] = [[mode, round(amp * rng.uniform(0.5, 2.0), 6)] for mode, amp in spec["modes"]]


def _write_config(path: Path, doc: dict[str, Any]) -> Path:
    validate_config(config_from_dict(doc))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n")
    return path


def sweep_values(rng: random.Random) -> tuple[float, ...]:
    return tuple(float(f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.6g}") for lo, hi in SWEEP_STRATA)


# ---- job lists ----

def _r0_spectral(rng: random.Random, inputs: Path, anchors: dict[str, Any]) -> list[Job]:
    jobs = [Job(f"r0/{name}", ("r0", "--strict", "--preset", name),
                _check_r0(anchors["r0"][name]), anchor=True)
            for name in preset_names()]
    values = sweep_values(rng)
    config = _write_config(inputs / "designed.json", designed_config_doc())
    jobs.append(Job("sweep/designed-d_I",
                    ("sweep", "--strict", "--param", "d_I", "--config", str(config),
                     "--values", ",".join(repr(v) for v in values)),
                    _check_sweep(values)))
    jobs.append(Job("reproduce", ("reproduce", "--strict"), _check_reproduce, anchor=True))
    return jobs


def _long_run(rng: random.Random, inputs: Path, anchors: dict[str, Any]) -> list[Job]:
    jobs = []
    for name in SIM_PRESETS:
        jobs.append(Job(f"simulate/{name}",
                        ("simulate", "--strict", "--preset", name, "--periods", str(SIM_PERIODS),
                         "--steps", str(SIM_STEPS)),
                        _check_simulate(name, anchors["r0"][name], anchors["final_sup_I"][f"simulate/{name}"]),
                        anchor=True))
    for name in SIM_PRESETS:
        doc = _preset_doc(name)
        _jitter_modes(rng, doc["initial_S"])
        _jitter_modes(rng, doc["initial_I"])
        doc["steps_per_period"] = SIM_STEPS
        config = _write_config(inputs / f"simulate-{name}.json", doc)
        jobs.append(Job(f"simulate/{name}+jitter",
                        ("simulate", "--strict", "--config", str(config), "--periods", str(SIM_PERIODS)),
                        _check_simulate(name, anchors["r0"][name], None)))
    return jobs


def _dfe_orbit(rng: random.Random, inputs: Path, anchors: dict[str, Any]) -> list[Job]:
    orbits = anchors["orbit_start"]
    jobs = [Job(f"dfe/{name}", ("dfe", "--strict", "--preset", name, "--steps", str(DFE_STEPS)),
                _check_dfe(orbits[f"dfe/{name}"], None), anchor=True)
            for name in DFE_PRESETS]
    fine = f"dfe/example4-b@{FINE_GRID}"
    jobs.append(Job(fine, ("dfe", "--strict", "--preset", "example4-b",
                           "--grid", str(FINE_GRID), "--steps", str(FINE_STEPS)),
                    _check_dfe(orbits[fine], None), anchor=True))
    for name in DFE_PRESETS:
        doc = _preset_doc(name)
        for rate in ("a", "b"):
            doc[rate]["c0"] = round(doc[rate]["c0"] * rng.uniform(0.9, 1.1), 6)
        doc["steps_per_period"] = DFE_STEPS
        config = _write_config(inputs / f"dfe-{name}.json", doc)
        # with rho constant-one and constant rates the orbit is exactly a/b
        level = doc["a"]["c0"] / doc["b"]["c0"] if doc["rho"]["kind"] == "constant-one" else None
        jobs.append(Job(f"dfe/{name}+jitter", ("dfe", "--strict", "--config", str(config)),
                        _check_dfe(None, level)))
    return jobs


_JOB_LISTS = {"r0-spectral": _r0_spectral, "long-run": _long_run, "dfe-orbit": _dfe_orbit}


def load_anchors() -> dict[str, Any]:
    return json.loads(ANCHORS_FILE.read_text(encoding="utf-8"))


def build_jobs(workload: str, seed: int, inputs: Path, anchors: dict[str, Any]) -> list[Job]:
    """Writes the workload's seeded configs under inputs and returns its jobs.

    The same (workload, seed) writes byte-identical files; every generated
    config passes validate_config before it is written.
    """
    rng = random.Random(f"{workload}:{seed}")
    return _JOB_LISTS[workload](rng, inputs, anchors)
