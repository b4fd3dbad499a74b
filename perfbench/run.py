"""evosis benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload r0-spectral --seed 1 --seconds 30 --trace 0

One process is one run: a closed loop with a single caller that runs the
workload's jobs back to back through `evosis.cli.main(argv)` in-process,
cycling through the job list until `--seconds` have passed (and at least
once). Every job's artifacts are checked. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

With `--trace 0` the metrics are the end-to-end ones (norm_wall_s, setup_s,
peak_rss_mb). With `--trace 1` the run makes one untraced round, installs
the spans of tracing.py, makes whole traced rounds until `--seconds` have
passed, and reports the per-layer metrics. See README.md for what each
metric means and which end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
SETUP_TIMEOUT = 60
# Child of the set-up measurement: prints the monotonic clock once
# `import evosis.cli` has returned.
SETUP_CODE = "import time\nimport evosis.cli\nprint(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n"

WORKLOADS = ("r0-spectral", "long-run", "dfe-orbit")
END_TO_END = (("norm_wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass
class JobRun:
    slot: int
    seconds: float
    traced: bool
    problems: list[str] = field(default_factory=list)
    facts: dict[str, Any] = field(default_factory=dict)
    scale: float = 1.0

    @property
    def norm_seconds(self) -> float:
        """Job time rescaled to the reference host by the host speed probes around the job."""
        return self.seconds * self.scale


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="evosis benchmark runner")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas() -> None:
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---- set-up time ----

def measure_setup() -> list[float]:
    """Seconds from process exec until `import evosis.cli` returns, per sample.

    One unmeasured start first lets the interpreter write its bytecode cache,
    which a user pays once per install, not per run.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    samples = []
    for index in range(SETUP_SAMPLES + 1):
        start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT, check=True)
        if index:
            samples.append((int(done.stdout.strip().splitlines()[-1]) - start) * 1e-9)
    return samples


# ---- environment record ----

def environment() -> dict[str, Any]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    with contextlib.suppress(OSError):
        ref = head.read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "commit": commit,
    }


# ---- the closed loop ----

def run_job(cli: Any, job: Any, slot: int, out: Path, traced: bool) -> JobRun:
    argv = [*job.argv, "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    problems: list[str] = []
    code: int | None = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception:
        problems.append(f"{job.name}: raised\n{traceback.format_exc()}")
    seconds = time.perf_counter() - start
    run = JobRun(slot, seconds, traced, problems)
    if code is not None and code != 0:
        run.problems.append(f"{job.name}: exit {code}: {stderr.getvalue().strip()}")
    elif code == 0:
        try:
            found, run.facts = job.check(out)
            run.problems.extend(f"{job.name}: {p}" for p in found)
        except (OSError, KeyError, ValueError) as exc:
            run.problems.append(f"{job.name}: artifacts unreadable: {exc!r}")
    shutil.rmtree(out, ignore_errors=True)
    return run


class Timer:
    """Runs jobs with a host speed probe between each two, and keeps the probe times."""

    def __init__(self, cli: Any, work: Path) -> None:
        import calibration  # numpy, so only after pin_blas

        self.cli = cli
        self.out = work / "out"
        self.reference = calibration.REFERENCE_S
        self.probe = calibration.Probe()
        self.last = self.probe.run()
        self.probes = [self.last[0] / self.last[1]]

    def run(self, job: Any, slot: int, traced: bool) -> JobRun:
        """Runs the job, then a probe; the job is rescaled by the pass time over both probes around it."""
        run = run_job(self.cli, job, slot, self.out, traced)
        before, after = self.last, self.probe.run(run.seconds)
        run.scale = self.reference * (before[1] + after[1]) / (before[0] + after[0])
        self.last = after
        self.probes.append(after[0] / after[1])
        return run


def run_round(timer: Timer, jobs: list[Any], traced: bool, tracer: Any = None) -> list[JobRun]:
    runs = []
    for slot, job in enumerate(jobs):
        if tracer is not None:
            tracer.job += 1
        runs.append(timer.run(job, slot, traced))
    return runs


def cycle(timer: Timer, jobs: list[Any], deadline: float) -> list[JobRun]:
    """Jobs back to back, in list order, until the deadline and one full round."""
    runs: list[JobRun] = []
    slot = 0
    while slot < len(jobs) or time.perf_counter() < deadline:
        runs.append(timer.run(jobs[slot % len(jobs)], slot % len(jobs), False))
        slot += 1
    return runs


def round_seconds(runs: list[JobRun], jobs: list[Any], traced: bool, norm: bool = True) -> float:
    """Time of one pass over the job list: the sum of per-job median times, rescaled unless norm is False."""
    return sum(statistics.median(r.norm_seconds if norm else r.seconds
                                 for r in runs if r.slot == slot and r.traced == traced)
               for slot in range(len(jobs)))


def inputs_reproducible(workloads: Any, workload: str, seed: int, inputs: Path, jobs: list[Any],
                        anchors: dict[str, Any]) -> bool:
    """Builds the seeded inputs a second time and compares files and argv byte for byte."""
    again = inputs.with_name(inputs.name + "-again")
    rebuilt = workloads.build_jobs(workload, seed, again, anchors)

    def snapshot(folder: Path, built: list[Any]) -> tuple[Any, ...]:
        files = {p.name: p.read_bytes() for p in folder.iterdir()}
        argv = [[arg.replace(str(folder), "<inputs>") for arg in job.argv] for job in built]
        return files, argv

    return snapshot(inputs, jobs) == snapshot(again, rebuilt)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "evosis" / "cli.py").is_file():
        print(f"perfbench: no evosis sources under {SRC}", file=sys.stderr)
        return 2
    pin_blas()
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    from evosis import cli

    work = SCRATCH / f"{args.workload}-{os.getpid()}"
    try:
        return _run(args, cli, workloads, tracing, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


def _run(args: argparse.Namespace, cli: Any, workloads: Any, tracing: Any, work: Path) -> int:
    env = environment()
    setup = measure_setup()
    anchors = workloads.load_anchors()
    jobs = workloads.build_jobs(args.workload, args.seed, work / "inputs", anchors)
    problems: list[str] = []
    if not inputs_reproducible(workloads, args.workload, args.seed, work / "inputs", jobs, anchors):
        problems.append("seeded inputs differ between two builds from the same seed")

    deadline = time.perf_counter() + args.seconds
    timer = Timer(cli, work)
    if args.trace:
        runs = run_round(timer, jobs, traced=False)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_rounds = 0
            while traced_rounds == 0 or time.perf_counter() < deadline:
                runs += run_round(timer, jobs, traced=True, tracer=tracer)
                traced_rounds += 1
        finally:
            tracer.uninstall()
    else:
        runs = cycle(timer, jobs, deadline)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for run in runs:
        problems.extend(run.problems)
    failed = sum(1 for run in runs if run.problems)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"{'job':<34} {'n':>3} {'median_s':>10} {'q1_s':>10} {'q3_s':>10} {'norm_s':>10}")
    for slot, job in enumerate(jobs):
        mine = [r for r in runs if r.slot == slot and not r.traced]
        q1, q2, q3 = _quartiles([r.seconds for r in mine])
        norm = statistics.median(r.norm_seconds for r in mine)
        print(f"{job.name:<34} {len(mine):>3} {q2:>10.4f} {q1:>10.4f} {q3:>10.4f} {norm:>10.4f}")
    p1, p2, p3 = _quartiles(timer.probes)
    print(f"probe_s samples {len(timer.probes)}: median {p2:.6f} q1 {p1:.6f} q3 {p3:.6f} "
          f"(reference {timer.reference:g})")

    if args.trace:
        untraced = round_seconds(runs, jobs, traced=False)
        traced = round_seconds(runs, jobs, traced=True)
        facts = [r.facts for r in runs if r.traced]
        metrics = tracing.layer_metrics(tracer, traced_rounds, facts, (traced - untraced) / untraced,
                                        statistics.median(timer.probes))
        failures, notes = tracing.matrix_check(args.workload, metrics, facts)
        problems.extend(f"matrix self-check: {f}" for f in failures)
        print(f"traced rounds {traced_rounds}; untraced round {untraced:.4f} s, traced round {traced:.4f} s")
        print(f"{'traced job':<34} {'steps':>8} {'us/step':>8} {'applies':>8} {'ms/apply':>8} {'R0s':>4} {'s/R0':>7}")
        for slot, row in sorted(tracing.job_table(tracer, len(jobs)).items()):
            print(f"{jobs[slot].name:<34} {row['steps']:>8.0f} {row['step_us']:>8.2f} {row['applies']:>8.0f} "
                  f"{row['apply_ms']:>8.3f} {row['r0_calls']:>4.0f} {row['r0_s']:>7.3f}")
        for target in tracer.missing:
            print(f"trace target not found: {target}")
        for note in notes:
            print(f"matrix self-check note: {note}")
        print("matrix self-check: " + ("pass" if not failures else "FAIL"))
        units = tracing.PER_LAYER_UNITS
    else:
        s1, s2, s3 = _quartiles(setup)
        print(f"setup_s samples {len(setup)}: median {s2:.4f} q1 {s1:.4f} q3 {s3:.4f}")
        print(f"wall_s (not rescaled) = {round_seconds(runs, jobs, traced=False, norm=False)!r} s")
        metrics = {"norm_wall_s": round_seconds(runs, jobs, traced=False), "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    print(f"fail_frac = {failed / len(runs):.6g} ({failed}/{len(runs)} jobs)")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for problem in problems:
        print(f"FAILED: {problem}")

    result = {
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
