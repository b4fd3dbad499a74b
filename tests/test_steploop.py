"""Building and loading the compiled step loop of the engine (`evosis.steploop`)."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from evosis import steploop
from evosis.cli import EXIT_SOLVER, main
from evosis.errors import KernelBuildError

ROOT = Path(__file__).resolve().parents[1]


def _script(path: Path, body: str) -> str:
    path.write_text("#!/bin/sh\n" + body, encoding="utf-8")
    path.chmod(0o755)
    return str(path)


@pytest.fixture
def cc() -> str:
    found = shutil.which(steploop.COMPILER)
    assert found, "the period loop needs a C compiler on PATH"
    return found


def test_source_compiles_without_warnings(tmp_path, cc):
    """-std=c99 -Wall -Wextra -Werror, with the build's own flags."""
    run = subprocess.run([cc, *steploop.FLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "loop.so"),
                          str(steploop.SOURCE)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_a_cold_cache_builds_once_and_a_second_load_starts_no_compiler(tmp_path, cc):
    calls = tmp_path / "calls"
    counting = _script(tmp_path / "cc", f'echo run >> "{calls}"\nexec "{cc}" "$@"\n')
    cache = tmp_path / "cache"
    first = steploop.load(cache, counting)
    assert calls.read_text().splitlines() == ["run"]
    assert [path.name for path in cache.iterdir()] == [steploop.library_path(steploop.SOURCE.read_bytes(), cache).name]
    second = steploop.load(cache, counting)
    assert calls.read_text().splitlines() == ["run"]
    assert first._name == second._name
    assert all(callable(getattr(second, name))
               for name in ("evosis_steps", "evosis_reaction", "evosis_period_map", "evosis_factor"))


def test_the_cache_key_follows_the_source_text_and_the_flags(tmp_path, monkeypatch):
    source = steploop.SOURCE.read_bytes()
    path = steploop.library_path(source, tmp_path)
    assert path.parent == tmp_path
    assert steploop.library_path(source, tmp_path) == path
    assert steploop.library_path(source + b"\n", tmp_path) != path
    assert steploop.library_path(source.replace(b"0.0", b"0.00", 1), tmp_path) != path
    monkeypatch.setattr(steploop, "FLAGS", (*steploop.FLAGS, "-g"))
    assert steploop.library_path(source, tmp_path) != path


def test_a_missing_compiler_is_a_named_error_and_leaves_no_file(tmp_path):
    cache = tmp_path / "cache"
    with pytest.raises(KernelBuildError, match="no C compiler"):
        steploop.load(cache, str(tmp_path / "no-such-cc"))
    assert list(cache.iterdir()) == []


def test_a_failed_build_removes_its_partial_output(tmp_path):
    """A compiler that writes part of its output and then fails: the error names its status, and no file stays."""
    failing = _script(tmp_path / "cc", 'while [ $# -gt 0 ]; do\n  if [ "$1" = -o ]; then echo partial > "$2"; fi\n'
                                       '  shift\ndone\necho "broken" >&2\nexit 3\n')
    cache = tmp_path / "cache"
    with pytest.raises(KernelBuildError, match="exited with status 3: broken"):
        steploop.load(cache, failing)
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("command", [["simulate", "--periods", "1"], ["r0"]], ids=["simulate", "r0"])
def test_the_cli_reports_a_missing_compiler_as_a_solver_failure(command, tmp_path, monkeypatch, capsys):
    """The coupled stepper of `simulate` and the period map of `r0` both need the loop."""
    monkeypatch.setattr(steploop, "CACHE", tmp_path / "cache")
    monkeypatch.setattr(steploop, "COMPILER", str(tmp_path / "no-such-cc"))
    steploop.library.cache_clear()
    try:
        assert main([*command, "--preset", "example4-a", "--grid", "16", "--steps", "32"]) == EXIT_SOLVER
    finally:
        steploop.library.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("solver failure: cannot build the compiled step loop: no C compiler")
    assert list((tmp_path / "cache").iterdir()) == []


def test_importing_the_cli_loads_no_kernel():
    """numpy itself imports ctypes, so what `import evosis.cli` and `import evosis.spectral` add after numpy
    is checked."""
    code = ("import sys, numpy\nbefore = set(sys.modules)\nimport evosis.cli, evosis.spectral\n"
            "print(sorted(name for name in set(sys.modules) - before\n"
            "             if name.partition('.')[0] in ('ctypes', '_ctypes') or 'steploop' in name))\n"
            "print('evosis.steploop' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "False"]
