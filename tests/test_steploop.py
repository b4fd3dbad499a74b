"""Building and loading the compiled step loop of the engine (`evosis.steploop`)."""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from evosis import steploop
from evosis.cli import EXIT_SOLVER, main
from evosis.errors import KernelBuildError

ROOT = Path(__file__).resolve().parents[1]
EXPORTS = ("evosis_steps", "evosis_period_map", "evosis_factor", "evosis_space_time_csv")


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
    first = steploop.load(cache, counting, steploop.FLAGS)
    assert calls.read_text().splitlines() == ["run"]
    target = steploop.library_path(steploop.SOURCE.read_bytes(), cache, steploop.FLAGS)
    assert [path.name for path in cache.iterdir()] == [target.name]
    second = steploop.load(cache, counting, steploop.FLAGS)
    assert calls.read_text().splitlines() == ["run"]
    assert first._name == second._name
    assert all(callable(getattr(second, name)) for name in EXPORTS)
    assert not hasattr(second, "evosis_reaction")


def test_the_exported_functions_are_exactly_those_whose_signatures_load_declares(tmp_path, cc):
    """A function that steploop.c defines without `static` and that `load` does not
    declare would get ctypes' int-sized argument defaults; one that `load` declares
    without an export fails at load. Comments are dropped before the scan."""
    code = re.sub(r"/\*.*?\*/", "", steploop.SOURCE.read_text(encoding="utf-8"), flags=re.S)
    definitions = re.findall(r"^([A-Za-z_][\w \t*]*?)\b(\w+)\([^)]*\)\s*\{", code, flags=re.M)
    assert {name for _, name in definitions} >= {"reaction", "solve", "step", "factor_chains", "shortest", "repr",
                                                 *EXPORTS}
    exported = {name for head, name in definitions if "static" not in head.split()}
    lib = steploop.load(tmp_path / "cache", cc, steploop.FLAGS)
    declared = {name for name, value in vars(lib).items() if isinstance(value, lib._FuncPtr) and value.argtypes}
    assert exported == declared == set(EXPORTS)


def test_the_cache_key_follows_the_source_text_and_the_flags(tmp_path):
    source, flags = steploop.SOURCE.read_bytes(), steploop.FLAGS
    path = steploop.library_path(source, tmp_path, flags)
    assert path.parent == tmp_path
    assert steploop.library_path(source, tmp_path, flags) == path
    assert steploop.library_path(source + b"\n", tmp_path, flags) != path
    assert steploop.library_path(source.replace(b"0.0", b"0.00", 1), tmp_path, flags) != path
    assert steploop.library_path(source, tmp_path, (*flags, "-g")) != path


def test_a_missing_compiler_is_a_named_error_and_leaves_no_file(tmp_path):
    cache = tmp_path / "cache"
    with pytest.raises(KernelBuildError, match="no C compiler"):
        steploop.load(cache, str(tmp_path / "no-such-cc"), steploop.FLAGS)
    assert list(cache.iterdir()) == []


def test_a_cache_that_cannot_be_made_is_a_named_error(tmp_path, cc):
    """The cache directory would sit under a regular file, so it cannot be created."""
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    with pytest.raises(KernelBuildError, match="cannot build the compiled step loop in .*file/cache"):
        steploop.load(blocker / "cache", cc, steploop.FLAGS)


def test_junk_at_the_cached_library_name_is_a_named_error(tmp_path, cc):
    """A file at the library's cache name is taken as built; when it is no library, loading it fails by name."""
    cache = tmp_path / "cache"
    cache.mkdir()
    target = steploop.library_path(steploop.SOURCE.read_bytes(), cache, steploop.FLAGS)
    target.write_bytes(b"not a shared library")
    with pytest.raises(KernelBuildError, match="cannot load the compiled step loop .*" + re.escape(target.name)):
        steploop.load(cache, cc, steploop.FLAGS)


def test_a_failed_build_removes_its_partial_output(tmp_path):
    """A compiler that writes part of its output and then fails: the error names its status, and no file stays."""
    failing = _script(tmp_path / "cc", 'while [ $# -gt 0 ]; do\n  if [ "$1" = -o ]; then echo partial > "$2"; fi\n'
                                       '  shift\ndone\necho "broken" >&2\nexit 3\n')
    cache = tmp_path / "cache"
    with pytest.raises(KernelBuildError, match="exited with status 3: broken"):
        steploop.load(cache, failing, steploop.FLAGS)
    assert list(cache.iterdir()) == []


def test_a_new_build_removes_the_stale_libraries_and_leaves_the_partials(tmp_path, cc):
    """An earlier source's library goes; a concurrent build's partial, a stale name that cannot be
    unlinked (a directory) and files of other names stay."""
    cache = tmp_path / "cache"
    (cache / "steploop-1111111111111111.so").mkdir(parents=True)
    (cache / "steploop-1111111111111111.so" / "inside").write_text("", encoding="utf-8")
    for name in ("steploop-0000000000000000.so", ".steploop-0000000000000000-x1y2z3.tmp", "other.so"):
        (cache / name).write_bytes(b"old")
    target = steploop.build(cache, cc, steploop.FLAGS)
    assert target == steploop.library_path(steploop.SOURCE.read_bytes(), cache, steploop.FLAGS)
    assert sorted(path.name for path in cache.iterdir()) == sorted(
        [".steploop-0000000000000000-x1y2z3.tmp", "other.so", "steploop-1111111111111111.so", target.name])
    assert target.stat().st_size > 0
    assert steploop.build(cache, cc, steploop.FLAGS) == target


def test_a_cache_that_cannot_be_written_is_a_named_error_and_keeps_its_libraries(tmp_path, cc, monkeypatch):
    """The partial file cannot be made, as in a read-only directory (made to fail here so that it fails
    for root too): the build raises before it would remove anything."""
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = cache / "steploop-0000000000000000.so"
    stale.write_bytes(b"old")

    def read_only(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(cache))

    monkeypatch.setattr(steploop.tempfile, "mkstemp", read_only)
    with pytest.raises(KernelBuildError, match="cannot build the compiled step loop in .*Permission denied"):
        steploop.build(cache, cc, steploop.FLAGS)
    assert list(cache.iterdir()) == [stale]


@pytest.fixture
def no_compiler(tmp_path, monkeypatch):
    """An empty cache and a compiler that does not exist; the process's loaded library is set aside meanwhile."""
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setattr(steploop, "CACHE", cache)
    monkeypatch.setattr(steploop, "COMPILER", str(tmp_path / "no-such-cc"))
    steploop.library.cache_clear()
    yield cache
    steploop.library.cache_clear()


@pytest.mark.parametrize("command", [["simulate", "--periods", "1"], ["r0"], ["dfe"],
                                     ["sweep", "--param", "d_I", "--values", "0.05,0.1"],
                                     ["limits", "--kind", "small-diffusivity", "--values", "0.1,0.05"]],
                         ids=["simulate", "r0", "dfe", "sweep", "limits"])
def test_the_cli_reports_a_missing_compiler_as_a_solver_failure(command, no_compiler, capsys):
    """The coupled stepper of `simulate` and `dfe` and the period map of `r0`, `sweep` and `limits` need the loop."""
    assert main([*command, "--preset", "example4-a", "--grid", "16", "--steps", "32"]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("solver failure: cannot build the compiled step loop: no C compiler")
    assert list(no_compiler.iterdir()) == []


@pytest.mark.parametrize("command, artifact", [(["bounds", "--preset", "example4-b"], "bounds.json"),
                                               (["reproduce"], "reproduction.csv")], ids=["bounds", "reproduce"])
def test_the_quadrature_commands_run_without_a_compiler(command, artifact, no_compiler, tmp_path, capsys):
    """`bounds` and `reproduce` are quadratures only: they need no compiled loop, and build none, also
    to write their artifacts (`reproduction.csv` is rows of cells, not a compiled body)."""
    out = tmp_path / "out"
    assert main([*command, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert list(no_compiler.iterdir()) == []
    assert sorted(path.name for path in out.iterdir()) == sorted(["manifest.json", artifact])
    assert (out / artifact).stat().st_size > 0


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


def _compiled_text(values: np.ndarray) -> list[str]:
    """Each value as the compiled writer formats it: the y and value cells of a one-slice table."""
    body = bytes(steploop.space_time_csv([0.0], values, values[None, :])).decode("ascii")
    lines = body.split("\n")
    assert lines.pop() == "" and len(lines) == values.size
    cells = [line.split(",") for line in lines]
    assert all(t == "0.0" and y == value for t, y, value in cells)
    return [value for _, _, value in cells]


def _assert_repr_text(values: np.ndarray) -> None:
    expected = [repr(value) for value in values.tolist()]
    wrong = [(value.hex(), text, got) for value, text, got in zip(values.tolist(), expected, _compiled_text(values))
             if got != text]
    assert not wrong, f"{len(wrong)} of {values.size} differ from repr, first (hex, repr, compiled): {wrong[:5]}"


def test_the_compiled_float_text_is_repr_on_uniform_bit_patterns():
    """Uniform 64-bit patterns reach every exponent, subnormals, infinities and NaNs included."""
    bits = np.random.default_rng(20180618).integers(0, 2**64, size=200_000, dtype=np.uint64)
    assert np.unique(bits >> np.uint64(52) & np.uint64(0x7FF)).size == 2048
    _assert_repr_text(bits.view(np.float64))


def test_the_compiled_float_text_is_repr_on_the_edge_cases():
    """Zeros, the subnormal and normal limits, every power of two and of ten with its neighbours, the
    integers near 2^53, the switches to exponent form at 1e-4 and 1e16, and the non-finite values."""
    powers = np.concatenate((np.ldexp(1.0, np.arange(-1074, 1024)),
                             [float(f"1e{k}") for k in range(-323, 309)], [1e-4, 1e16]))
    limits = [0.0, 5e-324, np.nextafter(sys.float_info.min, 0.0), sys.float_info.min, sys.float_info.max]
    values = np.concatenate((limits, powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf),
                             2.0**53 + np.arange(-64.0, 65.0)))
    values = np.concatenate((values, -values, [np.nan, np.inf, -np.inf]))
    _assert_repr_text(values)
    texts = set(_compiled_text(values))
    assert {"0.0", "-0.0", "5e-324", "1e-05", "0.0001", "1e+16", "9999999999999998.0", "nan", "inf",
            "-inf"} <= texts


def test_a_space_time_column_of_the_wrong_shape_is_refused():
    """The compiled writer reads each column by its strides, so a column that is not (times, nodes) is refused
    before the call."""
    with pytest.raises(ValueError, match=r"shape \(3, 2\) on 3 times and 4 nodes"):
        steploop.space_time_csv(np.zeros(3), np.zeros(4), np.zeros((3, 2)))
