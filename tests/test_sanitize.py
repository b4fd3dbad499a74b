"""`tools/sanitize.py`: its arguments and its instrumented build. The sanitized test run itself
needs the runtimes in LD_PRELOAD, which a test cannot set for its own process, so it is not run here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from evosis import steploop

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("sanitize_tool", ROOT / "tools" / "sanitize.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_default_is_every_test_file_but_this_one_and_arguments_replace_it():
    tool = _tool()
    default = tool.parse_args([]).tests
    assert tool.EXCLUDED == Path(__file__).resolve().relative_to(ROOT).as_posix()
    assert set(default) == {path.relative_to(ROOT).as_posix() for path in (ROOT / "tests").glob("test_*.py")
                            if path.name != Path(__file__).name}
    assert "tests/test_engine.py" in default and "tests/test_model.py" in default
    chosen = ["tests/test_dfe.py", "tests/test_engine.py::test_period_map_matches_dense_crank_nicolson"]
    assert tool.parse_args(chosen).tests == chosen


def test_the_build_is_instrumented_and_cached_apart_from_the_usual_library(tmp_path):
    tool = _tool()
    library, symbols = tool.build(tmp_path)
    source = steploop.SOURCE.read_bytes()
    assert library == steploop.library_path(source, tmp_path, tool.FLAGS)
    assert library != steploop.library_path(source, tmp_path, steploop.FLAGS)
    assert symbols > 0


def test_the_runtimes_are_the_compilers_own_files():
    paths = _tool().runtimes()
    assert [Path(path).name.partition(".")[0] for path in paths] == ["libasan", "libubsan"]
    assert all(Path(path).is_absolute() and Path(path).exists() for path in paths)
