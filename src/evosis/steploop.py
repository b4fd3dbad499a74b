"""The compiled core of the engine and of the CLI's tables, built from `steploop.c` at first use.

It exports four functions, and `load` declares the argument types of
each: `evosis_steps`, the period loop of the coupled stepper;
`evosis_period_map`, the period map's Crank-Nicolson loop;
`evosis_factor`, the factor recurrence of their tridiagonal systems; and
`evosis_space_time_csv`, which `space_time_csv` calls to write the body
of a space-time CSV table, every number as `repr` writes it. Everything
else in the source is `static`.

`library()` compiles the C source with the system compiler `cc` and the
fixed FLAGS into the package's `__pycache__` directory, where Python keeps
its bytecode, under a file name keyed by a hash of the source and the
flags, and loads it through ctypes once per process. A later process, or
a later load, finds the library there and starts no compiler; an edited
source gets a new name. The compiler writes to a temporary file in that
directory, which `os.replace` then moves to the final name, so a
concurrent build never reads a partial library and a failed build leaves
no file behind. A host without a compiler, or whose cache directory is
not writable, gets `KernelBuildError`.

Once a build has moved its library into place, it unlinks every other
`steploop-*.so` in the cache, the libraries of earlier sources or flags,
so the cache holds one library and not one per source edit. It leaves the
`.steploop-*.tmp` partials alone, so a concurrent build still finishes,
and ignores a file it cannot remove. A process that has loaded a removed
library keeps its mapping.

Importing this module builds and loads nothing; the engine imports it
when it builds its first factor set, for a `CoupledStepper` or a
`PeriodMapOperator`, and the CLI when it writes a space-time table.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from .errors import KernelBuildError

SOURCE = Path(__file__).with_name("steploop.c")
CACHE = Path(__file__).with_name("__pycache__")
COMPILER = "cc"
# no -march and no fast-math: every operation rounds as numpy's does, and none is fused
FLAGS = ("-std=c99", "-O3", "-ffp-contract=off", "-fPIC", "-shared")

# bytes of the longest number text, "-2.2250738585072014e-308", and its separator (CELL in steploop.c)
CELL = 25
# bit length of each multiplier in the power-of-5 tables (POW5_BITS in steploop.c)
POW5_BITS = 125

_ERR_NO_COMPILER = "cannot build the compiled step loop: no C compiler {compiler!r} ({reason})"
_ERR_COMPILER = "cannot build the compiled step loop: {compiler} exited with status {code}: {stderr}"
_ERR_CACHE = "cannot build the compiled step loop in {cache}: {reason}"
_ERR_LOAD = "cannot load the compiled step loop {path}: {reason}"


class Table(ctypes.Structure):
    """A coefficient table read in place: its first value and its element strides per time level and per node."""

    _fields_ = [("values", ctypes.c_void_p), ("level", ctypes.c_long), ("node", ctypes.c_long)]


class Stepper(ctypes.Structure):
    """What the loop reads of a `CoupledStepper`: `struct stepper` in `steploop.c`."""

    _fields_ = [
        ("n", ctypes.c_long), ("system", ctypes.c_long), ("infected", ctypes.c_long), ("guard", ctypes.c_double),
        *((name, Table) for name in ("b", "gain", "beta", "gamma", "minus_loss")),
        *((name, ctypes.c_void_p) for name in ("pred_d", "pred_e", "corr_d", "corr_e", "w", "dt_w", "half_w")),
        ("clamps", ctypes.c_long),
    ]


def library_path(source: bytes, cache: Path, flags: tuple[str, ...]) -> Path:
    """The cached library of this source, built with these flags."""
    key = hashlib.sha256(b"\0".join((source, *(flag.encode() for flag in flags)))).hexdigest()[:16]
    return cache / f"steploop-{key}.so"


def build(cache: Path, compiler: str, flags: tuple[str, ...]) -> Path:
    """The cached library of the current source built with `flags`, compiled first if it is not there yet.

    Raises:
        KernelBuildError: no compiler, a failed compilation, or a cache
            directory that cannot be written.
    """
    source = SOURCE.read_bytes()
    target = library_path(source, cache, flags)
    if target.exists():
        return target
    try:
        cache.mkdir(parents=True, exist_ok=True)
        handle, partial = tempfile.mkstemp(prefix=f".{target.stem}-", suffix=".tmp", dir=cache)
        os.close(handle)
    except OSError as exc:
        raise KernelBuildError(_ERR_CACHE.format(cache=cache, reason=exc)) from exc
    try:
        # the hashed bytes themselves are compiled, from stdin
        try:
            run = subprocess.run([compiler, *flags, "-o", partial, "-x", "c", "-"], input=source,
                                 capture_output=True, check=False)
        except OSError as exc:
            raise KernelBuildError(_ERR_NO_COMPILER.format(compiler=compiler, reason=exc)) from exc
        if run.returncode != 0:
            stderr = run.stderr.decode(errors="replace").strip()
            raise KernelBuildError(_ERR_COMPILER.format(compiler=compiler, code=run.returncode, stderr=stderr))
        os.chmod(partial, 0o755)  # mkstemp made it private; the library is for every user of the package
        os.replace(partial, target)
    finally:
        Path(partial).unlink(missing_ok=True)
    for stale in cache.glob("steploop-*.so"):
        if stale != target:
            with contextlib.suppress(OSError):
                stale.unlink()
    return target


def load(cache: Path, compiler: str, flags: tuple[str, ...]) -> ctypes.CDLL:
    """The library from `build`, loaded, with the signatures of its entry points declared."""
    path = build(cache, compiler, flags)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelBuildError(_ERR_LOAD.format(path=path, reason=exc)) from exc
    stepper, index, pointer = ctypes.POINTER(Stepper), ctypes.c_long, ctypes.c_void_p
    lib.evosis_steps.argtypes = [stepper, index, index, pointer, pointer, pointer, pointer]
    lib.evosis_steps.restype = ctypes.c_long
    lib.evosis_period_map.argtypes = [pointer, pointer, pointer, index, index, index, pointer, pointer, pointer,
                                      pointer]
    lib.evosis_period_map.restype = None
    lib.evosis_factor.argtypes = [pointer, pointer, pointer, index, index, index]
    lib.evosis_factor.restype = None
    lib.evosis_space_time_csv.argtypes = [pointer, index, index, pointer, index, ctypes.POINTER(Table), index,
                                          pointer, pointer, pointer, pointer]
    lib.evosis_space_time_csv.restype = ctypes.c_long
    return lib


@functools.cache
def library() -> ctypes.CDLL:
    """The compiled loop, built into CACHE with COMPILER and FLAGS at the first call of the process."""
    return load(CACHE, COMPILER, FLAGS)


@functools.cache
def powers_of_five() -> tuple[np.ndarray, np.ndarray]:
    """Ryu's multiplier tables, one row of two 64-bit words (low word first) per power, exact.

    `pow5[i]` is 5^i scaled by a power of two to POW5_BITS bits, truncated,
    for the doubles below 1 (i up to 325, at the smallest exponent);
    `pow5_inv[q]` is 2^(POW5_BITS - 1 + bits(5^q)) / 5^q rounded up, for
    the doubles above 1 (q up to 290, at the largest).
    """
    def words(values: list[int]) -> np.ndarray:
        return np.array([(value & (2**64 - 1), value >> 64) for value in values], dtype=np.uint64)

    powers = [5**i for i in range(326)]
    pow5 = [power >> (power.bit_length() - POW5_BITS) if power.bit_length() > POW5_BITS
            else power << (POW5_BITS - power.bit_length()) for power in powers]
    pow5_inv = [(1 << (POW5_BITS - 1 + power.bit_length())) // power + 1 for power in powers[:291]]
    return words(pow5), words(pow5_inv)


def space_time_csv(times: Any, nodes: Any, *columns: Any) -> memoryview:
    """The body of a space-time CSV table: the bytes of its lines t,y,v..., without the header.

    There is one line per node y for every stride-th time t, stride =
    max(1, (times.size - 1) // 64), so about 64 time slices. Each column is
    a (times.size, nodes.size) table of floats, read in place by its
    strides in any layout, and every number is written as `repr` writes
    it: the shortest digits that read back as the same double.

    Raises:
        ValueError: a column whose shape is not (times.size, nodes.size).
        KernelBuildError: the compiled loop cannot be built or loaded.
    """
    times = np.ascontiguousarray(times, dtype=float)
    nodes = np.ascontiguousarray(nodes, dtype=float)
    tables = [np.asarray(column, dtype=float) for column in columns]
    for table in tables:
        if table.shape != (times.size, nodes.size):
            raise ValueError(f"a space-time column of shape {table.shape} on {times.size} times "
                             f"and {nodes.size} nodes")
    stride = max(1, (times.size - 1) // 64)
    lines = -(-times.size // stride) * nodes.size
    body = np.empty(lines * (2 + len(tables)) * CELL, dtype=np.uint8)
    work = np.empty(nodes.size * CELL, dtype=np.uint8)
    pow5, pow5_inv = powers_of_five()
    views = (Table * len(tables))(*(Table(table.ctypes.data, *(step // table.itemsize for step in table.strides))
                                    for table in tables))
    size = library().evosis_space_time_csv(times.ctypes.data, times.size, stride, nodes.ctypes.data, nodes.size,
                                           views, len(tables), pow5.ctypes.data, pow5_inv.ctypes.data,
                                           work.ctypes.data, body.ctypes.data)
    return memoryview(body)[:size]
