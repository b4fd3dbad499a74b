"""The compiled time-stepping core of the engine, built from `steploop.c` at first use.

It exports three functions, and `load` declares the argument types of
each: `evosis_steps`, the period loop of the coupled stepper;
`evosis_period_map`, the period map's Crank-Nicolson loop; and
`evosis_factor`, the factor recurrence of their tridiagonal systems.
Everything else in the source is `static`.

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

Importing this module builds and loads nothing; the engine imports it
when it builds its first factor set, for a `CoupledStepper` or a
`PeriodMapOperator`.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

from .errors import KernelBuildError

SOURCE = Path(__file__).with_name("steploop.c")
CACHE = Path(__file__).with_name("__pycache__")
COMPILER = "cc"
# no -march and no fast-math: every operation rounds as numpy's does, and none is fused
FLAGS = ("-std=c99", "-O3", "-ffp-contract=off", "-fPIC", "-shared")

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


def library_path(source: bytes, cache: Path) -> Path:
    """The cached library of this source, built with FLAGS."""
    key = hashlib.sha256(b"\0".join((source, *(flag.encode() for flag in FLAGS)))).hexdigest()[:16]
    return cache / f"steploop-{key}.so"


def build(cache: Path, compiler: str) -> Path:
    """The cached library of the current source, compiled first if it is not there yet.

    Raises:
        KernelBuildError: no compiler, a failed compilation, or a cache
            directory that cannot be written.
    """
    source = SOURCE.read_bytes()
    target = library_path(source, cache)
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
            run = subprocess.run([compiler, *FLAGS, "-o", partial, "-x", "c", "-"], input=source,
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
    return target


def load(cache: Path, compiler: str) -> ctypes.CDLL:
    """The library from `build`, loaded, with the signatures of its entry points declared."""
    path = build(cache, compiler)
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
    return lib


@functools.cache
def library() -> ctypes.CDLL:
    """The compiled loop, built into CACHE with COMPILER at the first call of the process."""
    return load(CACHE, COMPILER)
