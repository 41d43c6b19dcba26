"""Pin numpy's OpenBLAS to one thread while experiments train.

Every thread that trains clients (a repeat's client groups, or the families of
``fedsim run --threads N``) would otherwise start BLAS threads of its own, so
a run would use more CPUs than its ``--threads`` budget and its threads would
oversubscribe them: on 2 vCPUs, two client-group threads at the paper's shapes
train a round about twice as slowly with two OpenBLAS threads each. So every
experiment runs its BLAS calls on one thread, and parallelism comes from
fedsim's own threads alone.

The thread count of OpenBLAS is process-wide, so the pin is one counted
scope: the first experiment to enter saves the count and sets 1, the last to
leave restores it. The setter is looked up with ctypes in the OpenBLAS that
the numpy wheel bundles (``numpy.libs`` on Linux and Windows, ``numpy/.dylibs``
on macOS), and only if numpy has already loaded it. With any other BLAS the
pin does nothing. The pin also fixes the bits: OpenBLAS can give a GEMM other
last bits on several threads than on one (on a 2-vCPU host with OpenBLAS
0.3.31, most entries of a 256 x 463 by 463 x 200 product differ between 1 and
2 threads). Outputs are bit-identical because every experiment runs inside
the pin; scores computed outside it, or under a BLAS it cannot set, may
differ in their last bits.
"""
from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np


@functools.cache
def _openblas() -> tuple[str | None, object, object]:
    """(library file name, setter, getter) of numpy's loaded OpenBLAS, or (None, None, None)."""
    root = Path(np.__file__).parent
    for lib_dir in (root.parent / "numpy.libs", root / ".dylibs"):
        for path in sorted(lib_dir.glob("*openblas*")):
            try:  # RTLD_NOLOAD: only a library numpy already loaded, never a second copy
                lib = ctypes.CDLL(str(path), mode=getattr(os, "RTLD_NOLOAD", 0))
            except OSError:
                continue
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                    getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    if setter is not None and getter is not None:
                        setter.argtypes, setter.restype = [ctypes.c_int], None
                        getter.argtypes, getter.restype = [], ctypes.c_int
                        return path.name, setter, getter
    return None, None, None


def blas_library() -> str | None:
    """File name of the OpenBLAS whose thread count the pin sets; None when there is none."""
    return _openblas()[0]


def blas_threads() -> int | None:
    """OpenBLAS's current thread count, or None when no OpenBLAS was found."""
    _, _, get_threads = _openblas()
    return None if get_threads is None else int(get_threads())


# The thread count is one per process, so the scope that pins it is too.
_lock = threading.Lock()
_depth = 0
_saved = 0


@contextmanager
def one_blas_thread():
    """Run the body with OpenBLAS on one thread; yields the count in force (None if unknown).

    Nested and concurrent scopes share one pin, released when the last one exits.
    """
    global _depth, _saved
    _, set_threads, get_threads = _openblas()
    with _lock:
        if _depth == 0 and set_threads is not None:
            _saved = get_threads()
            set_threads(1)
        _depth += 1
    try:
        yield blas_threads()
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and set_threads is not None:
                set_threads(_saved)
