"""The process thread budget: usable cores, one BLAS thread, one malloc arena.

The engines fan independent work — backbone chunks, similarity tiles,
base-model fits — over ``n_jobs`` Python threads, and every one of those
tasks is a loop of small GEMMs.  A multi-threaded OpenBLAS would split
each GEMM over the very cores the pool already keeps busy, so a process
that fans out runs BLAS on one thread instead (:func:`pin_thread_budget`).

Only numpy's bundled OpenBLAS is pinned.  scipy loads a second OpenBLAS
of its own; the engines' hot loops never call into it.
"""

from __future__ import annotations

import ctypes
import os
from typing import Any

__all__ = ["usable_cores", "blas_threads", "set_blas_threads", "pin_thread_budget"]

#: ``M_ARENA_MAX`` from glibc's ``<malloc.h>``.
_M_ARENA_MAX = -8


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity set, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _numpy_blas(symbol: str) -> Any:
    """``symbol`` in the OpenBLAS numpy links against, or ``None``.

    Looked up through numpy's own extension module, so the symbol
    resolves in numpy's OpenBLAS and never in the copy scipy loads.
    """
    try:
        from numpy._core import _multiarray_umath

        library = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    return getattr(library, symbol, None)


def blas_threads() -> int | None:
    """Threads numpy's OpenBLAS runs each call on (``None`` when unreadable)."""
    getter = _numpy_blas("scipy_openblas_get_num_threads64_")
    if getter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return int(getter())


def set_blas_threads(n: int) -> bool:
    """Run numpy's OpenBLAS on ``n`` threads; ``False`` (and no change)
    when numpy does not link a known OpenBLAS."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    setter = _numpy_blas("scipy_openblas_set_num_threads64_")
    if setter is None:
        return False
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(n)
    return True


def _cap_malloc_arenas() -> None:
    """One glibc malloc arena for the whole process; nothing off glibc.

    numpy allocates while holding the GIL, so per-thread arenas add no
    concurrency: they only keep freed chunk memory resident per thread.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        libc = ctypes.CDLL(None)
        mallopt = libc.mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def pin_thread_budget() -> None:
    """Give the cores to the caller's thread pool: one BLAS thread, one arena.

    Called wherever an ``n_jobs > 1`` pool opens for BLAS-bound work
    (the engines' tile pool and base-fit pool).  Both settings are process-wide and idempotent, so concurrent
    engines (one per tenant) may all call it.  Values do not change:
    OpenBLAS splits a GEMM over its output blocks, never over the
    summed axis, so every element is the same sum in the same order at
    any thread count.
    """
    set_blas_threads(1)
    _cap_malloc_arenas()
