"""Process runtime: OpenBLAS threads and the shard thread.

Batches are split into ``SHARDS`` contiguous shards. A sharded region runs
shard 0 on the calling thread while the others run, in order, on one
lazily created pool thread. Every shard runs in a copy of the caller's
context with no graph open (:func:`convattn.tensor.tape_free_context`), so
``using_dtype`` reaches it and nothing records onto a graph the caller
holds. That copy is marked as a shard: a region opened inside a shard runs
its shards in order on the current thread, since the one pool thread may be
the thread waiting for them. Results come back in shard order, so what a
caller computes from them depends on ``SHARDS`` only, never on the machine.

numpy's elementwise passes use one core each, while OpenBLAS would put its
own threads on every core for each small gemm. Inside a sharded region
OpenBLAS is therefore held at one thread, through the thread-count symbols
of the OpenBLAS build numpy bundles (``numpy.libs/libscipy_openblas64_*``),
and the previous count is restored on exit. Where those symbols are
missing, the shards run one after another on the caller.

Importing the package also sets two process-wide glibc malloc thresholds:
``M_TRIM_THRESHOLD`` to 256 MiB and ``M_MMAP_THRESHOLD`` to 64 MiB. A
training step lives on multi-MiB temporaries (the positional mixer's
u = x M, the MLP activations; general attention's Y and mix Z are only
slice-sized, see ``blocks._SLICE_BYTES``); under
glibc's dynamic mmap threshold each of them is a fresh mapping that pays
its page faults again every step, while with the thresholds set freed
pages stay in the heap for the next step to reuse. The settings hold for
every later allocation in the process, the host program's included. They
are made only where the C library is glibc; elsewhere nothing is set.
:func:`describe` reports what was set.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .tensor import tape_free_context

__all__ = ["SHARDS", "blas_threads", "shard_slices", "run_shards", "describe"]

SHARDS = 2  # shards per batch; fixes the training bits

# mallopt parameter numbers from glibc's malloc.h, with the values set
_MALLOC_THRESHOLDS = {"M_TRIM_THRESHOLD": (-1, 256 << 20), "M_MMAP_THRESHOLD": (-3, 64 << 20)}


def _set_malloc_thresholds() -> dict:
    """Set glibc's trim and mmap thresholds; returns the ones set, by name."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name, off glibc
        glibc = None
    if not glibc:
        return {}
    mallopt = ctypes.CDLL("libc.so.6").mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return {name: value for name, (param, value) in _MALLOC_THRESHOLDS.items() if mallopt(param, value) == 1}


_MALLOC_SET = _set_malloc_thresholds()


def _find_openblas():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_OPENBLAS = _find_openblas()

# Regions may overlap across caller threads: the first to enter saves the
# OpenBLAS count and the last to leave restores it.
_lock = threading.Lock()
_regions = 0
_saved_threads = 0
_pool = None

# True in every shard's context, so a nested run_shards can see it.
_IN_SHARD: ContextVar[bool] = ContextVar("convattn_in_shard", default=False)


def blas_threads() -> int | None:
    """OpenBLAS's current thread count; None without thread control."""
    return _OPENBLAS[0]() if _OPENBLAS is not None else None


def shard_slices(n: int) -> list[slice]:
    """``SHARDS`` contiguous slices of ``range(n)``, sizes differing by at
    most one, empty ones left out."""
    bounds = [(i * n) // SHARDS for i in range(SHARDS + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:]) if b > a]


@contextmanager
def _one_blas_thread():
    global _regions, _saved_threads
    get, set_ = _OPENBLAS
    with _lock:
        if _regions == 0:
            _saved_threads = get()
            set_(1)
        _regions += 1
    try:
        yield
    finally:
        with _lock:
            _regions -= 1
            if _regions == 0:
                set_(_saved_threads)


def _get_pool():
    global _pool
    with _lock:
        if _pool is None:
            # imported here: concurrent.futures pulls in logging, which would
            # add to every process's set-up time
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="convattn-shard")
        return _pool


def run_shards(fn, shards: list) -> list:
    """``[fn(s) for s in shards]``: shard 0 on the caller, the rest on the
    pool thread at the same time, each in its own tape-free copy of the
    caller's context. Returns once every shard is done; if a shard failed,
    its error is raised. Called from inside a shard, it runs the shards in
    order on the current thread.
    """
    runs = [(tape_free_context(), shard) for shard in shards]
    for ctx, _ in runs:
        ctx.run(_IN_SHARD.set, True)
    if len(runs) < 2 or _OPENBLAS is None or _IN_SHARD.get():
        return [ctx.run(fn, shard) for ctx, shard in runs]
    with _one_blas_thread():
        rest = _get_pool().submit(lambda: [ctx.run(fn, shard) for ctx, shard in runs[1:]])
        try:
            first = runs[0][0].run(fn, runs[0][1])
        finally:
            rest.exception()  # no shard outlives the region's BLAS setting
        return [first, *rest.result()]


def describe() -> dict:
    """The runtime a sharded region gets, and the malloc thresholds set at
    import (empty off glibc), for run manifests."""
    outside = blas_threads()
    parallel = SHARDS > 1 and _OPENBLAS is not None
    return {
        "shards": SHARDS,
        "workers": 2 if parallel else 1,
        "blas_thread_control": _OPENBLAS is not None,
        "blas_threads_outside_shards": outside,
        "blas_threads_in_shards": 1 if parallel else outside,
        "malloc_thresholds": dict(_MALLOC_SET),
    }
