"""One BLAS thread per calling thread, for code that runs numpy on
threads of its own.

``one_thread_per_caller`` sets the thread count of every OpenBLAS loaded
in the process to 1 for the duration of a block and restores the counts
it found when the last open block exits, error or not. Each GEMM then
runs on the thread that called it, so several calling threads share the
cores instead of each waking the library's own threads. OpenBLAS's
results depend on its thread count for some GEMM shapes; at one thread
they do not depend on how many threads the process was started with.

The library is found on first use, among the shared objects mapped into
the process, and driven through its ``openblas_set_num_threads`` (with
the symbol prefix and suffix of its build). Where none is found (another
BLAS, or no ``/proc/self/maps``), the block yields False and changes
nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# (prefix, suffix) of the thread-count symbols in the known builds:
# scipy-openblas wheels, 64-bit-integer builds, plain libopenblas.
_SYMBOLS = (("scipy_", "64_"), ("", "64_"), ("", ""))

_lock = threading.Lock()
_controls: list | None = None   # (get, set) of each loaded OpenBLAS, found on first use
_open = 0                       # blocks open; the first saves the counts, the last restores them
_saved: list = []


def _thread_controls(path: str):
    """``(get, set)`` of the already loaded library at ``path``, or None."""
    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    for prefix, suffix in _SYMBOLS:
        try:
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def _find_controls() -> list:
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as f:
            fields = [line.split(maxsplit=5) for line in f]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5]).lower()})
    return [c for c in map(_thread_controls, paths) if c is not None]


def _loaded() -> list:
    """``(get, set)`` of each loaded OpenBLAS; call with ``_lock`` held."""
    global _controls
    if _controls is None:
        _controls = _find_controls()
    return _controls


@contextlib.contextmanager
def one_thread_per_caller():
    """Hold BLAS to one thread per caller inside the block; yields whether
    it could. Blocks may nest and may be open on several threads at once."""
    global _open, _saved
    with _lock:
        controls = _loaded()
        if controls:
            if _open == 0:
                _saved = [get() for get, _ in controls]
                for _, set_ in controls:
                    set_(1)
            _open += 1
    if not controls:
        yield False
        return
    try:
        yield True
    finally:
        with _lock:
            _open -= 1
            if _open == 0:
                for (_, set_), n in zip(controls, _saved):
                    set_(n)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def per_sample(params, n: int, task) -> list:
    """``[task(i) for i in range(n)]`` with BLAS held to one thread per
    caller, over one contiguous block of indices per usable core (at most
    ``n``), the first on this thread; where BLAS cannot be held, all on
    this thread. ``params.frozen()`` is built first, not raced for by the
    threads. Results keep index order. Where tasks raise, the lowest
    index's error is raised once every thread has stopped; when an error
    reaches this thread, the blocks still running stop at their next index."""
    params.frozen()
    with one_thread_per_caller() as held:
        blocks = np.array_split(np.arange(n), max(1, min(n, _usable_cores())) if held else 1)
        stop = threading.Event()

        def run(block) -> list:
            return [task(int(i)) for i in block if not stop.is_set()]

        with ThreadPoolExecutor(max(1, len(blocks) - 1)) as pool:   # one block starts no thread
            futures = [pool.submit(run, block) for block in blocks[1:]]
            try:
                out = run(blocks[0])
                for f in futures:
                    out += f.result()
            except BaseException:
                stop.set()
                raise
    return out
