"""Ordered maps over forked worker processes, and the BLAS pin.

``map(fn, items, workers)`` returns ``[fn(item) for item in items]``.  With
more than one worker and at least two items it runs the items on
``min(workers, len(items))`` processes forked from the caller.  ``fn``
reaches the workers by fork inheritance, so closures need not pickle; only
the items go out and the results come back.  Results come back in item
order, and an exception raised by ``fn`` in a worker is re-raised in the
caller with its type and message.  A call made inside a worker runs
serially, so pools never nest.  Where ``fork`` is not an available start
method every call runs serially.

``forked(fn, workers)`` keeps one such pool for many maps of the same
``fn``, so a loop of short maps forks its workers once rather than once
per map.  A pool is one pipe per worker and no helper thread; each idle
worker takes the next item.  On a 2-core Xeon a map of ten cheap items
took about 1.5 ms this way, against about 6 ms on a kept
``ProcessPoolExecutor`` and 35 ms on one forked anew per map.

The training step is bound by Python overhead, so threads would only
contend for the interpreter lock; processes do not.  ``pin_blas_threads``
pins every OpenBLAS loaded in the process to one thread, and forked
workers inherit the setting, so the worker count caps the whole
concurrency.

A worker's memory is invisible to the caller's ``RUSAGE_SELF``, so each
worker returns its own peak RSS with its results, and ``peak_rss_kb``
adds the workers' peaks to the caller's own.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import resource
from contextlib import contextmanager
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_CAN_FORK = "fork" in multiprocessing.get_all_start_methods()
_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)

# In a forked worker: the function it serves.  None in the caller.
_worker_fn: Callable | None = None
# The largest sum of one pool's worker peaks (KiB) so far, process-wide like
# RUSAGE_SELF.  Pools run one after another, so the workers of two pools are
# never alive together.
_workers_peak_kb = 0


def _serve(fn: Callable, conn: Connection, parent_ends: list[Connection]) -> None:
    """A worker's loop: (index, item) in, (index, ok, result or exception,
    peak RSS) out, until the caller closes its end."""
    global _worker_fn
    _worker_fn = fn
    for end in parent_ends:
        end.close()
    while True:
        try:
            index, item = conn.recv()
        except EOFError:
            return
        try:
            reply = (index, True, fn(item))
        except Exception as exc:  # noqa: BLE001 - re-raised in the caller
            reply = (index, False, exc)
        conn.send((*reply, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))


@contextmanager
def forked(fn: Callable[[T], R], workers: int) -> Iterator[Callable[[Iterable[T]], list[R]]]:
    """Yield ``run(items) -> [fn(item) for item in items]``; every call runs
    on the same ``workers`` processes, forked on entry.  An item that
    raises ends the pool."""
    if workers < 2 or _worker_fn is not None or not _CAN_FORK:
        yield lambda items: [fn(item) for item in items]
        return
    context = multiprocessing.get_context("fork")
    conns: list[Connection] = []
    procs = []
    peaks = [0] * workers

    def run(items: Iterable[T]) -> list[R]:
        global _workers_peak_kb
        tasks = list(enumerate(items))
        results: list = [None] * len(tasks)
        idle, busy = list(range(workers)), []
        sent = 0
        try:
            while sent < len(tasks) or busy:
                while idle and sent < len(tasks):
                    worker = idle.pop()
                    conns[worker].send(tasks[sent])
                    sent += 1
                    busy.append(worker)
                for conn in wait([conns[w] for w in busy]):
                    worker = conns.index(conn)
                    try:
                        index, ok, value, peaks[worker] = conn.recv()
                    except EOFError:
                        raise RuntimeError(f"worker process {procs[worker].pid} exited unexpectedly") from None
                    if not ok:
                        raise value
                    results[index] = value
                    busy.remove(worker)
                    idle.append(worker)
        except BaseException:
            for proc in procs:
                proc.terminate()
            raise
        finally:
            _workers_peak_kb = max(_workers_peak_kb, sum(peaks))
        return results

    try:
        for _ in range(workers):
            mine, theirs = context.Pipe()
            # Forked, so the arguments are inherited, not pickled.
            proc = context.Process(target=_serve, args=(fn, theirs, [*conns, mine]), daemon=True)
            proc.start()
            theirs.close()
            conns.append(mine)
            procs.append(proc)
        yield run
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()


def map(fn: Callable[[T], R], items: Iterable[T], workers: int) -> list[R]:  # noqa: A001 - the ordered map
    """``[fn(item) for item in items]``, on up to ``workers`` forked processes."""
    items = list(items)
    with forked(fn, min(workers, len(items))) as run:
        return run(items)


def peak_rss_kb() -> int:
    """This process's peak RSS plus the summed peaks of the workers of its
    largest pool, in KiB.  An upper bound: pages a worker shares
    copy-on-write with its parent count once per process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + _workers_peak_kb


def _openblas_paths() -> list[str]:
    """The OpenBLAS libraries mapped into this process (Linux only)."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return []
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.rsplit("/", 1)[-1]}
    return sorted(paths)


def pin_blas_threads() -> None:
    """Pin every OpenBLAS loaded in the process to one thread."""
    for path in _openblas_paths():
        lib = ctypes.CDLL(path)
        setter = next((getattr(lib, name) for name in _OPENBLAS_SET_THREADS if hasattr(lib, name)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
