"""Ordered maps over forked worker processes, and the BLAS pin.

``map(fn, items, workers)`` returns ``[fn(item) for item in items]``.  With
more than one worker and at least two items it runs the items on
``min(workers, len(items))`` processes forked from the caller for this one
call.  ``fn`` and the items reach the workers by fork inheritance, so
closures need not pickle; only item indices go out and results come back,
over one pipe per worker, with no helper thread: each idle worker takes the
next index.  Results come back in item order, and an exception raised by
``fn`` in a worker is re-raised in the caller with its type and message.  A
call made inside a worker runs serially, so pools never nest.  Where
``fork`` is not an available start method every call runs serially.

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
from multiprocessing.connection import Connection, wait
from pathlib import Path
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_CAN_FORK = "fork" in multiprocessing.get_all_start_methods()
_OPENBLAS_SET_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads",
)

# True in a forked worker.
_in_worker = False
# The largest sum of one map's worker peaks (KiB) so far, process-wide like
# RUSAGE_SELF.  Maps run one after another, so the workers of two maps are
# never alive together.
_workers_peak_kb = 0


def _serve(fn: Callable, items: list, conn: Connection, parent_ends: list[Connection]) -> None:
    """A worker's loop: an index in, (index, ok, result or exception, peak
    RSS) out, until the caller closes its end."""
    global _in_worker
    _in_worker = True
    for end in parent_ends:
        end.close()
    while True:
        try:
            index = conn.recv()
        except EOFError:
            return
        try:
            reply = (index, True, fn(items[index]))
        except Exception as exc:  # noqa: BLE001 - re-raised in the caller
            reply = (index, False, exc)
        conn.send((*reply, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))


def map(fn: Callable[[T], R], items: Iterable[T], workers: int) -> list[R]:  # noqa: A001 - the ordered map
    """``[fn(item) for item in items]``, on up to ``workers`` forked processes.
    An item that raises ends the map."""
    global _workers_peak_kb
    items = list(items)
    workers = min(workers, len(items))
    if workers < 2 or _in_worker or not _CAN_FORK:
        return [fn(item) for item in items]
    context = multiprocessing.get_context("fork")
    conns: list[Connection] = []
    procs = []
    peaks = [0] * workers
    results: list = [None] * len(items)
    try:
        for _ in range(workers):
            mine, theirs = context.Pipe()
            # Forked, so the arguments are inherited, not pickled.
            proc = context.Process(target=_serve, args=(fn, items, theirs, [*conns, mine]), daemon=True)
            proc.start()
            theirs.close()
            conns.append(mine)
            procs.append(proc)
        idle, busy = list(range(workers)), []
        sent = 0
        while sent < len(items) or busy:
            while idle and sent < len(items):
                worker = idle.pop()
                conns[worker].send(sent)
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
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join()
    return results


def peak_rss_kb() -> int:
    """This process's peak RSS plus the summed peaks of the workers of its
    largest map, in KiB.  An upper bound: pages a worker shares
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
