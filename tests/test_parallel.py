"""Ordered maps over forked workers."""

import os
import resource
import time

import pytest

from mldistill import parallel
from mldistill.errors import DataError


def test_results_in_item_order_when_items_finish_out_of_order():
    def slow_first(x):
        time.sleep(0.3 if x == 0 else 0.0)
        return x * x, os.getpid(), time.monotonic()

    out = parallel.map(slow_first, range(4), 2)
    assert [value for value, _, _ in out] == [0, 1, 4, 9]
    assert out[0][2] > out[1][2]  # item 0 finished after item 1
    assert os.getpid() not in {pid for _, pid, _ in out}


def test_closures_reach_workers_without_pickling():
    offsets = {"a": 10}
    assert parallel.map(lambda x: x + offsets["a"], [1, 2, 3], 3) == [11, 12, 13]


@pytest.mark.parametrize("error", [ValueError, DataError])
def test_worker_exception_reraised_with_type_and_message(error):
    def fail_on_two(x):
        if x == 2:
            raise error(f"bad item {x}")
        return x

    with pytest.raises(error, match="bad item 2") as info:
        parallel.map(fail_on_two, range(4), 2)
    assert type(info.value) is error


def test_worker_that_dies_is_an_error():
    def exit_on_one(x):
        if x == 1:
            os._exit(1)
        return x

    with pytest.raises(RuntimeError, match="exited unexpectedly"):
        parallel.map(exit_on_one, range(3), 2)


def test_one_worker_or_one_item_runs_in_the_caller():
    assert parallel.map(lambda _: os.getpid(), range(3), 1) == [os.getpid()] * 3
    assert parallel.map(lambda _: os.getpid(), [0], 4) == [os.getpid()]
    assert parallel.map(lambda _: os.getpid(), [], 4) == []


def test_nested_call_in_a_worker_runs_serially():
    def inner_pids(_):
        return os.getpid(), parallel.map(lambda _: os.getpid(), range(3), 2)

    for pid, inner in parallel.map(inner_pids, range(2), 2):
        assert pid != os.getpid()
        assert inner == [pid] * 3


def test_peak_counts_the_workers(monkeypatch):
    monkeypatch.setattr(parallel, "_workers_peak_kb", 0)
    peaks = parallel.map(lambda _: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, range(2), 2)
    assert parallel.peak_rss_kb() >= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + min(peaks)
