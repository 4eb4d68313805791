"""Tests for the parallel_for worker pool."""

import sys
import threading
import time

import pytest

from efft.errors import AllocationFailure, EfftError
from efft.parallel import WorkerPool, blocks

from conftest import worker_threads


@pytest.fixture(params=[1, 2, 4])
def pool(request):
    p = WorkerPool(request.param)
    yield p
    p.shutdown()


def test_parallel_for_covers_all_chunks(pool):
    seen = []
    lock = threading.Lock()

    def body(lo, hi):
        with lock:
            seen.append((lo, hi))

    chunks = blocks(0, 100, 7, 16)
    pool.parallel_for(chunks, body)
    assert sorted(seen) == chunks


def test_error_raised_after_every_chunk_finished(pool):
    finished = set()
    lock = threading.Lock()

    def body(lo, _hi):
        if lo == 0:
            raise RuntimeError("inner failure")
        time.sleep(0.02)
        with lock:
            finished.add(lo)

    chunks = [(i, i + 1) for i in range(2 * pool.workers + 1)]
    with pytest.raises(RuntimeError, match="inner failure"):
        pool.parallel_for(chunks, body)
    with lock:
        assert finished == set(range(1, len(chunks)))
    # the pool stays usable after a failed batch
    pool.parallel_for(chunks[1:], lambda lo, hi: None)


def test_back_to_back_batches_run_every_chunk_once(pool):
    counts = [0] * 64
    lock = threading.Lock()

    def body(lo, hi):
        for i in range(lo, hi):
            with lock:
                counts[i] += 1

    def batches():
        for _ in range(200):
            pool.parallel_for(blocks(0, 64, 1, 1), body)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        runner = threading.Thread(target=batches, daemon=True)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert counts == [200] * 64


def test_nested_call_raises(pool):
    def body(_lo, _hi):
        pool.parallel_for([(0, 1)], lambda lo, hi: None)

    with pytest.raises(RuntimeError, match="already running"):
        pool.parallel_for([(0, 1), (1, 2)], body)
    pool.parallel_for([(0, 1)], lambda lo, hi: None)


def test_current_slot_in_range(pool):
    slots = set()
    lock = threading.Lock()

    def record(_lo, _hi):
        with lock:
            slots.add(pool.current_slot())

    pool.parallel_for(blocks(0, 64, 1, 1), record)
    assert all(0 <= s < pool.workers for s in slots)


def test_worker_count_validation():
    with pytest.raises(ValueError):
        WorkerPool(0)


def test_blocks():
    assert blocks(0, 0, 4, 8) == []
    assert blocks(0, 64, 1, 1) == [(i, i + 1) for i in range(64)]
    # the last run holds the remainder
    assert blocks(0, 10, 4, 8) == [(0, 8), (8, 10)]
    assert blocks(0, 10, 1, 4) == [(0, 4), (4, 8), (8, 10)]
    # a size below one step still takes a whole step
    assert blocks(0, 12, 4, 3) == [(0, 4), (4, 8), (8, 12)]
    assert blocks(0, 100, 7, 1000) == [(0, 100)]
    # sizes round down to whole steps counted from start
    assert blocks(3, 40, 8, 20) == [(3, 19), (19, 35), (35, 40)]


def test_shutdown_stops_threads():
    p = WorkerPool(3)
    threads = list(p._threads)
    p.shutdown()
    assert all(not t.is_alive() for t in threads)


def test_failed_thread_start_stops_the_started_threads(third_thread_refused):
    before = worker_threads()
    with pytest.raises(AllocationFailure) as info:
        WorkerPool(5)
    assert isinstance(info.value, EfftError)
    assert len(third_thread_refused) == 3
    assert not any(t.is_alive() for t in third_thread_refused)
    assert worker_threads() <= before
