"""Tests that a handle owns every per-worker lane, sized by its plan, and frees it."""

import importlib
import threading

import numpy as np
import pytest

from efft import errors
from efft.core import handle_create, plan_create, run_transform
from efft.recombine import reassemble_pair_inplace

from conftest import in_fresh_thread, lane_bytes, live_bytes, random_f32


@pytest.mark.parametrize("n, splits, workers, handle, first", [
    (2 ** 12, 2, 1, 49_184, 24_576),
    (2 ** 12, 0, 2, 65_552, 0),
    (2 ** 10, 2, 2, 16_448, 6_144),     # the benchmark's tiny test workload
])
def test_handle_and_first_run_bytes(n, splits, workers, handle, first):
    # The signal block plus leaf lanes for the plan's bins; merge lanes for
    # at most n/8 pairs, on the first run only; nothing left after release.
    def check():
        x = random_f32(n, 3)
        assert lane_bytes(plan_create(n, splits, workers), x) == (handle, first, 0, 0)

    in_fresh_thread(check)


def test_one_handle_run_from_three_threads_leaves_nothing_live():
    plan = plan_create(2 ** 12, 2, workers=2)
    x = random_f32(plan.n, 4)
    ran, done, outs = threading.Semaphore(0), threading.Event(), []

    def runner():
        try:
            outs.append(np.array(run_transform(handle)))
        finally:
            ran.release()
        done.wait()     # alive until the check, so nothing it kept is freed yet

    start = live_bytes()
    handle = handle_create(plan)
    handle.data[:] = x
    threads = [threading.Thread(target=runner) for _ in range(3)]
    try:
        for t in threads:       # in turn: one handle runs one transform at a time
            t.start()
            ran.acquire()
        handle.close()
        del handle
        assert live_bytes() == start
    finally:
        done.set()
        for t in threads:
            t.join()
    assert len(outs) == 3
    assert all(np.array_equal(out, outs[0]) for out in outs)


def test_reassemble_pair_inplace_leaves_nothing_live():
    def check():
        seg = random_f32(2 ** 13, 5)
        start = live_bytes()
        reassemble_pair_inplace(seg, 2 ** 12)
        assert live_bytes() == start

    in_fresh_thread(check)


def test_failed_merge_lanes_leave_the_handle_reusable(monkeypatch):
    core = importlib.import_module("efft.core")
    real, made = core.MergeLanes, []

    def lanes(cap):
        made.append(cap)
        if len(made) == 1:
            raise errors.AllocationFailure("cannot allocate the merge lanes")
        return real(cap)

    monkeypatch.setattr(core, "MergeLanes", lanes)
    plan = plan_create(2 ** 12, 2, workers=2)
    x = random_f32(plan.n, 6)
    with handle_create(plan) as handle:
        handle.data[:] = x
        with pytest.raises(errors.AllocationFailure):
            run_transform(handle)
        assert not handle._lock.locked()
        out = np.array(run_transform(handle))
    with handle_create(plan) as fresh:
        fresh.data[:] = x
        assert np.array_equal(out, run_transform(fresh))
