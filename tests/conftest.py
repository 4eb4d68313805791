"""Shared helpers for the test suite."""

import gc
import threading

import numpy as np
import pytest

from efft import memory
from efft.core import handle_create, run_transform


def random_f32(n, seed):
    rng = np.random.default_rng(seed)
    return rng.random(n, dtype=np.float32) - np.float32(0.5)


def naive_even_odd_scatter(x, splits):
    """Reference bin reordering: one even/odd separation per level.

    Level d splits every current segment into its even-indexed elements
    followed by its odd-indexed elements; applying this `splits` times
    yields the bin layout the one-pass tiled scatter must reproduce.
    """
    out = np.array(x, copy=True)
    seglen = out.shape[0]
    for _ in range(splits):
        nxt = out.copy()
        for start in range(0, out.shape[0], seglen):
            seg = out[start:start + seglen]
            nxt[start:start + seglen // 2] = seg[0::2]
            nxt[start + seglen // 2:start + seglen] = seg[1::2]
        out = nxt
        seglen //= 2
    return out


def live_bytes():
    """Aligned bytes live once garbage is collected."""
    gc.collect()
    return memory._live_bytes


@pytest.fixture(autouse=True)
def no_aligned_bytes_leak():
    """Fail any test that leaves more aligned bytes live than it found."""
    before = live_bytes()
    yield
    leaked = live_bytes() - before
    if leaked > 0:
        pytest.fail(f"{leaked} aligned bytes live after the test")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def in_fresh_thread(check):
    """Run check() in a new thread, still alive while check asserts.

    A thread that has never merged holds no state from earlier tests, and
    one that is still alive has not yet freed anything it keeps per thread.
    """
    raised = []

    def main():
        try:
            check()
        except BaseException as exc:
            raised.append(exc)

    thread = threading.Thread(target=main)
    thread.start()
    thread.join()
    if raised:
        raise raised[0]


def lane_bytes(plan, x):
    """Live-byte deltas over one handle's life.

    Returns the bytes that creation, the first run and the second run add,
    and the bytes still live after close and release.
    """
    start = live_bytes()
    handle = handle_create(plan)
    handle.data[:] = x
    marks = [live_bytes()]
    for _ in range(2):
        run_transform(handle)
        marks.append(live_bytes())
    handle.close()
    del handle
    return marks[0] - start, marks[1] - marks[0], marks[2] - marks[1], live_bytes() - start


def worker_threads():
    return {t for t in threading.enumerate() if t.name.startswith("efft-worker-")}


@pytest.fixture
def third_thread_refused(monkeypatch):
    """Make the third Thread.start raise, as when the OS refuses a thread.

    Yields the threads whose start was called, the refused one last.
    """
    start, calls = threading.Thread.start, []

    def flaky_start(thread):
        calls.append(thread)
        if len(calls) == 3:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", flaky_start)
    yield calls
