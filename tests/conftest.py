"""Shared helpers for the test suite."""

import threading

import numpy as np
import pytest


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


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
