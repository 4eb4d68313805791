"""Tests for the bin map and the blocked scatter stage."""

import importlib
import math

import numpy as np
import pytest

from efft import errors
from efft.core import plan_create
from efft.parallel import BLOCK, WorkerPool
from efft.scatter import build_scatter_index, scatter

from conftest import naive_even_odd_scatter, random_f32


def test_index_examples():
    assert build_scatter_index(0).tolist() == [0]
    assert build_scatter_index(2).tolist() == [0, 2, 1, 3]
    assert build_scatter_index(3).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]


@pytest.mark.parametrize("s", range(11))
def test_index_is_involution(s):
    table = build_scatter_index(s)
    assert sorted(table.tolist()) == list(range(1 << s))
    assert np.array_equal(table[table], np.arange(1 << s))


def test_negative_splits_rejected():
    with pytest.raises(ValueError):
        build_scatter_index(-1)


# The package re-exports the scatter function under the module's own name.
scatter_module = importlib.import_module("efft.scatter")


def run_scatter(x, plan, pool=None):
    scratch = np.empty(plan.n, dtype=np.float32)
    scatter(x, scratch, plan, pool=pool)
    return scratch


def test_n16_s2_bin_contents():
    plan = plan_create(16, 2, workers=1, test_mode=True)
    out = run_scatter(np.arange(16, dtype=np.float32), plan)
    assert out.reshape(4, 4).tolist() == [
        [0, 4, 8, 12],
        [2, 6, 10, 14],
        [1, 5, 9, 13],
        [3, 7, 11, 15],
    ]


def test_s0_is_verbatim_copy():
    plan = plan_create(64, 0, workers=1, test_mode=True)
    x = random_f32(64, seed=5)
    assert np.array_equal(run_scatter(x, plan), x)


def test_inverse_gather_reconstructs_exactly():
    plan = plan_create(256, 3, workers=1, test_mode=True)
    x = random_f32(256, seed=6)
    out = run_scatter(x, plan)
    sidx = plan.scatter_index
    rebuilt = np.empty_like(x)
    for j in range(plan.bins):
        rebuilt[j::plan.bins] = out[sidx[j] * plan.binsize:(sidx[j] + 1) * plan.binsize]
    assert np.array_equal(rebuilt, x)
    assert np.array_equal(np.sort(out), np.sort(x))


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
@pytest.mark.parametrize("bins", [1, 16, 64])
def test_output_independent_of_workers_and_tile(workers, bins):
    # The rows each chunk moves follow from the block size and the worker count.
    n, s = 1 << 12, bins.bit_length() - 1
    x = random_f32(n, seed=7)
    plan = plan_create(n, s, workers=workers, test_mode=True)
    pool = WorkerPool(workers)
    try:
        assert np.array_equal(run_scatter(x, plan, pool=pool), naive_even_odd_scatter(x, s))
    finally:
        pool.shutdown()


@pytest.mark.parametrize("block", [64, 96])
@pytest.mark.parametrize("workers", [1, 2, 4, 8])
@pytest.mark.parametrize("bins", [1, 16, 64])
def test_output_independent_of_block(workers, bins, block, monkeypatch):
    # Small blocks cut 2^12 elements into 32-64 chunks even at T=1; at 96,
    # which is no power of two, the last chunk is partial for 1 and 16 bins.
    monkeypatch.setattr(scatter_module, "BLOCK", block)
    test_output_independent_of_workers_and_tile(workers, bins)


class RecordingPool:
    """Runs a batch inline, in order, and records its chunks."""

    def __init__(self):
        self.chunks = []

    def parallel_for(self, chunks, body):
        for chunk in chunks:
            self.chunks.append(chunk)
            body(*chunk)


@pytest.mark.parametrize("n, s, workers, block, expected", [
    (1 << 12, 4, 1, 96, 43),        # 42 chunks of 6 rows and a last one of 4
    (1 << 12, 4, 8, BLOCK, 1),      # one block of data is one chunk at any worker count
    (1 << 12, 4, 1, 64, 64),
    (1 << 12, 8, 1, 64, 16),        # a row of 256 outgrows the block: one row each
])
def test_chunks_hold_at_most_one_block(n, s, workers, block, expected, monkeypatch):
    monkeypatch.setattr(scatter_module, "BLOCK", block)
    plan = plan_create(n, s, workers=workers, test_mode=True)
    pool = RecordingPool()
    run_scatter(random_f32(n, seed=3), plan, pool=pool)
    sizes = [(hi - lo) * plan.bins for lo, hi in pool.chunks]
    assert len(sizes) == expected
    assert max(sizes) <= max(block, plan.bins)
    assert sum(sizes) == n


@pytest.mark.parametrize("n", [1 << 8, 1 << 12, 1 << 16])
def test_matches_naive_even_odd_scatter(n):
    x = random_f32(n, seed=n)
    for s in range(int(math.log2(n)) - 1):
        plan = plan_create(n, s, workers=2, test_mode=True)
        assert np.array_equal(run_scatter(x, plan), naive_even_odd_scatter(x, s))


def test_partial_tile_epilogue():
    # binsize 4 gives fewer rows than chunks, so every chunk is a single row
    plan = plan_create(64, 4, workers=1, test_mode=True)
    x = random_f32(64, seed=11)
    assert np.array_equal(run_scatter(x, plan), naive_even_odd_scatter(x, 4))


def test_size_mismatch():
    plan = plan_create(64, 1, workers=1, test_mode=True)
    with pytest.raises(errors.SizeMismatch):
        scatter(np.zeros(32, np.float32), np.zeros(64, np.float32), plan)
    with pytest.raises(errors.SizeMismatch):
        scatter(np.zeros(64, np.float32), np.zeros(32, np.float32), plan)


def test_rejects_non_finite_input():
    plan = plan_create(64, 1, workers=1, test_mode=True)
    x = np.zeros(64, dtype=np.float32)
    x[10] = np.nan
    with pytest.raises(ValueError):
        scatter(x, np.empty(64, dtype=np.float32), plan)
