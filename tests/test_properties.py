"""Property tests over the plan configuration space, judged by the oracle."""

import functools

import numpy as np
import pytest

from efft.core import handle_create, plan_create, run_transform
from efft.leaf_dft import LeafKernel
from efft.oracle import l2_norm, naive_dft, pack_perm
from efft.parallel import BLOCK
from efft.recombine import pieces, reassemble_pair_inplace
from efft.scatter import scatter

from conftest import in_fresh_thread, lane_bytes, random_f32

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@functools.lru_cache(maxsize=None)
def reference(n, seed):
    return pack_perm(naive_dft(random_f32(n, seed)))


@st.composite
def configs(draw):
    """Valid (n, s, T, k_tile, test_mode) with n <= 2^12.

    Outside test mode n must be a multiple of 2**(s+8); in either mode the
    bin size n / 2**s is at least 4.  k_tile need not divide anything, and
    it reaches past m/4, so a level may be one coefficient range or many.
    """
    test_mode = draw(st.booleans())
    log_n = draw(st.integers(2 if test_mode else 8, 12))
    splits = draw(st.integers(0, log_n - 2 if test_mode else log_n - 8))
    return dict(
        n=1 << log_n,
        splits=splits,
        workers=draw(st.sampled_from([1, 2, 3])),
        k_tile=draw(st.integers(1, 600)),
        test_mode=test_mode,
    )


def transform(cfg, x, workers):
    plan = plan_create(cfg["n"], cfg["splits"], workers, test_mode=cfg["test_mode"],
                       k_tile=cfg["k_tile"])
    with handle_create(plan) as h:
        h.data[:] = x
        return np.array(run_transform(h))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(cfg=configs(), seed=st.integers(0, 2))
# A merge that writes a product into one of its own operands fails here.
@hypothesis.example(cfg={'n': 32, 'splits': 1, 'workers': 2, 'k_tile': 1, 'test_mode': True},
                    seed=1)
def test_any_configuration_matches_oracle_and_one_worker(cfg, seed):
    x = random_f32(cfg["n"], seed)
    out = transform(cfg, x, cfg["workers"])
    assert l2_norm(out.astype(np.float64), reference(cfg["n"], seed)) <= 1e-6
    assert np.array_equal(out, transform(cfg, x, 1))


def replay_equals_run_transform(cfg, x):
    # The serial stage-by-stage replay the benchmark's traced run performs:
    # scatter, each bin's leaf, then every segment's merge, deepest first,
    # all sized from the plan.
    plan = plan_create(cfg["n"], cfg["splits"], cfg["workers"], test_mode=cfg["test_mode"],
                       k_tile=cfg["k_tile"])
    n, binsize = plan.n, plan.binsize
    buf = np.empty(n, dtype=np.float32)
    scatter(x, buf, plan, pool=None)
    kernel = LeafKernel(binsize)
    for lo in range(0, n, binsize):
        kernel.transform(buf[lo:lo + binsize])
    length = 2 * binsize
    while length <= n:
        for lo in range(0, n, length):
            reassemble_pair_inplace(buf[lo:lo + length], length // 2, plan.k_tile)
        length *= 2
    with handle_create(plan) as h:
        h.data[:] = x
        return np.array_equal(buf, run_transform(h))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(cfg=configs(), seed=st.integers(0, 2))
def test_public_stages_replay_run_transform(cfg, seed):
    assert replay_equals_run_transform(cfg, random_f32(cfg["n"], seed))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(cfg=configs(), seed=st.integers(0, 2), e=st.integers(-90, 90))
def test_scaling_by_a_power_of_two_is_exact(cfg, seed, e):
    # A leaf's 1/m and its rescale by m are exact while values stay normal.
    x = random_f32(cfg["n"], seed)
    scale = np.float32(2.0 ** e)
    out = transform(cfg, x, cfg["workers"])
    assert np.array_equal(transform(cfg, x * scale, cfg["workers"]), out * scale)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(cfg=configs())
def test_the_handle_owns_every_lane_and_frees_it(cfg):
    plan = plan_create(cfg["n"], cfg["splits"], cfg["workers"], test_mode=cfg["test_mode"],
                       k_tile=cfg["k_tile"])
    n, m, T = plan.n, plan.binsize, plan.workers
    signal = 4 * (-(-n // 16) * 16 + n)
    leaf = 8 * max(1, min(BLOCK // (4 * m), plan.bins)) * (m // 2 + 1)
    merge = 48 * min(BLOCK // 8, n // 8)

    def check():
        handle, first, second, left = lane_bytes(plan, random_f32(n, 0))
        assert handle == signal + T * leaf
        # One set of merge lanes for each worker that ran a merge piece.
        if plan.splits:
            assert first % merge == 0 and 1 <= first // merge <= T
        else:
            assert first == 0
        assert second == left == 0

    in_fresh_thread(check)


def tile(ranges, start, stop):
    """True if the sorted (lo, hi) ranges cover [start, stop) exactly once."""
    return (ranges[0][0] == start and ranges[-1][1] == stop
            and all(lo < hi for lo, hi in ranges)
            and all(a[1] == b[0] for a, b in zip(ranges, ranges[1:])))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(segments=st.integers(1, 1 << 10), log_m=st.integers(2, 20),
                  k_tile=st.integers(1, 600))
def test_pieces_cover_every_pair_once_within_a_block(segments, log_m, k_tile):
    m, cap = 1 << log_m, BLOCK // 8
    # A (segments, 2m) view holding each row's index, backed by one row of memory.
    rows = np.broadcast_to(np.arange(segments)[:, None], (segments, 2 * m))
    groups = {}
    for group, piece_m, ka, kb in pieces(rows, m, k_tile):
        r0, r1 = int(group[0, 0]), int(group[-1, 0]) + 1
        assert piece_m == m
        assert np.array_equal(group[:, 0], np.arange(r0, r1))
        assert (r1 - r0) * (kb - ka) <= cap
        assert (ka - 1) % min(k_tile, cap) == 0
        groups.setdefault((r0, r1), []).append((ka, kb))
    # The row groups tile the rows, and each group's runs tile k = 1..m/4.
    assert tile(sorted(groups), 0, segments)
    assert all(tile(sorted(ks), 1, m // 4 + 1) for ks in groups.values())
