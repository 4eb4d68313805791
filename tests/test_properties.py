"""Property tests over the plan configuration space, judged by the oracle."""

import functools

import numpy as np
import pytest

from efft.core import handle_create, plan_create, run_transform
from efft.leaf_dft import LeafKernel
from efft.oracle import l2_norm, naive_dft, pack_perm
from efft.recombine import reassemble_pair_inplace
from efft.scatter import scatter

from conftest import random_f32

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


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(cfg=configs(), seed=st.integers(0, 2))
def test_public_stages_replay_run_transform(cfg, seed):
    # The serial stage-by-stage replay the benchmark's traced run performs:
    # scatter, each bin's leaf, then every segment's merge, deepest first.
    n, binsize = cfg["n"], cfg["n"] >> cfg["splits"]
    plan = plan_create(n, cfg["splits"], cfg["workers"], test_mode=cfg["test_mode"],
                       k_tile=cfg["k_tile"])
    x = random_f32(n, seed)
    buf = np.empty(n, dtype=np.float32)
    scatter(x, buf, plan, pool=None)
    kernel = LeafKernel(binsize)
    for lo in range(0, n, binsize):
        kernel.transform(buf[lo:lo + binsize])
    length = 2 * binsize
    while length <= n:
        for lo in range(0, n, length):
            reassemble_pair_inplace(buf[lo:lo + length], length // 2, cfg["k_tile"])
        length *= 2
    with handle_create(plan) as h:
        h.data[:] = x
        assert np.array_equal(buf, run_transform(h))
