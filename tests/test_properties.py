"""Property tests over the plan configuration space, judged by the oracle."""

import functools

import numpy as np
import pytest

from efft.core import handle_create, plan_create
from efft.oracle import l2_norm, naive_dft, pack_perm

from conftest import random_f32

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@functools.lru_cache(maxsize=None)
def reference(n, seed):
    return pack_perm(naive_dft(random_f32(n, seed)))


@st.composite
def configs(draw):
    """Valid (n, s, T, i_tile, k_tile, test_mode) with n <= 2^12.

    Outside test mode n must be a multiple of 2**(s+8); in either mode the
    bin size n / 2**s is at least 4.  Tiles need not divide anything, and
    k_tile reaches past m/4 so that merges take the basic-kernel path
    (m < 4*k_tile) as well as the in-place one.
    """
    test_mode = draw(st.booleans())
    log_n = draw(st.integers(2 if test_mode else 8, 12))
    splits = draw(st.integers(0, log_n - 2 if test_mode else log_n - 8))
    return dict(
        n=1 << log_n,
        splits=splits,
        workers=draw(st.sampled_from([1, 2, 3])),
        i_tile=draw(st.integers(1, 40)),
        k_tile=draw(st.integers(1, 600)),
        test_mode=test_mode,
    )


def transform(cfg, x, workers):
    plan = plan_create(cfg["n"], cfg["splits"], workers, test_mode=cfg["test_mode"],
                       i_tile=cfg["i_tile"], k_tile=cfg["k_tile"])
    with handle_create(plan) as h:
        h.data[:] = x
        return np.array(h.run())


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(cfg=configs(), seed=st.integers(0, 2))
def test_any_configuration_matches_oracle_and_one_worker(cfg, seed):
    x = random_f32(cfg["n"], seed)
    out = transform(cfg, x, cfg["workers"])
    assert l2_norm(out.astype(np.float64), reference(cfg["n"], seed)) <= 1e-6
    assert np.array_equal(out, transform(cfg, x, 1))
