"""Tests for the serial real-input leaf kernel."""

import gc
import threading
import tracemalloc

import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest

from efft import errors, memory
from efft.core import PermSpectrum
from efft.leaf_dft import LeafKernel
from efft.oracle import l2_norm, naive_dft, naive_dft_at, pack_perm

from conftest import random_f32

LEAF_SIZES = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]


def run_leaf(x):
    buf = np.array(x, dtype=np.float32)
    kernel = LeafKernel(buf.shape[0])
    kernel.transform(buf)
    return buf


def test_impulse_m8():
    out = run_leaf([1, 0, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(out, [1, 1, 1, 0, 1, 0, 1, 0])


def test_constant_m8():
    out = run_leaf(np.ones(8))
    assert np.array_equal(out, [8, 0, 0, 0, 0, 0, 0, 0])


def test_ramp_m8():
    out = run_leaf([1, 2, 3, 4, 5, 6, 7, 8])
    expected = [36, -4, -4, 9.6569, -4, 4, -4, 1.6569]
    assert np.allclose(out, expected, atol=1e-3)
    # the same values, cross-checked against the double-precision reference
    reference = pack_perm(naive_dft(np.arange(1.0, 9.0)))
    assert l2_norm(out.astype(np.float64), reference) < 1e-6


def test_size_mismatch():
    kernel = LeafKernel(8)
    with pytest.raises(errors.SizeMismatch):
        kernel.transform(np.zeros(12, dtype=np.float32))
    with pytest.raises(errors.SizeMismatch):
        kernel.transform(np.zeros(8, dtype=np.float64))


@pytest.mark.parametrize("m", [3, 6, 12, 2, 1])
def test_unsupported_sizes(m):
    with pytest.raises(ValueError):
        LeafKernel(m)


@pytest.mark.parametrize("m", LEAF_SIZES)
def test_oracle_equivalence(m):
    kernel = LeafKernel(m)
    for trial in range(20):
        x = random_f32(m, seed=1000 * m + trial)
        buf = x.copy()
        kernel.transform(buf)
        reference = pack_perm(naive_dft(x))
        assert l2_norm(buf.astype(np.float64), reference) <= 1e-6


@pytest.mark.parametrize("m", LEAF_SIZES)
def test_parseval(m):
    kernel = LeafKernel(m)
    for trial in range(5):
        x = random_f32(m, seed=77 * m + trial)
        buf = x.copy()
        kernel.transform(buf)
        f = buf.astype(np.float64)
        lhs = float(np.sum(x.astype(np.float64) ** 2))
        rhs = (f[0] ** 2 + f[1] ** 2 + 2.0 * np.sum(f[2:] ** 2)) / m
        assert abs(lhs - rhs) / lhs < 1e-5


@pytest.mark.parametrize("m", LEAF_SIZES)
def test_linearity(m):
    kernel = LeafKernel(m)
    x = random_f32(m, seed=m)
    y = random_f32(m, seed=m + 1)
    a, b = np.float32(0.7), np.float32(-1.3)
    combined = (a * x + b * y).astype(np.float32)
    kernel.transform(combined)
    fx, fy = x.copy(), y.copy()
    kernel.transform(fx)
    kernel.transform(fy)
    expected = a * fx.astype(np.float64) + b * fy.astype(np.float64)
    assert l2_norm(combined.astype(np.float64), expected) < 1e-5


@pytest.mark.parametrize("m,q", [(8, 1), (8, 3), (64, 5), (1024, 200)])
def test_pure_tone(m, q):
    x = np.cos(2.0 * np.pi * np.arange(m) * q / m).astype(np.float32)
    buf = x.copy()
    LeafKernel(m).transform(buf)
    tol = 1e-3 * m
    assert abs(buf[2 * q] - m / 2) <= tol
    rest = np.delete(buf.astype(np.float64), 2 * q)
    assert np.max(np.abs(rest)) <= tol


def test_kernels_of_equal_size_agree_bitwise():
    x = random_f32(256, seed=9)
    a, b = x.copy(), x.copy()
    LeafKernel(256).transform(a)
    LeafKernel(256).transform(b)
    assert np.array_equal(a, b)


def test_kernel_reuse_is_stable():
    kernel = LeafKernel(64)
    x = random_f32(64, seed=3)
    first = x.copy()
    kernel.transform(first)
    for _ in range(10):
        buf = x.copy()
        kernel.transform(buf)
        assert np.array_equal(buf, first)


@pytest.mark.parametrize("m", [2 ** 16, 2 ** 18])
def test_spot_checks_at_benchmark_bin_sizes(m):
    """DC, Nyquist and four seeded coefficients against the direct sum."""
    x = random_f32(m, seed=m + 5)
    buf = x.copy()
    LeafKernel(m).transform(buf)
    rng = np.random.default_rng(m)
    ks = [0, m // 2] + [int(k) for k in rng.integers(1, m // 2, size=4)]
    exact = np.array([naive_dft_at(x, k) for k in ks])
    computed = np.array([PermSpectrum(buf).coefficient(k) for k in ks])
    scale = np.maximum(np.abs(exact), np.sqrt(np.mean(np.abs(exact) ** 2)))
    assert np.max(np.abs(computed - exact) / scale) <= 1e-5


def test_leaf_allocates_no_per_call_buffer():
    """No call allocates cast buffers, as numpy's float64 loop would.

    Checked for one bin of 2^14 and for a full call of 8 bins of 2^12.
    """
    for m, k in ((2 ** 14, 1), (2 ** 12, 8)):
        kernel = LeafKernel(m)
        buf = random_f32(k * m, seed=4)
        kernel.transform(buf)
        tracemalloc.start()
        try:
            kernel.transform(buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024, (m, k)


@pytest.mark.parametrize("m,bins", [(4, 8192), (2 ** 12, 8), (2 ** 13, 4), (2 ** 14, 2),
                                    (2 ** 15, 1), (2 ** 16, 1), (2 ** 18, 1)])
def test_bins_per_call_keep_a_call_within_one_block(m, bins):
    # A call reads k*m floats, writes and rereads a lane of k*(m+2), writes k*m.
    assert LeafKernel(m).bins == bins


@st.composite
def batches(draw):
    m = 1 << draw(st.integers(2, 16))
    bins = LeafKernel(m).bins
    k = draw(st.integers(1, bins))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.random(k * m, dtype=np.float32) - np.float32(0.5)
    x *= np.float32(2.0 ** draw(st.integers(-90, 90)))
    for zero in (0.0, -0.0):
        x[rng.integers(0, k * m, size=draw(st.integers(0, k * m)))] = zero
    return m, k, x


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(batch=batches())
def test_batched_call_equals_single_bin_calls_bitwise(batch):
    m, k, x = batch
    kernel = LeafKernel(m)
    batched, single = x.copy(), x.copy()
    kernel.transform(batched)
    for lo in range(0, k * m, m):
        kernel.transform(single[lo:lo + m])
    assert np.array_equal(batched.view(np.uint32), single.view(np.uint32))


def _read_only(n):
    buf = np.zeros(n, np.float32)
    buf.setflags(write=False)
    return buf


BAD_BATCHES = {
    "empty": lambda m, bins: np.zeros(0, np.float32),
    "part-of-a-bin": lambda m, bins: np.zeros(m // 2, np.float32),
    "not-whole-bins": lambda m, bins: np.zeros(m + m // 2, np.float32),
    "above-bins": lambda m, bins: np.zeros((bins + 1) * m, np.float32),
    "strided": lambda m, bins: np.zeros(4 * m, np.float32)[::2],
    "read-only": lambda m, bins: _read_only(2 * m),
    "two-dimensional": lambda m, bins: np.zeros((2, m), np.float32),
}


@pytest.mark.parametrize("case", BAD_BATCHES)
def test_batched_call_rejects_bad_buffers(case):
    kernel = LeafKernel(2 ** 12)
    buf = BAD_BATCHES[case](kernel.m, kernel.bins)
    before = buf.copy()
    with pytest.raises(errors.SizeMismatch):
        kernel.transform(buf)
    assert np.array_equal(buf, before)


def test_live_bytes_count_the_whole_lane():
    # 8 bins of 2^12 hold 8 lanes of 2049 complex64 slots.
    gc.collect()
    before = memory._live_bytes
    kernel = LeafKernel(2 ** 12)
    gc.collect()
    assert memory._live_bytes - before == 8 * 2049 * 8
    del kernel
    gc.collect()
    assert memory._live_bytes == before


def test_concurrent_kernels_agree_bitwise():
    """Two threads transforming the same input at once get the same bits."""
    m = 2 ** 16
    x = random_f32(m, seed=21)
    expected = x.copy()
    LeafKernel(m).transform(expected)
    rounds = 20
    outputs = [[], []]
    barrier = threading.Barrier(2, timeout=30)

    def worker(slot):
        kernel = LeafKernel(m)
        for _ in range(rounds):
            buf = x.copy()
            barrier.wait()
            kernel.transform(buf)
            outputs[slot].append(buf)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert all(len(out) == rounds for out in outputs)
    for buf in outputs[0] + outputs[1]:
        assert np.array_equal(buf, expected)
