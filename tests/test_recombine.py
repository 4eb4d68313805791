"""Tests for twiddle lanes, both reassembly kernels, and the full pipeline."""

import gc
import math

import numpy as np
import pytest

import efft
from efft import errors, memory
from efft.core import PermSpectrum, handle_create, plan_create, run_transform
from efft.oracle import l2_norm, naive_dft, naive_dft_at, pack_perm
from efft.parallel import BLOCK
from efft.recombine import (
    _MergeWorkspace, _twiddle_lanes, reassemble_pair_basic, reassemble_pair_inplace,
)

from conftest import random_f32


class TestTwiddles:
    @pytest.mark.parametrize("m", [64, 1024, 1 << 16])
    def test_unit_norm(self, m):
        c, s = _twiddle_lanes(m, np.arange(1, 65, dtype=np.int64))
        norm = c.astype(np.float64) ** 2 + s.astype(np.float64) ** 2
        assert np.max(np.abs(norm - 1.0)) < 1e-6

    @pytest.mark.parametrize("m", [256, 4096, 1 << 15])
    def test_values_invariant_to_chunking(self, m):
        # the in-place kernel's bitwise match with the basic kernel rests on this
        full_c, full_s = _twiddle_lanes(m, np.arange(1, m // 2, dtype=np.int64))
        for a, b in [(1, 17), (17, 64), (64, m // 2)]:
            c, s = _twiddle_lanes(m, np.arange(a, b, dtype=np.int64))
            assert np.array_equal(c, full_c[a - 1:b - 1])
            assert np.array_equal(s, full_s[a - 1:b - 1])


class TestBasicKernel:
    def test_m2_example(self):
        # evens/odds are the packed transforms of [1,3] and [2,4]
        target = np.empty(4, dtype=np.float32)
        reassemble_pair_basic(
            np.array([4, -2], dtype=np.float32),
            np.array([6, -2], dtype=np.float32),
            target,
        )
        assert np.array_equal(target, [10, -2, -2, 2])
        assert np.allclose(
            target.astype(np.float64), pack_perm(naive_dft([1.0, 2.0, 3.0, 4.0])),
            atol=1e-12,
        )

    def test_m4_halves_of_ramp(self):
        evens = np.array([16, -4, -4, 4], dtype=np.float32)   # packed DFT of [1,3,5,7]
        odds = np.array([20, -4, -4, 4], dtype=np.float32)    # packed DFT of [2,4,6,8]
        assert np.allclose(evens.astype(np.float64),
                           pack_perm(naive_dft([1.0, 3.0, 5.0, 7.0])), atol=1e-12)
        assert np.allclose(odds.astype(np.float64),
                           pack_perm(naive_dft([2.0, 4.0, 6.0, 8.0])), atol=1e-12)
        target = np.empty(8, dtype=np.float32)
        reassemble_pair_basic(evens, odds, target)
        assert np.allclose(target, [36, -4, -4, 9.6569, -4, 4, -4, 1.6569], atol=1e-3)

    def test_zero_odds_duplicates_even_spectrum(self):
        m = 16
        x = random_f32(m, seed=4)
        evens = pack_perm(naive_dft(x)).astype(np.float32)
        target = np.empty(2 * m, dtype=np.float32)
        reassemble_pair_basic(evens, np.zeros(m, dtype=np.float32), target)
        spectrum = PermSpectrum(target)
        even_spec = PermSpectrum(evens)
        assert target[0] == evens[0] and target[1] == evens[0]
        for k in range(1, m // 2):
            assert spectrum.coefficient(k) == even_spec.coefficient(k)
            assert spectrum.coefficient(2 * m - k) == even_spec.coefficient(k).conjugate()

    def test_errors(self):
        e = np.zeros(8, dtype=np.float32)
        with pytest.raises(errors.SizeMismatch):
            reassemble_pair_basic(e, np.zeros(4, np.float32), np.zeros(16, np.float32))
        with pytest.raises(errors.SizeMismatch):
            reassemble_pair_basic(e, e.copy(), np.zeros(12, np.float32))
        buf = np.zeros(24, dtype=np.float32)
        with pytest.raises(errors.SizeMismatch):
            reassemble_pair_basic(buf[:8], buf[8:16], buf[8:])


class TestInplaceKernel:
    @pytest.mark.parametrize("m", [256, 1024, 4096])
    def test_matches_basic_bitwise(self, m):
        for trial in range(10):
            evens = random_f32(m, seed=3 * m + trial)
            odds = random_f32(m, seed=7 * m + trial)
            target = np.empty(2 * m, dtype=np.float32)
            reassemble_pair_basic(evens, odds, target)
            seg = np.concatenate([evens, odds])
            reassemble_pair_inplace(seg, m, 64)
            assert np.array_equal(seg, target)

    def test_small_m_matches_basic(self):
        m = 8
        evens, odds = random_f32(m, seed=1), random_f32(m, seed=2)
        target = np.empty(2 * m, dtype=np.float32)
        reassemble_pair_basic(evens, odds, target)
        seg = np.concatenate([evens, odds])
        reassemble_pair_inplace(seg, m, 64)
        assert np.array_equal(seg, target)

    @pytest.mark.parametrize("k_tile", [16, 48, 64])
    def test_k_tile_does_not_change_values(self, k_tile):
        m = 1024
        evens, odds = random_f32(m, seed=5), random_f32(m, seed=6)
        target = np.empty(2 * m, dtype=np.float32)
        reassemble_pair_basic(evens, odds, target)
        seg = np.concatenate([evens, odds])
        reassemble_pair_inplace(seg, m, k_tile)
        assert np.array_equal(seg, target)

    @pytest.mark.parametrize("m, k_tile", [(4, 64), (16, 64), (256, 1), (1 << 17, 64),
                                          (1 << 17, 600)])
    def test_any_even_m_matches_basic(self, m, k_tile):
        # m = 4 has only the centre pair.  2^17 spans more coefficients than
        # one piece holds, cut on k_tile boundaries.
        evens, odds = random_f32(m, seed=8), random_f32(m, seed=9)
        target = np.empty(2 * m, dtype=np.float32)
        reassemble_pair_basic(evens, odds, target)
        seg = np.concatenate([evens, odds])
        reassemble_pair_inplace(seg, m, k_tile)
        assert np.array_equal(seg, target)

    def test_workspace_bytes(self):
        gc.collect()
        gc.disable()  # so no unrelated buffer is freed while the lanes are counted
        try:
            before = memory._live_bytes
            ws = _MergeWorkspace(BLOCK // 8)
            tracked = memory._live_bytes - before
        finally:
            gc.enable()
        held = sum(lane.nbytes for lane in vars(ws).values())
        # Every lane counts towards allocation_high_water.  1,245,184 B held
        # the 15 float32 and 2 float64 lanes of the real-lane kernel; the
        # complex kernel needs no more.
        assert tracked == held <= 1_245_184
        assert np.array_equal(ws.base, np.arange(BLOCK // 8))

    def test_size_mismatch(self):
        with pytest.raises(errors.SizeMismatch):
            reassemble_pair_inplace(np.zeros(24, np.float32), 16, 4)
        # Only the power-of-two half lengths >= 4 that a transform merges.
        for m in (2, 6, 12, 257):
            with pytest.raises(errors.SizeMismatch):
                reassemble_pair_inplace(np.ones(2 * m, np.float32), m, 64)

    @pytest.mark.parametrize("k_tile", [0, -3])
    def test_k_tile_below_one(self, k_tile):
        with pytest.raises(errors.InvalidPlan):
            reassemble_pair_inplace(np.zeros(64, np.float32), 32, k_tile)


def _strided(n):
    return np.zeros(2 * n, np.float32)[::2]


UNREADABLE = {
    "leaf-strided": lambda: efft.LeafKernel(8).transform(_strided(8)),
    "basic-float64-halves": lambda: reassemble_pair_basic(
        np.zeros(8), np.zeros(8), np.zeros(16, np.float32)),
    "basic-float64-target": lambda: reassemble_pair_basic(
        np.zeros(8, np.float32), np.zeros(8, np.float32), np.zeros(16)),
    "basic-strided-odds": lambda: reassemble_pair_basic(
        np.zeros(8, np.float32), _strided(8), np.zeros(16, np.float32)),
    "basic-strided-target": lambda: reassemble_pair_basic(
        np.zeros(8, np.float32), np.zeros(8, np.float32), _strided(16)),
    "inplace-float64": lambda: reassemble_pair_inplace(np.zeros(16), 8),
    "inplace-strided": lambda: reassemble_pair_inplace(_strided(16), 8),
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_kernels_reject_unreadable_buffers(case):
    # Each of these used to reinterpret the bytes as complex64 and return
    # garbage, or fail inside numpy with a bare ValueError.
    with pytest.raises(errors.SizeMismatch):
        UNREADABLE[case]()


READ_ONLY = {
    "leaf": lambda out: efft.LeafKernel(8).transform(out[:8]),
    "basic-target": lambda out: reassemble_pair_basic(
        np.zeros(8, np.float32), np.zeros(8, np.float32), out[:16]),
    "inplace-seg": lambda out: reassemble_pair_inplace(out[:16], 8),
}


@pytest.mark.parametrize("case", READ_ONLY)
def test_kernels_reject_read_only_outputs(case):
    with handle_create(plan_create(64, 1, workers=1, test_mode=True)) as h:
        run_transform(h)
        before = np.array(h.result)
        with pytest.raises(errors.SizeMismatch, match="writable"):
            READ_ONLY[case](h.result)
        assert np.array_equal(h.result, before)


def test_read_only_inputs_are_accepted():
    with handle_create(plan_create(64, 1, workers=1, test_mode=True)) as h:
        h.data[:] = random_f32(64, seed=5)
        run_transform(h)
        target, expected = np.empty(64, np.float32), np.empty(64, np.float32)
        reassemble_pair_basic(h.result[:32], h.result[32:], target)
        reassemble_pair_basic(np.array(h.result[:32]), np.array(h.result[32:]), expected)
        assert np.array_equal(target, expected)


class TestFullPipeline:
    def test_s0_equals_leaf(self):
        n = 256
        x = random_f32(n, seed=10)
        with handle_create(plan_create(n, 0, workers=1, test_mode=True)) as h:
            h.data[:] = x
            out = np.array(run_transform(h))
        buf = x.copy()
        efft.LeafKernel(n).transform(buf)
        assert np.array_equal(out, buf)

    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_impulse_n16(self, s):
        n = 16
        with handle_create(plan_create(n, s, workers=1, test_mode=True)) as h:
            h.data[:] = 0.0
            h.data[0] = 1.0
            out = np.array(run_transform(h))
        expected = np.zeros(n, dtype=np.float32)
        expected[0] = expected[1] = 1.0
        expected[2::2] = 1.0
        assert np.allclose(out, expected, atol=1e-6)

    def test_ramp_n8_s1(self):
        with handle_create(plan_create(8, 1, workers=1, test_mode=True)) as h:
            h.data[:] = np.arange(1, 9, dtype=np.float32)
            out = np.array(run_transform(h))
        assert np.allclose(out, [36, -4, -4, 9.6569, -4, 4, -4, 1.6569], atol=1e-3)

    def test_split_invariance(self):
        n = 4096
        x = random_f32(n, seed=11)
        outputs = []
        for s in range(int(math.log2(n)) - 1):
            with handle_create(plan_create(n, s, workers=2, test_mode=True)) as h:
                h.data[:] = x
                outputs.append(np.array(run_transform(h), dtype=np.float64))
        for out in outputs[1:]:
            assert l2_norm(out, outputs[0]) <= 1e-6

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_bitwise_across_worker_counts(self, workers):
        n, s = 1 << 14, 3
        x = random_f32(n, seed=12)
        with handle_create(plan_create(n, s, workers=1)) as h:
            h.data[:] = x
            reference = np.array(run_transform(h))
        with handle_create(plan_create(n, s, workers=workers)) as h:
            h.data[:] = x
            assert np.array_equal(np.array(run_transform(h)), reference)

    def test_hermitian_consistency(self):
        n = 1 << 12
        x = random_f32(n, seed=13)
        with handle_create(plan_create(n, 3, workers=2)) as h:
            h.data[:] = x
            out = np.array(run_transform(h), dtype=np.float64)
        full = PermSpectrum(out).to_full_complex()
        rng = np.random.default_rng(99)
        ks = rng.integers(0, n, size=64)
        exact = np.array([
            naive_dft_at(x, int(k)) if k <= n // 2
            else np.conj(naive_dft_at(x, int(n - k)))
            for k in ks
        ])
        scale = np.maximum(np.abs(exact), np.sqrt(np.mean(np.abs(exact) ** 2)))
        assert np.max(np.abs(full[ks] - exact) / scale) <= 1e-5
