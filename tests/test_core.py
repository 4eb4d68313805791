"""Tests for plan validation, buffer management, and the packed layout view."""

import ast
import importlib
import threading
from pathlib import Path

import numpy as np
import pytest

import efft
from efft import errors
from efft.core import PermSpectrum, handle_create, plan_create, run_transform
from efft.leaf_dft import LeafKernel
from efft.oracle import naive_dft

from conftest import random_f32, worker_threads


class TestPlanCreate:
    def test_derived_fields(self):
        plan = plan_create(2 ** 20, 4, workers=8)
        assert plan.bins == 16
        assert plan.binsize == 65536
        assert plan.k_tile == 64

    def test_repr_hides_the_scatter_index(self):
        assert repr(plan_create(2 ** 20, 3, workers=2)) == (
            "TransformPlan(n=1048576, splits=3, bins=8, binsize=131072, "
            "k_tile=64, workers=2, test_mode=False)")

    @pytest.mark.parametrize("n, splits", [(2 ** 20, 8), (2 ** 16, 0), (2 ** 22, 6),
                                           (2 ** 22, 4), (2 ** 24, 0)])
    def test_plan_runs_the_requested_splits(self, n, splits):
        plan = plan_create(n, splits, workers=1)
        assert (plan.splits, plan.bins, plan.binsize) == (splits, 2 ** splits, n >> splits)
        assert np.array_equal(plan.scatter_index, efft.build_scatter_index(splits))

    def test_size_constraint_enforced(self):
        with pytest.raises(errors.SizeConstraintViolation):
            plan_create(2 ** 10, 4, workers=1)

    def test_test_mode_relaxes_size_constraint(self):
        plan = plan_create(2 ** 10, 4, workers=1, test_mode=True)
        assert plan.binsize == 64

    def test_binsize_must_be_power_of_two(self):
        # 1536 is a multiple of 2**9 but 1536/2 = 768 is not a power of two
        with pytest.raises(errors.BinsizeNotPowerOfTwo):
            plan_create(1536, 1, workers=1)

    def test_binsize_minimum_holds_even_in_test_mode(self):
        assert plan_create(8, 1, workers=1, test_mode=True).binsize == 4
        with pytest.raises(errors.BinsizeNotPowerOfTwo):
            plan_create(8, 2, workers=1, test_mode=True)

    def test_splits_too_large(self):
        with pytest.raises(errors.SplitsTooLarge):
            plan_create(16, 5, workers=1, test_mode=True)

    def test_argument_validation(self):
        with pytest.raises(errors.InvalidPlan):
            plan_create(0, 0, workers=1)
        with pytest.raises(errors.InvalidPlan):
            plan_create(256, -1, workers=1)
        with pytest.raises(errors.InvalidPlan):
            plan_create(256, 0, workers=0)
        with pytest.raises(errors.InvalidPlan):
            plan_create(256, 0, workers=1, k_tile=0)

    def test_deterministic(self):
        a = plan_create(2 ** 12, 3, workers=2, test_mode=True)
        b = plan_create(2 ** 12, 3, workers=2, test_mode=True)
        assert (a.n, a.splits, a.bins, a.binsize) == (b.n, b.splits, b.bins, b.binsize)
        assert np.array_equal(a.scatter_index, b.scatter_index)

    def test_scatter_index_is_involution(self):
        plan = plan_create(2 ** 12, 5, workers=1, test_mode=True)
        t = plan.scatter_index
        assert np.array_equal(t[t], np.arange(plan.bins))


class TestHandle:
    def test_buffers_aligned_and_distinct(self):
        with handle_create(plan_create(2 ** 12, 2, workers=2)) as h:
            d, r = h.data, h.result
            assert d.shape == (2 ** 12,) and r.shape == (2 ** 12,)
            assert d.ctypes.data % 64 == 0
            assert h._scratch.ctypes.data % 64 == 0
            assert not np.shares_memory(d, r)
            assert np.all(np.isfinite(d)) and np.all(np.isfinite(r))

    def test_result_view_is_read_only(self):
        with handle_create(plan_create(2 ** 12, 2, workers=1)) as h:
            with pytest.raises(ValueError):
                h.result[0] = 1.0

    def test_buffers_do_not_alias(self):
        with handle_create(plan_create(2 ** 12, 2, workers=1)) as h:
            before = np.array(h.result)
            h.data[:] = 7.0
            assert np.array_equal(np.array(h.result), before)

    def test_input_preserved_and_result_correct(self):
        n = 2 ** 12
        x = random_f32(n, seed=42)
        with handle_create(plan_create(n, 2, workers=2)) as h:
            h.data[:] = x
            out = run_transform(h)
            assert np.array_equal(h.data, x)
            reference = efft.pack_perm(naive_dft(x))
            assert efft.l2_norm(np.asarray(out, dtype=np.float64), reference) < 1e-6

    def test_reuse_without_reallocation(self):
        n = 2 ** 10
        plan = plan_create(n, 1, workers=2, test_mode=True)
        with handle_create(plan) as h:
            buf_id = id(h.data)
            kernels = list(h._kernels)
            first = None
            for _ in range(25):
                h.data[:] = random_f32(n, seed=1)
                run_transform(h)
                if first is None:
                    first = np.array(h.result)
                assert np.array_equal(np.array(h.result), first)
            assert id(h.data) == buf_id
            assert all(a is b for a, b in zip(h._kernels, kernels))

    def test_two_handles_are_independent(self):
        p = plan_create(2 ** 10, 1, workers=1, test_mode=True)
        with handle_create(p) as h1, handle_create(p) as h2:
            h1.data[:] = 1.0
            h2.data[:] = 2.0
            assert not np.shares_memory(h1.data, h2.data)
            run_transform(h1)
            assert np.all(h2.data == 2.0)

    def test_close_is_idempotent(self):
        h = handle_create(plan_create(2 ** 10, 0, workers=2, test_mode=True))
        h.close()
        h.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_after_close_raises(self, workers):
        h = handle_create(plan_create(2 ** 10, 1, workers=workers, test_mode=True))
        h.data[:] = 1.0
        run_transform(h)
        h.close()
        with pytest.raises(errors.HandleClosed):
            run_transform(h)

    def test_non_finite_input_in_the_last_chunk_leaves_the_handle_usable(self):
        plan = plan_create(2 ** 12, 2, workers=2, test_mode=True)
        x = random_f32(plan.n, seed=21)
        with handle_create(plan) as fresh:
            fresh.data[:] = x
            expected = np.array(run_transform(fresh))
        with handle_create(plan) as h:
            # Input element i*bins + j is scatter row i; the last rows form the last chunk.
            h.data[:] = x
            h.data[-1] = np.nan
            with pytest.raises(errors.NonFiniteInput):
                run_transform(h)
            h.data[:] = x
            assert np.array_equal(run_transform(h), expected)

    @pytest.mark.parametrize("block", [64, 96])
    def test_non_finite_input_in_the_last_of_many_blocks(self, block, monkeypatch):
        # 2^12 elements in 43-64 scatter chunks; at 96 the last chunk is partial.
        monkeypatch.setattr(importlib.import_module("efft.scatter"), "BLOCK", block)
        self.test_non_finite_input_in_the_last_chunk_leaves_the_handle_usable()

    def test_busy_handle_refuses_a_second_run(self):
        n = 2 ** 10
        with handle_create(plan_create(n, 1, workers=2, test_mode=True)) as h:
            h.data[:] = random_f32(n, seed=4)
            before = np.array(run_transform(h))
            h.data[:] = 1.0
            with h._lock:
                with pytest.raises(errors.HandleBusy):
                    run_transform(h)
                assert np.array_equal(np.array(h.result), before)
            h.data[:] = random_f32(n, seed=4)
            assert np.array_equal(np.array(run_transform(h)), before)

    def test_racing_threads_never_corrupt_the_spectrum(self):
        n = 2 ** 14
        x = random_f32(n, seed=8)
        with handle_create(plan_create(n, 4, workers=1, test_mode=True)) as ref:
            ref.data[:] = x
            expected = np.array(run_transform(ref))
        with handle_create(plan_create(n, 4, workers=2, test_mode=True)) as h:
            h.data[:] = x
            barrier = threading.Barrier(2, timeout=30)
            outcomes, intact = [], []

            def caller():
                for _ in range(25):
                    barrier.wait()
                    try:
                        run_transform(h)
                        outcomes.append("ok")
                    except Exception as exc:
                        outcomes.append(type(exc).__name__)
                    barrier.wait()
                    intact.append(np.array_equal(np.array(h.result), expected))

            threads = [threading.Thread(target=caller) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            # Each round ends with one HandleBusy or two correct results.
            assert len(outcomes) == 50 and set(outcomes) <= {"ok", "HandleBusy"}
            assert outcomes.count("ok") >= 25
            assert len(intact) == 50 and all(intact)


class TestPermSpectrum:
    def test_layout_contract(self):
        x = random_f32(64, seed=8)
        f = naive_dft(x)
        spectrum = PermSpectrum(efft.pack_perm(f))
        assert spectrum.dc == pytest.approx(f[0].real)
        assert spectrum.nyquist == pytest.approx(f[32].real)
        for k in range(33):
            assert spectrum.coefficient(k) == pytest.approx(complex(f[k]), abs=1e-12)
        # conjugate symmetry for the unstored half
        for k in range(33, 64):
            assert spectrum.coefficient(k) == pytest.approx(complex(f[64 - k]).conjugate(), abs=1e-12)

    def test_to_full_complex(self):
        x = random_f32(32, seed=9)
        f = naive_dft(x)
        full = PermSpectrum(efft.pack_perm(f)).to_full_complex()
        assert np.allclose(full[:17], f, atol=1e-12)
        assert np.allclose(full[17:], np.conj(f[1:-1][::-1]), atol=1e-12)

    def test_index_errors(self):
        spectrum = PermSpectrum(np.zeros(8, dtype=np.float32))
        with pytest.raises(errors.IndexOutOfRange):
            spectrum.coefficient(8)
        with pytest.raises(ValueError):
            PermSpectrum(np.zeros(7, dtype=np.float32))


def test_public_names():
    # A new public name is a deliberate edit of this list.
    assert sorted(efft.__all__) == sorted([
        "LeafKernel", "PermSpectrum", "RunMetrics", "TransformHandle",
        "TransformPlan", "build_scatter_index", "errors", "flops_model",
        "handle_create", "l2_norm", "naive_dft", "naive_dft_at", "pack_perm",
        "peak_memory_probe", "plan_create", "reassemble_pair_basic",
        "reassemble_pair_inplace", "run_transform", "scatter",
    ])
    assert all(hasattr(efft, name) for name in efft.__all__)


def test_core_alone_composes_the_stages():
    # The stage modules share only the helpers below; core.py runs them.
    for name in ("leaf_dft", "recombine", "scatter"):
        tree = ast.parse(Path(importlib.import_module(f"efft.{name}").__file__).read_text())
        imported = {node.module for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level}
        assert imported <= {"errors", "memory", "parallel"}, name
    assert not hasattr(efft.TransformHandle, "run")
    assert not hasattr(efft.TransformHandle, "pool")


@pytest.mark.parametrize("n,splits,workers,calls", [
    (2 ** 20, 8, 1, 32), (2 ** 20, 8, 2, 32), (2 ** 20, 8, 4, 32), (2 ** 22, 4, 1, 16),
    (2 ** 16, 0, 1, 1)])
def test_leaves_run_in_batched_calls(n, splits, workers, calls):
    # 256 bins of 2^12 take 8 bins a call; a bin of 2^15 or more takes one.
    with handle_create(plan_create(n, splits, workers)) as h:
        h.data[:] = random_f32(n, seed=3)
        expected = np.array(run_transform(h))
        sizes = []
        for kernel in h._kernels:
            def counted(buf, transform=kernel.transform):
                sizes.append(buf.size)
                transform(buf)
            kernel.transform = counted
        assert np.array_equal(run_transform(h), expected)
    assert len(sizes) == calls
    assert sum(sizes) == n


def batches(n, splits, workers):
    """Every parallel_for batch one run makes, as lists of comparable chunks.

    A merge piece's rows are recorded as their offset into the scratch
    buffer and their shape, so that handles of different T compare.
    """
    recorded = []
    with handle_create(plan_create(n, splits, workers, test_mode=True)) as h:
        h.data[:] = random_f32(n, seed=5)
        base, parallel_for = h._scratch.ctypes.data, h._pool.parallel_for

        def key(item):
            if isinstance(item, np.ndarray):
                return item.ctypes.data - base, item.shape
            return item

        def recording(chunks, body):
            chunks = list(chunks)
            recorded.append([tuple(key(item) for item in chunk) for chunk in chunks])
            parallel_for(chunks, body)

        h._pool.parallel_for = recording
        run_transform(h)
    return recorded


@pytest.mark.parametrize("n,splits", [
    (2 ** 22, 4), (2 ** 20, 8), (2 ** 16, 0), (2 ** 16, 2), (2 ** 12, 2)])
def test_chunk_grid_does_not_depend_on_workers(n, splits):
    grid = batches(n, splits, 1)
    assert len(grid) == splits + 2          # scatter, leaves, one batch per level
    for workers in (2, 4):
        assert batches(n, splits, workers) == grid


def test_failed_kernel_starts_no_thread(monkeypatch):
    # A kernel whose lane cannot be allocated fails before the pool starts.
    made = []

    def kernel(m):
        if len(made) == 2:
            raise errors.AllocationFailure("cannot allocate the leaf lane")
        made.append(m)
        return LeafKernel(m)

    before = worker_threads()
    monkeypatch.setattr(importlib.import_module("efft.core"), "LeafKernel", kernel)
    with pytest.raises(errors.AllocationFailure):
        handle_create(plan_create(2 ** 12, 2, workers=3))
    assert worker_threads() <= before
