"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The large-size and scaling tests allocate hundreds of MB and
take a few minutes combined; everything else is quick.
"""

import math
import os
import time

import numpy as np
import pytest

import efft
from efft.bench import random_signal
from efft.cli import main as cli_main
from efft.core import PermSpectrum, handle_create, plan_create, run_transform
from efft.oracle import l2_norm, naive_dft, naive_dft_at, pack_perm
from efft.recombine import reassemble_pair_basic, reassemble_pair_inplace
from efft.scatter import build_scatter_index, scatter

from conftest import naive_even_odd_scatter, random_f32


def report(line):
    print(f"\nACCEPTANCE {line}")


def valid_splits(n):
    return range(int(math.log2(n)) - 1)


def test_oracle_equivalence_suite():
    """Full pipeline vs pack_perm(naive_dft(x)): L2 <= 1e-6 over the grid."""
    worst = 0.0
    start = time.perf_counter()
    for exp in (8, 10, 12, 14):
        n = 1 << exp
        signals = [random_f32(n, seed=exp * 1000 + t) for t in range(20)]
        references = [pack_perm(naive_dft(x)) for x in signals]
        for s in valid_splits(n):
            with handle_create(plan_create(n, s, workers=2, test_mode=True)) as h:
                for x, ref in zip(signals, references):
                    h.data[:] = x
                    out = np.asarray(run_transform(h), dtype=np.float64)
                    err = l2_norm(out, ref)
                    worst = max(worst, err)
                    assert err <= 1e-6, (n, s, err)
    elapsed = time.perf_counter() - start
    report(f"PASS oracle equivalence: worst L2 {worst:.3e} <= 1e-6 "
           f"({elapsed:.0f} s)")


def test_large_size_spot_checks():
    """n = 2^24: 64 spot coefficients per split within 1e-5 relative error."""
    n = 1 << 24
    x = random_signal(n, seed=2024)
    rng = np.random.default_rng(77)
    indices = rng.integers(0, n // 2 + 1, size=64)
    exact = np.array([naive_dft_at(x, int(k)) for k in indices])
    scale = np.maximum(np.abs(exact), np.sqrt(np.mean(np.abs(exact) ** 2)))
    worst = 0.0
    for s in (2, 4):
        with handle_create(plan_create(n, s, workers=2)) as h:
            h.data[:] = x
            spectrum = PermSpectrum(np.array(run_transform(h), dtype=np.float64))
        computed = np.array([spectrum.coefficient(int(k)) for k in indices])
        err = float(np.max(np.abs(computed - exact) / scale))
        worst = max(worst, err)
        assert err <= 1e-5, (s, err)
    report(f"PASS large-size spot checks: worst relative error {worst:.3e} <= 1e-5")


def _ulp_distance(a, b):
    ua = a.view(np.uint32).astype(np.int64)
    ub = b.view(np.uint32).astype(np.int64)
    top = np.int64(1) << 31
    va = np.where(ua >= top, top - ua, ua)
    vb = np.where(ub >= top, top - ub, ub)
    return np.abs(va - vb)


def test_kernel_equivalence():
    """In-place reassembly equals the basic kernel within 2 ULP per element."""
    worst = 0
    for m in (256, 1024, 4096):
        for trial in range(50):
            evens = random_f32(m, seed=100 * m + trial)
            odds = random_f32(m, seed=200 * m + trial)
            target = np.empty(2 * m, dtype=np.float32)
            reassemble_pair_basic(evens, odds, target)
            seg = np.concatenate([evens, odds])
            reassemble_pair_inplace(seg, m, 64)
            dist = int(np.max(_ulp_distance(seg, target)))
            worst = max(worst, dist)
            assert dist <= 2, (m, trial, dist)
    report(f"PASS kernel equivalence: max deviation {worst} ULP <= 2 ULP")


def test_determinism_across_workers_and_runs():
    """n = 2^20, s = 3: output bitwise identical for T in {1,2,4,8} and reruns."""
    n, s = 1 << 20, 3
    x = random_signal(n, seed=555)
    reference = None
    for workers in (1, 2, 4, 8):
        with handle_create(plan_create(n, s, workers=workers)) as h:
            h.data[:] = x
            first = np.array(run_transform(h))
            run_transform(h)
            again = np.array(h.result)
        assert np.array_equal(first, again), f"rerun differs at T={workers}"
        if reference is None:
            reference = first
        assert np.array_equal(first, reference), f"T={workers} differs from T=1"
    report("PASS determinism: bitwise identical across T in {1,2,4,8} and reruns")


def test_scatter_correctness():
    """Tiled scatter == s-fold naive separation; index is an involution."""
    for n in (1 << 8, 1 << 12, 1 << 16):
        x = random_f32(n, seed=n)
        for s in valid_splits(n):
            plan = plan_create(n, s, workers=2, test_mode=True)
            scratch = np.empty(n, dtype=np.float32)
            scatter(x, scratch, plan)
            assert np.array_equal(scratch, naive_even_odd_scatter(x, s)), (n, s)
    for s in range(11):
        table = build_scatter_index(s)
        assert np.array_equal(table[table], np.arange(1 << s)), s
    report("PASS scatter correctness: tiled == naive for n <= 2^16, "
           "involution for s <= 10")


def test_leaf_invariant_suites():
    """Parseval and linearity hold at every supported leaf size up to 4096."""
    sizes = [1 << e for e in range(2, 13)]
    for m in sizes:
        kernel = efft.LeafKernel(m)
        for trial in range(5):
            x = random_f32(m, seed=31 * m + trial)
            buf = x.copy()
            kernel.transform(buf)
            f = buf.astype(np.float64)
            lhs = float(np.sum(x.astype(np.float64) ** 2))
            rhs = (f[0] ** 2 + f[1] ** 2 + 2.0 * np.sum(f[2:] ** 2)) / m
            assert abs(lhs - rhs) / lhs < 1e-5, (m, trial)
        x = random_f32(m, seed=m)
        y = random_f32(m, seed=m + 1)
        a, b = np.float32(1.7), np.float32(-0.4)
        combined = (a * x + b * y).astype(np.float32)
        kernel.transform(combined)
        fx, fy = x.copy(), y.copy()
        kernel.transform(fx)
        kernel.transform(fy)
        expected = a * fx.astype(np.float64) + b * fy.astype(np.float64)
        assert l2_norm(combined.astype(np.float64), expected) < 1e-5, m
    report(f"PASS leaf invariants: Parseval and linearity at m in {sizes}")


def _physical_cores():
    """Physical cores among the CPUs this process may run on."""
    try:
        allowed = os.sched_getaffinity(0)
        with open("/proc/cpuinfo") as f:
            blocks = f.read().split("\n\n")
        cores = set()
        for block in blocks:
            fields = dict(
                (key.strip(), value.strip())
                for key, sep, value in (line.partition(":") for line in block.splitlines())
                if sep
            )
            if "core id" in fields and int(fields["processor"]) in allowed:
                cores.add((fields.get("physical id"), fields["core id"]))
        if cores:
            return len(cores)
    except (AttributeError, OSError, KeyError, ValueError):
        pass
    try:
        import psutil

        return psutil.cpu_count(logical=False) or 1
    except ImportError:
        return 1


@pytest.mark.skipif(
    _physical_cores() < 4,
    reason="parallel scaling smoke test needs >= 4 physical cores",
)
def test_parallel_scaling_smoke():
    """P(4)/P(1) >= 2.0 at n = 2^24 with the per-size optimal split count."""
    n = 1 << 24
    x = random_signal(n, seed=1)

    def best_time(workers, splits, repeats=3):
        with handle_create(plan_create(n, splits, workers=workers)) as h:
            h.data[:] = x
            run_transform(h)
            best = math.inf
            for _ in range(repeats):
                t0 = time.perf_counter()
                run_transform(h)
                best = min(best, time.perf_counter() - t0)
        return best

    candidates = {s: best_time(4, s, repeats=1) for s in (2, 3, 4, 5)}
    s_opt = min(candidates, key=candidates.get)
    p1 = efft.flops_model(n) / best_time(1, s_opt) / 1e9
    p4 = efft.flops_model(n) / best_time(4, s_opt) / 1e9
    ratio = p4 / p1
    assert ratio >= 2.0, f"P(4)/P(1) = {ratio:.2f} at s={s_opt}"
    report(f"PASS parallel scaling: P(4)/P(1) = {ratio:.2f} >= 2.0 (s={s_opt})")


def test_tuning_scan_csv(capsys):
    """3x3 scan at n = 2^22 emits the documented schema and one argmax row."""
    code = cli_main([
        "scan", "--size", "2^22", "--splits", "2:4",
        "--scan-workers", "1,2,4", "--repeats", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert lines[0] == "size,splits,workers,runtime_s,gflops,l2,mem_bytes,status"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 10  # 9 cells + argmax row
    assert all(len(r) == 8 for r in rows)
    best_rows = [r for r in rows if r[7] == "best"]
    assert len(best_rows) == 1
    assert rows[-1][7] == "best"
    ok_rows = [r for r in rows[:-1] if r[7] == "ok"]
    assert len(ok_rows) == 9
    best_gflops = max(float(r[4]) for r in ok_rows)
    assert float(best_rows[0][4]) == best_gflops
    with capsys.disabled():
        report("PASS tuning scan: well-formed CSV with a unique argmax row")
