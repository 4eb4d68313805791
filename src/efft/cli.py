"""Command-line front end: transform, scan, check, and bench subcommands.

All measurement rows go to standard output under the stable CSV header;
diagnostics go to standard error.  Sizes accept either a plain integer or
the form 2^K.  The worker count comes from --workers, else the
EFFT_WORKERS environment variable, else the hardware thread count.
"""

import argparse
import sys

import numpy as np

from . import bench, oracle
from .bench import (
    CSV_HEADER,
    DEFAULT_REPEATS,
    DEFAULT_SEED,
    RunMetrics,
    best_of_repeats,
    failed_row,
    parse_int_list,
    parse_size,
    peak_memory_probe,
    random_signal,
    read_signal,
    resolve_workers,
    write_signal,
)
from .core import PermSpectrum, handle_create, plan_create
from .errors import EfftError

FULL_CHECK_LIMIT = 1 << 14
L2_TOLERANCE = 5e-6
SPOT_TOLERANCE = 1e-5


def _mem_field(want_mem: bool):
    if not want_mem:
        return None
    probe = peak_memory_probe()
    print(f"# peak memory source: {probe.source}", file=sys.stderr)
    return probe.bytes


def cmd_transform(input_path, output_path, n, splits, workers,
                  test_mode=False, want_mem=False) -> int:
    """Transform a raw binary32 file and write the packed spectrum."""
    try:
        signal = read_signal(input_path, n)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        plan = plan_create(n, splits, workers, test_mode=test_mode)
        with handle_create(plan) as handle:
            handle.data[:] = signal
            seconds = best_of_repeats(handle, repeats=1)
            write_signal(output_path, handle.result)
    except EfftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = RunMetrics.from_timing(n, splits, workers, seconds,
                                     peak_mem_bytes=_mem_field(want_mem))
    print(CSV_HEADER)
    print(metrics.csv_row())
    return 0


def cmd_scan(n, splits_list, workers_list, repeats=DEFAULT_REPEATS,
             test_mode=False, want_mem=False) -> int:
    """Scan the (splits, workers) grid; one row per cell plus the argmax row.

    Cells that fail plan validation are reported as failed rows and the
    scan continues.  The final row repeats the best cell with status
    "best".  Input data is the fixed-seed random signal.
    """
    signal = random_signal(n, DEFAULT_SEED)
    print(CSV_HEADER)
    best = None
    for splits in splits_list:
        for workers in workers_list:
            try:
                plan = plan_create(n, splits, workers, test_mode=test_mode)
                with handle_create(plan) as handle:
                    handle.data[:] = signal
                    seconds = best_of_repeats(handle, repeats)
            except EfftError as exc:
                print(f"# skipped s={splits} T={workers}: {exc}", file=sys.stderr)
                print(failed_row(n, splits, workers))
                continue
            metrics = RunMetrics.from_timing(n, splits, workers, seconds,
                                             peak_mem_bytes=_mem_field(want_mem))
            print(metrics.csv_row())
            if best is None or metrics.gflops > best.gflops:
                best = metrics
    if best is not None:
        best.status = "best"
        print(best.csv_row())
    return 0


def cmd_check(n, splits, workers, spot_checks=64, test_mode=False,
              corrupt=False) -> int:
    """Compare the engine against the direct-summation reference.

    Sizes up to 2^14 are compared in full by relative L2 norm; larger
    sizes are spot-checked at `spot_checks` fixed random coefficient
    indices, reporting the maximum deviation relative to the coefficient
    magnitude scale (each deviation is normalized by the larger of that
    coefficient's magnitude and the RMS magnitude of the sampled exact
    coefficients).  Exit status 0 iff the measure is within tolerance
    (L2 <= 5e-6, spot error <= 1e-5).
    """
    try:
        plan = plan_create(n, splits, workers, test_mode=test_mode)
        with handle_create(plan) as handle:
            signal = random_signal(n, DEFAULT_SEED)
            handle.data[:] = signal
            seconds = best_of_repeats(handle, repeats=1)
            packed = np.array(handle.result, dtype=np.float64)
    except EfftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if corrupt:
        packed[0] += 1.0

    if n <= FULL_CHECK_LIMIT:
        reference = oracle.pack_perm(oracle.naive_dft(signal))
        measure = oracle.l2_norm(packed, reference)
        ok = measure <= L2_TOLERANCE
    else:
        rng = np.random.default_rng(DEFAULT_SEED + 1)
        indices = rng.integers(0, n // 2 + 1, size=spot_checks)
        spectrum = PermSpectrum(packed)
        exact = np.array([oracle.naive_dft_at(signal, int(k)) for k in indices])
        computed = np.array([spectrum.coefficient(int(k)) for k in indices])
        rms = np.sqrt(np.mean(np.abs(exact) ** 2))
        scale = np.maximum(np.abs(exact), rms)
        measure = float(np.max(np.abs(computed - exact) / scale))
        ok = measure <= SPOT_TOLERANCE

    metrics = RunMetrics.from_timing(n, splits, workers, seconds, l2=measure,
                                     status="ok" if ok else "failed")
    print(CSV_HEADER)
    print(metrics.csv_row())
    if not ok:
        print(f"error: accuracy check failed, measured {measure:.3e}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(n, splits, workers, repeats=DEFAULT_REPEATS, test_mode=False,
              want_mem=False) -> int:
    """Benchmark one configuration with the fixed-seed random signal."""
    try:
        plan = plan_create(n, splits, workers, test_mode=test_mode)
        with handle_create(plan) as handle:
            handle.data[:] = random_signal(n, DEFAULT_SEED)
            seconds = best_of_repeats(handle, repeats)
    except EfftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = RunMetrics.from_timing(n, splits, workers, seconds,
                                     peak_mem_bytes=_mem_field(want_mem))
    print(CSV_HEADER)
    print(metrics.csv_row())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efft",
        description="Parallel 1-D real-input FFT: run, tune, and verify transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_repeats=False, with_mem=False):
        p.add_argument("--size", required=True, help="transform size, e.g. 4096 or 2^22")
        p.add_argument("--workers", type=int, default=None,
                       help="worker count (default: EFFT_WORKERS or hardware)")
        p.add_argument("--test-mode", action="store_true",
                       help="relax the production size constraint (small sizes)")
        if with_repeats:
            p.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                           help="timings per cell; best is reported")
        if with_mem:
            p.add_argument("--mem", action="store_true",
                           help="report peak process memory")

    p = sub.add_parser("transform", help="transform a raw binary32 file")
    add_common(p, with_mem=True)
    p.add_argument("--splits", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("scan", help="scan the (splits, workers) tuning grid")
    add_common(p, with_repeats=True, with_mem=True)
    p.add_argument("--splits", required=True,
                   help="splits range: '4', '2:5', or '2,4,6'")
    p.add_argument("--scan-workers", dest="scan_workers", default=None,
                   help="worker range for the grid (defaults to --workers)")

    p = sub.add_parser("check", help="verify accuracy against the reference")
    add_common(p)
    p.add_argument("--splits", type=int, required=True)
    p.add_argument("--spot-checks", type=int, default=64,
                   help="coefficients sampled for sizes above 2^14")
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)

    p = sub.add_parser("bench", help="benchmark one configuration")
    add_common(p, with_repeats=True, with_mem=True)
    p.add_argument("--splits", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        n = parse_size(args.size)
        workers = resolve_workers(args.workers)
        for count in ("repeats", "spot_checks"):
            if getattr(args, count, 1) < 1:
                raise ValueError(f"--{count.replace('_', '-')} must be >= 1")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "transform":
        return cmd_transform(args.input, args.output, n, args.splits, workers,
                             test_mode=args.test_mode, want_mem=args.mem)
    if args.command == "scan":
        try:
            splits_list = parse_int_list(args.splits)
            workers_list = (parse_int_list(args.scan_workers)
                            if args.scan_workers else [workers])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return cmd_scan(n, splits_list, workers_list, repeats=args.repeats,
                        test_mode=args.test_mode, want_mem=args.mem)
    if args.command == "check":
        return cmd_check(n, args.splits, workers, spot_checks=args.spot_checks,
                         test_mode=args.test_mode, corrupt=args.corrupt)
    if args.command == "bench":
        return cmd_bench(n, args.splits, workers, repeats=args.repeats,
                         test_mode=args.test_mode, want_mem=args.mem)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
