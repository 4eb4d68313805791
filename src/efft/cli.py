"""Command-line front end: transform, scan, check, and bench subcommands.

All measurement rows go to standard output under the stable CSV header;
diagnostics go to standard error.  Sizes accept either a plain integer or
the form 2^K.  The worker count comes from --workers, else the
EFFT_WORKERS environment variable, else the hardware thread count.  Every
bad input ends in one "error: ..." line on standard error and exit
status 1.
"""

import argparse
import math
import sys
import time

import numpy as np

from . import oracle
from .bench import (
    CSV_HEADER,
    DEFAULT_REPEATS,
    DEFAULT_SEED,
    RunMetrics,
    failed_row,
    parse_int_list,
    parse_size,
    peak_memory_probe,
    random_signal,
    read_signal,
    resolve_workers,
    write_signal,
)
from .core import PermSpectrum, handle_create, plan_create, run_transform
from .errors import EfftError

FULL_CHECK_LIMIT = 1 << 14
L2_TOLERANCE = 5e-6
SPOT_TOLERANCE = 1e-5


def _metrics(args, splits, workers, seconds, **kw) -> RunMetrics:
    """One row's metrics; with --mem, the process's peak memory so far."""
    mem = None
    if args.mem:
        probe = peak_memory_probe()
        print(f"# peak memory source: {probe.source}", file=sys.stderr)
        mem = probe.bytes
    return RunMetrics.from_timing(args.n, splits, workers, seconds,
                                  peak_mem_bytes=mem, **kw)


def _time_plan(args, splits, workers, signal, on_result=lambda result: None):
    """Best wall time of `args.repeats` transforms of `signal()` at one plan.

    `signal` is called once the handle exists, and `on_result` sees the
    result view before the handle closes; its return value comes back
    beside the time.  Nothing of the handle outlives the call, so a later
    peak-memory reading never counts an earlier handle's buffers as live.
    """
    plan = plan_create(args.n, splits, workers, test_mode=args.test_mode)
    with handle_create(plan) as handle:
        handle.data[:] = signal()
        best = math.inf
        for _ in range(args.repeats):
            start = time.perf_counter()
            run_transform(handle)
            best = min(best, time.perf_counter() - start)
        return best, on_result(handle.result)


def cmd_transform(args) -> int:
    """Transform a raw binary32 file and write the packed spectrum."""
    seconds, _ = _time_plan(args, args.splits, args.workers,
                            lambda: read_signal(args.input, args.n),
                            lambda result: write_signal(args.output, result))
    print(CSV_HEADER)
    print(_metrics(args, args.splits, args.workers, seconds).csv_row())
    return 0


def cmd_scan(args) -> int:
    """Scan the (splits, workers) grid; one row per cell plus the argmax row.

    Cells whose plan or handle cannot be made are reported as failed rows
    and the scan continues.  The final row repeats the best cell with
    status "best".  Input data is the fixed-seed random signal.
    """
    splits_list = parse_int_list(args.splits)
    workers_list = ([args.workers] if args.scan_workers is None
                    else parse_int_list(args.scan_workers))
    signal = random_signal(args.n, DEFAULT_SEED)
    print(CSV_HEADER)
    best = None
    for splits in splits_list:
        for workers in workers_list:
            try:
                seconds, _ = _time_plan(args, splits, workers, lambda: signal)
            except EfftError as exc:
                print(f"# skipped s={splits} T={workers}: {exc}", file=sys.stderr)
                print(failed_row(args.n, splits, workers))
                continue
            metrics = _metrics(args, splits, workers, seconds)
            print(metrics.csv_row())
            if best is None or metrics.gflops > best.gflops:
                best = metrics
    if best is not None:
        best.status = "best"
        print(best.csv_row())
    return 0


def cmd_check(args) -> int:
    """Compare the engine against the direct-summation reference.

    Sizes up to 2^14 are compared in full by relative L2 norm; larger
    sizes are spot-checked at `--spot-checks` fixed random coefficient
    indices, reporting the maximum deviation relative to the coefficient
    magnitude scale (each deviation is normalized by the larger of that
    coefficient's magnitude and the RMS magnitude of the sampled exact
    coefficients).  Exit status 0 iff the measure is within tolerance
    (L2 <= 5e-6, spot error <= 1e-5).
    """
    if args.spot_checks < 1:
        raise ValueError("--spot-checks must be >= 1")
    signal = random_signal(args.n, DEFAULT_SEED)
    seconds, packed = _time_plan(args, args.splits, args.workers, lambda: signal,
                                 lambda result: np.array(result, dtype=np.float64))

    if args.n <= FULL_CHECK_LIMIT:
        reference = oracle.pack_perm(oracle.naive_dft(signal))
        measure = oracle.l2_norm(packed, reference)
        ok = measure <= L2_TOLERANCE
    else:
        rng = np.random.default_rng(DEFAULT_SEED + 1)
        indices = rng.integers(0, args.n // 2 + 1, size=args.spot_checks)
        spectrum = PermSpectrum(packed)
        exact = np.array([oracle.naive_dft_at(signal, int(k)) for k in indices])
        computed = np.array([spectrum.coefficient(int(k)) for k in indices])
        rms = np.sqrt(np.mean(np.abs(exact) ** 2))
        scale = np.maximum(np.abs(exact), rms)
        measure = float(np.max(np.abs(computed - exact) / scale))
        ok = measure <= SPOT_TOLERANCE

    metrics = _metrics(args, args.splits, args.workers, seconds, l2=measure,
                       status="ok" if ok else "failed")
    print(CSV_HEADER)
    print(metrics.csv_row())
    if not ok:
        print(f"error: accuracy check failed, measured {measure:.3e}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    """Benchmark one configuration with the fixed-seed random signal."""
    seconds, _ = _time_plan(args, args.splits, args.workers,
                            lambda: random_signal(args.n, DEFAULT_SEED))
    print(CSV_HEADER)
    print(_metrics(args, args.splits, args.workers, seconds).csv_row())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efft",
        description="Parallel 1-D real-input FFT: run, tune, and verify transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, summary, with_repeats=False, with_mem=False):
        p = sub.add_parser(name, help=summary)
        # Set before the options are added, so --repeats and --mem keep theirs.
        p.set_defaults(run=run, repeats=1, mem=False)
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
        return p

    p = add_command("transform", cmd_transform, "transform a raw binary32 file",
                    with_mem=True)
    p.add_argument("--splits", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = add_command("scan", cmd_scan, "scan the (splits, workers) tuning grid",
                    with_repeats=True, with_mem=True)
    p.add_argument("--splits", required=True,
                   help="splits range: '4', '2:5', or '2,4,6'")
    p.add_argument("--scan-workers", dest="scan_workers", default=None,
                   help="worker range for the grid (defaults to --workers)")

    p = add_command("check", cmd_check, "verify accuracy against the reference")
    p.add_argument("--splits", type=int, required=True)
    p.add_argument("--spot-checks", type=int, default=64,
                   help="coefficients sampled for sizes above 2^14")

    p = add_command("bench", cmd_bench, "benchmark one configuration",
                    with_repeats=True, with_mem=True)
    p.add_argument("--splits", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.n, args.workers = parse_size(args.size), resolve_workers(args.workers)
        if args.repeats < 1:
            raise ValueError("--repeats must be >= 1")
        return args.run(args)
    except (EfftError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
