"""Benchmark of the efft three-stage real FFT on fixed workloads.

Run from the root of a source checkout (the library is imported from its
``src`` directory; nothing needs installing):

    python3 perfbench/run.py --workload large_s4_t1 --seed 1 --seconds 25 --trace 0

Load model: a closed loop with one caller, because a handle belongs to one
caller at a time.  The caller creates one handle and reuses it; each
operation writes one of a few seeded float32 signals (uniform in
[-0.5, 0.5), as ``efft.bench.random_signal`` makes them) into
``handle.data`` and calls ``run_transform``.  No workload runs more pool
threads than it has workers.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` measures the per-layer metrics: every operation's
``run_transform`` is timed, then the same input is replayed serially
through the public stage functions (scatter, one transform per bin on the
handle's own leaf kernel, then the pairwise merges level by level), each
call inside a span.  The replay must be bitwise equal to
``run_transform``.  An untraced ``run_transform`` before each traced one
gives the time to compare with.

Every output is checked outside the timed calls: each distinct input is
spot-checked against the double-precision oracle, every later run of the
same input must be bitwise equal to its first run, and a multi-worker
plan must be bitwise equal to a one-worker plan of the same (n, s).  An
operation failing any check counts as failed.

The last line of standard output is the result as one JSON object; the
full record (machine, sample counts, self times) goes to
``perfbench/out/<workload>.trace<0|1>.json`` and the spans of a traced run
to ``perfbench/out/<workload>.trace.json`` (Chrome Trace Event format).
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))
try:
    import efft
except ImportError as exc:
    raise SystemExit(f"perfbench: cannot import efft from {SRC}: {exc}")
from efft.bench import flops_model, random_signal  # noqa: E402
from efft.cli import SPOT_TOLERANCE  # noqa: E402
from efft.memory import allocation_high_water  # noqa: E402

from machine import machine_record  # noqa: E402
from spans import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    splits: int
    workers: int
    test_mode: bool = False


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("large_s4_t1", 1 << 22, 4, 1),
    Workload("small_s0_t1", 1 << 16, 0, 1),
    Workload("deep_s8_t2", 1 << 20, 8, 2),
)}

INPUTS = 3                 # distinct seeded signals per run
RANDOM_SPOT_CHECKS = 4     # oracle coefficients per input, besides DC and Nyquist
# setup_s is the median over create/close cycles in several fresh
# processes, run one at a time.  Creation cost settles differently in each
# process (how often the allocator reuses freed buffers rather than mapping
# new pages), so cycles from one process alone give a median that jumps
# between runs.
SETUP_PROCESSES = 7
SETUP_CYCLES = 15          # in each of those processes
# first_run_s comes from at least this many create/run/close cycles,
# repeated for at least this long.
FIRST_RUN_CYCLES = 21
FIRST_RUN_SECONDS = 1.0
WARMUP_SECONDS = 2.0
MIN_OPS = 3                # fewest calls in a warm-up or traced loop
MIN_SAMPLES = 100          # so at least ten timed calls lie beyond the p90
COPY_REPEATS = 21
# Merge levels traced on every workload: the deepest plan here has 8.
# Levels a plan does not have are timed as empty passes, so every
# workload reports the same metric names.
TRACED_LEVELS = 8


def make_signal(wl: Workload, seed: int, i: int) -> np.ndarray:
    return random_signal(wl.n, seed * INPUTS + i)


def make_signals(wl: Workload, seed: int) -> list:
    return [make_signal(wl, seed, i) for i in range(INPUTS)]


def make_plan(wl: Workload, workers=None):
    return efft.plan_create(wl.n, wl.splits, workers or wl.workers, test_mode=wl.test_mode)


class Checker:
    """Checks every observed output and counts operations and failures.

    The first run of each input is its reference: it is spot-checked
    against the oracle, and every later output of that input must equal
    it bit for bit.  ``corrupt`` perturbs every observed output, so a
    self-test can confirm that failures are counted.
    """

    def __init__(self, wl: Workload, signals: list, seed: int, corrupt: bool = False):
        self.wl = wl
        self.signals = signals
        self.corrupt = corrupt
        self.references = [None] * len(signals)
        # Comparisons reuse one buffer, so the checks between timed calls
        # leave no allocation churn behind for the next call to pay for.
        self._differ = np.empty(wl.n, dtype=bool)
        self.bad_input = [False] * len(signals)
        self.attempted = 0
        self.failed = 0
        self.spot_checks = 0
        self.spot_rel_err_max = 0.0
        rng = np.random.default_rng([seed, 1])
        half = wl.n // 2
        self.spot_indices = [
            [0, half, *rng.integers(1, half, size=RANDOM_SPOT_CHECKS).tolist()]
            for _ in signals
        ]

    def observed(self, out: np.ndarray) -> np.ndarray:
        if not self.corrupt:
            return out
        out = out.copy()
        out[0] += np.float32(1.0)
        return out

    def same_bits(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Whether two length-n float32 arrays hold the same bits."""
        np.not_equal(a.view(np.uint32), b.view(np.uint32), out=self._differ)
        return not self._differ.any()

    def _count(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok

    def _spot_error(self, i: int, packed: np.ndarray) -> float:
        """Largest spot deviation, normalised as ``efft check`` does it.

        Each deviation is divided by the larger of the exact coefficient's
        magnitude and the RMS magnitude of the sampled exact coefficients.
        """
        x64 = self.signals[i].astype(np.float64)
        spectrum = efft.PermSpectrum(packed)
        ks = self.spot_indices[i]
        exact = np.array([efft.naive_dft_at(x64, k) for k in ks])
        computed = np.array([spectrum.coefficient(k) for k in ks])
        rms = np.sqrt(np.mean(np.abs(exact) ** 2))
        scale = np.maximum(np.abs(exact), rms)
        self.spot_checks += len(ks)
        return float(np.max(np.abs(computed - exact) / scale))

    def verify(self, handle) -> None:
        """Run every input once, check it against the oracle, keep it as reference."""
        for i, signal in enumerate(self.signals):
            handle.data[:] = signal
            out = self.observed(efft.run_transform(handle)).copy()
            err = self._spot_error(i, out)
            self.spot_rel_err_max = max(self.spot_rel_err_max, err)
            self.bad_input[i] = not err <= SPOT_TOLERANCE
            self.references[i] = out
            self._count(not self.bad_input[i])

    def verify_serial(self) -> None:
        """A multi-worker plan must match a one-worker plan bitwise."""
        if self.wl.workers == 1:
            return
        with efft.handle_create(make_plan(self.wl, workers=1)) as serial:
            for i, signal in enumerate(self.signals):
                serial.data[:] = signal
                efft.run_transform(serial)
                if not self._count(self.same_bits(serial.result, self.references[i])):
                    self.bad_input[i] = True

    def check(self, i: int, out: np.ndarray, replay=None) -> bool:
        """Count one operation on input i; it passes if it repeats the reference."""
        out = self.observed(out)
        ok = not self.bad_input[i] and self.same_bits(out, self.references[i])
        if replay is not None:
            ok = ok and self.same_bits(replay, out)
        return self._count(ok)


def _config(wl: Workload, **extra) -> str:
    return json.dumps({**asdict(wl), **extra})


def _child(mode: str, config: str):
    """Run this script in a fresh process; returns its last output line as JSON."""
    proc = subprocess.run([sys.executable, str(Path(__file__)), mode, config],
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe_main(config: str) -> int:
    """Time SETUP_CYCLES plan_create + handle_create + close cycles.

    Prints [start, after plan_create, after handle_create] in
    ``perf_counter_ns`` units for each cycle; on Linux that clock is the
    same in every process, so the parent can place the spans in its trace.
    """
    wl = Workload(**json.loads(config))
    stamps = []
    for _ in range(SETUP_CYCLES):
        t0 = time.perf_counter_ns()
        plan = make_plan(wl)
        t1 = time.perf_counter_ns()
        handle = efft.handle_create(plan)
        t2 = time.perf_counter_ns()
        handle.close()
        stamps.append([t0, t1, t2])
    print(json.dumps(stamps))
    return 0


def setup_seconds(wl: Workload, tracer=None) -> dict:
    """Median seconds of plan_create, handle_create and their sum.

    The medians are over every cycle of SETUP_PROCESSES fresh processes.
    """
    stamps = []
    for _ in range(SETUP_PROCESSES):
        stamps += _child("--setup-probe", _config(wl))
    if tracer is not None:
        for c, (t0, t1, t2) in enumerate(stamps):
            cycle = tracer.add("core.setup_cycle", -1 - c, t0, t2)
            tracer.add("core.plan_create", -1 - c, t0, t1, cycle)
            tracer.add("core.handle_create", -1 - c, t1, t2, cycle)
    return {
        "plan": statistics.median(t1 - t0 for t0, t1, _ in stamps) / 1e9,
        "handle": statistics.median(t2 - t1 for _, t1, t2 in stamps) / 1e9,
        "setup": statistics.median(t2 - t0 for t0, _, t2 in stamps) / 1e9,
    }


def first_run_cycles(wl: Workload, signals: list, checker: Checker, tracer=None) -> list:
    """Create, run once and close fresh handles; returns the first runs' seconds."""
    first_s = []
    deadline = time.perf_counter() + FIRST_RUN_SECONDS
    c = 0
    while c < FIRST_RUN_CYCLES or time.perf_counter() < deadline:
        t0 = time.perf_counter_ns()
        handle = efft.handle_create(make_plan(wl))
        try:
            i = c % len(signals)
            handle.data[:] = signals[i]
            t1 = time.perf_counter_ns()
            efft.run_transform(handle)
            t2 = time.perf_counter_ns()
            checker.check(i, handle.result)
        finally:
            handle.close()
        first_s.append((t2 - t1) / 1e9)
        if tracer is not None:
            op = -1_000_000 - c
            cycle = tracer.add("core.first_run_cycle", op, t0, t2)
            tracer.add("recombine.run_transform", op, t1, t2, cycle)
        c += 1
    return first_s


def timed_calls(handle, signals, checker, seconds, min_ops):
    """Closed loop of run_transform calls; returns (wall seconds, CPU seconds) per call."""
    wall, cpu = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while time.perf_counter() < deadline or k < min_ops:
        i = k % len(signals)
        handle.data[:] = signals[i]
        c0 = time.process_time()
        t0 = time.perf_counter()
        efft.run_transform(handle)
        t1 = time.perf_counter()
        c1 = time.process_time()
        wall.append(t1 - t0)
        cpu.append(c1 - c0)
        checker.check(i, handle.result)
        k += 1
    return wall, cpu


def _status_bytes(field: str):
    """A byte count from /proc/self/status, or None where there is none."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _own_peak_rss() -> int:
    """This process's peak resident bytes since it was started.

    ``ru_maxrss`` is not used where /proc exists: across fork and exec,
    Linux carries the parent's peak into the child's ``ru_maxrss``, while
    ``VmHWM`` belongs to the new image alone.
    """
    peak = _status_bytes("VmHWM")
    if peak is None:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return peak


def rss_probe_main(config: str) -> int:
    """Run the workload's inputs once on one handle; print [peak, resident before].

    The signals are made one at a time, so the benchmark's own inputs add
    only one signal to the peak.
    """
    spec = json.loads(config)
    seed = spec.pop("seed")
    wl = Workload(**spec)
    before = _status_bytes("VmRSS")
    with efft.handle_create(make_plan(wl)) as handle:
        for i in range(INPUTS):
            handle.data[:] = make_signal(wl, seed, i)
            efft.run_transform(handle)
    print(json.dumps([_own_peak_rss(), before]))
    return 0


class Replay:
    """Serial re-run of one transform through the public stage functions."""

    def __init__(self, handle):
        self.plan = handle.plan
        self.buf = np.empty(self.plan.n, dtype=np.float32)
        # The kernel run_transform itself uses on this (the owner's) thread.
        self.kernel = handle.kernel_for_current_worker()

    def run(self, data, tracer: Tracer, op: int, parent: int) -> None:
        plan, buf, m = self.plan, self.buf, self.plan.binsize
        with tracer.span("scatter.scatter", op, parent):
            efft.scatter(data, buf, plan)
        with tracer.span("leaf_dft.leaves", op, parent) as stage:
            for lo in range(0, plan.n, m):
                with tracer.span("leaf_dft.transform", op, stage):
                    self.kernel.transform(buf[lo:lo + m])
        with tracer.span("recombine.merges", op, parent) as stage:
            # Level L merges halves of n / 2**L into segments of n / 2**(L-1);
            # level 1 is the root merge.  Deepest level first, as the data needs.
            for level in range(TRACED_LEVELS, 0, -1):
                with tracer.span(f"recombine.merge_level_{level}", op, stage) as lv:
                    seg = plan.n >> (level - 1)
                    for lo in range(0, plan.n, seg) if level <= plan.splits else ():
                        with tracer.span("recombine.reassemble_pair_inplace", op, lv):
                            efft.reassemble_pair_inplace(buf[lo:lo + seg], seg // 2,
                                                         plan.k_tile)


def copy_seconds(n: int) -> list:
    """Seconds per numpy copy of n float32, the reference memory bandwidth."""
    src = np.ones(n, dtype=np.float32)
    dst = np.empty_like(src)
    out = []
    for _ in range(COPY_REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        out.append(time.perf_counter() - t0)
    return out


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _median_of(per_op: dict, ops) -> float:
    return statistics.median(per_op[op] for op in ops)


def measure(wl: Workload, seed: int, seconds: float, trace: bool, corrupt: bool = False):
    """Run one workload; returns (result, record, chrome trace or None)."""
    signals = make_signals(wl, seed)
    checker = Checker(wl, signals, seed, corrupt)
    tracer = Tracer() if trace else None
    # One handle at a time, so no phase runs more pool threads than T.
    with efft.handle_create(make_plan(wl)) as handle:
        checker.verify(handle)
        # After the handle's first transforms, so the merge workspaces the
        # library allocates lazily count; before the one-worker plan, the
        # replay or the copy allocate anything.
        high_water = allocation_high_water()
    checker.verify_serial()
    setup = setup_seconds(wl, tracer)
    first_s = first_run_cycles(wl, signals, checker, tracer)
    with efft.handle_create(make_plan(wl)) as handle:
        timed_calls(handle, signals, checker, WARMUP_SECONDS, MIN_OPS)
        if trace:
            copies = copy_seconds(wl.n)
            ops, cpu, wall, untraced = traced_calls(handle, signals, checker, seconds, tracer)
        else:
            wall, cpu = timed_calls(handle, signals, checker, seconds, MIN_SAMPLES)
    cpu_wall = sum(cpu) / sum(wall)
    record = {
        "workload": asdict(wl),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "samples": len(wall),
        "setup_processes": SETUP_PROCESSES,
        "setup_cycles_per_process": SETUP_CYCLES,
        "first_run_cycles": len(first_s),
        "machine": machine_record(ROOT, SRC, seed=seed, workers=wl.workers,
                                  working_set_bytes=2 * 4 * wl.n, cpu_wall_ratio=cpu_wall),
    }
    if trace:
        record["untraced_samples"] = len(untraced)
        metrics = layer_metrics(wl, tracer, ops, untraced, setup, high_water, copies,
                                checker, cpu_wall)
        record["self_time_s"] = tracer.self_seconds()
        chrome = tracer.chrome_trace({"workload": wl.name, "seed": seed,
                                      "self_time_s": record["self_time_s"]})
    else:
        peak_rss, rss_before = _child("--rss-probe", _config(wl, seed=seed))
        if rss_before is not None:
            record["peak_rss_over_start_bytes"] = peak_rss - rss_before
        p50 = statistics.median(wall)
        metrics = {
            "transform_s_p50": _metric(p50, "s"),
            "transform_s_p90": _metric(np.percentile(wall, 90), "s"),
            "gflops": _metric(flops_model(wl.n) / p50 / 1e9, "GFLOP/s"),
            "setup_s": _metric(setup["setup"], "s"),
            "first_run_s": _metric(statistics.median(first_s), "s"),
            "peak_rss_bytes": _metric(peak_rss, "bytes"),
            "ok_ratio": _metric((checker.attempted - checker.failed) / checker.attempted,
                                "ratio"),
        }
        chrome = None
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    record["result"] = result
    return result, record, chrome


def traced_calls(handle, signals, checker, seconds, tracer):
    """Traced loop: per operation an untraced run_transform, then a traced
    one and its serial replay.

    Returns (ops, CPU seconds and wall seconds of each traced run_transform,
    wall seconds of each untraced one).
    """
    replay = Replay(handle)
    ops, cpu, wall, untraced = [], [], [], []
    deadline = time.perf_counter() + seconds
    op = 0
    while time.perf_counter() < deadline or op < MIN_OPS:
        i = op % len(signals)
        handle.data[:] = signals[i]
        t0 = time.perf_counter()
        efft.run_transform(handle)
        untraced.append(time.perf_counter() - t0)
        checker.check(i, handle.result)
        handle.data[:] = signals[i]
        with tracer.span("bench.operation", op) as root:
            c0 = time.process_time()
            with tracer.span("recombine.run_transform", op, root) as rt:
                efft.run_transform(handle)
            cpu.append(time.process_time() - c0)
            with tracer.span("bench.replay", op, root) as rp:
                replay.run(handle.data, tracer, op, rp)
        start, end = tracer.spans[rt][3:5]
        wall.append((end - start) / 1e9)
        checker.check(i, handle.result, replay=replay.buf)
        ops.append(op)
        op += 1
    return ops, cpu, wall, untraced


def layer_metrics(wl, tracer, ops, untraced, setup, high_water, copies, checker, cpu_wall):
    n, s = wl.n, wl.splits
    stages = [tracer.per_op_seconds(name)
              for name in ("scatter.scatter", "leaf_dft.leaves", "recombine.merges")]
    scatter, leaves, merges = (_median_of(stage, ops) for stage in stages)
    rt = tracer.per_op_seconds("recombine.run_transform")
    run_s = _median_of(rt, ops)
    # What run_transform spends beyond the serial stages: pool and scheduling cost.
    overhead = statistics.median(rt[op] - sum(stage[op] for stage in stages) for op in ops)
    calls = len(tracer.durations("leaf_dft.transform")) / len(ops)
    # Bytes and FLOPs below come from array sizes and the 2.5 m log2 m model,
    # not from counters: scatter and each merge level read and write n float32.
    scatter_bytes = 2 * 4 * n
    merge_bytes = 2 * 4 * n * s
    bins = 1 << s
    metrics = {
        "core.plan_create_s": _metric(setup["plan"], "s"),
        "core.handle_create_s": _metric(setup["handle"], "s"),
        "scatter.scatter_s": _metric(scatter, "s"),
        "scatter.bytes_computed": _metric(scatter_bytes, "bytes"),
        "scatter.gbps_computed": _metric(scatter_bytes / scatter / 1e9, "GB/s"),
        "leaf_dft.leaf_s": _metric(leaves, "s"),
        "leaf_dft.calls": _metric(calls, "count"),
        "leaf_dft.call_us_p50": _metric(
            statistics.median(tracer.durations("leaf_dft.transform")) * 1e6, "us"),
        "leaf_dft.gflops_computed": _metric(
            bins * flops_model(n // bins) / leaves / 1e9, "GFLOP/s"),
        "recombine.merge_s": _metric(merges, "s"),
    }
    for level in range(1, TRACED_LEVELS + 1):
        metrics[f"recombine.merge_level_{level}_s"] = _metric(
            _median_of(tracer.per_op_seconds(f"recombine.merge_level_{level}"), ops), "s")
    metrics.update({
        "recombine.merge_gbps_computed": _metric(merge_bytes / merges / 1e9, "GB/s"),
        "parallel.run_transform_s": _metric(run_s, "s"),
        "parallel.untraced_run_transform_s": _metric(statistics.median(untraced), "s"),
        "parallel.overhead_s": _metric(overhead, "s"),
        "parallel.overhead_share": _metric(overhead / run_s, "ratio"),
        "parallel.cpu_wall_ratio": _metric(cpu_wall, "ratio"),
        "memory.high_water_bytes": _metric(high_water, "bytes"),
        "memory.copy_gbps_computed": _metric(
            2 * 4 * n / statistics.median(copies) / 1e9, "GB/s"),
        "oracle.spot_rel_err_max": _metric(checker.spot_rel_err_max, "ratio"),
        "oracle.spot_checks": _metric(checker.spot_checks, "count"),
    })
    return metrics


def summary_lines(record: dict) -> list:
    wl = record["workload"]
    machine = record["machine"]
    lines = [
        f"# {wl['name']}: n={wl['n']} s={wl['splits']} T={wl['workers']} "
        f"seed={record['seed']} samples={record['samples']} "
        f"cpu/wall={machine['cpu_wall_ratio']:.3f}",
    ]
    for key in ("scaling_note", "cache_note"):
        if key in machine:
            lines.append(f"# {machine[key]}")
    if "peak_rss_over_start_bytes" in record:
        lines.append(f"# peak resident set above the probe's before plan_create = "
                     f"{record['peak_rss_over_start_bytes']} bytes")
    if record["trace"]:
        metrics = record["result"]["metrics"]
        lines.append(
            f"# parallel.overhead_s = {metrics['parallel.overhead_s']['value']:.6g} s beside "
            f"untraced run_transform p50 = "
            f"{metrics['parallel.untraced_run_transform_s']['value']:.6g} s "
            f"over {record['untraced_samples']} calls interleaved with the traced ones")
        lines += [f"# self time {name} = {sec:.6g} s"
                  for name, sec in record["self_time_s"].items()]
    for name, metric in record["result"]["metrics"].items():
        lines.append(f"# {name} = {metric['value']:.6g} {metric['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-probe", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rss_probe:
        return rss_probe_main(args.rss_probe)
    if args.setup_probe:
        return setup_probe_main(args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]
    result, record, chrome = measure(wl, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}.trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if chrome is not None:
        (OUT / f"{wl.name}.trace.json").write_text(json.dumps(chrome))
    print("\n".join(summary_lines(record)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
