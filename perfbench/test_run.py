"""Self-test of the benchmark on a tiny configuration.

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = run.Workload("tiny", 1 << 10, 2, 2, test_mode=True)


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_reported_with_its_unit(trace, kind):
    result, record, chrome = run.measure(TINY, seed=3, seconds=0.2, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _units(kind)
    assert all(isinstance(m["value"], float) for m in metrics.values())
    json.dumps(record)
    if trace:
        names = {event["name"] for event in chrome["traceEvents"]}
        for name in ("core.plan_create", "core.handle_create", "scatter.scatter",
                     "leaf_dft.transform", "recombine.reassemble_pair_inplace",
                     "recombine.run_transform"):
            assert name in names


@pytest.mark.parametrize("trace", [False, True])
def test_corrupted_output_counts_as_failed(trace):
    result, _, _ = run.measure(TINY, seed=3, seconds=0.2, trace=trace, corrupt=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 0.0


def test_high_water_counts_the_merge_workspace():
    # In a fresh process, so that no earlier test's buffers set the peak.
    # A closed handle of the same plan sets the peak a handle alone reaches.
    code = ("import json, run; "
            "wl = run.Workload('tiny', 1 << 10, 2, 2, test_mode=True); "
            "run.efft.handle_create(run.make_plan(wl)).close(); "
            "alone = run.allocation_high_water(); "
            "r, _, _ = run.measure(wl, seed=3, seconds=0.2, trace=True); "
            "print(json.dumps([alone, r['metrics']['memory.high_water_bytes']['value']]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE, capture_output=True,
                          text=True, timeout=170, check=True)
    alone, high_water = json.loads(proc.stdout.strip().splitlines()[-1])
    assert alone > 2 * 4 * TINY.n
    # The merges of a plan with s > 0 allocate their workspace during the
    # first transform, and the figure must include it.
    assert high_water > alone


def test_self_time_never_exceeds_span_time():
    tracer = run.Tracer()
    with tracer.span("outer", 0) as outer:
        with tracer.span("inner", 0, outer):
            pass
    self_s = tracer.self_seconds()
    total = tracer.durations("outer")[0]
    assert 0 <= self_s["outer"] <= total
    assert self_s["outer"] + self_s["inner"] == pytest.approx(total)


def test_command_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_s0_t1", "--seed", "5",
         "--seconds", "0.5", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert set(result["metrics"]) == set(_units("end_to_end"))


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_s0_t1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
