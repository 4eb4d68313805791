"""Tests for the command-line subcommands and their CSV contract."""

import csv
import io
import os
import subprocess
import sys

import numpy as np
import pytest

from efft import cli
from efft.bench import CSV_HEADER, DEFAULT_SEED, random_signal, write_signal
from efft.cli import main
from efft.errors import AllocationFailure
from efft.oracle import naive_dft, pack_perm


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_input(tmp_path, n, values=None):
    path = tmp_path / "input.f32"
    if values is None:
        values = random_signal(n, seed=DEFAULT_SEED)
    write_signal(path, values)
    return str(path)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == CSV_HEADER.split(",")
    return rows[1:]


class TestTransform:
    def test_impulse_matches_reference(self, tmp_path, capsys):
        n = 2 ** 12
        impulse = np.zeros(n, dtype=np.float32)
        impulse[0] = 1.0
        inp = make_input(tmp_path, n, impulse)
        out = str(tmp_path / "out.f32")
        code, stdout, _ = run_cli(
            ["transform", "--size", str(n), "--splits", "2", "--workers", "2",
             "--test-mode", "--input", inp, "--output", out], capsys)
        assert code == 0
        rows = parse_csv(stdout)
        assert rows[0][0] == str(n) and rows[0][7] == "ok"
        spectrum = np.fromfile(out, dtype="<f4")
        reference = pack_perm(naive_dft(impulse)).astype(np.float32)
        assert np.allclose(spectrum, reference, atol=1e-5)

    def test_deterministic_output_bytes(self, tmp_path, capsys):
        n = 2 ** 10
        inp = make_input(tmp_path, n)
        out1, out2 = str(tmp_path / "a.f32"), str(tmp_path / "b.f32")
        for out in (out1, out2):
            code, _, _ = run_cli(
                ["transform", "--size", "2^10", "--splits", "3", "--workers", "4",
                 "--test-mode", "--input", inp, "--output", out], capsys)
            assert code == 0
        with open(out1, "rb") as fa, open(out2, "rb") as fb:
            assert fa.read() == fb.read()

    def test_short_file_fails(self, tmp_path, capsys):
        inp = make_input(tmp_path, 100)
        code, _, stderr = run_cli(
            ["transform", "--size", "128", "--splits", "0", "--test-mode",
             "--input", inp, "--output", str(tmp_path / "o.f32")], capsys)
        assert code == 1
        assert "short read" in stderr

    def test_missing_file_fails(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["transform", "--size", "128", "--splits", "0", "--test-mode",
             "--input", str(tmp_path / "nope.f32"),
             "--output", str(tmp_path / "o.f32")], capsys)
        assert code == 1
        assert stderr

    def test_plan_error_reported(self, tmp_path, capsys):
        inp = make_input(tmp_path, 2 ** 10)
        code, _, stderr = run_cli(
            ["transform", "--size", "2^10", "--splits", "4",
             "--input", inp, "--output", str(tmp_path / "o.f32")], capsys)
        assert code == 1
        assert "multiple" in stderr

    def test_non_finite_input_is_a_clean_error(self, tmp_path):
        values = np.zeros(1024, dtype=np.float32)
        values[7] = np.nan
        inp = make_input(tmp_path, 1024, values)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "efft.cli", "transform", "--size", "1024",
             "--splits", "2", "--test-mode", "--workers", "2", "--input", inp,
             "--output", str(tmp_path / "o.f32")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert "error: input contains non-finite values" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestCleanErrors:
    @pytest.mark.parametrize("command", ["bench", "check"])
    # 2^62 floats exceed numpy's largest array, which numpy refuses before allocating.
    @pytest.mark.parametrize("size, splits", [("0", "0"), ("2^20", "-1"), ("2^62", "0")])
    def test_bad_plan_arguments(self, command, size, splits, capsys):
        code, stdout, stderr = run_cli(
            [command, "--size", size, "--splits", splits, "--workers", "1"], capsys)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["check", "--size", "2^15", "--splits", "1", "--spot-checks", "0"],
        ["check", "--size", "2^15", "--splits", "1", "--spot-checks", "-3"],
        ["bench", "--size", "2^10", "--splits", "1", "--repeats", "0"],
    ])
    def test_count_below_one(self, argv, capsys):
        code, stdout, stderr = run_cli(argv + ["--workers", "1"], capsys)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:")

    @pytest.mark.parametrize("command", ["bench", "check"])
    def test_allocation_failure(self, command, capsys, monkeypatch):
        def fail(plan):
            raise AllocationFailure("cannot allocate 64 bytes")

        monkeypatch.setattr(cli, "handle_create", fail)
        code, stdout, stderr = run_cli(
            [command, "--size", "2^10", "--splits", "1", "--workers", "1",
             "--test-mode"], capsys)
        assert code == 1
        assert stdout == ""
        assert "error: cannot allocate 64 bytes" in stderr

    @pytest.mark.parametrize("argv", [
        # numpy refuses the 2^62-float input signal before allocating it.
        ["scan", "--size", "2^62", "--splits", "0", "--scan-workers", "1"],
        ["scan", "--size", "2^10", "--splits", "", "--test-mode"],
        ["scan", "--size", "2^10", "--splits", "1", "--scan-workers", "", "--test-mode"],
    ])
    def test_bad_scan_arguments(self, argv, capsys):
        code, stdout, stderr = run_cli(argv, capsys)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:")
        assert "Traceback" not in stderr

    def test_missing_output_directory(self, tmp_path, capsys):
        inp = make_input(tmp_path, 2 ** 10)
        code, stdout, stderr = run_cli(
            ["transform", "--size", "2^10", "--splits", "0", "--test-mode",
             "--input", inp, "--output", str(tmp_path / "missing" / "o.f32")], capsys)
        assert code == 1
        assert stdout == ""
        assert stderr.startswith("error:")
        assert "Traceback" not in stderr


class TestScan:
    def test_single_cell_grid(self, capsys):
        code, stdout, _ = run_cli(
            ["scan", "--size", "2^12", "--splits", "2", "--scan-workers", "1",
             "--repeats", "1", "--test-mode"], capsys)
        assert code == 0
        rows = parse_csv(stdout)
        assert len(rows) == 2
        assert rows[0][7] == "ok" and rows[1][7] == "best"
        assert rows[0][:5] == rows[1][:5]

    def test_failed_cell_continues(self, capsys):
        # splits 5 is invalid for 2^12 in production mode (needs 2^13 multiple)
        code, stdout, _ = run_cli(
            ["scan", "--size", "2^12", "--splits", "2,5", "--scan-workers", "1",
             "--repeats", "1"], capsys)
        assert code == 0
        rows = parse_csv(stdout)
        statuses = [r[7] for r in rows]
        assert "failed" in statuses and "best" in statuses
        failed = rows[statuses.index("failed")]
        assert failed[3] == "" and failed[4] == ""

    def test_non_timing_columns_stable(self, capsys):
        # per-cell rows only; the trailing argmax row is timing-derived
        argv = ["scan", "--size", "2^12", "--splits", "0:2", "--scan-workers", "1,2",
                "--repeats", "1", "--test-mode"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        stable1 = [(r[0], r[1], r[2], r[5], r[7]) for r in parse_csv(out1) if r[7] != "best"]
        stable2 = [(r[0], r[1], r[2], r[5], r[7]) for r in parse_csv(out2) if r[7] != "best"]
        assert stable1 == stable2

    def test_rows_do_not_hold_earlier_cells(self):
        # In a fresh process, so the high-water mark counts this scan alone.
        n = 2 ** 20
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        script = (
            "import efft.cli, efft.memory; "
            "efft.cli.main(['scan', '--size', '2^20', '--splits', '1:2', "
            "'--scan-workers', '1', '--repeats', '1']); "
            "print(efft.memory.allocation_high_water())")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        high_water = int(proc.stdout.splitlines()[-1])
        assert high_water < 2 * 8 * n  # two handle blocks of 2n floats


class TestCheck:
    def test_small_size_l2_within_tolerance(self, capsys):
        code, stdout, _ = run_cli(
            ["check", "--size", "2^12", "--splits", "2", "--workers", "2",
             "--test-mode"], capsys)
        assert code == 0
        rows = parse_csv(stdout)
        assert rows[0][7] == "ok"
        assert float(rows[0][5]) <= 5e-6

    def test_spot_check_path(self, capsys):
        code, stdout, _ = run_cli(
            ["check", "--size", "2^15", "--splits", "3", "--workers", "2",
             "--spot-checks", "8", "--test-mode"], capsys)
        assert code == 0
        rows = parse_csv(stdout)
        assert float(rows[0][5]) <= 1e-5

    def test_corrupted_output_fails(self, capsys, monkeypatch):
        # No float32 transform meets a zero tolerance.
        monkeypatch.setattr(cli, "L2_TOLERANCE", 0.0)
        code, stdout, stderr = run_cli(
            ["check", "--size", "2^12", "--splits", "2", "--test-mode"], capsys)
        assert code == 1
        rows = parse_csv(stdout)
        assert rows[0][7] == "failed"
        assert "error: accuracy check failed" in stderr


class TestBench:
    def test_row_well_formed(self, capsys):
        code, stdout, _ = run_cli(
            ["bench", "--size", "2^12", "--splits", "2", "--workers", "2",
             "--repeats", "2", "--test-mode"], capsys)
        assert code == 0
        rows = parse_csv(stdout)
        runtime, gflops = float(rows[0][3]), float(rows[0][4])
        assert runtime > 0 and gflops > 0

    def test_mem_flag_fills_column(self, capsys):
        code, stdout, stderr = run_cli(
            ["bench", "--size", "2^12", "--splits", "2", "--workers", "1",
             "--repeats", "1", "--test-mode", "--mem"], capsys)
        assert code == 0
        rows = parse_csv(stdout)
        assert int(rows[0][6]) > 0
        assert "peak memory source" in stderr


class TestWorkerPrecedence:
    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EFFT_WORKERS", "1")
        _, stdout, _ = run_cli(
            ["bench", "--size", "2^10", "--splits", "1", "--workers", "2",
             "--repeats", "1", "--test-mode"], capsys)
        assert parse_csv(stdout)[0][2] == "2"

    def test_env_used_without_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("EFFT_WORKERS", "2")
        _, stdout, _ = run_cli(
            ["bench", "--size", "2^10", "--splits", "1", "--repeats", "1",
             "--test-mode"], capsys)
        assert parse_csv(stdout)[0][2] == "2"
