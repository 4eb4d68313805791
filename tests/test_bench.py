"""Tests for the FLOP model, metrics, memory probe, and signal I/O."""

import sys

import numpy as np
import pytest

from efft import errors
from efft.bench import (
    RunMetrics,
    failed_row,
    flops_model,
    parse_int_list,
    parse_size,
    peak_memory_probe,
    random_signal,
    read_signal,
    resolve_workers,
    write_signal,
)
from efft.core import handle_create, plan_create
from efft.memory import allocation_high_water


class TestFlopsModel:
    def test_examples(self):
        assert flops_model(2) == 5.0
        assert flops_model(2 ** 20) == 52_428_800.0
        assert flops_model(2 ** 28) == 18_790_481_920.0

    def test_non_positive(self):
        with pytest.raises(errors.NonPositiveSize):
            flops_model(0)
        with pytest.raises(errors.NonPositiveSize):
            flops_model(-4)


class TestRunMetrics:
    def test_gflops_invariant_exact(self):
        m = RunMetrics.from_timing(2 ** 20, 3, 4, wall_seconds=0.25)
        assert m.gflops == flops_model(2 ** 20) / 0.25 / 1e9

    def test_rejects_non_positive_wall(self):
        with pytest.raises(ValueError):
            RunMetrics.from_timing(2 ** 10, 0, 1, wall_seconds=0.0)

    def test_csv_row_empty_fields(self):
        m = RunMetrics.from_timing(1024, 2, 4, wall_seconds=0.5)
        fields = m.csv_row().split(",")
        assert fields[0] == "1024" and fields[5] == "" and fields[6] == ""
        assert fields[7] == "ok"

    def test_failed_row(self):
        assert failed_row(8, 1, 2) == "8,1,2,,,,,failed"


class TestMemoryProbe:
    def test_probe_is_labeled_and_monotone(self):
        first = peak_memory_probe()
        assert first.source in ("vm_hwm", "max_rss", "internal")
        assert first.bytes is not None and first.bytes >= 0
        second = peak_memory_probe()
        assert second.source == first.source
        assert second.bytes >= first.bytes

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux /proc only")
    def test_linux_reports_peak_resident_size(self):
        probe = peak_memory_probe()
        assert probe.source == "vm_hwm"
        with open("/proc/self/status") as fh:
            hwm = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        assert 0 < probe.bytes <= hwm * 1024

    def test_high_water_covers_handle_buffers(self):
        n = 2 ** 20
        before = allocation_high_water()
        with handle_create(plan_create(n, 2, workers=1)) as h:
            assert h.data.shape == (n,)
            assert allocation_high_water() >= before
            assert allocation_high_water() >= 2 * n * 4
            assert peak_memory_probe().bytes >= 2 * n * 4


class TestSignalIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "sig.f32"
        x = random_signal(1024, seed=3)
        write_signal(path, x)
        assert path.stat().st_size == 4096
        back = read_signal(str(path), 1024)
        assert np.array_equal(back, x)

    def test_little_endian_layout(self, tmp_path):
        path = tmp_path / "one.f32"
        write_signal(path, np.array([1.0], dtype=np.float32))
        assert path.read_bytes() == b"\x00\x00\x80\x3f"

    def test_short_read(self, tmp_path):
        path = tmp_path / "short.f32"
        write_signal(path, np.zeros(1023, dtype=np.float32))
        with pytest.raises(ValueError, match="short read"):
            read_signal(str(path), 1024)

    def test_trailing_data(self, tmp_path):
        path = tmp_path / "long.f32"
        write_signal(path, np.zeros(1025, dtype=np.float32))
        with pytest.raises(ValueError, match="trailing"):
            read_signal(str(path), 1024)


class TestArguments:
    def test_random_signal_deterministic(self):
        a = random_signal(256, seed=7)
        b = random_signal(256, seed=7)
        assert np.array_equal(a, b)
        assert a.dtype == np.float32
        assert np.all(a >= -0.5) and np.all(a < 0.5)

    def test_parse_size(self):
        assert parse_size("4096") == 4096
        assert parse_size("2^12") == 4096
        with pytest.raises(ValueError):
            parse_size("3^5")
        with pytest.raises(ValueError):
            parse_size("2^-3")

    def test_parse_int_list(self):
        assert parse_int_list("4") == [4]
        assert parse_int_list("1,2,4") == [1, 2, 4]
        assert parse_int_list("0:3") == [0, 1, 2, 3]
        for empty in ("5:2", "", ","):
            with pytest.raises(ValueError):
                parse_int_list(empty)

    def test_resolve_workers_precedence(self, monkeypatch):
        monkeypatch.setenv("EFFT_WORKERS", "3")
        assert resolve_workers(2) == 2          # flag wins
        assert resolve_workers(None) == 3       # env next
        monkeypatch.delenv("EFFT_WORKERS")
        assert resolve_workers(None) >= 1       # hardware fallback
        monkeypatch.setenv("EFFT_WORKERS", "0")
        with pytest.raises(ValueError):
            resolve_workers(None)
        with pytest.raises(ValueError):
            resolve_workers(0)
