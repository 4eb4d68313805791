"""Run metrics, the FLOP model, and raw-signal I/O.

Performance is always derived from the wall-clock time of the transform
call alone (handle construction is excluded; it is often slower than the
transform itself) through the conventional real-FFT operation count
2.5 * n * log2(n).  The CSV schema emitted by the CLI lives here so tests
and tools can rely on one definition.
"""

import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import NonPositiveSize
from .memory import allocation_high_water

CSV_HEADER = "size,splits,workers,runtime_s,gflops,l2,mem_bytes,status"

DEFAULT_SEED = 12345
DEFAULT_REPEATS = 3


def flops_model(n: int) -> float:
    """Operation count 2.5 * n * log2(n) used for GFLOP/s reporting."""
    if n <= 0:
        raise NonPositiveSize(f"transform size must be positive, got {n}")
    return 2.5 * n * math.log2(n)


@dataclass
class RunMetrics:
    """Measurements of one transform execution."""

    n: int
    splits: int
    workers: int
    wall_seconds: float
    gflops: float
    l2: Optional[float] = None
    peak_mem_bytes: Optional[int] = None
    status: str = "ok"

    @classmethod
    def from_timing(cls, n, splits, workers, wall_seconds, **kw) -> "RunMetrics":
        if not wall_seconds > 0:
            raise ValueError("wall time must be positive")
        gflops = flops_model(n) / wall_seconds / 1e9
        return cls(n, splits, workers, wall_seconds, gflops, **kw)

    def csv_row(self) -> str:
        l2 = "" if self.l2 is None else f"{self.l2:.6e}"
        mem = "" if self.peak_mem_bytes is None else str(self.peak_mem_bytes)
        return (
            f"{self.n},{self.splits},{self.workers},"
            f"{self.wall_seconds:.6e},{self.gflops:.6g},{l2},{mem},{self.status}"
        )


def failed_row(n: int, splits: int, workers: int) -> str:
    """CSV row for a configuration that could not run; fields stay empty."""
    return f"{n},{splits},{workers},,,,,failed"


class MemoryProbe(NamedTuple):
    bytes: Optional[int]
    source: str


def peak_memory_probe() -> MemoryProbe:
    """Peak process memory from the best counter the platform exposes.

    Tries the process's peak resident size from /proc ("vm_hwm"), then
    from getrusage ("max_rss"), then falls back to the library's own
    high-water allocation mark ("internal"); the source field says which
    one was used.  Peak counters only ever grow, so a single query after
    the run replaces any sampling loop.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    kb = int(line.split()[1])
                    return MemoryProbe(kb * 1024, "vm_hwm")
    except OSError:
        pass
    try:
        import resource

        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if kb > 0:
            return MemoryProbe(kb * 1024, "max_rss")
    except (ImportError, OSError):
        pass
    return MemoryProbe(allocation_high_water(), "internal")


def random_signal(n: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Deterministic float32 test signal, uniform in [-0.5, 0.5)."""
    rng = np.random.default_rng(seed)
    return rng.random(n, dtype=np.float32) - np.float32(0.5)


def read_signal(path: str, n: int) -> np.ndarray:
    """Read exactly n little-endian binary32 values; no header."""
    size = os.path.getsize(path)
    if size != 4 * n:
        kind = "short read" if size < 4 * n else "trailing data"
        raise ValueError(f"{path}: expected exactly {4 * n} bytes, found {size} ({kind})")
    return np.fromfile(path, dtype="<f4", count=n)


def write_signal(path: str, values: np.ndarray) -> None:
    """Write values as little-endian binary32, no header."""
    np.asarray(values, dtype="<f4").tofile(path)


def resolve_workers(flag: Optional[int] = None) -> int:
    """Worker count: CLI flag, then EFFT_WORKERS, then hardware concurrency."""
    if flag is not None:
        if flag < 1:
            raise ValueError("workers must be >= 1")
        return flag
    env = os.environ.get("EFFT_WORKERS")
    if env:
        value = int(env)
        if value < 1:
            raise ValueError(f"EFFT_WORKERS must be >= 1, got {env}")
        return value
    return os.cpu_count() or 1


def parse_size(text: str) -> int:
    """Size argument: a plain integer or the form 2^K."""
    text = text.strip()
    if "^" in text:
        base, _, exp = text.partition("^")
        if base.strip() != "2":
            raise ValueError(f"only powers of two are supported, got {text!r}")
        if int(exp) < 0:
            raise ValueError(f"the exponent must be >= 0, got {text!r}")
        return 2 ** int(exp)
    return int(text)


def parse_int_list(text: str) -> list:
    """Range argument: "4", "1,2,4", or inclusive "0:3"."""
    text = text.strip()
    if ":" in text:
        lo, _, hi = text.partition(":")
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    if not values:
        raise ValueError(f"empty list {text!r}")
    return values
