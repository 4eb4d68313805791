"""The machine record stored with every benchmark result.

It says what the numbers were measured on: processor, caches, CPU
affinity, library versions and source identity, and two judgements the
numbers need beside them: whether a multi-worker run really got more than
one core, and how the workload's working set compares with the caches.
"""

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")

# A T-worker run counts as having had T cores only if its process used at
# least this share of T CPU-seconds per wall-second.
CORES_USED_SHARE = 0.9


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _size_bytes(text):
    text = text.strip()
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def _caches():
    """Data and unified caches seen by CPU 0, keyed L1d, L2, L3."""
    caches = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = _size_bytes((index / "size").read_text())
            shared = (index / "shared_cpu_list").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        name = f"L{level}d" if kind == "Data" else f"L{level}"
        caches[name] = {"bytes": size, "shared_cpu_list": shared}
    return caches


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_record(root: Path, src: Path, *, seed: int, workers: int,
                   working_set_bytes: int, cpu_wall_ratio: float) -> dict:
    """Describe the machine, the sources and this run's use of it."""
    caches = _caches()
    record = {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(src),
        "seed": seed,
        "workers": workers,
        "cpu_wall_ratio": cpu_wall_ratio,
        "working_set_bytes": working_set_bytes,
    }
    if workers > 1:
        got = cpu_wall_ratio >= CORES_USED_SHARE * workers
        record["got_all_cores"] = got
        record["scaling_note"] = (
            f"T={workers} used {cpu_wall_ratio:.2f} CPU-seconds per wall-second; "
            + ("its times can show scaling." if got else
               f"it did not get {workers} cores, so its times are not evidence of scaling.")
        )
    for level in ("L2", "L3"):
        if level in caches:
            record[f"working_set_over_{level}"] = working_set_bytes / caches[level]["bytes"]
    if "L3" in caches:
        ratio = record["working_set_over_L3"]
        record["cache_note"] = (
            f"working set is {ratio:.3g}x the L3 ({caches['L3']['bytes']} bytes, "
            f"CPUs {caches['L3']['shared_cpu_list']}); "
            + ("it does not reach 4x L3, so no workload here measures a DRAM-bound regime."
               if ratio < 4 else "it exceeds 4x L3.")
        )
    return record
