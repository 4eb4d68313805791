"""Aligned buffer allocation, a live-bytes high-water mark, and lane checks.

Signal buffers are allocated on a 64-byte boundary so that tile-local
lanes and leaf segments start on cache-line boundaries.  The module also
keeps a process-local high-water mark of bytes handed out here, used as
the fallback when the platform exposes no peak-memory counter.  The
kernels' public entry points check the buffers they are given with
check_lane before they reinterpret them as complex64.
"""

import threading
import weakref

import numpy as np

from .errors import AllocationFailure, SizeMismatch

ALIGNMENT = 64

_lock = threading.Lock()
_live_bytes = 0
_peak_bytes = 0


def _track(nbytes: int) -> None:
    global _live_bytes, _peak_bytes
    with _lock:
        _live_bytes += nbytes
        if _live_bytes > _peak_bytes:
            _peak_bytes = _live_bytes


def _untrack(nbytes: int) -> None:
    global _live_bytes
    with _lock:
        _live_bytes -= nbytes


def allocation_high_water() -> int:
    """Peak number of live bytes ever allocated through aligned_empty."""
    with _lock:
        return _peak_bytes


def aligned_empty(n: int, dtype=np.float32) -> np.ndarray:
    """Uninitialized 1-D array of n elements starting on a 64-byte boundary.

    The contents are whatever the allocator returns; callers are expected
    to perform the first write themselves (first touch).
    """
    itemsize = np.dtype(dtype).itemsize
    nbytes = n * itemsize
    try:
        raw = np.empty(nbytes + ALIGNMENT, dtype=np.uint8)
    except (MemoryError, ValueError) as exc:  # ValueError: a size numpy refuses outright
        raise AllocationFailure(f"cannot allocate {nbytes} bytes") from exc
    offset = (-raw.ctypes.data) % ALIGNMENT
    buf = raw[offset:offset + nbytes].view(dtype)
    _track(nbytes)
    weakref.finalize(buf, _untrack, nbytes)
    return buf


def check_lane(buf: np.ndarray, n: int, what: str, writable: bool = False) -> None:
    """Raise SizeMismatch unless buf is a contiguous float32 lane of n elements.

    A lane the kernel writes into (writable=True) must also be writable.
    """
    if buf.shape != (n,) or buf.dtype != np.float32 or not buf.flags.c_contiguous:
        raise SizeMismatch(
            f"{what} must be a contiguous float32 buffer of length {n}, "
            f"got shape {buf.shape}, dtype {buf.dtype}, strides {buf.strides}"
        )
    if writable and not buf.flags.writeable:
        raise SizeMismatch(f"{what} must be writable, got a read-only buffer")
