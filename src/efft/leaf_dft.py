"""Serial real-input DFT kernel producing the packed permuted layout in place.

The leaf is numpy's pocketfft in single precision.  The kernel calls
np.fft.rfft with norm="forward", which passes the float32 factor 1/m, so
numpy runs its float32 loop on the float32 segment and writes the m/2+1
coefficients F_k/m into a spectrum lane the kernel owns.  The default
call passes the int factor 1, which makes numpy pick its float64 loop: it
computes in double precision through cast buffers of 16 B per element,
allocated on every call.  The kernel then multiplies the lane by m in
place and packs it over the segment as [R_0, R_{m/2}, R_1, I_1, ...].  m
is a power of two, so 1/m and the rescale are exact while F_k/m is a
normal float32 (so the in-place product has no rounding to differ, unlike
the merges' products); where F_k/m is subnormal bits are lost.  At
m = 2^14 the relative L2 error against direct summation is 1.3e-7 for
inputs in [-0.5, 0.5), 2.9e-7 for the same inputs times 1e-36 and 2.6e-6
times 1e-37.  pocketfft releases the GIL while it runs, so the kernels of
different workers transform their bins at the same time.

One call transforms a contiguous run of k whole bins, 1 <= k <= bins:
one rfft over the (k, m) rows into k lanes, one rescale of those lanes in
place, and two copies that pack all k rows, the complex slots and then
the DC and Nyquist columns.  Each copy is a plain assignment: a multiply
writing straight into the (k, m) rows makes numpy buffer both operands,
up to 128 KiB a call.  numpy hands all k rows to pocketfft in one call,
and pocketfft runs several rows per call, each with the arithmetic of a
one-row call, so the output is bitwise equal to k single-bin calls.  On a
2-vCPU Xeon VM, best of 7 in each of three processes, a bin of 2^12 took
12.0-12.1 us in a call of 8 against 29.2-29.9 us alone, 2^13 27-29 us in
a call of 4 against 56 us, and 2^14 89-95 us in a call of 2 against
103-112 us.  A bin of 16 took 0.04 us in a call of 2048 against 8.2-8.9 us
alone, which is what one call costs beyond its arithmetic; so at 2^12 the
rows also run about 1.8 times faster once that cost is paid.  bins is
BLOCK // (4m), at least 1: a call reads k*m floats, writes and rereads a
lane of k*(m+2) and writes k*m, so it moves at most one block.  That
gives 8 bins a call at m = 2^12, 2 at 2^14 and 1 from 2^15 up, and it
keeps pocketfft's multi-row scratch small enough that a warm pass over
2^20 floats takes no page faults at 2^12 and 2^14; calls of 8 bins of
2^14 take 96 faults each.

Each worker gets its own kernel, so no two threads ever share a lane.
"""

import numpy as np

from .errors import SizeMismatch
from .memory import aligned_empty, check_lane
from .parallel import BLOCK


def _is_pow2(v: int) -> bool:
    return v > 0 and (v & (v - 1)) == 0


class LeafKernel:
    """Power-of-two leaf transform; one private instance per worker."""

    def __init__(self, m: int):
        if not _is_pow2(m) or m < 4:
            raise ValueError(f"leaf kernel needs a power-of-two size >= 4, got {m}")
        self.m = m
        self.bins = max(1, BLOCK // (4 * m))
        # memory.py's live-byte count follows this 1-D array, not its views.
        self._lane = aligned_empty(self.bins * (m // 2 + 1), dtype=np.complex64)
        self._lanes = self._lane.reshape(self.bins, m // 2 + 1)
        self._slots = self._lanes[:, 1:m // 2]
        # Columns 0 and m of each row's float32 view: R_0 and R_{m/2}.
        self._ends = self._lanes.view(np.float32)[:, ::m]

    def transform(self, buf: np.ndarray) -> None:
        """Rewrite 1 to `bins` whole length-m float32 segments with their packed spectra."""
        m = self.m
        k = buf.size // m
        if not 1 <= k <= self.bins:
            raise SizeMismatch(
                f"leaf kernel input must hold 1 to {self.bins} bins of {m} floats, "
                f"got {buf.size}"
            )
        check_lane(buf, k * m, "leaf kernel input", writable=True)
        rows, lanes = buf.reshape(k, m), self._lanes[:k]
        np.fft.rfft(rows, axis=-1, norm="forward", out=lanes)
        np.multiply(lanes, m, out=lanes)
        rows.view(np.complex64)[:, 1:] = self._slots[:k]
        rows[:, :2] = self._ends[:k]
