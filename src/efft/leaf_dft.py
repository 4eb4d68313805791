"""Serial real-input DFT kernel producing the packed permuted layout in place.

The leaf is numpy's pocketfft in single precision.  The kernel calls
np.fft.rfft with norm="forward", which passes the float32 factor 1/m, so
numpy runs its float32 loop on the float32 segment and writes the m/2+1
coefficients F_k/m into a spectrum lane the kernel owns.  The default
call passes the int factor 1, which makes numpy pick its float64 loop: it
computes in double precision through cast buffers of 16 B per element,
allocated on every call.  The kernel then packs the lane over the segment
as [R_0, R_{m/2}, R_1, I_1, ...], multiplying by m on the way.  m is a
power of two, so 1/m and the rescale are exact while F_k/m is a normal
float32; where F_k/m is subnormal bits are lost.  At m = 2^14 the relative
L2 error against direct summation is 1.3e-7 for inputs in [-0.5, 0.5),
2.9e-7 for the same inputs times 1e-36 and 2.6e-6 times 1e-37.
pocketfft releases the GIL while it runs, so the kernels of different
workers transform their bins at the same time.

Each worker gets its own kernel, so no two threads ever share a lane.
"""

import numpy as np

from .memory import aligned_empty, check_lane


def _is_pow2(v: int) -> bool:
    return v > 0 and (v & (v - 1)) == 0


class LeafKernel:
    """Power-of-two leaf transform; one private instance per worker."""

    def __init__(self, m: int):
        if not _is_pow2(m) or m < 4:
            raise ValueError(f"leaf kernel needs a power-of-two size >= 4, got {m}")
        self.m = m
        self._lane = aligned_empty(m // 2 + 1, dtype=np.complex64)

    def transform(self, buf: np.ndarray) -> None:
        """Rewrite a length-m float32 segment with its packed spectrum."""
        m = self.m
        check_lane(buf, m, "leaf kernel input", writable=True)
        lane = self._lane
        np.fft.rfft(buf, norm="forward", out=lane)
        np.multiply(lane[1:m // 2], m, out=buf.view(np.complex64)[1:])
        buf[0] = lane[0].real * m
        buf[1] = lane[m // 2].real * m
