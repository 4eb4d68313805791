"""Serial real-input DFT kernel producing the packed permuted layout in place.

The leaf is numpy's pocketfft: np.fft.rfft computes the m/2+1 coefficients
of a float32 segment in single precision into a spectrum lane the kernel
owns, and the kernel then packs them over the segment as
[R_0, R_{m/2}, R_1, I_1, ...].  pocketfft releases the GIL while it runs,
so the kernels of different workers transform their bins at the same time.

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
        check_lane(buf, m, "leaf kernel input")
        lane = self._lane
        np.fft.rfft(buf, out=lane)
        buf.view(np.complex64)[1:] = lane[1:m // 2]
        buf[0] = lane[0].real
        buf[1] = lane[m // 2].real
