"""Stage I: reorder the input into contiguous bins of the scratch buffer.

Element i*b + j of the input lands in bin bit_reverse(j) at offset i, which
is exactly s rounds of even/odd separation collapsed into one pass.  The
work is split over contiguous ranges of rows i, about 8 chunks per worker,
so a worker that finishes early claims another chunk instead of idling.
With one worker the chunks run in order on the caller; whether cutting the
rows into chunks there helps (as cache blocking) or costs has not been
measured.  Within a chunk, each bin's run is written unit-stride while the
input is read with stride b, the cache-friendly order for b much smaller
than the bin size.  Each chunk then checks the values it wrote for NaN and
infinity while they are still in cache; the scratch buffer is undefined
until a run succeeds, so a chunk written before another one raised is
harmless.
"""

import numpy as np

from .errors import NonFiniteInput, SizeMismatch
from .parallel import chunk_ranges

TASKS_PER_WORKER = 8


def build_scatter_index(splits: int) -> np.ndarray:
    """Bit-reversal permutation over `splits` bits; its own inverse."""
    if splits < 0:
        raise ValueError("splits must be >= 0")
    idx = np.arange(1 << splits, dtype=np.int64)
    rev = np.zeros_like(idx)
    for _ in range(splits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    rev.setflags(write=False)
    return rev


def scatter(input_buf: np.ndarray, scratch_buf: np.ndarray, plan, pool=None) -> None:
    """Permute input_buf into scratch_buf according to the plan's bin map."""
    n = plan.n
    if input_buf.shape != (n,) or scratch_buf.shape != (n,):
        raise SizeMismatch(
            f"buffers must have length {n}, got {input_buf.shape} and {scratch_buf.shape}"
        )
    bins = plan.bins
    binsize = plan.binsize
    sidx = plan.scatter_index
    src = input_buf.reshape(binsize, bins)
    dst = scratch_buf.reshape(bins, binsize)

    def body(lo, hi):
        block = src[lo:hi, :]
        for j in range(bins):
            dst[sidx[j], lo:hi] = block[:, j]
        if not np.isfinite(dst[:, lo:hi]).all():
            raise NonFiniteInput("input contains non-finite values")

    chunks = chunk_ranges(0, binsize, 1, TASKS_PER_WORKER * plan.workers)
    if pool is None:
        for lo, hi in chunks:
            body(lo, hi)
    else:
        pool.parallel_for(chunks, body)
