"""Stage I: reorder the input into contiguous bins of the scratch buffer.

Element i*b + j of the input lands in bin bit_reverse(j) at offset i, which
is exactly s rounds of even/odd separation collapsed into one pass.  The
pass is cut into contiguous ranges of rows i, each moving at most BLOCK
elements (one row if a row is longer), whatever the worker count.  Each
range is one indexed copy that reads its rows of the input in order and
writes a unit-stride run into every bin.  It then checks the values it
wrote for NaN and infinity while they are still in cache; the scratch
buffer is undefined until a run succeeds, so a range written before
another one raised is harmless.
"""

import numpy as np

from .errors import NonFiniteInput, SizeMismatch
from .parallel import BLOCK, blocks


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
    sidx = plan.scatter_index
    src = input_buf.reshape(plan.binsize, plan.bins)
    dst = scratch_buf.reshape(plan.bins, plan.binsize)

    def body(lo, hi):
        dst[sidx, lo:hi] = src[lo:hi].T
        if not np.isfinite(dst[:, lo:hi]).all():
            raise NonFiniteInput("input contains non-finite values")

    chunks = blocks(0, plan.binsize, 1, BLOCK // plan.bins)
    if pool is None:
        for lo, hi in chunks:
            body(lo, hi)
    else:
        pool.parallel_for(chunks, body)
