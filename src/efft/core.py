"""Plans, handles, the pipeline that runs them, and the packed layout.

A plan fixes one transform configuration: size n, number of radix-2 splits
s, the derived bin count b = 2**s and bin size m = n/b, the bit-reversal
bin map, the tile length on which merge pieces are cut, and the worker
count.  A handle owns the 64-byte-aligned input and scratch buffers for a
plan plus one private leaf kernel per worker, and is meant to be created
once and reused for any number of transforms.

run_transform is the one place that composes the three stages; the stage
modules never import one another.  Scatter (stage I) fills the bins of the
scratch buffer, one parallel_for runs the leaf transforms (stage II), one
chunk per kernel call of kernel.bins bins on the current worker's kernel,
and then each merge level (stage III), deepest first, is one parallel_for
over pieces of the level.  A piece is a group of segments (rows of the
level's (segments, 2m) view) times a range of coefficients, merged in one
call, and no merged value depends on which piece computed it.  Every
stage cuts its chunks by size alone, so a plan runs the same chunks at
any worker count.

Packed spectrum layout (length-M real buffer for a length-M real input):

    [R_0, R_{M/2}, R_1, I_1, R_2, I_2, ..., R_{M/2-1}, I_{M/2-1}]

Coefficients above M/2 are implied by conjugate symmetry F_{M-k} = F_k*.
"""

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BinsizeNotPowerOfTwo,
    HandleBusy,
    HandleClosed,
    IndexOutOfRange,
    InvalidPlan,
    SizeConstraintViolation,
    SplitsTooLarge,
)
from .leaf_dft import LeafKernel, _is_pow2
from .memory import aligned_empty
from .parallel import WorkerPool, blocks
from .recombine import merge_block, pieces
from .scatter import build_scatter_index, scatter

DEFAULT_K_TILE = 64

# Production sizes must be multiples of 2**(splits + SIZE_GRAIN_BITS); the
# constraint exists for tiling efficiency, so test mode may relax it down
# to the smallest leaf the leaf kernel supports.
SIZE_GRAIN_BITS = 8
MIN_LEAF = 4


@dataclass(frozen=True, eq=False)
class TransformPlan:
    n: int
    splits: int
    bins: int
    binsize: int
    scatter_index: np.ndarray = field(repr=False)
    k_tile: int
    workers: int
    test_mode: bool = False


def plan_create(
    n: int,
    splits: int,
    workers: int = 1,
    *,
    test_mode: bool = False,
    k_tile: int = DEFAULT_K_TILE,
) -> TransformPlan:
    """Validate a configuration and derive its bins, bin size, and bin map.

    Outside test mode, n must be a multiple of 2**(splits+8).  In either
    mode n / 2**splits must be a power of two >= 4, the sizes the leaf
    kernel accepts.
    """
    if n < 1:
        raise InvalidPlan(f"n must be >= 1, got {n}")
    if splits < 0:
        raise InvalidPlan(f"splits must be >= 0, got {splits}")
    if workers < 1:
        raise InvalidPlan(f"workers must be >= 1, got {workers}")
    if k_tile < 1:
        raise InvalidPlan(f"k_tile must be >= 1, got {k_tile}")

    bins = 1 << splits
    if bins > n:
        raise SplitsTooLarge(f"2**{splits} bins exceed transform size {n}")
    if not test_mode and n % (1 << (splits + SIZE_GRAIN_BITS)) != 0:
        raise SizeConstraintViolation(
            f"n={n} is not a multiple of 2**{splits + SIZE_GRAIN_BITS}; "
            f"pass test_mode=True to relax (test sizes only)"
        )
    binsize = n // bins
    if binsize * bins != n or not _is_pow2(binsize) or binsize < MIN_LEAF:
        raise BinsizeNotPowerOfTwo(
            f"bin size {n}/{bins} must be a power of two >= {MIN_LEAF} "
            f"for the leaf kernel"
        )
    return TransformPlan(
        n=n,
        splits=splits,
        bins=bins,
        binsize=binsize,
        scatter_index=build_scatter_index(splits),
        k_tile=k_tile,
        workers=workers,
        test_mode=test_mode,
    )


class TransformHandle:
    """Owns the buffers, worker pool, and per-worker leaf kernels of a plan.

    Creation allocates the input and scratch buffers as one aligned block
    (one allocation, so creating and closing handles keeps reusing the same
    pages), makes one leaf kernel per worker, starts the pool, and writes
    zeros over both buffers through the pool, so that their pages exist
    before the first transform.  All of that is reused across transforms.
    Each thread allocates its merge workspace on its first merge and keeps
    it, so the calling thread's workspace outlives the handle.

    A handle belongs to one logical owner at a time: it may move between
    threads, but a transform started while another runs raises HandleBusy.
    """

    def __init__(self, plan: TransformPlan):
        self.plan = plan
        # The scratch view starts a whole number of 64-byte lines into the
        # block.  The block itself is kept: memory.py's live-byte count
        # follows it, not the views.
        offset = -(-plan.n // 16) * 16
        self._block = aligned_empty(offset + plan.n)
        self._input = self._block[:plan.n]
        self._scratch = self._block[offset:]
        self._lock = threading.Lock()
        self._result = self._scratch.view()
        self._result.setflags(write=False)
        self._kernels = [LeafKernel(plan.binsize) for _ in range(plan.workers)]
        self._pool = WorkerPool(plan.workers)
        self._finalizer = weakref.finalize(self, WorkerPool.shutdown, self._pool)
        # One chunk per worker: the fill only spreads the pages' first touch.
        size = self._block.size
        self._pool.parallel_for(blocks(0, size, 1, -(-size // plan.workers)),
                                lambda lo, hi: self._block[lo:hi].fill(0.0))

    @property
    def data(self) -> np.ndarray:
        """Writable view of the input buffer; preserved across transforms."""
        return self._input

    @property
    def result(self) -> np.ndarray:
        """Read-only view of the scratch buffer holding the packed spectrum.

        Undefined until the first transform has run.
        """
        return self._result

    def kernel_for_current_worker(self) -> LeafKernel:
        return self._kernels[self._pool.current_slot()]

    def close(self) -> None:
        """Stop the worker pool; the handle is unusable afterwards."""
        self._finalizer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def handle_create(plan: TransformPlan) -> TransformHandle:
    """Allocate buffers and kernels for a plan; reuse the handle for all runs."""
    return TransformHandle(plan)


def run_transform(handle: TransformHandle) -> np.ndarray:
    """Run the three stages on the handle's scratch buffer; the input is preserved.

    Returns the handle's read-only result view over the packed spectrum.
    Raises HandleClosed on a closed handle, and HandleBusy, leaving the
    running transform alone, if the handle is already running one.
    """
    if not handle._finalizer.alive:
        raise HandleClosed("the handle is closed")
    plan, pool, buf = handle.plan, handle._pool, handle._scratch
    binsize = plan.binsize
    calls = blocks(0, plan.n, binsize, handle._kernels[0].bins * binsize)

    def leaves(lo, hi):
        handle.kernel_for_current_worker().transform(buf[lo:hi])

    if not handle._lock.acquire(blocking=False):
        raise HandleBusy("the handle is already running a transform")
    try:
        scatter(handle.data, buf, plan, pool=pool)
        pool.parallel_for(calls, leaves)
        m = binsize
        while 2 * m <= plan.n:
            rows = buf.reshape(-1, 2 * m)
            pool.parallel_for(pieces(rows, m, plan.k_tile), merge_block)
            m *= 2
    finally:
        handle._lock.release()
    return handle.result


class PermSpectrum:
    """Interpretation of a length-M packed real buffer as M/2+1 coefficients."""

    def __init__(self, packed: np.ndarray):
        packed = np.asarray(packed)
        if packed.ndim != 1 or packed.shape[0] < 2 or packed.shape[0] % 2 != 0:
            raise ValueError("packed spectrum must be 1-D with even length >= 2")
        self.packed = packed

    def __len__(self) -> int:
        return self.packed.shape[0]

    @property
    def dc(self) -> float:
        return float(self.packed[0])

    @property
    def nyquist(self) -> float:
        return float(self.packed[1])

    def coefficient(self, k: int) -> complex:
        """Coefficient F_k for 0 <= k < M, using conjugate symmetry above M/2."""
        m = self.packed.shape[0]
        if not 0 <= k < m:
            raise IndexOutOfRange(f"coefficient index {k} outside [0, {m})")
        if k == 0:
            return complex(self.packed[0])
        if k == m // 2:
            return complex(self.packed[1])
        if k > m // 2:
            return self.coefficient(m - k).conjugate()
        return complex(float(self.packed[2 * k]), float(self.packed[2 * k + 1]))

    def to_complex(self) -> np.ndarray:
        """Unpack to coefficients k = 0..M/2 as complex128."""
        m = self.packed.shape[0]
        out = np.empty(m // 2 + 1, dtype=np.complex128)
        out[0] = self.packed[0]
        out[-1] = self.packed[1]
        out.real[1:-1] = self.packed[2::2]
        out.imag[1:-1] = self.packed[3::2]
        return out

    def to_full_complex(self) -> np.ndarray:
        """Unpack to all M coefficients via conjugate symmetry."""
        half = self.to_complex()
        m = self.packed.shape[0]
        out = np.empty(m, dtype=np.complex128)
        out[: m // 2 + 1] = half
        out[m // 2 + 1:] = np.conj(half[-2:0:-1])
        return out
