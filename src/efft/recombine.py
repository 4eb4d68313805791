"""Stages II-III: leaf transforms of the bins, then in-place pairwise merges.

run_transform schedules the stages level by level.  One parallel_for runs
the leaf transforms over contiguous runs of bins, each run by the current
worker's kernel.  Then each merge level, deepest first, is one parallel_for
with one item per segment.  When a level has fewer segments than workers,
each segment's coefficient range is split into pieces on k_tile boundaries
so that every worker still has a piece; the values of a merged coefficient
do not depend on which piece computed it.

The merge of two half-spectra E and O (each the packed spectrum of m reals)
into the packed spectrum of the 2m-sample segment applies, with
W_k = exp(-i*pi*k/m):

    F_k       = E_k + W_k * O_k                (k = 0..m-1)
    F_{k+m}   = E_k - W_k * O_k

and conjugate symmetry F_{2m-k} = F_k* locates the stored image of every
index above m.  The in-place kernel pairs coefficient k with its mirror
m/2-k, which makes the four outputs land exactly on the memory slots the
four inputs came from.  The out-of-place basic kernel is the normative
reference for the arithmetic; the in-place kernel evaluates the same
expressions on the same twiddle values, so the two agree bitwise.

The in-place hot path runs out of per-thread workspace lanes (gathers,
twiddles, temporaries) and never allocates: concurrent merges would
otherwise serialize on the allocator.
"""

import threading

import numpy as np

from .errors import HandleBusy, HandleClosed, SizeMismatch
from .memory import aligned_empty
from .parallel import chunk_ranges
from .scatter import scatter

# Coefficients processed per workspace pass; a longer coefficient range runs
# in blocks of this length (twiddle values do not depend on the blocking),
# which bounds the lane working set to a cache-friendly size.
MERGE_BLOCK = 1 << 14


def _twiddle_lanes(m: int, k_index: np.ndarray):
    """cos/sin of k * (-pi/m) per coefficient index, one value per element.

    The angle is formed in double precision (single-precision k*(-pi/m)
    loses phase accuracy for large m) and the trig is evaluated in single
    precision.  Values depend only on (m, k), never on lane boundaries, so
    any chunking of the same indices yields bitwise identical factors.
    """
    trigconst = -np.pi / m
    ang32 = (k_index.astype(np.float64) * trigconst).astype(np.float32)
    return np.cos(ang32), np.sin(ang32)


def reassemble_pair_basic(evens: np.ndarray, odds: np.ndarray, target: np.ndarray) -> None:
    """Merge two packed half-spectra of length m into a fresh length-2m target."""
    m = evens.shape[0]
    if odds.shape != (m,) or target.shape != (2 * m,) or m < 2 or m % 2 != 0:
        raise SizeMismatch(
            f"need half-spectra of equal even length and a target twice as long, "
            f"got {evens.shape}, {odds.shape}, {target.shape}"
        )
    if np.shares_memory(target, evens) or np.shares_memory(target, odds):
        raise ValueError("target must not overlap the input spectra")

    target[0] = evens[0] + odds[0]
    target[1] = evens[0] - odds[0]
    target[m] = evens[1]
    target[m + 1] = -odds[1]

    c, s = _twiddle_lanes(m, np.arange(1, m // 2, dtype=np.int64))
    er = evens[2::2]
    ei = evens[3::2]
    o_re = odds[2::2]
    o_im = odds[3::2]
    tw_re = o_re * c - o_im * s
    tw_im = o_re * s + o_im * c
    target[2:m:2] = er + tw_re
    target[3:m:2] = ei + tw_im
    target[2 * m - 2:m:-2] = er - tw_re
    target[2 * m - 1:m + 1:-2] = tw_im - ei


class _MergeWorkspace:
    """Reusable per-thread lanes for one merge block (float32 unless noted)."""

    _F32 = ("c", "s", "cm", "sm", "ang", "er", "ei", "o_re", "o_im",
            "em_re", "em_im", "om_re", "om_im", "t1", "t2", "t3")

    def __init__(self, cap: int):
        self.cap = cap
        self.base = np.arange(cap, dtype=np.float64)
        self.f64 = np.empty(cap, dtype=np.float64)
        for name in self._F32:
            setattr(self, name, aligned_empty(cap))

    def twiddles(self, m, ka, L, cos_out, sin_out, mirror):
        """Fill cos/sin lanes for coefficients ka..ka+L-1 (or their mirrors)."""
        f64 = self.f64[:L]
        np.add(self.base[:L], float(ka), out=f64)
        if mirror:
            np.subtract(float(m // 2), f64, out=f64)
        np.multiply(f64, -np.pi / m, out=f64)
        ang = self.ang[:L]
        ang[:] = f64
        np.cos(ang, out=cos_out)
        np.sin(ang, out=sin_out)


_tls = threading.local()


def _workspace() -> _MergeWorkspace:
    ws = getattr(_tls, "merge_ws", None)
    if ws is None:
        ws = _tls.merge_ws = _MergeWorkspace(MERGE_BLOCK)
    return ws


def _merge_pair_block(seg, m, ka, kb, ws) -> None:
    """In-place pair arithmetic for coefficients [ka, kb) and their mirrors.

    seg holds two adjacent packed half-spectra (evens then odds, m slots
    each).  For every k in the range the mirror mu = m/2 - k is processed
    in the same pass: F_k overwrites E_k, F_{m-k} overwrites O_mu, F_mu
    overwrites E_mu and F_{m/2+k} overwrites O_k, so the writes land
    exactly on the slots the gathers came from.  All gathers are copied
    out before the first write; at k == mu (the center m/4) the two pair
    computations coincide and the duplicate writes are idempotent.
    """
    L = kb - ka
    c, s = ws.c[:L], ws.s[:L]
    cm, sm = ws.cm[:L], ws.sm[:L]
    ws.twiddles(m, ka, L, c, s, mirror=False)
    ws.twiddles(m, ka, L, cm, sm, mirror=True)

    er, ei = ws.er[:L], ws.ei[:L]
    o_re, o_im = ws.o_re[:L], ws.o_im[:L]
    em_re, em_im = ws.em_re[:L], ws.em_im[:L]
    om_re, om_im = ws.om_re[:L], ws.om_im[:L]
    er[:] = seg[2 * ka:2 * kb:2]
    ei[:] = seg[2 * ka + 1:2 * kb:2]
    o_re[:] = seg[m + 2 * ka:m + 2 * kb:2]
    o_im[:] = seg[m + 2 * ka + 1:m + 2 * kb:2]
    em_re[:] = seg[m - 2 * ka:m - 2 * kb:-2]
    em_im[:] = seg[m - 2 * ka + 1:m - 2 * kb + 1:-2]
    om_re[:] = seg[2 * m - 2 * ka:2 * m - 2 * kb:-2]
    om_im[:] = seg[2 * m - 2 * ka + 1:2 * m - 2 * kb + 1:-2]

    t1, t2, t3 = ws.t1[:L], ws.t2[:L], ws.t3[:L]

    # Forward pair: F_k over E_k, F_{m-k} over O_mu.
    np.multiply(o_re, c, out=t1)
    np.multiply(o_im, s, out=t2)
    np.subtract(t1, t2, out=t1)            # Re(W_k O_k)
    np.multiply(o_re, s, out=t2)
    np.multiply(o_im, c, out=t3)
    np.add(t2, t3, out=t2)                 # Im(W_k O_k)
    np.add(er, t1, out=t3)
    seg[2 * ka:2 * kb:2] = t3
    np.subtract(er, t1, out=t3)
    seg[2 * m - 2 * ka:2 * m - 2 * kb:-2] = t3
    np.add(ei, t2, out=t3)
    seg[2 * ka + 1:2 * kb:2] = t3
    np.subtract(t2, ei, out=t3)
    seg[2 * m - 2 * ka + 1:2 * m - 2 * kb + 1:-2] = t3

    # Mirror pair: F_mu over E_mu, F_{m/2+k} over O_k.
    np.multiply(om_re, cm, out=t1)
    np.multiply(om_im, sm, out=t2)
    np.subtract(t1, t2, out=t1)            # Re(W_mu O_mu)
    np.multiply(om_re, sm, out=t2)
    np.multiply(om_im, cm, out=t3)
    np.add(t2, t3, out=t2)                 # Im(W_mu O_mu)
    np.add(em_re, t1, out=t3)
    seg[m - 2 * ka:m - 2 * kb:-2] = t3
    np.subtract(em_re, t1, out=t3)
    seg[m + 2 * ka:m + 2 * kb:2] = t3
    np.add(em_im, t2, out=t3)
    seg[m - 2 * ka + 1:m - 2 * kb + 1:-2] = t3
    np.subtract(t2, em_im, out=t3)
    seg[m + 2 * ka + 1:m + 2 * kb:2] = t3


def _merge_pair_range(seg: np.ndarray, m: int, ka: int, kb: int) -> None:
    """Pair arithmetic over [ka, kb) in workspace-sized blocks."""
    ws = _workspace()
    for lo in range(ka, kb, ws.cap):
        _merge_pair_block(seg, m, lo, min(lo + ws.cap, kb), ws)


def _merge_piece(seg: np.ndarray, m: int, ka: int, kb: int) -> None:
    """In-place merge of coefficients [ka, kb) and their mirrors.

    The piece that starts at ka == 1 also writes the special slots, F_0 and
    F_m (from the k = 0 terms) and F_{m/2} (from the halves' Nyquist terms).
    """
    if ka == 1:
        e0 = seg[0]
        e_nyq = seg[1]
        o0 = seg[m]
        o_nyq = seg[m + 1]
        seg[0] = e0 + o0
        seg[1] = e0 - o0
        seg[m] = e_nyq
        seg[m + 1] = -o_nyq
    _merge_pair_range(seg, m, ka, kb)


def reassemble_pair_inplace(seg: np.ndarray, m: int, k_tile: int = 64) -> None:
    """Merge the two adjacent packed half-spectra held in seg, in place.

    Needs m >= 4*k_tile for the in-place path; below that the basic kernel
    runs through a temporary and is copied back.  The in-place path writes
    the special slots, then coefficients 1 through the self-mirrored center
    m/4, each paired with its mirror, in one pass.
    """
    if seg.shape != (2 * m,):
        raise SizeMismatch(f"need a buffer of length {2 * m}, got {seg.shape}")
    if m < 4 * k_tile:
        tmp = np.empty(2 * m, dtype=seg.dtype)
        reassemble_pair_basic(seg[:m], seg[m:], tmp)
        seg[:] = tmp
        return
    _merge_piece(seg, m, 1, m // 4 + 1)


def _merge_items(buf: np.ndarray, length: int, k_tile: int, workers: int):
    """(segment, ka, kb) items for the merge level of the given segment length.

    One item per segment, unless the level has fewer segments than workers:
    then each segment large enough for the in-place path is split into
    ceil(workers / segments) coefficient pieces on k_tile boundaries.
    """
    m = length // 2
    segments = buf.shape[0] // length
    pieces = -(-workers // segments) if m >= 4 * k_tile else 1
    ranges = chunk_ranges(1, m // 4 + 1, k_tile, pieces)
    return [(buf[lo:lo + length], ka, kb)
            for lo in range(0, buf.shape[0], length) for ka, kb in ranges]


def run_transform(handle) -> np.ndarray:
    """Run the full three-stage transform; the input buffer is preserved.

    Stage I scatters the input into bins of the scratch buffer, stages
    II-III transform and merge the bins in place there, one parallel_for
    for the leaves and one per merge level.  Returns the handle's read-only
    result view over the packed spectrum.  Raises HandleBusy, and leaves the
    running transform alone, if the handle is already running one.
    """
    if not handle._finalizer.alive:
        raise HandleClosed("the handle is closed")
    plan, pool, buf = handle.plan, handle.pool, handle._scratch
    binsize, k_tile = plan.binsize, plan.k_tile

    def leaves(lo, hi):
        kernel = handle.kernel_for_current_worker()
        for b in range(lo, hi, binsize):
            kernel.transform(buf[b:b + binsize])

    def merge(seg, ka, kb):
        m = seg.shape[0] // 2
        if (ka, kb) == (1, m // 4 + 1):
            reassemble_pair_inplace(seg, m, k_tile)
        else:
            _merge_piece(seg, m, ka, kb)

    if not handle._lock.acquire(blocking=False):
        raise HandleBusy("the handle is already running a transform")
    try:
        scatter(handle.data, buf, plan, pool=pool)
        pool.parallel_for(chunk_ranges(0, plan.n, binsize, plan.workers), leaves)
        length = 2 * binsize
        while length <= plan.n:
            pool.parallel_for(_merge_items(buf, length, k_tile, plan.workers), merge)
            length *= 2
    finally:
        handle._lock.release()
    return handle.result
