"""Stages II-III: leaf transforms of the bins, then in-place pairwise merges.

run_transform schedules the stages level by level.  One parallel_for runs
the leaf transforms over contiguous runs of bins, each run by the current
worker's kernel.  Then each merge level, deepest first, is one parallel_for
over pieces of the level: a piece is a group of segments (rows of the
level's (segments, 2m) view) times a range of coefficients, and one call
merges that range in every row of the group.  The values of a merged
coefficient do not depend on which piece computed it.

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
float32 expressions on the same twiddle values, each one a separately
rounded multiply, add or subtract, so the two agree bitwise whatever the
memory layout of the operands.

The in-place hot path runs out of per-thread workspace lanes (twiddles,
gathers, temporaries) and never allocates: concurrent merges would
otherwise serialize on the allocator.
"""

import threading

import numpy as np

from .errors import HandleBusy, HandleClosed, SizeMismatch
from .memory import aligned_empty
from .parallel import BLOCK, chunk_ranges
from .scatter import scatter


def _twiddle_lanes(m: int, k: np.ndarray, out=None):
    """cos/sin of k * (-pi/m) per coefficient index, one value per element.

    The angle is formed in double precision (single-precision k*(-pi/m)
    loses phase accuracy for large m) and the trig is evaluated in single
    precision.  Values depend only on (m, k), never on lane boundaries, so
    any chunking of the same indices yields bitwise identical factors.
    out, when given, is the (cos, sin) pair of float32 lanes to fill; k
    must then be a float64 lane, and it is overwritten with the angles.
    """
    if out is None:
        k = k.astype(np.float64)
        out = np.empty(k.shape, np.float32), np.empty(k.shape, np.float32)
    c, s = out
    np.multiply(k, -np.pi / m, out=k)
    s[...] = k                  # the float32 angle, replaced by its sine below
    np.cos(s, out=c)
    np.sin(s, out=s)
    return c, s


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

    c, s = _twiddle_lanes(m, np.arange(1, m // 2))
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
    """Reusable per-thread lanes for one merge piece (float32 unless noted)."""

    def __init__(self, cap: int):
        self.base = np.arange(cap, dtype=np.float64)
        self.k = np.empty(cap, dtype=np.float64)
        self.twiddles = [aligned_empty(cap) for _ in range(4)]
        self.block = [aligned_empty(cap) for _ in range(11)]


_tls = threading.local()


def _workspace() -> _MergeWorkspace:
    ws = getattr(_tls, "merge_ws", None)
    if ws is None:
        ws = _tls.merge_ws = _MergeWorkspace(BLOCK // 8)
    return ws


def _pair(e, o, c, s, lo, hi, t) -> None:
    """E + W*O over the (re, im) views lo, conj(E - W*O) over hi.

    e and o are the gathered (re, im) lanes of E and O, c and s the twiddle
    lanes of W, and t three temporaries of the same shape as the lanes.
    """
    t1, t2, t3 = t
    np.multiply(o[0], c, out=t1)
    np.multiply(o[1], s, out=t2)
    np.subtract(t1, t2, out=t1)            # Re(W O)
    np.multiply(o[0], s, out=t2)
    np.multiply(o[1], c, out=t3)
    np.add(t2, t3, out=t2)                 # Im(W O)
    np.add(e[0], t1, out=t3)
    lo[0][...] = t3
    np.subtract(e[0], t1, out=t3)
    hi[0][...] = t3
    np.add(e[1], t2, out=t3)
    lo[1][...] = t3
    np.subtract(t2, e[1], out=t3)
    hi[1][...] = t3


def _merge_block(rows: np.ndarray, m: int, ka: int, kb: int) -> None:
    """In-place merge of coefficients [ka, kb) and their mirrors in every row.

    rows is an (R, 2m) view whose rows each hold two adjacent packed
    half-spectra (evens then odds, m slots each), with R * (kb - ka) at
    most BLOCK // 8.  For every k in the range the mirror mu = m/2 - k is
    processed in the same pass: F_k overwrites E_k, F_{m-k} overwrites O_mu,
    F_mu overwrites E_mu and F_{m/2+k} overwrites O_k, so the writes land
    exactly on the slots the gathers came from.  All gathers are copied
    out before the first write; at k == mu (the center m/4) the two pair
    computations coincide and the duplicate writes are idempotent.  The
    twiddles are evaluated once on contiguous lanes and broadcast over the
    rows.  The piece that starts at ka == 1 also writes the special slots,
    F_0 and F_m (from the k = 0 terms) and F_{m/2} (from the halves'
    Nyquist terms).
    """
    ws = _workspace()
    R, L = rows.shape[0], kb - ka
    if R == 1:
        rows = rows[0]  # a 1-D view takes numpy's cheaper one-dimensional loops
    shape = rows.shape[:-1]
    if ka == 1:
        e0, o0 = (lane[:R].reshape(shape) for lane in ws.block[:2])
        e0[...] = rows[..., 0]
        o0[...] = rows[..., m]
        rows[..., m] = rows[..., 1]
        np.negative(rows[..., m + 1], out=rows[..., m + 1])
        np.add(e0, o0, out=rows[..., 0])
        np.subtract(e0, o0, out=rows[..., 1])
    if L == 0:
        return

    k = ws.k[:L]
    c, s, cm, sm = (lane[:L] for lane in ws.twiddles)
    _twiddle_lanes(m, np.add(ws.base[:L], ka, out=k), (c, s))
    _twiddle_lanes(m, np.subtract(m // 2 - ka, ws.base[:L], out=k), (cm, sm))

    e_k = rows[..., 2 * ka:2 * kb:2], rows[..., 2 * ka + 1:2 * kb:2]
    o_k = rows[..., m + 2 * ka:m + 2 * kb:2], rows[..., m + 2 * ka + 1:m + 2 * kb:2]
    e_mu = rows[..., m - 2 * ka:m - 2 * kb:-2], rows[..., m - 2 * ka + 1:m - 2 * kb + 1:-2]
    o_mu = (rows[..., 2 * m - 2 * ka:2 * m - 2 * kb:-2],
            rows[..., 2 * m - 2 * ka + 1:2 * m - 2 * kb + 1:-2])
    lanes = [lane[:R * L].reshape(shape + (L,)) for lane in ws.block]
    for lane, view in zip(lanes, e_k + o_k + e_mu + o_mu):
        lane[...] = view
    _pair(lanes[0:2], lanes[2:4], c, s, e_k, o_mu, lanes[8:])      # F_k, F_{m-k}
    _pair(lanes[4:6], lanes[6:8], cm, sm, e_mu, o_k, lanes[8:])    # F_mu, F_{m/2+k}


def _pieces(rows: np.ndarray, m: int, k_tile: int, workers: int):
    """(rows[r0:r1], m, ka, kb) pieces that cover one merge level.

    A piece holds at most cap = BLOCK // 8 coefficient pairs, because each
    pair reads and writes 8 floats.  Coefficients 1..m/4 are cut on k_tile
    boundaries (k_tile capped at cap) into runs of at most cap, and rows are
    grouped so that no piece holds more than cap pairs.  A level with fewer
    rows than workers gets shorter runs, and one with more gets smaller
    groups, so that there are about `workers` pieces or more.
    """
    segments, kend, cap = rows.shape[0], m // 4 + 1, BLOCK // 8
    tile = min(k_tile, cap)
    tiles = -(-(kend - 1) // tile)
    # The longest run that fits a piece, shortened while rows are fewer than workers.
    run = tile * max(1, min(cap // tile, -(-tiles // -(-workers // segments))))
    # As many rows as fit beside the run, but no more than a worker's share.
    group = max(1, min(cap // max(1, min(run, kend - 1)), -(-segments // workers)))
    ks = [(ka, min(ka + run, kend)) for ka in range(1, kend, run)] or [(1, 1)]
    return [(rows[r0:r0 + group], m, ka, kb)
            for r0 in range(0, segments, group) for ka, kb in ks]


def reassemble_pair_inplace(seg: np.ndarray, m: int, k_tile: int = 64) -> None:
    """Merge the two adjacent packed half-spectra held in seg, in place.

    m must be even and >= 2, and seg 2m long.  The merge runs the pieces of
    a one-segment level in order, with the same arithmetic as run_transform.
    """
    if seg.shape != (2 * m,) or m < 2 or m % 2 != 0:
        raise SizeMismatch(
            f"need an even half length m >= 2 and a buffer of length 2m, "
            f"got m={m} and {seg.shape}"
        )
    for piece in _pieces(seg.reshape(1, 2 * m), m, k_tile, 1):
        _merge_block(*piece)


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
    binsize = plan.binsize

    def leaves(lo, hi):
        kernel = handle.kernel_for_current_worker()
        for b in range(lo, hi, binsize):
            kernel.transform(buf[b:b + binsize])

    if not handle._lock.acquire(blocking=False):
        raise HandleBusy("the handle is already running a transform")
    try:
        scatter(handle.data, buf, plan, pool=pool)
        pool.parallel_for(chunk_ranges(0, plan.n, binsize, plan.workers), leaves)
        m = binsize
        while 2 * m <= plan.n:
            rows = buf.reshape(-1, 2 * m)
            pool.parallel_for(_pieces(rows, m, plan.k_tile, plan.workers), _merge_block)
            m *= 2
    finally:
        handle._lock.release()
    return handle.result
