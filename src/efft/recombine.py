"""Stage III: in-place pairwise merges of packed half-spectra.

The merge of two half-spectra E and O (each the packed spectrum of m reals)
into the packed spectrum of the 2m-sample segment applies, with
W_k = exp(-i*pi*k/m):

    F_k       = E_k + W_k * O_k                (k = 0..m-1)
    F_{k+m}   = E_k - W_k * O_k

and conjugate symmetry F_{2m-k} = F_k* locates the stored image of every
index above m.  Both kernels work on the complex64 view of the packed
float32 spectra, where slot k (0 < k < m/2) of a half holds E_k or O_k and
slot 0 holds the real DC and Nyquist terms.  Each pair k computes
t = W_k * O_k once, then F_k = E_k + t and F_{m-k} = conj(E_k - t).

The in-place kernel pairs coefficient k with its mirror mu = m/2-k, which
makes the four outputs land exactly on the memory slots the four inputs
came from: F_k on E_k, F_{m-k} on O_mu, F_mu on E_mu and F_{m/2+k} on O_k.
The centre k = m/4 is its own mirror and is written once, by the forward
pair.  The trig is evaluated only for k <= m/4, in single precision from
a double-precision angle; the mirror twiddle is read off it exactly, as
W_{m/2-k} = (-Im W_k, -Re W_k).

The out-of-place basic kernel is the normative reference for the
arithmetic; the in-place kernel evaluates the same float32 expressions on
the same twiddle values, so the two agree bitwise.  That rests on one
rule for every complex product: its operands are contiguous lanes and its
output is a lane that is neither of them.  numpy's complex64 multiply
rounds differently on strided or reversed operands, and on a product
written into one of its own operands, than on contiguous ones.  Adds,
subtracts and conjugates round the same on any layout, so they read and
write the strided views directly.

The in-place hot path runs out of the caller's MergeLanes (twiddles and
products) and never allocates: concurrent merges would otherwise
serialize on the allocator.  pieces cuts a merge level into pieces and
merge_block merges one; core.run_transform runs each level as those two
on each worker's lanes, and reassemble_pair_inplace runs them on one
segment with lanes of its own.
"""

import numpy as np

from .errors import InvalidPlan, SizeMismatch
from .memory import aligned_empty, check_lane
from .parallel import BLOCK, blocks


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
    m = evens.size
    if m < 2 or m % 2 != 0:
        raise SizeMismatch(f"need half-spectra of even length >= 2, got {evens.shape}")
    check_lane(evens, m, "evens")
    check_lane(odds, m, "odds")
    check_lane(target, 2 * m, "target", writable=True)
    if np.shares_memory(target, evens) or np.shares_memory(target, odds):
        raise SizeMismatch("target must not overlap the input spectra")

    target[0] = evens[0] + odds[0]
    target[1] = evens[0] - odds[0]
    target[m] = evens[1]
    target[m + 1] = -odds[1]

    # W_j for j = 1..m/2-1: evaluated for j <= m/4, read off W_{m/2-j} above.
    q, h = m // 4, m // 2
    c, s = _twiddle_lanes(m, np.arange(1, q + 1))
    w = np.empty(h - 1, np.complex64)
    w.real[:q], w.imag[:q] = c, s
    w.real[q:], w.imag[q:] = -s[:h - q - 1][::-1], -c[:h - q - 1][::-1]
    e, o, f = (a.view(np.complex64) for a in (evens, odds, target))
    t = w * o[1:h]
    f[1:h] = e[1:h] + t
    f[m - 1:h:-1] = np.conjugate(e[1:h] - t)


class MergeLanes:
    """Reusable lanes for one merge piece of at most cap pairs; one set per worker."""

    def __init__(self, cap: int):
        # base holds 0..cap-1, summed in place so that no second lane is made.
        self.base, self.k = (aligned_empty(cap, np.float64) for _ in range(2))
        self.base.fill(1.0)
        self.base[0] = 0.0
        np.cumsum(self.base, out=self.base)
        # the twiddles W_k and W_mu, and the products t and tm
        self.w, self.wm, self.t, self.tm = (aligned_empty(cap, np.complex64)
                                            for _ in range(4))


def merge_block(ws: MergeLanes, rows: np.ndarray, m: int, ka: int, kb: int) -> None:
    """In-place merge of coefficients [ka, kb) and their mirrors in every row.

    ws is the calling worker's lanes.  rows is an (R, 2m) view whose rows
    each hold two adjacent packed half-spectra (evens then odds, m slots
    each), with R * (kb - ka) at most the lanes' cap.  On the complex
    view, E_k and O_k are slots k and m/2 + k.  For every k in the range,
    F_k overwrites E_k and F_{m-k} overwrites O_mu, mu = m/2 - k; for
    every k below m/4 the mirror pair also runs, F_mu overwriting E_mu and
    F_{m/2+k} overwriting O_k, so the writes land exactly on the slots the
    reads came from.  The centre k = m/4 is written by the forward pair
    alone.  Both products read O before the first write to it.  The piece
    that starts at ka == 1 also writes the special slots, F_0 and F_m
    (from the k = 0 terms) and F_{m/2} (from the halves' Nyquist terms).
    """
    R, L = rows.shape[0], kb - ka
    if R == 1:
        rows = rows[0]  # a 1-D view takes numpy's cheaper one-dimensional loops
    shape = rows.shape[:-1]
    if ka == 1:
        lane = ws.t[:R].view(np.float32)
        e0, o0 = lane[:R].reshape(shape), lane[R:].reshape(shape)
        e0[...] = rows[..., 0]
        o0[...] = rows[..., m]
        rows[..., m] = rows[..., 1]
        np.negative(rows[..., m + 1], out=rows[..., m + 1])
        np.add(e0, o0, out=rows[..., 0])
        np.subtract(e0, o0, out=rows[..., 1])

    h, Lm = m // 2, min(kb, m // 4) - ka        # the mirror pairs: 4k < m
    k, w, wm = ws.k[:L], ws.w[:L], ws.wm[:Lm]
    c, s = ws.t[:L].view(np.float32).reshape(2, L)   # until the product t needs the lane
    _twiddle_lanes(m, np.add(ws.base[:L], ka, out=k), (c, s))
    w.real, w.imag = c, s
    # W_mu = (-s_k, -c_k) for mu = m/2 - k, in ascending mu: the float pairs
    # of W_k read backwards and negated.
    np.negative(w[:Lm].view(np.float32)[::-1], out=wm.view(np.float32))

    B = rows.view(np.complex64)
    e_k, o_k, o_mu = B[..., ka:kb], B[..., h + ka:h + kb], B[..., m - ka:m - kb:-1]
    lo = h - ka - Lm + 1                        # the mirrors in ascending mu
    e_mu, o_mu_up = B[..., lo:lo + Lm], B[..., h + lo:h + lo + Lm]
    o_k_down = B[..., h + ka + Lm - 1:h + ka - 1:-1]
    t = ws.t[:R * L].reshape(shape + (L,))
    tm = ws.tm[:R * Lm].reshape(shape + (Lm,))
    # Contiguous operands, and never out= one of them (module docstring).
    np.multiply(wm, o_mu_up, out=tm)
    np.multiply(w, o_k, out=t)
    np.subtract(e_k, t, out=o_mu)
    np.conjugate(o_mu, out=o_mu)                # F_{m-k}
    np.add(e_k, t, out=e_k)                     # F_k
    np.subtract(e_mu, tm, out=o_k_down)
    np.conjugate(o_k_down, out=o_k_down)        # F_{m/2+k}
    np.add(e_mu, tm, out=e_mu)                  # F_mu


def pieces(rows: np.ndarray, m: int, k_tile: int):
    """(rows[r0:r1], m, ka, kb) pieces that cover one merge level.

    m is a power of two >= 4, so coefficients 1..m/4 are never empty.
    A piece holds at most cap = BLOCK // 8 coefficient pairs, because each
    pair reads and writes 8 floats.  The coefficients are cut into runs of
    cap, rounded down to whole k_tiles (k_tile capped at cap), and the rows
    into groups of as many as fit beside the first run.  The pieces depend
    only on the level's shape and k_tile, never on the worker count.
    """
    cap = BLOCK // 8
    ks = blocks(1, m // 4 + 1, min(k_tile, cap), cap)
    run = ks[0][1] - ks[0][0]
    return [(rows[r0:r1], m, ka, kb)
            for r0, r1 in blocks(0, rows.shape[0], 1, cap // run) for ka, kb in ks]


def reassemble_pair_inplace(seg: np.ndarray, m: int, k_tile: int = 64) -> None:
    """Merge the two adjacent packed half-spectra held in seg, in place.

    m must be a power of two >= 4, the half sizes a transform merges, seg
    a writable contiguous float32 buffer of length 2m, and k_tile >= 1, as
    plan_create requires.  The merge runs the pieces of a one-segment level
    in order, with the same arithmetic as run_transform, on lanes for the
    segment's m/4 pairs that it makes for the call.
    """
    if m < 4 or m & (m - 1):
        raise SizeMismatch(f"need a power-of-two half length m >= 4, got m={m}")
    if k_tile < 1:
        raise InvalidPlan(f"k_tile must be >= 1, got {k_tile}")
    check_lane(seg, 2 * m, "seg", writable=True)
    ws = MergeLanes(min(BLOCK // 8, m // 4))
    for piece in pieces(seg.reshape(1, 2 * m), m, k_tile):
        merge_block(ws, *piece)
