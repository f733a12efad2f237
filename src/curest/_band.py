"""The band of a sample's records that can set the running maximum p2.

``run_mc``'s replications at large n sort only this band (see
``asymptotics._McSpan``; ``gather``'s docstring holds the proof).  Each
record gets a bucket from the bits of its time, and one count of the
buckets shows which of them cannot hold the opening where p2 is attained;
the records above the cut-off's bucket are only counted, since p1 reads
only their counts.  This module is the one place that knows how a time
maps to a bucket.
"""

from __future__ import annotations

import math

import numpy as np

# The band path runs only at n of at least MIN_N (see ``buckets``): below
# it the count costs more than the smaller sort saves on some designs.
MIN_N = 50_000
# Each binade of y + origin splits into n / 128 to n / 64 buckets.
_BITS = 59
# At most this many binades of y + origin up to the law's largest time.
_BINADES = 16
_BELOW_ONE = math.nextafter(1.0, 0.0)  # the largest uniform a draw can give


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


def buckets(law, n: int) -> tuple[float, int] | None:
    """How to bucket ``n`` records drawn from the inspection law ``law``,
    or None where the band does not pay: below ``MIN_N`` records, or on a
    law with atoms, whose ties widen the band.

    A record's bucket is the bits of y + ``origin``, less those of
    ``origin``, shifted right by ``shift``.  The origin is a power of two
    near the law's median: the buckets split y below it evenly, and each
    binade of y + origin above it into 2 ** (52 - shift) buckets, n / 128
    to n / 64 of them.  A law whose largest time spans more than
    ``_BINADES`` binades of the origin would need too many buckets, and
    takes the whole sample too."""
    if n < MIN_N or law._atoms:
        return None
    origin = math.ldexp(1.0, min(math.frexp(law.quantile(0.5))[1], 1023))
    if not law.quantile(_BELOW_ONE) < math.ldexp(origin, _BINADES):
        return None
    return origin, _BITS - n.bit_length()


def gather(y, delta, free, scratch, x: float | None, tail: int | None, origin: float, shift: int):
    """Gather the band of the records ``(y, delta)`` into the start of the
    free row of n doubles ``free`` (times) and of ``delta`` (indicators),
    with the boolean ``scratch`` as the mask, and return ``(size, n,
    beyond, floor)``: the band's count of records, the count n of records
    from the band's start on, the ones above the band, and a lower bound of
    p2.  ``_tail_pair`` on the sorted band, told of n and of the ``beyond``
    ones, gives p1 and a p2 that, raised to ``floor``, is the p2 of the
    whole sample.  The cut-off is ``x``, a time that ``McConfig`` checked,
    or that of the ``tail``-th largest record when ``x`` is None.  None
    when no record reaches ``x``.

    A record's id is twice its bucket (see ``buckets``) plus its
    indicator, and one ``bincount`` of the ids gives each bucket b its
    count of records N_b and of ones O_b; M_b and A_b are the records and
    the ones above it.
    - Rounding is monotone and the bits of nonnegative doubles order as
      their values do, so the bucket never decreases with y: a bucket is a
      run of the sorted records, and tied records share one, so each
      bucket's start opens a tie group.
    - The cut-off's record lies in bucket c: at position n - m for a fixed
      tail of m, and else the first record of a bucket at or above the
      cut-off's, so no record below bucket c reaches the cut-off.  Every
      bucket start up to c is then an opening up to the tail's, and the
      tail mean there, (A_b + O_b) / (M_b + N_b), is a whole number over a
      whole number, the double that ``_tail_pair`` takes there.  ``floor``
      is the largest of them.
    - An opening inside bucket b keeps the A_b ones above b and at most O_b
      of the t records of b from it on, so its mean is at most
      (A_b + min(O_b, t)) / (M_b + t).  As A_b <= M_b, that is largest at
      t = O_b: the bucket's ones packed at its top.
    - Correctly rounded division is monotone, so when the double of
      (A_b + O_b) / (M_b + O_b) is at most ``floor``, no opening inside b
      has a larger double.
    The band runs from the lowest bucket s whose bound exceeds ``floor``,
    or from c, up to c.  An opening at position g of the sample lies at
    g - S in a band that starts at position S, and n - g is the same count
    of records as (n - S) - (g - S), so ``_tail_pair`` on the band takes
    the same whole numbers at every opening from s on.
    """
    zero = _bits(origin)
    ids = free.view(np.uint64)
    np.add(y, origin, out=free)
    np.subtract(ids, zero, out=ids)
    np.right_shift(ids, shift, out=ids)
    np.left_shift(ids, 1, out=ids)
    np.bitwise_or(ids, delta.view(np.uint8), out=ids)
    counts = np.bincount(ids.view(np.int64))
    # From the start of each bucket on: the records, the records less the
    # bucket's zeros, and the ones; an empty bucket on top.
    bins = counts.size
    above = np.zeros(bins + 2 + bins % 2, dtype=np.int64)
    np.cumsum(counts[::-1], out=above[:bins][::-1])
    rec, capped = above[0::2], above[1::2]
    ones = np.zeros(rec.size, dtype=np.int64)
    odd = counts[1::2]
    np.cumsum(odd[::-1], out=ones[: odd.size][::-1])
    if x is None:
        m = min(tail, y.size)
    else:
        b = (_bits(x + origin) - zero) >> shift
        m = int(rec[b]) if b < rec.size else 0
        if not m:
            return None
    # The bucket holding position n - m, the cut-off's record.
    c = rec.size - 1 - int(rec[::-1].searchsorted(m))
    floor = float((ones[: c + 1] / rec[: c + 1]).max())
    over = (ones[:c] / capped[:c] > floor).nonzero()[0]
    s = int(over[0]) if over.size else c
    size = int(rec[s] - rec[c + 1])
    # Ids below the band's wrap around to large values.
    np.subtract(ids, 2 * s, out=ids)
    picked = np.less(ids, 2 * (c + 1 - s), out=scratch).nonzero()[0]
    y.take(picked, out=free[:size], mode="clip")
    # numpy buffers an output that overlaps its input.
    delta.take(picked, out=delta[:size], mode="clip")
    return size, int(rec[s]), int(ones[c + 1]), floor
