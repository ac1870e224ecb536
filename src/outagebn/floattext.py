"""Float64 text as ``repr`` writes it, for a whole array at once in numpy.

A float cell's text is ``repr``'s: the fewest significant digits that read
back to the same float64, the nearest to it where several do (Gay's
shortest mode, which CPython's ``repr`` runs), written positionally for a
decimal exponent from -4 to 15 and in e-notation beyond, so that parse ->
write -> parse is bit-identical. :func:`fields` makes it as NUL-padded
bytes behind the comma that leads a CSV cell; zero, subnormal, infinite
and out-of-range values, and a value whose decimal exponent it misjudged,
go through ``repr`` itself.

:func:`ingest.write_text_columns`, the writer of the weather and
``predict`` CSVs, is its one caller, and imports it on first use. So
``learn`` and ``eval``, which write no float, neither compile nor load it,
nor build its tables: compiled as part of ``ingest.py``, it lifted every
command's peak RSS by 0.6 MB, the heap its compilation left behind. Its
exact product is :mod:`floatparse`'s, which ``ingest`` loads anyway.
"""

from __future__ import annotations

import numpy as np

from .floatparse import POW10, product_error

# Bytes of a comma and a float cell's text, at most: the comma and
# len(repr(-2.2250738585072014e-308)).
FIELD_BYTES = 25

# 10**k for k = -5 .. 18, each the float nearest to it
_POW10 = np.array([10 ** k if k >= 0 else 1 / 10 ** -k for k in range(-5, 19)],
                  dtype=np.float64)
# Per binade (biased binary exponent b, the doubles in [2**(b-1023),
# 2**(b-1022))): the decimal exponent of its least value, clipped to
# [-6, 17]; the power of ten within it at which the next exponent starts,
# or inf where there is none; and half the gap between its doubles.
_BINADE = np.arange(2048)
with np.errstate(divide="ignore", over="ignore"):
    _BINADE_EXP10 = np.clip(np.floor(np.log10(np.ldexp(1.0, _BINADE - 1023))),
                            -6, 17).astype(np.intp)
    _BINADE_POW10 = _POW10[_BINADE_EXP10 + 6]
    _BINADE_POW10[_BINADE_POW10 >= np.ldexp(2.0, _BINADE - 1023)] = np.inf
_BINADE_HALF_GAP = np.ldexp(1.0, _BINADE - 1076)


def _group_text() -> np.ndarray:
    """The ASCII text of each 4-digit group 0000 .. 9999 as one ``uint32``,
    then the same with the group's trailing zeros NUL."""
    g = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10],
                      axis=1).astype(np.uint8) + ord("0")
    kept = np.logical_or.accumulate(digits[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    return np.concatenate([digits, np.where(kept, digits, 0)]).view(np.uint32).ravel()


_GROUP_TEXT = _group_text()


def fields(values: np.ndarray) -> np.ndarray:
    """A comma and repr's text of each value of a float64 array, one
    NUL-padded row of :data:`FIELD_BYTES` bytes per value; a NaN's row
    holds the comma alone, an empty cell.

    The comma is byte 0 ahead of a ``-`` and byte 1 ahead of any other
    text, so a row's bytes are one run of text after at most one NUL: the
    NUL tail of the cell before it and a leading NUL fall together, which
    halves the runs that dropping the NULs of a row of cells copies.

    A value x of decimal exponent E in [-4, 15] is scaled by 10**q, q = 16
    - E, to y = |x| * 10**q in [1e16, 1e17), exactly ``hi + lo`` by
    :func:`floatparse.product_error`. d17, the integer nearest to y, holds
    x's digits to 17 places, which always read back to x. A rounding of y
    to a multiple of 10 or 100 (16 or 15 digits) reads back to x when it
    lies within half the gap between doubles at x, scaled as y, and the
    shortest one that does is repr's; of two, the nearer, and of two as
    near, the even one, as in Gay's mode 0. That interval is narrower than
    23, so it holds at most one multiple of 100: a rounding to 100 that
    reads back also stands for any shorter text, which it shows as
    trailing zeros, and those are cut. The interval is the same on both
    sides of x but for a power of two, whose gap below is half the gap
    above; in this range its y is a multiple of 100, or (2**50 .. 2**53)
    of 20 with half a gap of at most 10, so no shorter text lies in the
    narrower half.

    Every decision is exact. For x = m * 2**e, m in [2**52, 2**53), y = m
    * 5**q * 2**(e + q) with q <= 20, so -46 <= e + q <= 2: t, y less the
    multiple of 100 below d17, is in [-1/2, 99.5] and a multiple of
    2**-46, and it, its distances to multiples of 10 and 100 and half the
    gap are float64s exactly. So:

    - At an exact tie, 17-digit (|r| = 1/2) or 16-digit (t = 10k + 5),
      which occur, ``np.rint`` takes the even neighbour (``hi`` is even),
      as Gay's rounding of the last digit does. A 15-digit tie is 50 from
      y, outside the interval.
    - ``t * 0.1``, monotone in t, is k + 1/2 exactly at t = 10k + 5 and
      rounds away from it at 10k + 5 -+ 2**-46, the nearest t either side,
      so ``np.rint`` of it takes t's side of the tie; so does ``t * 0.01``
      at 50.
    - An end of the interval, (2m +- 1) * 2**(e + q - 1) * 5**q, is a
      multiple of 10 only where e + q = 2, and never of 100; there y is a
      multiple of 20, so no rounding lies on an end, where reading back
      would turn on x's last bit.

    Zero, subnormal, infinite and out-of-range values go through ``repr``,
    as does a value whose digits fall outside [1e16, 1e17), where E was
    misjudged.
    """
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    bits = a.view(np.uint64)
    binade = (bits >> np.uint64(52)).astype(np.intp)
    exp10 = _BINADE_EXP10[binade] + (a >= _BINADE_POW10[binade])
    fast = (exp10 >= -4) & (exp10 <= 15)
    q = np.where(fast, 16 - exp10, 0)
    a = np.where(fast, a, 1.0)
    # y = hi + lo = d17 + r, |r| <= 1/2; hi is whole, as y >= 2**53
    scale = POW10[q]
    hi = a * scale
    lo = product_error(a, q, hi)
    lo_int = np.rint(lo)
    d17 = hi.astype(np.int64) + lo_int.astype(np.int64)
    r = lo - lo_int
    half_gap = _BINADE_HALF_GAP[binade] * scale
    # y less the multiple of 100 below d17, and the nearest multiple of 10
    # and of 100 to y, on the same base
    hundreds = d17 // 100 * 100
    below = d17 - hundreds
    t = below + r
    to_10 = np.rint(t * 0.1) * 10
    to_100 = np.rint(t * 0.01) * 100
    digits = hundreds + np.where(np.abs(t - to_100) < half_gap, to_100,
                                 np.where(np.abs(t - to_10) < half_gap, to_10, below)
                                 ).astype(np.int64)
    fast &= (d17 >= 10 ** 16) & (digits < 10 ** 17)
    # the 17 digits as 4-digit groups, a group's trailing zeros NUL where
    # every group after it is zero
    digits = np.where(fast, digits, 10 ** 16)
    upper = digits // 100_000_000
    lower = digits - upper * 100_000_000
    lead = upper // 100_000_000
    middle = upper - lead * 100_000_000
    g1 = middle // 10_000
    g2 = middle - g1 * 10_000
    g3 = lower // 10_000
    g4 = lower - g3 * 10_000
    zero_from_2 = lower == 0
    words = np.empty((x.size, 5), np.uint32)
    words[:, 0] = _GROUP_TEXT[lead]
    words[:, 1] = _GROUP_TEXT[g1 + 10_000 * (zero_from_2 & (g2 == 0))]
    words[:, 2] = _GROUP_TEXT[g2 + 10_000 * zero_from_2]
    words[:, 3] = _GROUP_TEXT[g3 + 10_000 * (g4 == 0)]
    words[:, 4] = _GROUP_TEXT[g4 + 10_000]
    text = words.view(np.uint8)[:, 3:]
    # the comma and sign, then the digits with the point put in by exponent
    out = np.zeros((x.size, FIELD_BYTES), np.uint8)
    minus = np.signbit(x) & fast
    out[:, 0] = minus * ord(",")
    out[:, 1] = ord(",") + minus * (ord("-") - ord(","))
    exp10 = np.where(fast, exp10, 16)
    counts = np.bincount(exp10 + 4, minlength=21)
    for e in np.flatnonzero(counts[:20]).tolist():
        rows = slice(None) if counts[e] == x.size else np.flatnonzero(exp10 == e - 4)
        _place_point(out, rows, text[rows], e - 4)
    for i in np.flatnonzero(~fast & ~np.isnan(x)).tolist():
        cell = b"," + repr(float(x[i])).encode("ascii")
        at = 0 if cell[1] == ord("-") else 1
        out[i, at:at + len(cell)] = np.frombuffer(cell, np.uint8)
    return out


def _place_point(out: np.ndarray, rows, text: np.ndarray, e: int) -> None:
    """Lay out ``text``, rows of 17 significant digits with trailing zeros
    NUL, at decimal exponent ``e`` in ``out[rows, 2:]``."""
    if e < 0:
        out[rows, 2:3 - e] = ord("0")
        out[rows, 3] = ord(".")
        out[rows, 3 - e:20 - e] = text
        return
    out[rows, 2:e + 3] = text[:, :e + 1]
    out[rows, e + 3] = ord(".")
    out[rows, e + 4:20] = text[:, e + 1:]
    # a whole number: its cut zeros left of the point come back, and one
    # zero goes after it
    whole = np.flatnonzero(out[rows, e + 4] == 0)
    if whole.size:
        whole = np.arange(len(out))[rows][whole]
        out[whole, 2:e + 3] |= ord("0")
        out[whole, e + 4] = ord("0")
