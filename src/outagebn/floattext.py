"""Float64 text as ``repr`` writes it, for a whole array at once in numpy.

A float cell's text is ``repr``'s: the fewest significant digits that read
back to the same float64, the nearest to it where several do (Gay's
shortest mode, which CPython's ``repr`` runs), written positionally for a
decimal exponent from -4 to 15 and in e-notation beyond, so that parse ->
write -> parse is bit-identical. :func:`fields` makes it as NUL-padded
bytes behind the comma that leads a CSV cell; a cell it cannot settle
exactly goes through ``repr`` itself.

:func:`ingest.write_text_columns`, the writer of the weather and
``predict`` CSVs, is its one caller, and imports it on first use. So
``learn`` and ``eval``, which write no float, neither compile nor load it,
nor build its tables: compiled as part of ``ingest.py``, it lifted every
command's peak RSS by 0.6 MB, the heap its compilation left behind.
"""

from __future__ import annotations

import numpy as np

# Bytes of a comma and a float cell's text, at most: the comma and
# len(repr(-2.2250738585072014e-308)).
FIELD_BYTES = 25
# A cell whose decision lies within _TIE_MARGIN (in units of its 17th
# significant digit) of a rounding tie or of the edge of the interval
# that reads back to it goes through repr: a guard, as the arithmetic
# deciding it is exact (see fields).
_TIE_MARGIN = 1e-9


def _dekker_split(v: np.ndarray):
    """``hi + lo == v``, each with at most 26 significant bits (Dekker 1971)."""
    c = 134_217_729.0 * v  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


# 10**k for k = -6 .. 22, each the float nearest to it (exact for k >= 0)
_POW10 = np.array([10 ** k if k >= 0 else 1 / 10 ** -k for k in range(-6, 23)],
                  dtype=np.float64)
# Per binade (biased binary exponent b, the doubles in [2**(b-1023),
# 2**(b-1022))): the decimal exponent of its least value, clipped to
# [-6, 17]; the power of ten within it at which the next exponent starts,
# or inf where there is none; and half the gap between its doubles.
_BINADE = np.arange(2048)
with np.errstate(divide="ignore", over="ignore"):
    _BINADE_EXP10 = np.clip(np.floor(np.log10(np.ldexp(1.0, _BINADE - 1023))),
                            -6, 17).astype(np.intp)
    _BINADE_POW10 = _POW10[_BINADE_EXP10 + 7]
    _BINADE_POW10[_BINADE_POW10 >= np.ldexp(2.0, _BINADE - 1023)] = np.inf
_BINADE_HALF_GAP = np.ldexp(1.0, _BINADE - 1076)
# Per decimal exponent E = -6 .. 18: the exact scale 10**(16 - E) that
# takes a value of exponent E to [1e16, 1e17), 1 outside [-4, 15], and its
# Dekker halves.
_EXP10 = np.arange(-6, 19)
_SCALE = np.where((_EXP10 >= -4) & (_EXP10 <= 15),
                  _POW10[np.clip(16 - _EXP10, -6, 22) + 6], 1.0)
_SCALE_HI, _SCALE_LO = _dekker_split(_SCALE)


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

    A value x of decimal exponent E in [-4, 15] is scaled to
    y = |x| * 10**(16 - E), in [1e16, 1e17), taken exactly as ``hi + lo`` by
    Dekker's product: separate float64 operations, none of which may be
    fused. d17, the integer nearest to y, holds x's digits to 17 places,
    which always read back to x. A rounding of y to a multiple of 10 or 100
    (16 or 15 digits) reads back to x when it lies within half the gap
    between doubles at x, scaled as y, and the shortest one that does is
    repr's; of two, the nearer, and of two as near, the even one, as in
    Gay's mode 0. That interval is narrower than 23, so it holds at most
    one multiple of 100: a rounding to 100 that reads back also stands for
    any shorter text, which it shows as trailing zeros, and those are cut.
    The interval is the same on both sides of x but for a power of two,
    whose gap below is half the gap above; in this range each power of two
    is a decimal of at most 16 digits, which is exact and so read back.

    In this range the tests of distance are exact: the remainders have at
    most 53 significant bits. Still, a cell within :data:`_TIE_MARGIN` of a
    tie or of the edge of that interval goes through ``repr``, as do zero,
    subnormal, infinite and out-of-range values and a cell whose digits
    fall outside [1e16, 1e17), where the exponent was misjudged.
    """
    x = np.asarray(values, dtype=np.float64)
    a = np.abs(x)
    bits = a.view(np.uint64)
    binade = (bits >> np.uint64(52)).astype(np.intp)
    exp10 = _BINADE_EXP10[binade] + (a >= _BINADE_POW10[binade])
    fast = (exp10 >= -4) & (exp10 <= 15)
    at = np.where(fast, exp10, 16) + 6
    scale, scale_hi, scale_lo = _SCALE[at], _SCALE_HI[at], _SCALE_LO[at]
    a = np.where(fast, a, 1.0)
    # y = hi + lo
    hi = a * scale
    a_hi, a_lo = _dekker_split(a)
    lo = a_lo * scale_lo - (((hi - a_hi * scale_hi) - a_lo * scale_hi) - a_hi * scale_lo)
    # y = d17 + r, |r| <= 1/2; hi is whole, as y >= 2**53
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
    off_10 = np.abs(t - to_10)
    off_100 = np.abs(t - to_100)
    fast &= ((np.abs(off_10 - half_gap) > _TIE_MARGIN) & (np.abs(off_100 - half_gap) > _TIE_MARGIN)
             & (off_10 < 5 - _TIE_MARGIN) & (np.abs(r) < 0.5 - _TIE_MARGIN) & (d17 >= 10 ** 16))
    digits = hundreds + np.where(off_100 < half_gap, to_100,
                                 np.where(off_10 < half_gap, to_10, below)).astype(np.int64)
    fast &= digits < 10 ** 17
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
