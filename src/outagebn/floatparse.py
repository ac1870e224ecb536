"""Float64 from decimal text, bit for bit as ``float`` reads it, for many
cells of one byte buffer at once in numpy: the reverse of :mod:`floattext`.

:func:`decimals` settles a cell of the form ``[+-]D[.D][(e|E)[+-]D]`` (D a
run of digits, at least one in the significand, at least one after the
``e``) with at most 19 digits and point in the significand, at most 3
exponent digits and a value M * 10**k, M the significand's digits as an
integer, with |k| <= 22. Any other cell is left unsettled, for the caller
to read another way: blanks, ``_``, ``inf``, ``nan``, a longer text and
an exponent out of that range among them.

The method is Clinger's (PLDI 1990), with the hard case split off as in
Lemire's "Number parsing at a gigabyte per second" (SPE 2021): 10**|k| is
a float64 exactly, so for M <= 2**53 one IEEE multiply or divide is
exact, and for a wider M a double-double residual decides the rounding.
A cell within a hair of a tie, the hard case, is left unsettled too, for
the caller's exact reader. The digits are read from the WIDTH bytes that
end each cell, as three little-endian uint64 words, eight digits per
word at a time (SWAR).
"""

from __future__ import annotations

import numpy as np

# Bytes read before each cell's end: three uint64 words.
WIDTH = 24
_U64 = np.dtype("<u8")
_MAX_DIGITS = 19  # a significand of 19 digits fits a uint64
_MAX_POW10 = 22  # 10**22 is the largest power of ten a float64 holds exactly
POW10 = 10.0 ** np.arange(_MAX_POW10 + 1)
# By the places f of a fraction, up to 18, and at WIDTH for a cell with
# no point: 10**(f + 1), which leaves the integer part of a significand
# read with a 0 for its point, 9 * 10**f, 14 * 10**f, the part of one
# read with its point as 14, and f.
_INTEGER_PART = np.full(WIDTH + 1, 2 ** 64 - 1, dtype=np.uint64)
_INTEGER_PART[:_MAX_DIGITS] = 10 ** np.arange(1, _MAX_DIGITS + 1, dtype=np.uint64)
_NINE_TIMES = np.zeros(WIDTH + 1, dtype=np.uint64)
_NINE_TIMES[:_MAX_DIGITS] = 9 * 10 ** np.arange(_MAX_DIGITS, dtype=np.uint64)
_POINT_AS_14 = np.zeros(WIDTH + 1, dtype=np.uint64)
_POINT_AS_14[:_MAX_DIGITS] = 14 * 10 ** np.arange(_MAX_DIGITS, dtype=np.uint64)
_PLACES = np.where(np.arange(WIDTH + 1) < WIDTH, np.arange(WIDTH + 1), 0)
# A cell whose double-double residual lies within _TIE_MARGIN of half a
# gap between doubles, in units of that gap, is left unsettled. The residual's own error is below 2**-40 of a gap.
_TIE_MARGIN = 2.0 ** -30


def _each_byte(b: int) -> np.uint64:
    return np.uint64(b * 0x0101010101010101)


_HIGH = _each_byte(0x80)
_LOW_NIBBLE, _ZERO, _POINT = _each_byte(0x0F), _each_byte(ord("0")), _each_byte(ord("."))
_DIGIT_CARRY = _each_byte(0x76)
_SHIFT_7, _SHIFT_8, _SHIFT_56 = np.uint64(7), np.uint64(8), np.uint64(56)
# Per word of the window, the multiplier that takes a flag bit at bit 8j to
# the column of its byte in the window, in the top byte (several flags add
# up their columns).
_COLUMN_OF = np.array([sum((8 * w + 8 - i) << (8 * i) for i in range(8))
                       for w in range(WIDTH // 8)], dtype=np.uint64)
_ONES = _each_byte(1)
_FRACTION = np.uint64((1 << 52) - 1)


def _before(x: np.ndarray) -> np.ndarray:
    """Rows of three words with 0xFF in each byte of columns 0 .. x - 1."""
    return np.where(np.arange(WIDTH) < np.asarray(x)[:, None], 0xFF, 0) \
        .astype(np.uint8).view(_U64)


# _FIELD[n] has 0xFF in the last n columns of a window's three words.
_FIELD = _before(WIDTH - np.arange(WIDTH + 1)) ^ np.uint64(2 ** 64 - 1)


def decimals(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """``(values, settled)``: the float64 of each cell ``buf[starts[i]:ends[i]]``
    of a ``uint8`` buffer of ASCII text without NUL bytes, as ``float``
    reads it, and whether it was settled here; an unsettled cell's value is
    NaN. A cell within a hair of a rounding tie (:func:`_nearest`) is left
    unsettled.

    Cells are read as :func:`_plain` decimals first. A cell that is not
    one but ends in an exponent, ``e`` or ``E``, an optional sign and one
    to three digits, is read again as the plain decimal before the ``e``,
    scaled by the exponent.
    """
    m, k, negative, settled = _plain(buf, starts, ends)
    retry = ~settled
    if retry.any():
        retry = np.flatnonzero(retry & (ends - starts >= 3))
        tail = windows(buf, ends[retry], 5)
        tail[np.arange(5) < 5 - (ends - starts)[retry, None]] = 0
        e_at, exponent, found = _exponents(tail)
        found = retry[found]
        m[found], k[found], _, settled[found] = _plain(buf, starts[found],
                                                       ends[found] - 5 + e_at, exponent)
    missing = ~settled
    missing = np.flatnonzero(missing) if missing.any() else None
    if missing is not None:  # read as 0 / 10 here, then as NaN
        m[missing] = 0
        k[missing] = -1
    if np.all(k < 0):  # the usual case: every cell with a fraction
        values = _over(m, np.negative(k, out=k))
    else:
        values = np.empty(len(m))
        down = k < 0
        values[down] = _over(m[down], -k[down])
        np.logical_not(down, out=down)
        values[down] = _times(m[down], k[down])
    np.negative(values, out=values, where=negative)
    settled &= ~np.isnan(values)
    if missing is not None:
        values[missing] = np.nan
    return values, settled


def windows(buf: np.ndarray, ends: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes before each of ``ends``, one row of a ``uint8``
    matrix each, with zeros for those before the start of ``buf``."""
    at = ends - width
    if not len(at) or at.min() >= 0:
        return _rows(buf, at, width)
    # the windows of ends this near the start come from its first bytes
    # behind zeros
    near = at < 0
    out = np.empty((len(at), width), np.uint8)
    out[near] = _rows(np.concatenate([np.zeros(width, np.uint8), buf[:width]]),
                      ends[near], width)
    np.logical_not(near, out=near)
    out[near] = _rows(buf, at[near], width)
    return out


def _rows(buf: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """The ``width`` bytes from each of ``at`` on, one row each."""
    if not len(at):
        return np.empty((0, width), np.uint8)
    records = np.ndarray((buf.size - width + 1,), dtype=f"V{width}", buffer=buf,
                         strides=(1,))
    return records[at].view(np.uint8).reshape(len(at), width)


def _exponents(tail: np.ndarray):
    """``(e_at, exponent, found)`` of the last five bytes of cells, zero
    before a cell's start: for each cell they end as ``e[+-]D``, with one
    to three digits D, the column of the ``e`` and the exponent's value,
    beside the index of that cell."""
    is_e = (tail | 0x20) == ord("e")
    e_at = np.full(len(tail), -1)
    for c in range(4):
        e_at[is_e[:, c]] = c
    sign = (tail == ord("+")) | (tail == ord("-"))
    digit = tail - ord("0") < 10
    column = np.arange(5)
    after = column > e_at[:, None]
    signed = sign[np.arange(len(tail)), np.minimum(e_at + 1, 4)]
    in_digits = after & (column > e_at[:, None] + signed[:, None])
    found = (e_at >= 0) & np.all(digit | ~in_digits, axis=1) & (e_at + signed < 4)
    value = np.where(in_digits, tail - ord("0"), 0) @ 10 ** (4 - column)
    value = np.where(tail[np.arange(len(tail)), np.minimum(e_at + 1, 4)] == ord("-"),
                     -value, value)
    found = np.flatnonzero(found)
    return e_at[found], value[found], found


def _plain(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, exponent=None):
    """``(m, k, negative, settled)`` of cells ``[+-]D[.D]`` (D a run of
    digits, at least one in all, and at most 19 digits and point) times
    10**``exponent``, if given: the digits as an integer, the power of ten
    that scales them, whether the cell starts with ``-``, and whether it is
    of that form, with |k| <= 22.

    Each cell's WIDTH bytes, zeroed before its start and at a sign, are
    three little-endian words, one row of a matrix. The flags of the bytes
    that are no digit give the count of digits, which must leave room for
    one point at most, and the flags of the points the column of the point,
    when there is one. The digits are read eight to a word (SWAR), the
    point as 14 (its low four bits), as x = I * 10**(f + 1) + 14 * 10**f +
    F for an integer part I and f places of fraction F; with y = x - 14 *
    10**f, ``m`` is ``I * 10**f + F``, or ``y - 9 * I * 10**f``.
    """
    first = buf[starts]
    negative = first == ord("-")
    length = ends - starts
    length -= negative | (first == ord("+"))
    del first
    w = windows(buf, ends, WIDTH).view(_U64)
    flags = _FIELD.take(length, axis=0, mode="clip")
    w &= flags
    # a byte b is no digit when (b ^ 0x30) + 0x76 has its high bit
    np.bitwise_xor(w, _ZERO, out=flags)
    flags += _DIGIT_CARRY
    flags >>= _SHIFT_7
    flags &= _ONES
    n_digits = WIDTH - _per_cell(flags, _ONES)
    # a byte b is a point when 0x80 - (b ^ 0x2E) has its high bit
    np.bitwise_xor(w, _POINT, out=flags)
    np.subtract(_HIGH, flags, out=flags)
    flags >>= _SHIFT_7
    flags &= _ONES
    # the sum of the columns of the points, counted from 1: the column of
    # a lone one, 0 for none, and no more than 24 places from the end
    places = WIDTH - _per_cell(flags, _COLUMN_OF)
    del flags
    has_point = places < WIDTH
    settled = ((n_digits == length - has_point) & (n_digits >= 1)
               & (n_digits + has_point <= _MAX_DIGITS))
    del n_digits, length, has_point
    # eight digits per word (SWAR), then the words joined
    w &= _LOW_NIBBLE
    w *= np.uint64(10 * 2 ** 8 + 1)
    w >>= _SHIFT_8
    w &= np.uint64(0x00FF00FF00FF00FF)
    w *= np.uint64(100 * 2 ** 16 + 1)
    w >>= np.uint64(16)
    w &= np.uint64(0x0000FFFF0000FFFF)
    w *= np.uint64(10_000 * 2 ** 32 + 1)
    w >>= np.uint64(32)
    m = w[:, 0] * np.uint64(10 ** 16)
    m += w[:, 1] * np.uint64(10 ** 8)
    m += w[:, 2]
    del w
    m -= _POINT_AS_14.take(places, mode="clip")
    m -= m // _INTEGER_PART.take(places, mode="clip") * _NINE_TIMES.take(places, mode="clip")
    k = -_PLACES.take(places, mode="clip")
    if exponent is not None:
        k += exponent
        settled &= (k >= -_MAX_POW10) & (k <= _MAX_POW10)
    return m, k, negative, settled


def _per_cell(flags: np.ndarray, by) -> np.ndarray:
    """The sum over the three words of each cell of their bytes, flags of 0
    or 1, each times its byte of ``by``, as read from the top byte; the
    flags are overwritten."""
    flags *= by
    flags >>= _SHIFT_56
    total = flags[:, 0] + flags[:, 1]
    total += flags[:, 2]
    return total.view(np.int64)


# x * _SPLITTER - (x * _SPLITTER - x) is the high half of x, of at most 26
# significant bits, and the rest of x its low half (Dekker 1971).
_SPLITTER = 2.0 ** 27 + 1
_POW10_HI = POW10 * _SPLITTER
_POW10_HI -= _POW10_HI - POW10
_POW10_LO = POW10 - _POW10_HI


def product_error(a: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``a * 10**q - p`` exactly, for ``p`` the float64 ``a * 10**q``, by
    Dekker's product of the halves of ``a`` and of ``10**q``, in separate
    float64 operations, none of which may be fused. :func:`_times` and
    :func:`_over` read it for the residual that rounds a parsed cell, and
    :func:`floattext.fields` to scale a value to 17 digits exactly."""
    a_hi = a * _SPLITTER
    a_lo = a_hi - a
    a_hi -= a_lo
    np.subtract(a, a_hi, out=a_lo)
    b = _POW10_HI.take(q)
    e = a_hi * b
    e -= p
    e += np.multiply(a_lo, b, out=b)
    _POW10_LO.take(q, out=b)
    e += np.multiply(a_hi, b, out=a_hi)
    e += np.multiply(a_lo, b, out=b)
    return e


def _rest(m: np.ndarray, m0: np.ndarray) -> np.ndarray:
    """``m - m0`` for a uint64 array and the float64 nearest each, as int64:
    at most 11 bits, so exact as a float64 too."""
    r = m0.astype(np.uint64)
    np.subtract(m, r, out=r)
    return r.view(np.int64)


def _times(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The float64 nearest to each ``m * 10**q`` (:func:`_nearest`), from
    ``m0 * 10**q``, taken exactly, plus ``(m - m0) * 10**q``, for ``m0``
    the float64 nearest ``m``."""
    p = POW10.take(q)
    m0 = m.astype(np.float64)
    hi = m0 * p
    lo = product_error(m0, q, hi)
    np.multiply(_rest(m, m0), p, out=m0)
    lo += m0
    return _nearest(hi, lo)


def _over(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The float64 nearest to each ``m / 10**q`` (:func:`_nearest`), from
    ``hi = m0 / 10**q``, for ``m0`` the float64 nearest ``m``, and the
    residual ``m - hi * 10**q`` over ``10**q``. The residual is ``(m0 -
    ph) + (m - m0) - pl``, where ``ph + pl == hi * 10**q``: the first two
    terms are exact, ``ph`` being within a factor of 2 of ``m0`` and both
    terms integers when ``m0`` exceeds 2**53, and ``m - m0`` 0 when not."""
    p = POW10.take(q)
    m0 = m.astype(np.float64)
    hi = m0 / p
    ph = np.multiply(hi, p, out=p)
    rest = _rest(m, m0)
    m0 -= ph
    m0 += rest
    del rest
    m0 -= product_error(hi, q, ph)
    m0 /= POW10.take(q, out=ph)
    del ph
    return _nearest(hi, m0)


def _nearest(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """The float64 nearest to each ``m * 10**k``, ties to even, given ``hi +
    lo``, which comes within far less than its last bit of it, or NaN where
    float64 arithmetic cannot decide; ``hi`` is overwritten.

    ``m`` is a uint64 below 10**19, |k| <= 22 and 10**|k| a float64
    exactly. ``hi + lo`` is ``m0 * 10**k`` plus its error and ``(m - m0) *
    10**k`` for k >= 0 (:func:`_times`), and ``m0 / 10**k`` plus the
    residual over ``10**k`` for k < 0 (:func:`_over`). Its rounded sum is
    the answer unless the part of ``lo`` it drops lies within
    :data:`_TIE_MARGIN` of half the gap on its side of the sum: then it is
    NaN, the hard case, which :func:`decimals` leaves unsettled. For m <=
    2**53, ``m0`` is ``m`` and the rounded sum is the one IEEE multiply or
    divide: Clinger's fast path.
    """
    out = hi + lo
    # the part of lo that the sum drops, against half the gap on its side
    # of the sum: below a power of two the gap is half as wide
    hi -= out
    hi += lo
    del lo
    margin = (out.view(np.uint64) & ~_FRACTION).view(np.float64)
    below_power = out == margin
    below_power &= hi < 0
    margin *= (1 - 2 * _TIE_MARGIN) * 2.0 ** -53
    np.multiply(margin, 0.5, out=margin, where=below_power)
    del below_power
    np.abs(hi, out=hi)
    out[hi > margin] = np.nan
    return out
