"""Weather cells read in numpy (floatparse) are the float64 that
``ingest._parse_cell`` reads, bit for bit, NaN for a missing cell."""

import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outagebn import floatparse, ingest


def cell_buffer(cells):
    """(buf, starts, ends) of ``cells``, each ended by a comma as in a
    line."""
    text = "".join(c + "," for c in cells).encode("ascii")
    lengths = np.array([len(c) for c in cells], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lengths + 1)[:-1]]).astype(np.int64)
    return np.frombuffer(text, dtype=np.uint8), starts, starts + lengths


def expected(cells):
    values = [ingest._parse_cell(c) for c in cells]
    return np.array([np.nan if v is None else v for v in values])


def assert_bit_identical(cells, settled_at_least=0.0):
    """Every settled cell of floatparse.decimals, and every cell of
    ingest._cells, carries _parse_cell's bits; at least the share
    ``settled_at_least`` settles in numpy."""
    buf, starts, ends = cell_buffer(cells)
    want = expected(cells).view(np.uint64)
    values, settled = floatparse.decimals(buf, starts, ends)
    bad = np.flatnonzero(settled & (values.view(np.uint64) != want))
    assert not bad.size, [(cells[k], values[k]) for k in bad[:5]]
    assert np.count_nonzero(settled) >= settled_at_least * len(cells)
    got = ingest._cells(buf, starts, ends).view(np.uint64)
    bad = np.flatnonzero(got != want)
    assert not bad.size, [cells[k] for k in bad[:5]]


def test_repr_of_random_bit_patterns():
    # any bits at all, so every binary exponent; repr writes the ones
    # outside 1e-4 to 1e16 in e-notation, mostly beyond 10**22
    rng = np.random.default_rng(31)
    wild = rng.integers(0, np.iinfo(np.uint64).max, size=20_000, dtype=np.uint64,
                        endpoint=True).view(np.float64)
    assert_bit_identical([repr(v) for v in wild.tolist()])
    # 1 to 2**53 in magnitude, which repr writes positionally in at most
    # 17 digits and a point, so that each settles in numpy
    near = (rng.integers(0, 1 << 52, size=100_000, dtype=np.uint64)
            | (rng.integers(1023, 1076, size=100_000).astype(np.uint64) << np.uint64(52))
            | (rng.integers(0, 2, size=100_000).astype(np.uint64) << np.uint64(63)))
    assert_bit_identical([repr(v) for v in near.view(np.float64).tolist()],
                         settled_at_least=1.0)


def halfway(rng, n):
    """Decimals of at most 19 digits that lie exactly halfway between two
    doubles: N * 2**s for an odd N of 54 bits, written as M * 10**k with M
    an integer, for k from -4 to 4, and their neighbours one unit of the
    last digit away."""
    out = []
    for _ in range(n):
        k = int(rng.integers(-4, 5))
        five = 5 ** abs(k)
        # N = 5**|k| * u is odd and of 54 bits
        u = int(rng.integers(-(-(1 << 53) // five), (1 << 54) // five)) | 1
        n_odd = five * u
        if not (1 << 53) <= n_odd < 1 << 54:
            continue
        if k >= 0:
            # M * 10**k = u * 2**t * 5**k * 2**k = N * 2**(t + k)
            t = int(rng.integers(0, 64 - 54))
            m = u << t
            texts = [f"{m + d}e{k}" if k else str(m + d) for d in (-1, 0, 1)]
        else:
            # M * 10**k = N * 2**t / 2**|k|, with M = N * 2**t
            t = int(rng.integers(0, 63 - 54))
            m = n_odd << t
            texts = [str(decimal.Decimal(m + d).scaleb(k)) for d in (-1, 0, 1)]
        # at most 19 digits and point, which floatparse reads
        out.extend(t for t in texts if len(t.split("e")[0]) <= 19)
    return out


def is_tie(cell):
    """Whether the decimal ``cell`` lies exactly halfway between the double
    ``float`` reads it as and one of that double's neighbours."""
    value = float(cell)
    return any(Fraction(cell) == (Fraction(value) + Fraction(math.nextafter(value, toward))) / 2
               for toward in (-math.inf, math.inf))


def test_exact_halfway_decimals_round_to_even():
    cells = ["9007199254740993", "9007199254740995", "-9007199254740993",
             "18014398509481986", "18014398509481990", "4503599627370496.5",
             "4503599627370497.5", "1.00000000000000011102230246251565404236316680908203125",
             *halfway(np.random.default_rng(7), 3000)]
    assert_bit_identical(cells)
    # an exact tie is left to _parse_cell; any other cell of at most 19
    # digits and point settles in numpy
    buf, starts, ends = cell_buffer(cells)
    _, settled = floatparse.decimals(buf, starts, ends)
    tie = np.array([is_tie(c) for c in cells])
    short = np.array([len(c.lstrip("+-").lower().split("e")[0]) <= 19 for c in cells])
    assert tie.any() and (~tie & short).any()
    assert not np.any(settled & tie), [c for c, t in zip(cells, settled & tie) if t][:5]
    assert np.all(settled | tie | ~short), \
        [c for c, t in zip(cells, ~settled & ~tie & short) if t][:5]


def test_cells_beside_a_power_of_two():
    # 2**e plus a quarter to a half of the gap above it, where the gap below
    # is half as wide, is no tie and settles in numpy, as does a cell a
    # little below 2**e; each reads as 2**e
    digits = decimal.Context(prec=18)
    cells = []
    for e in range(-15, 64):
        for ulps in ("0.3", "0.45", "-0.15", "-0.2"):
            x = Fraction(2) ** e * (1 + Fraction(ulps) / 2 ** 52)
            cells.append(f"{digits.divide(x.numerator, x.denominator):e}")
    assert_bit_identical(cells, settled_at_least=1.0)
    assert np.all(np.frexp([float(c) for c in cells])[0] == 0.5)


def test_negative_zero():
    cells = ["-0", "-0.0", "-.0", "-0.", "-0e5", "-0.000e-3", "+0", "0", "0.0"]
    assert_bit_identical(cells, settled_at_least=1.0)
    buf, starts, ends = cell_buffer(cells)
    assert np.signbit(ingest._cells(buf, starts, ends)).tolist() == [True] * 6 + [False] * 3


@st.composite
def decimal_cells(draw):
    """A decimal of 1 to 25 significant digits, with or without a point,
    a sign and an exponent."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.one_of(st.none(), st.integers(0, len(digits))))
    text = digits if point is None else f"{digits[:point]}.{digits[point:]}"
    sign = draw(st.sampled_from(["", "-", "+"]))
    exponent = draw(st.one_of(st.just(""), st.builds(
        "{}{}{}".format, st.sampled_from("eE"), st.sampled_from(["", "-", "+"]),
        st.integers(0, 400).map(str))))
    return sign + text + exponent


@settings(max_examples=300, deadline=None)
@given(st.lists(decimal_cells(), min_size=1, max_size=60))
def test_random_decimals(cells):
    assert_bit_identical(cells)


@pytest.mark.parametrize("cell", [
    "", "N/A", " N/A", "-N/A", "n/a", "xN/A", "1_000", "0x10", " 1.5", "1.5 ", "1e",
    "e5", ".", "-", "+", "1.2.3", "1e1e1", "1e+-5", "--1", "nan", "-inf", "Infinity",
    "1e400", "1e-400", "12345678901234567890", "1234567890123456789",
    "0.000000000000000000001", "00000000000000000000000001.5"])
def test_other_spellings(cell):
    # each with a plain neighbour on either side, whose window reaches it
    assert_bit_identical(["7.25", cell, "-3"])
