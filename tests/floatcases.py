"""Float64 values that are hard to write as text, and a check of
``floattext.fields`` against ``repr`` on them that needs numpy alone.

The values are doubles on or beside a rounding tie of their 17 or 16
significant digits, or beside an end of the interval of numbers that read
back to them, and random bit patterns about the positional range. Run as a
script, ``python tests/floatcases.py``, it formats the tie and interval-end
cells with their neighbours and 10**6 random bit patterns through
``floattext.fields`` and compares each cell with ``repr``'s text.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from outagebn import floattext

# (low, power, modulus, targets, sides) of each set built by
# at_a_tie_or_an_interval_end
TIE_AND_INTERVAL_END_SETS = [
    # x = m * 2**(low - 52) in [8, 10): y = x * 1e16 = m * 5**16 / 2**33,
    # and half the gap between doubles is 8.88 (as y). y on a 17-digit
    # tie, or 2**-33 either side of one: m * 5**16 = 2**32 + e (mod 2**33)
    (3, 16, 1 << 33, [(1 << 32) - 1, 1 << 32, (1 << 32) + 1], [0]),
    # y mod 10 on 5, or 5 * 2**-33 either side: a 16-digit tie
    (3, 15, 1 << 34, [(1 << 33) - 1, 1 << 33, (1 << 33) + 1], [0]),
    # x in [1, 2), where half the gap is 1.11: the midpoint between x
    # and its neighbour below or above, (2m -+ 1) / 2**53, is 5 * 2**-37
    # or 15 * 2**-37 (as y) from a multiple of 10, or 25 * 2**-37 from
    # a multiple of 100. x's interval ends there, and a 16- or 15-digit
    # text lies just in it or just out of it
    (0, 15, 1 << 38, [-3, -1, 1, 3], [-1, 1]),
    (0, 14, 1 << 39, [-1, 1], [-1, 1]),
    # in [8, 10), 25 * 2**-34 from a multiple of 100
    (3, 14, 1 << 36, [-1, 1], [-1, 1]),
]


def at_a_tie_or_an_interval_end(low, power, modulus, targets, sides):
    """300 doubles m * 2**(low - 52) in [2**low, 1.25 * 2**low) for
    each target and side, where m solves (2m + side) * 5**power = target
    (mod modulus), or m * 5**power = target where side is 0."""
    values = []
    for target, side in itertools.product(targets, sides):
        k = target * pow(5 ** power, -1, modulus) % modulus
        step = modulus >> (side != 0)
        root = (k - side) // 2 % step if side else k
        first = root + ((1 << 52) - root + step - 1) // step * step
        values += [m * 2.0 ** (low - 52) for m in range(first, 5 << 50, step)][:300]
    return np.array(values)


def neighbours(values, ulps=2):
    """``values`` and the doubles up to ``ulps`` steps either side of each."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).ravel().view(np.float64)


def positional_bit_patterns(rng, n):
    """``n`` doubles of random bits, either sign, whose binary exponent lies
    about the positional range, 1e-6 to 1e18."""
    return (rng.integers(0, 1 << 52, size=n, dtype=np.uint64)
            | (rng.integers(1003, 1083, size=n).astype(np.uint64) << np.uint64(52))
            | (rng.integers(0, 2, size=n).astype(np.uint64) << np.uint64(63))
            ).view(np.float64)


def main() -> int:
    cases = {
        "at a tie or an interval end, with their neighbours": neighbours(np.concatenate(
            [at_a_tie_or_an_interval_end(*case) for case in TIE_AND_INTERVAL_END_SETS]), ulps=1),
        "random bit patterns": positional_bit_patterns(np.random.default_rng(33), 10**6),
    }
    failed = 0
    for name, values in cases.items():
        bad = []
        for b in range(0, values.size, 1 << 16):
            block = values[b:b + (1 << 16)]
            rows = floattext.fields(block)
            for value, row in zip(block.tolist(), rows):
                got = row[row != 0].tobytes()
                want = b"," + ("" if value != value else repr(value)).encode()
                if got != want:
                    bad.append((value, got, want))
        print(f"{name}: {values.size} cells, {len(bad)} differ from repr", bad[:5])
        failed += len(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
