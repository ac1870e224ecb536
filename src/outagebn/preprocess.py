"""Equal-width discretization and class rebalancing.

Continuous factor series become small integer bin indices; the rare outage
class is then rebalanced by down-sampling the majority and synthesizing
minority rows by nearest-neighbor interpolation in bin space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # ingest makes its labels in code_dtype, so imports this module
    from .ingest import TimeSeriesTable

# Rows coded per np.digitize call in apply_bins; bounds its scratch to
# 512 KB beside the code matrix.
_BIN_BLOCK_ROWS = 1 << 16
# unique_codes numbers a space of at most this many codes per code by one
# bincount over it, a larger one by sorting; the two cost about the same at 2.
_DENSE_CODES_PER_ROW = 2
# Minority rows whose distances smote_upsample sorts at once: its scratch
# is 16 bytes per block row and minority row, not per pair of minority
# rows (2,000 minority rows at 1M hours would take 64 MB).
_NEIGHBOR_BLOCK_ROWS = 256


class ImbalanceError(ValueError):
    """Rebalancing needs both classes present."""


class SynthesisError(ValueError):
    """Synthetic oversampling needs at least two minority rows."""


@dataclass
class DiscreteDataset:
    """Integer-coded dataset: one column per variable, one 0/1 label per row.

    ``rows[r, c]`` is the bin index of column ``c`` in row ``r`` and always
    lies in ``range(cardinalities[c])``. ``rows`` may have any integer
    dtype; the package makes it in :func:`code_dtype`, and ``labels`` in
    ``code_dtype([2])``, which coding and :func:`attach_label_column` share
    rather than copy. ``bin_edges[c]`` holds the interior cut points that
    produced the column, which has one more state than it has edges.
    """

    columns: list[str]
    rows: np.ndarray
    labels: np.ndarray
    bin_edges: list[np.ndarray]

    @property
    def cardinalities(self) -> list[int]:
        return [len(e) + 1 for e in self.bin_edges]

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"unknown column {name!r}") from None

    def validate(self) -> None:
        """Refuse, with a ValueError naming it, the first invariant above that fails."""
        rows = self.rows
        if rows.ndim != 2:
            raise ValueError(f"rows are {rows.ndim}-D, not 2-D")
        if rows.shape != (len(self.labels), len(self.columns)):
            raise ValueError(f"rows have shape {rows.shape}, not one row per label and "
                             f"one column per name {(len(self.labels), len(self.columns))}")
        if len(self.bin_edges) != len(self.columns):
            raise ValueError(f"{len(self.columns)} columns have {len(self.bin_edges)} "
                             "edge lists")
        for name, card, col in zip(self.columns, self.cardinalities, rows.T):
            if len(col) and not 0 <= col.min() <= col.max() < card:
                raise ValueError(f"column {name!r}: a code lies outside 0..{card - 1}")
        if not set(np.unique(self.labels)) <= {0, 1}:
            raise ValueError("a label is neither 0 nor 1")


def check_states(column: np.ndarray, card: int, owner: str) -> None:
    """Refuse a column holding a value outside ``range(card)``, naming ``owner``."""
    if column.size:
        lo, hi = int(column.min()), int(column.max())
        if lo < 0 or hi >= card:
            raise ValueError(f"{owner} holds state {lo if lo < 0 else hi} "
                             f"outside range({card})")


def code_space(cards: Sequence[int], owner: str) -> int:
    """The number of configurations of columns with cardinalities ``cards``.

    Refuses, with a ValueError naming ``owner``, a space of 2**63 or more,
    whose codes :func:`config_codes` cannot hold in int64. Callers check
    once per table or test, before coding any row.
    """
    space = math.prod(int(c) for c in cards)
    if space >= 2**63:
        raise ValueError(f"{owner}: {space} configurations of {len(cards)} columns "
                         "do not fit an int64 code")
    return space


def code_dtype(cards: Sequence[int]) -> np.dtype:
    """The smallest unsigned type that holds every state of columns with cardinalities ``cards``.

    Codes are made in this type: ``uint8`` up to 256 states, ``uint16``
    up to 65,536.
    """
    return np.min_scalar_type(max(cards, default=1) - 1)


def config_codes(columns, cards: Sequence[int], n: int) -> np.ndarray | int:
    """Mixed-radix code per row, first column most significant (the CPT row order).

    Each column is an integer array of length ``n`` or one Python int
    shared by all rows; arrays of other shapes broadcast, and the codes
    take their broadcast shape. By Horner's rule over the columns, the
    ints fold into one Python-int offset, so an int column costs no numpy
    call. The first array is copied as int64 and the array columns
    accumulate in that copy, in place while the shapes allow, each step
    multiplying by the product of the cards since the previous array
    column; a narrow column never wraps and is widened a buffer at a time
    (numpy refuses a later uint64 column, which the package never makes).
    The cards after the last array column and the offset are applied once,
    at the end. With only array columns these are the numpy calls of plain
    Horner's rule. When every column is an int, so is the code; with no
    columns it is ``n`` zeros. The codes wrap silently unless
    ``code_space(cards, ...)`` holds.
    """
    if not len(columns):
        return np.zeros(n, dtype=np.int64)
    offset, code, scale = 0, None, 1
    for col, card in zip(columns, cards):
        offset *= card
        if not isinstance(col, np.ndarray):
            offset += col
            scale *= card
        elif code is None:
            code, scale = col.astype(np.int64), 1
        else:
            code *= scale * card
            code = np.add(code, col, out=code if code.shape == col.shape else None,
                          dtype=np.int64)
            scale = 1
    if code is None:
        return offset
    if scale != 1:
        code *= scale
    if offset:
        code += offset
    return code


def unique_codes(codes: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` for integer codes in ``range(space)``.

    The one rule that numbers observed codes: the CI test's conditioning sets
    and cells, and the CPT fit's parent configurations.
    """
    if space > _DENSE_CODES_PER_ROW * len(codes):
        return np.unique(codes, return_inverse=True)
    seen = np.bincount(codes, minlength=space) > 0
    return seen.nonzero()[0].astype(codes.dtype, copy=False), (np.cumsum(seen) - 1)[codes]


def equal_width_edges(values, bins: int) -> np.ndarray:
    """Interior cut points of ``bins`` equal-width intervals over the data range.

    A constant column has no usable range; it gets unit-spaced edges above
    the constant so everything lands in bin 0 and the edge count stays
    ``bins - 1``.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bin an empty column")
    if not np.all(np.isfinite(arr)):
        raise ValueError("cannot bin non-finite values")
    lo = float(arr.min())
    hi = float(arr.max())
    if hi > lo:
        return np.linspace(lo, hi, bins + 1)[1:-1]
    return lo + np.arange(1, bins, dtype=float)


def apply_bins(bin_edges: Sequence[np.ndarray],
               columns: Sequence[np.ndarray]) -> np.ndarray:
    """Code equal-length 1-D columns of raw values, one per entry of ``bin_edges``.

    Values past either end clamp into the first or last bin, which is
    exactly what ``np.digitize`` against the interior edges produces. The
    codes fill one matrix of :func:`code_dtype` over the columns' bin
    counts (``uint8`` up to 256 bins), row block by row block, so besides
    the codes only one block's digitize result is held at a time.
    """
    cols = [np.asarray(col, dtype=float) for col in columns]
    if len(cols) != len(bin_edges):
        raise ValueError(f"expected {len(bin_edges)} columns, got {len(cols)}")
    if not cols:
        raise ValueError("need at least one column")
    for j, col in enumerate(cols):
        if col.ndim != 1:
            raise ValueError(f"column {j} is {col.ndim}-D, expected 1-D")
    n = len(cols[0])
    if any(len(col) != n for col in cols):
        raise ValueError("columns differ in length")
    out = np.empty((n, len(cols)), dtype=code_dtype([len(e) + 1 for e in bin_edges]))
    for start in range(0, n, _BIN_BLOCK_ROWS):
        stop = start + _BIN_BLOCK_ROWS
        for j, (col, edges) in enumerate(zip(cols, bin_edges)):
            out[start:stop, j] = np.digitize(col[start:stop], edges)
    return out


def coded_hours(table: TimeSeriesTable, bin_edges: Mapping[str, Sequence]) -> DiscreteDataset:
    """The columns ``bin_edges`` names, of a complete hourly table, coded with their edges.

    ``bin_edges[c]`` holds column ``c``'s ascending interior edges, as an
    array or a model file's list. ``learn`` codes its hours here, and
    ``predict`` and ``eval`` recode theirs; the labels are the table's own.
    """
    edges = [np.asarray(e, dtype=float) for e in bin_edges.values()]
    return DiscreteDataset(
        columns=list(bin_edges),
        rows=apply_bins(edges, [table.factors[c] for c in bin_edges]),
        labels=np.asarray(table.label),
        bin_edges=edges,
    )


def discretize(table: TimeSeriesTable, bins_per_factor: int = 10) -> DiscreteDataset:
    """Bin every factor of a complete hourly table into equal-width bins.

    Edges come from each column's own min/max; the hours are coded by
    :func:`coded_hours`, so recoding them with the stored edges reproduces
    the dataset exactly.
    """
    names = table.factor_names
    if not names:
        raise ValueError("table has no factor columns")
    return coded_hours(table, {c: equal_width_edges(table.factors[c], bins_per_factor)
                               for c in names})


def attach_label_column(ds: DiscreteDataset, name: str = "outage") -> DiscreteDataset:
    """Append the label as a binary data column (for structure learning)."""
    if name in ds.columns:
        raise ValueError(f"column {name!r} already exists")
    cards = [*ds.cardinalities, 2]
    rows = np.empty((ds.n_rows, len(cards)), dtype=code_dtype(cards))
    rows[:, :-1] = ds.rows
    rows[:, -1] = ds.labels
    return DiscreteDataset(
        columns=[*ds.columns, name],
        rows=rows,
        labels=ds.labels,
        bin_edges=[*ds.bin_edges, np.array([0.5])],
    )


def _class_split(labels: np.ndarray) -> tuple[int, np.ndarray]:
    """The minority label and the positions of its rows."""
    counts = np.bincount(labels, minlength=2)
    minority = 1 if counts[1] <= counts[0] else 0
    return minority, np.flatnonzero(labels == minority)


def downsample_majority(ds: DiscreteDataset, ratio: float, seed: int) -> DiscreteDataset:
    """Sample the majority class down to ``ceil(ratio * minority_count)`` rows.

    Sampling is uniform without replacement; surviving rows keep their
    original order. A ratio large enough to keep every majority row
    returns the dataset unchanged.
    """
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    counts = np.bincount(ds.labels, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise ImbalanceError("down-sampling needs both classes present")
    _, min_idx = _class_split(ds.labels)
    want = min(ds.n_rows - len(min_idx), math.ceil(ratio * len(min_idx)))
    keep = keep_and_draw(min_idx, ds.n_rows, want, np.random.default_rng(seed))
    return replace(ds, rows=ds.rows[keep], labels=ds.labels[keep])


def keep_and_draw(kept: np.ndarray, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Ascending positions of ``range(n)``: all of ascending ``kept``, and ``k`` others
    drawn uniformly without replacement by their ranks, so none are listed."""
    ranks = np.sort(rng.choice(n - len(kept), size=k, replace=False))
    # the other position of rank r follows every kept position with at most
    # r others before it
    drawn = ranks + np.searchsorted(kept - np.arange(len(kept)), ranks, side="right")
    return np.sort(np.concatenate([kept, drawn]))


def smote_upsample(ds: DiscreteDataset, target_minority_count: int,
                   k: int = 5, seed: int = 0) -> DiscreteDataset:
    """Grow the minority class to ``target_minority_count`` rows.

    Each synthetic row interpolates a random minority row toward one of its
    k nearest minority neighbors (Euclidean distance in bin space, distance
    ties broken by row position), rounding back to integer bins and
    clamping to each column's valid range. Synthetic rows append after all
    original rows, in one matrix of :func:`code_dtype`. k truncates to
    ``minority_count - 1`` when the class is small. A target at or below
    the current count is a no-op.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    minority, min_idx = _class_split(ds.labels)
    n_min = len(min_idx)
    if n_min < 2:
        raise SynthesisError("need at least two minority rows to synthesize")
    need = target_minority_count - n_min
    if need <= 0:
        return replace(ds)

    base = ds.rows[min_idx].astype(float)
    k_eff = min(k, n_min - 1)
    # Squared distances |a|^2 + |b|^2 - 2 a.b, built in place one block of
    # rows at a time; exact because the rows are small integer bins.
    sq = np.einsum("ij,ij->i", base, base)
    neighbors = np.empty((n_min, k_eff), dtype=np.intp)
    for lo in range(0, n_min, _NEIGHBOR_BLOCK_ROWS):
        hi = min(lo + _NEIGHBOR_BLOCK_ROWS, n_min)
        d2 = base[lo:hi] @ base.T
        d2 *= -2.0
        d2 += sq[lo:hi, None]
        d2 += sq[None, :]
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        neighbors[lo:hi] = np.argsort(d2, axis=1, kind="stable")[:, :k_eff]

    upper = np.asarray(ds.cardinalities, dtype=float) - 1
    rng = np.random.default_rng(seed)
    # scalar draws, in this order: array draws would give other numbers
    picks, mates, steps = [], [], []
    for _ in range(need):
        i = int(rng.integers(n_min))
        picks.append(i)
        mates.append(int(neighbors[i, rng.integers(k_eff)]))
        steps.append(rng.random())
    i, z = np.array(picks), np.array(mates)
    # element-wise, so each row's bytes are those of its own scalar sum
    synth = np.clip(np.rint(base[i] + np.array(steps)[:, None] * (base[z] - base[i])),
                    0, upper)

    rows = np.empty((ds.n_rows + need, len(ds.cardinalities)),
                    dtype=code_dtype(ds.cardinalities))
    rows[:ds.n_rows] = ds.rows
    rows[ds.n_rows:] = synth
    labels = np.concatenate([ds.labels,
                             np.full(need, minority, dtype=ds.labels.dtype)])
    return replace(ds, rows=rows, labels=labels)
