"""Equal-width discretization and class rebalancing.

Continuous factor series become small integer bin indices; the rare outage
class is then rebalanced by down-sampling the majority and synthesizing
minority rows by nearest-neighbor interpolation in bin space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .ingest import TimeSeriesTable

# Rows coded per np.digitize call in apply_bins; bounds its scratch to
# 512 KB beside the code matrix.
_BIN_BLOCK_ROWS = 1 << 16


class ImbalanceError(ValueError):
    """Rebalancing needs both classes present."""


class SynthesisError(ValueError):
    """Synthetic oversampling needs at least two minority rows."""


@dataclass
class DiscreteDataset:
    """Integer-coded dataset: one column per variable, one 0/1 label per row.

    ``rows[r, c]`` is the bin index of column ``c`` in row ``r`` and always
    lies in ``range(cardinalities[c])``. ``bin_edges[c]`` holds the interior
    cut points that produced the column, so new raw values can be coded
    identically later.
    """

    columns: list[str]
    cardinalities: list[int]
    rows: np.ndarray
    labels: np.ndarray
    bin_edges: list[np.ndarray]

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"unknown column {name!r}") from None

    def validate(self) -> None:
        assert self.rows.ndim == 2
        assert self.rows.shape == (len(self.labels), len(self.columns))
        assert len(self.cardinalities) == len(self.columns) == len(self.bin_edges)
        for c, card in enumerate(self.cardinalities):
            assert card >= 1
            assert len(self.bin_edges[c]) == card - 1
            if self.rows.shape[0]:
                assert self.rows[:, c].min() >= 0
                assert self.rows[:, c].max() < card
        assert set(np.unique(self.labels)) <= {0, 1}


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


def config_codes(columns, cards: Sequence[int], n: int) -> np.ndarray | int:
    """Mixed-radix code per row, first column most significant (the CPT row order).

    Each column is an int64 array of length ``n`` or one int shared by all
    rows. When every column is an int, so is the code; with no columns it
    is ``n`` zeros. The codes wrap silently unless
    ``code_space(cards, ...)`` holds.
    """
    if not len(columns):
        return np.zeros(n, dtype=np.int64)
    code = 0
    for col, card in zip(columns, cards):
        code = code * card + col
    return code


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
    codes fill one int64 matrix, row block by row block, so besides the
    codes only one block's digitize result is held at a time.
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
    out = np.empty((n, len(cols)), dtype=np.int64)
    for start in range(0, n, _BIN_BLOCK_ROWS):
        stop = start + _BIN_BLOCK_ROWS
        for j, (col, edges) in enumerate(zip(cols, bin_edges)):
            out[start:stop, j] = np.digitize(col[start:stop], edges)
    return out


def discretize(table: TimeSeriesTable, bins_per_factor: int = 10) -> DiscreteDataset:
    """Bin every factor of a complete hourly table into equal-width bins.

    Edges come from each column's own min/max; coding goes through
    :func:`apply_bins` so re-coding the training data with the stored edges
    reproduces the dataset exactly.
    """
    names = table.factor_names
    if not names:
        raise ValueError("table has no factor columns")
    edges = [equal_width_edges(table.factors[c], bins_per_factor) for c in names]
    rows = apply_bins(edges, [table.factors[c] for c in names])
    return DiscreteDataset(
        columns=list(names),
        cardinalities=[bins_per_factor] * len(names),
        rows=rows,
        labels=np.asarray(table.label, dtype=np.int64).copy(),
        bin_edges=edges,
    )


def attach_label_column(ds: DiscreteDataset, name: str = "outage") -> DiscreteDataset:
    """Append the label as a binary data column (for structure learning)."""
    if name in ds.columns:
        raise ValueError(f"column {name!r} already exists")
    rows = np.column_stack([ds.rows, ds.labels.astype(np.int64)])
    return DiscreteDataset(
        columns=[*ds.columns, name],
        cardinalities=[*ds.cardinalities, 2],
        rows=rows,
        labels=ds.labels.copy(),
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
    n_min = len(min_idx)
    n_maj = len(ds.labels) - n_min
    want = min(n_maj, math.ceil(ratio * n_min))
    rng = np.random.default_rng(seed)
    ranks = np.sort(rng.choice(n_maj, size=want, replace=False))
    # the majority row of rank r follows every minority row with at most
    # r majority rows before it
    chosen = ranks + np.searchsorted(min_idx - np.arange(n_min), ranks, side="right")
    keep = np.sort(np.concatenate([min_idx, chosen]))
    return replace(ds, rows=ds.rows[keep], labels=ds.labels[keep])


def smote_upsample(ds: DiscreteDataset, target_minority_count: int,
                   k: int = 5, seed: int = 0) -> DiscreteDataset:
    """Grow the minority class to ``target_minority_count`` rows.

    Each synthetic row interpolates a random minority row toward one of its
    k nearest minority neighbors (Euclidean distance in bin space, distance
    ties broken by row position), rounding back to integer bins and
    clamping to each column's valid range. Synthetic rows append after all
    original rows. k truncates to ``minority_count - 1`` when the class is
    small. A target at or below the current count is a no-op.
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
    # Squared distances |a|^2 + |b|^2 - 2 a.b, built in place in one n x n
    # array; exact because the rows are small integer bins.
    sq = np.einsum("ij,ij->i", base, base)
    d2 = base @ base.T
    d2 *= -2.0
    d2 += sq[:, None]
    d2 += sq[None, :]
    np.fill_diagonal(d2, np.inf)
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k_eff]

    upper = np.asarray(ds.cardinalities, dtype=np.int64) - 1
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
    synth = np.clip(np.rint(base[i] + np.array(steps)[:, None] * (base[z] - base[i]))
                    .astype(np.int64), 0, upper)

    rows = np.vstack([ds.rows, synth])
    labels = np.concatenate([ds.labels,
                             np.full(need, minority, dtype=ds.labels.dtype)])
    return replace(ds, rows=rows, labels=labels)
