"""Threshold-sweep evaluation of probabilistic outage predictions.

A row predicts positive when its probability reaches the threshold.
Precision, recall, and F1 use the zero-denominator-means-zero convention
throughout, and the sweep reports the lowest threshold achieving the top
F1.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .preprocess import DiscreteDataset

log = logging.getLogger(__name__)

DEFAULT_GRID = tuple(i / 100 for i in range(101))


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass
class EvalReport:
    """Confusion counts at each grid threshold; ``best_index`` has the top F1."""

    thresholds: list[float]
    rows: list[ConfusionCounts]
    best_index: int

    @property
    def best(self) -> ConfusionCounts:
        return self.rows[self.best_index]

    @property
    def best_threshold(self) -> float:
        return self.thresholds[self.best_index]


def _checked_inputs(probs, labels) -> tuple[np.ndarray, np.ndarray]:
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    if probs.shape != labels.shape or probs.ndim != 1:
        raise ValueError("probabilities and labels must be equal-length vectors")
    if probs.size == 0:
        raise ValueError("cannot evaluate an empty prediction set")
    if not np.all((probs >= 0) & (probs <= 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    return probs, labels


def confusion_at(probs, labels, threshold: float) -> ConfusionCounts:
    """Counts at one decision threshold; predicted positive means prob >= threshold."""
    if not 0 <= threshold <= 1:
        raise ValueError("threshold must lie in [0, 1]")
    probs, labels = _checked_inputs(probs, labels)
    pred = probs >= threshold
    actual = labels == 1
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    tn = int(np.sum(~pred & ~actual))
    return ConfusionCounts(tp, fp, tn, fn)


def prf1(counts: ConfusionCounts) -> tuple[float, float, float]:
    """Precision, recall, F1 with empty denominators scoring zero.

    F1 reduces algebraically to 2*tp / (2*tp + fp + fn), which one float
    division evaluates exactly as the correctly rounded rational value.
    """
    for name in ("tp", "fp", "tn", "fn"):
        if getattr(counts, name) < 0:
            raise ValueError("confusion counts must be nonnegative")
    tp, fp, fn = counts.tp, counts.fp, counts.fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    return precision, recall, f1


def sweep_best_f1(probs, labels, grid: Sequence[float] | None = None) -> EvalReport:
    """Evaluate every threshold on the grid and flag the best F1.

    The grid must be ascending and inside [0, 1]; the default steps by
    0.01 from 0 to 1. Ties on F1 resolve to the lower threshold.
    """
    thresholds = list(DEFAULT_GRID if grid is None else grid)
    if not thresholds:
        raise ValueError("threshold grid is empty")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise ValueError("threshold grid must be strictly ascending")
    if not all(0 <= t <= 1 for t in thresholds):
        raise ValueError("threshold grid must lie within [0, 1]")
    probs, labels = _checked_inputs(probs, labels)

    # Rows at or above a threshold, per class: everything past the first
    # sorted probability that reaches it.
    grid_arr = np.asarray(thresholds, dtype=float)
    pos = np.sort(probs[labels == 1])
    neg = np.sort(probs[labels == 0])
    tp = pos.size - np.searchsorted(pos, grid_arr, side="left")
    fp = neg.size - np.searchsorted(neg, grid_arr, side="left")
    rows = [ConfusionCounts(int(a), int(b), neg.size - int(b), pos.size - int(a))
            for a, b in zip(tp, fp)]
    f1 = [prf1(r)[2] for r in rows]
    return EvalReport(thresholds, rows, f1.index(max(f1)))


def split_validation(ds: DiscreteDataset, fraction: float = 0.05,
                     seed: int = 0) -> tuple[DiscreteDataset, DiscreteDataset]:
    """Carve a validation set of about ``fraction`` of the rows.

    Every positive row goes to validation and uniformly sampled negatives
    top the set up to ceil(fraction * n); the validation set is never
    smaller than the positive count. With no positives (which logs a
    warning) the split is a plain uniform sample. Row order is preserved
    on both sides.
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must lie in (0, 1)")
    n = ds.n_rows
    if n < 2:
        raise ValueError("need at least two rows to split")
    rng = np.random.default_rng(seed)
    quota = math.ceil(fraction * n)

    pos = np.flatnonzero(ds.labels == 1)
    if pos.size:
        neg = np.flatnonzero(ds.labels == 0)
        extra = min(max(quota - pos.size, 0), neg.size)
        sampled = neg[np.sort(rng.choice(neg.size, size=extra, replace=False))]
        val_idx = np.sort(np.concatenate([pos, sampled]))
    else:
        log.warning("no positive rows; falling back to a plain uniform split")
        val_idx = np.sort(rng.choice(n, size=min(quota, n), replace=False))

    mask = np.zeros(n, dtype=bool)
    mask[val_idx] = True
    train = replace(ds, rows=ds.rows[~mask], labels=ds.labels[~mask])
    val = replace(ds, rows=ds.rows[mask], labels=ds.labels[mask])
    return train, val


def write_report_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["threshold", "tp", "fp", "tn", "fn",
                         "precision", "recall", "f1"])
        for t, r in zip(report.thresholds, report.rows):
            writer.writerow([repr(float(t)), r.tp, r.fp, r.tn, r.fn,
                             *map(repr, prf1(r))])
