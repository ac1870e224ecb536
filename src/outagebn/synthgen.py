"""Synthetic ground-truth networks and weather/outage scenario generation.

Provides random DAGs with random positive tables for exercising inference,
plus an hourly weather scenario: smoothed noise factor series (some of
them correlated echoes of the true outage drivers), and an outage flag
drawn from a saturating risk curve over the true parents' bin indices,
calibrated to a requested marginal rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bayesnet import BayesianNetwork, Cpt, fit_cpts
from .ingest import HOUR, TIME_DTYPE, TimeSeriesTable
from .pcalg import LearnedDag
from .preprocess import (DiscreteDataset, attach_label_column, code_dtype, config_codes,
                         discretize)


class ScenarioError(ValueError):
    """The scenario parameters cannot produce the requested data."""


def random_dag(n: int, edge_prob: float, seed: int,
               names: list[str] | None = None) -> LearnedDag:
    """Uniform random node ordering, then each forward edge kept with edge_prob."""
    if n < 1:
        raise ValueError("need at least one node")
    if not 0 <= edge_prob <= 1:
        raise ValueError("edge_prob must lie in [0, 1]")
    if names is None:
        names = [f"X{k + 1}" for k in range(n)]
    if len(names) != n or len(set(names)) != n:
        raise ValueError("names must be n unique strings")
    rng = np.random.default_rng(seed)
    perm = [names[k] for k in rng.permutation(n)]
    parents: dict[str, list[str]] = {name: [] for name in names}
    order = {name: k for k, name in enumerate(names)}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                parents[perm[j]].append(perm[i])
    for name in names:
        parents[name].sort(key=order.get)
    return LearnedDag(nodes=list(names), parents=parents)


def random_network(n: int, edge_prob: float, seed: int, card: int = 2,
                   target: str | None = None) -> BayesianNetwork:
    """Random DAG plus strictly positive random rows in every table."""
    dag = random_dag(n, edge_prob, seed)
    if target is not None:
        if target not in dag.nodes:
            raise ValueError(f"target {target!r} is not a node")
        dag.target = target
    rng = np.random.default_rng([seed, 1])
    cpts = {}
    for node in dag.nodes:
        parents = dag.parents[node]
        parent_cards = [card] * len(parents)
        n_configs = card ** len(parents)
        raw = rng.random((n_configs, card)) + 0.05
        table = raw / raw.sum(axis=1, keepdims=True)
        cpts[node] = Cpt.dense(node, parents, parent_cards, card, table)
    cardinalities = {node: card for node in dag.nodes}
    edges = {node: [float(v) for v in np.arange(1, card) - 0.5]
             for node in dag.nodes}
    return BayesianNetwork(dag, cpts, cardinalities, edges)


def forward_sample(bn: BayesianNetwork, n_rows: int, seed: int) -> DiscreteDataset:
    """Ancestral sampling in topological order, vectorized across rows.

    When the network has a binary target, that node becomes the label
    column and the rest become data columns; otherwise every node is a
    data column and labels are all zero.
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    rng = np.random.default_rng(seed)
    states: dict[str, np.ndarray] = {}
    for node in bn.dag.topological_order():
        cpt = bn.cpts[node]
        code = config_codes([states[q] for q in cpt.parents],
                            cpt.parent_cards, n_rows)
        cum = np.cumsum(cpt.lookup(code), axis=1)
        draws = rng.random(n_rows)
        states[node] = (draws[:, None] > cum).sum(axis=1).astype(np.int64)

    target = bn.target
    as_label = target is not None and bn.cardinalities[target] == 2
    columns = [n for n in bn.dag.nodes if not (as_label and n == target)]
    cards = [bn.cardinalities[c] for c in columns]
    rows = np.empty((n_rows, len(columns)), dtype=code_dtype(cards))
    for k, c in enumerate(columns):
        rows[:, k] = states[c]
    labels = states[target].astype(code_dtype([2])) if as_label \
        else np.zeros(n_rows, dtype=code_dtype([2]))
    return DiscreteDataset(
        columns=columns,
        rows=rows,
        labels=labels,
        bin_edges=[np.arange(1, bn.cardinalities[c]) - 0.5 for c in columns],
    )


@dataclass
class ScenarioSpec:
    """Parameters of the synthetic weather/outage world.

    ``outage_parents`` names the factors that actually drive the outage;
    each gets, while spare factors remain, a correlated echo factor that
    carries no additional signal. ``risk_slope`` controls how sharply risk
    saturates along the combined parent score and ``risk_pooling`` is the
    power-mean exponent pooling the parents (negative values emphasize
    the weakest parent).
    """

    n_factors: int = 6
    hours: int = 100_000
    outage_parents: tuple[str, ...] = ("F1", "F2")
    outage_rate: float = 0.002
    seed: int = 0
    bins: int = 10
    target: str = "outage"
    echo_correlation: float = 0.75
    risk_slope: float = 30.0
    risk_pooling: float = -4.0
    smoothing_window: int = 5


def _power_mean(u: np.ndarray, exponent: float) -> np.ndarray:
    """Power mean along the last axis; zero inputs pin a negative-exponent mean to zero."""
    if u.shape[-1] == 0:
        return np.zeros(u.shape[:-1])
    if exponent < 0:
        out = np.zeros(u.shape[:-1])
        positive = (u > 0).all(axis=-1)
        if np.any(positive):
            vals = u[positive]
            out[positive] = np.mean(vals ** exponent, axis=-1) ** (1.0 / exponent)
        return out
    if exponent == 0:
        return np.exp(np.mean(np.log(np.maximum(u, 1e-300)), axis=-1))
    return np.mean(u ** exponent, axis=-1) ** (1.0 / exponent)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _calibrate_offset(scores: np.ndarray, slope: float, rate: float) -> float:
    """Bisect the risk-curve offset so the mean risk over scores hits rate.

    The scores pool a few parents' bin indices, so they take few distinct
    values (42 at 10 bins and two parents). Each step evaluates the
    sigmoid once per distinct score and gathers the results back to one
    per hour: the gathered array holds the same elements, in the same
    order and dtype, as the sigmoid over every score, so ``np.mean`` sums
    it in the same pairwise order and returns the same bits.

    The loop stops once the bracket can no longer shrink, when the
    midpoint rounds onto ``lo`` or ``hi`` (after about 60 steps).
    Bisecting on would change nothing: ``lo`` always has mean risk at
    least ``rate``, so a midpoint equal to ``lo`` keeps it; a midpoint
    equal to ``hi`` either keeps ``hi`` or, when the mean risk at ``hi``
    equals ``rate``, moves ``lo`` onto it. Either way the midpoint stays
    what it is, so any number of further steps would return it too.
    """
    values, inverse = np.unique(scores, return_inverse=True)

    def mean_risk(offset: float) -> float:
        return float(np.mean(_sigmoid(slope * (values - offset))[inverse]))

    lo, hi = -5.0, 40.0
    if not (mean_risk(hi) <= rate <= mean_risk(lo)):
        raise ScenarioError(f"outage rate {rate} is unreachable for this scenario")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # lo and hi are adjacent doubles
            return mid
        if mean_risk(mid) >= rate:
            lo = mid
        else:
            hi = mid


def weather_outage_scenario(spec: ScenarioSpec) -> tuple[TimeSeriesTable, BayesianNetwork]:
    """Generate the hourly table and the ground-truth network behind it.

    Factor series are moving-average-smoothed Gaussian noise with
    per-factor offsets and scales. Echo factors mix their parent's
    smoothed signal with fresh noise at ``echo_correlation``. The outage
    flag is Bernoulli with probability sigmoid(slope * (score - offset)),
    where the score pools the true parents' normalized bin indices and the
    offset is calibrated so the mean risk equals ``outage_rate`` exactly.
    The returned network carries the exact risk table for the target and
    near-unsmoothed empirical tables for the factors.
    """
    if spec.n_factors < 0:
        raise ScenarioError("n_factors must be nonnegative")
    if spec.hours < 1:
        raise ScenarioError("hours must be positive")
    if not 0 < spec.outage_rate < 0.5:
        raise ScenarioError("outage_rate must lie in (0, 0.5)")
    if spec.bins < 2:
        raise ScenarioError("need at least two bins")
    if not 0 <= spec.echo_correlation < 1:
        raise ScenarioError("echo_correlation must lie in [0, 1)")
    names = [f"F{k + 1}" for k in range(spec.n_factors)]
    for p in spec.outage_parents:
        if p not in names:
            raise ScenarioError(f"outage parent {p!r} is not a factor")
    if len(set(spec.outage_parents)) != len(spec.outage_parents):
        raise ScenarioError("outage parents must be unique")
    if spec.target in names:
        raise ScenarioError("target name collides with a factor")

    rng = np.random.default_rng(spec.seed)
    w = max(int(spec.smoothing_window), 1)
    kernel = np.full(w, 1.0 / w)
    smooth = {}
    for name in names:
        white = rng.standard_normal(spec.hours + w - 1)
        smooth[name] = np.convolve(white, kernel, mode="valid")

    echo_of: dict[str, str] = {}
    spare = [f for f in names if f not in spec.outage_parents]
    for parent, echo in zip(spec.outage_parents, spare):
        echo_of[echo] = parent

    rho = spec.echo_correlation
    factors: dict[str, np.ndarray] = {}
    for k, name in enumerate(names):
        base = smooth[name]
        if name in echo_of:
            base = rho * smooth[echo_of[name]] + np.sqrt(1 - rho ** 2) * base
        factors[name] = 10.0 * (k + 1) + (1.0 + 0.25 * k) * base

    start = np.datetime64("2000-01-01").astype(TIME_DTYPE)
    table = TimeSeriesTable(start + np.arange(spec.hours) * HOUR, factors)
    # the factors are coded once: the risk reads the parents' codes, the truth fits all
    coded = discretize(table, spec.bins) if names else DiscreteDataset(
        columns=[], rows=np.empty((spec.hours, 0), dtype=code_dtype([])),
        labels=table.label, bin_edges=[])
    parent_list = list(spec.outage_parents)
    u = coded.rows[:, [coded.column_index(p) for p in parent_list]] / (spec.bins - 1)
    scores = _power_mean(u, spec.risk_pooling)
    offset = _calibrate_offset(scores, spec.risk_slope, spec.outage_rate)
    risk = _sigmoid(spec.risk_slope * (scores - offset))
    table.label = (rng.random(spec.hours) < risk).astype(code_dtype([2]))

    parents_map: dict[str, list[str]] = {n: [] for n in [*names, spec.target]}
    for echo, parent in echo_of.items():
        parents_map[echo] = [parent]
    parents_map[spec.target] = parent_list
    dag = LearnedDag(nodes=[*names, spec.target], parents=parents_map,
                     target=spec.target)

    truth = fit_cpts(dag, attach_label_column(replace(coded, labels=table.label), spec.target),
                     laplace_alpha=1e-9)

    # Replace the fitted target table with the exact generating risk curve.
    parent_cards = [spec.bins] * len(parent_list)
    if parent_list:
        grid = np.stack(np.unravel_index(np.arange(math.prod(parent_cards)),
                                         parent_cards),
                        axis=-1).astype(float) / (spec.bins - 1)
    else:
        grid = np.empty((1, 0))
    cfg_risk = _sigmoid(spec.risk_slope * (_power_mean(grid, spec.risk_pooling)
                                           - offset))
    truth.cpts[spec.target] = Cpt.dense(spec.target, parent_list, parent_cards, 2,
                                        np.column_stack([1.0 - cfg_risk, cfg_risk]))
    return table, truth
