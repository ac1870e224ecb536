"""Conditional independence: likelihood-ratio tests on data, d-separation on graphs.

The data-driven test compares observed cell counts against the
independence-factorized expectation inside every configuration of the
conditioning variables, summing a likelihood-ratio statistic whose null
distribution is chi-square. The graph-side oracle answers the same
question structurally for a known DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .preprocess import DiscreteDataset, config_codes

# Below this many samples per degree of freedom the asymptotic null is
# unreliable; the test then abstains by reporting independence.
MIN_SAMPLES_PER_DOF = 10.0

CiCallable = Callable[[str, str, frozenset], bool]


@dataclass
class CITestResult:
    statistic: float
    dof: int
    p_value: float
    independent: bool


def chi2_upper_tail(statistic: float, dof: int) -> float:
    """P(X >= statistic) for a chi-square variable with ``dof`` degrees of freedom.

    Computed as the regularized upper incomplete gamma at (dof/2, stat/2).
    Zero degrees of freedom means a degenerate table; that never rejects.
    """
    if dof <= 0 or statistic <= 0:
        return 1.0
    # imported here so the commands that run no CI test never load scipy
    from scipy.special import gammaincc

    return float(gammaincc(dof / 2.0, statistic / 2.0))


def _table_terms(xi: np.ndarray, xj: np.ndarray, ci: int, cj: int,
                 method: str) -> tuple[float, int]:
    """Statistic and dof contribution of one conditioning configuration.

    Degrees of freedom count only rows/columns that actually appear:
    (nonzero_rows - 1) * (nonzero_cols - 1). A table collapsing to a single
    row or column factorizes trivially and contributes nothing.
    """
    table = np.bincount(xi * cj + xj, minlength=ci * cj).reshape(ci, cj).astype(float)
    n = table.sum()
    row_sums = table.sum(axis=1)
    col_sums = table.sum(axis=0)
    dof = max(int(np.count_nonzero(row_sums)) - 1, 0) * \
        max(int(np.count_nonzero(col_sums)) - 1, 0)
    if dof == 0:
        return 0.0, 0
    expected = np.outer(row_sums, col_sums) / n
    if method == "g2":
        mask = table > 0
        stat = 2.0 * float(np.sum(table[mask] * np.log(table[mask] / expected[mask])))
    elif method == "pearson":
        mask = expected > 0
        stat = float(np.sum((table[mask] - expected[mask]) ** 2 / expected[mask]))
    else:
        raise ValueError(f"unknown test method {method!r}")
    return stat, dof


def _resolve_columns(data, cardinalities, names: Iterable) -> tuple[np.ndarray, list[int], list[int]]:
    # Accept either the integer-coded dataset type or a plain matrix plus
    # explicit cardinalities; column references may be names or indices.
    if isinstance(data, DiscreteDataset):
        matrix = data.rows
        cards = list(data.cardinalities)
        idx = [c if isinstance(c, (int, np.integer)) else data.column_index(c)
               for c in names]
    else:
        matrix = np.asarray(data)
        if matrix.ndim != 2:
            raise ValueError("data matrix must be 2-D")
        if cardinalities is None:
            if matrix.shape[0] == 0:
                raise ValueError("cannot infer cardinalities from an empty matrix")
            cards = [int(matrix[:, c].max()) + 1 for c in range(matrix.shape[1])]
        else:
            cards = [int(c) for c in cardinalities]
        idx = []
        for c in names:
            if not isinstance(c, (int, np.integer)):
                raise ValueError("plain matrices require integer column indices")
            idx.append(int(c))
    return matrix, cards, idx


def g_test_ci(data, i, j, given=(), alpha: float = 0.05, *,
              cardinalities=None, method: str = "g2",
              min_samples_per_dof: float = MIN_SAMPLES_PER_DOF) -> CITestResult:
    """Test column ``i`` independent of ``j`` given the ``given`` columns.

    The statistic sums per-configuration likelihood-ratio terms
    2 * sum(O * ln(O / E)) over observed cells (``method="pearson"`` swaps
    in sum((O - E)^2 / E)); the p-value is the chi-square upper tail.
    When the sample is too sparse for the asymptotics
    (n < min_samples_per_dof * dof) the test abstains: it keeps the
    computed statistic and dof but reports p_value 1.0 and independence,
    which preserves the ``independent == (p_value > alpha)`` contract.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    matrix, cards, cols = _resolve_columns(data, cardinalities,
                                           [i, j, *tuple(given)])
    xi_col, xj_col, cond = cols[0], cols[1], cols[2:]
    if xi_col == xj_col:
        raise ValueError("i and j must be distinct columns")
    if xi_col in cond or xj_col in cond:
        raise ValueError("conditioning set must not contain i or j")
    if len(set(cond)) != len(cond):
        raise ValueError("conditioning set has repeated columns")
    n = matrix.shape[0]
    if n == 0:
        raise ValueError("cannot test on an empty dataset")
    # Symmetric by construction: always tabulate the lower column index
    # against the higher one.
    if xi_col > xj_col:
        xi_col, xj_col = xj_col, xi_col

    xi = matrix[:, xi_col].astype(np.int64)
    xj = matrix[:, xj_col].astype(np.int64)
    ci, cj = cards[xi_col], cards[xj_col]

    if cond:
        code = config_codes([matrix[:, c].astype(np.int64) for c in cond],
                            [cards[c] for c in cond], n)
        statistic = 0.0
        dof = 0
        for value in np.unique(code):
            mask = code == value
            stat_c, dof_c = _table_terms(xi[mask], xj[mask], ci, cj, method)
            statistic += stat_c
            dof += dof_c
    else:
        statistic, dof = _table_terms(xi, xj, ci, cj, method)

    p_value = chi2_upper_tail(statistic, dof)
    if n < min_samples_per_dof * dof:
        p_value = 1.0
    return CITestResult(statistic, dof, p_value, p_value > alpha)


def dataset_ci(data, alpha: float = 0.05, **test_kwargs) -> CiCallable:
    """Bind a dataset into a name-based conditional-independence callable."""
    def ci(x: str, y: str, given: frozenset) -> bool:
        return g_test_ci(data, x, y, tuple(sorted(given)), alpha,
                         **test_kwargs).independent
    return ci


def d_separated(dag, x: str, y: str, given=frozenset()) -> bool:
    """Graphical conditional independence of ``x`` and ``y`` given a node set.

    Walks the DAG collecting every node an active trail from ``x`` can
    reach, honoring collider openings through observed descendants; ``y``
    unreachable means separated.
    """
    given = frozenset(given)
    parents = dag.parents
    for node in (x, y, *given):
        if node not in parents:
            raise ValueError(f"unknown node {node!r}")
    if x == y:
        raise ValueError("x and y must differ")
    if x in given or y in given:
        raise ValueError("query nodes cannot be in the conditioning set")

    children: dict[str, list[str]] = {n: [] for n in parents}
    for node, pars in parents.items():
        for p in pars:
            children[p].append(node)

    # Ancestors of the conditioning set (inclusive) decide which colliders
    # pass the trail through.
    anc = set()
    stack = list(given)
    while stack:
        node = stack.pop()
        if node in anc:
            continue
        anc.add(node)
        stack.extend(parents[node])

    visited = set()
    stack2 = [(x, "up")]
    while stack2:
        node, direction = stack2.pop()
        if (node, direction) in visited:
            continue
        visited.add((node, direction))
        if node == y:
            return False
        if direction == "up" and node not in given:
            stack2.extend((p, "up") for p in parents[node])
            stack2.extend((c, "down") for c in children[node])
        elif direction == "down":
            if node not in given:
                stack2.extend((c, "down") for c in children[node])
            if node in anc:
                stack2.extend((p, "up") for p in parents[node])
    return True


def independence_oracle(dag) -> CiCallable:
    """Wrap a known DAG as the same callable shape as :func:`dataset_ci`."""
    def ci(x: str, y: str, given: frozenset) -> bool:
        return d_separated(dag, x, y, frozenset(given))
    return ci
