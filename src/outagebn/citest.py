"""Conditional independence: likelihood-ratio tests on data, d-separation on graphs.

The data-driven test compares observed cell counts against the
independence-factorized expectation inside every configuration of the
conditioning variables, summing a likelihood-ratio statistic whose null
distribution is chi-square. It reads an integer matrix by column position
with declared cardinalities, and tabulates only the (configuration, x, y)
cells that carry a term, so a test costs time in proportion to its rows;
:func:`dataset_ci` maps a dataset's column names to positions and codes
each conditioning set once. The graph-side oracle answers the same
question structurally for a known DAG.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .pcalg import CiCallable
from .preprocess import (DiscreteDataset, check_states, code_dtype, code_space, config_codes,
                         unique_codes)

# Below this many samples per degree of freedom the asymptotic null is
# unreliable; the test then abstains by reporting independence.
MIN_SAMPLES_PER_DOF = 10.0

# chi2_upper_tail: a term or factor within _EPS of its limit ends a sum;
# _TINY stands in for a zero Lentz denominator; _MAX_TERMS bounds the loops,
# far above the ~500 terms that 81,000 degrees of freedom take.
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min / _EPS
_MAX_TERMS = 100_000
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass
class CITestResult:
    statistic: float
    dof: int
    p_value: float
    independent: bool


def chi2_upper_tail(statistic: float, dof: int) -> float:
    """P(X >= statistic) for a chi-square variable with ``dof`` degrees of freedom.

    Computed as the regularized upper incomplete gamma Q(a, x) at
    a = dof/2, x = statistic/2 (Numerical Recipes, 3rd ed., section 6.2):
    below x = a + 1 a power series gives P = 1 - Q; from there on a
    modified-Lentz continued fraction gives Q itself. Both scale by the
    gamma density x**a * exp(-x) / Gamma(a), taken in log space.
    Zero degrees of freedom means a degenerate table; that never rejects.
    """
    a, x = dof / 2.0, statistic / 2.0
    if dof <= 0 or x <= 0.0:  # a statistic of 5e-324 halves to x = 0
        return 1.0
    if x == math.inf:
        return 0.0
    density = math.exp(_log_gamma_density(a, x))
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, _MAX_TERMS):
            term *= x / (a + n)
            total += term
            if term <= total * _EPS:
                return 1.0 - total * density
    else:
        b = x + 1.0 - a
        c = 1.0 / _TINY
        d = 1.0 / b
        h = d
        for n in range(1, _MAX_TERMS):
            an = -n * (n - a)
            b += 2.0
            d = an * d + b
            if abs(d) < _TINY:
                d = _TINY
            c = b + an / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
            if abs(delta - 1.0) <= _EPS:
                return h * density
    raise ArithmeticError(f"chi-square tail at statistic={statistic!r}, "
                          f"dof={dof} did not converge")


def _log_gamma_density(a: float, x: float) -> float:
    """log(x**a * exp(-x) / Gamma(a)) for a, x > 0.

    Written out directly, a*log(x) and lgamma(a) are both about a*log(a)
    and cancel: at a = 40,000 that loses about 1e-10 of relative accuracy.
    Stirling's form of Gamma(a) cancels them analytically instead:
    -a*(t - log(1 + t)) + log(a / 2pi)/2 - s(a), with t = (x - a)/a and
    s(a) Stirling's remainder lgamma(a) - (a - 1/2)*log(a) + a - log(2pi)/2.
    """
    t = (x - a) / a
    bd = t - (math.log1p(t) if abs(t) < 0.5 else math.log(x) - math.log(a))
    if a >= 15.0:
        # the remainder's asymptotic series; the first dropped term is
        # below 3e-14 here
        r = 1.0 / (a * a)
        s = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r / 1680))) / a
    else:
        s = math.lgamma(a) - (a - 0.5) * math.log(a) + a - _HALF_LOG_2PI
    return -a * bd + 0.5 * math.log(a) - _HALF_LOG_2PI - s


def condition_configs(rows: np.ndarray, given: Sequence[int],
                      cardinalities: Sequence[int]) -> np.ndarray:
    """Each row's configuration of the ``given`` columns, as an index.

    The configurations that occur are numbered 0, 1, ... in ascending mixed-radix
    code order (first column most significant) by ``preprocess.unique_codes``; no
    columns is the single configuration 0. The index is in ``code_dtype`` of their
    number, 32 bits at most for any table that fits in memory, so the sets
    :func:`dataset_ci` keeps stay small. The columns' values are not range-checked.
    """
    cond = [int(c) for c in given]
    cards = [cardinalities[c] for c in cond]
    space = code_space(cards, f"conditioning columns {cond}")
    configs, index = unique_codes(config_codes([rows[:, c] for c in cond], cards,
                                               rows.shape[0]), space)
    # unsigned even with no rows, where code_dtype([0]) is int8
    return index.astype(code_dtype([max(len(configs), 1)]))


def g_test_ci(rows: np.ndarray, i: int, j: int, given: Sequence[int] = (),
              alpha: float = 0.05, *, cardinalities: Sequence[int],
              method: str = "g2",
              min_samples_per_dof: float = MIN_SAMPLES_PER_DOF,
              configs: np.ndarray | None = None) -> CITestResult:
    """Test column ``i`` independent of ``j`` given the ``given`` columns.

    ``rows`` is a matrix of any integer dtype whose column ``c`` takes
    values in ``range(cardinalities[c])``; ``i``, ``j`` and ``given`` are
    column positions, and a value out of range is refused. The statistic sums
    per-configuration likelihood-ratio terms 2 * sum(O * ln(O / E)) over
    observed cells (``method="pearson"`` swaps in sum((O - E)^2 / E) over
    the cells with E > 0); the p-value is the chi-square upper tail.
    When the sample is too sparse for the asymptotics
    (n < min_samples_per_dof * dof) the test abstains: it keeps the
    computed statistic and dof but reports p_value 1.0 and independence,
    which preserves the ``independent == (p_value > alpha)`` contract.

    ``configs``, if given, is ``condition_configs(rows, given,
    cardinalities)`` computed earlier, by a caller that has range-checked
    every column the test reads (:func:`dataset_ci` keeps one per
    conditioning set); the test then neither codes nor checks.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if method not in ("g2", "pearson"):
        raise ValueError(f"unknown test method {method!r}")
    if rows.ndim != 2:
        raise ValueError("data matrix must be 2-D")
    cond = [int(c) for c in given]
    if i == j:
        raise ValueError("i and j must be distinct columns")
    if i in cond or j in cond:
        raise ValueError("conditioning set must not contain i or j")
    if len(set(cond)) != len(cond):
        raise ValueError("conditioning set has repeated columns")
    n = rows.shape[0]
    if n == 0:
        raise ValueError("cannot test on an empty dataset")
    if configs is None:
        for c in (i, j, *cond):
            check_states(rows[:, c], cardinalities[c], f"column {c}")
        configs = condition_configs(rows, cond, cardinalities)
    elif configs.shape != (n,):
        raise ValueError(f"{configs.shape} configuration index for {n} rows")
    # Symmetric by construction: always tabulate the lower column index
    # against the higher one.
    i, j = min(i, j), max(i, j)
    ci, cj = cardinalities[i], cardinalities[j]

    # The observed (configuration, x, y) cells in ascending cell order, as
    # preprocess.unique_codes numbers them, and each one's count.
    config = configs.astype(np.int64)
    m = int(config.max()) + 1
    cells, cell_of_row = unique_codes((config * ci + rows[:, i]) * cj + rows[:, j],
                                      m * ci * cj)
    observed = np.bincount(cell_of_row).astype(float)
    # Each configuration's row (x) and column (y) sums and total, keyed
    # config * ci + x, config * cj + y and config; as floats they are the
    # exact counts.
    row = cells // cj
    col = row // ci * cj + cells % cj
    row_sums = np.bincount(row, observed, m * ci)
    col_sums = np.bincount(col, observed, m * cj)
    totals = np.bincount(row // ci, observed, m)
    # A configuration counts only the rows/columns that actually appear,
    # (nonzero_rows - 1) * (nonzero_cols - 1); one collapsing to a single
    # row or column factorizes trivially and contributes nothing.
    rows_seen = row_sums.nonzero()[0]
    cols_seen = col_sums.nonzero()[0]
    row_config = rows_seen // ci
    n_cols = np.bincount(cols_seen // cj, minlength=m)
    dofs = (np.bincount(row_config, minlength=m) - 1) * (n_cols - 1)

    # Only the cells that carry a term, in cell order: for g2 the observed
    # cells; for pearson every cell with E > 0, that is each seen row of a
    # configuration against that configuration's seen columns.
    if method == "pearson":
        reps = n_cols[row_config]
        first_col = np.cumsum(n_cols) - n_cols
        within = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        col = cols_seen[np.repeat(first_col[row_config], reps) + within]
        row = np.repeat(rows_seen, reps)
        seen = observed
        observed = np.zeros(row.size)
        observed[np.searchsorted(row * cj + col % cj, cells)] = seen
    config_of = row // ci
    expected = row_sums[row] * col_sums[col] / totals[config_of]
    if method == "g2":
        terms = observed * np.log(observed / expected)
    else:
        terms = (observed - expected) ** 2 / expected

    # Each configuration's terms add up as np.sum adds them, and the sums
    # add up in code order, as tabulating the configurations one at a time
    # would. One np.add.reduceat does every configuration; it starts a run
    # from its first element where np.sum starts from 0.0, so each run gets
    # a 0.0 in front.
    lead = np.searchsorted(config_of, np.arange(m)) + np.arange(m)
    padded = np.zeros(terms.size + m)
    padded[np.arange(terms.size) + config_of + 1] = terms
    parts = np.add.reduceat(padded, lead)[dofs > 0]
    if method == "g2":
        parts *= 2.0
    statistic = float(np.cumsum(np.concatenate(([0.0], parts)))[-1])
    dof = int(dofs.sum())

    # an abstaining test never needs the tail, which costs most at large dof
    p_value = 1.0 if n < min_samples_per_dof * dof \
        else chi2_upper_tail(statistic, dof)
    return CITestResult(statistic, dof, p_value, p_value > alpha)


def dataset_ci(data: DiscreteDataset, alpha: float = 0.05,
               **test_kwargs) -> CiCallable:
    """Bind a dataset into a name-based conditional-independence callable.

    The conditioning columns are tested in name order. Every column is
    range-checked here, once, and each conditioning set's configurations
    are coded once and kept until a set of another size is asked for:
    structure search visits sizes in increasing order.
    """
    rows, cards = data.rows, data.cardinalities
    for c, name in enumerate(data.columns):
        check_states(rows[:, c], cards[c], f"column {name!r}")
    coded: dict[tuple[int, ...], np.ndarray] = {}

    def ci(x: str, y: str, given: frozenset) -> bool:
        cond = tuple(data.column_index(g) for g in sorted(given))
        if coded and len(next(iter(coded))) != len(cond):
            coded.clear()
        configs = coded.get(cond)
        if configs is None:
            configs = coded[cond] = condition_configs(rows, cond, cards)
        return g_test_ci(rows, data.column_index(x), data.column_index(y), cond,
                         alpha, cardinalities=cards, configs=configs,
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

    children = dag.children_map()

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
