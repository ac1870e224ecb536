"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way and shares
no code with the package internals: path enumeration instead of reachability
for graphical independence, full-joint enumeration for inference, exact
rational arithmetic for metrics, textbook formulas for the test
statistic, tabulated one conditioning configuration at a time, and scipy's
incomplete gamma for the chi-square tail, and the scenario generator's
risk-offset bisection over every hourly score for a fixed 200 steps. The one
exception is the weather reader, which is built from the package's own
per-cell parsers, ``_parse_cell`` and ``parse_timestamp``, so that any
faster reader can be held to them bit for bit.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from itertools import product

import numpy as np


def g2_two_by_two(table) -> float:
    """Likelihood-ratio statistic of an r x c count table, straight from the formula."""
    rows = len(table)
    cols = len(table[0])
    n = sum(sum(r) for r in table)
    row_sums = [sum(r) for r in table]
    col_sums = [sum(table[i][j] for i in range(rows)) for j in range(cols)]
    stat = 0.0
    for i in range(rows):
        for j in range(cols):
            observed = table[i][j]
            if observed > 0:
                expected = row_sums[i] * col_sums[j] / n
                stat += 2.0 * observed * math.log(observed / expected)
    return stat


def chi2_upper_tail(statistic: float, dof: int) -> float:
    """Chi-square upper tail from scipy's regularized upper incomplete gamma."""
    from scipy.special import gammaincc

    return float(gammaincc(dof / 2.0, statistic / 2.0)) \
        if dof > 0 and statistic > 0 else 1.0


def chi2_critical_value(dof: int, alpha: float) -> float:
    """The statistic whose chi-square upper tail is ``alpha``, from scipy."""
    from scipy.special import chdtri

    return float(chdtri(dof, alpha))


def ci_per_configuration(rows, i, j, given, cards, method,
                         min_samples_per_dof, tail=chi2_upper_tail) -> tuple:
    """(statistic, dof, p-value) of the conditional test, one configuration at a time.

    Configurations are the distinct state tuples of the ``given`` columns in
    lexicographic order (first column most significant). Each one gets its
    own ``i`` x ``j`` table; its dof is (nonzero rows - 1) * (nonzero
    columns - 1), a table with dof 0 contributes nothing, and its terms are
    summed with ``np.sum`` before the per-configuration sums are added in
    order. Too few rows per dof (``n < min_samples_per_dof * dof``) report
    p = 1; otherwise p is ``tail(statistic, dof)``, scipy's by default.
    """
    i, j = min(i, j), max(i, j)
    given = list(given)
    statistic, dof = 0.0, 0
    for config in sorted({tuple(int(v) for v in r[given]) for r in rows}):
        sel = np.all(rows[:, given] == config, axis=1)
        table = np.zeros((cards[i], cards[j]))
        for a, b in zip(rows[sel, i], rows[sel, j]):
            table[a, b] += 1
        row_sums = table.sum(axis=1)
        col_sums = table.sum(axis=0)
        dof_c = max(int(np.count_nonzero(row_sums)) - 1, 0) * \
            max(int(np.count_nonzero(col_sums)) - 1, 0)
        if dof_c == 0:
            continue
        expected = np.outer(row_sums, col_sums) / table.sum()
        if method == "g2":
            seen = table > 0
            statistic += 2.0 * float(np.sum(
                table[seen] * np.log(table[seen] / expected[seen])))
        else:
            seen = expected > 0
            statistic += float(np.sum(
                (table[seen] - expected[seen]) ** 2 / expected[seen]))
        dof += dof_c
    p = 1.0 if len(rows) < min_samples_per_dof * dof else tail(statistic, dof)
    return statistic, dof, p


def dag_children(parents: dict) -> dict:
    children = {n: [] for n in parents}
    for node, pars in parents.items():
        for p in pars:
            children[p].append(node)
    return children


def descendants_inclusive(parents: dict, node) -> set:
    children = dag_children(parents)
    out = set()
    stack = [node]
    while stack:
        v = stack.pop()
        if v in out:
            continue
        out.add(v)
        stack.extend(children[v])
    return out


def all_undirected_paths(parents: dict, x, y):
    """Every simple path between x and y in the skeleton, as node sequences."""
    children = dag_children(parents)
    neighbors = {n: set(parents[n]) | set(children[n]) for n in parents}
    paths = []

    def walk(path):
        last = path[-1]
        if last == y:
            paths.append(list(path))
            return
        for nxt in sorted(neighbors[last]):
            if nxt not in path:
                path.append(nxt)
                walk(path)
                path.pop()

    walk([x])
    return paths


def path_blocked(parents: dict, path, given: set) -> bool:
    """Classic blocking rules applied to one skeleton path of a DAG."""
    for k in range(1, len(path) - 1):
        prev, mid, nxt = path[k - 1], path[k], path[k + 1]
        into_mid_left = mid in dag_children(parents)[prev]  # prev -> mid
        into_mid_right = mid in dag_children(parents)[nxt]  # nxt -> mid
        collider = into_mid_left and into_mid_right
        if collider:
            if not (descendants_inclusive(parents, mid) & given):
                return True
        else:
            if mid in given:
                return True
    return False


def brute_force_d_separated(parents: dict, x, y, given) -> bool:
    given = set(given)
    return all(path_blocked(parents, p, given)
               for p in all_undirected_paths(parents, x, y))


def unshielded_colliders(parents: dict) -> set:
    """Triples (x, z, y) with x -> z <- y, x and y non-adjacent, x/y unordered."""
    children = dag_children(parents)
    adjacent = {n: set(parents[n]) | set(children[n]) for n in parents}
    out = set()
    for z in parents:
        pars = sorted(parents[z])
        for i in range(len(pars)):
            for j in range(i + 1, len(pars)):
                x, y = pars[i], pars[j]
                if y not in adjacent[x]:
                    out.add((min(x, y), z, max(x, y)))
    return out


def skeleton_edges(parents: dict) -> set:
    return {(min(a, b), max(a, b))
            for b in parents for a in parents[b]}


def joint_table(nodes, parents: dict, cards: dict, cpt_entry) -> dict:
    """Full joint over all assignments; cpt_entry(node, parent_states, state) -> prob."""
    out = {}
    for combo in product(*(range(cards[n]) for n in nodes)):
        assign = dict(zip(nodes, combo))
        p = 1.0
        for n in nodes:
            p *= cpt_entry(n, tuple(assign[q] for q in parents[n]), assign[n])
        out[combo] = p
    return out


def brute_force_posterior(nodes, parents: dict, cards: dict, cpt_entry,
                          target, evidence: dict) -> list:
    """Bayes inversion on the explicitly enumerated joint distribution."""
    joint = joint_table(nodes, parents, cards, cpt_entry)
    idx = {n: k for k, n in enumerate(nodes)}

    def matches(combo, extra):
        merged = dict(evidence)
        merged.update(extra)
        return all(combo[idx[n]] == v for n, v in merged.items())

    posterior = []
    for t in range(cards[target]):
        posterior.append(sum(p for combo, p in joint.items()
                             if matches(combo, {target: t})))
    norm = sum(posterior)
    return [p / norm for p in posterior]


def fsum_posterior(nodes, parents: dict, cards: dict, cpt_entry,
                   target, evidence: dict) -> list:
    """Bayes inversion on the enumerated joint, each sum taken exactly by fsum.

    Every joint term is the product of table entries in ``nodes`` order
    starting from 1.0, so any exact enumerator that multiplies in the same
    order must agree to the last bit.
    """
    joint = joint_table(nodes, parents, cards, cpt_entry)
    idx = {n: k for k, n in enumerate(nodes)}
    totals = [math.fsum(p for combo, p in joint.items()
                        if combo[idx[target]] == t
                        and all(combo[idx[n]] == v for n, v in evidence.items()))
              for t in range(cards[target])]
    norm = math.fsum(totals)
    return [p / norm for p in totals]


def laplace_table(rows, parent_cols, node_col, parent_cards, card, alpha) -> list:
    """Dense smoothed table with one row per parent configuration, counted by hand.

    Configurations run in C order over ``parent_cards`` (first parent most
    significant); each cell is (count + alpha) / (total + alpha * card).
    """
    table = []
    for config in product(*(range(c) for c in parent_cards)):
        counts = [0] * card
        for r in rows:
            if all(r[c] == s for c, s in zip(parent_cols, config)):
                counts[r[node_col]] += 1
        total = float(sum(counts))
        table.append([(k + alpha) / (total + alpha * card) for k in counts])
    return table


def naive_bayes_posterior(rows, labels, cards, alpha, row) -> list:
    """Naive Bayes class posterior of one feature row, fitted on (rows, labels).

    The textbook arithmetic with no graph: the smoothed class prior times
    each column's smoothed class-conditional entry, in column order, then
    normalised. Every count is taken by hand.
    """
    n_class = [sum(1 for y in labels if y == k) for k in (0, 1)]
    scores = []
    for k in (0, 1):
        p = (n_class[k] + alpha) / (len(labels) + 2 * alpha)
        for j, card in enumerate(cards):
            hits = sum(1 for r, y in zip(rows, labels) if y == k and r[j] == row[j])
            p *= (hits + alpha) / (n_class[k] + alpha * card)
        scores.append(p)
    norm = scores[0] + scores[1]
    return [s / norm for s in scores]


def rational_prf1(tp: int, fp: int, fn: int) -> tuple:
    """Precision, recall, F1 as exact rationals with the zero conventions."""
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    if precision + recall:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1 = Fraction(0)
    return precision, recall, f1


def weather_per_cell(path, schema=None) -> tuple:
    """(timestamps, {column: values}) of a weather CSV, read one cell at a time.

    Every row goes through ``csv``, ``ingest.parse_timestamp`` and
    ``ingest._parse_cell``; rows are sorted by time with Python's stable sort.
    Timestamps come back as ``datetime64[us]`` and values as float64 with
    NaN for a missing cell. Malformed files raise the ``ParseError`` the
    package documents, with the same message, row and column.
    """
    from outagebn.ingest import ParseError, _parse_cell, parse_timestamp

    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    if not records:
        raise ParseError("empty weather file", path=path)
    header = [h.strip() for h in records[0]]
    if "timestamp" not in header:
        raise ParseError("missing required column", path=path, column="timestamp")
    columns = [c for c in header if c != "timestamp"] if schema is None else list(schema)
    for col in columns:
        if col not in header:
            raise ParseError("missing required column", path=path, column=col)
    rows = []
    for lineno, record in enumerate(records[1:], start=2):
        if not record:
            continue
        if len(record) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(record)}",
                             path=path, row=lineno)
        ts = parse_timestamp(record[header.index("timestamp")], path=path, row=lineno)
        rows.append((ts, lineno, record))
    if not rows:
        raise ParseError("weather file has no data rows", path=path)
    rows.sort(key=lambda r: r[0])
    for (prev, _, _), (ts, lineno, _) in zip(rows, rows[1:]):
        if ts == prev:
            text = ts.replace(tzinfo=None).isoformat()
            raise ParseError(f"duplicate timestamp {text}Z",
                             path=path, row=lineno, column="timestamp")
    stamps = np.array([np.datetime64(ts.replace(tzinfo=None), "us") for ts, _, _ in rows],
                      dtype="datetime64[us]")
    values = {}
    for col in columns:
        cells = [_parse_cell(record[header.index(col)]) for _, _, record in rows]
        values[col] = np.array([np.nan if v is None else v for v in cells],
                               dtype=np.float64)
    return stamps, values


def calibrate_offset_reference(scores, slope: float, rate: float) -> float:
    """Risk-curve offset whose mean risk over every score hits ``rate``.

    A fixed 200-step bisection on [-5, 40] that evaluates the numerically
    stable sigmoid on the full score array at every step; an unreachable
    rate raises the package's ``ScenarioError`` with its message.
    """
    from outagebn.synthgen import ScenarioError

    scores = np.asarray(scores, dtype=float)

    def sigmoid(z):
        out = np.empty_like(z, dtype=float)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def mean_risk(offset):
        return float(np.mean(sigmoid(slope * (scores - offset))))

    lo, hi = -5.0, 40.0
    if not (mean_risk(hi) <= rate <= mean_risk(lo)):
        raise ScenarioError(f"outage rate {rate} is unreachable for this scenario")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_risk(mid) >= rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def downsample_rows_reference(labels, ratio: float, seed: int) -> np.ndarray:
    """Positions ``downsample_majority`` keeps: every minority row, and the
    majority rows at the ranks ``rng.choice`` draws, found by indexing a
    list of every majority row's position."""
    labels = np.asarray(labels)
    minority = 1 if np.sum(labels == 1) <= np.sum(labels == 0) else 0
    minority_rows = [k for k, v in enumerate(labels) if v == minority]
    majority_rows = [k for k, v in enumerate(labels) if v != minority]
    want = min(len(majority_rows), math.ceil(ratio * len(minority_rows)))
    rng = np.random.default_rng(seed)
    ranks = sorted(rng.choice(len(majority_rows), size=want, replace=False).tolist())
    return np.array(sorted(minority_rows + [majority_rows[r] for r in ranks]),
                    dtype=np.int64)


def smote_rows_reference(rows, labels, cards, target: int, k: int,
                         seed: int) -> np.ndarray:
    """``smote_upsample``'s synthetic rows, one row at a time: neighbours by
    sorting every other minority row on (squared distance, position), then
    per row the draws ``integers(n_min)``, ``integers(k)``, ``random()``
    and ``clip(rint(a + u * (b - a)))``."""
    rows, labels = np.asarray(rows), np.asarray(labels)
    minority = 1 if np.sum(labels == 1) <= np.sum(labels == 0) else 0
    base = rows[labels == minority].astype(float)
    n_min = len(base)
    k_eff = min(k, n_min - 1)
    neighbors = [sorted((j for j in range(n_min) if j != i),
                        key=lambda j: (float(np.sum((base[i] - base[j]) ** 2)), j))[:k_eff]
                 for i in range(n_min)]
    upper = np.asarray(cards, dtype=np.int64) - 1
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(target - n_min):
        i = int(rng.integers(n_min))
        z = neighbors[i][int(rng.integers(k_eff))]
        u = rng.random()
        out.append(np.clip(np.rint(base[i] + u * (base[z] - base[i])).astype(np.int64),
                           0, upper))
    return np.array(out, dtype=np.int64).reshape(-1, rows.shape[1])
