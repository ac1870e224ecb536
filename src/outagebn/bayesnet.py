"""Discrete Bayesian network: CPT estimation, exact inference, model files.

The joint distribution factorizes into one conditional probability table
per node given its parents. Tables are estimated by maximum likelihood
with additive smoothing, so every entry stays strictly positive and
parent configurations never seen in training fall back to uniform rows.
A table stores the configurations it saw; a small one is filled in as
dense rows, a large one is searched. Exact queries read a dense table as
a strided view, batch posteriors gather its rows by configuration code.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import sys
from dataclasses import dataclass, field
from itertools import chain, islice, product
from typing import Mapping, Sequence

import numpy as np

from .pcalg import GraphStateError, LearnedDag
from .preprocess import DiscreteDataset, check_states, code_space, config_codes, unique_codes

# Exact inference enumerates completions of the unobserved nodes; beyond
# this many weighted terms the query is refused instead of thrashing.
ENUMERATION_CAP = 10_000_000
# Completions scored per vectorized pass, which bounds a query's memory.
_BLOCK = 4096
# A sparse table of at most this many entries (configurations x states)
# is filled in as dense rows, 256 KB of floats at most, and read by code.
# The stock target's 10^6 configurations take more and keep searching.
_DENSE_LIMIT = 2**15
# The index that takes a whole axis of a table view.
_ALL = slice(None)


@dataclass
class Cpt:
    """Conditional distribution of one node given its parents, stored sparse.

    A parent configuration is coded mixed-radix with the first parent most
    significant, i.e. code = (((s1) * c2 + s2) * c3 + s3)... ``configs`` are
    the sorted codes that have their own row in ``rows`` (one column per node
    state, rows sum to one); every other configuration has the ``default``
    row. A table is one of two kinds. A dense table holds a row for every
    code: a complete table, or a sparse one of at most ``_DENSE_LIMIT``
    entries (configurations x states), whose missing rows are filled in
    from the default once, here; :func:`posterior_target` reads it as a
    view. A larger sparse table searches ``configs`` for a code's row.
    Either way a lookup reads entry ``row * card + state`` of the flat
    table, the default row sitting last (row -1).

    A fitted table (:meth:`fitted`) also keeps the integer ``counts`` its
    rows were smoothed from, one row per config, and its Laplace ``alpha``;
    a table given as probabilities has neither.
    """

    node: str
    parents: list[str]
    parent_cards: list[int]
    card: int
    configs: np.ndarray
    rows: np.ndarray
    default: np.ndarray
    counts: np.ndarray | None = None
    alpha: float | None = None

    def __post_init__(self):
        n_configs = code_space(self.parent_cards, f"node {self.node!r}")
        codes = np.array(self.configs, dtype=np.int64)
        if np.any(np.diff(codes) <= 0) or np.any((codes < 0) | (codes >= n_configs)):
            raise ValueError(f"{self.node}: configs must be sorted unique codes below {n_configs}")
        rows = np.asarray(self.rows, dtype=float).reshape(len(codes), self.card)
        dense = len(codes) == n_configs or n_configs * self.card <= _DENSE_LIMIT
        # a searched table's keys end in a sentinel above every code, so no search overruns
        self._keys = None if dense else np.append(codes, np.iinfo(np.int64).max)
        # one row per code of a dense table, per config of a searched one, then the default
        lut = np.empty(((n_configs if dense else len(codes)) + 1, self.card))
        lut[-1] = np.asarray(self.default, dtype=float).reshape(self.card)
        if len(lut) == len(codes) + 1:
            lut[:-1] = rows
            rows = lut[:-1]
        else:
            lut[:-1] = lut[-1]
            lut[codes] = rows
            rows = lut[codes]  # a copy, as the other kinds hold
        self.configs, self.rows, self.default = codes, rows, lut[-1]
        self._lut, self._flat = lut, lut.ravel()

    @classmethod
    def fitted(cls, node: str, parents: Sequence[str], parent_cards: Sequence[int],
               card: int, configs, counts, alpha: float) -> "Cpt":
        """Table smoothed by :func:`smoothed` from one count row per code in ``configs``."""
        counts = np.asarray(counts, dtype=np.int64).reshape(len(configs), card)
        alpha = float(alpha)
        table = smoothed(counts, alpha)
        return cls(node, list(parents), list(parent_cards), card, configs,
                   table[:-1], table[-1], counts, alpha)

    @classmethod
    def dense(cls, node: str, parents: Sequence[str], parent_cards: Sequence[int],
              card: int, table) -> "Cpt":
        """Complete table from one row per configuration, in code order.

        Its default row is never looked up; it is stored as the uniform row.
        """
        return cls(node, list(parents), list(parent_cards), card,
                   np.arange(math.prod(parent_cards), dtype=np.int64), table,
                   np.full(card, 1.0 / card))

    def _row_of(self, codes):
        """Each code's row of the flat table: the code itself in a dense table; in a searched
        one its position in ``configs``, or -1 (the default row) for a code not there."""
        if self._keys is None:
            return codes
        pos = self._keys.searchsorted(codes)
        if isinstance(codes, np.ndarray):
            pos[self._keys[pos] != codes] = -1
        elif self._keys[pos] != codes:
            pos = -1
        return pos

    def _entries(self, rows, states):
        """Entries ``row * card + state`` of the flat table, for ``rows`` from :meth:`_row_of`.

        ``states`` is one int or an array of the rows' shape. One int row is
        read as a row, so no index array is made; an array of rows takes the
        index in place, so the caller gives it up.
        """
        if not isinstance(rows, np.ndarray):
            return self._lut[rows][states]
        rows *= self.card
        rows += states
        return self._flat[rows]

    def lookup(self, codes):
        """Rows for configuration ``codes``, an int or an int array."""
        return self._lut[self._row_of(codes)]

    @property
    def table(self) -> np.ndarray:
        """Read-only dense copy, one row per configuration; for tests and oracles only."""
        dense = self.lookup(np.arange(math.prod(self.parent_cards)))
        dense.flags.writeable = False
        return dense

    def config_index(self, parent_states: Sequence[int]) -> int:
        if len(parent_states) != len(self.parents):
            raise ValueError(f"{self.node}: expected {len(self.parents)} parent states")
        # Python ints: a numpy uint8 state would code in uint8 and wrap
        states = [operator.index(s) for s in parent_states]
        for s, c in zip(states, self.parent_cards):
            if not 0 <= s < c:
                raise ValueError(f"{self.node}: parent state {s} out of range")
        return config_codes(states, self.parent_cards, 1) if self.parents else 0

    def row(self, parent_states: Sequence[int]) -> np.ndarray:
        return self.lookup(self.config_index(parent_states))


@dataclass
class BayesianNetwork:
    dag: LearnedDag
    cpts: dict[str, Cpt]
    cardinalities: dict[str, int]
    bin_edges: dict[str, list[float]] = field(default_factory=dict)
    # each dense table's view for exact queries (see _view), by node
    _views: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def target(self) -> str | None:
        return self.dag.target


def smoothed(counts, alpha: float) -> np.ndarray:
    """Each count row's (count + alpha) / (row_total + alpha * card), then the zero-count row's.

    The one smoothing expression: :func:`fit_cpts` and :func:`load_model`
    both derive a table's rows and its default (the last row, which is
    uniform) from its counts here, so a loaded table holds the fitted bits.
    """
    counts = np.asarray(counts, dtype=float)
    card = counts.shape[1]
    counts = np.vstack([counts, np.zeros((1, card))])
    totals = counts.sum(axis=1, keepdims=True)
    return (counts + alpha) / (totals + alpha * card)


def fit_cpts(dag: LearnedDag, ds: DiscreteDataset,
             laplace_alpha: float = 1.0) -> BayesianNetwork:
    """Estimate every node's table from integer-coded data of any integer dtype.

    Each cell gets (count + alpha) / (config_total + alpha * card) by
    :func:`smoothed`. Only configurations seen in ``ds`` get a row, numbered by
    ``preprocess.unique_codes``; every other one shares the default row, the
    same expression on zero counts (a uniform row). ``alpha`` must be positive so
    that every probability stays above zero, and finite so that every row is a distribution.
    """
    if not 0 < laplace_alpha < math.inf:
        raise ValueError("laplace_alpha must be positive and finite")
    col_of = {name: k for k, name in enumerate(ds.columns)}
    for node in dag.nodes:
        if node not in col_of:
            raise ValueError(f"dataset has no column for node {node!r}")
        check_states(ds.rows[:, col_of[node]], ds.cardinalities[col_of[node]], f"node {node!r}")
    n = ds.n_rows
    if n == 0:
        raise ValueError("cannot fit on an empty dataset")

    cpts: dict[str, Cpt] = {}
    for node in dag.nodes:
        card = ds.cardinalities[col_of[node]]
        parents = list(dag.parents[node])
        parent_cards = [ds.cardinalities[col_of[p]] for p in parents]
        space = code_space(parent_cards, f"node {node!r}")
        codes = config_codes([ds.rows[:, col_of[p]] for p in parents], parent_cards, n)
        configs, config_of_row = unique_codes(codes, space)
        # one count row per observed configuration
        counts = np.bincount(config_of_row * card + ds.rows[:, col_of[node]],
                             minlength=len(configs) * card)
        cpts[node] = Cpt.fitted(node, parents, parent_cards, card, configs, counts,
                                laplace_alpha)

    cardinalities = {node: ds.cardinalities[col_of[node]] for node in dag.nodes}
    bin_edges = {node: [float(e) for e in ds.bin_edges[col_of[node]]]
                 for node in dag.nodes}
    return BayesianNetwork(dag, cpts, cardinalities, bin_edges)


def _checked(bn: BayesianNetwork, assignment: Mapping[str, int],
             *, complete: bool) -> dict[str, int]:
    """The assignment with each state as an int; refuses unknown nodes and bad states."""
    checked = {}
    for node, state in assignment.items():
        if node not in bn.cardinalities:
            raise ValueError(f"unknown node {node!r}")
        try:
            state = operator.index(state)  # ints, numpy ints and bools; never 1.7
        except TypeError:
            raise ValueError(f"state {state!r} of node {node!r} is not an integer") from None
        if not 0 <= state < bn.cardinalities[node]:
            raise ValueError(f"state {state} out of range for node {node!r}")
        checked[node] = state
    if complete and len(checked) != len(bn.dag.nodes):
        missing = [n for n in bn.dag.nodes if n not in checked]
        raise ValueError(f"assignment misses nodes {missing}")
    return checked


def _tables_reading(bn: BayesianNetwork, unknown: set) -> list[str]:
    """The target, then in node order each other node whose table reads a node in ``unknown``.

    A table that reads only evidence is a factor of every term and cancels.
    """
    target = bn.target
    return [target] + [n for n in bn.dag.nodes if n != target and (
        n in unknown or not unknown.isdisjoint(bn.cpts[n].parents))]


def _joint(bn: BayesianNetwork, nodes: Sequence[str], states: Mapping, n: int,
           start: np.ndarray | None = None) -> np.ndarray:
    """Product of the ``nodes``' entries in order, as n floats; each state is n ints or one shared int.

    The product is taken in ``start``, in place, or starts from the first
    table's entries, not from ones: ``1.0 * x`` is ``x``, so every term
    keeps its bits. One table's codes are held at a time, and its entry
    index is made in them.
    """
    p = start
    for node in nodes:
        cpt = bn.cpts[node]
        code = config_codes([states[q] for q in cpt.parents], cpt.parent_cards, n) \
            if cpt.parents else 0
        entries = cpt._entries(cpt._row_of(code), states[node])
        if p is None:
            # a lookup by an int array is a new array; by ints alone, one float
            p = entries if isinstance(entries, np.ndarray) else np.full(n, entries)
        else:
            p *= entries
        del code, entries
    return np.ones(n) if p is None else p


def joint_probability(bn: BayesianNetwork, assignment: Mapping[str, int]) -> float:
    """Probability of one complete state (node -> state) under the factorized model."""
    assignment = _checked(bn, assignment, complete=True)
    return float(_joint(bn, bn.dag.nodes, assignment, 1)[0])


def _view(bn: BayesianNetwork, cpt: Cpt) -> tuple:
    """A dense table as an array with one axis per node it reads, in network order; those
    nodes as a set; and a getter of their indices from a node -> index map.

    Network order is the target, then the other nodes in ``dag.nodes``
    order: the order of :func:`posterior_target`'s grid. The array is a
    reshape and transpose of the table's rows, not a copy. It is made once
    per network and table object and kept on the network with the table and
    the target, so a table replaced in ``bn.cpts``, or a new target, gets a
    new one.
    """
    rank = {n: k for k, n in enumerate(bn.dag.nodes)}
    rank[bn.target] = -1
    scope = [*cpt.parents, cpt.node]
    axes = sorted(range(len(scope)), key=lambda k: rank[scope[k]])
    view = cpt._lut[:-1].reshape(*cpt.parent_cards, cpt.card).transpose(axes)
    # a getter of one key gives the index itself, as a 1-d view wants
    read = (view, frozenset(scope), operator.itemgetter(*(scope[k] for k in axes)))
    bn._views[cpt.node] = (cpt, bn.target, read)
    return read


def posterior_target(bn: BayesianNetwork, evidence: Mapping[str, int]) -> np.ndarray:
    """Exact conditional distribution of the target given observed nodes.

    The unobserved nodes are summed out by full enumeration with
    compensated summation; each term multiplies only the tables that read
    the target or an unobserved node. The terms form a grid over the
    unobserved nodes in network order (see :func:`_view`), scored a block
    at a time: the trailing nodes whose states number at most ``_BLOCK``
    (at least one node) are the block's axes, and the ones before them
    are enumerated as ints, like evidence. A dense table's factor is a
    basic-indexing slice of its view, an int per fixed node and the whole
    axis per block node, with a new axis for each block node it does not
    read. A searched table codes its rows over its block parents' states,
    each laid along its axis, and its node's states go to the node's axis.
    The factors multiply out of place, the target's first, then node order,
    so every term keeps its bits. A query whose completion count exceeds
    ``ENUMERATION_CAP`` is refused.
    """
    target = bn.target
    if target is None:
        raise ValueError("network has no designated target node")
    evidence = _checked(bn, evidence, complete=False)
    if target in evidence:
        raise ValueError("target node cannot appear in the evidence")

    unobserved = [target] + [n for n in bn.dag.nodes
                             if n != target and n not in evidence]
    dims = [bn.cardinalities[n] for n in unobserved]
    n_terms = math.prod(dims)
    if n_terms > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration needs {n_terms} terms, above the cap of {ENUMERATION_CAP}")
    lead, size = 0, n_terms
    while size > _BLOCK and lead < len(dims) - 1:
        size //= dims[lead]
        lead += 1
    axes = unobserved[lead:]
    at = evidence  # _checked's own copy, now each node's index into a view
    for q in axes:
        at[q] = _ALL
    coded = None  # as ``at``, with a searched table's block parents' states along their axes
    factors = []  # in table order: (view, nodes, getter) or (searched table, None, axis)
    cpts, views = bn.cpts, bn._views
    for node in _tables_reading(bn, set(unobserved)):
        cpt = cpts[node]
        if cpt._keys is None:
            hit = views.get(node)
            factors.append(hit[2] if hit is not None and hit[0] is cpt and hit[1] == target
                           else _view(bn, cpt))
            continue
        coded = coded or dict(at)
        for k, q in enumerate(axes):
            if q in cpt.parents and coded[q] is _ALL:
                coded[q] = _states(dims[lead + k], k, len(axes))
        factors.append((cpt, None, axes.index(node) if node in axes else None))

    terms = chain.from_iterable(_blocks(factors, at, coded, axes, unobserved[:lead],
                                        dims[:lead], bn.cardinalities))
    per_state = n_terms // dims[0]
    totals = [math.fsum(islice(terms, per_state)) for _ in range(dims[0])]
    norm = math.fsum(totals)
    if norm <= 0:
        raise ValueError("evidence has zero probability under the model")
    return np.array([t / norm for t in totals])


def _blocks(factors: list, at: dict, coded: dict | None, axes: list, lead_nodes: list,
            lead_dims: list, cards: Mapping[str, int]):
    """Each block's terms, as a list, in C order over the grid of ``lead_nodes`` then ``axes``.

    The lead nodes take their states as ints, block by block, in ``at``
    and ``coded``; then every factor of :func:`posterior_target`'s plan is
    read over ``axes`` and multiplied in, out of place. With the target
    first in the grid, each target state's terms form one run.
    """
    for states in product(*map(range, lead_dims)):
        if states:
            at.update(zip(lead_nodes, states))
            if coded:
                coded.update(zip(lead_nodes, states))
        p = None
        for source, scope, index in factors:
            if scope is None:  # a searched table, and its node's axis
                f = _searched_factor(source, coded, index, len(axes))
            else:  # a dense table's view, the nodes it reads, their index getter
                f = source[index(at)]
                # factors broadcast from the right: a new axis goes in for
                # each block node the table does not read, when one follows
                if f.ndim != len(axes) and not scope.issuperset(axes[-f.ndim:]):
                    f = f.reshape([cards[q] if q in scope else 1 for q in axes])
            p = f if p is None else p * f
        yield p.ravel().tolist()


@functools.lru_cache(maxsize=None)
def _states(card: int, k: int, n_axes: int) -> np.ndarray:
    """A node's states 0..card-1 laid along axis ``k`` of ``n_axes``, read-only.

    A constant of its three ints, so it is made once per process for each.
    """
    states = np.arange(card)
    states.flags.writeable = False
    return states[(None,) * k + (_ALL,) + (None,) * (n_axes - k - 1)]


def _searched_factor(cpt: Cpt, coded: dict, k: int | None, n_axes: int):
    """A searched table's factor over a block of ``n_axes`` axes.

    Its rows are coded from ``coded``: an int per fixed node, and a block
    node's states laid along its axis. With its node fixed, the node's
    entry of each row is read; otherwise the rows' axis ``k`` has size 1,
    and the node's states take its place.
    """
    code = config_codes([coded[q] for q in cpt.parents], cpt.parent_cards, 1) \
        if cpt.parents else 0
    rows = cpt._row_of(code)
    if k is None:
        return cpt._entries(rows, coded[cpt.node])
    if isinstance(rows, np.ndarray):
        return cpt._lut.take(rows, axis=0).swapaxes(k, -1)[..., 0]
    return cpt._lut[rows][(_ALL,) + (None,) * (n_axes - k - 1)]


def predict_rows(bn: BayesianNetwork, rows: np.ndarray,
                 columns: Sequence[str]) -> np.ndarray:
    """Target posterior for many fully observed rows at once.

    Every non-target node needs a column of in-range states, of any integer
    dtype; the matrix is read in place, never widened as a whole. As in
    :func:`posterior_target`, a float state is not an integer, even 1.0.
    Each target state's column multiplies the tables that read the target
    by :func:`_joint`, as in :func:`posterior_target`, vectorized across rows.
    """
    target = bn.target
    if target is None:
        raise ValueError("network has no designated target node")
    col_of = {name: k for k, name in enumerate(columns)}
    for node in bn.dag.nodes:
        if node != target and node not in col_of:
            raise ValueError(f"missing column for node {node!r}")
    rows = np.asarray(rows)
    if rows.dtype == np.bool_:
        rows = rows.view(np.uint8)  # True is state 1, as in posterior_target
    elif not rows.size:
        rows = rows.astype(np.int64)  # no state, so none to refuse
    n = rows.shape[0]
    states = {node: rows[:, col_of[node]] for node in bn.dag.nodes
              if node != target}
    for node, col in states.items():
        if col.dtype.kind not in "iu":
            raise ValueError(f"state {col[0].item()!r} of node {node!r} is not an integer")
        card = bn.cardinalities[node]
        # the initial 0 takes part in both reductions and keeps an empty column legal
        if not 0 <= int(col.min(initial=0)) <= int(col.max(initial=0)) < card:
            bad = col[(col < 0) | (col >= card)][0]
            raise ValueError(f"state {bad} out of range for node {node!r}")

    t_cpt = bn.cpts[target]
    scores = t_cpt.lookup(config_codes([states[q] for q in t_cpt.parents],
                                       t_cpt.parent_cards, n))
    others = _tables_reading(bn, {target})[1:]
    for t in range(bn.cardinalities[target]):
        states[target] = t
        _joint(bn, others, states, n, scores[:, t])
    scores /= scores.sum(axis=1, keepdims=True)
    return scores


# Exists only for the span list of the benchmark's traced run, which wraps
# this name; ROADMAP item 6 drops that span and this alias.
nb_predict_rows = predict_rows


MODEL_FORMAT = "outagebn-model"
MODEL_VERSION = 5


def _distinct(rows: np.ndarray) -> tuple[list, list]:
    """The bitwise-distinct ``rows`` once each, in order of first use, and each row's index."""
    # a void view compares rows by their bytes, so -0.0 and 0.0 stay apart
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct rows in order of first use
    rank = np.argsort(order)  # each distinct row's place in that order
    return rows[first[order]].tolist(), rank[inverse.ravel()].tolist()


def _cpt_doc(bn: BayesianNetwork) -> dict:
    """Each table's entry: its configs as gaps, then a fitted table's distinct count rows
    and alpha, or a given table's distinct probability rows and default."""
    doc = {}
    for n, c in bn.cpts.items():
        entry = {"parents": c.parents, "configs": np.diff(c.configs, prepend=0).tolist()}
        if c.counts is None:
            entry["rows"], entry["row_of"] = _distinct(c.rows)
            entry["default"] = c.default.tolist()
        else:
            entry["counts"], entry["row_of"] = _distinct(c.counts)
            entry["alpha"] = c.alpha
        doc[n] = entry
    return doc


def save_model(bn: BayesianNetwork, path, baseline: BayesianNetwork | None = None) -> None:
    """Write the network (and optional baseline network) as one line of deterministic JSON.

    The baseline shares the network's nodes, target, cardinalities and bin
    edges; the file stores only its tables. A node's parents are stored
    once, in its table's entry. The document is encoded before the file is
    opened, so a save that fails leaves an earlier file as it was.
    """
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "target": bn.target,
        "nodes": bn.dag.nodes,
        "provenance": {f"{a}->{b}": tag
                       for (a, b), tag in sorted(bn.dag.provenance.items())},
        "cardinalities": {n: int(c) for n, c in bn.cardinalities.items()},
        "bin_edges": bn.bin_edges,
        "cpts": _cpt_doc(bn),
    }
    if baseline is not None:
        shared = (bn.dag.nodes, bn.target, bn.cardinalities, bn.bin_edges)
        if (baseline.dag.nodes, baseline.target, baseline.cardinalities,
                baseline.bin_edges) != shared:
            raise ValueError("the baseline must share the network's nodes, target, "
                             "cardinalities and bin edges")
        doc["baseline"] = _cpt_doc(baseline)
    # without indent, dumps takes the C encoder; json.dump never does
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text + "\n")


# an entry's keys, by its kind: a fitted table's counts or a given table's rows
_CPT_KEYS = {"counts": ("parents", "configs", "counts", "row_of", "alpha"),
             "rows": ("parents", "configs", "rows", "row_of", "default")}


def _cpt(path, node: str, cardinalities: dict, entry) -> Cpt:
    """The table of ``entry``: its configs summed from their gaps and each config's row
    taken from the distinct rows through ``row_of``; count rows are smoothed on the way.

    Refuses, with a ``ValueError`` that names the file and the node, a
    missing entry, a missing key or one of the other kind, parents that
    are not the file's nodes, include the node or name a node twice, a
    ``configs`` or ``row_of`` that is not a list, a config gap or
    ``row_of`` value that is not an integer, gaps that repeat a code or
    leave the code space, a ``row_of`` that does not index one row per
    config, a count row that is not ``card`` integers of at least 0, an
    alpha that is not a positive finite number, and a probability row that
    is not ``card`` numbers in [0, 1].
    """
    where = f"model file {path}, node {node!r}"
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: the file holds no table for it")
    kind = "counts" if "counts" in entry else "rows"
    for key in _CPT_KEYS[kind]:
        if key not in entry:
            raise ValueError(f"{where}: its table has no {key!r}")
    extra = sorted(set(entry) - set(_CPT_KEYS[kind]))
    if extra:
        raise ValueError(f"{where}: its table of {kind} also holds {extra[0]!r}")
    parents, rows = entry["parents"], entry[kind]
    if not isinstance(parents, list) or not all(
            isinstance(q, str) and q in cardinalities for q in parents):
        raise ValueError(f"{where}: its parents are not a list of the file's nodes")
    if node in parents:
        raise ValueError(f"{where}: its parents include the node itself")
    if len(set(parents)) != len(parents):
        raise ValueError(f"{where}: its parents name a node twice")
    parent_cards = [cardinalities[q] for q in parents]
    n_configs = code_space(parent_cards, where)
    ints = {}
    for key in ("configs", "row_of"):
        if not isinstance(entry[key], list):
            raise ValueError(f"{where}: its {key} is not a list")
        value = np.asarray(entry[key]) if entry[key] else np.zeros(0, dtype=np.int64)
        if value.dtype.kind not in "iu" or value.ndim != 1:
            raise ValueError(f"{where}: {key} holds a value that is not an integer")
        ints[key] = value.astype(np.int64)  # a value of 2**63 or more wraps below zero
    configs = np.cumsum(ints["configs"])
    # compared, not subtracted: a sum that wraps past 2**63 comes out smaller
    if len(configs) and (configs[0] < 0 or configs[-1] >= n_configs
                         or np.any(configs[1:] <= configs[:-1])):
        raise ValueError(f"{where}: configs hold gaps that repeat a code or leave "
                         f"the codes 0..{n_configs - 1}")
    index = ints["row_of"]
    if len(index) != len(configs):
        raise ValueError(f"{where}: row_of has {len(index)} entries "
                         f"for {len(configs)} configs")
    card = cardinalities[node]
    if kind == "counts":
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and len(row) == card
                and all(type(v) is int and 0 <= v < 2**63 for v in row) for row in rows):
            raise ValueError(f"{where}: a count row is not a list of {card} integers "
                             "of at least 0")
        # an int too large for a float is no finite alpha either
        if type(entry["alpha"]) not in (int, float) \
                or not 0 < entry["alpha"] <= sys.float_info.max:
            raise ValueError(f"{where}: its alpha is not a positive finite number")
    else:
        for row in (*(rows if isinstance(rows, list) else [None]), entry["default"]):
            if not isinstance(row, list) or len(row) != card \
                    or not all(type(v) in (int, float) for v in row):
                raise ValueError(f"{where}: a row is not a list of {card} probabilities")
            if not all(0 <= v <= 1 for v in row):  # NaN fails both comparisons
                raise ValueError(f"{where}: a row holds a value that is not a "
                                 "probability in [0, 1]")
    if len(index) and not 0 <= index.min() <= index.max() < len(rows):
        raise ValueError(f"{where}: row_of holds an index outside 0..{len(rows) - 1}")
    table = np.asarray(rows, dtype=np.int64 if kind == "counts" else float)
    table = table.reshape(len(rows), card)[index]
    if kind == "counts":
        return Cpt.fitted(node, parents, parent_cards, card, configs, table, entry["alpha"])
    return Cpt(node, parents, parent_cards, card, configs, table, entry["default"])


def load_model(path) -> tuple[BayesianNetwork, BayesianNetwork | None]:
    """The network and, when the file holds one, its baseline network.

    Besides each table's defects (see :func:`_cpt`), refuses, with a
    ``ValueError`` that names the file, text that is not JSON, a document
    of another format or version, one without nodes, cardinalities or
    tables, nodes that are not distinct names, a target that is not a
    node, a node without a positive integer cardinality, bin edges that
    are not finite numbers, a non-empty edge list that is not the node's
    cardinality - 1 edges in ascending order, a provenance key that is not
    ``parent->child``, and parents that form a cycle.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"not a recognized model file: {path} ({err})") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a recognized model file: {path}")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"model file {path} has version {doc.get('version')}, but this "
                         f"program reads version {MODEL_VERSION}; re-run `learn`, or "
                         "`gen --out-truth` for a generating network, to rebuild it")
    for key in ("nodes", "cardinalities", "cpts"):
        if key not in doc:
            raise ValueError(f"model file {path} has no {key!r}")
    for key in ("cardinalities", "cpts", "bin_edges", "provenance", "baseline"):
        if not isinstance(doc.get(key, {}), dict):
            raise ValueError(f"model file {path}: its {key!r} is not a map")
    nodes, target = doc["nodes"], doc.get("target")
    if not isinstance(nodes, list) or not all(isinstance(n, str) for n in nodes):
        raise ValueError(f"model file {path}: its nodes are not a list of names")
    for k, n in enumerate(nodes):
        if n in nodes[:k]:
            raise ValueError(f"model file {path}: node {n!r} is listed twice")
    if target is not None and target not in nodes:
        raise ValueError(f"model file {path}: its target {target!r} is not one of its nodes")
    cardinalities, bin_edges = {}, {}
    for n in nodes:
        card = doc["cardinalities"].get(n)
        if type(card) is not int or card < 1:
            raise ValueError(f"model file {path}, node {n!r}: its cardinality is missing "
                             "or not a positive integer")
        cardinalities[n] = card
        edges = doc.get("bin_edges", {}).get(n, [])
        if not isinstance(edges, list) or not all(type(v) in (int, float) for v in edges):
            raise ValueError(f"model file {path}, node {n!r}: its bin edges are not numbers")
        # NaN fails the comparison; an int too large for a float is not finite either
        if not all(abs(v) <= sys.float_info.max for v in edges):
            raise ValueError(f"model file {path}, node {n!r}: its bin edges are not "
                             "finite numbers")
        # no edges at all is legal: a network saved for inference alone
        if edges and (len(edges) != card - 1 or any(b < a for a, b in zip(edges, edges[1:]))):
            raise ValueError(f"model file {path}, node {n!r}: its bin edges are not "
                             f"{card - 1} numbers in ascending order")
        bin_edges[n] = [float(v) for v in edges]

    def network(key: str, provenance: dict) -> BayesianNetwork:
        cpts = {n: _cpt(path, n, cardinalities, doc[key].get(n)) for n in nodes}
        dag = LearnedDag(nodes=list(nodes), parents={n: list(cpts[n].parents) for n in nodes},
                         provenance=provenance, target=target)
        try:
            dag.topological_order()
        except GraphStateError:
            raise ValueError(f"model file {path}: the parents in its {key!r} tables "
                             "form a cycle") from None
        return BayesianNetwork(dag, cpts, cardinalities, bin_edges)

    provenance = {}
    for edge, tag in doc.get("provenance", {}).items():
        if "->" not in edge:
            raise ValueError(f"model file {path}: provenance key {edge!r} is not "
                             "'parent->child'")
        a, b = edge.split("->", 1)
        provenance[(a, b)] = tag
    bn = network("cpts", provenance)
    return bn, network("baseline", {}) if "baseline" in doc else None
