"""Discrete Bayesian network: CPT estimation, exact inference, model files.

The joint distribution factorizes into one conditional probability table
per node given its parents. Tables are estimated by maximum likelihood
with additive smoothing, so every entry stays strictly positive and
parent configurations never seen in training fall back to uniform rows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Mapping, Sequence

import numpy as np

from .pcalg import LearnedDag
from .preprocess import DiscreteDataset, code_space, config_codes

# Exact inference enumerates completions of the unobserved nodes; beyond
# this many weighted terms the query is refused instead of thrashing.
ENUMERATION_CAP = 10_000_000
# Completions scored per vectorized pass, which bounds a query's memory.
_BLOCK = 4096


@dataclass
class Cpt:
    """Conditional distribution of one node given its parents, stored sparse.

    A parent configuration is coded mixed-radix with the first parent most
    significant, i.e. code = (((s1) * c2 + s2) * c3 + s3)... ``configs`` are
    the sorted codes that have their own row in ``rows`` (one column per node
    state, rows sum to one); every other configuration has the ``default``
    row. A table that lists every configuration is complete and indexes
    ``rows`` by code directly.
    """

    node: str
    parents: list[str]
    parent_cards: list[int]
    card: int
    configs: np.ndarray
    rows: np.ndarray
    default: np.ndarray

    def __post_init__(self):
        n_configs = code_space(self.parent_cards, f"node {self.node!r}")
        codes = np.asarray(self.configs, dtype=np.int64)
        if np.any(np.diff(codes) <= 0) or np.any((codes < 0) | (codes >= n_configs)):
            raise ValueError(f"{self.node}: configs must be sorted unique codes below {n_configs}")
        # a sentinel above every code ends the search keys, so no search overruns
        self._keys = np.append(codes, np.iinfo(np.int64).max)
        # the default row sits last, so a missed configuration indexes it as -1
        self._lut = np.vstack([
            np.asarray(self.rows, dtype=float).reshape(len(codes), self.card),
            np.asarray(self.default, dtype=float).reshape(1, self.card)])
        self.configs, self.rows, self.default = self._keys[:-1], self._lut[:-1], self._lut[-1]
        self._complete = len(codes) == n_configs

    @classmethod
    def dense(cls, node: str, parents: Sequence[str], parent_cards: Sequence[int],
              card: int, table) -> "Cpt":
        """Complete table from one row per configuration, in code order.

        Its default row is never looked up; it is stored as the uniform row.
        """
        return cls(node, list(parents), list(parent_cards), card,
                   np.arange(math.prod(parent_cards), dtype=np.int64), table,
                   np.full(card, 1.0 / card))

    def lookup(self, codes, states=slice(None)):
        """Entries for configuration ``codes`` (an int or an int array) and node ``states``."""
        if self._complete:
            return self._lut[codes, states]
        pos = self._keys.searchsorted(codes)
        if isinstance(codes, np.ndarray):
            pos[self._keys[pos] != codes] = -1
        elif self._keys[pos] != codes:
            pos = -1
        return self._lut[pos, states]

    @property
    def table(self) -> np.ndarray:
        """Read-only dense copy, one row per configuration; for tests and oracles only."""
        dense = self.lookup(np.arange(math.prod(self.parent_cards)))
        dense.flags.writeable = False
        return dense

    def config_index(self, parent_states: Sequence[int]) -> int:
        if len(parent_states) != len(self.parents):
            raise ValueError(f"{self.node}: expected {len(self.parents)} parent states")
        for s, c in zip(parent_states, self.parent_cards):
            if not 0 <= s < c:
                raise ValueError(f"{self.node}: parent state {s} out of range")
        return config_codes(parent_states, self.parent_cards, 1) if self.parents else 0

    def row(self, parent_states: Sequence[int]) -> np.ndarray:
        return self.lookup(self.config_index(parent_states))


@dataclass
class BayesianNetwork:
    dag: LearnedDag
    cpts: dict[str, Cpt]
    cardinalities: dict[str, int]
    bin_edges: dict[str, list[float]] = field(default_factory=dict)

    @property
    def target(self) -> str | None:
        return self.dag.target


def fit_cpts(dag: LearnedDag, ds: DiscreteDataset,
             laplace_alpha: float = 1.0) -> BayesianNetwork:
    """Estimate every node's table from integer-coded data.

    Each cell gets (count + alpha) / (config_total + alpha * card). Only
    configurations seen in ``ds`` get a row; every other one shares the
    default row, the same expression on zero counts (a uniform row).
    ``alpha`` must be positive so that every probability stays above zero.
    """
    if laplace_alpha <= 0:
        raise ValueError("laplace_alpha must be positive")
    col_of = {name: k for k, name in enumerate(ds.columns)}
    for node in dag.nodes:
        if node not in col_of:
            raise ValueError(f"dataset has no column for node {node!r}")
    n = ds.n_rows
    if n == 0:
        raise ValueError("cannot fit on an empty dataset")
    rows = ds.rows.astype(np.int64, copy=False)

    cpts: dict[str, Cpt] = {}
    for node in dag.nodes:
        card = ds.cardinalities[col_of[node]]
        parents = list(dag.parents[node])
        parent_cards = [ds.cardinalities[col_of[p]] for p in parents]
        codes = config_codes([rows[:, col_of[p]] for p in parents], parent_cards, n)
        configs, config_of_row = np.unique(codes, return_inverse=True)
        # one count row per observed configuration, then a zero row whose
        # smoothed value is the default for every unobserved configuration
        counts = np.bincount(config_of_row * card + rows[:, col_of[node]],
                             minlength=(len(configs) + 1) * card).astype(float)
        counts = counts.reshape(len(configs) + 1, card)
        totals = counts.sum(axis=1, keepdims=True)
        table = (counts + laplace_alpha) / (totals + laplace_alpha * card)
        cpts[node] = Cpt(node, parents, parent_cards, card, configs, table[:-1], table[-1])

    cardinalities = {node: ds.cardinalities[col_of[node]] for node in dag.nodes}
    bin_edges = {node: [float(e) for e in ds.bin_edges[col_of[node]]]
                 for node in dag.nodes}
    return BayesianNetwork(dag, cpts, cardinalities, bin_edges)


def _check_assignment(bn: BayesianNetwork, assignment: Mapping[str, int],
                      *, complete: bool) -> None:
    for node, state in assignment.items():
        if node not in bn.cardinalities:
            raise ValueError(f"unknown node {node!r}")
        if not 0 <= int(state) < bn.cardinalities[node]:
            raise ValueError(f"state {state} out of range for node {node!r}")
    if complete and len(assignment) != len(bn.dag.nodes):
        missing = [n for n in bn.dag.nodes if n not in assignment]
        raise ValueError(f"assignment misses nodes {missing}")


def _joint(bn: BayesianNetwork, states: Mapping, n: int) -> np.ndarray:
    """Joint probabilities of ``n`` states; each node maps to n ints or one shared int."""
    p = np.ones(n)
    for node in bn.dag.nodes:
        cpt = bn.cpts[node]
        code = config_codes([states[q] for q in cpt.parents], cpt.parent_cards, n) \
            if cpt.parents else 0
        p *= cpt.lookup(code, states[node])
    return p


def joint_probability(bn: BayesianNetwork, assignment: Mapping[str, int]) -> float:
    """Probability of one complete state (node -> state) under the factorized model."""
    assignment = {k: int(v) for k, v in assignment.items()}
    _check_assignment(bn, assignment, complete=True)
    return float(_joint(bn, assignment, 1)[0])


def posterior_target(bn: BayesianNetwork, evidence: Mapping[str, int],
                     max_states: int = ENUMERATION_CAP) -> np.ndarray:
    """Exact conditional distribution of the target given observed nodes.

    When every parent of the target is observed and no node has the target
    as a parent, the answer is just the target's table row. Otherwise the
    unobserved nodes are summed out by full enumeration with compensated
    summation, refusing queries whose completion count exceeds
    ``max_states``.
    """
    target = bn.target
    if target is None:
        raise ValueError("network has no designated target node")
    evidence = {k: int(v) for k, v in evidence.items()}
    _check_assignment(bn, evidence, complete=False)
    if target in evidence:
        raise ValueError("target node cannot appear in the evidence")

    t_cpt = bn.cpts[target]
    target_is_parent = any(target in bn.cpts[n].parents for n in bn.dag.nodes)
    if not target_is_parent and all(p in evidence for p in t_cpt.parents):
        return t_cpt.row([evidence[p] for p in t_cpt.parents]).copy()

    unobserved = [target] + [n for n in bn.dag.nodes
                             if n != target and n not in evidence]
    dims = [bn.cardinalities[n] for n in unobserved]
    n_terms = math.prod(dims)
    if n_terms > max_states:
        raise ValueError(
            f"enumeration needs {n_terms} terms, above the cap of {max_states}")

    def blocks():
        # C order over ``dims``: each target state's terms form one run
        for lo in range(0, n_terms, _BLOCK):
            hi = min(lo + _BLOCK, n_terms)
            states = dict(evidence)
            states.update(zip(unobserved,
                              np.unravel_index(np.arange(lo, hi), dims)))
            yield _joint(bn, states, hi - lo).tolist()

    terms = chain.from_iterable(blocks())
    per_state = n_terms // dims[0]
    totals = [math.fsum(islice(terms, per_state)) for _ in range(dims[0])]
    norm = math.fsum(totals)
    if norm <= 0:
        raise ValueError("evidence has zero probability under the model")
    return np.array([t / norm for t in totals])


def predict_rows(bn: BayesianNetwork, rows: np.ndarray,
                 columns: Sequence[str]) -> np.ndarray:
    """Target posterior for many fully observed rows at once.

    Every non-target node must be present in ``columns``; the posterior
    then only involves the target's own table and the tables of its
    children, which this evaluates vectorized across rows.
    """
    target = bn.target
    if target is None:
        raise ValueError("network has no designated target node")
    col_of = {name: k for k, name in enumerate(columns)}
    for node in bn.dag.nodes:
        if node != target and node not in col_of:
            raise ValueError(f"missing column for node {node!r}")
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[0]
    states = {node: rows[:, col_of[node]] for node in bn.dag.nodes
              if node != target}

    t_cpt = bn.cpts[target]
    scores = t_cpt.lookup(config_codes([states[q] for q in t_cpt.parents],
                                       t_cpt.parent_cards, n))
    for node in bn.dag.nodes:
        cpt = bn.cpts[node]
        if node == target or target not in cpt.parents:
            continue
        for t in range(bn.cardinalities[target]):
            states[target] = t
            code = config_codes([states[q] for q in cpt.parents], cpt.parent_cards, n)
            scores[:, t] *= cpt.lookup(code, states[node])
    return scores / scores.sum(axis=1, keepdims=True)


# Exists only for the span list of the benchmark's traced run, which wraps
# this name; ROADMAP item 6 drops that span and this alias.
nb_predict_rows = predict_rows


MODEL_FORMAT = "outagebn-model"
MODEL_VERSION = 3


def _cpt_doc(bn: BayesianNetwork) -> dict:
    return {n: {"parents": c.parents,
                "configs": c.configs.tolist(),
                "rows": c.rows.tolist(),
                "default": c.default.tolist()}
            for n, c in bn.cpts.items()}


def save_model(bn: BayesianNetwork, path, baseline: BayesianNetwork | None = None) -> None:
    """Write the network (and optional baseline network) as deterministic JSON.

    The baseline shares the network's nodes, target, cardinalities and bin
    edges; the file stores only its tables. A node's parents are stored
    once, in its table's entry.
    """
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "target": bn.target,
        "nodes": bn.dag.nodes,
        "provenance": {f"{a}->{b}": tag
                       for (a, b), tag in sorted(bn.dag.provenance.items())},
        "cardinalities": bn.cardinalities,
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
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path) -> tuple[BayesianNetwork, BayesianNetwork | None]:
    """The network and, when the file holds one, its baseline network."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a recognized model file: {path}")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"model file {path} has version {doc.get('version')}, but this "
                         f"program reads version {MODEL_VERSION}; re-run `learn` to rebuild it")
    nodes = list(doc["nodes"])
    cardinalities = {n: int(doc["cardinalities"][n]) for n in nodes}
    bin_edges = {n: [float(v) for v in doc.get("bin_edges", {}).get(n, [])]
                 for n in nodes}

    def network(cpt_doc: dict, provenance: dict) -> BayesianNetwork:
        cpts = {}
        for n in nodes:
            entry = cpt_doc[n]
            parents = list(entry["parents"])
            cpts[n] = Cpt(n, parents, [cardinalities[p] for p in parents],
                          cardinalities[n], entry["configs"], entry["rows"], entry["default"])
        dag = LearnedDag(nodes=list(nodes), parents={n: list(cpts[n].parents) for n in nodes},
                         provenance=provenance, target=doc.get("target"))
        return BayesianNetwork(dag, cpts, cardinalities, bin_edges)

    provenance = {}
    for key, tag in doc.get("provenance", {}).items():
        a, b = key.split("->", 1)
        provenance[(a, b)] = tag
    bn = network(doc["cpts"], provenance)
    return bn, network(doc["baseline"], {}) if "baseline" in doc else None
