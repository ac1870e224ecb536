"""Constraint-based causal structure discovery.

Starting from a complete undirected graph over the variables, edges are
pruned by conditional-independence tests with conditioning sets of growing
size drawn from current neighborhoods. Unshielded triples whose separating
set omits the middle node become colliders, orientations propagate until
fixpoint, and the remaining undirected edges are filled deterministically
into a DAG. Childless non-target nodes finally gain a directed edge into
the prediction target so that every factor can influence it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .citest import CiCallable

log = logging.getLogger(__name__)

PROV_V_STRUCTURE = "v-structure"
PROV_PROPAGATION = "propagation"
PROV_CANONICAL = "canonical-fill"
PROV_AUGMENTED = "target-augmented"


class GraphStateError(RuntimeError):
    """The partial graph violates an assumption of the current stage."""


@dataclass
class PartialGraph:
    """Mixed graph produced while orienting: undirected plus directed edges.

    Edge keys for ``undirected`` and ``sepsets`` are canonical pairs
    ordered by position in ``nodes``. ``provenance`` records, for each
    directed edge, which stage committed it.
    """

    nodes: list[str]
    undirected: set[tuple[str, str]] = field(default_factory=set)
    directed: set[tuple[str, str]] = field(default_factory=set)
    sepsets: dict[tuple[str, str], frozenset] = field(default_factory=dict)
    provenance: dict[tuple[str, str], str] = field(default_factory=dict)

    def order(self) -> dict[str, int]:
        return {n: k for k, n in enumerate(self.nodes)}

    def pair(self, a: str, b: str) -> tuple[str, str]:
        order = self.order()
        return (a, b) if order[a] < order[b] else (b, a)

    def has_link(self, a: str, b: str) -> bool:
        """True when any edge, directed either way or undirected, joins a and b."""
        return (self.pair(a, b) in self.undirected
                or (a, b) in self.directed or (b, a) in self.directed)

    def neighbors(self, x: str) -> set[str]:
        out = set()
        for a, b in self.undirected:
            if a == x:
                out.add(b)
            elif b == x:
                out.add(a)
        for a, b in self.directed:
            if a == x:
                out.add(b)
            elif b == x:
                out.add(a)
        return out

    def copy(self) -> "PartialGraph":
        return PartialGraph(list(self.nodes), set(self.undirected),
                            set(self.directed), dict(self.sepsets),
                            dict(self.provenance))


@dataclass
class LearnedDag:
    """Fully directed acyclic result of structure learning.

    ``parents`` maps every node to its parent list (ordered by node
    position); ``provenance`` tags each directed edge with the stage that
    committed it. ``target`` names the prediction node when one was used.
    """

    nodes: list[str]
    parents: dict[str, list[str]]
    provenance: dict[tuple[str, str], str] = field(default_factory=dict)
    target: str | None = None

    def edges(self) -> list[tuple[str, str]]:
        return [(p, child) for child in self.nodes for p in self.parents[child]]

    def children_map(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        for child in self.nodes:
            for p in self.parents[child]:
                out[p].append(child)
        return out

    def topological_order(self) -> list[str]:
        """Kahn's algorithm, breaking ties by node position; raises on cycles."""
        order = {n: k for k, n in enumerate(self.nodes)}
        indeg = {n: len(self.parents[n]) for n in self.nodes}
        children = self.children_map()
        ready = sorted((n for n in self.nodes if indeg[n] == 0), key=order.get)
        out = []
        while ready:
            node = ready.pop(0)
            out.append(node)
            changed = False
            for c in children[node]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
                    changed = True
            if changed:
                ready.sort(key=order.get)
        if len(out) != len(self.nodes):
            raise GraphStateError("directed graph contains a cycle")
        return out


def learn_skeleton(ci: CiCallable, nodes: Sequence[str]) -> PartialGraph:
    """Prune the complete graph over ``nodes`` to the dependence skeleton.

    ``ci(x, y, given)`` returns True when ``x`` and ``y`` are independent
    given the node set ``given``; :func:`outagebn.citest.dataset_ci` binds
    a dataset into one. At depth d, every surviving pair is tested against
    the d-subsets of each endpoint's other current neighbors, each distinct
    subset once; the first separating set found removes the edge and is
    recorded. Depths grow until no neighborhood can supply a subset of the
    required size.
    """
    node_list = list(nodes)
    if len(set(node_list)) != len(node_list):
        raise ValueError("node names must be unique")
    order = {n: k for k, n in enumerate(node_list)}
    adjacency: dict[str, set[str]] = {n: set(node_list) - {n} for n in node_list}
    sepsets: dict[tuple[str, str], frozenset] = {}

    def key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if order[a] < order[b] else (b, a)

    depth = 0
    while True:
        pairs = [(x, y) for i, x in enumerate(node_list)
                 for y in node_list[i + 1:] if y in adjacency[x]]
        if not any(len(adjacency[x]) - 1 >= depth or len(adjacency[y]) - 1 >= depth
                   for x, y in pairs):
            break
        for x, y in pairs:
            if y not in adjacency[x]:
                continue
            tested: set[frozenset] = set()
            removed = False
            for base, other in ((x, y), (y, x)):
                candidates = sorted(adjacency[base] - {other}, key=order.get)
                for subset in combinations(candidates, depth):
                    fs = frozenset(subset)
                    if fs in tested:
                        continue
                    tested.add(fs)
                    if ci(x, y, fs):
                        adjacency[x].discard(y)
                        adjacency[y].discard(x)
                        sepsets[key(x, y)] = fs
                        removed = True
                        break
                if removed:
                    break
        depth += 1

    undirected = {key(x, y) for i, x in enumerate(node_list)
                  for y in node_list[i + 1:] if y in adjacency[x]}
    return PartialGraph(nodes=node_list, undirected=undirected,
                        sepsets=sepsets)


def _commit_direction(g: PartialGraph, a: str, b: str, prov: str) -> bool:
    """Turn the a-b link into a -> b; a conflicting prior direction wins and
    a direction that would close a directed cycle is skipped, both logged."""
    if (a, b) in g.directed:
        return False
    if (b, a) in g.directed:
        log.warning("orientation conflict on %s-%s: keeping %s -> %s (%s), "
                    "dropping %s request", a, b, b, a,
                    g.provenance.get((b, a), "?"), prov)
        return False
    if _reaches(g, b, a):
        log.warning("skipping %s -> %s (%s): would close a directed cycle",
                    a, b, prov)
        return False
    pair = g.pair(a, b)
    if pair not in g.undirected:
        raise GraphStateError(f"no edge between {a!r} and {b!r} to orient")
    g.undirected.discard(pair)
    g.directed.add((a, b))
    g.provenance[(a, b)] = prov
    return True


def orient_v_structures(g: PartialGraph) -> PartialGraph:
    """Orient every unshielded triple x - z - y whose separating set omits z.

    Both edges point into z. The separating set for a removed pair must
    have been recorded during skeleton discovery; a missing entry means
    the graph did not come out of :func:`learn_skeleton` and is an error.
    Conflicting orientations keep the earlier direction, and orientations
    that would close a directed cycle are skipped; both are logged.
    """
    out = g.copy()
    order = out.order()
    for z in out.nodes:
        for x, y in combinations(sorted(out.neighbors(z), key=order.get), 2):
            if out.has_link(x, y):
                continue
            pair = out.pair(x, y)
            if pair not in out.sepsets:
                raise GraphStateError(
                    f"missing separating set for non-adjacent pair {pair!r}")
            if z not in out.sepsets[pair]:
                _commit_direction(out, x, z, PROV_V_STRUCTURE)
                _commit_direction(out, y, z, PROV_V_STRUCTURE)
    return out


def _reaches(g: PartialGraph, src: str, dst: str) -> bool:
    """True when a directed path src -> ... -> dst exists."""
    stack = [src]
    seen = set()
    while stack:
        node = stack.pop()
        if node == dst:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(b for a, b in g.directed if a == node)
    return False


def propagate_orientations(g: PartialGraph) -> PartialGraph:
    """Push implied directions onto undirected edges until nothing changes.

    Two sweeps alternate: an edge a - b becomes a -> b when a two-step
    directed path a -> m -> b already exists, and becomes directed away
    from b when some parent of a is non-adjacent to b (avoiding a fresh
    collider). Orientations that would close a directed cycle are skipped
    and logged. Scanning order is fixed by node positions, so the result
    is deterministic.
    """
    out = g.copy()
    order = out.order()

    def directed_two_step(a: str, b: str) -> bool:
        return any((a, m) in out.directed and (m, b) in out.directed
                   for m in out.nodes)

    def parent_nonadjacent(a: str, b: str) -> bool:
        # some m -> a with m and b non-adjacent forces a -> b
        return any((m, a) in out.directed and not out.has_link(m, b)
                   for m in out.nodes if m != b)

    changed = True
    while changed:
        changed = False
        for a, b in sorted(out.undirected, key=lambda e: (order[e[0]], order[e[1]])):
            if (a, b) not in out.undirected:
                continue
            if directed_two_step(a, b):
                changed |= _commit_direction(out, a, b, PROV_PROPAGATION)
            elif directed_two_step(b, a):
                changed |= _commit_direction(out, b, a, PROV_PROPAGATION)
            elif parent_nonadjacent(a, b):
                changed |= _commit_direction(out, a, b, PROV_PROPAGATION)
            elif parent_nonadjacent(b, a):
                changed |= _commit_direction(out, b, a, PROV_PROPAGATION)
    return out


def complete_to_dag(g: PartialGraph, target: str) -> LearnedDag:
    """Resolve all remaining edges into a DAG and wire stray nodes to the target.

    Undirected leftovers orient low-position to high-position node unless
    that closes a cycle, in which case the reverse direction is taken (both
    failing means the input already had a directed cycle). Afterwards every
    childless node not already linked to the target gains a directed edge
    into it, except when the target reaches that node, which would create
    a cycle; such skips are logged.
    """
    if target not in g.nodes:
        raise ValueError(f"target {target!r} is not a graph node")
    out = g.copy()
    order = out.order()

    for a, b in sorted(out.undirected, key=lambda e: (order[e[0]], order[e[1]])):
        if not _reaches(out, b, a):
            _commit_direction(out, a, b, PROV_CANONICAL)
        elif not _reaches(out, a, b):
            _commit_direction(out, b, a, PROV_CANONICAL)
        else:
            raise GraphStateError(
                f"cannot orient {a!r}-{b!r}: both directions close a cycle")

    has_child = {a for a, _ in out.directed}
    for node in out.nodes:
        if node == target or node in has_child or out.has_link(node, target):
            continue
        if _reaches(out, target, node):
            log.warning("not augmenting %s -> %s: target already reaches the node",
                        node, target)
            continue
        out.directed.add((node, target))
        out.provenance[(node, target)] = PROV_AUGMENTED

    parents: dict[str, list[str]] = {n: [] for n in out.nodes}
    for a, b in sorted(out.directed, key=lambda e: (order[e[0]], order[e[1]])):
        parents[b].append(a)
    dag = LearnedDag(nodes=list(out.nodes), parents=parents,
                     provenance=dict(out.provenance), target=target)
    dag.topological_order()  # acyclicity check
    return dag


def learn_structure(ci: CiCallable, nodes: Sequence[str], target: str) -> LearnedDag:
    """Full pipeline: skeleton, colliders, propagation, DAG completion."""
    skeleton = learn_skeleton(ci, nodes)
    oriented = propagate_orientations(orient_v_structures(skeleton))
    return complete_to_dag(oriented, target)


def to_dot(dag: LearnedDag, name: str = "learned") -> str:
    """Graphviz text form; edges added by target augmentation are dashed."""
    lines = [f"digraph {name} {{"]
    for node in dag.nodes:
        lines.append(f'  "{node}";')
    for a, b in dag.edges():
        style = " [style=dashed]" if dag.provenance.get((a, b)) == PROV_AUGMENTED \
            else ""
        lines.append(f'  "{a}" -> "{b}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"
