"""Structure discovery: skeleton, colliders, propagation, DAG completion."""

import numpy as np
import pytest

import oracles
from outagebn import synthgen
from outagebn.citest import dataset_ci, independence_oracle
from outagebn.pcalg import (GraphStateError, LearnedDag, PartialGraph,
                            complete_to_dag, learn_skeleton, learn_structure,
                            orient_v_structures, propagate_orientations,
                            to_dot)


def oracle_for(parents: dict, nodes=None):
    dag = LearnedDag(nodes=nodes or sorted(parents), parents=parents)
    return independence_oracle(dag), dag


def learned_colliders(g: PartialGraph) -> set:
    out = set()
    for z in g.nodes:
        incoming = [a for (a, b) in g.directed if b == z]
        for i in range(len(incoming)):
            for j in range(i + 1, len(incoming)):
                x, y = incoming[i], incoming[j]
                if not g.has_link(x, y):
                    out.add((min(x, y), z, max(x, y)))
    return out


class TestSkeleton:
    def test_disconnected_empty_after_depth_zero(self):
        ci, _ = oracle_for({"a": [], "b": [], "c": [], "d": []})
        calls = []

        def counting(x, y, given):
            calls.append((x, y, given))
            return ci(x, y, given)

        g = learn_skeleton(counting, nodes=["a", "b", "c", "d"])
        assert g.undirected == set()
        # six pairs, each tested once with the empty set, nothing deeper
        assert len(calls) == 6
        assert all(s == frozenset() for _, _, s in calls)

    def test_depth_zero_test_count_is_all_pairs(self):
        rng = np.random.default_rng(31)
        for trial in range(10):
            n = int(rng.integers(3, 7))
            dag = synthgen.random_dag(n, 0.5, seed=trial + 100)
            ci = independence_oracle(dag)
            depth_zero = []

            def counting(x, y, given):
                if len(given) == 0:
                    depth_zero.append((x, y))
                return ci(x, y, given)

            learn_skeleton(counting, nodes=dag.nodes)
            assert len(depth_zero) == n * (n - 1) // 2

    def test_chain_skeleton(self):
        ci, _ = oracle_for({"a": [], "b": ["a"], "c": ["b"]},
                           nodes=["a", "b", "c"])
        g = learn_skeleton(ci, nodes=["a", "b", "c"])
        assert g.undirected == {("a", "b"), ("b", "c")}
        assert g.sepsets[("a", "c")] == frozenset({"b"})

    def test_oracle_recovery_random_dags(self):
        rng = np.random.default_rng(77)
        for trial in range(60):
            n = int(rng.integers(3, 7))
            dag = synthgen.random_dag(n, float(rng.uniform(0.2, 0.7)),
                                      seed=trial)
            g = learn_skeleton(independence_oracle(dag), nodes=dag.nodes)
            want = oracles.skeleton_edges(dag.parents)
            got = {tuple(sorted(e)) for e in g.undirected}
            assert got == want, (dag.parents,)

    def test_dataset_source(self):
        rng = np.random.default_rng(8)
        n = 4000
        a = rng.integers(0, 2, size=n)
        b = np.where(rng.random(n) < 0.85, a, 1 - a)
        c = rng.integers(0, 2, size=n)
        from outagebn.preprocess import DiscreteDataset
        ds = DiscreteDataset(columns=["a", "b", "c"],
                             rows=np.column_stack([a, b, c]),
                             labels=np.zeros(n, dtype=np.int64),
                             bin_edges=[np.array([0.5])] * 3)
        g = learn_skeleton(dataset_ci(ds, 0.01), ds.columns)
        assert ("a", "b") in g.undirected
        assert ("a", "c") not in g.undirected

    def test_sepset_keys_are_node_order_pairs(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            dag = synthgen.random_dag(int(rng.integers(4, 7)),
                                      float(rng.uniform(0.2, 0.6)), seed=trial + 900)
            nodes = [dag.nodes[k] for k in rng.permutation(len(dag.nodes))]
            g = learn_skeleton(independence_oracle(dag), nodes=nodes)
            pos = {n: k for k, n in enumerate(nodes)}
            assert g.nodes == nodes
            assert all(pos[a] < pos[b] for a, b in [*g.sepsets, *g.undirected])
            assert len(g.sepsets) + len(g.undirected) == len(nodes) * (len(nodes) - 1) // 2

    def test_unique_nodes_required(self):
        with pytest.raises(ValueError):
            learn_skeleton(lambda x, y, s: True, nodes=["a", "a"])


class TestPartialGraph:
    def test_neighbors_span_both_edge_kinds(self):
        g = PartialGraph(nodes=["a", "b", "c", "d", "e"],
                         undirected={("a", "b"), ("b", "c")},
                         directed={("d", "b"), ("b", "e"), ("d", "e")})
        assert g.neighbors("b") == {"a", "c", "d", "e"}
        assert g.neighbors("d") == {"b", "e"}
        assert g.neighbors("a") == {"b"}

    def test_in_order_sorts_by_node_position(self):
        g = PartialGraph(nodes=["c", "a", "b"])
        assert g.in_order({("a", "b"), ("c", "b"), ("c", "a"), ("b", "c")}) == \
            [("c", "a"), ("c", "b"), ("a", "b"), ("b", "c")]


class TestVStructures:
    def test_collider_oriented(self):
        ci, dag = oracle_for({"a": [], "b": [], "c": ["a", "b"]},
                             nodes=["a", "b", "c"])
        g = orient_v_structures(learn_skeleton(ci, nodes=dag.nodes))
        assert ("a", "c") in g.directed
        assert ("b", "c") in g.directed
        assert g.provenance[("a", "c")] == "v-structure"

    def test_chain_not_oriented(self):
        ci, dag = oracle_for({"a": [], "b": ["a"], "c": ["b"]},
                             nodes=["a", "b", "c"])
        g = orient_v_structures(learn_skeleton(ci, nodes=dag.nodes))
        assert g.directed == set()

    def test_oracle_v_structures_match_truth(self):
        rng = np.random.default_rng(55)
        for trial in range(60):
            n = int(rng.integers(3, 7))
            dag = synthgen.random_dag(n, float(rng.uniform(0.2, 0.7)),
                                      seed=trial + 500)
            g = orient_v_structures(
                learn_skeleton(independence_oracle(dag), nodes=dag.nodes))
            assert learned_colliders(g) == oracles.unshielded_colliders(dag.parents)

    def test_missing_sepset_is_internal_error(self):
        g = PartialGraph(nodes=["a", "b", "c"],
                         undirected={("a", "b"), ("b", "c")})
        with pytest.raises(GraphStateError):
            orient_v_structures(g)

    def test_conflict_keeps_first_and_logs(self, caplog):
        # two triples demand opposite directions on the shared edge b-c
        g = PartialGraph(
            nodes=["a", "b", "c", "d"],
            undirected={("a", "b"), ("b", "c"), ("c", "d")},
            sepsets={("a", "c"): frozenset(), ("b", "d"): frozenset(),
                     ("a", "d"): frozenset()},
        )
        with caplog.at_level("WARNING", logger="outagebn.pcalg"):
            out = orient_v_structures(g)
        assert ("b", "c") in out.directed or ("c", "b") in out.directed
        assert not (("b", "c") in out.directed and ("c", "b") in out.directed)
        assert any("conflict" in r.message for r in caplog.records)

    def test_collider_closing_cycle_skipped_and_logged(self, caplog):
        # triangle a-b-c whose corners each get a collider from an outside
        # parent: p3 -> a <- c, p1 -> b <- a, p2 -> c <- b. The last one
        # would close c -> a -> b -> c.
        g = PartialGraph(
            nodes=["a", "b", "c", "p1", "p2", "p3"],
            undirected={("a", "b"), ("b", "c"), ("a", "c"),
                        ("a", "p3"), ("b", "p1"), ("c", "p2")},
            sepsets={("c", "p3"): frozenset(), ("a", "p1"): frozenset(),
                     ("b", "p2"): frozenset(),
                     ("b", "p3"): frozenset({"a"}),
                     ("c", "p1"): frozenset({"b"}),
                     ("a", "p2"): frozenset({"c"}),
                     ("p1", "p2"): frozenset(), ("p1", "p3"): frozenset(),
                     ("p2", "p3"): frozenset()},
        )
        with caplog.at_level("WARNING", logger="outagebn.pcalg"):
            dag = complete_to_dag(
                propagate_orientations(orient_v_structures(g)), target="b")
        dag.topological_order()
        assert ("b", "c") not in dag.provenance
        assert any("would close a directed cycle" in r.message
                   for r in caplog.records)


class TestPropagation:
    def test_two_step_rule(self):
        # a -> b -> c with a - c still undirected: must become a -> c
        g = PartialGraph(nodes=["a", "b", "c"],
                         undirected={("a", "c")},
                         directed={("a", "b"), ("b", "c")})
        out = propagate_orientations(g)
        assert ("a", "c") in out.directed
        assert out.provenance[("a", "c")] == "propagation"

    def test_unshielded_parent_rule(self):
        # a -> b, b - c, a and c non-adjacent: b -> c avoids a fresh collider
        g = PartialGraph(nodes=["a", "b", "c"],
                         undirected={("b", "c")},
                         directed={("a", "b")})
        out = propagate_orientations(g)
        assert ("b", "c") in out.directed

    def test_unshielded_parent_rule_points_to_the_earlier_node(self):
        # m -> b, a - b, m and a non-adjacent: b -> a, against node order
        g = PartialGraph(nodes=["a", "b", "m"],
                         undirected={("a", "b")},
                         directed={("m", "b")})
        out = propagate_orientations(g)
        assert out.directed == {("m", "b"), ("b", "a")}
        assert out.undirected == set()
        assert out.provenance[("b", "a")] == "propagation"

    def test_no_rule_applies(self):
        g = PartialGraph(nodes=["a", "b", "c"],
                         undirected={("a", "b"), ("b", "c"), ("a", "c")})
        out = propagate_orientations(g)
        assert out.directed == set()
        assert out.undirected == g.undirected

    def test_cycle_guard(self, caplog):
        # chain c -> a plus a -> m -> b wants a -> b, but b -> ... -> a exists
        g = PartialGraph(nodes=["a", "m", "b"],
                         undirected={("a", "b")},
                         directed={("a", "m"), ("m", "b")})
        out = propagate_orientations(g)
        assert ("a", "b") in out.directed  # no cycle here; sanity
        g2 = PartialGraph(nodes=["a", "m", "b"],
                          undirected={("a", "b")},
                          directed={("a", "m"), ("m", "b"), ("b", "a")})
        with caplog.at_level("WARNING", logger="outagebn.pcalg"):
            out2 = propagate_orientations(g2)
        assert ("a", "b") not in out2.directed


class TestCompletion:
    def test_canonical_fill_uses_node_order(self):
        g = PartialGraph(nodes=["b", "a"], undirected={("b", "a")})
        dag = complete_to_dag(g, target="a")
        assert dag.parents["a"] == ["b"]
        assert dag.provenance[("b", "a")] == "canonical-fill"

    def test_fill_reverses_to_avoid_cycle(self):
        # y -> z directed; undirected x - y and z - x; filling x -> y first
        # then z - x must flip to x -> z? no: z -> x would close z->x->y->z
        g = PartialGraph(nodes=["x", "y", "z"],
                         undirected={("x", "y"), ("x", "z")},
                         directed={("y", "z")})
        dag = complete_to_dag(g, target="z")
        order = {n: k for k, n in
                 enumerate(dag.topological_order())}
        for a, b in dag.edges():
            assert order[a] < order[b]

    def test_childless_nodes_wired_to_target(self):
        g = PartialGraph(nodes=["a", "b", "t"], undirected=set(),
                         directed={("a", "b")})
        dag = complete_to_dag(g, target="t")
        assert dag.parents["t"] == ["b"]
        assert dag.provenance[("b", "t")] == "target-augmented"
        # a has a child already; no augmentation for it
        assert ("a", "t") not in dag.provenance

    def test_node_touching_target_not_augmented(self):
        g = PartialGraph(nodes=["a", "t"], undirected=set(),
                         directed={("t", "a")})
        dag = complete_to_dag(g, target="t")
        # a is childless but target already reaches it: no a -> t edge
        assert ("a", "t") not in dag.provenance
        dag.topological_order()

    def test_output_always_acyclic_random(self):
        rng = np.random.default_rng(13)
        for trial in range(150):
            n = int(rng.integers(2, 7))
            nodes = [f"n{k}" for k in range(n)]
            true = synthgen.random_dag(n, float(rng.uniform(0.2, 0.9)),
                                       seed=trial + 900, names=nodes)
            directed = set()
            undirected = set()
            for a, b in [(p, c) for c in nodes for p in true.parents[c]]:
                if rng.random() < 0.5:
                    directed.add((a, b) if rng.random() < 0.8 else (b, a))
                else:
                    i, j = sorted((nodes.index(a), nodes.index(b)))
                    undirected.add((nodes[i], nodes[j]))
            g = PartialGraph(nodes=nodes, undirected=undirected,
                             directed=directed)
            target = nodes[int(rng.integers(n))]
            try:
                dag = complete_to_dag(g, target)
            except GraphStateError:
                continue  # randomly flipped edges may already hold a cycle
            dag.topological_order()

    def test_unknown_target(self):
        g = PartialGraph(nodes=["a"], undirected=set())
        with pytest.raises(ValueError):
            complete_to_dag(g, "zzz")


class TestFullRun:
    def test_collider_end_to_end(self):
        parents = {"a": [], "b": [], "e": ["a", "b"]}
        ci, dag = oracle_for(parents, nodes=["a", "b", "e"])
        learned = learn_structure(ci, target="e", nodes=["a", "b", "e"])
        assert learned.parents == {"a": [], "b": [], "e": ["a", "b"]}
        assert learned.target == "e"

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        n = 1500
        a = rng.integers(0, 3, size=n)
        b = (a + rng.integers(0, 2, size=n)) % 3
        c = rng.integers(0, 3, size=n)
        t = ((a == 2) & (c == 0)).astype(int)
        from outagebn.preprocess import DiscreteDataset
        ds = DiscreteDataset(columns=["a", "b", "c", "t"],
                             rows=np.column_stack([a, b, c, t]),
                             labels=t.astype(np.int64),
                             bin_edges=[np.array([0.5, 1.5])] * 3 + [np.array([0.5])])
        d1 = learn_structure(dataset_ci(ds, 0.05), ds.columns, "t")
        d2 = learn_structure(dataset_ci(ds, 0.05), ds.columns, "t")
        assert d1.parents == d2.parents
        assert d1.provenance == d2.provenance

    def test_dot_output(self):
        g = PartialGraph(nodes=["a", "t"], undirected=set(), directed=set())
        dag = complete_to_dag(g, target="t")
        dot = to_dot(dag)
        assert dot.startswith("digraph learned {")
        assert '"a" -> "t" [style=dashed];' in dot
        assert dot.endswith("}\n")

    def test_dot_escapes_quotes_and_backslashes(self):
        # a header the per-cell reader takes may quote any name
        gust, back = 'wind "gust"', "dir\\"
        dag = LearnedDag(nodes=[gust, back, "t"], parents={gust: [], back: [], "t": [gust, back]},
                         target="t")
        assert to_dot(dag) == ('digraph learned {\n'
                               '  "wind \\"gust\\"";\n'
                               '  "dir\\\\";\n'
                               '  "t";\n'
                               '  "wind \\"gust\\"" -> "t";\n'
                               '  "dir\\\\" -> "t";\n'
                               '}\n')

    def test_dot_solid_for_discovered(self):
        parents = {"a": [], "b": [], "e": ["a", "b"]}
        ci, _ = oracle_for(parents, nodes=["a", "b", "e"])
        dag = learn_structure(ci, target="e", nodes=["a", "b", "e"])
        dot = to_dot(dag)
        assert '"a" -> "e";' in dot
        assert "dashed" not in dot
