"""CPT fitting, table lookup, exact inference and its plans, the naive Bayes star, model files."""

import functools
import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from outagebn import bayesnet, cli, preprocess, synthgen
from outagebn.bayesnet import (BayesianNetwork, Cpt, fit_cpts, joint_probability,
                               load_model, posterior_target, predict_rows, save_model)
from outagebn.pcalg import LearnedDag, naive_bayes_dag
from outagebn.preprocess import DiscreteDataset, attach_label_column, code_dtype


def make_ds(columns, rows, labels=None, cards=None):
    rows = np.asarray(rows, dtype=np.int64)
    if cards is None:
        cards = [int(rows[:, c].max()) + 1 for c in range(rows.shape[1])]
    if labels is None:
        labels = np.zeros(rows.shape[0], dtype=np.int64)
    return DiscreteDataset(columns=list(columns), rows=rows,
                           labels=np.asarray(labels, dtype=np.int64),
                           bin_edges=[np.arange(1, c) - 0.5 for c in cards])


def oracle_posterior(bn, target, evidence):
    cards = dict(bn.cardinalities)
    return oracles.brute_force_posterior(
        bn.dag.nodes, bn.dag.parents, cards,
        lambda n, ps, s: float(bn.cpts[n].row(list(ps))[s]),
        target, evidence)


def kept_entry(bn, unknown):
    """Table entries as the engine multiplies them: 1.0 for a table that reads no unknown node."""
    def value(n, ps, s):
        if n not in unknown and unknown.isdisjoint(bn.dag.parents[n]):
            return 1.0
        cpt = bn.cpts[n]
        return float(cpt.table.reshape(*cpt.parent_cards, cpt.card)[(*ps, s)])
    return value


def sparse_copy(bn, rng):
    """The network with about half of each table's configurations on a uniform default row."""
    cpts = {}
    for node, cpt in bn.cpts.items():
        keep = np.flatnonzero(rng.random(len(cpt.configs)) < 0.5)
        cpts[node] = Cpt(node, cpt.parents, cpt.parent_cards, cpt.card, cpt.configs[keep],
                         cpt.rows[keep], np.full(cpt.card, 1.0 / cpt.card))
    return BayesianNetwork(bn.dag, cpts, bn.cardinalities, bn.bin_edges)


class TestFitCpts:
    def test_laplace_smoothing_row(self):
        # three-state node, counts (3, 0, 1), alpha 1 -> (4/7, 1/7, 2/7)
        ds = make_ds(["x"], [[0], [0], [0], [2]], cards=[3])
        dag = LearnedDag(nodes=["x"], parents={"x": []})
        bn = fit_cpts(dag, ds, laplace_alpha=1.0)
        assert np.allclose(bn.cpts["x"].table[0],
                           [4 / 7, 1 / 7, 2 / 7], atol=1e-15)

    def test_unseen_parent_config_uniform(self):
        ds = make_ds(["p", "x"], [[0, 0], [0, 1], [0, 0]], cards=[2, 2])
        dag = LearnedDag(nodes=["p", "x"], parents={"p": [], "x": ["p"]})
        bn = fit_cpts(dag, ds, laplace_alpha=1.0)
        assert np.allclose(bn.cpts["x"].table[1], [0.5, 0.5])

    def test_sparse_fit_dense_view_matches_counts(self):
        # 3 parents at 4 states: 64 configurations, at most 30 observed
        rng = np.random.default_rng(12)
        rows = rng.integers(0, 4, size=(30, 4))
        ds = make_ds(["a", "b", "c", "x"], rows, cards=[4, 4, 4, 4])
        dag = LearnedDag(nodes=["a", "b", "c", "x"],
                         parents={"a": [], "b": [], "c": [], "x": ["a", "b", "c"]})
        for alpha in (0.1, 1.0, 3.0):
            cpt = fit_cpts(dag, ds, laplace_alpha=alpha).cpts["x"]
            want = oracles.laplace_table(rows.tolist(), [0, 1, 2], 3,
                                         [4, 4, 4], 4, alpha)
            assert np.array_equal(cpt.table, np.array(want))
            unseen = sorted(set(range(64)) - set(cpt.configs.tolist()))
            assert unseen and np.array_equal(cpt.default, np.array(want[unseen[0]]))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            bn_true = synthgen.random_network(int(rng.integers(2, 6)),
                                              0.5, seed=trial)
            ds = synthgen.forward_sample(bn_true, 200, seed=trial + 1)
            dag = LearnedDag(nodes=list(ds.columns),
                             parents={n: list(bn_true.dag.parents[n])
                                      for n in ds.columns})
            bn = fit_cpts(dag, ds, laplace_alpha=0.5)
            for cpt in bn.cpts.values():
                sums = [math.fsum(float(v) for v in row) for row in cpt.table]
                assert all(abs(s - 1.0) <= 1e-12 for s in sums)

    def test_smoothing_monotone_toward_uniform(self):
        ds = make_ds(["x"], [[0]] * 9 + [[1]], cards=[2])
        dag = LearnedDag(nodes=["x"], parents={"x": []})
        last = None
        for alpha in (0.25, 1.0, 4.0, 16.0):
            bn = fit_cpts(dag, ds, laplace_alpha=alpha)
            dist = abs(float(bn.cpts["x"].table[0, 0]) - 0.5)
            if last is not None:
                assert dist <= last + 1e-15
            last = dist

    def test_calibration_recovers_truth(self):
        bn_true = synthgen.random_network(5, 0.4, seed=9)
        ds = synthgen.forward_sample(bn_true, 60_000, seed=10)
        dag = LearnedDag(nodes=list(bn_true.dag.nodes),
                         parents={n: list(p) for n, p in bn_true.dag.parents.items()})
        bn = fit_cpts(dag, ds, laplace_alpha=1.0)
        for node in dag.nodes:
            assert np.max(np.abs(bn.cpts[node].table
                                 - bn_true.cpts[node].table)) < 0.02

    def test_eighteen_ten_state_parents_code_as_python_ints(self):
        rng = np.random.default_rng(18)
        parents = [f"P{k}" for k in range(18)]
        rows = rng.integers(0, 10, size=(300, 19))
        ds = make_ds([*parents, "x"], rows, cards=[10] * 19)
        dag = LearnedDag(nodes=[*parents, "x"],
                         parents={**{q: [] for q in parents}, "x": parents})
        cpt = fit_cpts(dag, ds).cpts["x"]
        want = sorted({int("".join(map(str, r[:18]))) for r in rows.tolist()})
        assert cpt.configs.tolist() == want
        assert cpt.row(rows[7, :18].tolist()).tolist() == \
            cpt.rows[want.index(int("".join(map(str, rows[7, :18]))))].tolist()
        # numpy uint8 states code as Python ints, not as wrapping uint8
        assert cpt.row(list(rows[7, :18].astype(np.uint8))).tolist() == \
            cpt.row(rows[7, :18].tolist()).tolist()

    def test_nineteen_ten_state_parents_refused(self):
        # 10**19 configurations overflow the int64 code
        rng = np.random.default_rng(19)
        parents = [f"P{k}" for k in range(19)]
        ds = make_ds([*parents, "x"], rng.integers(0, 10, size=(300, 20)),
                     cards=[10] * 20)
        dag = LearnedDag(nodes=[*parents, "x"],
                         parents={**{q: [] for q in parents}, "x": parents})
        message = "node 'x': 10000000000000000000 configurations of 19 columns " \
            "do not fit an int64 code"
        with pytest.raises(ValueError, match=message):
            fit_cpts(dag, ds)
        # a table read from a model file is checked the same way
        with pytest.raises(ValueError, match=message):
            bayesnet.Cpt("x", parents, [10] * 19, 10, np.array([0]),
                         np.full((1, 10), 0.1), np.full(10, 0.1))

    def test_alpha_validation(self):
        ds = make_ds(["x"], [[0]], cards=[2])
        dag = LearnedDag(nodes=["x"], parents={"x": []})
        for alpha in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                fit_cpts(dag, ds, laplace_alpha=alpha)

    def test_missing_column(self):
        ds = make_ds(["x"], [[0]], cards=[2])
        dag = LearnedDag(nodes=["x", "y"], parents={"x": [], "y": []})
        with pytest.raises(ValueError, match="no column"):
            fit_cpts(dag, ds)

    def test_states_out_of_range_refused(self):
        # A -> B, two states each: the row (A=0, B=2) must not be counted
        # as (A=1, B=0), and a parent state out of range is named as such
        dag = LearnedDag(nodes=["A", "B"], parents={"A": [], "B": ["A"]})
        for row, node, state in (([0, 2], "B", 2), ([2, 0], "A", 2), ([-1, 1], "A", -1)):
            ds = make_ds(["A", "B"], [[0, 0], [1, 1], row], cards=[2, 2])
            with pytest.raises(ValueError,
                               match=rf"^node '{node}' holds state {state} outside range\(2\)$"):
                fit_cpts(dag, ds)


class TestCptLookup:
    def test_filled_searched_and_complete_tables_agree(self, monkeypatch):
        # two 3-state parents: 9 configurations, 4 of them with their own row
        rng = np.random.default_rng(31)
        dense = rng.random((9, 2)) + 0.05
        dense /= dense.sum(axis=1, keepdims=True)
        configs = np.array([1, 4, 5, 8])
        default = np.array([0.25, 0.75])

        def sparse():
            return Cpt("x", ["a", "b"], [3, 3], 2, configs, dense[configs], default)

        filled = sparse()
        monkeypatch.setattr(bayesnet, "_DENSE_LIMIT", 17)  # 9 configurations x 2 states
        searched = sparse()
        complete = Cpt.dense("x", ["a", "b"], [3, 3], 2, dense)
        assert filled._keys is None and searched._keys is not None and complete._keys is None
        # a filled table still holds only the rows it was given
        for cpt in (filled, searched):
            assert cpt.configs.tolist() == configs.tolist()
            assert cpt.rows.tobytes() == dense[configs].tobytes()
            assert cpt.default.tobytes() == default.tobytes()
        codes = np.arange(9)
        missed = np.vstack([dense[c] if c in configs else default for c in codes])
        for cpt, want in ((filled, missed), (searched, missed), (complete, dense)):
            assert cpt.lookup(codes).tobytes() == want.tobytes()
            # _entries makes its index in the rows it is given: a copy of the codes
            assert cpt._entries(cpt._row_of(codes.copy()), codes % 2).tobytes() == \
                want[codes, codes % 2].tobytes()
            assert cpt.table.tobytes() == want.tobytes()
            for c in codes.tolist():
                for code in (c, np.int64(c)):
                    assert cpt.lookup(code).tobytes() == want[c].tobytes()
                    assert cpt._entries(cpt._row_of(code), c % 2) == want[c, c % 2]
                    assert cpt._entries(cpt._row_of(code), codes[:3] % 2).tobytes() == \
                        want[c, codes[:3] % 2].tobytes()
            # the caller's codes are read, never written
            assert codes.tolist() == list(range(9))

    def test_refuses_bad_codes_dense_and_searched(self, monkeypatch):
        for limit in (2**15, 8):
            monkeypatch.setattr(bayesnet, "_DENSE_LIMIT", limit)
            for bad in ([4, 1], [1, 1], [-1, 4], [4, 9]):
                with pytest.raises(ValueError, match="sorted unique codes below 9"):
                    Cpt("x", ["a", "b"], [3, 3], 2, np.array(bad), np.full((2, 2), 0.5),
                        np.full(2, 0.5))

    def test_queries_on_dense_and_searched_tables_are_bit_exact(self, monkeypatch):
        # about half of each table's configurations on a default row, blocks
        # of 3 completions: whole queries give the same bytes whether the
        # sparse tables are filled in or searched, and those are the oracle's
        monkeypatch.setattr(bayesnet, "_BLOCK", 3)
        rng = np.random.default_rng(83)
        filled_tables = 0
        for trial in range(20):
            n = int(rng.integers(2, 7))
            card = int(rng.integers(2, 4))
            target = f"X{int(rng.integers(n)) + 1}"
            dense = synthgen.random_network(n, 0.5, seed=trial + 500, card=card, target=target)
            filled = sparse_copy(dense, np.random.default_rng(trial))
            with monkeypatch.context() as m:
                m.setattr(bayesnet, "_DENSE_LIMIT", 0)
                searched = sparse_copy(dense, np.random.default_rng(trial))
            assert all(c._keys is not None for c in searched.cpts.values()
                       if len(c.configs) < math.prod(c.parent_cards))
            filled_tables += sum(c._keys is None and len(c.configs) < math.prod(c.parent_cards)
                                 for c in filled.cpts.values())
            others = [v for v in dense.dag.nodes if v != target]
            for _ in range(8):
                hidden = list(rng.choice(others, size=int(rng.integers(0, len(others) + 1)),
                                         replace=False))
                evidence = {v: int(rng.integers(card)) for v in others if v not in hidden}
                got = posterior_target(filled, evidence)
                assert got.tobytes() == posterior_target(searched, evidence).tobytes()
                want = oracles.fsum_posterior(
                    [target, *others], filled.dag.parents, filled.cardinalities,
                    kept_entry(filled, {target, *hidden}), target, evidence)
                assert got.tobytes() == np.array(want).tobytes()
            rows = rng.integers(card, size=(50, len(others)))
            assert predict_rows(filled, rows, others).tobytes() == \
                predict_rows(searched, rows, others).tobytes()
        assert filled_tables >= 40

    def test_replaced_table_is_read_afresh_across_blocks(self, monkeypatch):
        # 3-term blocks and 5- and 4-state nodes: some queries enumerate
        # nodes as ints before a block of one 4-state axis; a table swapped
        # into bn.cpts after a query is read, not its old view
        monkeypatch.setattr(bayesnet, "_BLOCK", 3)
        rng = np.random.default_rng(29)

        def rows(n_configs, card):
            raw = rng.random((n_configs, card)) + 0.05
            return raw / raw.sum(axis=1, keepdims=True)

        parents = {"a": [], "b": ["a"], "t": ["a", "b"], "c": ["t", "b"], "d": ["c"]}
        cards = {"a": 5, "b": 2, "t": 3, "c": 4, "d": 2}
        cpts = {n: Cpt.dense(n, ps, [cards[q] for q in ps], cards[n],
                             rows(math.prod(cards[q] for q in ps), cards[n]))
                for n, ps in parents.items()}
        bn = BayesianNetwork(LearnedDag(nodes=list(parents), parents=parents, target="t"),
                             cpts, cards)

        def check(evidence):
            got = posterior_target(bn, evidence)
            unknown = {"t", *(v for v in parents if v != "t" and v not in evidence)}
            want = oracles.fsum_posterior(["t", "a", "b", "c", "d"], parents, cards,
                                          kept_entry(bn, unknown), "t", evidence)
            assert got.tobytes() == np.array(want).tobytes(), evidence
            return got

        queries = [{}, {"d": 1}, {"b": 1}, {"a": 4, "d": 0}, {"a": 2, "b": 0, "c": 3}]
        before = [check(e) for e in queries]
        view = bn._views["c"]
        assert [check(e).tobytes() for e in queries] == [b.tobytes() for b in before]
        assert bn._views["c"] is view  # made once, not per query
        # c's table replaced by a sparse one, filled in; then by a searched one
        for limit in (2**15, 0):
            monkeypatch.setattr(bayesnet, "_DENSE_LIMIT", limit)
            bn.cpts["c"] = Cpt("c", ["t", "b"], [3, 2], 4, np.array([1, 4]), rows(2, 4),
                               rows(1, 4)[0])
            after = [check(e) for e in queries]
            assert any(a.tobytes() != b.tobytes() for a, b in zip(after, before))


class TestJointAndPosterior:
    def test_joint_is_product_of_rows(self):
        bn = synthgen.random_network(4, 0.6, seed=3)
        p = joint_probability(bn, {"X1": 0, "X2": 1, "X3": 0, "X4": 1})
        manual = 1.0
        assign = {"X1": 0, "X2": 1, "X3": 0, "X4": 1}
        for node in bn.dag.nodes:
            cpt = bn.cpts[node]
            manual *= float(cpt.row([assign[q] for q in cpt.parents])[assign[node]])
        assert p == pytest.approx(manual, rel=1e-15)

    def test_joint_sums_to_one(self):
        from itertools import product
        bn = synthgen.random_network(5, 0.5, seed=4)
        total = math.fsum(
            joint_probability(bn, dict(zip(bn.dag.nodes, combo)))
            for combo in product(range(2), repeat=5))
        assert abs(total - 1.0) <= 1e-12

    def test_collider_posterior_hand_computed(self):
        # a -> e <- b with binary uniform roots
        dag = LearnedDag(nodes=["a", "b", "e"],
                         parents={"a": [], "b": [], "e": ["a", "b"]},
                         target="e")
        ds = make_ds(["a", "b", "e"],
                     [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
                     cards=[2, 2, 2])
        bn = fit_cpts(dag, ds, laplace_alpha=1.0)
        # evidence {a=1}: P(e|a) = sum_b P(b) P(e|a,b)
        pa = bn.cpts["b"].table[0]
        rows = [bn.cpts["e"].row([1, b]) for b in (0, 1)]
        want = pa[0] * rows[0] + pa[1] * rows[1]
        got = posterior_target(bn, {"a": 1})
        assert np.allclose(got, want / want.sum(), atol=1e-15)

    def test_tables_reading_only_evidence_never_enter(self):
        # a -> b, a -> t -> c: b's table reads only evidence in both queries
        dag = LearnedDag(nodes=["a", "b", "t", "c"],
                         parents={"a": [], "b": ["a"], "t": ["a"], "c": ["t"]},
                         target="t")
        ds = make_ds(["a", "b", "t", "c"],
                     [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 0], [1, 1, 0, 0]],
                     cards=[2, 2, 2, 2])
        bn = fit_cpts(dag, ds, laplace_alpha=1.0)
        bn.cpts["b"] = bayesnet.Cpt("b", ["a"], [2], 2, np.arange(2),
                                    np.full((2, 2), np.nan), np.full(2, np.nan))
        for evidence in ({"a": 1, "b": 0}, {"a": 1, "b": 0, "c": 1}):
            got = posterior_target(bn, evidence)
            assert np.all(np.isfinite(got))
            assert abs(math.fsum(got.tolist()) - 1.0) <= 1e-15

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(44)
        for trial in range(25):
            n = int(rng.integers(2, 7))
            target = f"X{int(rng.integers(n)) + 1}"
            bn = synthgen.random_network(n, 0.5, seed=trial, target=target)
            others = [v for v in bn.dag.nodes if v != target]
            for _ in range(6):
                size = int(rng.integers(0, len(others) + 1))
                chosen = list(rng.choice(others, size=size, replace=False))
                evidence = {v: int(rng.integers(2)) for v in chosen}
                got = posterior_target(bn, evidence)
                want = oracle_posterior(bn, target, evidence)
                assert np.max(np.abs(got - np.array(want))) <= 1e-12

    def test_enumeration_bit_exact_across_blocks(self, monkeypatch):
        # blocks of 3 completions: queries of more than 3 terms run in
        # several blocks, and every 2-state network leaves a ragged last one
        monkeypatch.setattr(bayesnet, "_BLOCK", 3)
        rng = np.random.default_rng(71)

        def entry(bn, unknown):
            # a table that reads no unknown node is left out, i.e. multiplies
            # by 1.0; C-order reshape: first parent most significant
            def value(n, ps, s):
                if n not in unknown and unknown.isdisjoint(bn.dag.parents[n]):
                    return 1.0
                return float(bn.cpts[n].table.reshape(
                    *bn.cpts[n].parent_cards, bn.cpts[n].card)[(*ps, s)])
            return value

        multi_block = ragged = row_shaped = 0
        for trial in range(30):
            n = int(rng.integers(2, 7))
            card = int(rng.integers(2, 4))
            target = f"X{int(rng.integers(n)) + 1}"
            bn = synthgen.random_network(n, 0.5, seed=trial + 300, card=card,
                                         target=target)
            has_child = any(target in bn.dag.parents[v] for v in bn.dag.nodes)
            others = [v for v in bn.dag.nodes if v != target]
            for _ in range(5):
                size = int(rng.integers(0, len(others) + 1))
                chosen = list(rng.choice(others, size=size, replace=False))
                evidence = {v: int(rng.integers(card)) for v in chosen}
                unknown = {target, *(v for v in others if v not in evidence)}
                got = posterior_target(bn, evidence)
                # the engine multiplies the target's table first, then node order
                want = oracles.fsum_posterior(
                    [target, *others], bn.dag.parents, bn.cardinalities,
                    entry(bn, unknown), target, evidence)
                assert np.array_equal(got, np.array(want))
                n_terms = card ** (len(others) - size + 1)
                multi_block += n_terms > 3
                ragged += n_terms > 3 and n_terms % 3 != 0
                # a childless target with every parent observed: one table
                row_shaped += not has_child and all(p in evidence
                                                    for p in bn.dag.parents[target])
        assert multi_block >= 20 and ragged >= 10 and row_shaped >= 20

    def test_stock_shape_bit_exact_with_parents_hidden_anywhere(self):
        # the stock network's shape at 10 bins, with a 10-state target: six
        # 10-state parents, so 10^6 configurations, of which the target's
        # sparse table stores 3,000 and searches them; F4 -> F5 -> F6 and
        # F4 -> F6 among the factors. Hidden parents sit first, in the middle
        # and last, so observed parents fold into an offset before, between
        # and after the hidden ones.
        rng = np.random.default_rng(2025)
        factors = [f"F{k}" for k in range(1, 7)]
        parents = {"F1": [], "F2": [], "F3": [], "F4": [], "F5": ["F4"],
                   "F6": ["F4", "F5"], "T": factors}

        def rows(n_configs):
            raw = rng.random((n_configs, 10)) + 0.05
            return raw / raw.sum(axis=1, keepdims=True)

        cpts = {n: Cpt.dense(n, ps, [10] * len(ps), 10, rows(10 ** len(ps)))
                for n, ps in parents.items() if n != "T"}
        stored = np.sort(rng.choice(10 ** 6, size=3000, replace=False))
        cpts["T"] = Cpt("T", factors, [10] * 6, 10, stored, rows(3000), rows(1)[0])
        assert cpts["T"]._keys is not None  # searched, not filled in
        bn = BayesianNetwork(LearnedDag(nodes=[*factors, "T"], parents=parents, target="T"),
                             cpts, {n: 10 for n in parents})
        # the oracle reads the stored rows through a dict, coding by hand
        target_rows = dict(zip(stored.tolist(), cpts["T"].rows.tolist()))
        default = cpts["T"].default.tolist()

        def table_entry(n, ps, s):
            config = int("".join(map(str, ps)) or "0")  # the digits of 10-state parents
            if n == "T":
                return target_rows.get(config, default)[s]
            return float(cpts[n].rows[config, s])

        hidden_sets = [(), ("F1",), ("F3",), ("F6",), ("F1", "F6"), ("F3", "F4"),
                       ("F1", "F2"), ("F5", "F6"), ("F1", "F4", "F6"), ("F2", "F3", "F4")]
        for hidden in hidden_sets:
            for _ in range(2):
                # evidence from a stored configuration, so completions both
                # hit stored rows and fall to the default
                digits = f"{int(rng.choice(stored)):06d}"
                evidence = {f: int(d) for f, d in zip(factors, digits) if f not in hidden}
                unknown = {"T", *hidden}
                got = posterior_target(bn, evidence)

                # evidence nodes enumerate one state, 0, which stands for
                # the observed one, so the oracle's joint has 10^(h+1) terms
                def entry(n, ps, s):
                    if n not in unknown and unknown.isdisjoint(parents[n]):
                        return 1.0
                    ps = [evidence.get(q, v) for q, v in zip(parents[n], ps)]
                    return table_entry(n, ps, evidence.get(n, s))

                cards = {n: 1 if n in evidence else 10 for n in parents}
                want = oracles.fsum_posterior(["T", *factors], parents, cards, entry, "T",
                                              dict.fromkeys(evidence, 0))
                assert got.tobytes() == np.array(want).tobytes(), (hidden, evidence)

    def test_posterior_sums_to_one(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            bn = synthgen.random_network(int(rng.integers(2, 6)), 0.5,
                                         seed=trial + 50, target="X1")
            evidence = {"X2": 0} if "X2" in bn.dag.nodes else {}
            post = posterior_target(bn, evidence)
            assert abs(math.fsum(float(v) for v in post) - 1.0) <= 1e-12

    def test_enumeration_cap(self, monkeypatch):
        monkeypatch.setattr(bayesnet, "ENUMERATION_CAP", 4)
        bn = synthgen.random_network(8, 0.3, seed=1, target="X1")
        with pytest.raises(ValueError, match="above the cap of 4"):
            posterior_target(bn, {})

    def test_evidence_validation(self):
        bn = synthgen.random_network(3, 0.5, seed=2, target="X1")
        with pytest.raises(ValueError):
            posterior_target(bn, {"X1": 0})
        with pytest.raises(ValueError):
            posterior_target(bn, {"zzz": 0})
        with pytest.raises(ValueError):
            posterior_target(bn, {"X2": 7})

    def test_fractional_states_refused(self):
        # a state is an integer: 1.7 used to answer as 1, and 0.9 as 0
        bn = synthgen.random_network(3, 0.5, seed=2, card=3, target="X1")
        full = {"X1": 0, "X2": 1, "X3": 2}
        for bad in (1.7, 0.9, np.float64(2.0), "1"):
            message = re.escape(f"state {bad!r} of node 'X2' is not an integer")
            with pytest.raises(ValueError, match=message):
                posterior_target(bn, {"X2": bad})
            with pytest.raises(ValueError, match=message):
                joint_probability(bn, {**full, "X2": bad})
        # numpy ints and bools are integers
        for state, same in ((np.int64(2), 2), (np.int32(0), 0), (True, 1)):
            assert posterior_target(bn, {"X2": state}).tobytes() == \
                posterior_target(bn, {"X2": same}).tobytes()
            assert joint_probability(bn, {**full, "X2": state}) == \
                joint_probability(bn, {**full, "X2": same})

    def test_predict_rows_matches_posterior(self):
        rng = np.random.default_rng(6)
        for trial in range(12):
            n = int(rng.integers(2, 6))
            target = f"X{int(rng.integers(n)) + 1}"
            bn = synthgen.random_network(n, 0.6, seed=trial + 10, target=target)
            others = [v for v in bn.dag.nodes if v != target]
            rows = rng.integers(0, 2, size=(15, len(others)))
            batch = predict_rows(bn, rows, others)
            for r in range(rows.shape[0]):
                evidence = dict(zip(others, (int(v) for v in rows[r])))
                single = posterior_target(bn, evidence)
                assert batch[r].tobytes() == single.tobytes()

    def test_predict_rows_refuses_out_of_range_states(self):
        # x and y at 3 states code t's row as 3x + y: (0, 3) would wrap to
        # (1, 0)'s row, and (-1, 1) would miss every configuration and read
        # the default row
        ds = make_ds(["x", "y", "t"],
                     [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [2, 2, 1]] * 3,
                     cards=[3, 3, 2])
        dag = LearnedDag(nodes=["x", "y", "t"],
                         parents={"x": [], "y": [], "t": ["x", "y"]}, target="t")
        bn = fit_cpts(dag, ds)
        for row, message in (([0, 3], "state 3 out of range for node 'y'"),
                             ([-1, 1], "state -1 out of range for node 'x'")):
            for call in (lambda: predict_rows(bn, np.array([[1, 1], row]), ["x", "y"]),
                         lambda: posterior_target(bn, dict(zip("xy", row)))):
                with pytest.raises(ValueError, match=message):
                    call()
        # narrow columns, read strided out of a wider matrix
        for dtype, row, message in (
                (np.uint8, [0, 3, 0], "state 3 out of range for node 'y'"),
                (np.uint16, [0, 300, 0], "state 300 out of range for node 'y'"),
                (np.int8, [-1, 1, 0], "state -1 out of range for node 'x'")):
            with pytest.raises(ValueError, match=message):
                predict_rows(bn, np.array([[1, 1, 0], row], dtype=dtype), ["x", "y", "t"])


def fit_star(ds, alpha=1.0):
    aug = attach_label_column(ds, "t")
    return fit_cpts(naive_bayes_dag(aug.columns, "t"), aug, laplace_alpha=alpha)


class TestNaiveBayes:
    def test_same_smoothing_as_network(self):
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 3, size=(50, 2))
        labels = rng.integers(0, 2, size=50)
        star = fit_star(make_ds(["a", "b"], rows, labels, cards=[3, 3]))
        counts = np.bincount(labels, minlength=2)
        assert np.allclose(star.cpts["t"].row([]),
                           (counts + 1.0) / (50 + 2.0), atol=1e-15)
        for j, name in enumerate(["a", "b"]):
            for k in (0, 1):
                want = (np.bincount(rows[labels == k, j], minlength=3) + 1.0) \
                    / (counts[k] + 3.0)
                assert np.allclose(star.cpts[name].row([k]), want, atol=1e-15)

    def test_star_graph_equivalence(self):
        # naive Bayes is exactly the network whose only edges go
        # target -> factor, when both use the same smoothing
        for seed, n, k, card in ((9, 80, 3, 4), (10, 40, 4, 3)):
            rng = np.random.default_rng(seed)
            rows = rng.integers(0, card, size=(n, k))
            labels = rng.integers(0, 2, size=n)
            columns = list("abcd"[:k])
            star = fit_star(make_ds(columns, rows, labels, cards=[card] * k))
            assert star.dag.parents == {**{c: ["t"] for c in columns}, "t": []}
            got = predict_rows(star, rows, columns)
            for r in range(n):
                want = oracles.naive_bayes_posterior(rows.tolist(), labels.tolist(),
                                                     [card] * k, 1.0, rows[r].tolist())
                assert got[r].tobytes() == np.array(want).tobytes()


def given_copy(bn, nodes):
    """The network with the tables of ``nodes`` given as their probability rows, without counts."""
    cpts = dict(bn.cpts)
    for node in nodes:
        c = bn.cpts[node]
        cpts[node] = Cpt(node, c.parents, c.parent_cards, c.card, c.configs, c.rows, c.default)
    return replace(bn, cpts=cpts)


def assert_same_table(got, want):
    """Every part of two tables holds the same bits, and both have counts or neither."""
    assert got.parents == want.parents and got.alpha == want.alpha
    assert (got.counts is None) == (want.counts is None)
    for part in ("configs", "rows", "default", "table", "counts"):
        a, b = getattr(got, part), getattr(want, part)
        if b is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


def edit_json(path, keys, value):
    """Set the item at ``keys`` of the JSON file at ``path`` to ``value``; None deletes it."""
    doc = json.loads(path.read_text())
    *outer, last = keys
    inner = doc
    for key in outer:
        inner = inner[key]
    if value is None:
        del inner[last]
    else:
        inner[last] = value
    path.write_text(json.dumps(doc))


# what load_model says of a malformed table or edge list of TestModelFile's network
COUNT_ROW = "a count row is not a list of 2 integers of at least 0"
NOT_FINITE = "its bin edges are not finite numbers"
NOT_TWO_EDGES = "its bin edges are not 2 numbers in ascending order"
ALPHA = "its alpha is not a positive finite number"
NOT_A_PROBABILITY = "a row holds a value that is not a probability in [0, 1]"
GAPS = "configs hold gaps that repeat a code or leave the codes 0..5"


class TestModelFile:
    def build(self, kind="counts"):
        """A fitted network and its naive Bayes baseline; with kind "rows", the
        network's tables of b and t are given as probability rows instead."""
        ds_rows = [[0, 1, 0], [1, 0, 1], [1, 1, 1], [0, 0, 0]] * 4
        labels = [r[2] for r in ds_rows]
        # a's third state never occurs, so b's and t's tables are sparse
        ds = make_ds(["a", "b", "t"], ds_rows, labels, cards=[3, 2, 2])
        dag = LearnedDag(nodes=["a", "b", "t"],
                         parents={"a": [], "b": ["a"], "t": ["a", "b"]},
                         provenance={("a", "b"): "canonical-fill",
                                     ("a", "t"): "v-structure",
                                     ("b", "t"): "target-augmented"},
                         target="t")
        bn = fit_cpts(dag, ds, laplace_alpha=1.0)
        if kind == "rows":
            bn = given_copy(bn, ["b", "t"])
        return bn, fit_cpts(naive_bayes_dag(ds.columns, "t"), ds, laplace_alpha=1.0)

    def test_round_trip_preserves_everything(self, tmp_path):
        for kind in ("counts", "rows"):
            bn, nb = self.build(kind)
            path = tmp_path / f"{kind}.json"
            save_model(bn, path, baseline=nb)
            bn2, nb2 = load_model(path)
            assert bn2.dag.nodes == bn.dag.nodes
            assert bn2.dag.parents == bn.dag.parents
            assert bn2.dag.provenance == bn.dag.provenance
            assert bn2.dag.target == "t"
            assert len(bn.cpts["t"].configs) == 4  # of 6 configurations
            assert (bn.cpts["t"].counts is None) == (kind == "rows")
            for node in bn.dag.nodes:
                assert_same_table(bn2.cpts[node], bn.cpts[node])
                assert bn2.bin_edges[node] == bn.bin_edges[node]
            # parents are stored once, in each table's entry
            doc = json.loads(path.read_text())
            assert "parents" not in doc
            assert sorted(doc["cpts"]["t"]) == sorted(bayesnet._CPT_KEYS[kind])
            assert nb2.dag.nodes == bn.dag.nodes
            assert nb2.dag.parents == {"a": ["t"], "b": ["t"], "t": []}
            assert nb2.target == "t" and nb2.bin_edges == bn.bin_edges
            for node in nb.dag.nodes:
                assert_same_table(nb2.cpts[node], nb.cpts[node])
            grid = np.array([[a, b] for a in range(3) for b in range(2)])
            for net, net2 in ((bn, bn2), (nb, nb2)):
                assert predict_rows(net2, grid, ["a", "b"]).tobytes() == \
                    predict_rows(net, grid, ["a", "b"]).tobytes()
            for evidence in ({}, {"a": 2}, {"b": 1}, {"a": 2, "b": 0}, {"a": 1, "b": 1}):
                assert posterior_target(bn2, evidence).tobytes() == \
                    posterior_target(bn, evidence).tobytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        for kind in ("counts", "rows"):
            bn, nb = self.build(kind)
            p1 = tmp_path / f"{kind}1.json"
            p2 = tmp_path / f"{kind}2.json"
            save_model(bn, p1, baseline=nb)
            bn2, nb2 = load_model(p1)
            save_model(bn2, p2, baseline=nb2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_baseline_must_share_the_network_metadata(self, tmp_path):
        # the file keeps one set of nodes, cardinalities and bin edges for both
        bn, _ = self.build()
        other = fit_star(make_ds(["a", "b"], [[0, 1], [1, 0], [2, 1]], [0, 1, 1],
                                 cards=[4, 2]))
        with pytest.raises(ValueError, match="must share"):
            save_model(bn, tmp_path / "m.json", baseline=other)

    def test_rejects_other_versions(self, tmp_path):
        bn, _ = self.build()
        path = tmp_path / "m.json"
        save_model(bn, path)
        doc = json.loads(path.read_text())
        # version 2 kept a top-level parent map and a naive Bayes model of its own
        # version 3 wrote every configuration's row in full
        # version 4 wrote smoothed probabilities, and configs as codes
        for version in (2, 3, 4, bayesnet.MODEL_VERSION + 1, None):
            doc["version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="re-run `learn`, or `gen --out-truth`"):
                load_model(path)

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        for text in ("{}", "[]", "not json"):
            path.write_text(text)
            with pytest.raises(ValueError, match="not a recognized model file"):
                load_model(path)

    def test_repeated_rows_are_stored_once(self, tmp_path):
        for kind in ("counts", "rows"):
            bn, _ = self.build(kind)
            path = tmp_path / f"{kind}.json"
            save_model(bn, path)
            entry = json.loads(path.read_text())["cpts"]["t"]
            # t is 0 after a=0 and 1 after a=1, four times each, whatever b is
            assert entry["row_of"] == [0, 0, 1, 1]
            assert len(entry[kind]) == 2 < len(entry["configs"]) == 4
            if kind == "counts":
                assert entry["counts"] == [[4, 0], [0, 4]] and entry["alpha"] == 1.0
            assert_same_table(load_model(path)[0].cpts["t"], bn.cpts["t"])

    def test_configs_are_stored_as_gaps(self, tmp_path):
        dag = LearnedDag(nodes=["a", "t"], parents={"a": [], "t": ["a"]}, target="t")
        rows = [[0.25, 0.75], [0.5, 0.5], [0.25, 0.75]]
        bn = BayesianNetwork(dag, {"a": Cpt.dense("a", [], [], 10, [[0.1] * 10]),
                                   "t": Cpt("t", ["a"], [10], 2, [3, 4, 9], rows, [0.5, 0.5])},
                             {"a": 10, "t": 2})
        path = tmp_path / "m.json"
        save_model(bn, path)
        cpts = json.loads(path.read_text())["cpts"]
        assert cpts["t"]["configs"] == [3, 1, 5] and cpts["a"]["configs"] == [0]
        assert load_model(path)[0].cpts["t"].configs.tolist() == [3, 4, 9]

    def test_rows_differing_in_the_sign_of_zero_stay_apart(self, tmp_path):
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        dag = LearnedDag(nodes=["a", "t"], parents={"a": [], "t": ["a"]}, target="t")
        bn = BayesianNetwork(dag, {"a": Cpt.dense("a", [], [], 3, [[0.2, 0.3, 0.5]]),
                                   "t": Cpt.dense("t", ["a"], [3], 2, rows)},
                             {"a": 3, "t": 2})
        path = tmp_path / "m.json"
        save_model(bn, path)
        entry = json.loads(path.read_text())["cpts"]["t"]
        assert entry["row_of"] == [0, 1, 0] and len(entry["rows"]) == 2
        assert load_model(path)[0].cpts["t"].rows.tobytes() == rows.tobytes()

    def test_file_is_one_line(self, tmp_path):
        bn, nb = self.build()
        path = tmp_path / "m.json"
        save_model(bn, path, baseline=nb)
        data = path.read_bytes()
        assert data.endswith(b"}\n") and data.count(b"\n") == 1 and b" " not in data

    def test_failed_save_leaves_the_earlier_file(self, tmp_path):
        bn, nb = self.build()
        path = tmp_path / "m.json"
        save_model(bn, path, baseline=nb)
        before = path.read_bytes()
        # numpy ints as cardinalities write as ints
        wide = replace(bn, cardinalities={n: np.int64(c) for n, c in bn.cardinalities.items()})
        save_model(wide, tmp_path / "wide.json", baseline=nb)
        assert (tmp_path / "wide.json").read_bytes() == before
        # a value JSON cannot encode fails before the file is opened
        bad = replace(bn, bin_edges={**bn.bin_edges, "a": [object()]})
        with pytest.raises(TypeError):
            save_model(bad, path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("kind,node,key,value,message", [
        # each case about a key of both kinds runs on a table of counts, then,
        # as "given-...", on a table of probability rows
        *(pytest.param(kind, "t", key, value, message, id=prefix + name)
          for kind, prefix in (("counts", ""), ("rows", "given-"))
          for name, key, value, message in (
              ("row_of-length", "row_of", [0, 1, 1], "row_of has 3 entries for 4 configs"),
              ("row_of-negative", "row_of", [0, -1, 1, 0], "row_of holds an index outside 0..1"),
              ("row_of-fraction", "row_of", [0, 1, 1.5, 0],
               "row_of holds a value that is not an integer"),
              ("row_of-past-rows", "row_of", [0, 1, 2, 0], "row_of holds an index outside 0..1"),
              ("gaps-repeat", "configs", [0, 1, 0, 1], GAPS),
              ("gaps-past-end", "configs", [0, 1, 1, 4], GAPS),
              ("gaps-negative-start", "configs", [-1, 1, 1, 1], GAPS),
              ("gaps-negative", "configs", [1, -1, 1, 1], GAPS),
              ("gaps-sum-wraps-past-int64", "configs", [0, 2**63 - 1, 1, 1], GAPS),
              ("self-parent", "parents", ["a", "t"], "its parents include the node itself"),
              ("parent-twice", "parents", ["a", "a"], "its parents name a node twice"))),
        pytest.param("rows", "b", "rows", [[0.5, 0.5], [0.25, 0.5, 0.25]],
                     "a row is not a list of 2 probabilities", id="row-width"),
        pytest.param("rows", "b", "rows", [[0.5, 0.5], [-0.5, 1.5]], NOT_A_PROBABILITY,
                     id="row-negative"),
        pytest.param("rows", "t", "rows", [[0.5, 0.5], [math.inf, 0.0]], NOT_A_PROBABILITY,
                     id="row-infinite"),
        pytest.param("rows", "t", "default", [math.nan, 0.5], NOT_A_PROBABILITY,
                     id="default-nan"),
        *(pytest.param("counts", "b", "counts", [[1, 1], row], COUNT_ROW, id=f"count-{name}")
          for name, row in (("row-width", [1, 2, 1]), ("negative", [-1, 2]),
                            ("fraction", [1.5, 2]), ("float", [2.0, 2]), ("bool", [True, 2]),
                            ("past-int64", [2**63, 2]))),
        *(pytest.param("counts", "t", "alpha", alpha, ALPHA, id=f"alpha-{name}")
          for name, alpha in (("zero", 0), ("negative", -1.0), ("infinite", math.inf),
                              ("nan", math.nan), ("huge-int", 10**400), ("text", "1"))),
        pytest.param("counts", "t", "rows", [[0.5, 0.5]], "its table of counts also holds 'rows'",
                     id="counts-and-rows"),
        pytest.param("rows", "t", "alpha", 1.0, "its table of rows also holds 'alpha'",
                     id="rows-and-alpha"),
    ])
    def test_refuses_malformed_tables(self, tmp_path, kind, node, key, value, message):
        bn, _ = self.build(kind)
        path = tmp_path / "m.json"
        save_model(bn, path)
        edit_json(path, ["cpts", node, key], value)
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value) == f"model file {path}, node {node!r}: {message}"

    @pytest.mark.parametrize("key", ["configs", "row_of"])
    @pytest.mark.parametrize("value", [0, False, None, ""],
                             ids=["zero", "false", "null", "empty-text"])
    def test_refuses_configs_or_row_of_that_are_not_lists(self, tmp_path, key, value):
        # beside empty configs, row_of and counts, each value once loaded as a
        # table of no configurations, whose every row read as the default
        bn, _ = self.build()
        path = tmp_path / "m.json"
        save_model(bn, path)
        doc = json.loads(path.read_text())
        doc["cpts"]["t"].update(configs=[], row_of=[], counts=[])
        doc["cpts"]["t"][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value) == f"model file {path}, node 't': its {key} is not a list"

    @pytest.mark.parametrize("kind,keys,value,node,message", [
        *(pytest.param(kind, keys, value, node, message, id=prefix + name)
          for kind, prefix in (("counts", ""), ("rows", "given-"))
          for name, keys, value, node, message in (
              ("row_of-missing", ["cpts", "t", "row_of"], None, "t", "its table has no 'row_of'"),
              ("configs-text", ["cpts", "t", "configs", 0], "x", "t",
               "configs holds a value that is not an integer"),
              ("configs-fraction", ["cpts", "b", "configs", 1], 1.5, "b",
               "configs holds a value that is not an integer"),
              ("parent-unknown", ["cpts", "t", "parents", 1], "z", "t",
               "its parents are not a list of the file's nodes"))),
        pytest.param("rows", ["cpts", "b", "rows", 0, 1], "x", "b",
                     "a row is not a list of 2 probabilities", id="rows-cell"),
        pytest.param("rows", ["cpts", "t", "default", 0], None, "t",
                     "a row is not a list of 2 probabilities", id="default-cell"),
        pytest.param("rows", ["cpts", "t", "default"], None, "t", "its table has no 'default'",
                     id="default-missing"),
        pytest.param("counts", ["cpts", "b", "counts", 0, 1], "x", "b", COUNT_ROW,
                     id="counts-cell"),
        pytest.param("counts", ["baseline", "a", "counts", 0, 0], -1, "a",
                     "a count row is not a list of 3 integers of at least 0",
                     id="baseline-counts-cell"),
        pytest.param("counts", ["cpts", "t", "alpha"], None, "t", "its table has no 'alpha'",
                     id="alpha-missing"),
        # without counts, an entry is a table of rows
        pytest.param("counts", ["cpts", "t", "counts"], None, "t", "its table has no 'rows'",
                     id="counts-missing"),
        pytest.param("counts", ["cpts", "b"], None, "b", "the file holds no table for it",
                     id="table-missing"),
        pytest.param("counts", ["cardinalities", "a"], None, "a",
                     "its cardinality is missing or not a positive integer",
                     id="cardinality-missing"),
        pytest.param("counts", ["cardinalities", "b"], "2", "b",
                     "its cardinality is missing or not a positive integer",
                     id="cardinality-text"),
        pytest.param("counts", ["bin_edges", "a", 0], "x", "a", "its bin edges are not numbers",
                     id="edge-text"),
        pytest.param("counts", ["bin_edges", "b", 0], True, "b", "its bin edges are not numbers",
                     id="edge-bool"),
        *(pytest.param("counts", ["bin_edges", "b", 0], edge, "b", NOT_FINITE, id=f"edge-{name}")
          for name, edge in (("nan", math.nan), ("infinity", math.inf),
                             ("minus-infinity", -math.inf), ("int-past-float", 10**400))),
        pytest.param("counts", ["bin_edges", "a", 0], 2.0, "a", NOT_TWO_EDGES,
                     id="edges-descending"),
        pytest.param("counts", ["bin_edges", "a", 1], None, "a", NOT_TWO_EDGES,
                     id="edges-too-few"),
        pytest.param("counts", ["bin_edges", "b"], [0.5, 1.5], "b",
                     "its bin edges are not 1 numbers in ascending order", id="edges-too-many"),
    ])
    def test_refuses_missing_keys_and_cells_of_the_wrong_type(self, tmp_path, kind, keys, value,
                                                             node, message):
        # a value of None deletes the key, or the list item
        bn, nb = self.build(kind)
        path = tmp_path / "m.json"
        save_model(bn, path, baseline=nb)
        edit_json(path, keys, value)
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value) == f"model file {path}, node {node!r}: {message}"

    def test_a_node_without_bin_edges_loads(self, tmp_path):
        # a network saved for inference alone has no edges to check
        bn, _ = self.build()
        path = tmp_path / "m.json"
        save_model(bn, path)
        edit_json(path, ["bin_edges", "a"], [])
        assert load_model(path)[0].bin_edges == {**bn.bin_edges, "a": []}

    @pytest.mark.parametrize("keys,value,message", [
        (["target"], "F9", ": its target 'F9' is not one of its nodes"),
        (["nodes"], None, " has no 'nodes'"),
        (["cpts"], None, " has no 'cpts'"),
        (["cardinalities"], None, " has no 'cardinalities'"),
        (["nodes"], "abt", ": its nodes are not a list of names"),
        (["cpts"], [], ": its 'cpts' is not a map"),
        (["nodes", 2], "a", ": node 'a' is listed twice"),
        (["provenance", "a>b"], "v-structure", ": provenance key 'a>b' is not 'parent->child'"),
        (["cpts", "a", "parents"], ["t"], ": the parents in its 'cpts' tables form a cycle"),
        (["baseline", "t", "parents"], ["a"],
         ": the parents in its 'baseline' tables form a cycle"),
    ], ids=["target-unknown", "nodes-missing", "cpts-missing", "cardinalities-missing",
            "nodes-text", "cpts-list", "node-twice", "provenance-arrow", "cycle",
            "baseline-cycle"])
    def test_refuses_malformed_documents(self, tmp_path, keys, value, message):
        bn, nb = self.build()
        path = tmp_path / "m.json"
        save_model(bn, path, baseline=nb)
        edit_json(path, keys, value)
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value) == f"model file {path}{message}"


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 60),
       st.sampled_from([0.5, 1.0, 3.0]))
def test_model_file_stores_each_distinct_row_once(tmp_path_factory, n, seed, card, n_rows,
                                                   alpha):
    truth = synthgen.random_network(n, 0.6, seed=seed, card=card)
    bn = fit_cpts(truth.dag, synthgen.forward_sample(truth, n_rows, seed=seed + 1),
                  laplace_alpha=alpha)
    path = tmp_path_factory.mktemp("model") / "m.json"
    save_model(bn, path)
    first = path.read_bytes()
    cpts = json.loads(first)["cpts"]
    for node, cpt in bn.cpts.items():
        assert len(cpts[node]["counts"]) == len({r.tobytes() for r in cpt.counts})
    bn2, _ = load_model(path)
    for node, cpt in bn.cpts.items():
        assert bn2.cpts[node].rows.tobytes() == cpt.rows.tobytes()
    save_model(bn2, path)
    assert path.read_bytes() == first


@functools.cache
def rebalanced_hours():
    """A small scenario's coded hours, rebalanced as `learn` rebalances them (SMOTE included)."""
    table, truth = synthgen.weather_outage_scenario(synthgen.ScenarioSpec(
        n_factors=3, hours=3000, outage_parents=("F1", "F2"), outage_rate=0.02, seed=3,
        bins=4))
    ds = preprocess.discretize(table, 4)
    balanced = cli._rebalance(ds, cli.PipelineConfig(), seed=3)
    assert np.count_nonzero(balanced.labels) > np.count_nonzero(ds.labels)  # SMOTE added rows
    return truth.dag, preprocess.attach_label_column(balanced, truth.target)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 300),
       st.sampled_from([0.37, 0.5, 1, 3]))
def test_fitted_tables_load_bit_for_bit(tmp_path_factory, n, seed, card, n_rows, alpha):
    truth = synthgen.random_network(n, 0.6, seed=seed, card=card)
    fits = [fit_cpts(truth.dag, synthgen.forward_sample(truth, n_rows, seed=seed + 1), alpha)]
    dag, smoted = rebalanced_hours()
    fits.append(fit_cpts(dag, smoted, alpha))
    # every example holds complete tables and a sparse one (the SMOTE fit's target)
    sparse = [len(c.configs) < math.prod(c.parent_cards) for c in fits[1].cpts.values()]
    assert any(sparse) and not all(sparse)
    for bn in fits:
        path = tmp_path_factory.mktemp("model") / "m.json"
        save_model(bn, path)
        bn2, _ = load_model(path)
        for node, cpt in bn.cpts.items():
            assert cpt.alpha == float(alpha)
            assert_same_table(bn2.cpts[node], cpt)
        again = path.with_name("again.json")
        save_model(bn2, again)
        assert again.read_bytes() == path.read_bytes()


class TestSparseScale:
    def test_ten_million_configurations_stay_small(self, tmp_path):
        # the target's 7 parents at 10 states give 10^7 configurations; a
        # 3000-row fit observes at most 3000 of them, and a dense table of
        # the parent configurations would take 160 MB on its own
        rng = np.random.default_rng(21)
        factors = [f"F{k}" for k in range(1, 8)]
        rows = np.column_stack([rng.integers(0, 10, size=(3000, 7)),
                                rng.integers(0, 2, size=3000)])
        ds = make_ds([*factors, "outage"], rows, cards=[10] * 7 + [2])
        dag = LearnedDag(nodes=[*factors, "outage"],
                         parents={**{f: [] for f in factors}, "outage": factors},
                         target="outage")
        path = tmp_path / "m.json"
        limit = 64 * 2 ** 20
        tracemalloc.start()
        try:
            bn = fit_cpts(dag, ds)
            assert tracemalloc.get_traced_memory()[1] < limit, "fit_cpts"
            save_model(bn, path)
            bn2, _ = load_model(path)
            predict_rows(bn2, rows[:, :7], factors)
            posterior_target(bn2, {f: 3 for f in factors[1:]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit
        assert path.stat().st_size < 2 ** 20


class TestNarrowCodes:
    def test_fit_and_predict_match_int64(self):
        # the target's 3 ten-state parents and its child's 4 code past 255
        truth = synthgen.random_network(5, 0.8, seed=2, card=10, target="X1")
        ds = synthgen.forward_sample(truth, 3000, seed=5)
        assert ds.rows.dtype == code_dtype(ds.cardinalities) == np.uint8
        fits, posteriors = set(), set()
        for dtype in (np.uint8, np.uint16, np.int64):
            data = replace(ds, rows=ds.rows.astype(dtype))
            bn = fit_cpts(truth.dag, data)
            fits.add(tuple((c.configs.tobytes(), c.rows.tobytes(), c.default.tobytes())
                           for c in bn.cpts.values()))
            # strided columns; the target's own column is not read
            posteriors.add(predict_rows(bn, data.rows, data.columns).tobytes())
        assert len(fits) == 1 and len(posteriors) == 1

    def test_predict_rows_refuses_fractional_states(self):
        # 1.7 used to answer as 1, and 0.9 as 0
        bn = synthgen.random_network(3, 0.6, seed=2, card=3, target="X1")
        for rows, message in (([[1.7, 0.9]], "state 1.7 of node 'X2' is not an integer"),
                              ([[2, 0.5]], "state 2.0 of node 'X2' is not an integer"),
                              (np.ones((4, 2)), "state 1.0 of node 'X2' is not an integer")):
            with pytest.raises(ValueError, match=re.escape(message)):
                predict_rows(bn, rows, ["X2", "X3"])
            with pytest.raises(ValueError, match=re.escape(message)):
                posterior_target(bn, dict(zip(["X2", "X3"], np.asarray(rows)[0].tolist())))
        # bools are integers, as in posterior_target; no rows is no state
        assert predict_rows(bn, np.array([[True, False]]), ["X2", "X3"]).tobytes() == \
            predict_rows(bn, [[1, 0]], ["X2", "X3"]).tobytes()
        assert predict_rows(bn, np.empty((0, 2)), ["X2", "X3"]).shape == (0, 3)

    def test_peak_memory_holds_no_widened_matrix(self):
        # a widened int64 copy of six byte columns alone is 48 bytes a row
        n = 100_000
        rng = np.random.default_rng(22)
        factors = [f"F{k}" for k in range(1, 7)]
        rows = rng.integers(0, 10, size=(n, 6)).astype(np.uint8)
        ds = attach_label_column(DiscreteDataset(
            columns=factors, rows=rows,
            labels=(rng.random(n) < 0.3).astype(np.int64),
            bin_edges=[np.arange(1, 10) - 0.5] * 6), "t")
        two_parents = LearnedDag(nodes=ds.columns,
                                 parents={**{f: [] for f in factors}, "t": ["F1", "F2"]},
                                 target="t")
        for dag in (two_parents, naive_bayes_dag(ds.columns, "t")):
            bn = fit_cpts(dag, ds)
            tracemalloc.start()
            try:
                scores = predict_rows(bn, rows, factors)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the two score columns plus two int64 columns
            assert peak < scores.nbytes + 2 * n * np.dtype(np.int64).itemsize

    def test_peak_memory_holds_one_table_index_at_a_time(self):
        # each table's entry index is made in its codes, one table at a time:
        # a table read by codes holds one int64 column and its entries, one
        # read by a single row only its entries (measured 16.03 and 8.70
        # bytes a row; the 2-d gather peaked at 16.71 for the first)
        n = 100_000
        rng = np.random.default_rng(22)
        factors = [f"F{k}" for k in range(1, 7)]
        rows = rng.integers(0, 10, size=(n, 6)).astype(np.uint8)
        ds = attach_label_column(DiscreteDataset(
            columns=factors, rows=rows,
            labels=(rng.random(n) < 0.3).astype(np.int64),
            bin_edges=[np.arange(1, 10) - 0.5] * 6), "t")
        children = LearnedDag(nodes=ds.columns, parents={
            "F1": [], "F2": ["F1"], "F3": ["F2", "t"], "F4": ["t", "F3"], "F5": [],
            "F6": ["t"], "t": ["F1", "F5"]}, target="t")
        for dag, bytes_a_row in ((children, 16.25), (naive_bayes_dag(ds.columns, "t"), 9)):
            bn = fit_cpts(dag, ds)
            tracemalloc.start()
            try:
                scores = predict_rows(bn, rows, factors)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < scores.nbytes + bytes_a_row * n
