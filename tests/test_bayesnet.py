"""CPT fitting, exact inference, the naive Bayes star network, model persistence."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from outagebn import bayesnet, synthgen
from outagebn.bayesnet import (fit_cpts, joint_probability, load_model,
                               posterior_target, predict_rows, save_model)
from outagebn.pcalg import LearnedDag, naive_bayes_dag
from outagebn.preprocess import DiscreteDataset, attach_label_column


def make_ds(columns, rows, labels=None, cards=None):
    rows = np.asarray(rows, dtype=np.int64)
    if cards is None:
        cards = [int(rows[:, c].max()) + 1 for c in range(rows.shape[1])]
    if labels is None:
        labels = np.zeros(rows.shape[0], dtype=np.int64)
    return DiscreteDataset(columns=list(columns), cardinalities=list(cards),
                           rows=rows, labels=np.asarray(labels, dtype=np.int64),
                           bin_edges=[np.arange(1, c) - 0.5 for c in cards])


def oracle_posterior(bn, target, evidence):
    cards = dict(bn.cardinalities)
    return oracles.brute_force_posterior(
        bn.dag.nodes, bn.dag.parents, cards,
        lambda n, ps, s: float(bn.cpts[n].row(list(ps))[s]),
        target, evidence)


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
        with pytest.raises(ValueError):
            fit_cpts(dag, ds, laplace_alpha=0.0)

    def test_missing_column(self):
        ds = make_ds(["x"], [[0]], cards=[2])
        dag = LearnedDag(nodes=["x", "y"], parents={"x": [], "y": []})
        with pytest.raises(ValueError, match="no column"):
            fit_cpts(dag, ds)


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

    def test_fast_path_returns_cpt_row(self):
        dag = LearnedDag(nodes=["a", "b", "e"],
                         parents={"a": [], "b": [], "e": ["a", "b"]},
                         target="e")
        ds = make_ds(["a", "b", "e"],
                     [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]] * 5,
                     cards=[2, 2, 2])
        bn = fit_cpts(dag, ds, laplace_alpha=1.0)
        got = posterior_target(bn, {"a": 1, "b": 0})
        assert np.array_equal(got, bn.cpts["e"].row([1, 0]))

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

        def entry(bn):
            # C-order reshape: first parent most significant
            return lambda n, ps, s: float(bn.cpts[n].table.reshape(
                *bn.cpts[n].parent_cards, bn.cpts[n].card)[(*ps, s)])

        multi_block = ragged = 0
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
                if not has_child and all(p in evidence
                                         for p in bn.dag.parents[target]):
                    continue  # answered from the table row, not enumerated
                got = posterior_target(bn, evidence)
                want = oracles.fsum_posterior(
                    bn.dag.nodes, bn.dag.parents, bn.cardinalities, entry(bn),
                    target, evidence)
                assert np.array_equal(got, np.array(want))
                n_terms = card ** (len(others) - size + 1)
                multi_block += n_terms > 3
                ragged += n_terms > 3 and n_terms % 3 != 0
        assert multi_block >= 20 and ragged >= 10

    def test_posterior_sums_to_one(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            bn = synthgen.random_network(int(rng.integers(2, 6)), 0.5,
                                         seed=trial + 50, target="X1")
            evidence = {"X2": 0} if "X2" in bn.dag.nodes else {}
            post = posterior_target(bn, evidence)
            assert abs(math.fsum(float(v) for v in post) - 1.0) <= 1e-12

    def test_enumeration_cap(self):
        bn = synthgen.random_network(8, 0.3, seed=1, target="X1")
        with pytest.raises(ValueError, match="cap"):
            posterior_target(bn, {}, max_states=4)

    def test_evidence_validation(self):
        bn = synthgen.random_network(3, 0.5, seed=2, target="X1")
        with pytest.raises(ValueError):
            posterior_target(bn, {"X1": 0})
        with pytest.raises(ValueError):
            posterior_target(bn, {"zzz": 0})
        with pytest.raises(ValueError):
            posterior_target(bn, {"X2": 7})

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
                assert np.max(np.abs(batch[r] - single)) <= 1e-12


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


class TestModelFile:
    def build(self):
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
        return bn, fit_cpts(naive_bayes_dag(ds.columns, "t"), ds, laplace_alpha=1.0)

    def test_round_trip_preserves_everything(self, tmp_path):
        bn, nb = self.build()
        path = tmp_path / "m.json"
        save_model(bn, path, baseline=nb)
        bn2, nb2 = load_model(path)
        assert bn2.dag.nodes == bn.dag.nodes
        assert bn2.dag.parents == bn.dag.parents
        assert bn2.dag.provenance == bn.dag.provenance
        assert bn2.dag.target == "t"
        assert len(bn.cpts["t"].configs) == 4  # of 6 configurations
        for node in bn.dag.nodes:
            for part in ("configs", "rows", "default", "table"):
                assert np.array_equal(getattr(bn2.cpts[node], part),
                                      getattr(bn.cpts[node], part))
            assert bn2.bin_edges[node] == bn.bin_edges[node]
        # parents are stored once, in each table's entry
        assert "parents" not in json.loads(path.read_text())
        assert nb2.dag.nodes == bn.dag.nodes
        assert nb2.dag.parents == {"a": ["t"], "b": ["t"], "t": []}
        assert nb2.target == "t" and nb2.bin_edges == bn.bin_edges
        for node in nb.dag.nodes:
            for part in ("configs", "rows", "default"):
                assert np.array_equal(getattr(nb2.cpts[node], part),
                                      getattr(nb.cpts[node], part))
        grid = np.array([[a, b] for a in range(3) for b in range(2)])
        for net, net2 in ((bn, bn2), (nb, nb2)):
            assert predict_rows(net2, grid, ["a", "b"]).tobytes() == \
                predict_rows(net, grid, ["a", "b"]).tobytes()
        for evidence in ({}, {"a": 2}, {"b": 1}, {"a": 2, "b": 0}, {"a": 1, "b": 1}):
            assert posterior_target(bn2, evidence).tobytes() == \
                posterior_target(bn, evidence).tobytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        bn, nb = self.build()
        p1 = tmp_path / "m1.json"
        p2 = tmp_path / "m2.json"
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
        for version in (2, bayesnet.MODEL_VERSION + 1, None):
            doc["version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="re-run `learn`"):
                load_model(path)

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError, match="not a recognized model file"):
            load_model(path)


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
