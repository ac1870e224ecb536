"""Likelihood-ratio independence testing and graphical separation."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from outagebn import citest, preprocess, synthgen
from outagebn.citest import (CITestResult, chi2_upper_tail, d_separated,
                             g_test_ci, independence_oracle)
from outagebn.pcalg import LearnedDag, learn_skeleton
from outagebn.preprocess import DiscreteDataset

# Frozen from the rational/textbook computation in oracles.g2_two_by_two.
G2_SPLIT_TABLE = 20.929925750581912


def table_to_matrix(table):
    rows = []
    for i, row in enumerate(table):
        for j, count in enumerate(row):
            rows.extend([[i, j]] * count)
    return np.array(rows)


class TestGStatistic:
    def test_frozen_two_by_two(self):
        data = table_to_matrix([[30, 10], [10, 30]])
        res = g_test_ci(data, 0, 1, alpha=0.05, cardinalities=[2, 2])
        assert res.statistic == pytest.approx(G2_SPLIT_TABLE, abs=1e-9)
        assert abs(res.statistic - 20.93) < 0.01
        assert res.dof == 1
        assert res.p_value < 1e-4
        assert not res.independent

    def test_matches_oracle_on_random_tables(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            table = rng.integers(1, 40, size=shape)
            res = g_test_ci(table_to_matrix(table), 0, 1,
                            cardinalities=shape, min_samples_per_dof=0.0)
            assert res.statistic == pytest.approx(
                oracles.g2_two_by_two(table.tolist()), rel=1e-12)

    def test_exact_factorization_gives_zero(self):
        # every row proportional: observed == expected exactly
        data = table_to_matrix([[20, 20], [20, 20]])
        res = g_test_ci(data, 0, 1, cardinalities=[2, 2])
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert res.independent

    def test_chi2_critical_value(self):
        assert chi2_upper_tail(3.841, 1) == pytest.approx(0.05, abs=1e-3)

    def test_symmetry_bit_identical(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 3, size=(500, 4))
        a = g_test_ci(data, 0, 2, (1, 3), cardinalities=[3] * 4)
        b = g_test_ci(data, 2, 0, (3, 1), cardinalities=[3] * 4)
        assert a.statistic == b.statistic
        assert a.dof == b.dof
        assert a.p_value == b.p_value
        assert a.independent == b.independent

    def test_duplication_scales_statistic(self):
        rng = np.random.default_rng(9)
        data = rng.integers(0, 3, size=(300, 3))
        once = g_test_ci(data, 0, 1, (2,), cardinalities=[3] * 3,
                         min_samples_per_dof=0.0)
        twice = g_test_ci(np.vstack([data, data]), 0, 1, (2,),
                          cardinalities=[3] * 3, min_samples_per_dof=0.0)
        assert twice.statistic == pytest.approx(2 * once.statistic, rel=1e-9)
        assert twice.dof == once.dof

    def test_dof_counts_only_nonempty_levels(self):
        # second variable declared ternary but level 2 never appears
        data = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 10)
        res = g_test_ci(data, 0, 1, cardinalities=[2, 3],
                        min_samples_per_dof=0.0)
        assert res.dof == 1

    def test_conditional_independence_detected(self):
        # x -> z -> y chain: dependent marginally, independent given z
        rng = np.random.default_rng(4)
        n = 8000
        x = rng.integers(0, 2, size=n)
        z = np.where(rng.random(n) < 0.9, x, 1 - x)
        y = np.where(rng.random(n) < 0.9, z, 1 - z)
        data = np.column_stack([x, y, z])
        assert not g_test_ci(data, 0, 1, cardinalities=[2] * 3).independent
        assert g_test_ci(data, 0, 1, (2,), cardinalities=[2] * 3).independent

    def test_sparse_guard_abstains(self):
        rng = np.random.default_rng(5)
        data = np.column_stack([rng.integers(0, 10, size=50),
                                rng.integers(0, 10, size=50)])
        res = g_test_ci(data, 0, 1, cardinalities=[10, 10])
        assert res.independent
        assert res.p_value == 1.0
        # contract: the reported decision always agrees with p vs alpha
        assert res.independent == (res.p_value > 0.05)

    def test_pearson_variant(self):
        data = table_to_matrix([[30, 10], [10, 30]])
        res = g_test_ci(data, 0, 1, cardinalities=[2, 2], method="pearson")
        # (|O-E|)^2/E summed: each cell (10)^2/20 = 5 -> 20
        assert res.statistic == pytest.approx(20.0, rel=1e-12)
        assert not res.independent

    def test_input_validation(self):
        data = np.zeros((10, 3), dtype=int)
        cards = [1, 1, 1]
        with pytest.raises(ValueError):
            g_test_ci(data, 0, 0, cardinalities=cards)
        with pytest.raises(ValueError):
            g_test_ci(data, 0, 1, (0,), cardinalities=cards)
        with pytest.raises(ValueError):
            g_test_ci(data, 0, 1, alpha=1.5, cardinalities=cards)
        with pytest.raises(ValueError):
            g_test_ci(data, 0, 1, cardinalities=cards, method="chi")
        with pytest.raises(ValueError):
            g_test_ci(np.zeros((0, 2), dtype=int), 0, 1, cardinalities=[2, 2])

    def test_conditioning_space_past_int64_refused(self):
        rng = np.random.default_rng(19)
        data = rng.integers(0, 10, size=(50, 21))
        cards = [10] * 21
        # 18 ten-state columns code; 19 would wrap
        g_test_ci(data, 0, 1, list(range(2, 20)), cardinalities=cards)
        with pytest.raises(ValueError, match=r"conditioning columns \[2, 3, .*, 20\]: "
                                             "10000000000000000000 configurations"):
            g_test_ci(data, 0, 1, list(range(2, 21)), cardinalities=cards)

    def test_matches_per_configuration_oracle(self):
        # bit-equal to tabulating each conditioning configuration on its own
        def check(data, i, j, given, cards, method, floor, trial):
            res = g_test_ci(data, i, j, given, cardinalities=cards,
                            method=method, min_samples_per_dof=floor)
            want = oracles.ci_per_configuration(data, i, j, given, cards,
                                                method, floor,
                                                tail=chi2_upper_tail)
            assert (res.statistic, res.dof, res.p_value) == want, trial
            # scipy's tail differs in the last bits (TestChi2UpperTail), but
            # never in the decision
            scipy_p = oracles.ci_per_configuration(data, i, j, given, cards,
                                                   method, floor)[2]
            assert res.independent == (res.p_value > 0.05) == (scipy_p > 0.05)

        # 0-3 conditioning columns, declared levels that never occur,
        # columns stuck at one value (tables collapsing to one row)
        rng = np.random.default_rng(47)
        for trial in range(400):
            cards = rng.integers(1, 7, size=5)
            seen = [int(rng.integers(1, c + 1)) for c in cards]
            n = int(rng.integers(1, 500))
            data = np.column_stack([rng.integers(0, s, size=n) for s in seen])
            i, j, *given = (int(c) for c in
                            rng.permutation(5)[:2 + int(rng.integers(0, 4))])
            check(data, i, j, given, cards, ("g2", "pearson")[trial % 2],
                  (0.0, 10.0)[trial % 3 == 0], trial)

        # 8-13-state columns beside a 2-state one and 2k-5k rows, under both
        # methods and both floors. Two trials in three condition on 2-5
        # columns: tables of many more cells than rows (the sorted-code
        # path). The third tests columns 1 and 3, 13 near-uniform states
        # each, given at most the 2-state column: configurations holding
        # more than 128 terms (numpy's pairwise-sum block).
        rng = np.random.default_rng(53)
        sparse_tables = big_configurations = 0
        for trial in range(24):
            cards = [2, 13, *(int(c) for c in rng.integers(8, 14, size=5))]
            cards[3] = 13
            n = int(rng.integers(2000, 5001))
            # skewed even columns give both heavy and single-row
            # configurations; y leans on x so the statistics are far from 0
            data = np.column_stack([
                rng.choice(c, size=n, p=rng.dirichlet(np.full(c, (0.4, 4.0)[k % 2])))
                for k, c in enumerate(cards)])
            if trial % 3:
                i, j, *given = (int(c) for c in
                                rng.permutation(7)[:4 + int(rng.integers(0, 4))])
            else:
                i, j = (int(c) for c in rng.permutation([1, 3]))
                given = [0][:trial % 2]
            lean = rng.random(n) < 0.3
            data[lean, j] = data[lean, i] % cards[j]
            check(data, i, j, given, cards, ("g2", "pearson")[trial % 2],
                  (0.0, 10.0)[trial // 2 % 2], f"wide {trial}")
            configs = np.unique(data[:, given], axis=0, return_inverse=True)[1]
            sparse_tables += (configs.max() + 1) * cards[i] * cards[j] > 10 * n
            cells = np.unique(np.column_stack([configs.ravel(), data[:, [i, j]]]),
                              axis=0)
            big_configurations += np.bincount(cells[:, 0]).max() > 128
        assert sparse_tables >= 6 and big_configurations >= 6

    def test_out_of_range_values_refused(self):
        # a state equal to the cardinality once landed in the next
        # configuration's cells or failed a reshape, and a negative one
        # failed inside bincount; every one now names its column
        rng = np.random.default_rng(61)
        data = rng.integers(0, 2, size=(400, 3))
        cards = [2, 2, 2]
        g_test_ci(data, 0, 1, (2,), cardinalities=cards)
        last = int(np.flatnonzero(data[:, 2] == 1)[0])
        first = int(np.flatnonzero(data[:, 2] == 0)[0])
        for column in range(3):
            for row in (first, last):
                for state in (2, -1):
                    bad = data.copy()
                    bad[row, column] = state
                    with pytest.raises(ValueError, match=rf"^column {column} holds "
                                       rf"state {state} outside range\(2\)$"):
                        g_test_ci(bad, 0, 1, (2,), cardinalities=cards)
                    with pytest.raises(ValueError, match=rf"^column '{'abc'[column]}' "
                                       "holds state"):
                        citest.dataset_ci(dataset(bad, cards))

    def test_abstaining_test_skips_the_tail(self, monkeypatch):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 10, size=(50, 2))
        abstained = g_test_ci(data, 0, 1, cardinalities=[10, 10])
        assert abstained.dof * citest.MIN_SAMPLES_PER_DOF > 50
        calls = []
        monkeypatch.setattr(citest, "chi2_upper_tail",
                            lambda *args: calls.append(args) or 0.0)
        assert g_test_ci(data, 0, 1, cardinalities=[10, 10]) == \
            CITestResult(abstained.statistic, abstained.dof, 1.0, True)
        assert calls == []
        g_test_ci(data, 0, 1, cardinalities=[10, 10], min_samples_per_dof=0.0)
        assert calls == [(abstained.statistic, abstained.dof)]

    def test_calibration_near_alpha(self):
        # independent binary pairs: rejection rate should sit near alpha
        rng = np.random.default_rng(100)
        rejections = 0
        trials = 200
        for _ in range(trials):
            data = rng.integers(0, 2, size=(2000, 2))
            if not g_test_ci(data, 0, 1, alpha=0.05,
                             cardinalities=[2, 2]).independent:
                rejections += 1
        assert 0.02 <= rejections / trials <= 0.08


def dataset(rows, cards, names="abcdefghijklmnop"):
    return DiscreteDataset(columns=list(names[:len(cards)]), rows=rows,
                           labels=np.zeros(len(rows), dtype=np.int64),
                           bin_edges=[np.arange(c - 1, dtype=float) for c in cards])


def fresh_result(ds, x, y, given, alpha=0.05, **kwargs):
    """The test as one g_test_ci call, with no configuration index passed in."""
    col = ds.column_index
    return g_test_ci(ds.rows, col(x), col(y), [col(g) for g in sorted(given)],
                     alpha, cardinalities=ds.cardinalities, **kwargs)


class TestDatasetCi:
    @pytest.fixture
    def recorded(self, monkeypatch):
        """Every CITestResult a dataset_ci callable gets, in call order."""
        results = []

        def record(*args, **kwargs):
            results.append(g_test_ci(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(citest, "g_test_ci", record)
        return results

    def test_shuffled_queries_match_fresh_tests(self, recorded):
        # queries that go back to smaller sets, repeat sets and reorder them
        # each get the result of a test coded from scratch
        results = recorded
        rng = np.random.default_rng(71)
        cards = [3, 10, 2, 7, 10, 4]
        ds = dataset(np.column_stack([rng.integers(0, c, size=3000) for c in cards]),
                     cards)
        queries = []
        for _ in range(150):
            x, y, *given = rng.permutation(ds.columns)[:2 + int(rng.integers(0, 4))]
            queries.append((str(x), str(y), frozenset(str(g) for g in given)))
        for method in ("g2", "pearson"):
            ci = citest.dataset_ci(ds, 0.05, method=method)
            del results[:]
            answers = [ci(*q) for q in queries]
            fresh = [fresh_result(ds, *q, method=method) for q in queries]
            assert results == fresh
            assert answers == [r.independent for r in fresh]

    def test_two_datasets_share_no_entries(self, recorded):
        results = recorded
        rng = np.random.default_rng(73)
        cards = [4, 4, 4, 4]
        one = dataset(rng.integers(0, 4, size=(800, 4)), cards)
        two = dataset(np.where(rng.random((800, 4)) < 0.5, one.rows, 3 - one.rows), cards)
        ci_one, ci_two = citest.dataset_ci(one), citest.dataset_ci(two)
        for given in ({"c"}, {"c"}, {"c", "d"}, {"d"}, {"c", "d"}):
            for ds, ci in ((one, ci_one), (two, ci_two)):
                del results[:]
                ci("a", "b", frozenset(given))
                assert results == [fresh_result(ds, "a", "b", given)]

    def test_narrow_codes_match_int64(self, recorded):
        # three ten-state conditioning columns code past 255; a uint8 code
        # would wrap there
        results = recorded
        rng = np.random.default_rng(75)
        cards = [10, 10, 2, 10, 10, 4]
        wide = np.column_stack([rng.integers(0, c, size=4000) for c in cards])
        wide[:, 2] = (wide[:, 0] + wide[:, 1] + rng.integers(0, 3, size=4000)) % 2
        queries = [("a", "b", frozenset()), ("c", "f", frozenset("abd")),
                   ("a", "c", frozenset("bde")), ("e", "f", frozenset("abcd"))]
        seen = set()
        for dtype in (np.uint8, np.uint16, np.int64):
            ds = dataset(wide.astype(dtype), cards)
            del results[:]
            answers = [citest.dataset_ci(ds)(*q) for q in queries]
            fresh = [fresh_result(ds, *q) for q in queries]
            assert results == fresh
            seen.add((tuple(answers), tuple((r.statistic, r.dof, r.p_value) for r in fresh)))
        assert len(seen) == 1

    def test_skeleton_unchanged_by_the_coding(self):
        # the cached callable gives the skeleton of one uncoded test per query
        def uncached(ds, alpha):
            return lambda x, y, given: fresh_result(ds, x, y, given, alpha).independent

        from test_acceptance import _strong_binary_network
        fixtures = [(synthgen.forward_sample(_strong_binary_network(), 20_000,
                                             seed=seed), 0.01) for seed in range(3)]
        table, _ = synthgen.weather_outage_scenario(
            synthgen.ScenarioSpec(hours=20_000, seed=3))
        fixtures.append((preprocess.attach_label_column(preprocess.discretize(table, 10)),
                         0.05))
        for ds, alpha in fixtures:
            got = learn_skeleton(citest.dataset_ci(ds, alpha), ds.columns)
            want = learn_skeleton(uncached(ds, alpha), ds.columns)
            assert (got.undirected, got.sepsets) == (want.undirected, want.sepsets)


def assert_matches_scipy(statistic, dof):
    # relative error at most 1e-10 wherever the tail exceeds 1e-12; below
    # that, an absolute error at most 1e-22
    want = oracles.chi2_upper_tail(statistic, dof)
    got = chi2_upper_tail(statistic, dof)
    assert abs(got - want) <= 1e-10 * max(want, 1e-12), (statistic, dof, got, want)
    return got


class TestChi2UpperTail:
    def test_matches_scipy_and_decreases(self):
        rng = np.random.default_rng(81)
        dofs = [*range(1, 201), *(int(d) for d in rng.integers(201, 81_001, 60))]
        for dof in dofs:
            crit = oracles.chi2_critical_value(dof, 0.05)
            stats = sorted([*np.linspace(0.01 * dof, 5 * dof, 40),
                            *(crit * (1 + e) for e in
                              (-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3))])
            tails = [assert_matches_scipy(float(x), dof) for x in stats]
            assert all(a >= b for a, b in zip(tails, tails[1:])), dof

    @given(dof=st.integers(1, 81_000),
           ratio=st.floats(1e-4, 20.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_differential_against_scipy(self, dof, ratio):
        assert_matches_scipy(ratio * dof, dof)

    def test_edges(self):
        for statistic, dof in [(3.0, 0), (3.0, -2), (0.0, 4), (-1.0, 4),
                               (-math.inf, 4), (5e-324, 1)]:
            assert chi2_upper_tail(statistic, dof) == 1.0
        for dof in (1, 2, 81_000):
            assert chi2_upper_tail(math.inf, dof) == 0.0
            # the tail underflows to 0.0 without an overflow on the way
            assert chi2_upper_tail(1e300, dof) == 0.0
            assert chi2_upper_tail(sys.float_info.max, dof) == 0.0


def chain_dag():
    return LearnedDag(nodes=["a", "b", "c"],
                      parents={"a": [], "b": ["a"], "c": ["b"]})


def collider_dag():
    return LearnedDag(nodes=["a", "b", "c"],
                      parents={"a": [], "b": [], "c": ["a", "b"]})


class TestDSeparation:
    def test_chain(self):
        dag = chain_dag()
        assert not d_separated(dag, "a", "c")
        assert d_separated(dag, "a", "c", {"b"})

    def test_collider(self):
        dag = collider_dag()
        assert d_separated(dag, "a", "b")
        assert not d_separated(dag, "a", "b", {"c"})

    def test_collider_descendant_opens(self):
        dag = LearnedDag(nodes=["a", "b", "c", "d"],
                         parents={"a": [], "b": [], "c": ["a", "b"],
                                  "d": ["c"]})
        assert not d_separated(dag, "a", "b", {"d"})

    def test_validation(self):
        dag = chain_dag()
        with pytest.raises(ValueError):
            d_separated(dag, "a", "zzz")
        with pytest.raises(ValueError):
            d_separated(dag, "a", "a")
        with pytest.raises(ValueError):
            d_separated(dag, "a", "c", {"a"})

    def test_against_brute_force_paths(self):
        # the reachability walk must agree with explicit path blocking
        rng = np.random.default_rng(23)
        for trial in range(120):
            n = int(rng.integers(3, 7))
            dag = synthgen.random_dag(n, float(rng.uniform(0.2, 0.8)),
                                      seed=trial)
            nodes = dag.nodes
            for _ in range(12):
                x, y = [nodes[int(k)] for k in
                        rng.choice(n, size=2, replace=False)]
                rest = [v for v in nodes if v not in (x, y)]
                size = int(rng.integers(0, len(rest) + 1))
                given = {rest[int(k)] for k in
                         rng.choice(len(rest), size=size, replace=False)} \
                    if rest and size else set()
                got = d_separated(dag, x, y, given)
                want = oracles.brute_force_d_separated(dag.parents, x, y, given)
                assert got == want, (dag.parents, x, y, given)

    def test_oracle_callable_matches(self):
        dag = collider_dag()
        ci = independence_oracle(dag)
        assert ci("a", "b", frozenset())
        assert not ci("a", "b", frozenset({"c"}))
