"""Random networks, forward sampling, and the weather/outage scenario."""

import math
import re

import numpy as np
import pytest

import oracles
from outagebn import synthgen
from outagebn.citest import g_test_ci
from outagebn.pcalg import LearnedDag
from outagebn.preprocess import apply_bins, attach_label_column, discretize
from outagebn.bayesnet import fit_cpts
from outagebn.synthgen import (ScenarioError, ScenarioSpec, forward_sample,
                               random_dag, random_network,
                               weather_outage_scenario)


class TestRandomDag:
    def test_acyclic_always(self):
        for seed in range(40):
            dag = random_dag(6, 0.5, seed=seed)
            dag.topological_order()

    def test_edge_prob_extremes(self):
        none = random_dag(5, 0.0, seed=1)
        assert sum(len(p) for p in none.parents.values()) == 0
        full = random_dag(5, 1.0, seed=1)
        assert sum(len(p) for p in full.parents.values()) == 5 * 4 // 2

    def test_deterministic(self):
        a = random_dag(7, 0.4, seed=9)
        b = random_dag(7, 0.4, seed=9)
        assert a.parents == b.parents

    def test_mean_edge_count(self):
        total = sum(sum(len(p) for p in random_dag(6, 0.4, seed=s).parents.values())
                    for s in range(200))
        mean = total / 200
        assert abs(mean - 0.4 * 15) < 1.0

    def test_custom_names(self):
        dag = random_dag(3, 0.5, seed=2, names=["u", "v", "w"])
        assert dag.nodes == ["u", "v", "w"]


class TestForwardSample:
    def test_shapes_and_range(self):
        bn = random_network(5, 0.5, seed=3)
        ds = forward_sample(bn, 500, seed=4)
        assert ds.rows.shape == (500, 5)
        ds.validate()

    def test_target_becomes_label(self):
        bn = random_network(4, 0.5, seed=5, target="X2")
        ds = forward_sample(bn, 100, seed=6)
        assert "X2" not in ds.columns
        assert len(ds.columns) == 3
        assert set(np.unique(ds.labels)) <= {0, 1}

    def test_deterministic(self):
        bn = random_network(4, 0.5, seed=7)
        a = forward_sample(bn, 200, seed=8)
        b = forward_sample(bn, 200, seed=8)
        assert np.array_equal(a.rows, b.rows)

    def test_root_marginals_match(self):
        bn = random_network(3, 0.0, seed=11)  # fully disconnected
        ds = forward_sample(bn, 40_000, seed=12)
        for k, node in enumerate(bn.dag.nodes):
            freq = np.bincount(ds.rows[:, k], minlength=2) / 40_000
            assert np.max(np.abs(freq - bn.cpts[node].table[0])) < 0.01

    def test_fit_recovers_generating_tables(self):
        bn = random_network(5, 0.5, seed=21)
        ds = forward_sample(bn, 80_000, seed=22)
        dag = LearnedDag(nodes=list(bn.dag.nodes),
                         parents={n: list(p) for n, p in bn.dag.parents.items()})
        refit = fit_cpts(dag, ds, laplace_alpha=1.0)
        for node in dag.nodes:
            assert np.max(np.abs(refit.cpts[node].table
                                 - bn.cpts[node].table)) < 0.02


class TestScenario:
    def test_rate_within_binomial_band(self):
        spec = ScenarioSpec(hours=200_000, outage_rate=0.001, seed=13)
        table, _ = weather_outage_scenario(spec)
        total = int(table.label.sum())
        assert 160 <= total <= 240  # +/- 20% around the expected 200

    def test_zero_parents_label_independent(self):
        spec = ScenarioSpec(n_factors=3, hours=30_000, outage_parents=(),
                            outage_rate=0.01, seed=14)
        table, truth = weather_outage_scenario(spec)
        ds = attach_label_column(discretize(table, 10), "outage")
        for k in range(3):
            res = g_test_ci(ds.rows, k, 3, alpha=0.01,
                            cardinalities=ds.cardinalities)
            assert res.independent
        # constant risk equals the requested rate
        assert truth.cpts["outage"].table[0, 1] == pytest.approx(0.01, rel=1e-6)

    def test_parents_strongly_dependent(self):
        spec = ScenarioSpec(hours=50_000, outage_rate=0.01, seed=15)
        table, _ = weather_outage_scenario(spec)
        ds = attach_label_column(discretize(table, 10), "outage")
        out_col = ds.column_index("outage")
        for parent in spec.outage_parents:
            res = g_test_ci(ds.rows, ds.column_index(parent), out_col,
                            alpha=0.01, cardinalities=ds.cardinalities)
            assert not res.independent

    def test_echo_factors_track_parents(self):
        spec = ScenarioSpec(hours=20_000, seed=16)
        table, truth = weather_outage_scenario(spec)
        assert truth.dag.parents["F3"] == ["F1"]
        assert truth.dag.parents["F4"] == ["F2"]
        corr = np.corrcoef(table.factors["F1"], table.factors["F3"])[0, 1]
        assert corr > 0.6

    def test_truth_target_table_is_generating_risk(self):
        spec = ScenarioSpec(hours=5_000, outage_rate=0.02, seed=17)
        table, truth = weather_outage_scenario(spec)
        cpt = truth.cpts["outage"]
        assert cpt.parents == ["F1", "F2"]
        assert cpt.table.shape == (100, 2)
        assert np.allclose(cpt.table.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(cpt.table > 0)
        # risk is monotone along each parent axis (saturating curve)
        risk = cpt.table[:, 1].reshape(10, 10)
        assert np.all(np.diff(risk, axis=0) >= -1e-12)
        assert np.all(np.diff(risk, axis=1) >= -1e-12)

    def test_mean_risk_calibrated_exactly(self):
        spec = ScenarioSpec(hours=30_000, outage_rate=0.004, seed=18)
        table, truth = weather_outage_scenario(spec)
        # re-code the generated series with the truth's bin edges and read
        # the per-hour risk off the target table; its mean must hit the rate
        cols = ["F1", "F2"]
        edges = [np.asarray(truth.bin_edges[c]) for c in cols]
        coded = apply_bins(edges, [table.factors[c] for c in cols])
        risk = truth.cpts["outage"].table[coded[:, 0] * 10 + coded[:, 1], 1]
        assert float(np.mean(risk)) == pytest.approx(0.004, abs=1e-9)

    def test_deterministic(self):
        spec = ScenarioSpec(hours=4_000, seed=19)
        t1, n1 = weather_outage_scenario(spec)
        t2, n2 = weather_outage_scenario(spec)
        assert np.array_equal(t1.label, t2.label)
        for c in t1.factor_names:
            assert np.array_equal(t1.factors[c], t2.factors[c])
        assert np.array_equal(n1.cpts["outage"].table, n2.cpts["outage"].table)

    def test_hourly_grid(self):
        spec = ScenarioSpec(hours=100, seed=20)
        table, _ = weather_outage_scenario(spec)
        assert table.timestamps.dtype == np.dtype("datetime64[us]")
        deltas = {d.total_seconds() for d in np.diff(table.timestamps).tolist()}
        assert deltas == {3600.0}

    def test_invalid_specs(self):
        with pytest.raises(ScenarioError):
            weather_outage_scenario(ScenarioSpec(outage_rate=0.7, seed=0))
        with pytest.raises(ScenarioError):
            weather_outage_scenario(ScenarioSpec(outage_rate=0.0, seed=0))
        with pytest.raises(ScenarioError):
            weather_outage_scenario(ScenarioSpec(hours=0, seed=0))
        with pytest.raises(ScenarioError):
            weather_outage_scenario(
                ScenarioSpec(outage_parents=("F99",), seed=0))
        with pytest.raises(ScenarioError):
            weather_outage_scenario(
                ScenarioSpec(outage_parents=("F1", "F1"), seed=0))

    def test_factor_count_and_names(self):
        spec = ScenarioSpec(n_factors=4, hours=50, outage_parents=("F2",),
                            outage_rate=0.05, seed=21)
        table, truth = weather_outage_scenario(spec)
        assert table.factor_names == ["F1", "F2", "F3", "F4"]
        assert truth.dag.nodes == ["F1", "F2", "F3", "F4", "outage"]
        # first spare factor becomes the echo of F2
        assert truth.dag.parents["F1"] == ["F2"]


class TestCalibration:
    @pytest.mark.parametrize("n_parents", [0, 1, 2, 3])
    @pytest.mark.parametrize("pooling", [-4.0, 0.0, 2.0])
    def test_matches_full_bisection(self, n_parents, pooling):
        rng = np.random.default_rng([n_parents, int(pooling) + 4])
        for bins in range(2, 11):
            coded = rng.integers(0, bins, size=(1_000, n_parents))
            scores = synthgen._power_mean(coded / (bins - 1), pooling)
            for slope in (5.0, 30.0):
                risk_at = {end: float(np.mean(synthgen._sigmoid(slope * (scores - end))))
                           for end in (-5.0, 40.0)}
                # reachable rates, both ends of the bracket exactly, and
                # the first doubles past either end (unreachable)
                rates = [0.002, 0.3, risk_at[-5.0], risk_at[40.0],
                         float(np.nextafter(risk_at[-5.0], 2.0)),
                         float(np.nextafter(risk_at[40.0], -1.0))]
                for rate in rates:
                    try:
                        want = oracles.calibrate_offset_reference(scores, slope, rate)
                    except ScenarioError as exc:
                        with pytest.raises(ScenarioError, match=re.escape(str(exc))):
                            synthgen._calibrate_offset(scores, slope, rate)
                        continue
                    got = synthgen._calibrate_offset(scores, slope, rate)
                    assert got == want, (bins, slope, rate)

    def test_no_parents_scenario(self):
        spec = ScenarioSpec(hours=2_000, outage_parents=(), outage_rate=0.01, seed=5)
        _, truth = weather_outage_scenario(spec)
        scores = np.zeros(spec.hours)
        offset = oracles.calibrate_offset_reference(scores, spec.risk_slope, 0.01)
        assert truth.cpts["outage"].table[0, 1] == \
            float(synthgen._sigmoid(np.array([-spec.risk_slope * offset]))[0])
        with pytest.raises(ScenarioError, match="unreachable"):
            synthgen._calibrate_offset(scores, 5.0, 1.0)

    def test_work_bounded_by_distinct_scores(self, monkeypatch):
        distinct: list[int] = []  # distinct score count seen by each calibration
        sizes: list[int] = []  # input size of each sigmoid call made inside one
        active: list[bool] = []
        real_sigmoid = synthgen._sigmoid
        real_calibrate = synthgen._calibrate_offset

        def sigmoid(z):
            if active:
                sizes.append(np.size(z))
            return real_sigmoid(z)

        def calibrate(scores, slope, rate):
            distinct.append(len(np.unique(scores)))
            active.append(True)
            try:
                return real_calibrate(scores, slope, rate)
            finally:
                active.pop()

        monkeypatch.setattr(synthgen, "_sigmoid", sigmoid)
        monkeypatch.setattr(synthgen, "_calibrate_offset", calibrate)
        weather_outage_scenario(ScenarioSpec(hours=50_000, seed=23))
        assert len(distinct) == 1 and 0 < len(sizes) <= 70
        assert max(sizes) <= distinct[0]
