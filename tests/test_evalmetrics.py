"""Threshold metrics, best-F1 sweep, validation split."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from outagebn.evalmetrics import (ConfusionCounts, confusion_at, prf1,
                                  split_validation, sweep_best_f1,
                                  write_report_csv)
from outagebn.preprocess import DiscreteDataset


def make_ds(n, labels):
    return DiscreteDataset(columns=["x"], cardinalities=[4],
                           rows=np.zeros((n, 1), dtype=np.int64),
                           labels=np.asarray(labels, dtype=np.int64),
                           bin_edges=[np.array([0.5, 1.5, 2.5])])


class TestConfusion:
    def test_threshold_is_inclusive(self):
        counts = confusion_at([0.5, 0.49], [1, 1], 0.5)
        assert (counts.tp, counts.fn) == (1, 1)

    def test_all_counted(self):
        probs = [0.1, 0.9, 0.6, 0.2]
        labels = [0, 1, 0, 1]
        c = confusion_at(probs, labels, 0.5)
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            confusion_at([0.5], [1], 1.1)
        with pytest.raises(ValueError):
            confusion_at([1.5], [1], 0.5)
        with pytest.raises(ValueError):
            confusion_at([0.5], [2], 0.5)
        with pytest.raises(ValueError):
            confusion_at([], [], 0.5)
        with pytest.raises(ValueError):
            confusion_at([float("nan")], [1], 0.5)


class TestPrf1:
    def test_textbook_case(self):
        p, r, f1 = prf1(ConfusionCounts(tp=8, fp=2, tn=80, fn=10))
        assert p == 0.8
        assert r == pytest.approx(8 / 18, rel=1e-15)
        assert f1 == pytest.approx(2 * 8 / (2 * 8 + 2 + 10), rel=1e-15)

    def test_zero_conventions(self):
        assert prf1(ConfusionCounts(0, 0, 5, 0)) == (0.0, 0.0, 0.0)
        assert prf1(ConfusionCounts(0, 3, 5, 0)) == (0.0, 0.0, 0.0)
        assert prf1(ConfusionCounts(0, 0, 5, 3)) == (0.0, 0.0, 0.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            prf1(ConfusionCounts(-1, 0, 0, 0))

    def test_exact_against_rational_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            tp, fp, fn = (int(v) for v in rng.integers(0, 500, size=3))
            p, r, f1 = prf1(ConfusionCounts(tp, fp, 0, fn))
            ep, er, ef1 = oracles.rational_prf1(tp, fp, fn)
            assert p == float(ep)
            assert r == float(er)
            assert f1 == float(ef1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_exact_against_rational_oracle_hypothesis(self, tp, fp, fn):
        p, r, f1 = prf1(ConfusionCounts(tp, fp, 0, fn))
        ep, er, ef1 = oracles.rational_prf1(tp, fp, fn)
        assert (p, r, f1) == (float(ep), float(er), float(ef1))

    def test_f1_between_precision_and_recall(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            tp = int(rng.integers(1, 100))
            fp = int(rng.integers(0, 100))
            fn = int(rng.integers(0, 100))
            p, r, f1 = prf1(ConfusionCounts(tp, fp, 0, fn))
            assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12


class TestSweep:
    def test_best_on_separable_data(self):
        probs = [0.1, 0.2, 0.8, 0.9]
        labels = [0, 0, 1, 1]
        report = sweep_best_f1(probs, labels)
        assert prf1(report.best)[2] == 1.0
        # ties on perfect F1 resolve to the lowest workable threshold
        assert report.best_threshold == pytest.approx(0.21)

    def test_default_grid_has_101_points(self):
        report = sweep_best_f1([0.5], [1])
        assert len(report.rows) == 101
        assert report.thresholds[0] == 0.0
        assert report.thresholds[-1] == 1.0

    def test_tie_takes_lower_threshold(self):
        report = sweep_best_f1([0.5, 0.5], [1, 1], grid=[0.1, 0.2, 0.3])
        assert report.best_threshold == 0.1

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_best_f1([0.5], [1], grid=[])
        with pytest.raises(ValueError):
            sweep_best_f1([0.5], [1], grid=[0.2, 0.1])
        with pytest.raises(ValueError):
            sweep_best_f1([0.5], [1], grid=[0.5, 1.5])

    def test_counts_consistent_at_every_threshold(self):
        rng = np.random.default_rng(31)
        labels = (rng.random(200) < 0.3).astype(int)
        # the second set sits exactly on grid points, where >= decides
        for probs in (rng.random(200), rng.integers(0, 101, size=200) / 100):
            report = sweep_best_f1(probs, labels)
            for t, row in zip(report.thresholds, report.rows, strict=True):
                assert row.tp + row.fp + row.tn + row.fn == 200
                assert confusion_at(probs, labels, t) == row

    def test_report_csv_format(self, tmp_path):
        report = sweep_best_f1([0.1, 0.9], [0, 1], grid=[0.0, 0.5, 1.0])
        path = tmp_path / "r.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "threshold,tp,fp,tn,fn,precision,recall,f1"
        assert len(lines) == 4
        assert lines[2].startswith("0.5,1,0,1,0,1.0,1.0,1.0")


class TestSplit:
    def test_all_positives_kept_plus_sampled_negatives(self):
        labels = [1] * 10 + [0] * 990
        ds = make_ds(1000, labels)
        train, val = split_validation(ds, 0.05, seed=3)
        assert int(val.labels.sum()) == 10
        assert val.n_rows == 50  # ceil(0.05 * 1000)
        assert train.n_rows == 950
        assert int(train.labels.sum()) == 0

    def test_more_positives_than_quota(self):
        labels = [1] * 100 + [0] * 100
        ds = make_ds(200, labels)
        train, val = split_validation(ds, 0.05, seed=1)
        assert val.n_rows == 100
        assert int(val.labels.sum()) == 100

    def test_no_positives_falls_back_with_warning(self, caplog):
        ds = make_ds(100, [0] * 100)
        with caplog.at_level("WARNING", logger="outagebn.evalmetrics"):
            train, val = split_validation(ds, 0.1, seed=2)
        assert val.n_rows == 10
        assert any("plain uniform split" in r.message for r in caplog.records)

    def test_plain_split_sizes(self):
        # without positives the split is a plain uniform sample of the quota
        ds = make_ds(100, [0] * 100)
        train, val = split_validation(ds, 0.25, seed=5)
        assert val.n_rows == 25
        assert train.n_rows == 75

    def test_partition_is_exact(self):
        rng = np.random.default_rng(6)
        labels = (rng.random(400) < 0.08).astype(int)
        ds = DiscreteDataset(columns=["x"], cardinalities=[10],
                             rows=rng.integers(0, 10, size=(400, 1)),
                             labels=labels,
                             bin_edges=[np.arange(1, 10) - 0.5])
        train, val = split_validation(ds, 0.05, seed=8)
        assert train.n_rows + val.n_rows == 400
        # row multiset is preserved
        both = np.sort(np.concatenate([train.rows[:, 0], val.rows[:, 0]]))
        assert np.array_equal(both, np.sort(ds.rows[:, 0]))

    def test_deterministic(self):
        ds = make_ds(300, [1] * 5 + [0] * 295)
        a = split_validation(ds, 0.05, seed=11)
        b = split_validation(ds, 0.05, seed=11)
        assert np.array_equal(a[1].labels, b[1].labels)
        assert np.array_equal(a[1].rows, b[1].rows)

    def test_fraction_validation(self):
        ds = make_ds(10, [1] + [0] * 9)
        with pytest.raises(ValueError):
            split_validation(ds, 0.0)
        with pytest.raises(ValueError):
            split_validation(ds, 1.0)
