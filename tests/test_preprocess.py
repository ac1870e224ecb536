"""Discretization and rebalancing contracts."""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outagebn import preprocess
from outagebn.ingest import TimeSeriesTable
from outagebn.preprocess import (DiscreteDataset, ImbalanceError,
                                 SynthesisError, apply_bins,
                                 attach_label_column, discretize,
                                 downsample_majority, equal_width_edges,
                                 smote_upsample)

T0 = datetime(2021, 1, 1, tzinfo=timezone.utc)


def make_table(columns: dict, label=None):
    n = len(next(iter(columns.values())))
    return TimeSeriesTable(
        [T0 + timedelta(hours=k) for k in range(n)],
        {k: np.asarray(v, dtype=float) for k, v in columns.items()},
        None if label is None else np.asarray(label, dtype=np.int64),
    )


def make_ds(rows, labels, cards=None):
    rows = np.asarray(rows, dtype=np.int64)
    if cards is None:
        cards = [int(rows[:, c].max()) + 1 for c in range(rows.shape[1])]
    return DiscreteDataset(
        columns=[f"c{k}" for k in range(rows.shape[1])],
        cardinalities=list(cards),
        rows=rows,
        labels=np.asarray(labels, dtype=np.int64),
        bin_edges=[np.arange(1, c) - 0.5 for c in cards],
    )


class TestEdgesAndBins:
    def test_two_bins_split_at_midpoint(self):
        edges = equal_width_edges([0.0, 5.0, 10.0], 2)
        assert list(edges) == [5.0]
        ds = discretize(make_table({"x": [0.0, 5.0, 10.0]}), 2)
        # the cut-point itself goes to the higher bin
        assert list(ds.rows[:, 0]) == [0, 1, 1]

    def test_ten_bins_uniform(self):
        values = np.linspace(0, 1, 1001)
        ds = discretize(make_table({"x": values}), 10)
        assert ds.cardinalities == [10]
        assert ds.rows[:, 0].min() == 0
        assert ds.rows[:, 0].max() == 9
        # equal-width bins over uniform data stay near-equally filled
        counts = np.bincount(ds.rows[:, 0], minlength=10)
        assert counts.min() >= 90

    def test_constant_column_single_bin(self):
        ds = discretize(make_table({"x": [3.0, 3.0, 3.0]}), 10)
        assert list(ds.rows[:, 0]) == [0, 0, 0]
        assert len(ds.bin_edges[0]) == 9

    def test_training_data_recodes_identically(self):
        rng = np.random.default_rng(2)
        table = make_table({"a": rng.normal(size=200), "b": rng.normal(size=200)})
        ds = discretize(table, 10)
        again = apply_bins(ds.bin_edges, [table.factors["a"], table.factors["b"]])
        assert np.array_equal(again, ds.rows)

    def test_clamping_out_of_range(self):
        ds = discretize(make_table({"x": [0.0, 10.0]}), 10)
        coded = apply_bins(ds.bin_edges, [np.array([-100.0, 1e9])])
        assert coded.tolist() == [[0], [9]]

    def test_max_goes_to_top_bin(self):
        ds = discretize(make_table({"x": [0.0, 1.0, 10.0]}), 10)
        assert ds.rows[2, 0] == 9

    def test_dimension_mismatch(self):
        ds = discretize(make_table({"x": [0.0, 1.0]}), 4)
        with pytest.raises(ValueError, match="columns"):
            apply_bins(ds.bin_edges, [np.zeros(3), np.zeros(3)])
        with pytest.raises(ValueError, match="2-D"):
            apply_bins(ds.bin_edges, [np.zeros((1, 1))])
        with pytest.raises(ValueError, match="length"):
            apply_bins(ds.bin_edges * 2, [np.zeros(3), np.zeros(4)])
        with pytest.raises(ValueError, match="at least one"):
            apply_bins([], [])

    def test_codes_across_row_blocks(self):
        # more rows than one block, the last block partial
        rng = np.random.default_rng(4)
        cols = [rng.normal(size=150_001) * s for s in (1.0, 5.0, 0.1)]
        edges = [equal_width_edges(c, b) for c, b in zip(cols, (10, 4, 7))]
        coded = apply_bins(edges, cols)
        assert coded.dtype == np.int64 and coded.flags.c_contiguous
        assert np.array_equal(coded, np.column_stack(
            [np.digitize(c, e) for c, e in zip(cols, edges)]))

    def test_bounds_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            vals = rng.normal(size=50) * rng.uniform(0.1, 100)
            bins = int(rng.integers(2, 12))
            ds = discretize(make_table({"x": vals}), bins)
            assert ds.rows[:, 0].min() >= 0
            assert ds.rows[:, 0].max() <= bins - 1
            ds.validate()


class TestConfigCodes:
    def test_matches_c_order_ravel(self):
        # first column most significant, like a C-order multi-index
        rng = np.random.default_rng(3)
        cards = [3, 4, 2]
        cols = [rng.integers(c, size=50) for c in cards]
        want = np.ravel_multi_index(cols, cards)
        assert np.array_equal(preprocess.config_codes(cols, cards, 50), want)

    def test_shared_int_column_and_empty(self):
        cols = [np.array([0, 1, 2]), 1]
        assert preprocess.config_codes(cols, [3, 2], 3).tolist() == [1, 3, 5]
        got = preprocess.config_codes([2, 1], [3, 2], 3)
        assert type(got) is int and got == 5
        got = preprocess.config_codes([], [], 4)
        assert got.dtype == np.int64 and got.tolist() == [0, 0, 0, 0]

    def test_eighteen_ten_state_columns_match_python_ints(self):
        # 10**18 configurations still fit int64; 10**19 do not
        rng = np.random.default_rng(18)
        cols = [rng.integers(10, size=200) for _ in range(18)]
        want = [int("".join(map(str, digits))) for digits in zip(*cols)]
        assert preprocess.config_codes(cols, [10] * 18, 200).tolist() == want
        assert preprocess.code_space([10] * 18, "t") == 10 ** 18
        with pytest.raises(ValueError, match="t: 10000000000000000000 configurations "
                                             "of 19 columns do not fit an int64 code"):
            preprocess.code_space([10] * 19, "t")
        with pytest.raises(ValueError, match="int64"):
            preprocess.code_space([2] * 63, "t")
        assert preprocess.code_space([2] * 62 + [1], "t") == 2 ** 62
        assert preprocess.code_space([], "t") == 1


class TestLabelColumn:
    def test_appends_binary_column(self):
        ds = make_ds([[0], [1], [2]], [0, 1, 0])
        aug = attach_label_column(ds, "outage")
        assert aug.columns[-1] == "outage"
        assert aug.cardinalities[-1] == 2
        assert list(aug.rows[:, -1]) == [0, 1, 0]
        aug.validate()

    def test_name_collision(self):
        ds = make_ds([[0], [1]], [0, 1])
        with pytest.raises(ValueError, match="already exists"):
            attach_label_column(ds, "c0")


class TestDownsample:
    def test_exact_counts(self):
        rows = np.zeros((1010, 1), dtype=int)
        labels = np.array([1] * 10 + [0] * 1000)
        ds = make_ds(rows, labels)
        out = downsample_majority(ds, 10.0, seed=1)
        counts = np.bincount(out.labels, minlength=2)
        assert counts[1] == 10
        assert counts[0] == 100

    def test_cap_keeps_everything(self):
        ds = make_ds(np.zeros((30, 1), dtype=int), [1] * 10 + [0] * 20)
        out = downsample_majority(ds, 100.0, seed=3)
        assert out.n_rows == 30
        assert np.array_equal(out.rows, ds.rows)

    def test_minority_rows_all_kept_in_order(self):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 5, size=(500, 3))
        labels = (rng.random(500) < 0.05).astype(int)
        ds = make_ds(rows, labels, cards=[5, 5, 5])
        out = downsample_majority(ds, 2.0, seed=9)
        got = out.rows[out.labels == 1]
        want = ds.rows[ds.labels == 1]
        assert np.array_equal(got, want)

    def test_single_class_error(self):
        ds = make_ds(np.zeros((5, 1), dtype=int), [0] * 5)
        with pytest.raises(ImbalanceError):
            downsample_majority(ds, 10.0, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        ds = make_ds(rng.integers(0, 3, size=(200, 2)),
                     (rng.random(200) < 0.1).astype(int), cards=[3, 3])
        a = downsample_majority(ds, 5.0, seed=42)
        b = downsample_majority(ds, 5.0, seed=42)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.labels, b.labels)


class TestSmote:
    def test_reaches_target_exactly(self):
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 10, size=(60, 4))
        labels = np.array([1] * 10 + [0] * 50)
        ds = make_ds(rows, labels, cards=[10] * 4)
        out = smote_upsample(ds, 50, k=5, seed=7)
        assert int(np.sum(out.labels == 1)) == 50
        assert int(np.sum(out.labels == 0)) == 50
        out.validate()

    def test_synthetic_rows_from_identical_parents(self):
        rows = np.array([[3, 4], [3, 4], [0, 0], [0, 1], [1, 0], [9, 9]])
        labels = np.array([1, 1, 0, 0, 0, 0])
        ds = make_ds(rows, labels, cards=[10, 10])
        out = smote_upsample(ds, 6, k=5, seed=0)
        assert np.all(out.rows[out.labels == 1] == [3, 4])

    def test_rows_stay_in_range_property(self):
        rng = np.random.default_rng(12)
        for trial in range(15):
            n_min = int(rng.integers(2, 12))
            n_maj = int(rng.integers(n_min, 40))
            cards = [int(c) for c in rng.integers(2, 11, size=3)]
            rows = np.column_stack([rng.integers(0, c, size=n_min + n_maj)
                                    for c in cards])
            labels = np.array([1] * n_min + [0] * n_maj)
            ds = make_ds(rows, labels, cards=cards)
            out = smote_upsample(ds, n_min + 20, k=4, seed=trial)
            out.validate()
            # synthetic rows stay within the bounding box of the class
            mins = rows[:n_min].min(axis=0)
            maxs = rows[:n_min].max(axis=0)
            synth = out.rows[len(rows):]
            assert np.all(synth >= mins)
            assert np.all(synth <= maxs)

    def test_originals_preserved_synthetics_appended(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 6, size=(30, 2))
        labels = np.array([1] * 5 + [0] * 25)
        ds = make_ds(rows, labels, cards=[6, 6])
        out = smote_upsample(ds, 12, k=3, seed=5)
        assert np.array_equal(out.rows[:30], rows)
        assert np.all(out.labels[30:] == 1)

    def test_too_few_minority(self):
        ds = make_ds(np.zeros((5, 1), dtype=int), [1, 0, 0, 0, 0])
        with pytest.raises(SynthesisError):
            smote_upsample(ds, 5, seed=0)

    def test_noop_when_target_met(self):
        ds = make_ds(np.zeros((4, 1), dtype=int), [1, 1, 0, 0])
        out = smote_upsample(ds, 2, seed=0)
        assert out.n_rows == 4

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        rows = rng.integers(0, 10, size=(40, 3))
        labels = np.array([1] * 8 + [0] * 32)
        ds = make_ds(rows, labels, cards=[10] * 3)
        a = smote_upsample(ds, 30, seed=13)
        b = smote_upsample(ds, 30, seed=13)
        assert np.array_equal(a.rows, b.rows)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=60),
       st.integers(min_value=1, max_value=12))
def test_equal_width_edges_properties(values, bins):
    edges = equal_width_edges(values, bins)
    assert len(edges) == bins - 1
    assert np.all(np.diff(edges) >= 0)
    coded = apply_bins([edges], [np.asarray(values)])
    assert coded.min() >= 0
    assert coded.max() <= bins - 1
