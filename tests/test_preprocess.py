"""Discretization and rebalancing contracts."""

import os
import subprocess
import sys
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from outagebn import bayesnet, citest, ingest, pcalg, preprocess, synthgen
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

    def test_a_saved_model_recodes_learns_hours_exactly(self, tmp_path):
        # learn's coding, then the edges as a model file gives them back: its
        # float lists must code the training hours, the values on the edges
        # and those past both ends as the dataset's own arrays do
        rng = np.random.default_rng(3)
        table = make_table({"a": rng.normal(size=300), "b": rng.uniform(5, 9, size=300)},
                           label=rng.random(300) < 0.2)
        ds = discretize(table, 7)
        aug = attach_label_column(ds, "outage")
        bayesnet.save_model(bayesnet.fit_cpts(pcalg.naive_bayes_dag(aug.columns, "outage"),
                                              aug, 1.0), tmp_path / "m.json")
        bn, _ = bayesnet.load_model(tmp_path / "m.json")
        edges = {c: bn.bin_edges[c] for c in ds.columns}
        assert all(type(e) is list for e in edges.values())
        again = preprocess.coded_hours(table, edges)
        assert again.rows.dtype == ds.rows.dtype and np.array_equal(again.rows, ds.rows)
        probe = {c: np.concatenate([ds.bin_edges[k], [table.factors[c].min(),
                                    table.factors[c].max(), -1e9, 1e9]])
                 for k, c in enumerate(ds.columns)}
        coded = preprocess.coded_hours(make_table(probe), edges)
        learned = apply_bins(ds.bin_edges, list(probe.values()))
        assert coded.rows.dtype == learned.dtype and np.array_equal(coded.rows, learned)
        assert coded.rows[-2:].tolist() == [[0, 0], [6, 6]]

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
        assert coded.dtype == np.uint8 and coded.flags.c_contiguous
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


class TestValidate:
    """``validate`` raises, so ``python -O`` checks a dataset as plain ``python`` does."""

    GOOD = make_ds([[0, 1], [2, 0], [1, 1]], [0, 1, 0], cards=[3, 2])

    @pytest.mark.parametrize("broken, message", [
        (replace(GOOD, rows=GOOD.rows.ravel()), "rows are 1-D, not 2-D"),
        (replace(GOOD, labels=GOOD.labels[:2]), r"rows have shape \(3, 2\), not one row"),
        (replace(GOOD, bin_edges=GOOD.bin_edges[:1]), "2 columns have 1 edge lists"),
        # fewer edges are fewer states, so a code of the third state lies outside
        (replace(GOOD, bin_edges=[np.array([0.5]), np.array([0.5])]),
         r"column 'c0': a code lies outside 0\.\.1"),
        (replace(GOOD, rows=GOOD.rows + [0, 1]), r"column 'c1': a code lies outside 0\.\.1"),
        (replace(GOOD, rows=GOOD.rows - [1, 0]), r"column 'c0': a code lies outside 0\.\.2"),
        (replace(GOOD, labels=np.array([0, 2, 0])), "a label is neither 0 nor 1"),
    ], ids=["1-D", "shape", "edge-lists", "edges", "code-above", "code-below", "label"])
    def test_names_the_broken_invariant(self, broken, message):
        self.GOOD.validate()
        with pytest.raises(ValueError, match=message):
            broken.validate()

    def test_holds_under_optimize(self):
        # -O strips assert statements; validate must still refuse
        probe = ("import numpy as np; from outagebn.preprocess import DiscreteDataset as D; "
                 "D(['x'], np.array([[0], [2]]), np.array([0, 1]), [np.array([0.5])])"
                 ".validate()")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(preprocess.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-O", "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.strip().endswith(
            "ValueError: column 'x': a code lies outside 0..1"), proc.stderr


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

    def test_narrow_columns_do_not_wrap(self):
        # under NEP 50, 0 * 10 + a uint8 column is uint8, and 3 ten-state
        # columns reach 999
        rng = np.random.default_rng(8)
        cards = [10, 10, 10, 10]
        wide = np.column_stack([rng.integers(10, size=500) for _ in cards])
        want = np.ravel_multi_index(wide.T, cards)
        for dtype in (np.uint8, np.uint16, np.uint32, np.int8, np.int64):
            rows = wide.astype(dtype)
            before = rows.copy()
            got = preprocess.config_codes([rows[:, c] for c in range(4)], cards, 500)
            assert got.dtype == np.int64 and np.array_equal(got, want), dtype
            assert np.array_equal(rows, before)  # the columns are read, never written
            # a shared int between strided columns
            got = preprocess.config_codes([rows[:, 0], 7, rows[:, 2]], [10, 10, 10], 500)
            assert np.array_equal(got, np.ravel_multi_index(
                (wide[:, 0], np.full(500, 7), wide[:, 2]), [10, 10, 10]))

    def test_broadcast_columns_code_their_grid(self):
        # columns laid along different axes code every combination, in place
        # where the shapes allow; the ints fold into the offset
        a = np.arange(3)[:, None, None]
        b = np.arange(4, dtype=np.uint8)[None, :, None]
        c = np.arange(5)[None, None, :]
        grid = np.stack(np.meshgrid(np.arange(3), 2, np.arange(4), np.arange(5), 1,
                                    indexing="ij"), axis=-1).reshape(-1, 5)
        want = np.ravel_multi_index(grid.T, [3, 4, 4, 5, 2]).reshape(3, 4, 5)
        got = preprocess.config_codes([a, 2, b, c, 1], [3, 4, 4, 5, 2], 1)
        assert got.dtype == np.int64 and got.shape == (3, 4, 5)
        assert np.array_equal(got, want)
        assert a.ravel().tolist() == [0, 1, 2] and b.ravel().tolist() == [0, 1, 2, 3]
        # one array laid along the second of two axes
        got = preprocess.config_codes([1, c[0]], [2, 5], 1)
        assert got.shape == (1, 5) and got.tolist() == [[5, 6, 7, 8, 9]]

    def test_code_dtype_holds_every_state(self):
        assert preprocess.code_dtype([10, 4, 2]) == np.uint8
        assert preprocess.code_dtype([256]) == np.uint8
        assert preprocess.code_dtype([257, 2]) == np.uint16
        assert preprocess.code_dtype([300]) == np.uint16
        assert preprocess.code_dtype([65_537]) == np.uint32


# Column kinds for the encoder property: a Python int shared by all rows, or
# an array of one of the dtypes the package codes in, with the most states
# that dtype holds.
_CODE_KINDS = {"int": (None, 2**62), "uint8": (np.uint8, 2**8),
               "uint16": (np.uint16, 2**16), "int64": (np.int64, 2**62)}


@st.composite
def mixed_code_columns(draw):
    """Up to 8 columns of mixed kinds over n rows, their cards, and n.

    The cards' product stays below 2**63; with ``top_up`` the last column
    takes every state left, so the product reaches just below it.
    """
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(_CODE_KINDS)), max_size=8))
    top_up = draw(st.booleans())
    cols, cards, space = [], [], 1
    for k, kind in enumerate(kinds):
        dtype, most = _CODE_KINDS[kind]
        most = min(most, (2**63 - 1) // space)
        card = most if top_up and k == len(kinds) - 1 else draw(
            st.one_of(st.integers(1, min(most, 12)), st.integers(1, most)))
        states = st.integers(0, card - 1)
        cols.append(draw(states) if dtype is None else
                    np.array(draw(st.lists(states, min_size=n, max_size=n)), dtype=dtype))
        cards.append(card)
        space *= card
    return cols, cards, n


@settings(max_examples=300, deadline=None)
@given(mixed_code_columns())
def test_config_codes_match_python_int_reference(case):
    cols, cards, n = case
    assert preprocess.code_space(cards, "t") < 2**63
    before = [c.copy() if isinstance(c, np.ndarray) else c for c in cols]
    got = preprocess.config_codes(cols, cards, n)
    want = []
    for r in range(n):
        code = 0
        for col, card in zip(cols, cards):
            code = code * card + int(col[r] if isinstance(col, np.ndarray) else col)
        want.append(code)
    if not cols:
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert got.tolist() == [0] * n
    elif not any(isinstance(c, np.ndarray) for c in cols):
        code = 0
        for col, card in zip(cols, cards):
            code = code * card + col
        assert type(got) is int and got == code
    else:
        # int64 codes equal to the Python ints: no narrow column wrapped
        assert isinstance(got, np.ndarray) and got.dtype == np.int64 and got.shape == (n,)
        assert got.tolist() == want
    for col, old in zip(cols, before):  # the columns are read, never written
        assert np.array_equal(col, old)


@st.composite
def codes_in_a_space(draw):
    """Up to 40 codes of one integer dtype and a space that holds them.

    The space is drawn either small enough for ``unique_codes``' bincount
    (at most two codes per code) or from the dtype's whole range, which
    mostly takes the sort; a code is often ``space - 1``.
    """
    dtype = draw(st.sampled_from([np.uint8, np.uint16, np.int32, np.int64]))
    n = draw(st.integers(0, 40))
    space = draw(st.one_of(st.integers(1, max(2 * n, 1)),
                           st.integers(1, int(np.iinfo(dtype).max) + 1)))
    codes = draw(st.lists(st.one_of(st.just(space - 1), st.integers(0, space - 1)),
                          min_size=n, max_size=n))
    return np.array(codes, dtype=dtype), space


@settings(max_examples=300, deadline=None)
@given(codes_in_a_space())
@example((np.zeros(0, dtype=np.int64), 1))
@example((np.zeros(3, dtype=np.uint8), 1))
@example((np.array([3, 0, 3], dtype=np.int64), 4))
@example((np.array([2**62, 5, 2**62], dtype=np.int64), 2**62 + 1))
def test_unique_codes_match_np_unique(case):
    codes, space = case
    before = codes.copy()
    values, index = preprocess.unique_codes(codes, space)
    want_values, want_index = np.unique(codes, return_inverse=True)
    assert values.dtype == want_values.dtype and np.array_equal(values, want_values)
    assert index.dtype == want_index.dtype and np.array_equal(index, want_index)
    assert np.array_equal(codes, before)


class TestUniqueCodesSwitch:
    """The CI test, its conditioning sets and the CPT fit give the same bits
    whichever way ``unique_codes`` numbers their codes."""

    @pytest.fixture(scope="class")
    def ds(self):
        table, _ = synthgen.weather_outage_scenario(synthgen.ScenarioSpec(hours=3000,
                                                                          seed=11))
        return attach_label_column(discretize(table, 10))

    def outputs(self, ds, path):
        """Model bytes, configuration indexes and test results for one setting."""
        cards, names = ds.cardinalities, ds.columns
        # the truth's structure, and the target under every factor (10^6 configurations)
        dags = [pcalg.LearnedDag(nodes=list(names), parents={
                    **{n: [] for n in names}, "F3": ["F1"], "F4": ["F2"],
                    "outage": parents}, target="outage")
                for parents in (["F1", "F2"], names[:-1])]
        models = []
        for dag in dags:
            bayesnet.save_model(bayesnet.fit_cpts(dag, ds, laplace_alpha=1e-9), path)
            models.append(path.read_bytes())
        sets = [(), (0,), (6,), (1, 6), (0, 2, 4), (5, 1, 3)]
        configs = [citest.condition_configs(ds.rows, given, cards) for given in sets]
        tests = [citest.g_test_ci(ds.rows, i, j, given, cardinalities=cards, method=method)
                 for method in ("g2", "pearson")
                 for i, j, given in ((0, 6, ()), (2, 6, (0,)), (1, 3, (6,)),
                                     (0, 1, (2, 3)), (4, 5, (0, 1, 6)))]
        return (models, [(c.dtype, c.tolist()) for c in configs],
                [(r.statistic.hex(), r.dof, r.p_value.hex()) for r in tests])

    def test_either_side_of_the_switch_gives_the_same_bits(self, ds, tmp_path,
                                                         monkeypatch):
        want = self.outputs(ds, tmp_path / "default.json")
        for per_row in (0, 10**9):
            monkeypatch.setattr(preprocess, "_DENSE_CODES_PER_ROW", per_row)
            assert self.outputs(ds, tmp_path / f"{per_row}.json") == want, per_row


class TestNarrowCodes:
    def test_every_maker_codes_in_the_narrowest_type(self):
        rng = np.random.default_rng(12)
        labels = (rng.random(600) < 0.1).astype(np.int64)
        table = make_table({"a": rng.normal(size=600), "b": rng.normal(size=600)}, labels)
        for bins, dtype in ((10, np.uint8), (256, np.uint8), (300, np.uint16)):
            ds = discretize(table, bins)
            assert ds.rows.dtype == dtype
            assert np.array_equal(ds.rows, np.column_stack(
                [np.digitize(table.factors[c], e) for c, e in zip("ab", ds.bin_edges)]))
            aug = attach_label_column(ds)
            assert aug.rows.dtype == dtype
            assert np.array_equal(aug.rows[:, :-1], ds.rows)
            assert np.array_equal(aug.rows[:, -1], labels)
            grown = smote_upsample(ds, 300, seed=1)
            assert grown.rows.dtype == dtype and grown.n_rows > ds.n_rows
            grown.validate()
        # a label column alone takes a byte
        wide = make_ds([[0], [1], [1]], [0, 1, 0])
        assert attach_label_column(wide).rows.dtype == np.uint8

    def test_rebalancing_gives_the_same_rows_in_every_dtype(self):
        rng = np.random.default_rng(13)
        cards = [10, 7, 4]
        wide = np.column_stack([rng.integers(c, size=400) for c in cards])
        labels = (rng.random(400) < 0.15).astype(np.int64)
        down, up = set(), set()
        for dtype in (np.uint8, np.uint16, np.int64):
            ds = make_ds(wide, labels, cards)
            ds.rows = wide.astype(dtype)
            out = downsample_majority(ds, 2.0, seed=3)
            assert out.rows.dtype == dtype  # selects rows, makes no code
            down.add((out.rows.astype(np.int64).tobytes(), out.labels.tobytes()))
            out = smote_upsample(ds, 200, seed=4)
            assert out.rows.dtype == np.uint8
            up.add((out.rows.tobytes(), out.labels.tobytes()))
        assert len(down) == 1 and len(up) == 1


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
    def test_neighbors_found_block_by_block(self, monkeypatch):
        # 7 minority rows a block, the last block partial; many distance ties
        monkeypatch.setattr(preprocess, "_NEIGHBOR_BLOCK_ROWS", 7)
        rng = np.random.default_rng(14)
        rows = rng.integers(0, 4, size=(90, 3))
        labels = (np.arange(90) % 2).astype(np.int64)
        ds = make_ds(rows, labels, cards=[4] * 3)
        out = smote_upsample(ds, 120, k=5, seed=9)
        expect = oracles.smote_rows_reference(rows, labels, [4] * 3, 120, 5, 9)
        assert out.rows[90:].astype(np.int64).tobytes() == expect.tobytes()

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


@st.composite
def labelled_rows(draw):
    """A dataset of 2-60 rows over 1-3 columns with both classes present,
    and a seed."""
    n = draw(st.integers(2, 60))
    cards = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    rows = [[draw(st.integers(0, c - 1)) for c in cards] for _ in range(n)]
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                  .filter(lambda v: 0 < sum(v) < n))
    return make_ds(np.array(rows).reshape(n, len(cards)), labels, cards), \
        draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(labelled_rows(), st.sampled_from([0.3, 1.0, 2.5, 100.0]))
def test_downsample_matches_reference(case, ratio):
    ds, seed = case
    keep = oracles.downsample_rows_reference(ds.labels, ratio, seed)
    out = downsample_majority(ds, ratio, seed)
    assert np.array_equal(out.rows, ds.rows[keep])
    assert np.array_equal(out.labels, ds.labels[keep])


@settings(max_examples=150, deadline=None)
@given(labelled_rows(), st.integers(0, 40), st.integers(1, 6))
def test_smote_matches_reference(case, extra, k):
    ds, seed = case
    n_min = int(min(np.sum(ds.labels == 1), np.sum(ds.labels == 0)))
    if n_min < 2:
        return
    out = smote_upsample(ds, n_min + extra, k=k, seed=seed)
    expect = oracles.smote_rows_reference(ds.rows, ds.labels, ds.cardinalities,
                                          n_min + extra, k, seed)
    assert np.array_equal(out.rows[:ds.n_rows], ds.rows)
    # synthetic codes are made in the narrowest type; the oracle's are int64
    assert out.rows[ds.n_rows:].astype(np.int64).tobytes() == expect.tobytes()


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


class TestLabelCodes:
    """Every label the package makes is one ``code_dtype([2])`` array, shared
    from then on rather than copied."""

    LABEL = preprocess.code_dtype([2])

    def test_every_maker_codes_labels_in_the_label_dtype(self):
        assert self.LABEL == np.uint8
        stamps = np.datetime64("2021-01-01T00", "us") + np.arange(4) * ingest.HOUR
        raw = ingest.RawWeatherTable(stamps[[0, 1, 3]], {"x": [1.0, np.nan, 3.0]})
        table = ingest.interpolate_missing(raw)
        labelled = ingest.attach_outage_labels(table, stamps[2:3])
        scenario, _ = synthgen.weather_outage_scenario(synthgen.ScenarioSpec(hours=500,
                                                                             seed=1))
        sampled = synthgen.forward_sample(synthgen.random_network(3, 0.5, 2, target="X1"),
                                          50, seed=3)
        unlabelled = synthgen.forward_sample(synthgen.random_network(3, 0.5, 2), 50, seed=3)
        for labels in (TimeSeriesTable(stamps, {}).label, table.label, labelled.label,
                       scenario.label, sampled.labels, unlabelled.labels):
            assert labels.dtype == self.LABEL
        assert labelled.label.tolist() == [0, 0, 1, 0]

    def test_discretize_and_the_label_column_share_the_labels(self):
        table = make_table({"x": [0.0, 1.0, 2.0, 3.0]}, label=[0, 1, 0, 1])
        table.label = table.label.astype(self.LABEL)
        ds = discretize(table, 2)
        assert ds.labels is table.label
        assert attach_label_column(ds).labels is table.label
