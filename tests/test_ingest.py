"""Ingestion: parsing, hourly alignment, interpolation, label attachment."""

import csv
import tracemalloc
import warnings
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from outagebn import cli, ingest
from outagebn.ingest import (EventOutOfRangeError, ParseError,
                             RawWeatherTable, UnrecoverableColumnError)

UTC = timezone.utc
T0 = datetime(2021, 3, 1, 0, 0, tzinfo=UTC)


_YEAR_1_US = int(np.datetime64("0001-01-01", "us").view(np.int64))
_YEAR_10000_US = int(np.datetime64("10000-01-01", "us").view(np.int64))


def hours(*ks):
    return np.datetime64("2021-03-01T00:00", "us") + np.array(ks, dtype="m8[h]")


def same(actual, expected):
    """Arrays of one dtype holding equal values; NaN (a missing cell) matches NaN."""
    expected = np.asarray(expected)
    return (isinstance(actual, np.ndarray) and actual.dtype == expected.dtype
            and np.array_equal(actual, expected, equal_nan=True))


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def assert_matches_per_cell(p, schema=None):
    """parse_weather_csv gives the per-cell reference's table, bit for bit,
    or the same ParseError (message, row and column)."""
    try:
        stamps, values = oracles.weather_per_cell(p, schema)
    except ParseError as expected:
        with pytest.raises(ParseError) as err:
            ingest.parse_weather_csv(p, schema)
        assert (str(err.value), err.value.row, err.value.column) == \
            (str(expected), expected.row, expected.column)
        return expected
    raw = ingest.parse_weather_csv(p, schema)
    assert raw.timestamps.dtype == ingest.TIME_DTYPE
    assert np.array_equal(raw.timestamps.view(np.int64), stamps.view(np.int64))
    assert list(raw.factors) == list(values)
    for name, col in values.items():
        assert raw.factors[name].dtype == np.float64
        assert np.array_equal(raw.factors[name].view(np.uint64), col.view(np.uint64))
    return raw


class TestParseWeather:
    def test_basic_parse_sorted(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "timestamp,temp,wind\n"
                  "2021-03-01T02:00:00Z,3.5,10\n"
                  "2021-03-01T00:00:00Z,1.0,11\n"
                  "2021-03-01T01:00:00Z,2.0,12\n")
        raw = ingest.parse_weather_csv(p)
        assert same(raw.timestamps, hours(0, 1, 2))
        assert same(raw.factors["temp"], [1.0, 2.0, 3.5])
        assert same(raw.factors["wind"], [11.0, 12.0, 10.0])

    def test_missing_markers(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "timestamp,temp,wind\n"
                  "2021-03-01T00:00:00Z,,N/A\n"
                  "2021-03-01T01:00:00Z,not-a-number,4\n")
        raw = ingest.parse_weather_csv(p)
        assert same(raw.factors["temp"], [np.nan, np.nan])
        assert same(raw.factors["wind"], [np.nan, 4.0])

    def test_locale_decimal_becomes_missing(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "timestamp,temp\n2021-03-01T00:00:00Z,\"1,5\"\n")
        raw = ingest.parse_weather_csv(p)
        assert same(raw.factors["temp"], [np.nan])

    def test_duplicate_timestamp_rejected(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "timestamp,temp\n"
                  "2021-03-01T00:00:00Z,1\n"
                  "2021-03-01T00:00:00Z,2\n")
        with pytest.raises(ParseError) as err:
            ingest.parse_weather_csv(p)
        assert err.value.row == 3
        assert err.value.column == "timestamp"

    def test_missing_required_column(self, tmp_path):
        p = write(tmp_path, "w.csv", "timestamp,temp\n2021-03-01T00:00:00Z,1\n")
        with pytest.raises(ParseError, match="missing required column"):
            ingest.parse_weather_csv(p, schema=["temp", "humidity"])

    def test_schema_selects_and_orders(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "timestamp,a,b,c\n2021-03-01T00:00:00Z,1,2,3\n")
        raw = ingest.parse_weather_csv(p, schema=["c", "a"])
        assert raw.factor_names == ["c", "a"]
        assert same(raw.factors["c"], [3.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            ingest.parse_weather_csv(tmp_path / "nope.csv")

    def test_timestamp_offsets_normalize_to_utc(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "timestamp,temp\n2021-03-01T02:00:00+02:00,1\n")
        raw = ingest.parse_weather_csv(p)
        assert same(raw.timestamps, hours(0))

    def test_column_parse_matches_cell_oracle(self, tmp_path):
        # every parsed cell must carry the bits _parse_cell gives its text,
        # with NaN for its missing marker; "1,5" (a locale decimal) is missing
        cells = ["", "N/A", " N/A ", "  3.25\t", "-0", "nan", "NaN", "-inf",
                 "inf", "1e500", "-1e-320", "1_000", "\uff11\uff12", "1,5",
                 "0x10", "7", "2.5e3", " ", "\u00a04.5"]
        p = tmp_path / "w.csv"
        with open(p, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp", "x"])
            for k, cell in enumerate(cells):
                writer.writerow([f"2021-03-01T{k:02d}:00:00Z", cell])
        parsed = ingest.parse_weather_csv(p).factors["x"]
        oracle = [ingest._parse_cell(c) for c in cells]
        expect = np.array([np.nan if v is None else v for v in oracle])
        assert parsed.dtype == np.float64
        assert np.array_equal(parsed.view(np.uint64), expect.view(np.uint64))
        assert oracle[cells.index("1,5")] is None
        assert oracle[cells.index("1_000")] == 1000.0
        assert oracle[cells.index("-0")] == 0.0 and np.signbit(parsed[4])

    def test_sub_second_timestamps_keep_their_order(self, tmp_path):
        # rows 0.4 s apart are two rows, sorted at full precision; the
        # grid then rejects them with the timestamp cut to whole seconds
        p = write(tmp_path, "w.csv",
                  "timestamp,x\n"
                  "2021-03-01T00:00:00.7Z,1\n"
                  "2021-03-01T00:00:00.3Z,2\n")
        raw = ingest.parse_weather_csv(p)
        assert same(raw.factors["x"], [2.0, 1.0])
        assert same(raw.timestamps,
                    hours(0, 0) + np.array([300_000, 700_000], dtype="m8[us]"))
        with pytest.raises(ValueError) as err:
            ingest.interpolate_missing(raw)
        assert str(err.value) == \
            "weather timestamp 2021-03-01T00:00:00Z is not hour-aligned"

    def test_duplicate_is_exact_to_the_microsecond(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "timestamp,x\n"
                  "2021-03-01T00:00:00.25Z,1\n"
                  "2021-03-01T03:00:00+03:00,2\n"
                  "2021-03-01T00:00:00.250Z,3\n")
        with pytest.raises(ParseError) as err:
            ingest.parse_weather_csv(p)
        assert str(err.value) == (f"duplicate timestamp 2021-03-01T00:00:00Z "
                                  f"({p}, row 4, column 'timestamp')")


def gen_weather(tmp_path, hours=300):
    """A weather file exactly as ``gen`` writes it (CRLF line ends)."""
    weather = tmp_path / "gen_weather.csv"
    assert cli.main(["gen", "--seed", "3", "--hours", str(hours), "--factors", "4",
                     "--parents", "F1,F2", "--outage-rate", "0.01",
                     "--out-weather", str(weather),
                     "--out-outages", str(tmp_path / "gen_outages.csv")]) == 0
    return weather


def gappy_copy(src, dst, seed=0):
    """``src`` with LF line ends, some hours dropped and some cells "" or N/A."""
    rng = np.random.default_rng(seed)
    header, *body = src.read_text().splitlines()
    out = [header]
    for line in body:
        if rng.random() < 0.05:
            continue
        cells = line.split(",")
        for j in range(1, len(cells)):
            if rng.random() < 0.1:
                cells[j] = "N/A" if rng.random() < 0.5 else ""
        out.append(",".join(cells))
    dst.write_bytes(("\n".join(out) + "\n").encode())
    return dst


def refuse(*args, **kwargs):
    raise AssertionError("per-cell reader used")


class TestFastPath:
    """Files the C reader takes whole never reach the per-cell reader; every
    other file gets the per-cell reader's table or error."""

    def test_gen_and_gappy_files_take_the_fast_path(self, tmp_path, monkeypatch):
        stock = gen_weather(tmp_path)
        gappy = gappy_copy(stock, tmp_path / "gappy.csv")
        assert b"\r\n" in stock.read_bytes() and b"\r" not in gappy.read_bytes()
        text = gappy.read_text()
        assert ",N/A," in text and ",," in text and ",\n" in text
        expected = {p: oracles.weather_per_cell(p) for p in (stock, gappy)}
        monkeypatch.setattr(ingest, "_parse_cell", refuse)
        monkeypatch.setattr(ingest, "parse_timestamp", refuse)
        for p, (stamps, values) in expected.items():
            raw = ingest.parse_weather_csv(p)
            assert np.array_equal(raw.timestamps.view(np.int64), stamps.view(np.int64))
            for name, col in values.items():
                assert np.array_equal(raw.factors[name].view(np.uint64),
                                      col.view(np.uint64))
        assert np.isnan(raw.factors["F1"]).any()

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_blank_lines_are_skipped_without_warning(self, tmp_path, eol):
        p = tmp_path / "w.csv"
        p.write_bytes(eol.join(["timestamp,x", "", "2021-03-01T01:00:00Z,1", "",
                                "2021-03-01T00:00:00Z,", "", ""]).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = assert_matches_per_cell(p)
            assert same(raw.factors["x"], [np.nan, 1.0])
            p.write_bytes(eol.join(["timestamp,x", "", ""]).encode())
            err = assert_matches_per_cell(p)
        assert str(err) == f"weather file has no data rows ({p})"

    def test_header_only(self, tmp_path):
        for text in ("timestamp,x", "timestamp,x\n", "timestamp,x\r\n"):
            p = write(tmp_path, "w.csv", text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                err = assert_matches_per_cell(p)
            assert str(err) == f"weather file has no data rows ({p})"

    def test_byte_order_mark_hides_the_timestamp_column(self, tmp_path):
        p = tmp_path / "w.csv"
        p.write_bytes("timestamp,x\n2021-03-01T00:00:00Z,1\n".encode("utf-8-sig"))
        err = assert_matches_per_cell(p)
        assert str(err) == f"missing required column ({p}, column 'timestamp')"
        p.write_bytes("x,timestamp\n1,2021-03-01T00:00:00Z\n".encode("utf-8-sig"))
        raw = assert_matches_per_cell(p)
        assert raw.factor_names == ["﻿x"] and same(raw.factors["﻿x"], [1.0])

    def test_non_ascii_cells(self, tmp_path):
        # float reads full-width digits; numpy's reader never sees them
        p = tmp_path / "w.csv"
        p.write_bytes("timestamp,x,y\n2021-03-01T00:00:00Z,é,2\n"
                      "2021-03-01T01:00:00Z,３,N/A\n".encode())
        raw = assert_matches_per_cell(p)
        assert same(raw.factors["x"], [np.nan, 3.0])
        assert same(raw.factors["y"], [2.0, np.nan])

    def test_timestamp_not_in_first_column(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "a,timestamp,b\n"
                  ",2021-03-01T01:00:00Z,N/A\n"
                  "N/A,2021-03-01T00:00:00Z,\n"
                  "-0,2021-03-01T02:00:00Z,1e500\n")
        raw = assert_matches_per_cell(p)
        assert same(raw.timestamps, hours(0, 1, 2))
        assert same(raw.factors["a"], [np.nan, np.nan, -0.0])
        assert np.signbit(raw.factors["a"][2])
        assert same(raw.factors["b"], [np.nan, np.nan, np.nan])

    def test_schema_subset_beside_non_numeric_column(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "timestamp,a,note\n"
                  "2021-03-01T00:00:00Z,1.5,calm\n"
                  "2021-03-01T01:00:00Z,2.5,storm\n")
        raw = assert_matches_per_cell(p, schema=["a"])
        assert raw.factor_names == ["a"] and same(raw.factors["a"], [1.5, 2.5])
        raw = assert_matches_per_cell(p)
        assert same(raw.factors["note"], [np.nan, np.nan])

    def test_short_row_reports_its_row(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "timestamp,a,b\n"
                  "2021-03-01T00:00:00Z,1,2\n"
                  "\n"
                  "2021-03-01T01:00:00Z,1\n")
        err = assert_matches_per_cell(p)
        assert str(err) == f"expected 3 fields, got 2 ({p}, row 4)"

    @pytest.mark.parametrize("stamp", [
        "2021-03-01T00:00:00Zjunk", "2021-03-01T00:00:00", "0000-01-01T00:00:00Z",
        "2021-02-29T00:00:00Z", " 2021-03-01T00:00:00Z", "2021-03-01T00:00:00z",
        "2021-03-01T00:00:00.5Z", "2021-03-01T02:00:00+02:00", "2021-03-01 00:00:00Z",
        # numpy reads these years; datetime does not
        "-021-03-01T00:00:00Z", " 021-03-01T00:00:00Z", "+021-03-01T00:00:00Z",
        "2021-03-01T00:00:00Z\x00"])
    def test_other_stamp_layouts(self, tmp_path, stamp):
        p = write(tmp_path, "w.csv", f"timestamp,x\n{stamp},1\n")
        assert_matches_per_cell(p)

    @pytest.mark.parametrize("text", [
        # csv ends a line at a lone CR, numpy's reader does not
        "timestamp,x\r2021-03-01T00:00:00Z,1\n2021-03-01T01:00:00Z,2\n",
        "timestamp,x\n2021-03-01T00:00:00Z,1\r2021-03-01T01:00:00Z,2\n",
        "timestamp,x\n2021-03-01T00:00:00Z,1\r",
        "timestamp,x\n2021-03-01T00:00:00Z,1\x00\n",
        "timestamp,x\n2021-03-01T00:00:00Z\x00junk,1\n",
        'timestamp,x\n2021-03-01T00:00:00Z,"1,5"\n',
        "timestamp,x\n2021-03-01T00:00:00Z,1\n2021-03-01T00:00:00Z,2\n",
        "timestamp,x\n2021-03-01T00:00:00Z,1_000\n2021-03-01T01:00:00Z, N/A \n",
        "timestamp,x\n2021-03-01T00:00:00Z,1,2\n"])
    def test_other_rejections(self, tmp_path, text):
        p = tmp_path / "w.csv"
        p.write_bytes(text.encode())
        assert_matches_per_cell(p)

    @pytest.mark.parametrize("text", [
        # an empty last cell before CRLF, and empty first cells
        "timestamp,x,y\r\n2021-03-01T00:00:00Z,1,\r\n2021-03-01T01:00:00Z,,\r\n",
        "x,y,timestamp\r\n,,2021-03-01T00:00:00Z\r\n,2,2021-03-01T01:00:00Z\r\n",
        "x,timestamp,y\r\n\r\n,2021-03-01T00:00:00Z,\r\n\r\n",
        # an empty last cell at the end of a file with no final line end
        "timestamp,x,y\n2021-03-01T01:00:00Z,1,2\n2021-03-01T00:00:00Z,3,",
        "timestamp,x,y\r\n2021-03-01T00:00:00Z,,",
        # N/A signed or padded becomes a signed or padded nan
        "x,timestamp\n-N/A,2021-03-01T00:00:00Z\n+N/A,2021-03-01T01:00:00Z\n",
        "timestamp,x\r\n2021-03-01T00:00:00Z, N/A \r\n2021-03-01T01:00:00Z,\tN/A\r\n"])
    def test_prelude_cases_take_the_c_reader(self, tmp_path, text):
        p = tmp_path / "w.csv"
        p.write_bytes(text.encode())
        with mock.patch.object(ingest, "_parse_weather_rows", refuse):
            raw = assert_matches_per_cell(p)
        assert any(np.isnan(v).any() for v in raw.factors.values())

    @pytest.mark.parametrize("text", [
        # a lone CR in the header, in a CRLF file and in an LF one
        "timestamp\r,x\r\n2021-03-01T00:00:00Z,1\r\n",
        "timestamp,x\ry\n2021-03-01T00:00:00Z,1\n",
        "timestamp,x\r2021-03-01T00:00:00Z,1\r\n2021-03-01T01:00:00Z,2\r\n",
        # N/A inside other text, and another spelling of it
        "timestamp,x\n2021-03-01T00:00:00Z,xN/A\n",
        "timestamp,x\n2021-03-01T00:00:00Z,N/AN/A\n",
        "timestamp,x\r\n2021-03-01T00:00:00Z,n/a\r\n2021-03-01T01:00:00Z,\r\n",
        "timestamp,x\n2021-03-01T00:00:00Z,1N/A\n",
        "timestamp,x\nN/A,1\n"])
    def test_prelude_cases_fall_back(self, tmp_path, text):
        p = tmp_path / "w.csv"
        p.write_bytes(text.encode())
        with mock.patch.object(ingest, "_parse_weather_rows",
                               wraps=ingest._parse_weather_rows) as per_cell:
            assert_matches_per_cell(p)
        assert per_cell.called

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_peak_memory_within_two_copies(self, tmp_path, eol):
        # the file's bytes and one rewritten copy of them, plus the table
        p = gappy_copy(gen_weather(tmp_path, hours=40_000), tmp_path / "gappy.csv")
        p.write_bytes(p.read_bytes().replace(b"\n", eol.encode()))
        size = p.stat().st_size
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            raw = ingest.parse_weather_csv(p)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        table = raw.timestamps.nbytes + sum(v.nbytes for v in raw.factors.values())
        assert np.isnan(raw.factors["F1"]).any()
        assert peak <= 2 * size + table


# Cell spellings the C reader takes (numpy and float agree on them, or the
# fast path rewrites them) and ones that send a file to the per-cell reader.
FAST_CELLS = ["", "N/A", " N/A ", "-N/A", "+N/A", "-0", "1e500", "nan", "-nan",
              "Infinity", "-inf", "+4", ".5", "5.", "\t3", "2.5e-3", "-1e-320", "17",
              "0.1"]
SLOW_CELLS = ["1_000", "0x10", "junk", " ", "n/a", "xN/A", "N/AN/A", "1e", "é", "１",
              "3 4", "1,5", '"1,5"', "\x00"]
FAST_STAMPS = ["{}Z"]
SLOW_STAMPS = ["{}+00:00", "{}z", "{}.5Z", "{}Zjunk", " {}Z", "{}", "{}+02:00"]


@st.composite
def weather_files(draw):
    """(file bytes, schema, whether the C reader must take it)."""
    fast = draw(st.booleans())
    n_factors = draw(st.integers(0, 3))
    names = [f"c{k}" for k in range(n_factors)]
    header = list(names)
    ts_pos = draw(st.integers(0, n_factors))
    header.insert(ts_pos, "timestamp")
    cells = st.sampled_from(FAST_CELLS if fast else FAST_CELLS + SLOW_CELLS)
    stamps = st.sampled_from(FAST_STAMPS if fast else FAST_STAMPS + SLOW_STAMPS)
    hours_ = draw(st.lists(st.integers(0, 60), min_size=1 if fast else 0,
                           max_size=8, unique=fast))
    lines = [",".join(header)]
    for h in hours_:
        when = (T0 + timedelta(hours=h)).strftime("%Y-%m-%dT%H:%M:%S")
        row = [draw(cells) for _ in names]
        row.insert(ts_pos, draw(stamps).format(when))
        if not fast:
            row = row[:len(row) + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))]
        lines.append(",".join(row))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    schema = draw(st.one_of(st.none(), st.lists(st.sampled_from(names), unique=True)
                            if names else st.none()))
    return text.encode(), schema, fast


@settings(max_examples=300, deadline=None)
@given(weather_files())
def test_parse_matches_per_cell_reader(tmp_path_factory, case):
    data, schema, fast = case
    p = tmp_path_factory.getbasetemp() / "differential.csv"
    p.write_bytes(data)
    if fast:
        with mock.patch.object(ingest, "_parse_weather_rows", refuse):
            assert_matches_per_cell(p, schema)
    else:
        assert_matches_per_cell(p, schema)


class TestInterpolate:
    def test_affine_gap_fill(self):
        # a line sampled at the ends must be reproduced exactly in between
        raw = RawWeatherTable(hours(0, 3), {"x": [0.0, 6.0]})
        table = ingest.interpolate_missing(raw)
        assert same(table.timestamps, hours(0, 1, 2, 3))
        assert np.allclose(table.factors["x"], [0.0, 2.0, 4.0, 6.0], rtol=1e-9)

    def test_affine_random_gaps(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(5, 40))
            slope = float(rng.normal())
            intercept = float(rng.normal())
            keep = np.sort(rng.choice(n, size=max(2, int(rng.integers(2, n))),
                                      replace=False))
            keep[0], keep[-1] = 0, n - 1
            keep = np.unique(keep)
            values = [intercept + slope * int(k) for k in keep]
            raw = RawWeatherTable(hours(*(int(k) for k in keep)), {"x": values})
            table = ingest.interpolate_missing(raw)
            expect = intercept + slope * np.arange(n)
            scale = np.maximum(np.abs(expect), 1.0)
            assert np.all(np.abs(table.factors["x"] - expect) <= 1e-9 * scale)

    def test_edges_take_nearest(self):
        raw = RawWeatherTable(hours(0, 1, 2, 3),
                              {"x": [None, 5.0, None, None]})
        table = ingest.interpolate_missing(raw)
        assert list(table.factors["x"]) == [5.0, 5.0, 5.0, 5.0]

    def test_interior_cells_and_whole_rows(self):
        raw = RawWeatherTable(hours(0, 2), {"x": [1.0, 3.0], "y": [None, 7.0]})
        table = ingest.interpolate_missing(raw)
        assert list(table.factors["x"]) == [1.0, 2.0, 3.0]
        assert list(table.factors["y"]) == [7.0, 7.0, 7.0]
        assert list(table.label) == [0, 0, 0]

    def test_unrecoverable_column(self):
        raw = RawWeatherTable(hours(0, 1), {"x": [None, None]})
        with pytest.raises(UnrecoverableColumnError):
            ingest.interpolate_missing(raw)

    def test_observed_values_unchanged(self):
        vals = [0.1234567890123, None, 9.87654321]
        raw = RawWeatherTable(hours(0, 1, 2), {"x": vals})
        table = ingest.interpolate_missing(raw)
        assert table.factors["x"][0] == vals[0]
        assert table.factors["x"][2] == vals[2]

    def test_complete_columns_pass_through(self):
        # every hour present: an observed column comes back as it is, the
        # bytes np.interp gives at the sample points, even where a slope
        # overflows (1e308 beside -1e308) or the sample is -0.0
        x = np.array([1e308, -1e308, -0.0, 1e308, 0.0, -1e308, 2.5])
        y = np.array([1.0, np.nan, 3.0, 4.0, 5.0, 6.0, 7.0])
        raw = RawWeatherTable(hours(*range(7)), {"x": x, "y": y})
        table = ingest.interpolate_missing(raw)
        grid = np.arange(7)
        assert table.factors["x"] is raw.factors["x"]
        assert table.factors["x"].tobytes() == np.interp(grid, grid, x).tobytes()
        assert list(table.factors["y"]) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        # a missing hour sends every column through the interpolation
        gappy = ingest.interpolate_missing(
            RawWeatherTable(hours(0, 1, 3), {"x": [-0.0, 1e308, -1e308]}))
        assert gappy.factors["x"].tobytes() == np.interp(
            [0, 1, 2, 3], [0, 1, 3], [-0.0, 1e308, -1e308]).tobytes()
        # every hour present but out of order: still scattered onto the grid
        shuffled = ingest.interpolate_missing(
            RawWeatherTable(hours(0, 2, 1, 3), {"x": [0.0, 2.0, 1.0, 3.0]}))
        assert list(shuffled.factors["x"]) == [0.0, 1.0, 2.0, 3.0]

    def test_misaligned_timestamp_rejected(self):
        raw = RawWeatherTable(hours(0) + np.array([0, 90], dtype="m8[m]"),
                              {"x": [1.0, 2.0]})
        with pytest.raises(ValueError, match="hour-aligned"):
            ingest.interpolate_missing(raw)


class TestLabels:
    def table(self, n=5):
        return ingest.TimeSeriesTable(hours(*range(n)),
                                      {"x": np.arange(n, dtype=float)})

    def test_event_floors_to_hour_bucket(self):
        table = self.table()
        out = ingest.attach_outage_labels(table, hours(2) + np.timedelta64(48, "m"))
        assert list(out.label) == [0, 0, 1, 0, 0]

    def test_multiple_same_bucket(self):
        table = self.table()
        out = ingest.attach_outage_labels(
            table, hours(1, 1) + np.array([5, 59], dtype="m8[m]"))
        assert list(out.label) == [0, 1, 0, 0, 0]

    def test_idempotent_and_monotone(self):
        table = self.table()
        once = ingest.attach_outage_labels(table, hours(3))
        twice = ingest.attach_outage_labels(once, hours(3))
        assert list(once.label) == list(twice.label)
        more = ingest.attach_outage_labels(once, hours(1))
        assert all(a >= b for a, b in zip(more.label, once.label))

    def test_out_of_range_event(self):
        table = self.table()
        with pytest.raises(EventOutOfRangeError):
            ingest.attach_outage_labels(table, hours(-1))
        with pytest.raises(EventOutOfRangeError):
            ingest.attach_outage_labels(table, hours(5))

    def test_event_just_before_start_is_out_of_range(self):
        # floored, not truncated toward zero: half a second before the
        # first hour is the hour before it
        table = self.table()
        for before in (np.timedelta64(500, "ms"), np.timedelta64(1, "us")):
            with pytest.raises(EventOutOfRangeError):
                ingest.attach_outage_labels(table, hours(0) - before)
        out = ingest.attach_outage_labels(table, hours(5) - np.timedelta64(1, "us"))
        assert list(out.label) == [0, 0, 0, 0, 1]

    def test_last_hour_is_in_range(self):
        table = self.table()
        out = ingest.attach_outage_labels(table, hours(4) + np.timedelta64(59, "m"))
        assert out.label[4] == 1

    def test_empty_events_leave_labels(self):
        table = self.table()
        table.label[3] = 1
        out = ingest.attach_outage_labels(table, hours())
        assert list(out.label) == [0, 0, 0, 1, 0]

    def test_error_holds_exactly_the_offending_events(self):
        table = self.table()
        events = hours(-3, 0, -2, -1, 5, 2, 6, 7, 8)
        with pytest.raises(EventOutOfRangeError) as info:
            ingest.attach_outage_labels(table, events)
        assert same(info.value.events, hours(-3, -2, -1, 5, 6, 7, 8))
        assert str(info.value) == (
            "outage events outside table range: 2021-02-28T21:00:00Z, "
            "2021-02-28T22:00:00Z, 2021-02-28T23:00:00Z, 2021-03-01T05:00:00Z, "
            "2021-03-01T06:00:00Z and 2 more")

    def test_matches_per_event_floor(self):
        hour_us = 3_600_000_000
        micros = np.random.default_rng(4).integers(-2 * hour_us, 52 * hour_us, 300)
        events = hours(0) + micros.astype("m8[us]")
        buckets = [m // hour_us for m in micros.tolist()]
        inside = np.array([0 <= b < 50 for b in buckets])
        with pytest.raises(EventOutOfRangeError) as info:
            ingest.attach_outage_labels(self.table(50), events)
        assert same(info.value.events, events[~inside])
        out = ingest.attach_outage_labels(self.table(50), events[inside])
        assert set(np.flatnonzero(out.label).tolist()) == \
            {b for b in buckets if 0 <= b < 50}

    def test_original_untouched(self):
        table = self.table()
        ingest.attach_outage_labels(table, hours(0))
        assert list(table.label) == [0] * 5

    def test_shares_timeline_and_factors_but_not_labels(self):
        table = self.table()
        table.label[3] = 1
        out = ingest.attach_outage_labels(table, hours(1))
        assert out.timestamps is table.timestamps
        assert out.factors["x"] is table.factors["x"]
        assert out.label is not table.label
        assert list(out.label) == [0, 1, 0, 1, 0]
        assert list(table.label) == [0, 0, 0, 1, 0]


class TestOutageCsv:
    def test_parse_and_filter_flags(self, tmp_path):
        p = write(tmp_path, "o.csv",
                  "timestamp,weather_related\n"
                  "2021-03-01T00:12:00Z,1\n"
                  "2021-03-01T03:00:00Z,0\n")
        events = ingest.parse_outage_csv(p)
        assert same(events.weather_related, np.array([True, False]))

    def test_file_order_non_weather_rows_and_offsets_kept(self, tmp_path):
        p = write(tmp_path, "o.csv",
                  "timestamp,weather_related\n"
                  "2021-03-01T05:30:00+02:00,0\n"
                  "2021-03-01T01:00:00.25Z,1\n"
                  "\n"
                  "2021-02-28T23:15:00-05:00,0\n"
                  "2021-03-01T00:00:00,1\n")
        events = ingest.parse_outage_csv(p)
        assert same(events.timestamps, np.array(
            ["2021-03-01T03:30", "2021-03-01T01:00:00.25",
             "2021-03-01T04:15", "2021-03-01T00:00"], dtype="M8[us]"))
        assert same(events.weather_related, np.array([False, True, False, True]))

    def test_bad_flag(self, tmp_path):
        p = write(tmp_path, "o.csv",
                  "timestamp,weather_related\n2021-03-01T00:00:00Z,yes\n")
        with pytest.raises(ParseError, match="must be 0 or 1"):
            ingest.parse_outage_csv(p)

    def test_missing_flag_column(self, tmp_path):
        p = write(tmp_path, "o.csv", "timestamp\n2021-03-01T00:00:00Z\n")
        with pytest.raises(ParseError, match="missing required column"):
            ingest.parse_outage_csv(p)


class TestRoundTrip:
    def test_weather_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 48
        table = ingest.TimeSeriesTable(
            hours(*range(n)),
            {"temp": rng.normal(size=n) * 17.3,
             "wind": rng.normal(size=n) ** 3},
        )
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        ingest.write_weather_csv(table, p1)
        again = ingest.interpolate_missing(ingest.parse_weather_csv(p1))
        ingest.write_weather_csv(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert all(float(a) == float(b)
                   for a, b in zip(again.factors["temp"], table.factors["temp"]))

    def test_format_timestamps_matches_parsed_datetimes(self, tmp_path):
        texts = ["2021-03-01T02:00:00+02:00", "2021-03-01T05:00:00z",
                 "2021-03-01T07:00:00", "1969-12-31T23:00:00Z",
                 "1900-01-01T00:00:00-05:00", "1969-12-31T23:59:59.999999Z",
                 "2024-02-29T23:00:00Z", "2023-12-31T23:00:00Z",
                 "2023-12-31T23:59:59.5+00:00", "0999-12-31T23:00:00Z",
                 "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z"]
        p = write(tmp_path, "w.csv", "timestamp\n" + "\n".join(texts) + "\n")
        stamps = ingest.parse_weather_csv(p).timestamps
        expect = [ts.replace(tzinfo=None)
                  for ts in sorted(ingest.parse_timestamp(t) for t in texts)]
        assert stamps.tolist() == expect
        # whole seconds, the year zero-padded to four digits
        assert ingest.format_timestamps(stamps) == \
            [ts.replace(microsecond=0).isoformat() + "Z" for ts in expect]
        assert ingest.format_timestamps(stamps[:0]) == []

    def test_distinct_value_column_writes_per_value_bytes(self, tmp_path):
        # NaN (an empty cell), both signed zeros and two values one ulp
        # apart, over more than one block of rows
        n = ingest.WRITE_BLOCK_ROWS + 3
        pool = np.array([np.nan, 0.0, -0.0, 0.1, np.nextafter(0.1, 1.0), 1e-320, 0.5])
        col = pool[np.random.default_rng(4).integers(pool.size, size=n)]
        bits, index = np.unique(col.view(np.uint64), return_inverse=True)
        assert bits.size == pool.size
        stamps = hours(*range(n))
        plain, paired = tmp_path / "plain.csv", tmp_path / "paired.csv"
        ingest.write_text_columns(plain, ["timestamp", "p"], stamps, [col])
        ingest.write_text_columns(paired, ["timestamp", "p"], stamps,
                                  [(bits.view(np.float64), index)])
        assert paired.read_bytes() == plain.read_bytes()
        assert set(plain.read_bytes().split(b"\r\n")[1].split(b",")[1:]) <= \
            {b"", b"0.0", b"-0.0", b"0.1", b"0.10000000000000002", b"1e-320", b"0.5"}

    def test_distinct_value_column_holds_one_block_of_texts(self, tmp_path):
        # 100k rows drawing on 500 values: the write holds the 500 texts and
        # one block's, nowhere near the texts of the whole file
        n = 100_000
        rng = np.random.default_rng(9)
        values = rng.random(500)
        index = rng.integers(values.size, size=n)
        stamps = np.datetime64("2000-01-01T00", "us") + np.arange(n) * ingest.HOUR
        p = tmp_path / "p.csv"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            ingest.write_text_columns(p, ["timestamp", "p"], stamps, [(values, index)])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the texts of every row take about five times the file's size
        assert peak < p.stat().st_size / 2

    def test_gappy_raw_round_trip_with_missing_cells(self, tmp_path):
        raw = RawWeatherTable(hours(0, 1, 3, 7, 8),
                              {"a": [1.5, np.nan, -0.0, 2e-300, np.nan],
                               "b": [np.nan, np.nan, 3.0, -1e300, 0.1]})
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        ingest.write_weather_csv(raw, p1)
        back = ingest.parse_weather_csv(p1)
        ingest.write_weather_csv(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().split(b"\r\n")[:3] == [
            b"timestamp,a,b", b"2021-03-01T00:00:00Z,1.5,",
            b"2021-03-01T01:00:00Z,,"]
        assert same(back.timestamps, raw.timestamps)
        for name in ("a", "b"):
            assert np.array_equal(back.factors[name].view(np.uint64),
                                  raw.factors[name].view(np.uint64))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_format_timestamps_matches_numpy(self, data):
        # unsorted instants from year 1 to 9999, with repeats, before 1970
        # and between whole seconds; days repeat in some arrays and not in
        # others
        instant = st.one_of(
            st.integers(_YEAR_1_US, _YEAR_10000_US - 1),
            st.integers(-2 * 86_400_000_000, 2 * 86_400_000_000),
            st.integers(-200, 200).map(lambda h: h * 3_600_000_000))
        micros = data.draw(st.lists(instant, max_size=40))
        if micros:
            micros += data.draw(st.lists(st.sampled_from(micros), max_size=10))
            micros = data.draw(st.permutations(micros))
        stamps = np.array(micros, dtype=np.int64).view(ingest.TIME_DTYPE)
        assert ingest.format_timestamps(stamps) == \
            np.datetime_as_string(stamps, unit="s", timezone="UTC").tolist()

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_block_writes_match_row_by_row(self, tmp_path, extra):
        # around one block of rows; the last stamp, a year before 1000
        # written zero-padded, falls in the second block at block + 1 rows
        n = ingest.WRITE_BLOCK_ROWS + extra
        stamps = hours(*range(n))
        stamps[-1] = np.datetime64("0999-12-31T23:00:00", "us")
        rng = np.random.default_rng(n)
        a = rng.normal(size=n) * 1e3
        a[rng.random(n) < 0.1] = np.nan
        b = rng.normal(size=n)
        p = tmp_path / "w.csv"
        ingest.write_weather_csv(RawWeatherTable(stamps, {"a": a, "b": b}), p)
        lines = [f"{t.item().isoformat()}Z,"
                 f"{'' if np.isnan(x) else repr(float(x))},{float(y)!r}"
                 for t, x, y in zip(stamps, a, b)]
        assert p.read_bytes() == "\r\n".join(
            ["timestamp,a,b", *lines, ""]).encode()

    def test_outage_round_trip(self, tmp_path):
        events = ingest.OutageEvents(hours(2, 7) + np.array([48, 0], dtype="m8[m]"),
                                     np.array([True, False]))
        p = tmp_path / "o.csv"
        ingest.write_outage_csv(events, p)
        back = ingest.parse_outage_csv(p)
        assert same(back.timestamps, events.timestamps)
        assert same(back.weather_related, events.weather_related)

    def test_years_before_1000_round_trip(self, tmp_path):
        stamps = np.datetime64("0999-12-31T22", "us") + np.arange(4) * ingest.HOUR
        raw = RawWeatherTable(stamps, {"a": [1.5, np.nan, -2.0, 0.25]})
        weather = tmp_path / "w.csv"
        ingest.write_weather_csv(raw, weather)
        assert weather.read_bytes().split(b"\r\n")[1:5:3] == [
            b"0999-12-31T22:00:00Z,1.5", b"1000-01-01T01:00:00Z,0.25"]
        back = ingest.parse_weather_csv(weather)
        assert same(back.timestamps, stamps)
        assert same(back.factors["a"], raw.factors["a"])
        events = ingest.OutageEvents(stamps[::-1] + np.timedelta64(59, "m"),
                                     np.array([True, False, True, False]))
        outages = tmp_path / "o.csv"
        ingest.write_outage_csv(events, outages)
        again = ingest.parse_outage_csv(outages)
        assert same(again.timestamps, events.timestamps)
        assert same(again.weather_related, events.weather_related)
        table = ingest.attach_outage_labels(ingest.interpolate_missing(back),
                                            again.timestamps[again.weather_related])
        assert list(table.label) == [0, 1, 0, 1]
