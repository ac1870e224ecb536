"""Ingestion: parsing, hourly alignment, interpolation, label attachment."""

import contextlib
import csv
import errno
import io
import os
import sys
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
        # grid then rejects them, naming the stamp to the microsecond
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
            "weather timestamp 2021-03-01T00:00:00.300000Z is not hour-aligned"

    def test_duplicate_is_exact_to_the_microsecond(self, tmp_path):
        p = write(tmp_path, "w.csv",
                  "timestamp,x\n"
                  "2021-03-01T00:00:00.25Z,1\n"
                  "2021-03-01T03:00:00+03:00,2\n"
                  "2021-03-01T00:00:00.250Z,3\n")
        with pytest.raises(ParseError) as err:
            ingest.parse_weather_csv(p)
        assert str(err.value) == (f"duplicate timestamp 2021-03-01T00:00:00.250000Z "
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

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_peak_memory_within_the_table_and_a_few_blocks(self, tmp_path, eol, cpus):
        # the columns are made once, at the size of the table, and a part
        # is read, checked and parsed one block at a time; a worker's
        # columns go from its pipe straight into place. A block is held as
        # read, through its two rewrites and beside its loadtxt records
        p = gappy_copy(gen_weather(tmp_path, hours=40_000), tmp_path / "gappy.csv")
        p.write_bytes(p.read_bytes().replace(b"\n", eol.encode()))
        with split_parse(cpus, ingest._MIN_PART_BYTES):
            assert len(part_texts(p)) == cpus
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                raw = ingest.parse_weather_csv(p)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        table = raw.timestamps.nbytes + sum(v.nbytes for v in raw.factors.values())
        assert np.isnan(raw.factors["F1"]).any()
        assert p.stat().st_size > 20 * ingest._BLOCK
        assert peak <= table + 8 * ingest._BLOCK
        assert_no_child()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_peak_memory_one_block_as_read_at_a_time(self, tmp_path, eol, cpus):
        # only _block_rows refers to a block as read, so it goes once its
        # first rewrite is made: 4.4 blocks above the table were measured
        # in one part, and 5.4 when the block reader held it too
        p = gappy_copy(gen_weather(tmp_path, hours=40_000), tmp_path / "gappy.csv")
        p.write_bytes(p.read_bytes().replace(b"\n", eol.encode()))
        with split_parse(cpus, ingest._MIN_PART_BYTES):
            assert len(part_texts(p)) == cpus
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                raw = ingest.parse_weather_csv(p)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        table = raw.timestamps.nbytes + sum(v.nbytes for v in raw.factors.values())
        assert peak <= table + 5 * ingest._BLOCK
        assert_no_child()


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


@contextlib.contextmanager
def split_parse(cpus, min_part_bytes=1):
    """parse_weather_csv on a host with ``cpus`` usable CPUs, splitting files
    into parts of ``min_part_bytes`` of data lines or more."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                           create=True), \
            mock.patch.object(ingest, "_MIN_PART_BYTES", min_part_bytes):
        yield


def part_texts(p):
    """The bytes of each part that parse_weather_csv splits ``p`` into."""
    data = p.read_bytes()
    with open(p, "rb") as fh:
        body = len(fh.readline())
        return [data[a:b] for a, b in ingest._part_ranges(fh, body, len(data))]


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def dying_workers(tmp_path, module, name, sent=None):
    """Patch ``module.name``, a job that forked workers run, so that each
    worker makes its reply, then writes to its pipe the reply's length and
    its first ``sent(length)`` bytes, or nothing when ``sent`` is None, and
    dies. Each worker that does leaves a file in the directory yielded."""
    dead = tmp_path / "dead"
    dead.mkdir()
    parent, real, real_pipe, write_ends = os.getpid(), getattr(module, name), os.pipe, []

    def pipe():
        r, w = real_pipe()
        write_ends.append(w)
        return r, w

    def job(*args, **kwargs):
        reply = real(*args, **kwargs)
        if os.getpid() == parent:
            return reply
        if sent is not None:
            # the last pipe made before the fork is this worker's
            body = b"".join(map(bytes, reply))
            n = sent(len(body))
            assert n < len(body)  # else no mark: the reply would be whole
            os.write(write_ends[-1], len(body).to_bytes(8, sys.byteorder) + body[:n])
        (dead / str(os.getpid())).touch()
        os._exit(3)

    with mock.patch.object(os, "pipe", pipe), mock.patch.object(module, name, job):
        yield dead


@settings(max_examples=400, deadline=None)
@given(weather_files(), st.integers(1, 4), st.integers(1, 48),
       st.one_of(st.just(ingest._BLOCK), st.integers(1, 9)))
def test_split_parse_matches_per_cell_reader(tmp_path_factory, case, cpus,
                                             min_part_bytes, block):
    # small parts cut the files at arbitrary line ends, and blocks of a few
    # bytes put the block edges of the line count and of the block reads
    # inside and at the end of lines longer than a block, on blank lines,
    # on CRs and on a last line without an LF
    data, schema, fast = case
    p = tmp_path_factory.getbasetemp() / "split.csv"
    p.write_bytes(data)
    with split_parse(cpus, min_part_bytes), \
            mock.patch.object(ingest, "_BLOCK", block):
        if fast:
            with mock.patch.object(ingest, "_parse_weather_rows", refuse):
                assert_matches_per_cell(p, schema)
        else:
            assert_matches_per_cell(p, schema)
    assert_no_child()


class TestSplitParse:
    """A file read in several parts gives the table or the error it gives
    read in one, and leaves no worker process behind."""

    def test_gen_and_gappy_files_in_four_parts(self, tmp_path):
        stock = gen_weather(tmp_path)
        gappy = gappy_copy(stock, tmp_path / "gappy.csv")
        with split_parse(4, 1000):
            assert len(part_texts(stock)) == len(part_texts(gappy)) == 4
            with mock.patch.object(ingest, "_parse_weather_rows", refuse):
                assert_matches_per_cell(stock)
                assert_matches_per_cell(gappy, ["F3", "F1"])
        assert_no_child()

    @pytest.mark.parametrize("last, message", [
        ("2021-03-02T16:00:00Z,junk", None),
        ("2021-03-02T16:00:00Z,1\r2021-03-02T17:00:00Z,2", None),
        ("2021-03-01T00:00:00Z,9", "duplicate timestamp 2021-03-01T00:00:00Z ({p}, "
                                   "row 42, column 'timestamp')")])
    def test_defect_in_the_last_part_only(self, tmp_path, last, message):
        lines = [f"{(T0 + timedelta(hours=h)):%Y-%m-%dT%H:%M:%S}Z,{h}" for h in range(40)]
        p = write(tmp_path, "w.csv", "\n".join(["timestamp,x", *lines, last]) + "\n")
        with split_parse(2, 64):
            *head, tail = part_texts(p)
            assert head and last.encode() in tail
            with mock.patch.object(ingest, "_parse_weather_rows",
                                   wraps=ingest._parse_weather_rows) as per_cell:
                result = assert_matches_per_cell(p)
        assert per_cell.called
        if message is not None:
            assert str(result) == message.format(p=p)
        assert_no_child()

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_part_of_blank_lines_only(self, tmp_path, eol):
        p = tmp_path / "w.csv"
        p.write_bytes(eol.join(["timestamp,x", "2021-03-01T01:00:00Z,1", *[""] * 300,
                                "2021-03-01T00:00:00Z,"]).encode())
        with split_parse(3), warnings.catch_warnings():
            warnings.simplefilter("error")
            parts = part_texts(p)
            assert len(parts) == 3 and parts[1].strip() == b""
            with mock.patch.object(ingest, "_parse_weather_rows", refuse):
                raw = assert_matches_per_cell(p)
        assert same(raw.factors["x"], [np.nan, 1.0])
        assert_no_child()

    def test_one_cpu_or_no_fork_parses_in_process(self, tmp_path, monkeypatch):
        stock = gen_weather(tmp_path)
        expected = oracles.weather_per_cell(stock)
        monkeypatch.setattr(os, "fork", refuse)
        with split_parse(1):
            assert len(part_texts(stock)) == 1
            assert_matches_per_cell(stock)
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert len(part_texts(stock)) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.delattr(os, "fork")
        with mock.patch.object(ingest, "_MIN_PART_BYTES", 1):
            assert len(part_texts(stock)) == 1
            raw = ingest.parse_weather_csv(stock)
        assert np.array_equal(raw.timestamps, expected[0])

    def test_failed_fork_parses_the_rest_in_process(self, tmp_path, monkeypatch):
        def no_process(*args):
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        stock = gen_weather(tmp_path)
        monkeypatch.setattr(os, "fork", no_process)
        with split_parse(4, 1000), \
                mock.patch.object(ingest, "_parse_weather_rows", refuse):
            assert_matches_per_cell(stock)

    def test_dead_worker_range_parsed_in_process(self, tmp_path):
        stock = gen_weather(tmp_path)
        with split_parse(2, 1000), dying_workers(tmp_path, ingest, "_parse_part") as dead, \
                mock.patch.object(ingest, "_parse_weather_rows",
                                  wraps=ingest._parse_weather_rows) as per_cell:
            assert_matches_per_cell(stock)
        assert len(list(dead.iterdir())) == 1
        assert not per_cell.called
        assert_no_child()

    @pytest.mark.parametrize("sent", [0, 12, 2000])
    def test_worker_dead_mid_reply_range_parsed_in_process(self, tmp_path, sent):
        # the worker dies once it has sent its 8-byte length and ``sent``
        # bytes of its columns: in its timestamps, or in its first column
        stock = gen_weather(tmp_path)
        with split_parse(2, 1000), \
                dying_workers(tmp_path, ingest, "_parse_worker", lambda n: sent) as dead, \
                mock.patch.object(ingest, "_parse_weather_rows",
                                  wraps=ingest._parse_weather_rows) as per_cell:
            assert_matches_per_cell(stock)
        assert len(list(dead.iterdir())) == 1
        assert not per_cell.called
        assert_no_child()

    @pytest.mark.parametrize("size, sent, most", [
        (25, 25, 100),  # not whole rows of a timestamp and two floats
        (48, 10, 100),  # short, in the timestamps
        (48, 47, 100),  # short, in the last column
        (48, 48, 1)])  # two rows from a range of one byte
    def test_read_part_refuses_a_reply_that_is_not_whole(self, size, sent, most):
        out = ingest._new_columns(2)
        ingest._resize(out, 1)
        out[0][0], out[1][0], out[2][0] = hours(5)[0], 1.5, np.nan
        rows = [hours(6, 7), [2.5, 3.5], [4.5, 5.5]]
        body = b"".join(np.asarray(a).tobytes() for a in rows)
        pipe = io.BytesIO(size.to_bytes(8, sys.byteorder) + body[:sent])
        assert not ingest._read_part(pipe, out, most)
        assert same(out[0], hours(5)) and same(out[1], [1.5]) and same(out[2], [np.nan])
        # the same reply whole
        assert ingest._read_part(io.BytesIO(len(body).to_bytes(8, sys.byteorder) + body),
                                 out, 2)
        assert same(out[0], hours(5, 6, 7)) and same(out[1], [1.5, 2.5, 3.5]) \
            and same(out[2], [np.nan, 4.5, 5.5])

    def test_interrupt_reaps_every_worker(self, tmp_path):
        stock = gen_weather(tmp_path)
        real = ingest._parse_part

        def interrupted(p, start, stop, **kwargs):
            if start == 0:
                raise KeyboardInterrupt
            return real(p, start, stop, **kwargs)

        with split_parse(4, 1000), \
                mock.patch.object(ingest, "_parse_part", interrupted), \
                pytest.raises(KeyboardInterrupt):
            ingest.parse_weather_csv(stock)
        assert_no_child()


@contextlib.contextmanager
def split_write(cpus, min_part_rows=1, block_rows=None):
    """write_text_columns on a host with ``cpus`` usable CPUs, splitting rows
    into parts of ``min_part_rows`` rows or more, in blocks of
    ``block_rows`` rows (the default block when ``None``)."""
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                           create=True), \
            mock.patch.object(ingest, "_MIN_PART_ROWS", min_part_rows), \
            mock.patch.object(ingest, "WRITE_BLOCK_ROWS",
                              block_rows or ingest.WRITE_BLOCK_ROWS):
        yield


def write_bytes(p, stamps, columns):
    """The file write_text_columns makes of ``columns``, named c0, c1, ..."""
    ingest.write_text_columns(p, ["timestamp", *(f"c{k}" for k in range(len(columns)))],
                              stamps, columns)
    return p.read_bytes()


WRITE_CELLS = [np.nan, 0.0, -0.0, 0.1, 1e-320, -1e300, np.inf, 2.5, 17.0]


@st.composite
def text_tables(draw):
    """(timestamps, columns) of a write: 0-30 rows, some stamps between whole
    seconds; plain float columns, at least one, and ``(values, index)``
    pairs."""
    n = draw(st.integers(0, 30))
    stamps = hours(*range(n)) + np.array(
        draw(st.lists(st.sampled_from([0, 0, 0, 1, 250_000, 999_999]),
                      min_size=n, max_size=n)), dtype="m8[us]")
    cells = st.one_of(st.sampled_from(WRITE_CELLS), st.floats())
    columns = []
    for paired in [False, *draw(st.lists(st.booleans(), max_size=2))]:
        if paired:
            values = np.array(draw(st.lists(cells, min_size=1, max_size=4)))
            columns.append((values, np.array(draw(st.lists(
                st.integers(0, values.size - 1), min_size=n, max_size=n)), dtype=np.int64)))
        else:
            columns.append(np.array(draw(st.lists(cells, min_size=n, max_size=n)),
                                    dtype=np.float64))
    return stamps, draw(st.permutations(columns))


@settings(max_examples=200, deadline=None)
@given(text_tables(), st.integers(1, 4), st.integers(1, 8), st.integers(1, 5))
def test_split_write_matches_one_part(tmp_path_factory, table, cpus, min_part_rows,
                                      block_rows):
    # small blocks and parts put their edges on, before and after every row
    stamps, columns = table
    d = tmp_path_factory.getbasetemp()
    with split_write(1, block_rows=block_rows):
        one = write_bytes(d / "one.csv", stamps, columns)
    with split_write(cpus, min_part_rows, block_rows):
        ranges = ingest._row_ranges(len(stamps))
        split = write_bytes(d / "split.csv", stamps, columns)
    assert split == one
    assert ranges[0][0] == 0 and ranges[-1][1] == len(stamps)
    assert all(a % block_rows == 0 and a < b for a, b in ranges[1:])
    assert_no_child()


class TestSplitWrite:
    """A write in several parts makes the bytes of a write in one, and
    leaves no worker process behind."""

    def test_gen_file_in_four_parts(self, tmp_path):
        stock = gen_weather(tmp_path)
        raw = ingest.parse_weather_csv(stock)
        with split_write(4, 64, 32):
            assert len(ingest._row_ranges(raw.n_rows)) == 4
            ingest.write_weather_csv(raw, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == stock.read_bytes()
        assert_no_child()

    @pytest.mark.parametrize("sent", [None, 0.0, 0.5])
    def test_dead_worker_range_formatted_in_process(self, tmp_path, sent):
        # the worker dies before its length, or after part of its text: the
        # copied part is cut off and the range written again here
        stock = gen_weather(tmp_path)
        raw = ingest.parse_weather_csv(stock)

        cut = None if sent is None else lambda n: int(n * sent)
        with split_write(3, 64, 32), \
                dying_workers(tmp_path, ingest, "_text_blocks", cut) as dead:
            ingest.write_weather_csv(raw, tmp_path / "again.csv")
        assert len(list(dead.iterdir())) == 2
        assert (tmp_path / "again.csv").read_bytes() == stock.read_bytes()
        assert_no_child()

    def test_failed_fork_formats_the_rest_in_process(self, tmp_path, monkeypatch):
        # the first fork succeeds and the second fails with EAGAIN: part 1
        # is copied from its worker, parts 2 and 3 formatted here
        stock = gen_weather(tmp_path)
        raw = ingest.parse_weather_csv(stock)
        real, forks = os.fork, []

        def one_process(*args):
            forks.append(1)
            if len(forks) > 1:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real()

        monkeypatch.setattr(os, "fork", one_process)
        with split_write(4, 64, 32):
            ingest.write_weather_csv(raw, tmp_path / "again.csv")
        assert len(forks) == 2
        assert (tmp_path / "again.csv").read_bytes() == stock.read_bytes()
        assert_no_child()

    def test_one_cpu_or_no_fork_writes_in_process(self, tmp_path, monkeypatch):
        stock = gen_weather(tmp_path)
        raw = ingest.parse_weather_csv(stock)
        monkeypatch.setattr(os, "fork", refuse)
        with split_write(1, 1, 32):
            assert len(ingest._row_ranges(raw.n_rows)) == 1
            ingest.write_weather_csv(raw, tmp_path / "one_cpu.csv")
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert len(ingest._row_ranges(10**6)) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.delattr(os, "fork")
        with mock.patch.object(ingest, "_MIN_PART_ROWS", 1):
            assert len(ingest._row_ranges(10**6)) == 1
            ingest.write_weather_csv(raw, tmp_path / "no_fork.csv")
        assert (tmp_path / "one_cpu.csv").read_bytes() == stock.read_bytes()
        assert (tmp_path / "no_fork.csv").read_bytes() == stock.read_bytes()

    def test_paired_columns_only_never_fork(self, tmp_path, monkeypatch):
        # predict's write: distinct values plus an index per row
        n = 1000
        rng = np.random.default_rng(2)
        values = rng.random(7)
        index = rng.integers(values.size, size=n)
        stamps = hours(*range(n))
        plain = write_bytes(tmp_path / "plain.csv", stamps, [values[index]])
        monkeypatch.setattr(os, "fork", refuse)
        with split_write(4, 1, 16):
            assert write_bytes(tmp_path / "paired.csv", stamps,
                               [(values, index)]) == plain

    def test_pipe_written_in_process(self, tmp_path, monkeypatch):
        # a pipe cannot seek back over a dead worker's part
        stock = gen_weather(tmp_path)
        raw = ingest.parse_weather_csv(stock)
        monkeypatch.setattr(os, "fork", refuse)
        r, w = os.pipe()
        with open(r, "rb") as reader, split_write(4, 64, 32):
            ingest.write_weather_csv(raw, f"/dev/fd/{w}")
            os.close(w)
            assert reader.read() == stock.read_bytes()

    def test_interrupt_reaps_every_worker(self, tmp_path):
        raw = ingest.parse_weather_csv(gen_weather(tmp_path))
        parent, real = os.getpid(), ingest._text_blocks

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(*args)

        with split_write(4, 64, 32), \
                mock.patch.object(ingest, "_text_blocks", interrupted), \
                pytest.raises(KeyboardInterrupt):
            ingest.write_weather_csv(raw, tmp_path / "again.csv")
        assert_no_child()

    def test_parent_holds_one_block_of_texts(self, tmp_path):
        # as for a paired column: the worker's half of the file passes
        # through this process a pipe's worth at a time, never whole
        n = 100_000
        col = np.random.default_rng(9).random(n)
        stamps = np.datetime64("2000-01-01T00", "us") + np.arange(n) * ingest.HOUR
        with split_write(2, ingest._MIN_PART_ROWS):
            assert len(ingest._row_ranges(n)) == 2
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                ingest.write_text_columns(tmp_path / "p.csv", ["timestamp", "p"],
                                          stamps, [col])
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert peak < (tmp_path / "p.csv").stat().st_size / 2
        assert_no_child()


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
        parsed = raw.factors["x"]
        table = ingest.interpolate_missing(raw)
        grid = np.arange(7)
        assert table.factors["x"] is parsed and table.timestamps is raw.timestamps
        assert raw.factors == {}
        assert table.factors["x"].tobytes() == np.interp(grid, grid, x).tobytes()
        assert list(table.factors["y"]) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        # a missing hour sends every column through the interpolation
        gappy = ingest.interpolate_missing(
            RawWeatherTable(hours(0, 1, 3), {"x": [-0.0, 1e308, -1e308]}))
        assert gappy.factors["x"].tobytes() == np.interp(
            [0, 1, 2, 3], [0, 1, 3], [-0.0, 1e308, -1e308]).tobytes()

    def test_peak_memory_one_column_at_a_time(self, tmp_path):
        # each parsed column is dropped once it is filled, so beside the
        # parsed table the fill holds the grid, its positions, one
        # column's fill and the filled columns, which take the parsed
        # ones' place: never a second table
        p = gappy_copy(gen_weather(tmp_path, hours=40_000), tmp_path / "gappy.csv")
        tracemalloc.start()
        try:
            raw = ingest.parse_weather_csv(p)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            table = ingest.interpolate_missing(raw)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        column = table.timestamps.nbytes
        assert raw.factors == {} and len(table.factors) == 4 and raw.n_rows < table.n_rows
        assert peak <= 8 * column

    @pytest.mark.parametrize("ks, message", [
        # every hour present but out of order, which once indexed past the
        # grid's end
        ((0, 2, 1, 3), "weather timestamp 2021-03-01T01:00:00Z does not come after "
                       "2021-03-01T02:00:00Z: the timeline must strictly increase"),
        # which once gave a grid from 01:00 that dropped 00:00
        ((1, 0, 2), "weather timestamp 2021-03-01T00:00:00Z does not come after "
                    "2021-03-01T01:00:00Z: the timeline must strictly increase"),
        ((0, 1, 1, 2), "weather timestamp 2021-03-01T01:00:00Z does not come after "
                       "2021-03-01T01:00:00Z: the timeline must strictly increase")])
    def test_unordered_or_repeated_hours_rejected(self, ks, message):
        raw = RawWeatherTable(hours(*ks), {"x": np.arange(len(ks), dtype=float)})
        with pytest.raises(ValueError) as err:
            ingest.interpolate_missing(raw)
        assert str(err.value) == message

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

    @pytest.mark.parametrize("text, message", [
        (None, "outage file not found ({p})"),
        ("", "empty outage file ({p})"),
        ("timestamp,weather_related\n2021-03-01T00:00:00Z,1\n2021-03-01T01:00:00Z,1,0\n",
         "expected 2 fields, got 3 ({p}, row 3)"),
        ("timestamp,weather_related\n2021-03-01T00:00:00Z,1\nnot-a-time,1\n",
         "unparseable timestamp 'not-a-time' ({p}, row 3, column 'timestamp')"),
        # the blank line counts in the row number
        ("timestamp,weather_related\n\n2021-03-01T00:00:00Z,yes\n",
         "weather_related flag must be 0 or 1, got 'yes' ({p}, row 3, "
         "column 'weather_related')")])
    def test_error_texts(self, tmp_path, text, message):
        p = tmp_path / "o.csv"
        if text is not None:
            p.write_text(text)
        with pytest.raises(ParseError) as err:
            ingest.parse_outage_csv(p)
        assert str(err.value) == message.format(p=p)


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
        # the year zero-padded to four digits, six fraction digits where
        # a stamp has a fraction, as datetime.isoformat writes them
        assert ingest.format_timestamps(stamps) == [ts.isoformat() + "Z" for ts in expect]
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
        assert ingest.format_timestamps(stamps) == [
            np.datetime_as_string(t, unit="us" if m % 1_000_000 else "s", timezone="UTC")
            for t, m in zip(stamps, micros)]

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

    def test_sub_second_stamps_round_trip(self, tmp_path):
        # a fraction is written only where a stamp has one, so the two rows
        # 0.5 s apart stay two rows and read back to the microsecond
        stamps = hours(0, 0, 1) + np.array([250_000, 750_000, 0], dtype="m8[us]")
        raw = RawWeatherTable(stamps, {"a": [1.0, 2.0, 3.0]})
        p = tmp_path / "w.csv"
        ingest.write_weather_csv(raw, p)
        assert p.read_bytes().split(b"\r\n")[1:4] == [
            b"2021-03-01T00:00:00.250000Z,1.0", b"2021-03-01T00:00:00.750000Z,2.0",
            b"2021-03-01T01:00:00Z,3.0"]
        back = assert_matches_per_cell(p)
        assert same(back.timestamps, stamps)
        assert same(back.factors["a"], raw.factors["a"])

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
