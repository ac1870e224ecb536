"""CSV ingestion and hourly alignment of weather and outage records.

Weather files carry a ``timestamp`` column plus one numeric column per
meteorological factor. Outage files carry ``timestamp,weather_related``.
Timestamps are ISO-8601 UTC on disk. In memory a table's timeline is one
``datetime64[us]`` array of UTC instants, microseconds being the resolution
of the parsed ISO text, and its factor columns are float64 arrays with
``NaN`` for a missing cell. Outage event times are a ``datetime64[us]``
array too, beside a bool array of their flags. All in-memory tables live
on a uniform one-hour grid once they pass through
:func:`interpolate_missing`.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import os
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import workers

TIME_DTYPE = np.dtype("datetime64[us]")
HOUR = np.timedelta64(1, "h")
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
# Rows that write_text_columns formats and writes at a time. Formatting a
# whole file at once held one str per cell: at 1M hours that lifted
# `predict` from 282 to 467 MB. A block of 4,096 rows adds 1-2 MB; 16,384
# added 5-8 MB at 65k-100k rows and wrote no faster.
WRITE_BLOCK_ROWS = 4_096
# A write that formats rows in Python splits them into parts of at least
# _MIN_PART_ROWS rows: one float column of 16,384 rows took 28.5 ms in one
# part and 24.1 ms in two, 8,192 rows 14.2 and 21.6 ms.
_MIN_PART_ROWS = 8_192

TIMESTAMP_COLUMN = "timestamp"
OUTAGE_FLAG_COLUMN = "weather_related"

# Cell texts treated as an explicitly missing measurement.
MISSING_TOKENS = frozenset({"", "N/A"})


class ParseError(ValueError):
    """Malformed input file; carries the offending location when known."""

    def __init__(self, message: str, *, path=None, row: int | None = None,
                 column: str | None = None):
        where = []
        if path is not None:
            where.append(str(path))
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)
        self.path = path
        self.row = row
        self.column = column


class UnrecoverableColumnError(ValueError):
    """A factor column has no observed value anywhere, so it cannot be filled."""

    def __init__(self, column: str):
        super().__init__(f"factor column {column!r} has no non-missing values")
        self.column = column


class EventOutOfRangeError(ValueError):
    """Outage events fall outside the weather table's hourly timeline.

    ``events`` holds exactly those events, in input order.
    """

    def __init__(self, events: np.ndarray):
        shown = ", ".join(format_timestamps(events[:5]))
        more = "" if len(events) <= 5 else f" and {len(events) - 5} more"
        super().__init__(f"outage events outside table range: {shown}{more}")
        self.events = events


@dataclass
class RawWeatherTable:
    """Parsed weather rows, sorted by time but possibly gappy and incomplete.

    ``timestamps`` is a ``datetime64[us]`` array, unique and strictly
    increasing but not necessarily contiguous. ``factors`` maps column name
    to a float64 array with one value per row; ``NaN`` marks a missing
    measurement. Sequences given for ``factors`` are converted, with
    ``None`` read as missing.
    """

    timestamps: np.ndarray
    factors: dict[str, np.ndarray]

    def __post_init__(self):
        self.factors = {name: np.asarray(values, dtype=np.float64)
                        for name, values in self.factors.items()}

    @property
    def n_rows(self) -> int:
        return len(self.timestamps)

    @property
    def factor_names(self) -> list[str]:
        return list(self.factors)


@dataclass
class TimeSeriesTable:
    """Complete hourly table: uniform grid, no missing cells, binary labels.

    Invariants: ``timestamps`` is a ``datetime64[us]`` array that strictly
    increases with a constant one-hour step; every factor series is finite
    everywhere; ``label`` holds one 0/1 flag per hour.
    """

    timestamps: np.ndarray
    factors: dict[str, np.ndarray]
    label: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.label is None:
            self.label = np.zeros(len(self.timestamps), dtype=np.int64)

    @property
    def n_rows(self) -> int:
        return len(self.timestamps)

    @property
    def factor_names(self) -> list[str]:
        return list(self.factors)


def parse_timestamp(text: str, *, path=None, row: int | None = None) -> datetime:
    """Parse an ISO-8601 timestamp into an aware UTC datetime."""
    raw = text.strip()
    normalized = raw[:-1] + "+00:00" if raw.endswith(("Z", "z")) else raw
    try:
        ts = datetime.fromisoformat(normalized)
    except ValueError:
        raise ParseError(f"unparseable timestamp {text!r}", path=path, row=row,
                         column=TIMESTAMP_COLUMN) from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def format_timestamps(stamps: np.ndarray) -> list[str]:
    """The ISO text ``YYYY-MM-DDTHH:MM:SS[.ffffff]Z`` of every entry of a
    timeline, with the six-digit fraction only where a stamp has one.

    A whole-second stamp's text is ``np.datetime_as_string(stamps, unit="s",
    timezone="UTC")``'s, any other's that with ``unit="us"``; either is
    what :func:`parse_timestamp` reads back. Each distinct day and each
    distinct time of day is formatted once and the two are joined by
    index: a block of an hourly file spans a few hundred days and 24 times
    of day.
    """
    days = stamps.astype("datetime64[D]")
    day, day_of = np.unique(days, return_inverse=True)
    time_us, time_of = np.unique((stamps - days) // np.timedelta64(1, "us"),
                                 return_inverse=True)
    day_text = np.datetime_as_string(day).astype(object)
    time_text = np.array([_time_of_day_text(*divmod(us, 1_000_000))
                          for us in time_us.tolist()], dtype=object)
    return (day_text[day_of] + time_text[time_of]).tolist()


def _time_of_day_text(s: int, us: int) -> str:
    fraction = f".{us:06d}" if us else ""
    return f"T{s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}{fraction}Z"


def _parse_cell(text: str) -> float | None:
    """Numeric cell parser: standard decimal notation only.

    Empty cells, N/A markers, locale-formatted numbers, and non-finite
    values all become missing markers rather than errors.
    """
    cell = text.strip()
    if cell in MISSING_TOKENS:
        return None
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def parse_weather_csv(path, schema: Sequence[str] | None = None) -> RawWeatherTable:
    """Read a weather CSV into a sorted :class:`RawWeatherTable`.

    ``schema`` selects and orders the factor columns to keep; ``None``
    keeps every non-timestamp column in header order. Duplicate timestamps
    are rejected; rows arrive sorted by time regardless of file order.

    A file numpy's C reader can take whole is read in one pass
    (:func:`_parse_weather_fast`); any other file goes through the per-cell
    reader, which is also the only source of row-level errors. Both give
    the same table, bit for bit.
    """
    with _open_csv(path, "weather", [TIMESTAMP_COLUMN, *(schema or ())]) \
            as (p, header, rows):
        columns = [c for c in header if c != TIMESTAMP_COLUMN] if schema is None \
            else list(schema)
        col_idx = [header.index(c) for c in columns]
        table = _parse_weather_fast(p, len(header), header.index(TIMESTAMP_COLUMN),
                                    columns, col_idx)
        if table is None:
            table = _parse_weather_rows(p, rows, columns, col_idx)
    return table


@contextlib.contextmanager
def _open_csv(path, kind: str, required: Sequence[str]):
    """Open the ``kind`` CSV at ``path``: yields its path, its header names,
    stripped, and its rows (:func:`_stamped_rows`). Refuses, in this order, a
    file that is not there, an empty one and a header short of ``required``."""
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"{kind} file not found", path=p)
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"empty {kind} file", path=p) from None
        for col in required:
            if col not in header:
                raise ParseError("missing required column", path=p, column=col)
        yield p, header, _stamped_rows(p, header, reader)


def _stamped_rows(p: Path, header: list[str], reader):
    """``(microseconds since the epoch, line number, record)`` of each
    non-blank row that ``reader`` has left, the line number counting the
    header and blank rows. A row needs one field per header name and a
    timestamp that :func:`parse_timestamp` reads."""
    ts_idx = header.index(TIMESTAMP_COLUMN)
    for lineno, record in enumerate(reader, start=2):
        if not record:
            continue
        if len(record) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(record)}",
                             path=p, row=lineno)
        ts = parse_timestamp(record[ts_idx], path=p, row=lineno)
        yield (ts - _EPOCH) // _MICROSECOND, lineno, record


# The one timestamp layout the fast path reads, "YYYY-MM-DDTHH:MM:SSZ",
# plus one byte that must stay empty: numpy cuts a text to its field's
# width, so a longer stamp shows only there.
_STAMP_LAYOUT = np.frombuffer(b"0000-00-00T00:00:00Z\0", dtype=np.uint8)
_STAMP_DIGITS = _STAMP_LAYOUT == ord("0")
_DATA_BYTE = re.compile(rb"[^\r\n]")
_YEAR_1 = np.datetime64("0001-01-01", "us")
_COMMA, _LF, _CR = b",\n\r"
# Bytes of a weather file that the fast path reads, checks and parses at a
# time (:func:`_line_blocks`): glibc's default mmap threshold. Freeing a
# transient far above the threshold raises it, and the brk heap then keeps
# the mid-size arrays that later stages free; a part read whole (6.6 MB at
# 100k hours) did that. Blocks of 64 KiB parsed the 100k-hour file 1-2 ms
# slower, for at most 0.6 MB less peak RSS in `learn`, `predict` or `eval`.
_BLOCK = 1 << 17
# A file's data lines are split into parts of at least _MIN_PART_BYTES
# (see workers.part_count).
_MIN_PART_BYTES = 1 << 20


def _parse_weather_fast(p: Path, n_fields: int, ts_idx: int, columns: list[str],
                        col_idx: list[int]) -> RawWeatherTable | None:
    """The file through ``np.loadtxt``, one line-aligned part per usable
    CPU, or ``None`` to fall back.

    Accepts only files whose every cell the per-cell reader would read the
    same way: ASCII with no quote, NUL or lone CR; at least one data line;
    every timestamp in the fixed layout ``YYYY-MM-DDTHH:MM:SSZ`` and unique;
    every other cell a number numpy parses or a missing cell. Each part
    runs these checks on its own lines (:func:`_parse_part`); the sort, the
    duplicate check and the rewrite of non-finite values to ``NaN`` run
    here, once, on the gathered columns.

    Part 0 is parsed in this process and every other part in a forked
    worker (:func:`workers.forked`), which replies with its columns' bytes
    (:func:`_parse_worker`). The parts are gathered in file order: each
    one parsed here is parsed straight into the columns, and each reply
    is read from its pipe into place (:func:`_read_part`). A part whose
    worker could not be forked, sent nothing or died before the end of
    its reply is parsed here. Only a part that the C reader refuses sends
    the file to the per-cell reader. No worker outlives this call,
    whatever it raises.
    """
    with open(p, "rb") as fh:
        header = fh.readline()
        if not header.endswith(b"\n") or b"\r" in header[:-2]:
            return None  # no data line, or a lone CR in the header
        ranges = _part_ranges(fh, len(header), os.fstat(fh.fileno()).st_size)
    dtype = np.dtype([(f"f{k}", f"S{_STAMP_LAYOUT.size}" if k == ts_idx else "f8")
                      for k in range(n_fields)])
    part = functools.partial(_parse_part, p, dtype=dtype, ts_idx=ts_idx,
                             col_idx=col_idx)
    out = _new_columns(len(columns))
    with workers.forked(functools.partial(_parse_worker, part, len(columns)),
                        ranges[1:]) as pipes:
        for (start, stop), pipe in zip(ranges, [None, *pipes]):
            if pipe is not None and _read_part(pipe, out, stop - start):
                continue
            if not part(start, stop, out=out):
                return None  # the C reader refuses the part
    if not len(out[0]):
        return None  # no data rows
    stamps = out.pop(0)
    if np.all(stamps[1:] > stamps[:-1]):
        order = None
    else:
        order = np.argsort(stamps, kind="stable")
        stamps = stamps[order]
        if np.any(stamps[1:] == stamps[:-1]):
            return None  # the per-cell reader reports the row
    factors = {}
    for c in columns:
        values = out.pop(0)
        values[~np.isfinite(values)] = np.nan
        factors[c] = values if order is None else values[order]
    return RawWeatherTable(stamps, factors)


def _part_ranges(fh, body: int, size: int) -> list[tuple[int, int]]:
    """The byte ranges of a file's parts, which split its data lines at line
    ends.

    There are :func:`workers.part_count` parts, of at least
    :data:`_MIN_PART_BYTES` of data lines each. Part 0 starts at
    the header. Every other part starts at the LF that ends the line before
    its first one, which the previous part also ends with, so that every
    part's first line, the header or an empty one, is skipped alike.
    """
    n = workers.part_count(size - body, _MIN_PART_BYTES)
    starts = [0]
    for k in range(1, n):
        fh.seek(max(body + (size - body) * k // n, starts[-1] + 1))
        if not fh.readline().endswith(b"\n"):
            break  # the cut falls in the last line
        starts.append(fh.tell() - 1)
    return list(zip(starts, [s + 1 for s in starts[1:]] + [size]))


def _new_columns(width: int) -> list[np.ndarray]:
    """Empty columns of a parse: the timestamps, then ``width`` floats."""
    return [np.empty(0, dtype=TIME_DTYPE), *(np.empty(0) for _ in range(width))]


def _resize(columns: list[np.ndarray], n: int) -> None:
    """Lengthen or cut each of ``columns`` to ``n`` items in place, with
    ``realloc``. ``refcheck=False`` skips numpy's check that nothing else
    refers to a column, so no view of a column may live across a resize:
    it would point at freed memory."""
    for a in columns:
        a.resize(n, refcheck=False)


def _count_lines(p: Path, start: int, stop: int) -> int:
    """How many lines bytes ``start:stop`` of a file hold after their first,
    a part's (:func:`_part_ranges`): at least as many as it has rows.

    The LFs are counted :data:`_BLOCK` bytes at a time, in two buffers made
    once."""
    buf = np.empty(_BLOCK, dtype=np.uint8)
    lf = np.empty(_BLOCK, dtype=bool)
    lines, last = -1, _LF  # the first line ends at an LF
    with open(p, "rb", buffering=0) as fh:
        fh.seek(start)
        for at in range(start, stop, _BLOCK):
            n = fh.readinto(buf[:min(_BLOCK, stop - at)])
            if not n:
                break
            lines += np.count_nonzero(np.equal(buf[:n], _LF, out=lf[:n]))
            last = buf[n - 1]
    return int(lines + (last != _LF))  # a last line without an LF


def _parse_worker(part, width: int, start: int, stop: int) -> list[np.ndarray] | None:
    """A parse worker's reply (:func:`workers.forked`): the bytes of its part's
    ``1 + width`` columns, one column after another, or ``None`` when the
    part falls back."""
    out = _new_columns(width)
    return [a.view(np.uint8) for a in out] if part(start, stop, out=out) else None


def _read_part(pipe, out: list[np.ndarray], most: int) -> bool:
    """A worker's reply (:func:`_parse_worker`), read from its pipe straight
    onto the end of ``out``, which it lengthens once: whether it was whole.
    A reply that is not whole rows, claims more than ``most`` rows (the
    bytes of the worker's range) or ends short leaves ``out`` as it was."""
    size = workers.read_size(pipe)
    row = 8 * len(out)  # every column's items take 8 bytes
    if size is None or size % row or size // row > most:
        return False
    at, n = len(out[0]), size // row
    _resize(out, at + n)
    for a in out:
        if pipe.readinto(a[at:].view(np.uint8)) != 8 * n:
            _resize(out, at)
            return False
    return True


def _parse_part(p: Path, start: int, stop: int, *, out: list[np.ndarray],
                dtype: np.dtype, ts_idx: int, col_idx: list[int]) -> bool:
    """One part of a weather file (:func:`_part_ranges`), parsed block by
    block (:func:`_block_rows`) onto the end of ``out``, its timestamps and
    then the columns ``col_idx`` in file order: ``False`` to fall back.

    The columns are lengthened once, by the part's :func:`_count_lines`,
    and cut back to the rows it holds."""
    at = end = len(out[0])
    _resize(out, at + _count_lines(p, start, stop))
    with open(p, "rb", buffering=0) as fh:
        fh.seek(start)
        while fh.tell() < stop:
            rows = _block_rows(fh, stop, dtype)
            if rows is None or end + len(rows) > len(out[0]):
                return False
            if not len(rows):
                continue
            text = np.ascontiguousarray(rows[f"f{ts_idx}"]).view(np.uint8) \
                .reshape(len(rows), _STAMP_LAYOUT.size)
            if not (np.all(text[:, _STAMP_DIGITS] - ord("0") <= 9)
                    and np.all(text[:, ~_STAMP_DIGITS] == _STAMP_LAYOUT[~_STAMP_DIGITS])):
                return False
            block = slice(end, end + len(rows))
            try:
                out[0][block] = np.ascontiguousarray(text[:, :19]).view("S19")[:, 0]
            except ValueError:  # a field out of range, such as month 13
                return False
            if out[0][block].min() < _YEAR_1:  # year 0, which datetime cannot hold
                return False
            for values, k in zip(out[1:], col_idx):
                values[block] = rows[f"f{k}"]
            end += len(rows)
    _resize(out, end)  # lines that hold no row, blank ones
    return True


def _line_block(fh, stop: int) -> bytes:
    """The block of whole lines at ``fh``'s position in a part
    (:func:`_part_ranges`) that ends at ``stop``; ``fh`` is left where the
    next block starts, or at ``stop`` after the last. A block begins as a
    part does, with a line to skip: the header, or the LF that ends the
    previous block. It holds at most :data:`_BLOCK` bytes, or its first
    line and one more."""
    start = fh.tell()
    data = fh.read(min(_BLOCK, stop - start))
    end = start + len(data)
    while end < stop and data.find(b"\n", data.find(b"\n") + 1) < 0:
        data += fh.read(min(_BLOCK, stop - end))
        if start + len(data) == end:
            break  # the file got shorter
        end = start + len(data)
    cut = data.rfind(b"\n") + 1
    if end == stop or cut <= data.find(b"\n") + 1:
        fh.seek(stop)
        return data
    fh.seek(start + cut - 1)
    return data[:cut]


def _block_rows(fh, stop: int, dtype: np.dtype) -> np.ndarray | None:
    """The lines after the first of the next block of ``fh``
    (:func:`_line_block`), through one structured ``np.loadtxt`` call, or
    ``None`` to fall back.

    numpy reads LF and CRLF line ends alike, so the bytes go to it as they
    are, but for two rewrites to ``nan``. ``N/A`` becomes ``nan`` wherever
    it occurs: as a whole field, signed or padded, it is then a NaN, as
    ``_parse_cell`` reads it; inside any other text (``xN/A``, ``N/AN/A``)
    numpy refuses the field, and the file falls back. An empty data field
    gets ``nan`` written into it (:func:`_fill_empty_fields`). A block with
    neither is not copied. numpy and ``float`` share CPython's
    string-to-double routine and its whitespace rules; numpy rejects what
    else ``float`` takes (``1_000``).
    """
    data = _line_block(fh, stop)
    # C code on either side may end a text at a NUL
    if not data.isascii() or b'"' in data or b"\0" in data:
        return None
    body = data.find(b"\n") + 1
    if _DATA_BYTE.search(data, body) is None:
        # blank lines only: loadtxt would warn of an empty input
        return np.empty(0, dtype=dtype)
    if b"/" in data:  # one memchr, where looking for N/A takes 50 times longer
        data = data.replace(b"N/A", b"nan")
    data = _fill_empty_fields(data, body)
    if data is None:
        return None  # a lone CR, which csv reads as a line end
    # this function holds the only reference to the block, and BytesIO
    # shares the bytes object that the last rewrite returns, so each
    # rewrite's input goes once it is made: two copies are the most held
    stream = io.BytesIO(data)
    del data
    try:
        return np.loadtxt(stream, dtype=dtype, delimiter=",", comments=None,
                          skiprows=1, ndmin=1, encoding="ascii")
    except ValueError:
        return None


def _fill_empty_fields(data: bytes, body: int) -> bytes | None:
    """``data`` with ``nan`` in each empty field of its data lines, or ``None``
    if they hold a lone CR.

    ``body`` is the offset of the first data line. ``data`` itself comes
    back when no field is empty; otherwise ``nan`` joins views of the text
    between the empty fields, so ``data`` and the result are the only
    copies held.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    data_lines = buf[body:]
    cr = np.flatnonzero(data_lines == _CR) + body
    if np.any(_next_byte(buf, cr) != _LF):
        return None
    # a comma after LF starts a line with an empty field, and a comma
    # before a comma, CR, LF or the end of the file ends one; a blank
    # line holds no field
    comma = np.flatnonzero(data_lines == _COMMA) + body
    ahead = _next_byte(buf, comma)
    cuts = np.sort(np.concatenate([
        comma[buf[comma - 1] == _LF],
        comma[(ahead == _COMMA) | (ahead == _LF) | (ahead == _CR)] + 1])).tolist()
    if not cuts:
        return data
    text = memoryview(data)
    return b"nan".join([text[a:b] for a, b in zip([0, *cuts], [*cuts, len(data)])])


def _next_byte(buf: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The byte after each offset. Past the end of a block the last byte
    stands in for it: a block that does not end at an LF ends the file, so
    a CR there is lone, and a comma there ends an empty field, as they
    should be."""
    return buf[np.minimum(at + 1, buf.size - 1)]


def _parse_weather_rows(p: Path, rows, columns: list[str],
                        col_idx: list[int]) -> RawWeatherTable:
    """The per-cell reader: ``parse_timestamp`` and ``_parse_cell`` on each
    of ``rows`` (:func:`_stamped_rows`)."""
    micros, linenos, records = [], [], []
    for us, lineno, record in rows:
        micros.append(us)
        linenos.append(lineno)
        records.append(record)
    if not records:
        raise ParseError("weather file has no data rows", path=p)
    # a stable sort keeps equal timestamps in file order, so a duplicate is
    # reported at its later row
    key = np.array(micros, dtype=np.int64)
    order = np.argsort(key, kind="stable")
    timestamps = key[order].view(TIME_DTYPE)
    repeats = np.flatnonzero(timestamps[1:] == timestamps[:-1]) + 1
    if repeats.size:
        k = repeats[0]
        raise ParseError(
            f"duplicate timestamp {format_timestamps(timestamps[k:k + 1])[0]}",
            path=p, row=linenos[order[k]], column=TIMESTAMP_COLUMN)

    # float64 conversion reads each None from _parse_cell as NaN
    return RawWeatherTable(timestamps, {
        c: np.array([_parse_cell(r[k]) for r in records], dtype=np.float64)[order]
        for c, k in zip(columns, col_idx)})


def interpolate_missing(raw: RawWeatherTable) -> TimeSeriesTable:
    """Fill gaps onto a complete hourly grid.

    Whole missing hours become rows first, then each factor is filled by
    linear interpolation against time; runs at either edge take the nearest
    observed value. A column observed nowhere raises
    :class:`UnrecoverableColumnError`, and a timeline that is not strictly
    increasing or not on whole hours a ``ValueError`` that names the first
    offending stamp. Labels start at zero.

    The columns are filled one at a time, and each leaves ``raw.factors``
    once it is filled, so ``raw.factors`` is empty on return (and partly
    emptied by an unrecoverable column); ``raw.timestamps`` stays. When no
    hour is missing, the timeline and each column observed at every hour
    are ``raw``'s own arrays, not copies: ``np.interp`` would give back each
    sample exactly.
    """
    if raw.n_rows == 0:
        raise ValueError("cannot interpolate an empty table")
    stamps = raw.timestamps
    misaligned = np.flatnonzero(stamps != stamps.astype("datetime64[h]"))
    if misaligned.size:
        k = misaligned[0]
        raise ValueError(f"weather timestamp {format_timestamps(stamps[k:k + 1])[0]}"
                         " is not hour-aligned")
    unordered = np.flatnonzero(stamps[1:] <= stamps[:-1])
    if unordered.size:
        k = unordered[0]
        before, stamp = format_timestamps(stamps[k:k + 2])
        raise ValueError(f"weather timestamp {stamp} does not come after {before}:"
                         " the timeline must strictly increase")
    n = int((stamps[-1] - stamps[0]) // HOUR) + 1
    # strictly increasing whole hours with none missing are the grid itself
    complete = n == raw.n_rows
    grid = stamps if complete else stamps[0] + np.arange(n) * HOUR
    hours = np.arange(n, dtype=np.float64)
    # as floats, so that np.interp converts no column's positions again
    positions = hours if complete else ((stamps - stamps[0]) // HOUR).astype(np.float64)

    filled: dict[str, np.ndarray] = {}
    for name in list(raw.factors):
        values = raw.factors.pop(name)
        observed = np.isfinite(values)
        if complete and observed.all():
            filled[name] = values
        elif observed.any():
            filled[name] = np.interp(hours, positions[observed], values[observed])
        else:
            raise UnrecoverableColumnError(name)
        del values, observed
    return TimeSeriesTable(grid, filled, np.zeros(n, dtype=np.int64))


def attach_outage_labels(table: TimeSeriesTable,
                         events: np.ndarray) -> TimeSeriesTable:
    """Mark the hour bucket of each outage event with label 1.

    ``events`` is a ``datetime64[us]`` array. Event times are floored to
    the containing hour. Events outside the table's timeline abort with
    :class:`EventOutOfRangeError`. The result keeps labels already present,
    so the operation is idempotent and only ever turns labels on. It shares
    the timeline and factor arrays with ``table``; only its labels are a
    new array.
    """
    indices = (events - table.timestamps[0]) // HOUR
    outside = (indices < 0) | (indices >= table.n_rows)
    if np.any(outside):
        raise EventOutOfRangeError(events[outside])
    label = table.label.copy()
    label[indices] = 1
    return TimeSeriesTable(table.timestamps, dict(table.factors), label)


@dataclass
class OutageEvents:
    """Outage events in file order: one ``datetime64[us]`` instant and one
    weather-related flag each."""

    timestamps: np.ndarray
    weather_related: np.ndarray


def parse_outage_csv(path) -> OutageEvents:
    """Read an outage event CSV; flag values must be literal 0 or 1."""
    with _open_csv(path, "outage", [TIMESTAMP_COLUMN, OUTAGE_FLAG_COLUMN]) \
            as (p, header, rows):
        flag_idx = header.index(OUTAGE_FLAG_COLUMN)
        micros, flags = [], []
        for us, lineno, record in rows:
            flag = record[flag_idx].strip()
            if flag not in ("0", "1"):
                raise ParseError(f"weather_related flag must be 0 or 1, got {flag!r}",
                                 path=p, row=lineno, column=OUTAGE_FLAG_COLUMN)
            micros.append(us)
            flags.append(flag == "1")
    return OutageEvents(np.array(micros, dtype=np.int64).view(TIME_DTYPE),
                        np.array(flags, dtype=bool))


def _format_column(values: np.ndarray) -> list[str]:
    # repr round-trips float64 exactly, which keeps parse -> write -> parse
    # bit-identical; a missing (NaN) cell is written empty.
    text = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)):
        text[i] = ""
    return text


def write_text_columns(path, header: Sequence[str], timestamps: np.ndarray,
                       columns: Sequence[np.ndarray | tuple[np.ndarray, np.ndarray]]
                       ) -> None:
    """Write a CSV of a timeline and float columns, one row per timestamp.

    Each row is the :func:`format_timestamps` text of its timestamp and the
    ``repr`` of its floats, a NaN written as an empty cell. A column is a
    float array, or a pair ``(values, index)`` that stands for
    ``values[index]``: each of ``values`` is then formatted once, which
    pays off when few distinct values repeat over many rows. The header
    goes through :mod:`csv`; the cells are joined as they are, with csv's
    CRLF line ends, as they never need quoting. Rows are formatted and
    written :data:`WRITE_BLOCK_ROWS` at a time, so the texts held in memory
    stay one block long, beside those of the paired columns' ``values``.

    When some column is a float array, formatted per row, the rows are
    split into one range per usable CPU (:func:`_row_ranges`). This process
    writes the first range; a forked worker formats each other one, and
    its text is copied over when this process reaches it in the file
    (:func:`workers.copy_payload`). The range of a worker that dies, or
    that could not be forked, is formatted here, so the bytes never depend
    on the split, and no worker outlives this call. A write of paired
    columns only, or to a pipe, stays in this process.
    """
    # each column as the texts of its values, or None to format per row,
    # beside the array a block slices
    parts = []
    for c in columns:
        if isinstance(c, tuple):
            values, index = c
            parts.append((np.array(_format_column(np.asarray(values, dtype=np.float64)),
                                   dtype=object), np.asarray(index)))
        else:
            parts.append((None, np.asarray(c, dtype=np.float64)))
    blocks = functools.partial(_text_blocks, timestamps, parts)
    n = len(timestamps)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.flush()
        out = fh.buffer
        # a dead worker's range is cut off by seeking back, which a pipe
        # cannot do
        split = out.seekable() and any(texts is None for texts, _ in parts)
        ranges = _row_ranges(n) if split else [(0, n)]
        with workers.forked(blocks, ranges[1:]) as pipes:
            out.writelines(blocks(*ranges[0]))
            for (start, stop), pipe in zip(ranges[1:], pipes):
                if pipe is not None:
                    at = out.tell()
                    if workers.copy_payload(pipe, out):
                        continue
                    out.seek(at)  # the worker died: its range is formatted here
                    out.truncate()
                out.writelines(blocks(start, stop))


def _text_blocks(timestamps: np.ndarray, parts, start: int, stop: int):
    """The text of rows ``start:stop``, as ASCII bytes, one block of
    :data:`WRITE_BLOCK_ROWS` rows from ``start`` at a time."""
    for b in range(start, stop, WRITE_BLOCK_ROWS):
        block = slice(b, min(b + WRITE_BLOCK_ROWS, stop))
        cells = [format_timestamps(timestamps[block]),
                 *(_format_column(c[block]) if texts is None
                   else texts[c[block]].tolist() for texts, c in parts)]
        yield ("\r\n".join(map(",".join, zip(*cells))) + "\r\n").encode("ascii")


def _row_ranges(n: int) -> list[tuple[int, int]]:
    """The row ranges of a write's parts (:func:`workers.part_count`, with
    parts of at least :data:`_MIN_PART_ROWS` rows), each a run of whole
    blocks but for the last, so that every block's rows, and text, are
    those of a write in one part."""
    blocks = -(-n // WRITE_BLOCK_ROWS)
    parts = min(workers.part_count(n, _MIN_PART_ROWS), max(blocks, 1))
    starts = [blocks * k // parts * WRITE_BLOCK_ROWS for k in range(parts)]
    return list(zip(starts, starts[1:] + [n]))


def write_weather_csv(table: RawWeatherTable | TimeSeriesTable, path) -> None:
    names = table.factor_names
    write_text_columns(path, [TIMESTAMP_COLUMN, *names], table.timestamps,
                       [table.factors[c] for c in names])


def write_outage_csv(events: OutageEvents, path) -> None:
    flags = np.where(events.weather_related, "1", "0").tolist()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([TIMESTAMP_COLUMN, OUTAGE_FLAG_COLUMN])
        fh.writelines(f"{ts},{flag}\r\n" for ts, flag
                      in zip(format_timestamps(events.timestamps), flags))
