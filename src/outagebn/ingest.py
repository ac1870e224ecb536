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
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from . import floatparse, workers
from .preprocess import code_dtype

TIME_DTYPE = np.dtype("datetime64[us]")
HOUR = np.timedelta64(1, "h")
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
# Rows that write_text_columns formats and writes at a time. Formatting a
# whole file at once, one str per cell, lifted `predict` from 282 to 467 MB
# at 1M hours. A block of 4,096 rows is one byte matrix of under 1 MB,
# beside the formatter's temporaries for one column of it, about 1 MB.
WRITE_BLOCK_ROWS = 4_096
# A write that formats rows per row splits them into parts of at least
# _MIN_PART_ROWS rows. With repr, one float column of 16,384 rows took
# 28.5 ms in one part and 24.1 ms in two. With floattext.fields it takes
# 9.7 ms in one and 31 ms in two, as the fork costs more than half the
# work, but the README scenario's 100k rows of six floats still write in
# 0.12 s in two parts against 0.16 s in one.
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
    ``None`` read as missing; a factor that does not hold one value per
    row is refused with a ``ValueError`` that names it.
    """

    timestamps: np.ndarray
    factors: dict[str, np.ndarray]

    def __post_init__(self):
        self.factors = {name: np.asarray(values, dtype=np.float64)
                        for name, values in self.factors.items()}
        for name, values in self.factors.items():
            _check_per_row(f"factor {name!r}", values, self.n_rows)

    @property
    def n_rows(self) -> int:
        return len(self.timestamps)

    @property
    def factor_names(self) -> list[str]:
        return list(self.factors)


@dataclass
class TimeSeriesTable(RawWeatherTable):
    """Complete hourly table: a raw table on a uniform grid, with no missing
    cell, plus binary labels.

    Invariants: ``timestamps`` is a ``datetime64[us]`` array that strictly
    increases with a constant one-hour step; every factor series is finite
    everywhere; ``label`` holds one 0/1 flag per hour, all zero by default;
    the package makes it in ``preprocess.code_dtype([2])``.
    """

    label: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        super().__post_init__()
        if self.label is None:
            self.label = np.zeros(len(self.timestamps), dtype=code_dtype([2]))
        _check_per_row("label", self.label, self.n_rows)


def _check_per_row(what: str, values, n_rows: int) -> None:
    """Refuse ``values`` unless it is a 1-D array of ``n_rows`` values."""
    if np.shape(values) != (n_rows,):
        raise ValueError(f"{what} has shape {np.shape(values)}, "
                         f"not one value for each of {n_rows} rows")


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
    day_text, day_of, time_text, time_of = _stamp_parts(stamps)
    return (day_text.astype(object)[day_of] + time_text.astype(object)[time_of]).tolist()


def _stamp_parts(stamps: np.ndarray):
    """The texts of a timeline's distinct days and times of day, as two str
    arrays, each beside the index of every stamp's text in it."""
    days = stamps.astype("datetime64[D]")
    day, day_of = np.unique(days, return_inverse=True)
    time_us, time_of = np.unique((stamps - days) // np.timedelta64(1, "us"),
                                 return_inverse=True)
    time_text = [_time_of_day_text(*divmod(us, 1_000_000)) for us in time_us.tolist()]
    return np.datetime_as_string(day), day_of, np.array(time_text, dtype=str), time_of


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

    A file whose rows and timestamps the fast path takes is parsed in
    numpy, block by block (:func:`_parse_weather_fast`); any other file
    goes through the per-cell reader, which is also the only source of
    row-level errors. Both give the same table, bit for bit: the fast path
    reads each cell as ``_parse_cell`` does, most in numpy
    (:func:`floatparse.decimals`) and any other through ``_parse_cell``.
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
    file that is not there, an empty one, a header that names a column
    twice and a header short of ``required``."""
    p = Path(path)
    if not p.is_file():
        raise ParseError(f"{kind} file not found", path=p)
    with open(p, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError(f"empty {kind} file", path=p) from None
        for k, col in enumerate(header):
            if col in header[:k]:
                raise ParseError("column named twice in the header", path=p, column=col)
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


# The one timestamp layout the fast path reads, "YYYY-MM-DDTHH:MM:SSZ". A
# stamp's byte differs from it, as xor, by at most 9 where it holds a digit
# ("0" ^ "9" is 9) and by 0 elsewhere.
_STAMP_LAYOUT = np.frombuffer(b"0000-00-00T00:00:00Z", dtype=np.uint8)
_STAMP_XOR_MAX = np.where(_STAMP_LAYOUT == ord("0"), 9, 0).astype(np.uint8)
_YEAR_1 = np.datetime64("0001-01-01", "us")
_MISSING_NA = np.frombuffer(b"N/A", dtype=np.uint8)
_COMMA, _LF, _CR = b",\n\r"
# Bytes of a weather file that the fast path reads, checks and parses at a
# time (:func:`_line_block`): glibc's default mmap threshold. Freeing a
# transient far above the threshold raises it, and the brk heap then keeps
# the mid-size arrays that later stages free; a part read whole (6.6 MB at
# 100k hours) did that. A block of the stock file holds about 1,000 rows
# and 6,000 float cells. A gappy 40k-hour file parsed in one part peaked
# 4.7 blocks above its table under tracemalloc.
_BLOCK = 1 << 17
# Cells that floatparse.decimals reads at a time, at about 95 bytes a cell:
# about 2.2 blocks. Its numpy calls cost about as much as their work on
# 2,048 cells, so 3,072 parsed the stock 100k-hour file about 10% faster;
# a whole block's cells at once, 14% faster, peaked 6 blocks above the
# table on the gappy 40k-hour file.
_CELLS = 3_072
# A file's data lines are split into parts of at least _MIN_PART_BYTES
# (see workers.part_count).
_MIN_PART_BYTES = 1 << 20


def _parse_weather_fast(p: Path, n_fields: int, ts_idx: int, columns: list[str],
                        col_idx: list[int]) -> RawWeatherTable | None:
    """The file parsed in numpy, one line-aligned part per usable CPU, or
    ``None`` to fall back.

    Accepts only files whose every row the per-cell reader would read the
    same way: ASCII with no quote, NUL or lone CR; at least one data line;
    one field per header name on each line; every timestamp in the fixed
    layout ``YYYY-MM-DDTHH:MM:SSZ`` and unique. Each cell is read as the
    per-cell reader reads it: in numpy when it is a plain decimal
    (:func:`floatparse.decimals`), empty or ``N/A``, and by ``_parse_cell``
    otherwise (:func:`_cells`). Each part runs these checks on its own
    lines (:func:`_parse_part`); the sort and the duplicate check run here,
    once, on the gathered columns.

    Part 0 is parsed in this process and every other part in a forked
    worker (:func:`workers.forked`), which replies with its columns' bytes
    (:func:`_parse_worker`). The parts are gathered in file order: each
    one parsed here is parsed straight into the columns, and each reply
    is read from its pipe into place (:func:`_read_part`). A part whose
    worker could not be forked, sent nothing or died before the end of
    its reply is parsed here. Only a part that the checks refuse sends
    the file to the per-cell reader. No worker outlives this call,
    whatever it raises.
    """
    with open(p, "rb") as fh:
        header = fh.readline()
        if not header.endswith(b"\n") or b"\r" in header[:-2]:
            return None  # no data line, or a lone CR in the header
        ranges = _part_ranges(fh, len(header), os.fstat(fh.fileno()).st_size)
    part = functools.partial(_parse_part, p, n_fields=n_fields, ts_idx=ts_idx,
                             col_idx=col_idx)
    out = _new_columns(len(columns))
    with workers.forked(functools.partial(_parse_worker, part, len(columns)),
                        ranges[1:]) as pipes:
        for (start, stop), pipe in zip(ranges, [None, *pipes]):
            if pipe is not None and _read_part(pipe, out, stop - start):
                continue
            if not part(start, stop, out=out):
                return None  # the checks refuse the part
    if not len(out[0]):
        return None  # no data rows
    stamps = out.pop(0)
    if np.all(stamps[1:] > stamps[:-1]):
        return RawWeatherTable(stamps, dict(zip(columns, out)))
    order = np.argsort(stamps, kind="stable")
    stamps = stamps[order]
    if np.any(stamps[1:] == stamps[:-1]):
        return None  # the per-cell reader reports the row
    return RawWeatherTable(stamps, {c: values[order] for c, values in zip(columns, out)})


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
                n_fields: int, ts_idx: int, col_idx: list[int]) -> bool:
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
            rows = _block_rows(fh, stop, n_fields, ts_idx, col_idx)
            if rows is None or end + len(rows[0]) > len(out[0]):
                return False
            block = slice(end, end + len(rows[0]))
            for column, values in zip(out, rows):
                column[block] = values
            end = block.stop
            del rows, values  # before the next block is read
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


def _block_rows(fh, stop: int, n_fields: int, ts_idx: int,
                col_idx: list[int]) -> list[np.ndarray] | None:
    """The rows of the next block of ``fh`` (:func:`_line_block`) after its
    first line: their timestamps, then their values in the columns
    ``col_idx`` (:func:`_cells`); ``None`` to fall back.

    The offsets of the commas and LFs give each field's span, a CR before
    an LF left out, and a blank line, LF or CRLF, is dropped; one check
    then finds every line to hold ``n_fields`` fields. A timestamp must
    be 20 bytes in the fixed layout, of a day and time numpy reads, from
    year 1. The columns that ``col_idx`` does not name are not read.
    """
    data = _line_block(fh, stop)
    # C code may end a text at a NUL, and csv ends a line at a lone CR
    if not data.isascii() or b'"' in data or b"\0" in data or data.endswith(b"\r"):
        return None
    body = data.find(b"\n") + 1
    if not data.endswith(b"\n"):
        data += b"\n"  # the file's last line
    buf = np.frombuffer(data, dtype=np.uint8)
    lines = buf[body:]
    ends = lines == _COMMA
    ends |= lines == _LF
    ends = np.flatnonzero(ends)
    ends += body
    lf = buf[ends] == _LF
    starts = np.empty_like(ends)
    starts[:1] = body
    starts[1:] = ends[:-1] + 1
    if b"\r" in data:
        crlf = lf & (buf[ends - 1] == _CR)
        if np.count_nonzero(crlf) != np.count_nonzero(lines == _CR):
            return None  # a lone CR
        ends -= crlf
        del crlf
    # a blank line: an empty field that starts a line and ends it
    blank = lf & (ends == starts)
    blank[1:] &= lf[:-1]
    if blank.any():
        keep = ~blank
        starts, ends, lf = starts[keep], ends[keep], lf[keep]
    del blank
    rows = lf.size // n_fields
    if lf.size % n_fields or np.count_nonzero(lf) != rows \
            or not lf[n_fields - 1::n_fields].all():
        return None  # a line of another number of fields
    starts, ends = starts.reshape(rows, n_fields), ends.reshape(rows, n_fields)
    stamp_ends = ends[:, ts_idx]  # a view that keeps ends alive
    if np.any(stamp_ends - starts[:, ts_idx] != _STAMP_LAYOUT.size):
        return None
    text = floatparse.windows(buf, stamp_ends, _STAMP_LAYOUT.size)
    del stamp_ends
    if not np.all((text ^ _STAMP_LAYOUT) <= _STAMP_XOR_MAX):
        return None
    try:
        stamps = np.ascontiguousarray(text[:, :19]).view("S19")[:, 0].astype(TIME_DTYPE)
    except ValueError:  # a field out of range, such as month 13
        return None
    if rows and stamps.min() < _YEAR_1:  # year 0, which datetime cannot hold
        return None
    del text
    starts, ends = starts[:, col_idx].ravel(), ends[:, col_idx].ravel()
    values = _cells(buf, starts, ends)
    return [stamps, *values.reshape(rows, len(col_idx)).T]


def _cells(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The float64 of each cell ``buf[starts[i]:ends[i]]`` as ``_parse_cell``
    reads it, NaN for missing: in numpy for a plain decimal
    (:func:`floatparse.decimals`, :data:`_CELLS` cells at a time), an empty
    cell and ``N/A``, and through ``_parse_cell`` for any other cell, one
    at a time."""
    values = np.empty(len(ends))
    settled = np.empty(len(ends), dtype=bool)
    for at in range(0, len(ends), _CELLS):
        part = slice(at, at + _CELLS)
        values[part], settled[part] = floatparse.decimals(buf, starts[part], ends[part])
    todo = ~settled
    if todo.any():
        todo = np.flatnonzero(todo)
        length = ends[todo] - starts[todo]
        na = np.all(floatparse.windows(buf, ends[todo], len(_MISSING_NA)) == _MISSING_NA, axis=1)
        for k in todo[(length != 0) & ((length != len(_MISSING_NA)) | ~na)].tolist():
            value = _parse_cell(buf[starts[k]:ends[k]].tobytes().decode("ascii"))
            values[k] = np.nan if value is None else value
    return values


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
    sample exactly. The float hours that ``np.interp`` reads are made for
    the first column it fills, if any.
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
    hours = positions = None  # made for the first column np.interp fills

    filled: dict[str, np.ndarray] = {}
    for name in list(raw.factors):
        values = raw.factors.pop(name)
        observed = np.isfinite(values)
        if complete and observed.all():
            filled[name] = values
        elif observed.any():
            if hours is None:
                hours = np.arange(n, dtype=np.float64)
                # as floats, so that np.interp converts no column's positions again
                positions = hours if complete else \
                    ((stamps - stamps[0]) // HOUR).astype(np.float64)
            filled[name] = np.interp(hours, positions[observed], values[observed])
        else:
            raise UnrecoverableColumnError(name)
        del values, observed
    return TimeSeriesTable(grid, filled)


def attach_outage_labels(table: TimeSeriesTable,
                         events: np.ndarray) -> TimeSeriesTable:
    """Mark the hour bucket of each outage event with label 1.

    ``events`` is a ``datetime64[us]`` array. Event times are floored to
    the containing hour. Events outside the table's timeline abort with
    :class:`EventOutOfRangeError`. The result keeps labels already present,
    so the operation is idempotent and only ever turns labels on. It shares
    the timeline and factor arrays with ``table``; only its labels are a
    new array, of ``preprocess.code_dtype([2])``.
    """
    indices = (events - table.timestamps[0]) // HOUR
    outside = (indices < 0) | (indices >= table.n_rows)
    if np.any(outside):
        raise EventOutOfRangeError(events[outside])
    label = table.label.astype(code_dtype([2]))
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


def write_text_columns(path, header: Sequence[str], timestamps: np.ndarray,
                       columns: Sequence[np.ndarray | tuple[np.ndarray, np.ndarray]]
                       ) -> None:
    """Write a CSV of a timeline and float columns, one row per timestamp.

    Each row is the :func:`format_timestamps` text of its timestamp and the
    ``repr`` text of its floats (:func:`floattext.fields`), a NaN written as
    an empty cell. A column is a float array, or a pair ``(values,
    index)`` that stands for ``values[index]``: each of ``values`` is then
    formatted once, which pays off when few distinct values repeat over
    many rows. The header goes through :mod:`csv`; the cells are joined as
    they are, with csv's CRLF line ends, as they never need quoting. A
    header that does not name the timestamp and every column, and a
    column or index that does not hold one value per timestamp, are
    refused with a ``ValueError`` before the file is opened.

    Rows are formatted and written :data:`WRITE_BLOCK_ROWS` at a time:
    each block is one matrix of NUL-padded bytes, a row's cells side by
    side, from which the NULs are dropped. So the text held in memory
    stays one block long, beside the formatted ``values`` of the paired
    columns.

    When some column is a float array, formatted per row, the rows are
    split into one range per usable CPU (:func:`_row_ranges`). This process
    writes the first range; a forked worker formats each other one, and
    its text is copied over when this process reaches it in the file
    (:func:`workers.copy_payload`). The range of a worker that dies, or
    that could not be forked, is formatted here, so the bytes never depend
    on the split, and no worker outlives this call. A write of paired
    columns only, or to a pipe, stays in this process.
    """
    from . import floattext  # on first use: learn and eval write no float

    n = len(timestamps)
    if len(header) != 1 + len(columns):
        raise ValueError(f"header {list(header)!r} names {len(header)} columns, "
                         f"but a row has {1 + len(columns)}")
    # each column as the array a block slices, beside what makes the
    # block's fields of that slice: the fields of each of a pair's values,
    # gathered by index, or those of each float
    parts = []
    for name, c in zip(header[1:], columns):
        if isinstance(c, tuple):
            values, index = c
            parts.append((floattext.fields(values).__getitem__, np.asarray(index)))
            _check_per_row(f"index of column {name!r}", parts[-1][1], n)
        else:
            parts.append((floattext.fields, np.asarray(c, dtype=np.float64)))
            _check_per_row(f"column {name!r}", parts[-1][1], n)
    blocks = functools.partial(_text_blocks, timestamps, parts)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.flush()
        out = fh.buffer
        # a dead worker's range is cut off by seeking back, which a pipe
        # cannot do
        split = out.seekable() and any(fields is floattext.fields for fields, _ in parts)
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
        day_text, day_of, time_text, time_of = _stamp_parts(timestamps[block])
        yield _join_rows([_text_rows(day_text)[day_of], _text_rows(time_text)[time_of],
                          *(fields(c[block]) for fields, c in parts)])


def _text_rows(texts: np.ndarray) -> np.ndarray:
    """A str array's ASCII texts as NUL-padded rows of one ``uint8`` matrix."""
    raw = np.array(texts.tolist(), dtype="S")
    return raw.view(np.uint8).reshape(raw.size, raw.dtype.itemsize)


def _join_rows(pieces: list[np.ndarray]) -> bytes:
    """CSV lines from NUL-padded ``uint8`` rows: the rows of ``pieces`` side
    by side, then CRLF, without the NULs."""
    rows = np.empty((len(pieces[0]), sum(m.shape[1] for m in pieces) + 2), np.uint8)
    at = 0
    for m in pieces:
        rows[:, at:at + m.shape[1]] = m
        at += m.shape[1]
    rows[:, at] = ord("\r")
    rows[:, at + 1] = ord("\n")
    return rows[rows != 0].tobytes()


def _row_ranges(n: int) -> list[tuple[int, int]]:
    """The row ranges of a write's parts (:func:`workers.part_count`, with
    parts of at least :data:`_MIN_PART_ROWS` rows), each a run of whole
    blocks but for the last, so that every block's rows, and text, are
    those of a write in one part."""
    blocks = -(-n // WRITE_BLOCK_ROWS)
    parts = min(workers.part_count(n, _MIN_PART_ROWS), max(blocks, 1))
    starts = [blocks * k // parts * WRITE_BLOCK_ROWS for k in range(parts)]
    return list(zip(starts, starts[1:] + [n]))


def write_weather_csv(table: RawWeatherTable, path) -> None:
    names = table.factor_names
    write_text_columns(path, [TIMESTAMP_COLUMN, *names], table.timestamps,
                       [table.factors[c] for c in names])


def write_outage_csv(events: OutageEvents, path) -> None:
    flags = np.where(events.weather_related, "1", "0").tolist()
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow([TIMESTAMP_COLUMN, OUTAGE_FLAG_COLUMN])
        fh.writelines(f"{ts},{flag}\r\n" for ts, flag
                      in zip(format_timestamps(events.timestamps), flags))
