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

import csv
import io
import math
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

TIME_DTYPE = np.dtype("datetime64[us]")
HOUR = np.timedelta64(1, "h")
_SECOND = np.timedelta64(1, "s")
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)
# Rows that write_text_columns formats and writes at a time. Formatting a
# whole file at once held one str per cell: at 1M hours that lifted
# `predict` from 282 to 467 MB. A block of 4,096 rows adds 1-2 MB; 16,384
# added 5-8 MB at 65k-100k rows and wrote no faster.
WRITE_BLOCK_ROWS = 4_096

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
    """The ISO text ``YYYY-MM-DDTHH:MM:SSZ`` of every entry of a timeline,
    cut to the second.

    The text is ``np.datetime_as_string(stamps, unit="s", timezone="UTC")``'s.
    Each distinct day and each distinct second of the day is formatted once
    and the two are joined by index: a block of an hourly file spans a few
    hundred days and 24 times of day.
    """
    days = stamps.astype("datetime64[D]")
    day, day_of = np.unique(days, return_inverse=True)
    second, second_of = np.unique((stamps - days) // _SECOND, return_inverse=True)
    day_text = np.datetime_as_string(day).astype(object)
    time_text = np.array([f"T{s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d}Z"
                          for s in second.tolist()], dtype=object)
    return (day_text[day_of] + time_text[second_of]).tolist()


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
    p = Path(path)
    if not p.is_file():
        raise ParseError("weather file not found", path=p)
    with open(p, newline="") as fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise ParseError("empty weather file", path=p) from None
    if TIMESTAMP_COLUMN not in header:
        raise ParseError("missing required column", path=p, column=TIMESTAMP_COLUMN)
    columns = [c for c in header if c != TIMESTAMP_COLUMN] if schema is None \
        else list(schema)
    for col in columns:
        if col not in header:
            raise ParseError("missing required column", path=p, column=col)
    ts_idx = header.index(TIMESTAMP_COLUMN)
    col_idx = [header.index(c) for c in columns]
    table = _parse_weather_fast(p, len(header), ts_idx, columns, col_idx)
    if table is None:
        table = _parse_weather_rows(p, len(header), ts_idx, columns, col_idx)
    return table


# The one timestamp layout the fast path reads, "YYYY-MM-DDTHH:MM:SSZ",
# plus one byte that must stay empty: numpy cuts a text to its field's
# width, so a longer stamp shows only there.
_STAMP_LAYOUT = np.frombuffer(b"0000-00-00T00:00:00Z\0", dtype=np.uint8)
_STAMP_DIGITS = _STAMP_LAYOUT == ord("0")
_DATA_BYTE = re.compile(rb"[^\r\n]")
_YEAR_1 = np.datetime64("0001-01-01", "us")
_COMMA, _LF, _CR = b",\n\r"
_NAN = np.frombuffer(b"nan", dtype=np.uint8)
# Bytes that the empty-field scan takes per numpy call: enough that
# per-call overhead vanishes (64 KiB scanned the 65k- and 100k-hour files
# about 20% slower), few enough that its scratch arrays stay a small part
# of the file (1 MiB lifted the gappy parse's tracemalloc peak by 1.8 MiB).
_SCAN_BLOCK = 1 << 18


def _parse_weather_fast(p: Path, n_fields: int, ts_idx: int, columns: list[str],
                        col_idx: list[int]) -> RawWeatherTable | None:
    """The whole file through one ``np.loadtxt`` call, or ``None`` to fall back.

    Accepts only files whose every cell the per-cell reader would read the
    same way: ASCII with no quote, NUL or lone CR; at least one data line;
    every timestamp in the fixed layout ``YYYY-MM-DDTHH:MM:SSZ`` and unique;
    every other cell a number numpy parses or a missing cell. numpy and
    ``float`` share CPython's string-to-double routine and its whitespace
    rules; numpy rejects what else ``float`` takes (``1_000``).

    numpy reads LF and CRLF line ends alike, so the bytes go to it as they
    are, but for two rewrites to ``nan``. ``N/A`` becomes ``nan`` wherever
    it occurs: as a whole field, signed or padded, it is then a NaN, as
    ``_parse_cell`` reads it; inside any other text (``xN/A``, ``N/AN/A``)
    numpy refuses the field, and the file falls back. An empty data field
    gets ``nan`` written into it (:func:`_fill_empty_fields`). A file with
    neither is not copied.
    """
    data = p.read_bytes()
    # C code on either side may end a text at a NUL
    if not data.isascii() or b'"' in data or b"\0" in data:
        return None
    body = data.find(b"\n") + 1
    if not body or _DATA_BYTE.search(data, body) is None:
        return None  # no data rows
    data = data.replace(b"N/A", b"nan")
    data = _fill_empty_fields(data, body)
    if data is None:
        return None  # a lone CR, which csv reads as a line end
    dtype = np.dtype([(f"f{k}", f"S{_STAMP_LAYOUT.size}" if k == ts_idx else "f8")
                      for k in range(n_fields)])
    # BytesIO shares a bytes object but copies an array; the file's own
    # bytes went when data took the array, so two copies are the most held
    stream = io.BytesIO(data)
    del data
    try:
        rows = np.loadtxt(stream, dtype=dtype, delimiter=",",
                          comments=None, skiprows=1, ndmin=1, encoding="ascii")
    except ValueError:
        return None
    del stream
    text = np.ascontiguousarray(rows[f"f{ts_idx}"]).view(np.uint8) \
        .reshape(len(rows), _STAMP_LAYOUT.size)
    if not (np.all(text[:, _STAMP_DIGITS] - ord("0") <= 9)
            and np.all(text[:, ~_STAMP_DIGITS] == _STAMP_LAYOUT[~_STAMP_DIGITS])):
        return None
    try:
        stamps = np.ascontiguousarray(text[:, :19]).view("S19")[:, 0].astype(TIME_DTYPE)
    except ValueError:  # a field out of range, such as month 13
        return None
    if stamps.min() < _YEAR_1:  # year 0, which datetime cannot hold
        return None
    order = np.argsort(stamps, kind="stable")
    stamps = stamps[order]
    if np.any(stamps[1:] == stamps[:-1]):
        return None  # the per-cell reader reports the row
    factors = {}
    for c, k in zip(columns, col_idx):
        values = rows[f"f{k}"][order]
        values[~np.isfinite(values)] = np.nan
        factors[c] = values
    return RawWeatherTable(stamps, factors)


def _fill_empty_fields(data: bytes, body: int) -> bytes | np.ndarray | None:
    """``data`` with ``nan`` in each empty field of its data lines, or ``None``
    if it holds a lone CR.

    ``body`` is the offset of the first data line. ``data`` itself comes
    back when no field is empty; otherwise a new uint8 array, built one
    block at a time, so that ``data`` and the result are the only copies of
    the file held: :func:`_empty_field_spots` runs once to count the fields
    and once more to place them.
    """
    if data.find(b"\r", 0, body - 2) >= 0:
        return None  # in the header, whose line ends at body - 1
    buf = np.frombuffer(data, dtype=np.uint8)
    blocks = range(body, buf.size, _SCAN_BLOCK)
    n_empty = 0
    for start in blocks:
        cr = np.flatnonzero(buf[start:start + _SCAN_BLOCK] == _CR) + start
        if np.any(_next_byte(buf, cr) != _LF):
            return None
        n_empty += _empty_field_spots(buf, start).size
    if not n_empty:
        return data
    out = np.empty(buf.size + _NAN.size * n_empty, dtype=np.uint8)
    out[:body] = buf[:body]
    at = body
    for start in blocks:
        block = buf[start:start + _SCAN_BLOCK]
        spots = _empty_field_spots(buf, start) - start
        region = out[at:at + block.size + _NAN.size * spots.size]
        # where each nan text lands in region
        slots = (spots + _NAN.size * np.arange(spots.size))[:, None] \
            + np.arange(_NAN.size)
        keep = np.ones(region.size, dtype=bool)
        keep[slots] = False
        region[keep] = block
        region[slots] = _NAN
        at += region.size
    return out


def _empty_field_spots(buf: np.ndarray, start: int) -> np.ndarray:
    """Sorted offsets of the empty fields next to the commas of one scan block.

    A comma after LF starts a line with an empty field; a comma before a
    comma, CR, LF or the end of the file ends one. A blank line holds no
    field. A field's offset is where ``nan`` goes in, so a comma that ends
    the block may give the offset just past it.
    """
    comma = np.flatnonzero(buf[start:start + _SCAN_BLOCK] == _COMMA) + start
    ahead = _next_byte(buf, comma)
    return np.sort(np.concatenate([
        comma[buf[comma - 1] == _LF],
        comma[(ahead == _COMMA) | (ahead == _LF) | (ahead == _CR)] + 1]))


def _next_byte(buf: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The byte after each offset. Past the end of the file the last byte
    stands in for it: a CR there is lone, and a comma there ends an empty
    field, as they should be."""
    return buf[np.minimum(at + 1, buf.size - 1)]


def _parse_weather_rows(p: Path, n_fields: int, ts_idx: int, columns: list[str],
                        col_idx: list[int]) -> RawWeatherTable:
    """The per-cell reader: ``parse_timestamp`` and ``_parse_cell`` on each row."""
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # the header
        micros: list[int] = []
        linenos: list[int] = []
        records: list[list[str]] = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != n_fields:
                raise ParseError(f"expected {n_fields} fields, got {len(record)}",
                                 path=p, row=lineno)
            ts = parse_timestamp(record[ts_idx], path=p, row=lineno)
            micros.append((ts - _EPOCH) // _MICROSECOND)
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
    :class:`UnrecoverableColumnError`. Labels start at zero. When no hour is
    missing, a column observed at every hour is ``raw``'s own array, not a
    copy: ``np.interp`` would give back each sample exactly.
    """
    if raw.n_rows == 0:
        raise ValueError("cannot interpolate an empty table")
    stamps = raw.timestamps
    misaligned = np.flatnonzero(stamps != stamps.astype("datetime64[h]"))
    if misaligned.size:
        k = misaligned[0]
        raise ValueError(f"weather timestamp {format_timestamps(stamps[k:k + 1])[0]}"
                         " is not hour-aligned")
    positions = (stamps - stamps[0]) // HOUR
    n = int(positions[-1]) + 1
    grid = stamps[0] + np.arange(n) * HOUR
    every_hour_in_order = n == raw.n_rows and np.array_equal(positions, np.arange(n))

    filled: dict[str, np.ndarray] = {}
    for name, values in raw.factors.items():
        if every_hour_in_order and np.isfinite(values).all():
            filled[name] = values
            continue
        col = np.full(n, np.nan)
        col[positions] = values
        observed = np.flatnonzero(np.isfinite(col))
        if observed.size == 0:
            raise UnrecoverableColumnError(name)
        filled[name] = np.interp(np.arange(n), observed, col[observed])
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
    p = Path(path)
    if not p.is_file():
        raise ParseError("outage file not found", path=p)
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError("empty outage file", path=p) from None
        for col in (TIMESTAMP_COLUMN, OUTAGE_FLAG_COLUMN):
            if col not in header:
                raise ParseError("missing required column", path=p, column=col)
        ts_idx = header.index(TIMESTAMP_COLUMN)
        flag_idx = header.index(OUTAGE_FLAG_COLUMN)
        micros: list[int] = []
        flags: list[bool] = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(record)}",
                    path=p, row=lineno)
            ts = parse_timestamp(record[ts_idx], path=p, row=lineno)
            flag = record[flag_idx].strip()
            if flag not in ("0", "1"):
                raise ParseError(f"weather_related flag must be 0 or 1, got {flag!r}",
                                 path=p, row=lineno, column=OUTAGE_FLAG_COLUMN)
            micros.append((ts - _EPOCH) // _MICROSECOND)
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
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(timestamps), WRITE_BLOCK_ROWS):
            block = slice(start, start + WRITE_BLOCK_ROWS)
            cells = [format_timestamps(timestamps[block]),
                     *(_format_column(c[block]) if texts is None
                       else texts[c[block]].tolist() for texts, c in parts)]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


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
