"""CSV ingestion and hourly alignment of weather and outage records.

Weather files carry a ``timestamp`` column plus one numeric column per
meteorological factor. Outage files carry ``timestamp,weather_related``.
Timestamps are ISO-8601 UTC on disk and timezone-aware ``datetime`` objects
in memory. All in-memory tables live on a uniform one-hour grid once they
pass through :func:`interpolate_missing`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

HOUR = timedelta(hours=1)
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
    """Outage events fall outside the weather table's hourly timeline."""

    def __init__(self, events: list[datetime]):
        shown = ", ".join(format_timestamp(e) for e in events[:5])
        more = "" if len(events) <= 5 else f" and {len(events) - 5} more"
        super().__init__(f"outage events outside table range: {shown}{more}")
        self.events = events


@dataclass
class RawWeatherTable:
    """Parsed weather rows, sorted by time but possibly gappy and incomplete.

    ``factors`` maps column name to one value per row; ``None`` marks a
    missing measurement. Timestamps are unique and strictly increasing but
    need not be contiguous.
    """

    timestamps: list[datetime]
    factors: dict[str, list[float | None]]

    @property
    def n_rows(self) -> int:
        return len(self.timestamps)

    @property
    def factor_names(self) -> list[str]:
        return list(self.factors)


@dataclass
class TimeSeriesTable:
    """Complete hourly table: uniform grid, no missing cells, binary labels.

    Invariants: timestamps strictly increase with a constant 3600-second
    step; every factor series is finite everywhere; ``label`` holds one
    0/1 flag per hour.
    """

    timestamps: list[datetime]
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


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


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
    """
    p = Path(path)
    if not p.is_file():
        raise ParseError("weather file not found", path=p)
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError("empty weather file", path=p) from None
        if TIMESTAMP_COLUMN not in header:
            raise ParseError("missing required column", path=p,
                             column=TIMESTAMP_COLUMN)
        columns = [c for c in header if c != TIMESTAMP_COLUMN] if schema is None \
            else list(schema)
        for col in columns:
            if col not in header:
                raise ParseError("missing required column", path=p, column=col)
        ts_idx = header.index(TIMESTAMP_COLUMN)
        col_idx = [header.index(c) for c in columns]

        entries: list[tuple[datetime, int, tuple[float | None, ...]]] = []
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(record)}",
                    path=p, row=lineno)
            ts = parse_timestamp(record[ts_idx], path=p, row=lineno)
            entries.append((ts, lineno, tuple(_parse_cell(record[k]) for k in col_idx)))

    if not entries:
        raise ParseError("weather file has no data rows", path=p)
    entries.sort(key=lambda e: (e[0], e[1]))
    for prev, cur in zip(entries, entries[1:]):
        if prev[0] == cur[0]:
            raise ParseError(f"duplicate timestamp {format_timestamp(cur[0])}",
                             path=p, row=cur[1], column=TIMESTAMP_COLUMN)

    factors: dict[str, list[float | None]] = {c: [] for c in columns}
    for _, _, values in entries:
        for c, v in zip(columns, values):
            factors[c].append(v)
    return RawWeatherTable([e[0] for e in entries], factors)


def interpolate_missing(raw: RawWeatherTable) -> TimeSeriesTable:
    """Fill gaps onto a complete hourly grid.

    Whole missing hours become rows first, then each factor is filled by
    linear interpolation against time; runs at either edge take the nearest
    observed value. A column observed nowhere raises
    :class:`UnrecoverableColumnError`. Labels start at zero.
    """
    if raw.n_rows == 0:
        raise ValueError("cannot interpolate an empty table")
    for ts in raw.timestamps:
        if ts.minute or ts.second or ts.microsecond:
            raise ValueError(
                f"weather timestamp {format_timestamp(ts)} is not hour-aligned")
    t0 = raw.timestamps[0]
    positions = np.array(
        [int((ts - t0).total_seconds()) // 3600 for ts in raw.timestamps])
    n = int(positions[-1]) + 1
    grid = [t0 + i * HOUR for i in range(n)]

    filled: dict[str, np.ndarray] = {}
    for name, values in raw.factors.items():
        col = np.full(n, np.nan)
        col[positions] = [np.nan if v is None else float(v) for v in values]
        observed = np.flatnonzero(np.isfinite(col))
        if observed.size == 0:
            raise UnrecoverableColumnError(name)
        filled[name] = np.interp(np.arange(n), observed, col[observed])
    return TimeSeriesTable(grid, filled, np.zeros(n, dtype=np.int64))


def attach_outage_labels(table: TimeSeriesTable,
                         events: Iterable[datetime]) -> TimeSeriesTable:
    """Mark the hour bucket of each outage event with label 1.

    Event times are floored to the containing hour. Events outside the
    table's timeline abort with :class:`EventOutOfRangeError`. The result
    keeps labels already present, so the operation is idempotent and only
    ever turns labels on.
    """
    t0 = table.timestamps[0]
    n = table.n_rows
    indices = []
    out_of_range = []
    for ev in events:
        idx = int((ev - t0).total_seconds()) // 3600
        if 0 <= idx < n:
            indices.append(idx)
        else:
            out_of_range.append(ev)
    if out_of_range:
        raise EventOutOfRangeError(out_of_range)
    label = table.label.copy()
    if indices:
        label[indices] = 1
    return TimeSeriesTable(list(table.timestamps),
                           {k: v.copy() for k, v in table.factors.items()},
                           label)


@dataclass
class OutageRecord:
    timestamp: datetime
    weather_related: bool


def parse_outage_csv(path) -> list[OutageRecord]:
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
        records = []
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
            records.append(OutageRecord(ts, flag == "1"))
    return records


def _format_value(v: float | None) -> str:
    # repr round-trips float64 exactly, which keeps parse -> write -> parse
    # bit-identical.
    return "" if v is None else repr(float(v))


def write_weather_csv(table: RawWeatherTable | TimeSeriesTable, path) -> None:
    names = table.factor_names
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([TIMESTAMP_COLUMN, *names])
        for i, ts in enumerate(table.timestamps):
            writer.writerow([format_timestamp(ts),
                             *(_format_value(table.factors[c][i]) for c in names)])


def write_outage_csv(records: Iterable[OutageRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([TIMESTAMP_COLUMN, OUTAGE_FLAG_COLUMN])
        for rec in records:
            writer.writerow([format_timestamp(rec.timestamp),
                             "1" if rec.weather_related else "0"])
