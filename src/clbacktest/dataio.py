"""CSV ingestion, validation, and daily pool-level return estimates.

Input schema (header required, extra columns rejected)::

    timestamp,price,volume,pool_liquidity,tvl

``timestamp`` is integer seconds since epoch (UTC), ``price`` the hourly
close in quote-token units, ``volume`` the hour's traded volume and ``tvl``
the pool's total value locked, both in quote-token units. The ``tvl`` column
may be left empty (or omitted entirely); it is only needed by the daily
return estimate. Data rows are numbered from 1, excluding the header, and
every validation error names its row. One leading byte-order mark (U+FEFF,
as spreadsheet exports write) is dropped from the header.

Ingest reads every row first, then checks one rule at a time over a whole
column: row width, integer timestamps, numbers, finiteness, the bounds of
:data:`~clbacktest.engine.BAR_FIELDS` (the table :class:`HourlyBar`'s
constructor checks one bar at a time), and strictly increasing timestamps.
Only when all pass are the bars built, and then without that constructor's
checks, so each value is checked once. If any check fails, a row-by-row
reporter walks the rows in order and raises the first defect, so the error
is the one a row-at-a-time reader would meet first: within a row, the
timestamp and then each value is parsed in column order, then the values
are bounded (through the checked constructor), then the timestamp is
compared with the previous row's. The reporter never returns bars. Rows are
read until the first CSV syntax error; a defect in a row read before it is
reported in its place.

Paths and byte streams are decoded with ``errors="surrogateescape"``, so an
undecodable byte reaches its cell as a lone surrogate, which valid UTF-8
never decodes to. Such a cell fails the column checks, and the reporter
checks for one before anything else in a row, so it reports "row k: not
UTF-8 text" in row order: the first defect in the file wins, wherever the
decoder's blocks fall. The header is checked the same way before its
column names.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import operator
import os
from itertools import islice, repeat
from typing import BinaryIO, Iterable, Sequence, TextIO

from ._tuples import checked_tuple
from .clmath import PairProfile, check_bound
from .engine import BAR_FIELDS, HourlyBar, check_fee_rate
from .errors import DataError, UsageError

REQUIRED_COLUMNS = ("timestamp", "price", "volume", "pool_liquidity")
OPTIONAL_COLUMNS = ("tvl",)
HEADER = REQUIRED_COLUMNS + OPTIONAL_COLUMNS


class BarSeries(checked_tuple("BarSeries", "pair fee_rate bars")):
    """An ordered bar sequence plus the pair facts needed to interpret it."""

    __slots__ = ()

    def _check(self) -> None:
        check_fee_rate(self.fee_rate)


class DailyReturnPoint(checked_tuple("DailyReturnPoint", "date lp_return")):
    """Estimated pool-level LP fee return for one UTC calendar day."""

    __slots__ = ()


def load_bars(
    source: str | os.PathLike[str] | TextIO | BinaryIO,
    pair: PairProfile,
    fee_rate: float,
) -> BarSeries:
    """Read and validate a bar CSV; any defect raises DataError naming the row,
    and a failure to open or read the source names the source. A stream
    passed in, text or binary, is left open."""
    try:
        if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
            label = getattr(source, "name", "<stream>")
            text = io.TextIOWrapper(source, encoding="utf-8", newline="", errors="surrogateescape")
            try:
                bars = _read_rows(text, label)
            finally:
                text.detach()  # else the wrapper's finalizer closes the caller's stream
        elif hasattr(source, "read"):
            label = getattr(source, "name", "<stream>")
            bars = _read_rows(source, label)
        else:
            label = os.fspath(source)
            with open(label, newline="", encoding="utf-8", errors="surrogateescape") as handle:
                bars = _read_rows(handle, label)
    except OSError as exc:
        raise DataError(f"cannot read {label}: {exc}") from exc
    return BarSeries(pair=pair, fee_rate=fee_rate, bars=bars)


def save_bars(series: BarSeries, dest: str | os.PathLike[str] | TextIO) -> None:
    """Write a bar series back to CSV; floats keep full precision (repr).

    Loading the written file yields bars equal to the originals.
    """
    if hasattr(dest, "write"):
        _write_rows(series, dest)
        return
    with open(os.fspath(dest), "w", newline="", encoding="utf-8") as handle:
        _write_rows(series, handle)


def clip_window(
    series: BarSeries,
    start: dt.date | None = None,
    end: dt.date | None = None,
) -> BarSeries:
    """Restrict a series to bars whose UTC date lies in [start, end]."""
    if start is None and end is None:
        return series
    kept = tuple(bar for bar in series.bars if _in_window(_bar_date(bar), start, end))
    if not kept:
        raise UsageError(
            f"window {start}..{end} selects no bars out of {len(series.bars)}"
        )
    return series._replace(bars=kept)


def daily_fee_returns(series: BarSeries) -> list[DailyReturnPoint]:
    """Per-day pool-level LP fee return: day's fee revenue over day's TVL.

    The day's fee revenue is the summed volume times the fee rate; it is
    normalized by the TVL of the day's last bar. Days follow the UTC
    calendar. Every bar needs a TVL value. A day whose volume sum or return
    overflows raises DataError naming the day.
    """
    if not series.bars:
        raise UsageError("cannot compute daily returns of an empty series")
    volume_by_day: dict[dt.date, float] = {}
    tvl_by_day: dict[dt.date, float] = {}
    for bar in series.bars:
        if bar.tvl is None:
            raise UsageError(
                f"bar at timestamp {bar.timestamp} has no tvl; "
                "daily returns need the tvl column filled in"
            )
        day = _bar_date(bar)
        volume_by_day[day] = volume_by_day.get(day, 0.0) + bar.volume
        tvl_by_day[day] = bar.tvl
    points = []
    for day in sorted(volume_by_day):
        tvl = tvl_by_day[day]
        check_bound(tvl, f"day {day.isoformat()}: tvl", error=DataError)
        volume = volume_by_day[day]
        lp_return = volume * series.fee_rate / tvl
        if not math.isfinite(lp_return):
            raise DataError(
                f"day {day.isoformat()}: the fee return overflows "
                f"(volume {volume!r}, tvl {tvl!r})"
            )
        points.append(DailyReturnPoint(date=day, lp_return=lp_return))
    return points


def average_daily_return(
    points: Sequence[DailyReturnPoint],
    start: dt.date | None = None,
    end: dt.date | None = None,
) -> float:
    """Arithmetic mean of daily returns inside [start, end]; DataError if
    it overflows.

    The returns are added left to right in plain float arithmetic. The
    built-in ``sum`` would do that up to Python 3.11, but since 3.12 it
    compensates float sums, which changes the last bit of some averages.
    """
    selected = [p.lp_return for p in points if _in_window(p.date, start, end)]
    if not selected:
        raise UsageError(f"window {start}..{end} selects no daily returns")
    total = 0.0
    for value in selected:
        total += value
    average = total / len(selected)
    if not math.isfinite(average):
        raise DataError(f"window {start}..{end}: the average daily return overflows")
    return average


def _in_window(date: dt.date, start: dt.date | None, end: dt.date | None) -> bool:
    return (start is None or date >= start) and (end is None or date <= end)


def _bar_date(bar: HourlyBar) -> dt.date:
    try:
        return dt.datetime.fromtimestamp(bar.timestamp, tz=dt.timezone.utc).date()
    except (OverflowError, OSError, ValueError):
        raise DataError(f"timestamp {bar.timestamp} has no UTC calendar date") from None


def _read_rows(handle: Iterable[str], label: str) -> tuple[HourlyBar, ...]:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{label}: empty file, expected a header row") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise _read_error(label, exc) from None
    if not _is_text(header):
        raise DataError(f"{label}: not UTF-8 text in the header")
    index = _column_index(header, label)
    rows: list[list[str]] = []
    try:
        rows.extend(reader)
    except (UnicodeDecodeError, csv.Error) as exc:
        # A bad row read before the unreadable one is reported first.
        _raise_first_error(rows, index)
        raise _read_error(label, exc) from None
    if not rows:
        raise DataError(f"{label}: no data rows")
    bars = _bars_from_columns(rows, index)
    if bars is None:
        _raise_first_error(rows, index)
        raise RuntimeError(f"{label}: the column checks reject rows the row checks accept")
    return bars


def _read_error(label: str, exc: Exception) -> DataError:
    if isinstance(exc, UnicodeDecodeError):
        return DataError(f"{label}: not UTF-8 text: {exc}")
    return DataError(f"{label}: malformed CSV: {exc}")


def _column_index(header: list[str], label: str) -> dict[str, int]:
    """Check the header row; return each column's position."""
    if header:
        header[0] = header[0].removeprefix("\ufeff")
    header = [name.strip() for name in header]
    missing = [name for name in REQUIRED_COLUMNS if name not in header]
    if missing:
        raise DataError(f"{label}: missing column(s) {', '.join(missing)}")
    unknown = [name for name in header if name not in HEADER]
    if unknown:
        raise DataError(f"{label}: unknown column(s) {', '.join(unknown)}")
    if len(set(header)) != len(header):
        raise DataError(f"{label}: duplicate column names in header")
    return {name: header.index(name) for name in header}


def _bars_from_columns(
    rows: list[list[str]], index: dict[str, int]
) -> tuple[HourlyBar, ...] | None:
    """Check every rule a column at a time; return the bars, or None if any
    check fails (:func:`_raise_first_error` then names the first bad row)."""
    if set(map(len, rows)) != {len(index)}:
        return None
    cells = list(zip(*rows))
    try:
        timestamps = list(map(int, map(str.strip, cells[index["timestamp"]])))
        columns = []
        for name, strict in BAR_FIELDS:
            if name not in index:
                columns.append(repeat(None, len(rows)))
                continue
            text = map(str.strip, cells[index[name]])
            if name in OPTIONAL_COLUMNS:
                values = [float(cell) if cell else None for cell in text]
                present = [value for value in values if value is not None]
            else:
                values = present = list(map(float, text))
            if present and not (
                all(map(math.isfinite, present))
                and (min(present) > 0.0 if strict else min(present) >= 0.0)
            ):
                return None
            columns.append(values)
    except ValueError:
        return None
    if not all(map(operator.lt, timestamps, islice(timestamps, 1, None))):
        return None
    # Every field passed the checks HourlyBar's constructor would repeat.
    return tuple(map(tuple.__new__, repeat(HourlyBar), zip(timestamps, *columns)))


def _raise_first_error(rows: list[list[str]], index: dict[str, int]) -> None:
    """Check ``rows`` one at a time, in the order the module docstring gives,
    and raise the first defect's DataError; return if every row is valid."""
    previous_ts: int | None = None
    for row_number, row in enumerate(rows, start=1):
        if not _is_text(row):
            raise DataError(f"row {row_number}: not UTF-8 text")
        if not row or all(cell.strip() == "" for cell in row):
            raise DataError(f"row {row_number}: blank line")
        if len(row) != len(index):
            raise DataError(
                f"row {row_number}: expected {len(index)} fields, got {len(row)}"
            )
        timestamp = _parse_int(row[index["timestamp"]], row_number, "timestamp")
        values: list[float | None] = []
        for name, _ in BAR_FIELDS:
            cell = row[index[name]] if name in index else ""
            if name in OPTIONAL_COLUMNS:
                cell = cell.strip()
                if cell == "":
                    values.append(None)
                    continue
            values.append(_parse_float(cell, row_number, name))
        try:
            HourlyBar(timestamp, *values)
        except DataError as exc:
            raise DataError(f"row {row_number}: {exc}") from None
        if previous_ts is not None and timestamp <= previous_ts:
            raise DataError(
                f"row {row_number}: timestamp {timestamp} does not increase "
                f"over previous {previous_ts}"
            )
        previous_ts = timestamp


def _is_text(cells: list[str]) -> bool:
    """False when a cell holds a lone surrogate, such as an undecodable byte
    kept by ``surrogateescape``; only those fail to encode as UTF-8."""
    try:
        "".join(cells).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _write_rows(series: BarSeries, handle: TextIO | io.TextIOBase) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(HEADER)
    for bar in series.bars:
        writer.writerow(
            [
                str(bar.timestamp),
                repr(bar.price),
                repr(bar.volume),
                repr(bar.pool_liquidity),
                "" if bar.tvl is None else repr(bar.tvl),
            ]
        )


def _parse_int(cell: str, row_number: int, name: str) -> int:
    text = cell.strip()
    try:
        return int(text)
    except ValueError:
        raise DataError(f"row {row_number}: {name} must be an integer, got {cell!r}") from None


def _parse_float(cell: str, row_number: int, name: str) -> float:
    text = cell.strip()
    try:
        value = float(text)
    except ValueError:
        raise DataError(f"row {row_number}: {name} must be a number, got {cell!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise DataError(f"row {row_number}: {name} must be finite, got {cell!r}")
    return value
