"""CSV ingestion, validation, and daily pool-level return estimates.

Input schema (header required, extra columns rejected)::

    timestamp,price,volume,pool_liquidity,tvl

``timestamp`` is integer seconds since epoch (UTC), ``price`` the hourly
close in quote-token units, ``volume`` the hour's traded volume and ``tvl``
the pool's total value locked, both in quote-token units. The ``tvl`` column
may be left empty (or omitted entirely); it is only needed by the daily
return estimate. Data rows are numbered from 1, excluding the header, and
every validation error names its row.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import os
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence, TextIO

from .clmath import PairProfile
from .engine import HourlyBar, check_fee_rate
from .errors import DataError, UsageError

REQUIRED_COLUMNS = ("timestamp", "price", "volume", "pool_liquidity")
OPTIONAL_COLUMNS = ("tvl",)
HEADER = REQUIRED_COLUMNS + OPTIONAL_COLUMNS


@dataclass(frozen=True)
class BarSeries:
    """An ordered bar sequence plus the pair facts needed to interpret it."""

    pair: PairProfile
    fee_rate: float
    bars: tuple[HourlyBar, ...]
    source_label: str = ""

    def __post_init__(self) -> None:
        check_fee_rate(self.fee_rate)


@dataclass(frozen=True)
class DailyReturnPoint:
    """Estimated pool-level LP fee return for one UTC calendar day."""

    date: dt.date
    lp_return: float


def load_bars(
    source: str | os.PathLike[str] | TextIO,
    pair: PairProfile,
    fee_rate: float,
) -> BarSeries:
    """Read and validate a bar CSV; any defect raises DataError naming the row."""
    if hasattr(source, "read"):
        if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
            source = io.TextIOWrapper(source, encoding="utf-8", newline="")
        label = getattr(source, "name", "<stream>")
        bars = _read_rows(source, label)
    else:
        label = os.fspath(source)
        try:
            handle = open(label, newline="", encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot read {label}: {exc}") from exc
        with handle:
            bars = _read_rows(handle, label)
    return BarSeries(pair=pair, fee_rate=fee_rate, bars=bars, source_label=label)


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
    return replace(series, bars=kept)


def daily_fee_returns(series: BarSeries) -> list[DailyReturnPoint]:
    """Per-day pool-level LP fee return: day's fee revenue over day's TVL.

    The day's fee revenue is the summed volume times the fee rate; it is
    normalized by the TVL of the day's last bar. Days follow the UTC
    calendar. Every bar needs a TVL value.
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
        if tvl <= 0.0:
            raise DataError(f"day {day.isoformat()}: tvl must be > 0, got {tvl!r}")
        points.append(
            DailyReturnPoint(date=day, lp_return=volume_by_day[day] * series.fee_rate / tvl)
        )
    return points


def average_daily_return(
    points: Sequence[DailyReturnPoint],
    start: dt.date | None = None,
    end: dt.date | None = None,
) -> float:
    """Arithmetic mean of daily returns inside [start, end]."""
    selected = [p.lp_return for p in points if _in_window(p.date, start, end)]
    if not selected:
        raise UsageError(f"window {start}..{end} selects no daily returns")
    return sum(selected) / len(selected)


def _in_window(date: dt.date, start: dt.date | None, end: dt.date | None) -> bool:
    return (start is None or date >= start) and (end is None or date <= end)


def _bar_date(bar: HourlyBar) -> dt.date:
    try:
        return dt.datetime.fromtimestamp(bar.timestamp, tz=dt.timezone.utc).date()
    except (OverflowError, OSError, ValueError):
        raise DataError(f"timestamp {bar.timestamp} has no UTC calendar date") from None


def _read_rows(handle: Iterable[str], label: str) -> tuple[HourlyBar, ...]:
    try:
        return _parse_rows(csv.reader(handle), label)
    except UnicodeDecodeError as exc:
        raise DataError(f"{label}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise DataError(f"{label}: malformed CSV: {exc}") from None


def _parse_rows(reader: Iterator[list[str]], label: str) -> tuple[HourlyBar, ...]:
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{label}: empty file, expected a header row") from None
    header = [name.strip() for name in header]
    missing = [name for name in REQUIRED_COLUMNS if name not in header]
    if missing:
        raise DataError(f"{label}: missing column(s) {', '.join(missing)}")
    unknown = [name for name in header if name not in HEADER]
    if unknown:
        raise DataError(f"{label}: unknown column(s) {', '.join(unknown)}")
    if len(set(header)) != len(header):
        raise DataError(f"{label}: duplicate column names in header")
    column = {name: header.index(name) for name in header}
    has_tvl = "tvl" in column

    bars: list[HourlyBar] = []
    previous_ts: int | None = None
    for row_number, row in enumerate(reader, start=1):
        if not row or all(cell.strip() == "" for cell in row):
            raise DataError(f"row {row_number}: blank line")
        if len(row) != len(header):
            raise DataError(
                f"row {row_number}: expected {len(header)} fields, got {len(row)}"
            )
        timestamp = _parse_int(row[column["timestamp"]], row_number, "timestamp")
        price = _parse_float(row[column["price"]], row_number, "price")
        volume = _parse_float(row[column["volume"]], row_number, "volume")
        pool_liquidity = _parse_float(
            row[column["pool_liquidity"]], row_number, "pool_liquidity"
        )
        tvl: float | None = None
        if has_tvl:
            cell = row[column["tvl"]].strip()
            if cell != "":
                tvl = _parse_float(cell, row_number, "tvl")
        try:
            bar = HourlyBar(
                timestamp=timestamp,
                price=price,
                volume=volume,
                pool_liquidity=pool_liquidity,
                tvl=tvl,
            )
        except DataError as exc:
            raise DataError(f"row {row_number}: {exc}") from None
        if previous_ts is not None and timestamp <= previous_ts:
            raise DataError(
                f"row {row_number}: timestamp {timestamp} does not increase "
                f"over previous {previous_ts}"
            )
        previous_ts = timestamp
        bars.append(bar)
    if not bars:
        raise DataError(f"{label}: no data rows")
    return tuple(bars)


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
