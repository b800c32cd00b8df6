"""Shared fixture builders for the test suite."""

from __future__ import annotations

import csv
import functools
import io
import math
import random
import runpy
from pathlib import Path
from typing import NamedTuple, Sequence

from clbacktest import HourlyBar, engine, load_bars, pair_for_class
from clbacktest.clmath import geometry_of, mark

CSV_HEADER = ("timestamp", "price", "volume", "pool_liquidity", "tvl")


def make_bars(
    prices: Sequence[float],
    volumes: Sequence[float] | None = None,
    liquidity: float | Sequence[float] = 10_000.0,
    tvls: Sequence[float | None] | None = None,
    start: int = 1_600_000_000,
    step: int = 3600,
) -> tuple[HourlyBar, ...]:
    count = len(prices)
    if volumes is None:
        volumes = [0.0] * count
    if tvls is None:
        tvls = [None] * count
    if isinstance(liquidity, (int, float)):
        liquidity = [float(liquidity)] * count
    return tuple(
        HourlyBar(
            timestamp=start + i * step,
            price=float(prices[i]),
            volume=float(volumes[i]),
            pool_liquidity=float(liquidity[i]),
            tvl=tvls[i],
        )
        for i in range(count)
    )


def mark_position(
    liquidity: float, lower: float, upper: float, price: float
) -> tuple[float, float, float, float]:
    """``(active, value, x, y)`` of one position on ``[lower, upper]``, from
    :func:`clbacktest.clmath.mark`."""
    return mark((geometry_of(lower, upper),), (liquidity,), price, math.sqrt(price))


class SeriesMemo(NamedTuple):
    """The parts of ``engine._memo`` that belong to the last series run (the
    ``engine`` docstring's memo rule)."""

    rows: tuple  # the kernel's rows of bars 2..n
    schedules: dict  # r -> (fire schedule, valid)
    snapshots: dict  # (a, snap_spacing, budget) -> (row, held state)
    results: dict  # (a, snap_spacing, budget, schedule) -> result


def series_memo() -> SeriesMemo:
    """``engine._memo``'s rows and three memos, by name."""
    return SeriesMemo(*engine._memo[2:])


def csv_text(rows: Sequence[Sequence[object]], header: Sequence[str] = CSV_HEADER) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def seeded_series(
    shape: str, seed: int = 0, count: int = 2400, start: int = 1_600_000_000
) -> list[tuple[int, float, float, float]]:
    """Seeded long hourly series as raw ``(timestamp, price, volume, pool_liquidity)``.

    Standard library only; the same arguments always give the same floats.

    * ``volatile``: ETH-like log random walk from 2000, up to 1.7% per hour;
    * ``reset_heavy``: 4% hourly steps plus occasional 15% jumps, so a narrow
      Reset (a=1%, r=0.5%) fires on most bars;
    * ``stable_depeg``: a stablecoin near 1.0 with 0.05% noise and one
      V-shaped 8% depeg over 48 hours in the middle of the series.

    A quarter of the bars carry no volume; the others trade up to 3% of a
    pool worth 1e7..4e7 quote tokens, whose ``pool_liquidity`` is that value
    as full-range liquidity.
    """
    rng = random.Random(f"{shape}:{seed}")
    prices = []
    if shape == "volatile":
        log_price = math.log(2000.0)
        for _ in range(count):
            prices.append(math.exp(log_price))
            log_price += rng.uniform(-0.017, 0.017)
    elif shape == "reset_heavy":
        log_price = math.log(150.0)
        for _ in range(count):
            prices.append(math.exp(log_price))
            step = rng.uniform(-0.04, 0.04)
            if rng.random() < 0.02:
                step += rng.choice((-0.15, 0.15))
            log_price += step - 0.01 * (log_price - math.log(150.0))
    elif shape == "stable_depeg":
        middle = count // 2
        for i in range(count):
            depth = max(0.0, 1.0 - abs(i - middle) / 24.0) * 0.08
            prices.append((1.0 - depth) * (1.0 + rng.uniform(-5e-4, 5e-4)))
    else:
        raise ValueError(f"unknown series shape {shape!r}")
    rows = []
    for i, price in enumerate(prices):
        tvl = rng.uniform(1e7, 4e7)
        volume = 0.0 if i == 0 or rng.random() < 0.25 else rng.uniform(0.0, 0.03) * tvl
        rows.append((start + 3600 * i, price, volume, tvl / (2.0 * math.sqrt(price))))
    return rows


def bars_from_rows(rows: Sequence[tuple[int, float, float, float]]) -> tuple[HourlyBar, ...]:
    return tuple(
        HourlyBar(timestamp=ts, price=p, volume=v, pool_liquidity=lq) for ts, p, v, lq in rows
    )


@functools.lru_cache(maxsize=None)
def bench_csv(shape: str, bars: int, fee_rate: float) -> str:
    """``bench/gen.py``'s seed-0 series of ``bars`` hourly bars as CSV text,
    the bytes that ``tools/north_star.py`` and the benchmark write.

    ``runpy`` compiles the generator without writing bytecode under ``bench/``.
    """
    gen = runpy.run_path(str(Path(__file__).resolve().parent.parent / "bench" / "gen.py"))
    return "\n".join(gen["series_rows"](shape, 0, bars, fee_rate)) + "\n"


@functools.lru_cache(maxsize=None)
def bench_bars(shape: str, bars: int, fee_rate: float) -> tuple[HourlyBar, ...]:
    """:func:`bench_csv`'s series read back by ``load_bars``.

    A caller that needs a tuple no earlier run has seen copies this one.
    """
    text = bench_csv(shape, bars, fee_rate)
    return load_bars(io.StringIO(text), pair_for_class(shape), fee_rate).bars
