"""Seeded synthetic hourly pool data, standard library only.

Both series shapes are an hourly mean-reverting random walk in log price
around a fixed macro path, written in the ``clbacktest`` CSV schema
(``timestamp,price,volume,pool_liquidity,tvl``) with floats at full
precision:

* ``volatile``: ETH-USDC-like, starting at 2000, hourly noise of 80%
  annualised volatility around a 60-day and a 7-day price cycle;
* ``stable``: a stablecoin pair near 1.0 with small hourly noise and one
  V-shaped depeg in the middle of the series, deep enough that every point
  of the default stable Reset grid (a, r = 0.1%..5%) fires resets.

The seed changes every price, volume and liquidity value but not the macro
path, so how long the price spends in each range, and with it the work per
run, barely depends on the seed.

Hourly volume is log-normal around a fixed share of the pool's full-range
equivalent TVL, and ``pool_liquidity`` is that TVL expressed as full-range
liquidity (``tvl / (2 * sqrt(price))``), so a full-range (Passive) deposit
earns ``PASSIVE_FEE_RETURN`` a year at the given fee rate. The same seed
always yields the same bytes.
"""

from __future__ import annotations

import hashlib
import math
import random

START_TS = 1609459200  # 2021-01-01T00:00:00Z
HOUR = 3600
HOURS_PER_YEAR = 8760
PASSIVE_FEE_RETURN = 0.15

VOLATILE = {
    "start_price": 2000.0,
    "hourly_vol": 0.80 / math.sqrt(HOURS_PER_YEAR),
    "mean_reversion": 1.0 / 24.0,
    "cycles": ((0.25, 1440), (0.08, 168)),  # (log amplitude, period in hours)
    "tvl": 1.0e8,
    "volume_sigma": 0.6,
}
STABLE = {
    "start_price": 1.0,
    "hourly_vol": 0.0015,
    "mean_reversion": 0.05,
    "depeg_depth": 0.06,
    "depeg_hours": 12,
    "tvl": 5.0e8,
    "volume_sigma": 0.6,
}


def volatile_macro(i: int, bars: int) -> float:
    return sum(amp * math.sin(2.0 * math.pi * i / period) for amp, period in VOLATILE["cycles"])


def stable_macro(i: int, bars: int) -> float:
    """Log price of a V-shaped depeg centred on the middle bar."""
    hours = STABLE["depeg_hours"]
    k = i - (bars // 2 - hours // 2)
    if not 0 <= k <= hours:
        return 0.0
    return math.log(1.0 - STABLE["depeg_depth"] * (1.0 - abs(2.0 * k / hours - 1.0)))


def walk(rng: random.Random, bars: int, params: dict, macro) -> list[float]:
    """Prices whose log follows ``macro`` plus mean-reverting hourly noise."""
    kappa, sigma = params["mean_reversion"], params["hourly_vol"]
    log_start = math.log(params["start_price"])
    deviation = 0.0
    prices = []
    for i in range(bars):
        prices.append(math.exp(log_start + macro(i, bars) + deviation))
        deviation += -kappa * deviation + rng.gauss(0.0, sigma)
    return prices


def series_rows(shape: str, seed: int, bars: int, fee_rate: float) -> list[str]:
    """CSV lines (header first) of one seeded series."""
    if shape not in ("volatile", "stable"):
        raise ValueError(f"unknown series shape {shape!r}")
    rng = random.Random(f"{shape}:{seed}")
    params = VOLATILE if shape == "volatile" else STABLE
    prices = walk(rng, bars, params, volatile_macro if shape == "volatile" else stable_macro)
    mean_volume = params["tvl"] * PASSIVE_FEE_RETURN / (HOURS_PER_YEAR * fee_rate)
    sigma = params["volume_sigma"]
    lines = ["timestamp,price,volume,pool_liquidity,tvl"]
    for i, price in enumerate(prices):
        tvl = params["tvl"] * math.exp(rng.gauss(0.0, 0.02))
        volume = mean_volume * rng.lognormvariate(-0.5 * sigma * sigma, sigma)
        pool_liquidity = tvl / (2.0 * math.sqrt(price))
        lines.append(f"{START_TS + i * HOUR},{price!r},{volume!r},{pool_liquidity!r},{tvl!r}")
    return lines


def write_series(path, shape: str, seed: int, bars: int, fee_rate: float) -> dict:
    """Write one series to ``path`` and return its generation record."""
    data = ("\n".join(series_rows(shape, seed, bars, fee_rate)) + "\n").encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(data)
    params = VOLATILE if shape == "volatile" else STABLE
    return {
        "shape": shape,
        "seed": seed,
        "bars": bars,
        "fee_rate": fee_rate,
        "csv_bytes": len(data),
        "csv_sha256": hashlib.sha256(data).hexdigest(),
        "passive_fee_return": PASSIVE_FEE_RETURN,
        "params": dict(params),
    }
