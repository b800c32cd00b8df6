"""Hourly backtest engine with a non-compounding and a compounding ledger.

Per bar, in this order:

1. fee accrual against the state carried into the bar, priced at the bar's
   close: ``fee = volume * fee_rate * active_liquidity / pool_liquidity``;
2. mark-to-market of both ledgers at the close;
3. compounding: the compounding ledger's liquidity is scaled by
   ``(value + fee) / value``, folding the fee back into the deposit;
4. strategy reaction to the close (resets fire here).

The first bar only establishes the entry price and initial deposit; no fees
accrue on it. Three per-unit metrics summarize a run, each divided by the
initial budget: ``fees`` (sum of non-compounded fee income), ``value`` (final
mark-to-market of the non-compounding ledger, fee cash excluded), and
``total`` (final value of the compounding ledger including the last bar's
fee). "Final" means at the last bar's close, before any same-bar reset; that
matches the last trajectory row, and a reset conserves value anyway.

Kernel layout. :func:`run_backtest` validates the bar sequence once (it must
be non-empty and strictly increasing in time), then copies it into local
columns: ``price``, ``sqrt(price)``, ``volume * fee_rate`` and
``pool_liquidity``. The initial state comes from
:func:`~clbacktest.strategies.initialize`, so snapping and the closed-form
deposit live in one place. Each ledger is then plain floats: flat positions
``[lower, upper, L, sqrt(lower), sqrt(upper)]`` (mutable lists; compounding
scales ``L`` in place), full-range liquidity and loose token amounts. A reset
strategy's trigger interval is two floats shared by both ledgers, which see
the same prices and so reset on the same bars. Every bar calls the same flat
helpers as the dataclass API (``mark_ledger``, ``reset_bounds``,
``redeposit`` in :mod:`~clbacktest.strategies`, which call ``flat_reserves``,
``flat_value`` and ``flat_one_sided_liquidity`` in :mod:`~clbacktest.clmath`).

Bit-identity rule. Every expression is evaluated in the order of the
dataclass API and on the same operands: a column entry or a hoisted square
root is the same IEEE operation on the same inputs as computing it in place
(``volume * fee_rate * L / pool_liquidity`` is evaluated left to right either
way). Changing the order or the operands of any sum or product changes the
published numbers; the golden tests in ``tests/test_golden.py`` catch it.
The two ledgers stay separate: the compounding one cannot be derived from
the plain one bit for bit.

Bars are validated where they are built (:class:`HourlyBar`), not per bar in
the kernel. A value that overflows the ledger (an infinite fee or scaled
liquidity), or a range bound beyond float or tick range, raises DataError
naming the bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import DataError, UsageError
from .strategies import (
    StrategyConfig,
    StrategyState,
    active_liquidity,
    flat_positions,
    initialize,
    mark_ledger,
    redeposit,
    reset_bounds,
)

_INF = math.inf


@dataclass(frozen=True)
class HourlyBar:
    """One hour of pool history: close price, traded volume, pool liquidity.

    ``volume`` and ``tvl`` are in quote-token units; ``pool_liquidity`` is the
    pool-wide liquidity in the same scale as position liquidity. ``tvl`` is
    optional and only needed for daily pool-level return estimates.
    """

    timestamp: int
    price: float
    volume: float
    pool_liquidity: float
    tvl: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.timestamp, int) or isinstance(self.timestamp, bool):
            raise DataError(f"timestamp must be an integer, got {self.timestamp!r}")
        if not math.isfinite(self.price) or self.price <= 0.0:
            raise DataError(f"price must be finite and > 0, got {self.price!r}")
        if not math.isfinite(self.volume) or self.volume < 0.0:
            raise DataError(f"volume must be finite and >= 0, got {self.volume!r}")
        if not math.isfinite(self.pool_liquidity) or self.pool_liquidity <= 0.0:
            raise DataError(
                f"pool_liquidity must be finite and > 0, got {self.pool_liquidity!r}"
            )
        if self.tvl is not None and (not math.isfinite(self.tvl) or self.tvl < 0.0):
            raise DataError(f"tvl must be finite and >= 0, got {self.tvl!r}")


@dataclass(frozen=True)
class BacktestConfig:
    """Strategy plus the run parameters shared by every bar."""

    strategy: StrategyConfig
    fee_rate: float
    initial_value: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.fee_rate) or not 0.0 <= self.fee_rate < 1.0:
            raise UsageError(f"fee_rate must lie in [0, 1), got {self.fee_rate!r}")
        if not math.isfinite(self.initial_value) or self.initial_value <= 0.0:
            raise UsageError(
                f"initial_value must be finite and > 0, got {self.initial_value!r}"
            )


class TrajectoryPoint(NamedTuple):
    """Per-bar outputs, each divided by the initial budget."""

    timestamp: int
    fee: float
    value: float
    total: float


@dataclass(frozen=True)
class BacktestResult:
    """Per-unit run metrics and, optionally, the full per-bar trajectory."""

    fees: float
    value: float
    total: float
    trajectory: tuple[TrajectoryPoint, ...] = ()


def accrue_fees(state: StrategyState, bar: HourlyBar, fee_rate: float) -> float:
    """Fee income of ``state`` over one bar.

    The position's share of the bar's fee pot is its active liquidity at the
    close divided by the pool's liquidity. The multiplication order is fixed;
    results are reproducible bit-for-bit.
    """
    liquidity = active_liquidity(state, bar.price)
    return bar.volume * fee_rate * liquidity / bar.pool_liquidity


def run_backtest(
    config: BacktestConfig,
    bars: Sequence[HourlyBar],
    keep_trajectory: bool = True,
) -> BacktestResult:
    """Run one strategy over a bar sequence and summarize it.

    Bars must be in strictly increasing timestamp order. The first bar fixes
    the entry price; fees start accruing on the second. A ledger that cannot
    be represented in floats at some bar raises DataError naming that bar.
    """
    if not bars:
        raise UsageError("cannot backtest an empty bar sequence")
    _check_ordering(bars)

    budget = config.initial_value
    strategy = config.strategy
    fee_rate = config.fee_rate
    first = bars[0]
    columns = zip(
        range(2, len(bars) + 1),
        [bar.price for bar in bars[1:]],
        [math.sqrt(bar.price) for bar in bars[1:]],
        [bar.volume * fee_rate for bar in bars[1:]],
        [bar.pool_liquidity for bar in bars[1:]],
    )

    try:
        state = initialize(strategy, first.price, budget)
    except ValueError as exc:
        raise DataError(f"bar 1: cannot deploy {strategy.label()}: {exc}") from None
    plain = flat_positions(state)
    comp = flat_positions(state)
    full_plain = full_comp = state.full_range_liquidity
    hold_x_plain = hold_x_comp = state.holdings.x
    hold_y_plain = hold_y_comp = state.holdings.y
    # Both ledgers see the same prices, so they reset on the same bars and
    # share one trigger interval; only their liquidity differs.
    trigger = state.reset_range
    trigger_lower, trigger_upper = (trigger.lower, trigger.upper) if trigger else (0.0, _INF)

    fee_sum = 0.0
    value_now = mark_ledger(
        plain, full_plain, hold_x_plain, hold_y_plain, first.price, math.sqrt(first.price)
    )[1]
    total_now = value_now
    trajectory: list[TrajectoryPoint] = []
    if keep_trajectory:
        trajectory.append(
            TrajectoryPoint(first.timestamp, 0.0, value_now / budget, total_now / budget)
        )

    for number, price, sqrt_price, volume_fee, pool_liquidity in columns:
        active_plain, value_now = mark_ledger(
            plain, full_plain, hold_x_plain, hold_y_plain, price, sqrt_price
        )
        active_comp, value_comp = mark_ledger(
            comp, full_comp, hold_x_comp, hold_y_comp, price, sqrt_price
        )
        fee_plain = volume_fee * active_plain / pool_liquidity
        fee_comp = volume_fee * active_comp / pool_liquidity
        fee_sum += fee_plain
        total_now = value_comp + fee_comp

        if fee_comp > 0.0 and value_comp > 0.0:
            factor = (value_comp + fee_comp) / value_comp
            full_comp *= factor
            hold_x_comp *= factor
            hold_y_comp *= factor
            overflow = not factor < _INF or _INF in (full_comp, hold_x_comp, hold_y_comp)
            for position in comp:
                position[2] *= factor
                overflow = overflow or position[2] == _INF
            if overflow:
                raise DataError(
                    f"bar {number}: compounding the fee {fee_comp!r} into value "
                    f"{value_comp!r} overflows the ledger"
                )

        if not trigger_lower < price < trigger_upper:
            try:
                below_lower, above_upper, trigger_lower, trigger_upper = reset_bounds(
                    strategy, price
                )
                plain = redeposit(plain, price, sqrt_price, below_lower, above_upper)
                comp = redeposit(comp, price, sqrt_price, below_lower, above_upper)
            except ValueError as exc:
                raise DataError(f"bar {number}: cannot reset {strategy.label()}: {exc}") from None

        if keep_trajectory:
            trajectory.append(
                TrajectoryPoint(
                    bars[number - 1].timestamp,
                    fee_plain / budget,
                    value_now / budget,
                    total_now / budget,
                )
            )

    return BacktestResult(
        fees=fee_sum / budget,
        value=value_now / budget,
        total=total_now / budget,
        trajectory=tuple(trajectory),
    )


def replay_trajectory(result: BacktestResult) -> list[TrajectoryPoint]:
    """Per-bar rows of a stored result, oldest first."""
    if not result.trajectory:
        raise UsageError("result holds no trajectory (run with keep_trajectory=True)")
    return list(result.trajectory)


def _check_ordering(bars: Sequence[HourlyBar]) -> None:
    for i in range(1, len(bars)):
        if bars[i].timestamp <= bars[i - 1].timestamp:
            raise DataError(
                f"bar {i + 1}: timestamp {bars[i].timestamp} does not increase "
                f"over previous {bars[i - 1].timestamp}"
            )
