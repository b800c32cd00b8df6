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

Kernel layout. :func:`run_backtest` copies the bars into rows
``(number, price, sqrt(price), volume * fee_rate, pool_liquidity)`` after
checking once that they are strictly increasing in time. The initial deposit
comes from :func:`~clbacktest.strategies.deploy`, the flat form of
:func:`~clbacktest.strategies.initialize`, so snapping and the closed-form
deposit live in one place. Both ledgers start from that one deposit, reset
on the same bars (they see the same prices) and get the same reset bounds;
only liquidity, full-range liquidity and loose tokens differ between them.
So each range position is stored once, as a geometry tuple with its
per-position constants hoisted (``lower, upper, sqrt_lower,
1/sqrt_lower - 1/sqrt_upper, sqrt_upper - sqrt_lower, 1/sqrt_upper``), and
each ledger is a plain list holding one ``L`` per range (layout in
:mod:`~clbacktest.clmath`). A reset strategy's trigger interval is two
floats. Per bar, one call of :func:`~clbacktest.clmath.mark_pair` marks both
ledgers; a reset calls :func:`~clbacktest.strategies.reset_bounds` and
:func:`~clbacktest.strategies.redeposit`, which reuses the row's
``sqrt(price)`` for the new ranges' shared bound, so it takes two new square
roots. A :class:`~clbacktest.strategies.StrategyState` stores this same flat
form (its ranges, one ledger and its trigger), so the state API
(``initialize``, ``on_close``, ``mark_to_market``, ``active_liquidity``,
``scale_liquidity``, ``accrue_fees``) converts nothing; it and ``clmath``'s
``real_reserves``, ``position_value`` and ``liquidity_for_value`` call the
same helpers, passing one ledger as both ledgers of the pair, so every
formula lives once.

Bit-identity rule. Every expression is evaluated in the order of the
dataclass API and on the same operands: a row entry or a hoisted constant is
the same IEEE operation on the same inputs as computing it in place
(``volume * fee_rate * L / pool_liquidity`` is evaluated left to right either
way). In particular, ``mark_pair`` computes each position's reserves per
unit of ``L`` once per bar and multiplies them by each ledger's ``L``:
``L * (1/sqrt_p - 1/sqrt_upper)`` is the same product whichever ledger it is
for, so sharing the per-unit factor changes no bit. Terms that are zero by
construction (the missing token of an out-of-range position, an empty
full-range deposit) are skipped; adding ``+0.0`` to a non-negative sum
leaves it unchanged. Changing the order or the operands of any sum or product
changes the published numbers; the golden tests in ``tests/test_golden.py``
catch it. The two ledgers' amounts stay separate: the compounding one
cannot be derived from the plain one bit for bit.

Memo rule. A sweep runs many configurations over one series, so a run
without a trajectory (``keep_trajectory=False``, as sweeps and baselines
pass) keeps the rows of the last bar sequence in a one-entry memo, keyed on
the identity of an immutable ``tuple`` of bars and on the fee rate. Other
sequences, and runs that keep a trajectory, rebuild the rows and hold them
only for the run, so a long trajectory run does not keep them alive while
its output is written. Only rows whose ordering check passed are remembered,
so an unsorted tuple fails on every call.

Bars are validated where they are built (:class:`HourlyBar`), not per bar in
the kernel. A value that overflows the ledger (an infinite fee or scaled
liquidity), or a range bound beyond float or tick range, raises DataError
naming the bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .errors import DataError, UsageError
from .clmath import mark_pair
from .strategies import (
    StrategyConfig,
    StrategyState,
    active_liquidity,
    deploy,
    redeposit,
    reset_bounds,
)

_INF = math.inf

# The last bar tuple run without a trajectory, its fee rate and its rows.
_memo: tuple = ((), None, None)

# The float fields of a bar, in field order, and whether each must be finite
# and > 0 (strict) or finite and >= 0. ``tvl`` may also be None. CSV ingest
# checks whole columns against the same table.
BAR_FIELDS = (("price", True), ("volume", False), ("pool_liquidity", True), ("tvl", False))


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
        for name, strict in BAR_FIELDS:
            value = getattr(self, name)
            if value is None and name == "tvl":
                continue
            if not (0.0 < value < _INF if strict else 0.0 <= value < _INF):
                raise DataError(
                    f"{name} must be finite and {'>' if strict else '>='} 0, got {value!r}"
                )


@dataclass(frozen=True)
class BacktestConfig:
    """Strategy plus the run parameters shared by every bar."""

    strategy: StrategyConfig
    fee_rate: float
    initial_value: float = 1.0

    def __post_init__(self) -> None:
        check_fee_rate(self.fee_rate)
        if not math.isfinite(self.initial_value) or self.initial_value <= 0.0:
            raise UsageError(
                f"initial_value must be finite and > 0, got {self.initial_value!r}"
            )


def check_fee_rate(fee_rate: float) -> None:
    """Raise UsageError unless ``fee_rate`` lies in [0, 1)."""
    if not 0.0 <= fee_rate < 1.0:
        raise UsageError(f"fee_rate must lie in [0, 1), got {fee_rate!r}")


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
    budget = config.initial_value
    strategy = config.strategy
    fee_rate = config.fee_rate
    if keep_trajectory or not isinstance(bars, tuple):
        rows = _series_rows(bars, fee_rate)
    else:
        rows = _memo_rows(bars, fee_rate)
    first = bars[0]

    try:
        ranges, plain, trigger = deploy(strategy, first.price, budget)
    except ValueError as exc:
        raise DataError(f"bar 1: cannot deploy {strategy.label()}: {exc}") from None
    comp = plain
    # Both ledgers see the same prices, so they reset on the same bars and
    # share one trigger interval and one list of range geometries; only
    # their liquidity and holdings differ.
    trigger_lower, trigger_upper = trigger or (0.0, _INF)

    fee_sum = 0.0
    value_now = mark_pair(ranges, plain, plain, first.price, math.sqrt(first.price))[1]
    total_now = value_now
    trajectory: list[TrajectoryPoint] = []
    if keep_trajectory:
        trajectory.append(
            TrajectoryPoint(first.timestamp, 0.0, value_now / budget, total_now / budget)
        )

    for number, price, sqrt_price, volume_fee, pool_liquidity in rows:
        active_plain, value_now, active_comp, value_comp, _, _, _, _ = mark_pair(
            ranges, plain, comp, price, sqrt_price
        )
        fee_plain = volume_fee * active_plain / pool_liquidity
        fee_comp = volume_fee * active_comp / pool_liquidity
        fee_sum += fee_plain
        total_now = value_comp + fee_comp

        if fee_comp > 0.0 and value_comp > 0.0:
            factor = (value_comp + fee_comp) / value_comp
            comp = [amount * factor for amount in comp]
            if not factor < _INF or _INF in comp:
                raise DataError(
                    f"bar {number}: compounding the fee {fee_comp!r} into value "
                    f"{value_comp!r} overflows the ledger"
                )

        if not trigger_lower < price < trigger_upper:
            try:
                below_lower, above_upper, trigger_lower, trigger_upper = reset_bounds(
                    strategy, price
                )
                ranges, plain, comp = redeposit(
                    ranges, plain, comp, price, sqrt_price, below_lower, above_upper
                )
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


def _series_rows(bars: Sequence[HourlyBar], fee_rate: float) -> Iterator[tuple]:
    """Check the ordering of ``bars``; return the kernel's rows of bars 2..n:
    ``(number, price, sqrt(price), volume * fee_rate, pool_liquidity)``."""
    _check_ordering(bars)
    return zip(
        range(2, len(bars) + 1),
        [bar.price for bar in bars[1:]],
        [math.sqrt(bar.price) for bar in bars[1:]],
        [bar.volume * fee_rate for bar in bars[1:]],
        [bar.pool_liquidity for bar in bars[1:]],
    )


def _memo_rows(bars: tuple[HourlyBar, ...], fee_rate: float) -> tuple[tuple, ...]:
    """:func:`_series_rows` as a tuple, remembered for the last tuple and fee rate.

    The memo holds the tuple itself, so its identity cannot be reused while
    it is remembered, and a tuple of frozen bars cannot change. Only a
    successful check is remembered.
    """
    global _memo
    memo = _memo
    if memo[0] is bars and memo[1] == fee_rate:
        return memo[2]
    rows = tuple(_series_rows(bars, fee_rate))
    _memo = (bars, fee_rate, rows)
    return rows


def _check_ordering(bars: Sequence[HourlyBar]) -> None:
    for i in range(1, len(bars)):
        if bars[i].timestamp <= bars[i - 1].timestamp:
            raise DataError(
                f"bar {i + 1}: timestamp {bars[i].timestamp} does not increase "
                f"over previous {bars[i - 1].timestamp}"
            )
