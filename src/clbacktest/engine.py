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
only liquidity and full-range liquidity differ between them. Loose tokens
do not: nolp has no active liquidity, so it never compounds, and passive
holds none. So the loop keeps, in local floats, at most two range slots
whose geometry (``lower, upper, sqrt_lower, 1/sqrt_lower - 1/sqrt_upper,
sqrt_upper - sqrt_lower, 1/sqrt_upper``, as in :mod:`~clbacktest.clmath`)
both ledgers share, one ``L`` per slot and ledger, and for nolp and passive
each ledger's full-range liquidity plus one ``hold_x``, ``hold_y`` pair
whose value both ledgers add. Slot 1 holds the deployed range, and after a
reset the range below the price; slot 2 holds the range above the price
and is empty until the first reset. An
empty slot has bounds at +inf, so it is never in range and no bound of it
equals a price. A reset strategy's trigger interval is two floats. Each bar
marks both ledgers in straight-line code that calls no function and builds
no tuple. A reset calls :func:`~clbacktest.strategies.reset_bounds`, the one
place where bounds, tick snapping and their range checks are written; the
rest of the reset, liquidating both ledgers and redepositing them
one-sided, is done on the slot locals with no further call or tuple. Its
two new ranges reuse the row's ``sqrt(price)`` for their shared bound (so a
reset takes two new square roots). A
:class:`~clbacktest.strategies.StrategyState` stores the same flat form as
tuples (its ranges, one ledger and its trigger), and the state API
(``initialize``, ``on_close``, ``mark_to_market``, ``active_liquidity``,
``scale_liquidity``, ``accrue_fees``) and ``clmath``'s
``liquidity_for_value`` run on the one-ledger helpers
:func:`~clbacktest.clmath.mark` and :func:`~clbacktest.strategies.redeposit`.

Bit-identity rule. The loop's marking is a second spelling of ``mark``'s
arithmetic, and its reset block a second spelling of ``redeposit``'s; both
must stay the same IEEE operations on the same operands in the same order.
Marking: per slot, the reserves per unit of ``L`` (``1/sqrt_p -
1/sqrt_upper`` and ``sqrt_p - sqrt_lower``) are computed once and shared by
both ledgers; below the range a ledger's term is ``L * inv_span * price``,
above it ``L * sqrt_span``, inside it ``L * unit_y + L * unit_x * price``;
slot 1 is summed before slot 2, and tail terms are added only when
non-zero. Every amount is non-negative, so skipping a term that is zero by
construction, or the ``0.0 +`` that ``mark`` starts its sums from, leaves a
sum unchanged. The shared-bound tie rule is ``mark``'s too: a slot whose
lower bound equals the price is inactive when any slot's upper bound also
equals it. Reset: after compounding, the reserves of each ledger are
computed again from its slot ``L``s (``x = L * inv_span`` below a slot, ``y
= L * sqrt_span`` above it, ``L * unit_x`` and ``L * unit_y`` inside it,
slot 1 before slot 2). The marking's products cannot stand in for them:
the compounding ledger was marked before it was compounded, and ``(L * f)
* u`` is not ``(L * u) * f`` bit for bit. The new geometry is
``range_geometry``'s, with ``1/sqrt(price)`` computed once; each ledger
mints ``y / sqrt_span`` below and ``x / inv_span`` above, and an overflow
is checked for the plain ledger first. A row entry or a hoisted constant is
the same operation on the same inputs as computing it in place (``volume *
fee_rate * L / pool_liquidity`` is evaluated left to right either way).
Changing the order or the operands of any sum or product changes the
published numbers. The golden tests in ``tests/test_golden.py`` catch
that, and their replay of the state API, which runs on ``mark`` and
``redeposit``, must equal the loop bit for bit, including on bars that
close exactly on a shared or an outer bound. Apart from the loose tokens,
the two ledgers' amounts stay separate: the compounding one cannot be
derived from the plain one bit for bit.

Memo rule. A sweep runs many configurations over one series, so every run
takes its rows from a one-entry memo that holds the rows of the last bar
tuple, keyed on the identity of that immutable ``tuple`` and on the fee rate,
including its sign (``-0.0`` gives ``-0.0`` fee cells in a trajectory). Any
other sequence is copied into a new tuple first, so it is checked and its
rows built afresh. Only rows whose ordering check passed are remembered, so
an unsorted tuple fails on every call. The memo keeps the last tuple and its
rows alive until another tuple or fee rate is run.

Trajectory rule. A run that keeps its trajectory appends ``fee_plain /
budget``, ``value_now / budget`` and ``total_now / budget`` of each bar to
three float lists, and builds the :class:`TrajectoryPoint` rows once, after
the loop, in one C-level pass over the bars' timestamps and those three
columns (``map(tuple.__new__, repeat(TrajectoryPoint), zip(...))``), with
no constructor call or bar lookup per bar. The rows hold the same
divisions of the same values as the metrics, so the last row equals them.
A run without a trajectory allocates none of this.

Checks. Each input is checked once, where it enters, and not per bar in
the kernel: :class:`HourlyBar`'s constructor checks each field with
:func:`~clbacktest.clmath.check_bound` (CSV ingest checks whole columns and
then builds the bars without that per-bar check), :class:`BacktestConfig`
the fee rate and budget, and
:class:`~clbacktest.strategies.StrategyConfig` the strategy's parameters.
So the kernel's :func:`~clbacktest.strategies.deploy` does not check the
entry price and budget again, and a sweep, having checked the fee rate
once per chunk, builds each point's config unchecked. What a run still
checks is arithmetic on valid input: a value that overflows the ledger
(an infinite fee or scaled liquidity), a deposit or range bound beyond
float or tick range, or a snapped reset range so narrow that its bounds'
square roots are equal (its deposit divides by zero), raises DataError
naming the bar.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple, Sequence

from ._tuples import checked_tuple
from .errors import DataError, UsageError
from .clmath import check_bound, mark
from .strategies import (
    StrategyConfig,
    StrategyState,
    active_liquidity,
    deploy,
    reset_bounds,
)

_INF = math.inf

# Geometry of an unused slot: never in range, no bound equals a price.
_EMPTY_SLOT = (_INF, _INF, 0.0, 0.0, 0.0, 0.0)

# The last bar tuple run, its fee rate and sign, and its rows.
_memo: tuple = ((), None, None)

# The float fields of a bar, in field order, and whether each must be finite
# and > 0 (strict) or finite and >= 0. ``tvl`` may also be None. CSV ingest
# checks whole columns against the same table.
BAR_FIELDS = (("price", True), ("volume", False), ("pool_liquidity", True), ("tvl", False))


class HourlyBar(checked_tuple("HourlyBar", "timestamp price volume pool_liquidity tvl", (None,))):
    """One hour of pool history: close price, traded volume, pool liquidity.

    ``volume`` and ``tvl`` are in quote-token units; ``pool_liquidity`` is the
    pool-wide liquidity in the same scale as position liquidity. ``tvl`` is
    optional and only needed for daily pool-level return estimates.

    An immutable named tuple whose constructor, ``_make`` and ``_replace``
    (which calls ``_make``) raise DataError on a value outside its bounds in
    :data:`BAR_FIELDS` or a timestamp that is not an integer. CSV ingest,
    which checks whole columns first, and unpickling build bars without
    checking them again.
    """

    __slots__ = ()  # no per-bar __dict__

    def __new__(
        cls,
        timestamp: int,
        price: float,
        volume: float,
        pool_liquidity: float,
        tvl: float | None = None,
    ) -> HourlyBar:
        if not isinstance(timestamp, int) or isinstance(timestamp, bool):
            raise DataError(f"timestamp must be an integer, got {timestamp!r}")
        for (name, strict), value in zip(BAR_FIELDS, (price, volume, pool_liquidity, tvl)):
            if value is not None or name != "tvl":
                check_bound(value, name, strict, DataError)
        return tuple.__new__(cls, (timestamp, price, volume, pool_liquidity, tvl))


class BacktestConfig(checked_tuple("BacktestConfig", "strategy fee_rate initial_value", (1.0,))):
    """Strategy plus the run parameters shared by every bar."""

    __slots__ = ()

    def __new__(
        cls, strategy: StrategyConfig, fee_rate: float, initial_value: float = 1.0
    ) -> BacktestConfig:
        check_fee_rate(fee_rate)
        check_bound(initial_value, "initial_value", error=UsageError)
        return tuple.__new__(cls, (strategy, fee_rate, initial_value))


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


class BacktestResult(checked_tuple("BacktestResult", "fees value total trajectory", ((),))):
    """Per-unit run metrics and, optionally, the full per-bar trajectory."""

    __slots__ = ()


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
    bars = tuple(bars)
    if not bars:
        raise UsageError("cannot backtest an empty bar sequence")
    budget = config.initial_value
    strategy = config.strategy
    rows = _series_rows(bars, config.fee_rate)
    first = bars[0]

    try:
        ranges, ledger, trigger = deploy(strategy, first.price, budget)
    except ValueError as exc:
        raise DataError(f"bar 1: cannot deploy {strategy.label()}: {exc}") from None
    # Both ledgers see the same prices, so they reset on the same bars and
    # share one trigger interval and the geometry of each slot; only their
    # liquidity and holdings differ.
    trigger_lower, trigger_upper = trigger or (0.0, _INF)
    tail = not ranges
    if tail:
        (lower1, upper1, sqrt_lower1, inv_span1, sqrt_span1, inv_sqrt_upper1) = _EMPTY_SLOT
        plain1 = 0.0
        full_plain, hold_x, hold_y = ledger
    else:
        ((lower1, upper1, sqrt_lower1, inv_span1, sqrt_span1, inv_sqrt_upper1),) = ranges
        (plain1,) = ledger
        full_plain = hold_x = hold_y = 0.0
    (lower2, upper2, sqrt_lower2, inv_span2, sqrt_span2, inv_sqrt_upper2) = _EMPTY_SLOT
    plain2 = 0.0
    two = False
    comp1, comp2 = plain1, plain2
    full_comp = full_plain

    fee_sum = 0.0
    value_now = mark(ranges, ledger, first.price, math.sqrt(first.price))[1]
    total_now = value_now
    if keep_trajectory:
        fees = [0.0]
        values = [value_now / budget]
        totals = [total_now / budget]

    for number, price, sqrt_price, volume_fee, pool_liquidity in rows:
        # mark's arithmetic, written out for both ledgers, the two slots and the tail.
        active_plain = full_plain
        active_comp = full_comp
        if price < lower1:
            value_now = plain1 * inv_span1 * price
            value_comp = comp1 * inv_span1 * price
        elif price > upper1:
            value_now = plain1 * sqrt_span1
            value_comp = comp1 * sqrt_span1
        else:
            unit_x = 1.0 / sqrt_price - inv_sqrt_upper1
            unit_y = sqrt_price - sqrt_lower1
            value_now = plain1 * unit_y + plain1 * unit_x * price
            value_comp = comp1 * unit_y + comp1 * unit_x * price
            if price != lower1 or not (price == upper1 or price == upper2):
                active_plain += plain1
                active_comp += comp1
        if two:
            if price < lower2:
                value_now += plain2 * inv_span2 * price
                value_comp += comp2 * inv_span2 * price
            elif price > upper2:
                value_now += plain2 * sqrt_span2
                value_comp += comp2 * sqrt_span2
            else:
                unit_x = 1.0 / sqrt_price - inv_sqrt_upper2
                unit_y = sqrt_price - sqrt_lower2
                value_now += plain2 * unit_y + plain2 * unit_x * price
                value_comp += comp2 * unit_y + comp2 * unit_x * price
                if price != lower2 or not (price == upper1 or price == upper2):
                    active_plain += plain2
                    active_comp += comp2
        if tail:
            if full_plain > 0.0:
                value_now += 2.0 * full_plain * sqrt_price
            if full_comp > 0.0:
                value_comp += 2.0 * full_comp * sqrt_price
            if hold_x > 0.0 or hold_y > 0.0:
                holdings = hold_x * price + hold_y
                value_now += holdings
                value_comp += holdings

        fee_plain = volume_fee * active_plain / pool_liquidity
        fee_comp = volume_fee * active_comp / pool_liquidity
        fee_sum += fee_plain
        total_now = value_comp + fee_comp

        if fee_comp > 0.0 and value_comp > 0.0:
            factor = (value_comp + fee_comp) / value_comp
            comp1 *= factor
            comp2 *= factor
            if tail:
                full_comp *= factor
            if not (factor < _INF and comp1 < _INF and comp2 < _INF) or (
                tail and not full_comp < _INF
            ):
                raise DataError(
                    f"bar {number}: compounding the fee {fee_comp!r} into value "
                    f"{value_comp!r} overflows the ledger"
                )

        if not trigger_lower < price < trigger_upper:
            try:
                below_lower, above_upper, trigger_lower, trigger_upper = reset_bounds(
                    strategy, price
                )
                # redeposit's arithmetic for both ledgers: the reserves of the
                # compounded slots, slot 1 before slot 2, ...
                if price < lower1:
                    x_plain = plain1 * inv_span1
                    x_comp = comp1 * inv_span1
                    y_plain = y_comp = 0.0
                elif price > upper1:
                    x_plain = x_comp = 0.0
                    y_plain = plain1 * sqrt_span1
                    y_comp = comp1 * sqrt_span1
                else:
                    unit_x = 1.0 / sqrt_price - inv_sqrt_upper1
                    unit_y = sqrt_price - sqrt_lower1
                    x_plain = plain1 * unit_x
                    y_plain = plain1 * unit_y
                    x_comp = comp1 * unit_x
                    y_comp = comp1 * unit_y
                if two:
                    if price < lower2:
                        x_plain += plain2 * inv_span2
                        x_comp += comp2 * inv_span2
                    elif price > upper2:
                        y_plain += plain2 * sqrt_span2
                        y_comp += comp2 * sqrt_span2
                    else:
                        unit_x = 1.0 / sqrt_price - inv_sqrt_upper2
                        unit_y = sqrt_price - sqrt_lower2
                        x_plain += plain2 * unit_x
                        y_plain += plain2 * unit_y
                        x_comp += comp2 * unit_x
                        y_comp += comp2 * unit_y
                # ... the geometry of [below_lower, price] and [price, above_upper] ...
                inv_sqrt_price = 1.0 / sqrt_price
                lower1 = below_lower
                upper1 = lower2 = price
                upper2 = above_upper
                sqrt_lower1 = math.sqrt(below_lower)
                sqrt_lower2 = sqrt_price
                sqrt_upper2 = math.sqrt(above_upper)
                inv_span1 = 1.0 / sqrt_lower1 - inv_sqrt_price
                sqrt_span1 = sqrt_price - sqrt_lower1
                inv_sqrt_upper1 = inv_sqrt_price
                inv_sqrt_upper2 = 1.0 / sqrt_upper2
                inv_span2 = inv_sqrt_price - inv_sqrt_upper2
                sqrt_span2 = sqrt_upper2 - sqrt_price
                # ... and the one-sided deposits, the plain ledger first.
                plain1 = y_plain / sqrt_span1 if y_plain > 0.0 else 0.0
                plain2 = x_plain / inv_span2 if x_plain > 0.0 else 0.0
                if not (plain1 < _INF and plain2 < _INF):
                    raise ValueError(
                        f"redepositing {x_plain!r} base and {y_plain!r} quote overflows"
                    )
                comp1 = y_comp / sqrt_span1 if y_comp > 0.0 else 0.0
                comp2 = x_comp / inv_span2 if x_comp > 0.0 else 0.0
                if not (comp1 < _INF and comp2 < _INF):
                    raise ValueError(
                        f"redepositing {x_comp!r} base and {y_comp!r} quote overflows"
                    )
            except (ValueError, ZeroDivisionError) as exc:
                raise DataError(f"bar {number}: cannot reset {strategy.label()}: {exc}") from None
            two = True

        if keep_trajectory:
            fees.append(fee_plain / budget)
            values.append(value_now / budget)
            totals.append(total_now / budget)

    trajectory: tuple[TrajectoryPoint, ...] = ()
    if keep_trajectory:
        timestamps = [bar.timestamp for bar in bars]
        trajectory = tuple(
            map(tuple.__new__, repeat(TrajectoryPoint), zip(timestamps, fees, values, totals))
        )
    return BacktestResult(fee_sum / budget, value_now / budget, total_now / budget, trajectory)


def _series_rows(bars: tuple[HourlyBar, ...], fee_rate: float) -> tuple[tuple, ...]:
    """Check the ordering of ``bars``; return the kernel's rows of bars 2..n:
    ``(number, price, sqrt(price), volume * fee_rate, pool_liquidity)``.

    The rows are remembered for the last tuple and fee rate (see the memo
    rule). The memo holds the tuple itself, so its identity cannot be reused
    while it is remembered, and a tuple of frozen bars cannot change.
    """
    global _memo
    key = (fee_rate, math.copysign(1.0, fee_rate))
    if _memo[0] is bars and _memo[1] == key:
        return _memo[2]
    _check_ordering(bars)
    rows = tuple(
        zip(
            range(2, len(bars) + 1),
            [bar.price for bar in bars[1:]],
            [math.sqrt(bar.price) for bar in bars[1:]],
            [bar.volume * fee_rate for bar in bars[1:]],
            [bar.pool_liquidity for bar in bars[1:]],
        )
    )
    _memo = (bars, key, rows)
    return rows


def _check_ordering(bars: Sequence[HourlyBar]) -> None:
    for i in range(1, len(bars)):
        if bars[i].timestamp <= bars[i - 1].timestamp:
            raise DataError(
                f"bar {i + 1}: timestamp {bars[i].timestamp} does not increase "
                f"over previous {bars[i - 1].timestamp}"
            )
