"""Hourly backtest engine with a non-compounding and a compounding ledger.

Per bar, in this order:

1. fee accrual against the state carried into the bar, priced at the bar's
   close: ``fee = volume * fee_rate * active_liquidity / pool_liquidity``;
2. mark-to-market of both ledgers at the close;
3. compounding: the compounding ledger's liquidity is scaled by
   ``(value + fee) / value``, the bar's ``total`` over its ``value``,
   folding the fee back into the deposit;
4. strategy reaction to the close (resets fire here).

The first bar only establishes the entry price and initial deposit; no fees
accrue on it. Three per-unit metrics summarize a run, each divided by the
initial budget: ``fees`` (sum of non-compounded fee income), ``value`` (final
mark-to-market of the non-compounding ledger, fee cash excluded), and
``total`` (final value of the compounding ledger including the last bar's
fee). "Final" means at the last bar's close, before any same-bar reset; that
matches the last trajectory row, and a reset conserves value anyway.

Kernel layout. :func:`run_backtest` transposes the bars once into columns
and zips them into rows
``(number, price, sqrt(price), volume * fee_rate, pool_liquidity)`` after
one check of the timestamp column for strict increase. The initial deposit
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
equals a price. A reset run resets on the rows of its fire schedule (see
the schedule rule): the loop compares each row's bar number with the next
fire and tests no trigger interval. Each bar marks both ledgers in
straight-line code that calls no function and builds no tuple. A reset
calls :func:`~clbacktest.strategies.reset_bounds`, the one place where
bounds, tick snapping and their range checks are written; the rest of the
reset, liquidating both ledgers and redepositing them
one-sided, is done on the slot locals with no further call or tuple. Its
two new ranges reuse the row's ``sqrt(price)`` for their shared bound (so a
reset takes two new square roots). This general loop is written once, in
:func:`_advance`, which runs from a given row to the last and returns only
the fee sum and the two values there. Rows on which a run holds one range
in slot 1, with no tail, no fire and no trajectory, run in a second loop,
the held-range segment :func:`_hold`: each bar marks only the compounding
ledger, and only a bar inside the range accrues fees and compounds. Its
held state, 11 floats (slot 1's geometry, its ``L`` in each ledger, the fee
sum and the two values), is the one state that crosses a call: ``_hold``
can stop at any row, and ``_advance`` can resume from a held state there,
with slot 2 empty (see the prefix rule). Every range run without a
trajectory takes ``_hold`` up to its first fire: a Fixed run, whose
schedule is empty, for all its rows. nolp, passive, every run with a
trajectory, and a reset's rows from its first fire on run in
``_advance``, which nolp and passive enter with their ledger as its tail. A
:class:`~clbacktest.strategies.StrategyState` stores the same flat form as
tuples (its ranges, one ledger and its trigger), and the state API
(``initialize``, ``on_close``, ``mark_to_market``, ``active_liquidity``,
``scale_liquidity``, ``accrue_fees``) and ``clmath``'s
``liquidity_for_value`` run on the one-ledger helpers
:func:`~clbacktest.clmath.mark` and :func:`~clbacktest.strategies.redeposit`.

Bit-identity rule. The loop's marking is a second spelling of ``mark``'s
arithmetic, ``_hold``'s a third, for one range, and the loop's reset block
a second spelling of ``redeposit``'s; all must stay the same IEEE operations
on the same operands in the same order.
The reset block is spelled out because calling ``redeposit`` once per
ledger costs too much: in a copy that did so, ``sweep._run_chunk`` over the
default 2500-point stable Reset grid at 48 bars took 107-129 ms instead of
69-89 ms, and in a second session 105-113 ms instead of 60-73 ms (best of
7, three alternating runs each, 2 vCPUs, Python 3.11.7).
Marking: per slot, the reserves per unit of ``L`` (``1/sqrt_p -
1/sqrt_upper`` and ``sqrt_p - sqrt_lower``) are computed once and shared by
both ledgers; below the range a ledger's term is ``L * inv_span * price``,
above it ``L * sqrt_span``, inside it ``L * unit_y + L * unit_x * price``;
slot 1 is summed before slot 2, and tail terms are added only when
non-zero. Every amount is non-negative, so skipping a term that is zero by
construction, or the ``0.0 +`` that ``mark`` starts its sums from, leaves a
sum unchanged. The compounding factor divides the bar's ``total``, the sum
``value_comp + fee_comp`` computed once, by ``value_comp``: the same
operations as the replay's ``(value_comp + fee_comp) / value_comp``. The
shared-bound tie rule is ``mark``'s too: a slot whose lower bound equals
the price is inactive when any slot's upper bound also equals it; a held
range's lower bound is below its upper one and slot 2 is empty, so a held
range is active wherever the price is inside it. Held range: outside the
range a bar's two fees are ``volume_fee * 0.0 / pool_liquidity``, ``+0.0``
or, at a fee rate of ``-0.0``, ``-0.0``. Adding either to the fee sum, which
starts at ``+0.0`` and so is never ``-0.0``, or to the non-negative
``value_comp`` changes no bit, and a zero fee never compounds; so ``_hold``
skips that work there and takes ``value_comp`` as the bar's total. It
makes ``_advance``'s overflow checks in the same order, with the same
messages. The plain ledger's ``L`` does not change while its range is
held, so a held segment that ends at the last row marks that ledger once,
there, with ``mark``: the value ``_advance`` would have left. One that
ends before it leaves ``value_now`` for ``_advance``'s next row to
overwrite unread. Until a range run first resets, slot 2 is empty and it
has no tail, so its held state and its schedule are all of its state:
``_advance`` resumes from a held state with slot 2 empty, no tail and the
run's own schedule, the locals a run from deploy would have entering that
row. Reset:
after compounding, the reserves of each ledger are computed again from
its slot ``L``s (``x = L * inv_span`` below a slot, ``y = L * sqrt_span``
above it, ``L * unit_x`` and ``L * unit_y`` inside it, slot 1 before
slot 2). The marking's products cannot stand in for them: the
compounding ledger was marked before it was compounded, and
``(L * f) * u`` is not ``(L * u) * f`` bit for bit. The new geometry is
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
tuple, keyed on the identity of that immutable ``tuple`` and on the fee
rate, including its sign (``-0.0`` gives ``-0.0`` fee cells in a
trajectory). Any other sequence is copied into a new tuple first, so it is
checked and its rows built afresh. Only rows whose ordering check passed
are remembered, so an unsorted tuple fails on every call. The same entry
holds three memos for the series (fire schedules, prefix snapshots and
results), so they share its key and its lifetime: the memo keeps the last
tuple, its rows and those memos alive until another tuple or fee rate is
run. Each memo is keyed by what the runs it serves read besides the rows:
a reset's r, its width ``(a, snap_spacing, budget)``, or both.

Schedule rule. A Reset(a, r) run fires on each close not strictly inside
its trigger interval, which is centred on the price it was set at, with
half-width r, and is never snapped. So the rows it fires on, its fire
schedule, depend on r and the prices alone. :func:`_fire_schedule` is the
one place that decides them; every reset run takes its schedule from a memo
keyed on r, and the kernel resets on exactly those rows. r enters a run
nowhere else, except where ``deploy`` and ``reset_bounds`` check a trigger
interval: a schedule's scan stops at the first invalid one, the one that
check rejects. The rest of a run is its width: a and the spacing enter it
only through ``deploy`` and ``reset_bounds``, and the budget only through
the ledger. So a reset run without a trajectory is the run of its width and
schedule, and looks its result up by ``(a, snap_spacing, budget,
schedule)``; a hit returns the stored :class:`BacktestResult` and does not
even deploy, as a stored result shows that this width deploys, and a valid
schedule that this trigger does. A run stores its result only when it
succeeds and every trigger interval of its schedule is valid. A schedule
that stops at an invalid interval, where ``deploy`` or ``reset_bounds``
raises naming the strategy (r included), is never looked up; so a config
whose trigger or run fails raises its own error.

Prefix rule. Until it first fires, a range run is the run of the range and
ledger its width deploys, and a reset grid's r values share that prefix. So
a range run without a trajectory (and, for a reset, without a stored
result) holds its range in ``_hold`` up to row ``k``, the first row of its
schedule, or past the last row if it never fires, as a Fixed run, whose
schedule is empty, never does. A reset run holds it from its width's
snapshot, itself a held state, when that lies at or before row ``k``, else
from the deploy state, and keeps the further of the two snapshots; a Fixed
run holds it from the deploy state and keeps none. The run then goes on
from row ``k`` in ``_advance`` on its schedule; a run that never fires
makes no ``_advance`` call and takes its sums from the held state. The
prefix's arithmetic is the full run's: the rows before ``k`` see the same
state and fire on none of them, and ``_hold`` gives the bits ``_advance``
would (see the bit-identity rule). A run with a trajectory, and nolp and
passive, run every row from deploy in one segment. Only reset runs read or
write the snapshots and the results.

Trajectory rule. A run that keeps its trajectory appends ``fee_plain /
budget``, ``value_now / budget`` and ``total_now / budget`` of each bar to
three float lists, and builds the :class:`TrajectoryPoint` rows once, after
the loop, in one C-level pass over the bars' timestamps and those three
columns (``map(tuple.__new__, repeat(TrajectoryPoint), zip(...))``), with
no constructor call or bar lookup per bar. The rows hold the same
divisions of the same values as the metrics, so the last row equals them.
A run without a trajectory allocates none of this, and marks bar 1 (with
``mark``) only when it has one bar, whose value is the result; otherwise
a later bar's mark overwrites that value unread.

Checks. Each input is checked once, where it enters, and not per bar in the
kernel: :class:`HourlyBar`'s constructor checks each field with
:func:`~clbacktest.clmath.check_bound` (CSV ingest checks whole columns and
then builds the bars without that per-bar check), :class:`BacktestConfig`
the fee rate and budget, :class:`~clbacktest.dataio.BarSeries` its fee
rate, and :class:`~clbacktest.strategies.StrategyConfig` the strategy's
parameters, its tick spacing included. So the kernel's
:func:`~clbacktest.strategies.deploy` does not check the entry price and
budget again, a snapped deploy or reset does not check its spacing again,
and a sweep, whose fee rate its ``BarSeries`` checked, builds each point's
config unchecked. What a run still checks is arithmetic on valid input: a
value that overflows the ledger (an infinite fee or scaled liquidity, or a
ledger whose holdings are worth more than a float at a bar's price), a
deposit or range bound beyond float or tick range, or a snapped reset range
so narrow that its bounds' square roots are equal (its deposit divides by
zero), raises DataError naming the bar. The marking test runs once per bar
for every kind and reads only the compounding ledger's value, which the
plain ledger's never exceeds: both start from one deposit, a compounding
factor ``(value + fee) / value`` is at least 1, and marking, compounding
and a reset's redeposit apply the same non-negative operands in the same
order to each ledger's amounts, so with rounding monotone no plain amount
or value exceeds its compounding twin. Compounding tests only the scaled
slots (and full-range liquidity): a non-finite factor makes a scaled slot
non-finite too, since ``L * inf`` is inf and ``0.0 * inf`` is NaN.
"""

from __future__ import annotations

import math
import operator
from itertools import islice, repeat
from typing import Sequence

from ._tuples import checked_tuple
from .errors import DataError, UsageError
from .clmath import check_bound, mark, symmetric_bounds
from .strategies import (
    RESET,
    Ledger,
    StrategyConfig,
    StrategyState,
    active_liquidity,
    deploy,
    reset_bounds,
)

# Geometry of an unused slot: never in range, no bound equals a price.
_EMPTY_SLOT = (math.inf, math.inf, 0.0, 0.0, 0.0, 0.0)

# The last bar tuple run, its fee rate and sign, its rows, and its memos:
# r -> (fire schedule, valid), (a, snap_spacing, budget) -> (row, held
# state), and (a, snap_spacing, budget, schedule) -> result.
_memo: tuple = ((), None, None, None, None, None)

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

    def _check(self) -> None:
        if not isinstance(self.timestamp, int) or isinstance(self.timestamp, bool):
            raise DataError(f"timestamp must be an integer, got {self.timestamp!r}")
        for (name, strict), value in zip(BAR_FIELDS, self[1:]):
            if value is not None or name != "tvl":
                check_bound(value, name, strict, DataError)


class BacktestConfig(checked_tuple("BacktestConfig", "strategy fee_rate initial_value", (1.0,))):
    """Strategy plus the run parameters shared by every bar."""

    __slots__ = ()

    def _check(self) -> None:
        check_fee_rate(self.fee_rate)
        check_bound(self.initial_value, "initial_value", error=UsageError)


def check_fee_rate(fee_rate: float) -> None:
    """Raise UsageError unless ``fee_rate`` lies in [0, 1)."""
    if not 0.0 <= fee_rate < 1.0:
        raise UsageError(f"fee_rate must lie in [0, 1), got {fee_rate!r}")


class TrajectoryPoint(checked_tuple("TrajectoryPoint", "timestamp fee value total")):
    """Per-bar outputs, each divided by the initial budget."""

    __slots__ = ()


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
    rows, schedules, snapshots, results = _series_rows(bars, config.fee_rate)
    first = bars[0]

    # The schedule rule: a reset run fires on its r's schedule, and one
    # without a trajectory is the run of its width and schedule.
    reset = strategy.kind == RESET
    fired = ()
    key = None
    if reset:
        schedule = schedules.get(strategy.r)
        if schedule is None:
            schedule = schedules[strategy.r] = _fire_schedule(rows, first.price, strategy.r)
        fired, valid = schedule
        width = (strategy.a, strategy.snap_spacing, budget)
        if valid and not keep_trajectory:
            key = (*width, fired)
            done = results.get(key)
            if done is not None:
                return done

    try:
        ranges, ledger, _ = deploy(strategy, first.price, budget)
    except ValueError as exc:
        raise DataError(f"bar 1: cannot deploy {strategy.label()}: {exc}") from None
    value = 0.0
    if keep_trajectory or not rows:  # else a later bar's mark overwrites it unread
        value = mark(ranges, ledger, first.price, math.sqrt(first.price))[1]
    # The held state (see _hold). nolp and passive hold no range and keep
    # their ledger as _advance's tail.
    if ranges:
        (slot1,), (plain1,) = ranges, ledger
        tail = None
    else:
        slot1, plain1, tail = _EMPTY_SLOT, 0.0, ledger
    held = (*slot1, plain1, plain1, 0.0, value, value)

    if keep_trajectory or tail is not None:
        columns = ([0.0], [value / budget], [value / budget]) if keep_trajectory else None
        sums = _advance(strategy, rows, 0, held, fired, tail, budget, columns)
    else:
        # The prefix rule: rows before ``start``, the first this run fires
        # on, hold the deployed range, which a reset run shares with its
        # width; the run goes on from there on its own schedule.
        start = fired[0] if fired else len(rows)
        saved = snapshots.get(width) if reset else None
        at = 0
        if saved is not None and saved[0] <= start:
            at, held = saved
        if at < start:
            held = _hold(rows, at, start, held)
            if reset and (saved is None or saved[0] < start):
                snapshots[width] = (start, held)
        sums = held[-3:]
        if fired:
            sums = _advance(strategy, rows, start, held, fired, None, budget, None)
    trajectory: tuple[TrajectoryPoint, ...] = ()
    if keep_trajectory:
        timestamps = [bar.timestamp for bar in bars]
        trajectory = tuple(
            map(tuple.__new__, repeat(TrajectoryPoint), zip(timestamps, *columns))
        )
    fee_sum, value_now, total_now = sums
    result = BacktestResult(fee_sum / budget, value_now / budget, total_now / budget, trajectory)
    if key is not None:
        results[key] = result
    return result


def _advance(
    strategy: StrategyConfig,
    rows: tuple[tuple, ...],
    start: int,
    held: tuple,
    schedule: tuple[int, ...],
    tail: Ledger | None,
    budget: float,
    trajectory: tuple[list, list, list] | None,
) -> tuple[float, float, float]:
    """Run ``rows[start:]`` and return the fee sum and the plain and
    compounding values at the last row.

    The run enters row ``start`` in the held state ``held`` (see
    :func:`_hold`) and resets on each row of ``schedule``, the rows from
    ``start`` on that :func:`_fire_schedule` gave for its r (empty for a
    run that never resets); nolp and passive also bring their ledger,
    ``(full-range liquidity, hold_x, hold_y)``, as ``tail``, which is None
    for a strategy with a range. Slot 2 starts empty. ``trajectory``, when
    given, holds the fee, value and total lists that each bar's ``/ budget``
    cells are appended to.
    """
    (
        lower1, upper1, sqrt_lower1, inv_span1, sqrt_span1, inv_sqrt_upper1,
        plain1, comp1, fee_sum, value_now, total_now,
    ) = held
    fires = iter(schedule)
    # The number of the next bar that resets (row i holds bar i + 2); after
    # the last fire, 1, which no row's bar has.
    fire = next(fires, -1) + 2
    lower2, upper2, sqrt_lower2, inv_span2, sqrt_span2, inv_sqrt_upper2 = _EMPTY_SLOT
    plain2 = comp2 = 0.0
    full_plain, hold_x, hold_y = tail or (0.0, 0.0, 0.0)
    full_comp = full_plain
    tail = tail is not None  # a bool: the per-bar tests below run fastest on one
    two = False
    inf, sqrt = math.inf, math.sqrt
    keep = trajectory is not None
    if keep:
        fees, values, totals = trajectory

    for number, price, sqrt_price, volume_fee, pool_liquidity in rows[start:]:
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
                # A strategy with ranges holds no full-range liquidity, so
                # this is mark's 0.0 + L.
                active_plain = plain1
                active_comp = comp1
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
        if not value_comp < inf:  # value_now <= value_comp (see the checks)
            raise DataError(f"bar {number}: marking the ledger at price {price!r} overflows")

        fee_plain = volume_fee * active_plain / pool_liquidity
        fee_comp = volume_fee * active_comp / pool_liquidity
        fee_sum += fee_plain
        total_now = value_comp + fee_comp

        if fee_comp > 0.0 and value_comp > 0.0:
            factor = total_now / value_comp
            comp1 *= factor
            comp2 *= factor
            if tail:
                full_comp *= factor
            # A non-finite factor shows here too: L * inf is inf, 0.0 * inf NaN.
            if not (comp1 < inf and comp2 < inf) or (tail and not full_comp < inf):
                raise DataError(
                    f"bar {number}: compounding the fee {fee_comp!r} into value "
                    f"{value_comp!r} overflows the ledger"
                )

        if number == fire:
            fire = next(fires, -1) + 2
            try:
                below_lower, above_upper, _, _ = reset_bounds(strategy, price)
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
                sqrt_lower1 = sqrt(below_lower)
                sqrt_lower2 = sqrt_price
                sqrt_upper2 = sqrt(above_upper)
                inv_span1 = 1.0 / sqrt_lower1 - inv_sqrt_price
                sqrt_span1 = sqrt_price - sqrt_lower1
                inv_sqrt_upper1 = inv_sqrt_price
                inv_sqrt_upper2 = 1.0 / sqrt_upper2
                inv_span2 = inv_sqrt_price - inv_sqrt_upper2
                sqrt_span2 = sqrt_upper2 - sqrt_price
                # ... and the one-sided deposits, the plain ledger first.
                plain1 = y_plain / sqrt_span1 if y_plain > 0.0 else 0.0
                plain2 = x_plain / inv_span2 if x_plain > 0.0 else 0.0
                if not (plain1 < inf and plain2 < inf):
                    raise ValueError(
                        f"redepositing {x_plain!r} base and {y_plain!r} quote overflows"
                    )
                comp1 = y_comp / sqrt_span1 if y_comp > 0.0 else 0.0
                comp2 = x_comp / inv_span2 if x_comp > 0.0 else 0.0
                if not (comp1 < inf and comp2 < inf):
                    raise ValueError(
                        f"redepositing {x_comp!r} base and {y_comp!r} quote overflows"
                    )
            except (ValueError, ZeroDivisionError) as exc:
                raise DataError(f"bar {number}: cannot reset {strategy.label()}: {exc}") from None
            two = True

        if keep:
            fees.append(fee_plain / budget)
            values.append(value_now / budget)
            totals.append(total_now / budget)
    return fee_sum, value_now, total_now


def _hold(rows: tuple[tuple, ...], start: int, stop: int, held: tuple) -> tuple:
    """Run ``rows[start:stop]`` from ``held``, the state of a run that holds
    one range with no tail or trajectory and fires on none of these rows;
    return the held state after them.

    The held state is 11 floats: the range's geometry (``lower, upper,
    sqrt_lower, inv_span, sqrt_span, inv_sqrt_upper``), its ``L`` in the
    plain and the compounding ledger, the fee sum, and the plain and
    compounding values at the last bar run. The held-range segment (see the
    kernel layout): each bar marks only the compounding ledger, and only a
    bar inside the range accrues fees and compounds. The plain ledger keeps
    its deployed ``L``; a segment that ends at the last row marks it once,
    with ``mark``, there, and any other leaves ``value_now`` to
    ``_advance``'s next row. Only the compounding ``L``, the fee sum and the
    two values change.
    """
    (
        lower1, upper1, sqrt_lower1, inv_span1, sqrt_span1, inv_sqrt_upper1,
        plain1, comp1, fee_sum, value_now, total_now,
    ) = held
    inf = math.inf
    for number, price, sqrt_price, volume_fee, pool_liquidity in rows[start:stop]:
        if price < lower1:
            total_now = comp1 * inv_span1 * price
        elif price > upper1:
            total_now = comp1 * sqrt_span1
        else:
            # Inside the range, slot 1 is active: lower1 < upper1, and slot
            # 2 is empty.
            unit_x = 1.0 / sqrt_price - inv_sqrt_upper1
            value_comp = comp1 * (sqrt_price - sqrt_lower1) + comp1 * unit_x * price
            if not value_comp < inf:
                raise DataError(f"bar {number}: marking the ledger at price {price!r} overflows")
            fee_comp = volume_fee * comp1 / pool_liquidity
            fee_sum += volume_fee * plain1 / pool_liquidity
            total_now = value_comp + fee_comp
            if fee_comp > 0.0 and value_comp > 0.0:
                comp1 *= total_now / value_comp
                if not comp1 < inf:
                    raise DataError(
                        f"bar {number}: compounding the fee {fee_comp!r} into value "
                        f"{value_comp!r} overflows the ledger"
                    )
            continue
        # Outside the range both fees are +-0.0: the value is the total.
        if not total_now < inf:
            raise DataError(f"bar {number}: marking the ledger at price {price!r} overflows")
    if start < stop == len(rows):
        value_now = mark((held[:6],), (plain1,), price, sqrt_price)[1]
    return (*held[:7], comp1, fee_sum, value_now, total_now)


def _fire_schedule(
    rows: tuple[tuple, ...], price: float, r: float
) -> tuple[tuple[int, ...], bool]:
    """The fire schedule of a reset run of trigger half-width ``r``
    deployed at ``price``: the rows it resets on, and whether every trigger
    interval on the way is valid.

    The kernel resets on exactly these rows. The run's first interval is
    ``symmetric_bounds(price, r)``, and each later one that of the close
    it fired on; a close not strictly inside the interval fires. The scan
    stops at the first interval that is not ``0 < lower < upper < inf``,
    the one ``deploy``'s or ``reset_bounds``' check rejects; the schedule
    then ends on the row whose reset raises.
    """
    fired = []
    lower, upper = symmetric_bounds(price, r)
    if not 0.0 < lower < upper < math.inf:
        return (), False
    for i, row in enumerate(rows):
        price = row[1]
        if not lower < price < upper:
            fired.append(i)
            lower, upper = symmetric_bounds(price, r)
            if not 0.0 < lower < upper < math.inf:
                return tuple(fired), False
    return tuple(fired), True


def _series_rows(bars: tuple[HourlyBar, ...], fee_rate: float) -> tuple[tuple, dict, dict, dict]:
    """Check the ordering of ``bars``; return the kernel's rows of bars 2..n,
    ``(number, price, sqrt(price), volume * fee_rate, pool_liquidity)``, and
    the series' three memos: the fire schedule of each ``r``, the furthest
    snapshot of each width ``(a, snap_spacing, budget)``, and the result of
    each width and schedule.

    All four are remembered for the last tuple and fee rate (see the memo
    rule). The memo holds the tuple itself, so its identity cannot be reused
    while it is remembered, and a tuple of frozen bars cannot change.
    """
    global _memo
    key = (fee_rate, math.copysign(1.0, fee_rate))
    if _memo[0] is bars and _memo[1] == key:
        return _memo[2:]
    timestamps, prices, volumes, liquidity, _ = zip(*bars)
    if not all(map(operator.lt, timestamps, islice(timestamps, 1, None))):
        _check_ordering(bars)
    prices = prices[1:]
    rows = tuple(
        zip(
            range(2, len(bars) + 1),
            prices,
            list(map(math.sqrt, prices)),
            [volume * fee_rate for volume in islice(volumes, 1, None)],
            islice(liquidity, 1, None),
        )
    )
    _memo = (bars, key, rows, {}, {}, {})
    return _memo[2:]


def _check_ordering(bars: Sequence[HourlyBar]) -> None:
    """Raise DataError naming the first bar whose timestamp does not increase."""
    for i in range(1, len(bars)):
        if bars[i].timestamp <= bars[i - 1].timestamp:
            raise DataError(
                f"bar {i + 1}: timestamp {bars[i].timestamp} does not increase "
                f"over previous {bars[i - 1].timestamp}"
            )
