"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Expected values marked as hand-computed were produced by independent
oracles (high-precision arithmetic or a spreadsheet-style ledger) before the
implementation existed.
"""

import functools
import math
import random
import time

import pytest

from clbacktest import (
    BacktestConfig,
    BarSeries,
    DataError,
    GridSpec,
    HourlyBar,
    build_grid,
    compute_baselines,
    fixed_config,
    initialize,
    liquidity_from_equal_value,
    load_bars,
    mark_to_market,
    nolp_config,
    on_close,
    pair_for_class,
    passive_config,
    position_value,
    rank_results,
    real_reserves,
    render_report,
    reset_config,
    run_backtest,
    run_sweep,
    save_bars,
    symmetric_range,
)
from clbacktest.dataio import average_daily_return, daily_fee_returns
from helpers import csv_text, make_bars

import io


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}: {description}", flush=True)
                raise
            print(f"PASS criterion {number}: {description}", flush=True)

        return wrapper

    return decorate


def within(got, want, rel):
    return abs(got - want) <= rel * abs(want)


@criterion(1, "worked deposit examples and position values at 1900 (0.5%)")
def test_criterion_1_worked_examples():
    started = time.perf_counter()
    narrow = liquidity_from_equal_value(2000.0, 0.10, 1000.0)
    wide = liquidity_from_equal_value(2000.0, 0.20, 1000.0)
    assert within(narrow, 240.3, 0.005)
    assert within(wide, 128.3, 0.005)
    narrow_value = position_value(narrow, symmetric_range(2000.0, 0.10), 1900.0)
    wide_value = position_value(wide, symmetric_range(2000.0, 0.20), 1900.0)
    assert within(narrow_value, 967.63, 0.005)
    assert within(wide_value, 971.81, 0.005)
    assert time.perf_counter() - started < 1.0


@criterion(2, "reset example at 2100: split, one-sided liquidity, new trigger interval")
def test_criterion_2_reset_example():
    started = time.perf_counter()
    state = initialize(reset_config(0.10, 0.05), 2000.0, 1000.0)
    amounts = real_reserves(state.positions[0].liquidity, state.positions[0].price_range, 2100.0)
    assert within(amounts.y, 765.06, 0.005)
    assert within(amounts.x * 2100.0, 252.87, 0.005)

    before = mark_to_market(state, 2100.0)
    reset = on_close(state, 2100.0)
    below, above = reset.positions
    assert within(below.liquidity, 359.0, 0.01)
    assert within(above.liquidity, 119.0, 0.01)
    assert within(reset.reset_range.lower, 2000.0, 1e-9)
    assert within(reset.reset_range.upper, 2205.0, 1e-9)
    assert within(mark_to_market(reset, 2100.0), before, 1e-9)
    assert time.perf_counter() - started < 1.0


@criterion(3, "narrow/wide liquidity ratio: closed form at 1e-9, quoted 1.875 at 0.5%")
def test_criterion_3_leverage_ratio():
    closed_form = (1.0 - 1.2**-0.5) / (1.0 - 1.1**-0.5)
    for p, budget in ((2000.0, 1000.0), (1.0, 1.0), (37.5, 12345.0)):
        ratio = liquidity_from_equal_value(p, 0.10, budget) / liquidity_from_equal_value(
            p, 0.20, budget
        )
        assert within(ratio, closed_form, 1e-9)
        assert within(ratio, 1.875, 0.005)


@criterion(4, "seven property families, 1000 randomized cases each, under 30 s")
def test_criterion_4_property_suite():
    started = time.perf_counter()
    rng = random.Random(424242)

    def boundary_continuity():
        liquidity = rng.uniform(1e-3, 1e3)
        rng_range = symmetric_range(rng.uniform(0.01, 1e4), rng.uniform(1e-3, 3.0))
        for bound in (rng_range.lower, rng_range.upper):
            eps = 1e-9 * bound
            at = position_value(liquidity, rng_range, bound)
            for p in (bound - eps, bound + eps):
                assert abs(position_value(liquidity, rng_range, p) - at) <= 1e-6 * max(at, 1e-30)

    def monotone_reserves():
        liquidity = rng.uniform(1e-3, 1e3)
        rng_range = symmetric_range(rng.uniform(0.01, 1e4), rng.uniform(1e-3, 3.0))
        lo, hi = rng_range.lower * 0.8, rng_range.upper * 1.2
        previous = None
        for k in range(6):
            p = lo + (hi - lo) * k / 5.0
            amounts = real_reserves(liquidity, rng_range, p)
            if previous is not None:
                slack = 1e-12 * max(amounts.x + amounts.y, previous.x + previous.y)
                assert amounts.x <= previous.x + slack
                assert amounts.y >= previous.y - slack
            previous = amounts

    def equal_value_split():
        p = rng.uniform(0.01, 1e4)
        a = rng.uniform(1e-3, 3.0)
        budget = rng.uniform(1e-3, 1e6)
        liquidity = liquidity_from_equal_value(p, a, budget)
        amounts = real_reserves(liquidity, symmetric_range(p, a), p)
        assert abs(amounts.x * p - budget / 2.0) <= 1e-9 * budget
        assert abs(amounts.y - budget / 2.0) <= 1e-9 * budget

    def hold_dominance():
        p0 = rng.uniform(0.01, 1e4)
        budget = rng.uniform(0.1, 1e5)
        p = p0 * rng.uniform(0.2, 5.0)
        hold = mark_to_market(initialize(nolp_config(), p0, budget), p)
        fixed = mark_to_market(initialize(fixed_config(rng.uniform(1e-3, 3.0)), p0, budget), p)
        passive = mark_to_market(initialize(passive_config(), p0, budget), p)
        assert fixed <= hold + 1e-9 * budget
        assert passive <= hold + 1e-9 * budget

    def reset_value_conservation():
        p0 = rng.uniform(0.01, 1e4)
        a = rng.uniform(1e-3, 2.0)
        r = rng.uniform(1e-3, 2.0)
        budget = rng.uniform(0.1, 1e5)
        state = initialize(reset_config(a, r), p0, budget)
        stretch = rng.uniform(1.0, 2.5)
        p = p0 * (1.0 + r) * stretch if rng.random() < 0.5 else p0 / ((1.0 + r) * stretch)
        before = mark_to_market(state, p)
        after = mark_to_market(on_close(state, p), p)
        assert abs(after - before) <= 1e-9 * max(before, 1e-30)

    def fee_linearity():
        p0 = rng.uniform(1.0, 5000.0)
        prices = [p0, p0 * rng.uniform(0.8, 1.2), p0 * rng.uniform(0.8, 1.2)]
        volumes = [0.0, rng.uniform(0.01, 1e7), rng.uniform(0.01, 1e7)]
        bars = make_bars(prices, volumes=volumes, liquidity=1e5)
        strategy = fixed_config(rng.uniform(0.01, 1.0))
        small = run_backtest(
            BacktestConfig(strategy=strategy, fee_rate=0.003, initial_value=1.0), bars
        )
        large = run_backtest(
            BacktestConfig(strategy=strategy, fee_rate=0.003, initial_value=2.0), bars
        )
        assert large.fees == small.fees
        assert large.value == small.value
        assert large.total == small.total

    def wide_fixed_meets_passive():
        p0 = rng.uniform(0.01, 1e4)
        budget = rng.uniform(0.1, 1e5)
        a = 1e6 * rng.uniform(1.0, 10.0)
        p = p0 * rng.uniform(0.5, 2.0)
        wide = mark_to_market(initialize(fixed_config(a), p0, budget), p)
        passive = mark_to_market(initialize(passive_config(), p0, budget), p)
        assert abs(wide - passive) <= 1e-3 * passive

    properties = (
        boundary_continuity,
        monotone_reserves,
        equal_value_split,
        hold_dominance,
        reset_value_conservation,
        fee_linearity,
        wide_fixed_meets_passive,
    )
    for check in properties:
        for _ in range(1000):
            check()
    assert time.perf_counter() - started < 30.0


def _oracle_metrics(kind, a, r, raw_bars, fee_rate, budget):
    """Brute-force per-bar ledger, written directly from the methodology.

    Positions are [lower, upper, liquidity] triples; no code is shared with
    the engine beyond the math library.
    """

    def reserves(liquidity, lower, upper, p):
        if p < lower:
            return liquidity * (1.0 / math.sqrt(lower) - 1.0 / math.sqrt(upper)), 0.0
        if p > upper:
            return 0.0, liquidity * (math.sqrt(upper) - math.sqrt(lower))
        return (
            liquidity * (1.0 / math.sqrt(p) - 1.0 / math.sqrt(upper)),
            liquidity * (math.sqrt(p) - math.sqrt(lower)),
        )

    def fresh_state():
        p0 = raw_bars[0][1]
        positions, hold, full, trigger = [], (0.0, 0.0), 0.0, None
        if kind == "nolp":
            hold = (budget / (2.0 * p0), budget / 2.0)
        elif kind == "passive":
            full = budget / (2.0 * math.sqrt(p0))
        else:
            liquidity = (budget / 2.0) / (math.sqrt(p0) * (1.0 - 1.0 / math.sqrt(1.0 + a)))
            positions = [[p0 / (1.0 + a), p0 * (1.0 + a), liquidity]]
            if kind == "reset":
                trigger = (p0 / (1.0 + r), p0 * (1.0 + r))
        return positions, hold, full, trigger

    def active(positions, full, p):
        total = full
        for index, (lower, upper, liquidity) in enumerate(positions):
            if not lower <= p <= upper:
                continue
            if p == lower and any(
                other[1] == p for j, other in enumerate(positions) if j != index
            ):
                continue
            total += liquidity
        return total

    def value(positions, hold, full, p):
        total = 0.0
        for lower, upper, liquidity in positions:
            x, y = reserves(liquidity, lower, upper, p)
            total += y + x * p
        if full > 0.0:
            total += 2.0 * full * math.sqrt(p)
        if hold[0] > 0.0 or hold[1] > 0.0:
            total += hold[0] * p + hold[1]
        return total

    def close(positions, trigger, p):
        if trigger is None or trigger[0] < p < trigger[1]:
            return positions, trigger
        x_total = 0.0
        y_total = 0.0
        for lower, upper, liquidity in positions:
            x, y = reserves(liquidity, lower, upper, p)
            x_total += x
            y_total += y
        lower_new = p / (1.0 + a)
        upper_new = p * (1.0 + a)
        below = y_total / (math.sqrt(p) - math.sqrt(lower_new)) if y_total > 0.0 else 0.0
        above = (
            x_total / (1.0 / math.sqrt(p) - 1.0 / math.sqrt(upper_new)) if x_total > 0.0 else 0.0
        )
        return [[lower_new, p, below], [p, upper_new, above]], (p / (1.0 + r), p * (1.0 + r))

    # Non-compounding ledger: fee cash held aside, positions untouched.
    positions, hold, full, trigger = fresh_state()
    fee_sum = 0.0
    last_value = value(positions, hold, full, raw_bars[0][1])
    for _, p, volume, pool_liquidity in raw_bars[1:]:
        fee_sum += volume * fee_rate * active(positions, full, p) / pool_liquidity
        last_value = value(positions, hold, full, p)
        positions, trigger = close(positions, trigger, p)

    # Compounding ledger: every fee immediately scales the deposit.
    positions, hold, full, trigger = fresh_state()
    last_total = value(positions, hold, full, raw_bars[0][1])
    for _, p, volume, pool_liquidity in raw_bars[1:]:
        fee = volume * fee_rate * active(positions, full, p) / pool_liquidity
        marked = value(positions, hold, full, p)
        last_total = marked + fee
        if fee > 0.0 and marked > 0.0:
            factor = (marked + fee) / marked
            positions = [[lo, hi, L * factor] for lo, hi, L in positions]
            hold = (hold[0] * factor, hold[1] * factor)
            full = full * factor
        positions, trigger = close(positions, trigger, p)

    return fee_sum / budget, last_value / budget, last_total / budget


@criterion(5, "bit-for-bit oracle equivalence on 20 randomized short fixtures")
def test_criterion_5_oracle_equivalence():
    rng = random.Random(987123)
    kinds = ("nolp", "passive", "fixed", "reset")
    for case in range(20):
        count = rng.randint(1, 10)
        p0 = rng.uniform(0.5, 5000.0)
        prices = [p0] + [p0 * rng.uniform(0.7, 1.3) for _ in range(count - 1)]
        volumes = [0.0] + [
            rng.choice([0.0, rng.uniform(1.0, 1e7)]) for _ in range(count - 1)
        ]
        liquidity = [rng.uniform(1e2, 1e8) for _ in range(count)]
        raw = [
            (3600 * i, prices[i], volumes[i], liquidity[i]) for i in range(count)
        ]
        bars = tuple(
            HourlyBar(timestamp=ts, price=p, volume=v, pool_liquidity=lq)
            for ts, p, v, lq in raw
        )
        kind = kinds[case % 4]
        a = rng.uniform(0.01, 0.5)
        r = rng.uniform(0.01, 0.3)
        budget = rng.choice([1.0, rng.uniform(0.5, 10.0)])
        fee_rate = rng.choice([0.003, 0.0005, 0.01])

        if kind == "nolp":
            strategy = nolp_config()
        elif kind == "passive":
            strategy = passive_config()
        elif kind == "fixed":
            strategy = fixed_config(a)
        else:
            strategy = reset_config(a, r)
        result = run_backtest(
            BacktestConfig(strategy=strategy, fee_rate=fee_rate, initial_value=budget),
            bars,
            keep_trajectory=False,
        )
        fees, value, total = _oracle_metrics(kind, a, r, raw, fee_rate, budget)
        assert result.fees == fees, f"case {case} ({kind}): fees differ"
        assert result.value == value, f"case {case} ({kind}): value differs"
        assert result.total == total, f"case {case} ({kind}): total differs"


@criterion(6, "hand-computed 3-bar ledger reproduced exactly")
def test_criterion_6_frozen_ledger():
    bars = (
        HourlyBar(timestamp=0, price=2000.0, volume=0.0, pool_liquidity=10000.0),
        HourlyBar(timestamp=3600, price=2000.0, volume=1e6, pool_liquidity=10000.0),
        HourlyBar(timestamp=7200, price=2100.0, volume=1e6, pool_liquidity=10000.0),
    )
    result = run_backtest(BacktestConfig(strategy=fixed_config(0.10), fee_rate=0.003), bars)
    assert result.fees == 0.14414647965484426
    assert result.value == 1.0184477789138426
    assert result.total == 1.1691184016618488


@criterion(7, "stable constant-price month: 500-point sweep under 60 s, minimum wins")
def test_criterion_7_stable_sweep_sanity():
    bars = make_bars([1.0] * 720, volumes=[0.0] + [1e6] * 719, liquidity=1e7)
    series = BarSeries(pair=pair_for_class("stable"), fee_rate=0.003, bars=bars)
    grid = build_grid(GridSpec(pair_class="stable", kind="fixed"))
    assert len(grid) == 500

    started = time.perf_counter()
    results = run_sweep(grid, series, jobs=1)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"

    summary = rank_results(results, compute_baselines(series), pair_class="stable")
    assert summary.best_total[0].a == 0.001

    table = render_report(summary)
    assert "Best Fixed (total)" in table
    assert "a=0.1%" in table

    # At a constant price the trigger interval is never left, so the
    # resetting strategy must coincide with the fixed one in every metric.
    fixed_result = results[0][1]
    reset_result = run_backtest(
        BacktestConfig(strategy=reset_config(0.001, 0.001), fee_rate=series.fee_rate),
        bars,
        keep_trajectory=False,
    )
    assert reset_result.fees == fixed_result.fees
    assert reset_result.value == fixed_result.value
    assert reset_result.total == fixed_result.total


@criterion(8, "daily returns match hand arithmetic to 1e-12")
def test_criterion_8_daily_returns():
    one_day = make_bars([1.0, 1.0, 1.0], volumes=[4e5, 4e5, 2e5], tvls=[1e8, 1e8, 1e8])
    series = BarSeries(pair=pair_for_class("stable"), fee_rate=0.003, bars=one_day)
    points = daily_fee_returns(series)
    assert len(points) == 1
    assert within(points[0].lp_return, 3.0e-5, 1e-12)

    day1 = 1600041600  # 2020-09-14 00:00:00 UTC
    two_days = (
        HourlyBar(timestamp=day1, price=1.0, volume=1e5, pool_liquidity=1e4, tvl=6e7),
        HourlyBar(timestamp=day1 + 3600, price=1.0, volume=2e5, pool_liquidity=1e4, tvl=5e7),
        HourlyBar(timestamp=day1 + 86400, price=1.0, volume=3e5, pool_liquidity=1e4, tvl=4e7),
    )
    series = BarSeries(pair=pair_for_class("stable"), fee_rate=0.003, bars=two_days)
    points = daily_fee_returns(series)
    assert within(points[0].lp_return, 1.8e-5, 1e-12)
    assert within(points[1].lp_return, 2.25e-5, 1e-12)
    average = average_daily_return(points, points[0].date, points[1].date)
    assert within(average, (1.8e-5 + 2.25e-5) / 2.0, 1e-12)


@criterion(9, "row-accurate CSV rejection and lossless round-trip")
def test_criterion_9_data_validation(tmp_path):
    pair = pair_for_class("volatile")

    negative_volume = csv_text(
        [
            (1600000000, 2000.0, 1e6, 1e4, ""),
            (1600003600, 2010.0, -1, 1e4, ""),
        ]
    )
    with pytest.raises(DataError, match="row 2"):
        load_bars(io.StringIO(negative_volume), pair, 0.003)

    unsorted = csv_text(
        [
            (1600003600, 2000.0, 1e6, 1e4, ""),
            (1600000000, 2010.0, 1e6, 1e4, ""),
        ]
    )
    with pytest.raises(DataError, match="row 2"):
        load_bars(io.StringIO(unsorted), pair, 0.003)

    missing_column = "timestamp,volume,pool_liquidity,tvl\n1600000000,1.0,2.0,\n"
    with pytest.raises(DataError, match="missing column"):
        load_bars(io.StringIO(missing_column), pair, 0.003)

    bars = make_bars(
        prices=[2000.123456789012, 1999.0000000001, 17.0],
        volumes=[1e6, 0.0, 7.000000000000001e-07],
        liquidity=[1e4, 9.87654321e3, 1.0],
        tvls=[5e7, None, 0.3],
    )
    series = BarSeries(pair=pair, fee_rate=0.003, bars=bars)
    path = tmp_path / "round.csv"
    save_bars(series, path)
    assert load_bars(path, pair, 0.003).bars == series.bars


@criterion(10, "grid cardinalities 166 / 500 / 2500 with the documented members")
def test_criterion_10_grid_cardinalities():
    volatile_fixed = build_grid(GridSpec(pair_class="volatile", kind="fixed"))
    assert len(volatile_fixed) == 166
    assert volatile_fixed[-1].a == 0.996

    stable_fixed = build_grid(GridSpec(pair_class="stable", kind="fixed"))
    assert len(stable_fixed) == 500

    stable_reset = build_grid(GridSpec(pair_class="stable", kind="reset"))
    assert len(stable_reset) == 2500
    assert reset_config(0.002, 0.004) in stable_reset
