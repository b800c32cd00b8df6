"""Accuracy gate: the kernel's metrics against an exact model of the ledger.

The other gates check that the float code agrees with itself: the digests
pin what the engine once computed, and the float oracle of the acceptance
suite checks that the kernel computes the float ledger it means to. This
gate checks that the numbers are close to the ledger's exact values.

The model is written from the position formulas (Uniswap v3 whitepaper,
Adams et al. 2021, §6.2-6.3) and the method in the ``engine`` docstring, in
``decimal`` arithmetic at 60 significant digits. It shares no code with the
engine: of ``clbacktest`` it uses only the value types it reads, a
``StrategyConfig`` and ``HourlyBar``s, and ``tick_price``, so that a
snapped range lies on the kernel's ticks. Each bar's float inputs convert to
``Decimal`` exactly, so the model and the kernel differ only by the
kernel's rounding, and on a close within a few ulps of a computed bound by
the branch each takes; the golden series close on no such bound. A snapped
bound is the spaced tick nearest the exact bound in log space, moved out by
whole spacings until the price lies strictly inside, as in Uniswap v3's
tick grid (whitepaper §6.1). The model picks that tick by exact comparisons
with the kernel's tick prices, so its choice differs from the kernel's only
when a bound lies within rounding of the geometric mean of two ticks, which
no bar of these series brings about. The model
also checks that each of its resets conserves value, and the test that the
kernel's fees are not negative.

The kernel rounds each operation to 2**-53 relative. A range's value is a
difference of square roots, ``sqrt(p) - sqrt(lower)``, whose relative error
grows as 1/w for a range or trigger of half-width w, and the ledger carries
its errors from bar to bar. So each metric's relative error is bounded by
``ERROR_CONSTANT * n * 2**-53 / w`` over n bars, where w is the smallest
width the strategy has (a for Fixed, the smaller of a and r for Reset, 1 for
nolp and passive). A snapped bound lies within half a spacing inside the
plain one, or further out; the snapped cases' a spans at least three
spacings, so their ranges are at least five sixths as wide as w says.
"""

from __future__ import annotations

import decimal
import functools
import math

import pytest

from clbacktest import (
    BacktestConfig,
    HourlyBar,
    StrategyConfig,
    fixed_config,
    nolp_config,
    passive_config,
    reset_config,
    run_backtest,
)
from clbacktest.clmath import tick_price
from helpers import bars_from_rows, seeded_series

D = decimal.Decimal
PRECISION = 60
COUNT = 2400
FEE_RATES = {"volatile": 0.003, "reset_heavy": 0.003, "stable_depeg": 0.0005}
CASES = (
    nolp_config(),
    passive_config(),
    fixed_config(0.05),
    fixed_config(0.006),
    reset_config(0.10, 0.05),
    reset_config(0.01, 0.005),
    reset_config(0.001, 0.0005),
)
# Snapped ranges, at a tick spacing of 60 (0.6%), 10 and 1.
SNAPPED_CASES = (
    ("volatile", fixed_config(0.05, 60)),
    ("volatile", reset_config(0.02, 0.01, 60)),
    ("reset_heavy", reset_config(0.10, 0.05, 60)),
    ("stable_depeg", fixed_config(0.006, 10)),
    ("stable_depeg", reset_config(0.003, 0.0015, 10)),
    ("stable_depeg", reset_config(0.002, 0.001, 1)),
)
# Measured on these cases, the largest error relative to n * 2**-53 / w is
# 0.023 (passive's total on stable_depeg, 6.1e-15), and the narrowest
# reset's is 0.021 (its total on reset_heavy, 1.1e-11); of the snapped
# cases', it is 0.0038 (the volatile reset's value, 1.0e-13). So a constant
# of 1 leaves about 40x of room.
ERROR_CONSTANT = 1
# A reset redeposits at 60 digits; its value may move by this much, relative.
CONSERVATION = D("1e-50")


def _reserves(liquidity, position, price, sqrt_price):
    """``(x, y)`` held by ``liquidity`` on ``position`` at ``price``."""
    lower, upper, sqrt_lower, sqrt_upper = position
    if price < lower:
        return liquidity * (1 / sqrt_lower - 1 / sqrt_upper), D(0)
    if price > upper:
        return D(0), liquidity * (sqrt_upper - sqrt_lower)
    return liquidity * (1 / sqrt_price - 1 / sqrt_upper), liquidity * (sqrt_price - sqrt_lower)


def _position(lower, upper):
    return lower, upper, lower.sqrt(), upper.sqrt()


def _nearest_tick(bound, spacing):
    """The multiple of ``spacing`` whose tick is nearest ``bound`` in log
    space: of the two spaced ticks around it, the upper one when ``bound``
    is at least their geometric mean. A float logarithm only guesses where
    to start looking."""
    tick = math.floor(math.log(bound) / math.log(1.0001) / spacing) * spacing
    while D(tick_price(tick)) > bound:
        tick -= spacing
    while D(tick_price(tick + spacing)) <= bound:
        tick += spacing
    if bound * bound >= D(tick_price(tick)) * D(tick_price(tick + spacing)):
        tick += spacing
    return tick


def _bounds(price, width, spacing):
    """The bounds ``price / width`` and ``price * width``; with a tick
    ``spacing``, each snapped to the spaced tick nearest it, then moved out
    by whole spacings until ``price`` lies strictly inside."""
    bounds = [price / width, price * width]
    if spacing is None:
        return bounds
    ticks = [_nearest_tick(bound, spacing) for bound in bounds]
    while D(tick_price(ticks[0])) >= price:
        ticks[0] -= spacing
    while D(tick_price(ticks[1])) <= price:
        ticks[1] += spacing
    return [D(tick_price(tick)) for tick in ticks]


class _Ledger:
    """One ledger: a liquidity per position, full-range liquidity and loose
    tokens ``(x, y)``."""

    def __init__(self, liquidity, full=D(0), hold=(D(0), D(0))):
        self.liquidity, self.full, self.hold = liquidity, full, hold

    def value(self, positions, price, sqrt_price):
        total = self.hold[0] * price + self.hold[1] + 2 * self.full * sqrt_price
        for liquidity, position in zip(self.liquidity, positions):
            x, y = _reserves(liquidity, position, price, sqrt_price)
            total += y + x * price
        return total

    def active(self, positions, price):
        # A position is active inside its closed range; a shared bound at the
        # price counts for the lower position only.
        total = self.full
        for liquidity, (lower, upper, _, _) in zip(self.liquidity, positions):
            shared = price == lower and any(other[1] == price for other in positions)
            if lower <= price <= upper and not shared:
                total += liquidity
        return total


def exact_metrics(strategy: StrategyConfig, bars: tuple[HourlyBar, ...], fee_rate: float):
    """``(fees, value, total, resets)`` of a run at a budget of 1, in exact
    arithmetic to 60 digits: the fee sum of the plain ledger, its value at
    the last close, and the compounding ledger's value plus fee there."""
    with decimal.localcontext() as context:
        context.prec = PRECISION
        fee_rate = D(fee_rate)
        price = D(bars[0].price)
        sqrt_price = price.sqrt()
        positions, liquidity, full, hold, trigger = [], [], D(0), (D(0), D(0)), None
        if strategy.kind == "nolp":
            hold = (D(1) / (2 * price), D(1) / 2)
        elif strategy.kind == "passive":
            full = D(1) / (2 * sqrt_price)
        else:
            width = 1 + D(strategy.a)
            spacing = strategy.snap_spacing
            positions = [_position(*_bounds(price, width, spacing))]
            # The liquidity whose position is worth the budget of 1 at entry.
            liquidity = [1 / _Ledger([D(1)]).value(positions, price, sqrt_price)]
            if strategy.kind == "reset":
                reach = 1 + D(strategy.r)
                trigger = (price / reach, price * reach)
        plain = _Ledger(liquidity, full, hold)
        comp = _Ledger(list(liquidity), full, hold)
        fees = D(0)
        value = total = plain.value(positions, price, sqrt_price)
        resets = 0
        for bar in bars[1:]:
            price = D(bar.price)
            sqrt_price = price.sqrt()
            pot = D(bar.volume) * fee_rate / D(bar.pool_liquidity)
            fees += pot * plain.active(positions, price)
            value = plain.value(positions, price, sqrt_price)
            fee = pot * comp.active(positions, price)
            marked = comp.value(positions, price, sqrt_price)
            total = marked + fee
            if fee > 0 and marked > 0:
                factor = total / marked
                comp.liquidity = [amount * factor for amount in comp.liquidity]
                comp.full *= factor
            if trigger is not None and not trigger[0] < price < trigger[1]:
                resets += 1
                lower, upper = _bounds(price, width, spacing)
                below = _position(lower, price)
                above = _position(price, upper)
                for ledger in (plain, comp):
                    before = ledger.value(positions, price, sqrt_price)
                    x = y = D(0)
                    for amount, position in zip(ledger.liquidity, positions):
                        dx, dy = _reserves(amount, position, price, sqrt_price)
                        x += dx
                        y += dy
                    # Quote tokens below the price, base tokens above it.
                    ledger.liquidity = [
                        y / (sqrt_price - below[2]),
                        x / (1 / sqrt_price - 1 / above[3]),
                    ]
                    after = ledger.value([below, above], price, sqrt_price)
                    assert abs(after - before) <= CONSERVATION * before, (bar, before, after)
                positions = [below, above]
                trigger = (price / reach, price * reach)
        return fees, value, total, resets


@functools.lru_cache(maxsize=None)
def _bars(shape: str) -> tuple[HourlyBar, ...]:
    return bars_from_rows(seeded_series(shape, count=COUNT))


def _smallest_width(strategy: StrategyConfig) -> float:
    return min(width for width in (strategy.a, strategy.r, 1.0) if width is not None)


def _label(strategy):
    label = strategy.label()
    return label if strategy.snap_spacing is None else f"{label}@{strategy.snap_spacing}"


@pytest.mark.parametrize(
    "shape, strategy",
    [(shape, strategy) for shape in FEE_RATES for strategy in CASES] + list(SNAPPED_CASES),
    ids=lambda value: _label(value) if isinstance(value, StrategyConfig) else value,
)
def test_the_kernel_is_within_its_error_bound_of_the_exact_ledger(shape, strategy):
    fee_rate = FEE_RATES[shape]
    bars = _bars(shape)
    result = run_backtest(BacktestConfig(strategy, fee_rate), bars, keep_trajectory=False)
    *exact, resets = exact_metrics(strategy, bars, fee_rate)
    bound = ERROR_CONSTANT * COUNT * 2.0**-53 / _smallest_width(strategy)
    assert result.fees >= 0.0
    assert (resets > 0) == (strategy.kind == "reset")
    for name, got, want in zip(("fees", "value", "total"), result[:3], exact):
        error = float(abs(D(got) - want) / want) if want else abs(got)
        assert error <= bound, (name, got, want, error, bound)
