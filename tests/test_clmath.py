"""Closed-form position math against precomputed high-precision values.

Expected constants were computed with a 50-digit arbitrary-precision oracle
before the implementation existed and are frozen here.
"""

import math

import pytest

from clbacktest import (
    PriceRange,
    TokenAmounts,
    liquidity_from_equal_value,
    liquidity_one_sided,
    position_value,
    real_reserves,
    symmetric_range,
    tick_index,
    tick_price,
)
from clbacktest.clmath import (
    MAX_TICK,
    liquidity_for_value,
    nearest_spaced_tick,
    snap_price,
)

# Oracle values, 50-digit precision, rounded to 12 significant digits.
LIQ_NARROW = 240.244132758  # deposit 1000 at 2000 into the 10% range
LIQ_WIDE = 128.319282895  # same deposit into the 20% range
NARROW_X_AT_1900 = 0.389556282054
NARROW_Y_AT_1900 = 227.954723859
NARROW_VALUE_AT_1900 = 968.111659761
WIDE_VALUE_AT_1900 = 971.320797226


class TestTicks:
    def test_index_at_one(self):
        assert tick_index(1.0) == 0

    def test_index_on_exact_tick(self):
        assert tick_index(1.0001**10) == 10

    def test_index_between_ticks(self):
        assert tick_index(0.99985) == -2

    def test_price_at_zero(self):
        assert tick_price(0) == 1.0

    def test_price_values(self):
        assert tick_price(10) == pytest.approx(1.0010004501200210025, rel=1e-12)
        assert tick_price(-10) == pytest.approx(0.99900054978007147999, rel=1e-12)
        assert tick_price(10) * tick_price(-10) == pytest.approx(1.0, rel=1e-12)

    def test_price_bounds(self):
        tick_price(MAX_TICK)
        tick_price(-MAX_TICK)
        with pytest.raises(ValueError):
            tick_price(MAX_TICK + 1)
        with pytest.raises(ValueError):
            tick_price(-MAX_TICK - 1)

    def test_index_rejects_bad_price(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                tick_index(bad)

    def test_round_trip(self):
        for i in (-50000, -601, -60, -1, 0, 1, 59, 60, 61, 887, 50000):
            assert tick_index(tick_price(i)) == i

    def test_bracketing(self):
        for p in (0.37, 1.0, 1.23456, 1999.77, 123456.0):
            i = tick_index(p)
            assert tick_price(i) <= p < tick_price(i + 1)

    def test_nearest_spaced_tick(self):
        assert nearest_spaced_tick(1.0, 60) == 0
        assert nearest_spaced_tick(tick_price(120), 60) == 120
        assert nearest_spaced_tick(tick_price(89), 60) == 60
        assert nearest_spaced_tick(tick_price(91), 60) == 120
        assert nearest_spaced_tick(2000.0, 60) % 60 == 0

    def test_snap_price_is_fixed_point(self):
        snapped = snap_price(2000.0, 60)
        assert snap_price(snapped, 60) == snapped


class TestPriceRange:
    def test_validation(self):
        with pytest.raises(ValueError):
            PriceRange(0.0, 1.0)
        with pytest.raises(ValueError):
            PriceRange(2.0, 1.0)
        with pytest.raises(ValueError):
            PriceRange(1.0, 1.0)
        with pytest.raises(ValueError):
            PriceRange(1.0, math.inf)

    def test_contains_is_boundary_inclusive(self):
        rng = PriceRange(1.0, 2.0)
        assert rng.contains(1.0)
        assert rng.contains(2.0)
        assert not rng.contains(0.999999)


class TestTokenAmounts:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TokenAmounts(x=-1.0, y=0.0)
        with pytest.raises(ValueError):
            TokenAmounts(x=0.0, y=-0.5)


class TestSymmetricRange:
    def test_narrow_example(self):
        rng = symmetric_range(2000.0, 0.10)
        assert rng.lower == 2000.0 / 1.1
        assert rng.upper == 2200.0
        assert rng.lower == pytest.approx(1818.1818181818, rel=1e-12)

    def test_wide_example(self):
        rng = symmetric_range(2000.0, 0.20)
        assert rng.lower == pytest.approx(1666.6666666667, rel=1e-12)
        assert rng.upper == 2400.0

    def test_unit_price_bounds_multiply_to_one(self):
        for a in (0.01, 0.1, 1.0, 9.0):
            rng = symmetric_range(1.0, a)
            assert rng.lower * rng.upper == pytest.approx(1.0, rel=1e-12)

    def test_geometric_midpoint(self):
        rng = symmetric_range(137.5, 0.34)
        assert math.sqrt(rng.lower * rng.upper) == pytest.approx(137.5, rel=1e-12)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            symmetric_range(2000.0, 0.0)
        with pytest.raises(ValueError):
            symmetric_range(2000.0, -0.1)


class TestRealReserves:
    def test_in_range_example(self):
        rng = symmetric_range(2000.0, 0.10)
        amounts = real_reserves(240.3, rng, 1900.0)
        assert amounts.x == pytest.approx(0.389646870884, rel=1e-9)
        assert amounts.y == pytest.approx(228.007733278, rel=1e-9)

    def test_lower_boundary_has_no_quote(self):
        rng = PriceRange(1500.0, 2200.0)
        amounts = real_reserves(100.0, rng, 1500.0)
        assert amounts.y == 0.0
        assert amounts.x > 0.0

    def test_upper_boundary_has_no_base(self):
        rng = PriceRange(1500.0, 2200.0)
        amounts = real_reserves(100.0, rng, 2200.0)
        assert amounts.x == 0.0
        assert amounts.y > 0.0

    def test_clamps_below_range(self):
        rng = PriceRange(1500.0, 2200.0)
        at_boundary = real_reserves(100.0, rng, 1500.0)
        far_below = real_reserves(100.0, rng, 900.0)
        assert far_below == at_boundary

    def test_clamps_above_range(self):
        rng = PriceRange(1500.0, 2200.0)
        at_boundary = real_reserves(100.0, rng, 2200.0)
        far_above = real_reserves(100.0, rng, 5000.0)
        assert far_above == at_boundary

    def test_linear_in_liquidity(self):
        rng = PriceRange(1500.0, 2200.0)
        single = real_reserves(10.0, rng, 1800.0)
        triple = real_reserves(30.0, rng, 1800.0)
        assert triple.x == pytest.approx(3.0 * single.x, rel=1e-12)
        assert triple.y == pytest.approx(3.0 * single.y, rel=1e-12)

    def test_rejects_negative_liquidity(self):
        with pytest.raises(ValueError):
            real_reserves(-1.0, PriceRange(1.0, 2.0), 1.5)


class TestPositionValue:
    def test_wide_position_after_drop(self):
        rng = symmetric_range(2000.0, 0.20)
        assert position_value(128.3, rng, 1900.0) == pytest.approx(971.174834155, rel=1e-9)

    def test_narrow_position_after_rise(self):
        rng = symmetric_range(2000.0, 0.10)
        assert position_value(240.3, rng, 2100.0) == pytest.approx(1018.68461245, rel=1e-9)

    def test_zero_liquidity(self):
        assert position_value(0.0, PriceRange(1.0, 4.0), 2.0) == 0.0

    def test_continuity_at_boundaries(self):
        rng = symmetric_range(42.0, 0.3)
        for bound in (rng.lower, rng.upper):
            eps = 1e-9 * bound
            mid = position_value(7.0, rng, bound)
            below = position_value(7.0, rng, bound - eps)
            above = position_value(7.0, rng, bound + eps)
            assert below == pytest.approx(mid, rel=1e-6)
            assert above == pytest.approx(mid, rel=1e-6)


class TestLiquidityFromEqualValue:
    def test_narrow_deposit(self):
        assert liquidity_from_equal_value(2000.0, 0.10, 1000.0) == pytest.approx(
            LIQ_NARROW, rel=1e-9
        )

    def test_wide_deposit(self):
        assert liquidity_from_equal_value(2000.0, 0.20, 1000.0) == pytest.approx(
            LIQ_WIDE, rel=1e-9
        )

    def test_zero_budget(self):
        assert liquidity_from_equal_value(2000.0, 0.10, 0.0) == 0.0

    def test_deposit_is_worth_the_budget(self):
        liquidity = liquidity_from_equal_value(321.0, 0.37, 750.0)
        rng = symmetric_range(321.0, 0.37)
        assert position_value(liquidity, rng, 321.0) == pytest.approx(750.0, rel=1e-9)

    def test_split_is_equal_value(self):
        liquidity = liquidity_from_equal_value(321.0, 0.37, 750.0)
        rng = symmetric_range(321.0, 0.37)
        amounts = real_reserves(liquidity, rng, 321.0)
        assert amounts.x * 321.0 == pytest.approx(375.0, rel=1e-9)
        assert amounts.y == pytest.approx(375.0, rel=1e-9)

    def test_position_values_after_drop(self):
        narrow = liquidity_from_equal_value(2000.0, 0.10, 1000.0)
        wide = liquidity_from_equal_value(2000.0, 0.20, 1000.0)
        narrow_value = position_value(narrow, symmetric_range(2000.0, 0.10), 1900.0)
        wide_value = position_value(wide, symmetric_range(2000.0, 0.20), 1900.0)
        assert narrow_value == pytest.approx(NARROW_VALUE_AT_1900, rel=1e-9)
        assert wide_value == pytest.approx(WIDE_VALUE_AT_1900, rel=1e-9)
        amounts = real_reserves(narrow, symmetric_range(2000.0, 0.10), 1900.0)
        assert amounts.x == pytest.approx(NARROW_X_AT_1900, rel=1e-9)
        assert amounts.y == pytest.approx(NARROW_Y_AT_1900, rel=1e-9)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            liquidity_from_equal_value(2000.0, -0.1, 1000.0)


class TestLiquidityForValue:
    def test_inverts_position_value(self):
        rng = PriceRange(1700.0, 2300.0)
        liquidity = liquidity_for_value(rng, 1950.0, 640.0)
        assert position_value(liquidity, rng, 1950.0) == pytest.approx(640.0, rel=1e-12)

    def test_works_off_center(self):
        rng = PriceRange(2100.0, 2300.0)
        liquidity = liquidity_for_value(rng, 1900.0, 640.0)
        assert position_value(liquidity, rng, 1900.0) == pytest.approx(640.0, rel=1e-12)


class TestLiquidityOneSided:
    def test_quote_only_deposit(self):
        rng = PriceRange(2100.0 / 1.1, 2100.0)
        liquidity = liquidity_one_sided(rng, TokenAmounts(y=765.324995478), 2100.0)
        assert liquidity == pytest.approx(358.86742118, rel=1e-9)

    def test_base_only_deposit(self):
        rng = PriceRange(2100.0, 2100.0 * 1.1)
        liquidity = liquidity_one_sided(rng, TokenAmounts(x=0.120534658779), 2100.0)
        assert liquidity == pytest.approx(118.691433143, rel=1e-9)

    def test_round_trip_recovers_deposit(self):
        rng = PriceRange(2100.0 / 1.1, 2100.0)
        deposit = TokenAmounts(y=765.06)
        liquidity = liquidity_one_sided(rng, deposit, 2100.0)
        recovered = real_reserves(liquidity, rng, 2100.0)
        assert recovered.y == pytest.approx(deposit.y, rel=1e-9)
        assert recovered.x == pytest.approx(0.0, abs=1e-15)

    def test_zero_deposit(self):
        rng = PriceRange(1.0, 2.0)
        assert liquidity_one_sided(rng, TokenAmounts(), 2.0) == 0.0

    def test_rejects_two_sided_deposit(self):
        rng = PriceRange(1.0, 2.0)
        with pytest.raises(ValueError):
            liquidity_one_sided(rng, TokenAmounts(x=1.0, y=1.0), 2.0)

    def test_rejects_range_on_wrong_side(self):
        above = PriceRange(3.0, 4.0)
        below = PriceRange(1.0, 2.0)
        with pytest.raises(ValueError):
            liquidity_one_sided(above, TokenAmounts(y=5.0), 2.5)
        with pytest.raises(ValueError):
            liquidity_one_sided(below, TokenAmounts(x=5.0), 2.5)
