"""Closed-form position math against precomputed high-precision values.

Expected constants were computed with a 50-digit arbitrary-precision oracle
before the implementation existed and are frozen here.
"""

import hashlib
import math
import random
import struct

import pytest

from clbacktest import PriceRange, liquidity_from_equal_value, tick_price
from clbacktest.clmath import (
    MAX_TICK,
    TICK_BASE,
    check_range,
    geometry_of,
    liquidity_for_value,
    nearest_spaced_tick,
    one_sided_liquidity,
    symmetric_bounds,
)
from helpers import mark_position

# Oracle values, 50-digit precision, rounded to 12 significant digits.
LIQ_NARROW = 240.244132758  # deposit 1000 at 2000 into the 10% range
LIQ_WIDE = 128.319282895  # same deposit into the 20% range
NARROW_X_AT_1900 = 0.389556282054
NARROW_Y_AT_1900 = 227.954723859
NARROW_VALUE_AT_1900 = 968.111659761
WIDE_VALUE_AT_1900 = 971.320797226


# sha256 pins of the tick helpers, captured once and never regenerated.
# tick_price is libm's pow and nearest_spaced_tick uses libm's log, neither
# of which libm must round correctly; on a libm that rounds them another way
# these fail, and the snapped outputs may differ there too.
TICK_PRICES_SHA256 = "14f0c7937eef0ecfb649f4a5c009e79a9f0586f88aa1c1222fdcf7dade84167c"
MIDPOINT_TICKS_SHA256 = {
    1: "fc677b6f81313acd1dcbd299a6fcb2755bc6d80023da337ac761383c79317f7e",
    10: "81baa005dbc7cce2d9fdd732e9bb335016b5a80818ceb948e156aad5af7bdb04",
    60: "280602691bb5f3238aba7604c1f3f7920d68859665451a34fdedefe42230fed4",
}


def _midpoint_prices(spacing: int):
    """Seeded prices at and within 3 ulps of the geometric midpoint of two
    neighbouring multiples of ``spacing``, each with the lower tick."""
    rng = random.Random(spacing)
    bound = MAX_TICK // spacing
    for _ in range(400):
        low = rng.randrange(-bound, bound) * spacing
        mid = math.sqrt(tick_price(low) * tick_price(low + spacing))
        for ulps in range(-3, 4):
            yield low, mid + ulps * math.ulp(mid)


class TestTicks:
    def test_index_at_one(self):
        assert nearest_spaced_tick(1.0, 1) == 0

    def test_index_on_exact_tick(self):
        assert nearest_spaced_tick(1.0001**10, 1) == 10

    def test_index_between_ticks(self):
        assert nearest_spaced_tick(0.99985, 1) == -2

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
                nearest_spaced_tick(bad, 1)

    def test_round_trip(self):
        for i in (-50000, -601, -60, -1, 0, 1, 59, 60, 61, 887, 50000):
            assert nearest_spaced_tick(tick_price(i), 1) == i

    def test_bracketing(self):
        # The nearest tick lies within half a tick of the price in log space.
        for p in (0.37, 1.0, 1.23456, 1999.77, 123456.0):
            i = nearest_spaced_tick(p, 1)
            assert abs(math.log(p / tick_price(i))) <= 0.5 * math.log(TICK_BASE) * (1 + 1e-9)

    def test_nearest_spaced_tick(self):
        assert nearest_spaced_tick(1.0, 60) == 0
        assert nearest_spaced_tick(tick_price(120), 60) == 120
        assert nearest_spaced_tick(tick_price(89), 60) == 60
        assert nearest_spaced_tick(tick_price(91), 60) == 120
        assert nearest_spaced_tick(2000.0, 60) % 60 == 0

    def test_snap_price_is_fixed_point(self):
        tick = nearest_spaced_tick(2000.0, 60)
        assert nearest_spaced_tick(tick_price(tick), 60) == tick

    def test_tick_prices_are_pinned(self):
        indices = range(-887270, 887271, 10)
        packed = struct.pack(f"<{len(indices)}d", *map(tick_price, indices))
        assert hashlib.sha256(packed).hexdigest() == TICK_PRICES_SHA256

    @pytest.mark.parametrize("spacing", MIDPOINT_TICKS_SHA256)
    def test_nearest_spaced_tick_is_pinned_at_midpoints(self, spacing):
        ticks, above = [], 0
        for low, price in _midpoint_prices(spacing):
            tick = nearest_spaced_tick(price, spacing)
            assert tick in (low, low + spacing)
            ticks.append(tick)
            above += tick > low
        assert 0 < above < len(ticks)
        packed = struct.pack(f"<{len(ticks)}q", *ticks)
        assert hashlib.sha256(packed).hexdigest() == MIDPOINT_TICKS_SHA256[spacing]


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


class TestSymmetricRange:
    def test_narrow_example(self):
        lower, upper = symmetric_bounds(2000.0, 0.10)
        assert lower == 2000.0 / 1.1
        assert upper == 2200.0
        assert lower == pytest.approx(1818.1818181818, rel=1e-12)

    def test_wide_example(self):
        lower, upper = symmetric_bounds(2000.0, 0.20)
        assert lower == pytest.approx(1666.6666666667, rel=1e-12)
        assert upper == 2400.0

    def test_unit_price_bounds_multiply_to_one(self):
        for a in (0.01, 0.1, 1.0, 9.0):
            lower, upper = symmetric_bounds(1.0, a)
            assert lower * upper == pytest.approx(1.0, rel=1e-12)

    def test_geometric_midpoint(self):
        lower, upper = symmetric_bounds(137.5, 0.34)
        assert math.sqrt(lower * upper) == pytest.approx(137.5, rel=1e-12)

    def test_rejects_bad_width(self):
        # A deposit checks its bounds; a width that is not positive fails there.
        with pytest.raises(ValueError):
            check_range(*symmetric_bounds(2000.0, 0.0))
        with pytest.raises(ValueError):
            check_range(*symmetric_bounds(2000.0, -0.1))


class TestRealReserves:
    """The reserves ``(x, y)`` that :func:`mark` gives a lone position."""

    def test_in_range_example(self):
        _, _, x, y = mark_position(240.3, *symmetric_bounds(2000.0, 0.10), 1900.0)
        assert x == pytest.approx(0.389646870884, rel=1e-9)
        assert y == pytest.approx(228.007733278, rel=1e-9)

    def test_lower_boundary_has_no_quote(self):
        _, _, x, y = mark_position(100.0, 1500.0, 2200.0, 1500.0)
        assert y == 0.0
        assert x > 0.0

    def test_upper_boundary_has_no_base(self):
        _, _, x, y = mark_position(100.0, 1500.0, 2200.0, 2200.0)
        assert x == 0.0
        assert y > 0.0

    def test_clamps_below_range(self):
        at_boundary = mark_position(100.0, 1500.0, 2200.0, 1500.0)[2:]
        far_below = mark_position(100.0, 1500.0, 2200.0, 900.0)[2:]
        assert far_below == at_boundary

    def test_clamps_above_range(self):
        at_boundary = mark_position(100.0, 1500.0, 2200.0, 2200.0)[2:]
        far_above = mark_position(100.0, 1500.0, 2200.0, 5000.0)[2:]
        assert far_above == at_boundary

    def test_linear_in_liquidity(self):
        _, _, single_x, single_y = mark_position(10.0, 1500.0, 2200.0, 1800.0)
        _, _, triple_x, triple_y = mark_position(30.0, 1500.0, 2200.0, 1800.0)
        assert triple_x == pytest.approx(3.0 * single_x, rel=1e-12)
        assert triple_y == pytest.approx(3.0 * single_y, rel=1e-12)


class TestPositionValue:
    """The value that :func:`mark` gives a lone position."""

    def test_wide_position_after_drop(self):
        value = mark_position(128.3, *symmetric_bounds(2000.0, 0.20), 1900.0)[1]
        assert value == pytest.approx(971.174834155, rel=1e-9)

    def test_narrow_position_after_rise(self):
        value = mark_position(240.3, *symmetric_bounds(2000.0, 0.10), 2100.0)[1]
        assert value == pytest.approx(1018.68461245, rel=1e-9)

    def test_zero_liquidity(self):
        assert mark_position(0.0, 1.0, 4.0, 2.0)[1] == 0.0

    def test_continuity_at_boundaries(self):
        bounds = symmetric_bounds(42.0, 0.3)
        for bound in bounds:
            eps = 1e-9 * bound
            mid = mark_position(7.0, *bounds, bound)[1]
            below = mark_position(7.0, *bounds, bound - eps)[1]
            above = mark_position(7.0, *bounds, bound + eps)[1]
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
        value = mark_position(liquidity, *symmetric_bounds(321.0, 0.37), 321.0)[1]
        assert value == pytest.approx(750.0, rel=1e-9)

    def test_split_is_equal_value(self):
        liquidity = liquidity_from_equal_value(321.0, 0.37, 750.0)
        _, _, x, y = mark_position(liquidity, *symmetric_bounds(321.0, 0.37), 321.0)
        assert x * 321.0 == pytest.approx(375.0, rel=1e-9)
        assert y == pytest.approx(375.0, rel=1e-9)

    def test_position_values_after_drop(self):
        narrow = liquidity_from_equal_value(2000.0, 0.10, 1000.0)
        wide = liquidity_from_equal_value(2000.0, 0.20, 1000.0)
        _, narrow_value, x, y = mark_position(narrow, *symmetric_bounds(2000.0, 0.10), 1900.0)
        wide_value = mark_position(wide, *symmetric_bounds(2000.0, 0.20), 1900.0)[1]
        assert narrow_value == pytest.approx(NARROW_VALUE_AT_1900, rel=1e-9)
        assert wide_value == pytest.approx(WIDE_VALUE_AT_1900, rel=1e-9)
        assert x == pytest.approx(NARROW_X_AT_1900, rel=1e-9)
        assert y == pytest.approx(NARROW_Y_AT_1900, rel=1e-9)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            liquidity_from_equal_value(2000.0, -0.1, 1000.0)


class TestLiquidityForValue:
    def test_inverts_position_value(self):
        liquidity = liquidity_for_value(1700.0, 2300.0, 1950.0, 640.0)
        value = mark_position(liquidity, 1700.0, 2300.0, 1950.0)[1]
        assert value == pytest.approx(640.0, rel=1e-12)

    def test_works_off_center(self):
        liquidity = liquidity_for_value(2100.0, 2300.0, 1900.0, 640.0)
        value = mark_position(liquidity, 2100.0, 2300.0, 1900.0)[1]
        assert value == pytest.approx(640.0, rel=1e-12)

    def test_checks_the_range(self):
        with pytest.raises(ValueError, match=r"upper must exceed lower, got \[2.0, 1.0\]"):
            liquidity_for_value(2.0, 1.0, 1.5, 640.0)


class TestLiquidityOneSided:
    """:func:`one_sided_liquidity` mints quote tokens below the price and
    base tokens above it."""

    BELOW = geometry_of(2100.0 / 1.1, 2100.0)
    ABOVE = geometry_of(2100.0, 2100.0 * 1.1)

    def test_quote_only_deposit(self):
        below, above = one_sided_liquidity(0.0, 765.324995478, self.BELOW, self.ABOVE)
        assert below == pytest.approx(358.86742118, rel=1e-9)
        assert above == 0.0

    def test_base_only_deposit(self):
        below, above = one_sided_liquidity(0.120534658779, 0.0, self.BELOW, self.ABOVE)
        assert below == 0.0
        assert above == pytest.approx(118.691433143, rel=1e-9)

    def test_round_trip_recovers_deposit(self):
        liquidity = one_sided_liquidity(0.0, 765.06, self.BELOW, self.ABOVE)[0]
        _, _, x, y = mark_position(liquidity, 2100.0 / 1.1, 2100.0, 2100.0)
        assert y == pytest.approx(765.06, rel=1e-9)
        assert x == pytest.approx(0.0, abs=1e-15)

    def test_zero_deposit(self):
        geometry = geometry_of(1.0, 2.0)
        assert one_sided_liquidity(0.0, 0.0, geometry, geometry) == (0.0, 0.0)
