"""Strategy lifecycle: initialization, reset transitions, valuation."""

import math

import pytest

from clbacktest import (
    StrategyConfig,
    UsageError,
    active_liquidity,
    fixed_config,
    initialize,
    mark_to_market,
    nolp_config,
    on_close,
    passive_config,
    reset_config,
    scale_liquidity,
)
from clbacktest.clmath import nearest_spaced_tick, tick_price
from clbacktest.strategies import MIN_WIDTH


def on_spaced_tick(bound, spacing=60):
    return tick_price(nearest_spaced_tick(bound, spacing)) == bound


def test_config_validation():
    with pytest.raises(UsageError):
        StrategyConfig(kind="martingale")
    with pytest.raises(UsageError):
        fixed_config(a=-0.1)
    with pytest.raises(UsageError):
        fixed_config(a=0.0)
    with pytest.raises(UsageError):
        reset_config(a=0.1, r=0.0)
    with pytest.raises(UsageError):
        StrategyConfig(kind="nolp", a=0.1)
    with pytest.raises(UsageError):
        StrategyConfig(kind="fixed", a=0.1, r=0.05)
    with pytest.raises(UsageError):
        StrategyConfig(kind="fixed", a=0.1, snap_spacing=0)


def test_width_floor():
    assert fixed_config(MIN_WIDTH).a == MIN_WIDTH
    for below_floor in (MIN_WIDTH / 2.0, 3e-16, 1e-300):
        with pytest.raises(UsageError, match="at least"):
            fixed_config(below_floor)
        with pytest.raises(UsageError, match="at least"):
            reset_config(0.1, below_floor)
    # At the floor the closed-form deposit and the reset still hold value.
    state = initialize(reset_config(MIN_WIDTH, MIN_WIDTH), 2000.0, 1000.0)
    assert mark_to_market(state, 2000.0) == pytest.approx(1000.0, rel=1e-6)
    after = on_close(state, 2001.0)
    assert mark_to_market(after, 2001.0) == pytest.approx(mark_to_market(state, 2001.0), rel=1e-9)


def test_config_labels():
    assert fixed_config(0.10).label() == "fixed(a=10.0%)"
    assert reset_config(0.006, 0.05).label() == "reset(a=0.6%, r=5.0%)"
    assert nolp_config().label() == "nolp"


def test_initialize_nolp():
    state = initialize(nolp_config(), 2000.0, 1000.0)
    # No ranges; the tail holds no full-range liquidity and the loose tokens.
    assert state.ranges == ()
    assert state.ledger == (0.0, 0.25, 500.0)
    assert mark_to_market(state, 1900.0) == 975.0


def test_nolp_value_is_linear_in_price():
    p0, budget = 1234.0, 10.0
    state = initialize(nolp_config(), p0, budget)
    for p in (0.1, 617.0, 1234.0, 2468.0, 99999.0):
        expected = budget * (0.5 + p / (2.0 * p0))
        assert mark_to_market(state, p) == pytest.approx(expected, rel=1e-12)


def test_initialize_passive():
    p0, budget = 2000.0, 1000.0
    state = initialize(passive_config(), p0, budget)
    full_range_liquidity = state.ledger[0]
    assert full_range_liquidity == pytest.approx(budget / (2.0 * math.sqrt(p0)), rel=1e-12)
    assert mark_to_market(state, p0) == pytest.approx(budget, rel=1e-12)
    for p in (1.0, 1500.0, 4000.0):
        assert active_liquidity(state, p) == full_range_liquidity


def test_initialize_fixed():
    state = initialize(fixed_config(0.10), 2000.0, 1000.0)
    assert len(state.ranges) == len(state.ledger) == 1
    assert state.ledger[0] == pytest.approx(240.244132758, rel=1e-9)
    assert state.ranges[0][:2] == (2000.0 / 1.1, 2200.0)
    assert state.reset_range is None
    assert mark_to_market(state, 2000.0) == pytest.approx(1000.0, rel=1e-9)


def test_initialize_reset_records_trigger_interval():
    state = initialize(reset_config(0.10, 0.05), 2000.0, 1000.0)
    fixed_state = initialize(fixed_config(0.10), 2000.0, 1000.0)
    assert (state.ranges, state.ledger) == (fixed_state.ranges, fixed_state.ledger)
    assert state.reset_range is not None
    assert state.reset_range.lower == pytest.approx(1904.7619047619, rel=1e-9)
    assert state.reset_range.upper == pytest.approx(2100.0, rel=1e-12)


def test_initialize_zero_budget():
    state = initialize(fixed_config(0.10), 2000.0, 0.0)
    assert state.ledger == (0.0,)
    assert mark_to_market(state, 2000.0) == 0.0


def test_initialize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        initialize(fixed_config(0.10), -1.0, 1000.0)
    with pytest.raises(ValueError):
        initialize(fixed_config(0.10), 2000.0, -5.0)


@pytest.mark.parametrize("config", (nolp_config(), passive_config(), reset_config(0.1, 0.05)))
@pytest.mark.parametrize(
    "price, budget, message",
    [
        (-1.0, 1.0, "price must be finite and > 0, got -1.0"),
        (0.0, 1.0, "price must be finite and > 0, got 0.0"),
        (math.nan, 1.0, "price must be finite and > 0, got nan"),
        (math.inf, 1.0, "price must be finite and > 0, got inf"),
        (2000.0, -5.0, "budget must be finite and >= 0, got -5.0"),
        (2000.0, math.nan, "budget must be finite and >= 0, got nan"),
        (2000.0, math.inf, "budget must be finite and >= 0, got inf"),
    ],
)
def test_initialize_names_a_bad_price_or_budget(config, price, budget, message):
    with pytest.raises(ValueError) as caught:
        initialize(config, price, budget)
    assert str(caught.value) == message


class TestOnClose:
    def test_fixed_never_adjusts(self):
        state = initialize(fixed_config(0.10), 2000.0, 1000.0)
        for p in (1.0, 1818.0, 2500.0):
            assert on_close(state, p) is state

    def test_nolp_and_passive_never_adjust(self):
        for config in (nolp_config(), passive_config()):
            state = initialize(config, 2000.0, 1000.0)
            assert on_close(state, 123.0) is state

    def test_inside_trigger_interval_is_a_no_op(self):
        state = initialize(reset_config(0.10, 0.05), 2000.0, 1000.0)
        assert on_close(state, 2050.0) is state
        assert on_close(state, 1905.0) is state

    def test_boundary_contact_triggers(self):
        # After a climb to the trigger interval's upper bound, the position
        # splits into a quote-only side below 2100 and a base-only side above.
        state = initialize(reset_config(0.10, 0.05), 2000.0, 1000.0)
        reset = on_close(state, 2100.0)
        assert reset is not state
        below, above = reset.ledger
        assert below == pytest.approx(358.86742118, rel=1e-9)
        assert above == pytest.approx(118.691433143, rel=1e-9)
        (below_lower, below_upper), (above_lower, above_upper) = (r[:2] for r in reset.ranges)
        assert below_upper == 2100.0
        assert above_lower == 2100.0
        assert below_lower == pytest.approx(1909.0909090909, rel=1e-9)
        assert above_upper == pytest.approx(2310.0, rel=1e-12)
        assert reset.reset_range.lower == pytest.approx(2000.0, rel=1e-9)
        assert reset.reset_range.upper == pytest.approx(2205.0, rel=1e-9)

    def test_reset_conserves_value(self):
        state = initialize(reset_config(0.10, 0.05), 2000.0, 1000.0)
        before = mark_to_market(state, 2100.0)
        after = mark_to_market(on_close(state, 2100.0), 2100.0)
        assert after == pytest.approx(before, rel=1e-12)

    def test_reset_is_idempotent(self):
        state = initialize(reset_config(0.10, 0.05), 2000.0, 1000.0)
        once = on_close(state, 2100.0)
        assert on_close(once, 2100.0) is once

    def test_downward_reset(self):
        state = initialize(reset_config(0.10, 0.05), 2000.0, 1000.0)
        reset = on_close(state, 1900.0)
        below, above = reset.ranges
        assert below[1] == 1900.0
        assert above[0] == 1900.0
        assert mark_to_market(reset, 1900.0) == pytest.approx(
            mark_to_market(state, 1900.0), rel=1e-12
        )

    def test_jump_past_whole_range_leaves_one_empty_side(self):
        # The old range tops out at 2200; at 2500 the position is all quote
        # token, so the new base-only side must carry zero liquidity.
        state = initialize(reset_config(0.10, 0.05), 2000.0, 1000.0)
        reset = on_close(state, 2500.0)
        below, above = reset.ledger
        assert above == 0.0
        assert below > 0.0
        assert mark_to_market(reset, 2500.0) == pytest.approx(
            mark_to_market(state, 2500.0), rel=1e-12
        )

    def test_consecutive_resets(self):
        state = initialize(reset_config(0.10, 0.05), 2000.0, 1000.0)
        state = on_close(state, 2100.0)
        state = on_close(state, 2205.0)
        below, above = state.ranges
        assert below[1] == 2205.0
        assert state.reset_range.upper == pytest.approx(2205.0 * 1.05, rel=1e-12)


class TestActiveLiquidity:
    def test_fixed_in_range(self):
        state = initialize(fixed_config(0.10), 2000.0, 1000.0)
        (liquidity,) = state.ledger
        assert active_liquidity(state, 1900.0) == liquidity
        assert active_liquidity(state, 2000.0 / 1.1) == liquidity
        assert active_liquidity(state, 2200.0) == liquidity

    def test_fixed_out_of_range(self):
        state = initialize(fixed_config(0.10), 2000.0, 1000.0)
        assert active_liquidity(state, 2300.0) == 0.0
        assert active_liquidity(state, 1500.0) == 0.0

    def test_nolp_earns_nothing(self):
        state = initialize(nolp_config(), 2000.0, 1000.0)
        assert active_liquidity(state, 2000.0) == 0.0

    def test_shared_reset_boundary_counts_once(self):
        state = on_close(initialize(reset_config(0.10, 0.05), 2000.0, 1000.0), 2100.0)
        below, above = state.ledger
        # Exactly at the shared boundary only the lower side earns.
        assert active_liquidity(state, 2100.0) == below
        assert active_liquidity(state, 2099.0) == below
        assert active_liquidity(state, 2101.0) == above


def test_scale_liquidity():
    state = initialize(fixed_config(0.10), 2000.0, 1000.0)
    doubled = scale_liquidity(state, 2.0)
    assert doubled.ledger == (2.0 * state.ledger[0],)
    assert mark_to_market(doubled, 1900.0) == pytest.approx(
        2.0 * mark_to_market(state, 1900.0), rel=1e-12
    )
    nolp = initialize(nolp_config(), 2000.0, 1000.0)
    assert scale_liquidity(nolp, 3.0).ledger == (0.0, 0.75, 1500.0)
    with pytest.raises(ValueError):
        scale_liquidity(state, -1.0)


def test_scale_liquidity_overflow_raises():
    for config in (fixed_config(0.10), nolp_config(), passive_config()):
        state = initialize(config, 2000.0, 1000.0)
        with pytest.raises(ValueError):
            scale_liquidity(state, 1e308)


class TestSnappedRanges:
    def test_snapped_fixed_bounds_sit_on_spaced_ticks(self):
        state = initialize(fixed_config(0.10, snap_spacing=60), 2000.0, 1000.0)
        lower, upper = state.ranges[0][:2]
        assert on_spaced_tick(lower)
        assert on_spaced_tick(upper)
        assert lower < 2000.0 < upper

    def test_snapped_deposit_is_still_worth_the_budget(self):
        state = initialize(fixed_config(0.10, snap_spacing=60), 2000.0, 1000.0)
        assert mark_to_market(state, 2000.0) == pytest.approx(1000.0, rel=1e-12)

    def test_snapped_reset_keeps_inner_boundary_at_trigger_price(self):
        state = initialize(reset_config(0.10, 0.05, snap_spacing=60), 2000.0, 1000.0)
        reset = on_close(state, 2100.0)
        below, above = reset.ranges
        assert below[1] == 2100.0
        assert above[0] == 2100.0
        assert on_spaced_tick(below[0])
        assert on_spaced_tick(above[1])
        assert mark_to_market(reset, 2100.0) == pytest.approx(
            mark_to_market(state, 2100.0), rel=1e-12
        )

    def test_narrow_snapped_range_still_straddles_price(self):
        # A 0.1% half-width is narrower than one 60-tick step; snapping must
        # widen outward rather than collapse the range. Just above (below)
        # tick 6000 the upper (lower) bound snaps back to 6000 first.
        for price in (2000.0, tick_price(6000) * 1.0001, tick_price(6000) * 0.9999):
            state = initialize(fixed_config(0.001, snap_spacing=60), price, 1000.0)
            lower, upper = state.ranges[0][:2]
            assert lower < price < upper
            assert on_spaced_tick(lower)
            assert on_spaced_tick(upper)
