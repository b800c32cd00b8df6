"""Invariant checks over randomized inputs."""

import math

from hypothesis import assume, given, strategies as st

from clbacktest import (
    BacktestConfig,
    active_liquidity,
    fixed_config,
    initialize,
    liquidity_from_equal_value,
    mark_to_market,
    nolp_config,
    on_close,
    passive_config,
    reset_config,
    run_backtest,
    tick_price,
)
from clbacktest.clmath import nearest_spaced_tick, symmetric_bounds
from helpers import make_bars, mark_position

prices = st.floats(min_value=1e-3, max_value=1e5, allow_nan=False, allow_infinity=False)
widths = st.floats(min_value=1e-4, max_value=5.0, allow_nan=False, allow_infinity=False)
budgets = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False)
liquidities = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
price_factors = st.floats(min_value=0.2, max_value=5.0, allow_nan=False, allow_infinity=False)


@given(liquidity=liquidities, center=prices, a=widths)
def test_position_value_is_continuous_at_range_bounds(liquidity, center, a):
    bounds = symmetric_bounds(center, a)
    for bound in bounds:
        eps = 1e-9 * bound
        assume(bound - eps > 0.0)
        at = mark_position(liquidity, *bounds, bound)[1]
        below = mark_position(liquidity, *bounds, bound - eps)[1]
        above = mark_position(liquidity, *bounds, bound + eps)[1]
        scale = max(abs(at), 1e-30)
        assert abs(below - at) <= 1e-6 * scale
        assert abs(above - at) <= 1e-6 * scale


@given(liquidity=liquidities, center=prices, a=widths)
def test_reserves_move_monotonically_with_price(liquidity, center, a):
    lower, upper = symmetric_bounds(center, a)
    grid = [lower * (1.0 - 0.5 * t) + upper * (0.5 * t) for t in range(5)]
    grid = sorted(p for p in grid if p > 0)
    previous = None
    for p in grid:
        x, y = mark_position(liquidity, lower, upper, p)[2:]
        if previous is not None:
            previous_x, previous_y = previous
            slack = 1e-12 * max(previous_x, x, previous_y, y)
            assert x <= previous_x + slack
            assert y >= previous_y - slack
        previous = x, y


@given(p=prices, a=widths, budget=budgets)
def test_equal_value_deposit_splits_evenly(p, a, budget):
    liquidity = liquidity_from_equal_value(p, a, budget)
    _, _, x, y = mark_position(liquidity, *symmetric_bounds(p, a), p)
    half = budget / 2.0
    assert abs(x * p - half) <= 1e-9 * budget
    assert abs(y - half) <= 1e-9 * budget


@given(p=prices, budget=budgets)
def test_narrow_wide_liquidity_ratio_is_price_independent(p, budget):
    ratio = liquidity_from_equal_value(p, 0.10, budget) / liquidity_from_equal_value(
        p, 0.20, budget
    )
    closed_form = (1.0 - 1.2**-0.5) / (1.0 - 1.1**-0.5)
    assert abs(ratio - closed_form) <= 1e-9 * closed_form


@given(p0=prices, a=widths, budget=budgets, factor=price_factors)
def test_providing_liquidity_never_beats_holding(p0, a, budget, factor):
    p = p0 * factor
    hold = mark_to_market(initialize(nolp_config(), p0, budget), p)
    for config in (fixed_config(a), passive_config()):
        provided = mark_to_market(initialize(config, p0, budget), p)
        assert provided <= hold + 1e-9 * budget


@given(p0=prices, a=widths, r=widths, budget=budgets, jump=price_factors)
def test_resets_conserve_value(p0, a, r, budget, jump):
    state = initialize(reset_config(a, r), p0, budget)
    trigger = p0 * (1.0 + r) * jump if jump >= 1.0 else p0 / (1.0 + r) * jump
    assume(trigger > 0.0)
    before = mark_to_market(state, trigger)
    after_state = on_close(state, trigger)
    assert after_state is not state
    after = mark_to_market(after_state, trigger)
    assert abs(after - before) <= 1e-9 * max(before, 1e-30)
    assert on_close(after_state, trigger) is after_state


@given(p0=prices, budget=budgets, factor=price_factors)
def test_nolp_value_law(p0, budget, factor):
    p = p0 * factor
    state = initialize(nolp_config(), p0, budget)
    expected = budget * (0.5 + p / (2.0 * p0))
    assert math.isclose(mark_to_market(state, p), expected, rel_tol=1e-12)


@given(liquidity=liquidities, center=prices, a=widths, factor=price_factors, k=st.integers(1, 64))
def test_reserves_scale_linearly_in_liquidity(liquidity, center, a, factor, k):
    bounds = symmetric_bounds(center, a)
    p = center * factor
    _, _, single_x, single_y = mark_position(liquidity, *bounds, p)
    _, _, scaled_x, scaled_y = mark_position(k * liquidity, *bounds, p)
    assert math.isclose(scaled_x, k * single_x, rel_tol=1e-12, abs_tol=1e-300)
    assert math.isclose(scaled_y, k * single_y, rel_tol=1e-12, abs_tol=1e-300)


@given(p=prices, a=widths, budget=budgets, k=st.integers(1, 64))
def test_equal_value_liquidity_scales_with_budget(p, a, budget, k):
    single = liquidity_from_equal_value(p, a, budget)
    scaled = liquidity_from_equal_value(p, a, k * budget)
    assert math.isclose(scaled, k * single, rel_tol=1e-12)


@given(i=st.integers(min_value=-887272, max_value=887272))
def test_tick_round_trip(i):
    assert nearest_spaced_tick(tick_price(i), 1) == i


@given(p0=prices, factor=st.floats(min_value=0.5, max_value=2.0), bump=st.floats(min_value=0.0, max_value=9.0))
def test_very_wide_fixed_behaves_like_passive(p0, factor, bump):
    budget = 100.0
    a = 1e6 * (1.0 + bump)
    p = p0 * factor
    wide = mark_to_market(initialize(fixed_config(a), p0, budget), p)
    passive = mark_to_market(initialize(passive_config(), p0, budget), p)
    assert abs(wide - passive) <= 1e-3 * passive


@given(
    a=st.floats(min_value=0.01, max_value=1.0),
    moves=st.lists(st.floats(min_value=-0.2, max_value=0.2), min_size=1, max_size=5),
    # Subnormal volumes would break the exactness claim below (their rounding
    # grid is absolute, not relative), so stay in the normal range.
    volumes=st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1e7)),
        min_size=1,
        max_size=5,
    ),
)
def test_doubling_the_budget_doubles_fee_income_exactly(a, moves, volumes):
    count = 1 + min(len(moves), len(volumes))
    price = 2000.0
    path = [price]
    for move in moves[: count - 1]:
        price = price * (1.0 + move)
        path.append(price)
    bars = make_bars(path, volumes=[0.0] + volumes[: count - 1], liquidity=1e5)
    small = run_backtest(BacktestConfig(strategy=fixed_config(a), fee_rate=0.003, initial_value=1.0), bars)
    large = run_backtest(BacktestConfig(strategy=fixed_config(a), fee_rate=0.003, initial_value=2.0), bars)
    # Power-of-two budget scaling is exact in floating point, so per-unit
    # metrics must not move by even one ulp.
    assert large.fees == small.fees
    assert large.value == small.value
    assert large.total == small.total


@given(volumes=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=6))
def test_constant_price_compounding_dominates_simple_sum(volumes):
    bars = make_bars([1000.0] * (len(volumes) + 1), volumes=[0.0] + volumes, liquidity=1e5)
    result = run_backtest(BacktestConfig(strategy=fixed_config(0.05), fee_rate=0.003), bars)
    assert result.total + 1e-12 >= result.value + result.fees
    if sum(v > 0 for v in volumes) <= 1:
        assert math.isclose(result.total, result.value + result.fees, rel_tol=1e-12)


@given(
    p0=prices,
    a=widths,
    factor=st.floats(min_value=0.01, max_value=100.0),
    budget=budgets,
)
def test_active_liquidity_is_all_or_nothing_for_fixed(p0, a, factor, budget):
    state = initialize(fixed_config(a), p0, budget)
    p = p0 * factor
    lower, upper = state.ranges[0][:2]
    active = active_liquidity(state, p)
    if lower <= p <= upper:
        assert active == state.ledger[0]
    else:
        assert active == 0.0


@given(center=prices, a=widths)
def test_symmetric_range_midpoint(center, a):
    lower, upper = symmetric_bounds(center, a)
    assert math.isclose(math.sqrt(lower * upper), center, rel_tol=1e-12)


@given(
    lower=st.floats(min_value=1e-3, max_value=1e4),
    spread=st.floats(min_value=1e-3, max_value=10.0),
    liquidity=liquidities,
)
def test_out_of_range_values_are_linear_or_flat(lower, spread, liquidity):
    upper = lower * (1.0 + spread)
    below_x = mark_position(liquidity, lower, upper, lower)[2]
    # Below the range the position is all base token, so value is linear in p.
    p_low = lower * 0.5
    assert math.isclose(
        mark_position(liquidity, lower, upper, p_low)[1], below_x * p_low, rel_tol=1e-12
    )
    # Above the range it is all quote token, so value is flat.
    above_near = mark_position(liquidity, lower, upper, upper * 1.5)[1]
    above_far = mark_position(liquidity, lower, upper, upper * 3.0)[1]
    assert above_near == above_far
