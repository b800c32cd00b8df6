"""Differential gate for run sharing on mixed grids.

Runs over one bar tuple share work through the engine's series memo: fire
schedules keyed by r, prefix snapshots keyed by width and results keyed by
width and schedule (the ``engine`` docstring's memo, schedule and prefix
rules). Here Hypothesis draws a short series and a grid of 1-30 configs of
every kind, whose widths, triggers, tick spacings and budgets collide, and
runs the grid in a random order on one tuple, with and without a
trajectory, and through ``run_sweep`` on one and two processes. Every
result must equal, bit for bit, a cold run of its config on a tuple no run
has seen, and the float oracle of the acceptance suite, which shares no code
with the engine: a fault that moves shared and cold runs alike, say in the
fire schedule itself, still differs from the oracle. A config that fails
must raise the same error class and message as its cold run, and a sweep
the error of its first failing config in grid order.
"""

import math

from hypothesis import given, settings, strategies as st

from clbacktest import (
    BacktestConfig,
    BarSeries,
    fixed_config,
    nolp_config,
    pair_for_class,
    passive_config,
    reset_config,
    run_backtest,
    run_sweep,
)
from clbacktest.clmath import symmetric_bounds
from helpers import make_bars
from test_acceptance import _oracle_metrics

# a and r come from one small set, so widths, triggers and schedules collide.
WIDTHS = (0.001, 0.002, 0.01, 0.05)
SPACINGS = (None, 1, 10, 60)
BUDGETS = (1.0, 2.5)
FEE_RATES = (0.0005, 0.003)
# Closes far enough up that a snapped bound leaves the tick range, or a
# reset's bound or trigger overflows a float: those configs fail.
EXTREME_PRICES = (1e300, 1.7e308)


@st.composite
def strategies(draw):
    # Half of the configs reset, so that many share a width.
    kind = draw(st.sampled_from(("nolp", "passive", "fixed", "reset", "reset", "reset")))
    if kind == "nolp":
        return nolp_config()
    if kind == "passive":
        return passive_config()
    a = draw(st.sampled_from(WIDTHS))
    spacing = draw(st.sampled_from(SPACINGS))
    if kind == "fixed":
        return fixed_config(a, spacing)
    return reset_config(a, draw(st.sampled_from(WIDTHS)), spacing)


@st.composite
def prices(draw):
    """2-40 closes. Each later close is the previous one times a factor, the
    previous one again, a bound of ``symmetric_bounds`` around an earlier
    close for a width of the set (a range or trigger bound of every config
    that deployed or last reset there), the spaced tick nearest the
    previous close (a snapped range bound), or, rarely, an extreme price."""
    closes = [draw(st.floats(0.5, 5000.0))]
    for _ in range(draw(st.integers(1, 39))):
        pick = draw(st.integers(0, 63))
        last = closes[-1]
        if pick < 32:
            # Moves within the narrowest trigger as often as beyond it.
            move = 0.03 if pick < 16 else 0.0005
            close = min(last * draw(st.floats(1.0 - move, 1.0 + move)), 1.7e308)
        elif pick < 40:
            close = last
        elif pick < 56:
            anchor = closes[draw(st.integers(0, len(closes) - 1))]
            close = symmetric_bounds(anchor, draw(st.sampled_from(WIDTHS)))[pick % 2]
        elif pick < 62:
            spacing = draw(st.sampled_from(SPACINGS[1:]))
            step = math.log(1.0001) * spacing
            close = 1.0001 ** (spacing * round(math.log(last) / step))
        else:
            close = EXTREME_PRICES[pick % 2]
        closes.append(close)
    return closes


def _bits(result):
    """A result's three metrics, with every bit (the sign of zero included)."""
    return tuple(metric.hex() for metric in result[:3])


def _outcome(call):
    """``call()``, or the class and message of the error it raises."""
    try:
        return call()
    except Exception as error:  # every failure is compared, whatever its class
        return type(error), str(error)


def _failed(outcome):
    return isinstance(outcome[0], type)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_shared_runs_equal_cold_runs_and_the_oracle(data):
    closes = data.draw(prices())
    count = len(closes)
    volumes = [0.0] + data.draw(
        st.lists(st.floats(0.0, 1e6), min_size=count - 1, max_size=count - 1)
    )
    bars = make_bars(closes, volumes=volumes, liquidity=data.draw(st.floats(1e2, 1e7)))
    raw = [tuple(bar[:4]) for bar in bars]
    fee_rate = data.draw(st.sampled_from(FEE_RATES))
    size = data.draw(st.integers(1, 30))
    point = st.tuples(strategies(), st.sampled_from(BUDGETS))
    points = data.draw(st.lists(point, min_size=size, max_size=size))

    def run(point, bars, keep_trajectory=False):
        strategy, budget = point
        config = BacktestConfig(strategy, fee_rate, budget)
        return lambda: _bits(run_backtest(config, bars, keep_trajectory))

    # Each point at budget 1.0 too, as the sweep runs it.
    cold = {}
    for point in points + [(strategy, 1.0) for strategy, _ in points]:
        if point not in cold:
            cold[point] = _outcome(run(point, tuple(list(bars))))
            if not _failed(cold[point]):
                strategy, budget = point
                expected = _oracle_metrics(
                    strategy.kind, strategy.a, strategy.r, raw, fee_rate, budget,
                    strategy.snap_spacing,
                )
                assert cold[point] == tuple(map(float.hex, expected)), point

    # Every point with and without a trajectory, in a random order, on one tuple.
    runs = [(point, keep) for point in points for keep in (False, True)]
    for point, keep in data.draw(st.permutations(runs)):
        assert _outcome(run(point, bars, keep)) == cold[point], (point, keep)

    grid = [strategy for strategy, _ in points]
    series = BarSeries(pair=pair_for_class("volatile"), fee_rate=fee_rate, bars=bars)
    expected = [cold[(strategy, 1.0)] for strategy in grid]
    failures = [outcome for outcome in expected if _failed(outcome)]
    for jobs in (1, 2):
        outcome = _outcome(lambda: [_bits(result) for _, result in run_sweep(grid, series, jobs)])
        assert outcome == (failures[0] if failures else expected), jobs
