"""Backtest loop semantics: fee accrual, the two ledgers, the three metrics.

The 3-bar expectations below are a spreadsheet-style ledger computed by hand
before the engine was written; the engine must reproduce them bit-for-bit.
"""

import math
import pickle
import random

import pytest

from clbacktest import engine
from clbacktest.strategies import deploy
from clbacktest import (
    BacktestConfig,
    DataError,
    HourlyBar,
    TrajectoryPoint,
    UsageError,
    accrue_fees,
    fixed_config,
    initialize,
    nolp_config,
    on_close,
    passive_config,
    reset_config,
    run_backtest,
)
from helpers import bars_from_rows, make_bars, seeded_series, series_memo

# Fixed(a=0.10), fee rate 0.003, budget 1, bars (p, V, L_t):
# (2000, 0, 10000), (2000, 1e6, 10000), (2100, 1e6, 10000).
THREE_BARS = (
    HourlyBar(timestamp=0, price=2000.0, volume=0.0, pool_liquidity=10000.0),
    HourlyBar(timestamp=3600, price=2000.0, volume=1e6, pool_liquidity=10000.0),
    HourlyBar(timestamp=7200, price=2100.0, volume=1e6, pool_liquidity=10000.0),
)
LEDGER_FEES = 0.14414647965484426
LEDGER_VALUE = 1.0184477789138426
LEDGER_TOTAL = 1.1691184016618488
LEDGER_BAR2_FEE = 0.07207323982742213


def test_three_bar_ledger_is_exact():
    config = BacktestConfig(strategy=fixed_config(0.10), fee_rate=0.003)
    result = run_backtest(config, THREE_BARS)
    assert result.fees == LEDGER_FEES
    assert result.value == LEDGER_VALUE
    assert result.total == LEDGER_TOTAL


def test_three_bar_trajectory_rows():
    config = BacktestConfig(strategy=fixed_config(0.10), fee_rate=0.003)
    result = run_backtest(config, THREE_BARS)
    assert len(result.trajectory) == 3
    assert all(type(point) is TrajectoryPoint for point in result.trajectory)
    first, second, third = result.trajectory
    assert first.timestamp == 0
    assert first.fee == 0.0
    assert first.value == pytest.approx(1.0, rel=1e-12)
    assert first.total == first.value
    assert second.fee == LEDGER_BAR2_FEE
    assert second.value == pytest.approx(1.0, rel=1e-12)
    assert third.fee == LEDGER_BAR2_FEE
    assert third.value == LEDGER_VALUE
    assert third.total == LEDGER_TOTAL


def test_accrue_fees_formula():
    config = passive_config()
    state = initialize(config, 2000.0, 2.0 * 1.0 * (2000.0**0.5))  # L = 1
    assert state.ledger[0] == pytest.approx(1.0, rel=1e-12)
    bar = HourlyBar(timestamp=0, price=2000.0, volume=10000.0, pool_liquidity=1000.0)
    assert accrue_fees(state, bar, 0.003) == pytest.approx(0.03, rel=1e-12)


def test_accrue_fees_full_pool_share():
    state = initialize(passive_config(), 2000.0, 2.0 * 1000.0 * (2000.0**0.5))
    bar = HourlyBar(timestamp=0, price=2000.0, volume=5000.0, pool_liquidity=1000.0)
    assert accrue_fees(state, bar, 0.003) == pytest.approx(5000.0 * 0.003, rel=1e-12)


def test_accrue_fees_out_of_range():
    state = initialize(fixed_config(0.10), 2000.0, 1000.0)
    bar = HourlyBar(timestamp=0, price=2500.0, volume=1e6, pool_liquidity=1000.0)
    assert accrue_fees(state, bar, 0.003) == 0.0


def test_nolp_metrics_follow_the_hold_portfolio():
    bars = make_bars([2000.0, 2100.0, 1800.0, 2400.0], volumes=[0, 1e6, 1e6, 1e6])
    config = BacktestConfig(strategy=nolp_config(), fee_rate=0.003)
    result = run_backtest(config, bars)
    assert result.fees == 0.0
    expected = 0.5 + 2400.0 / (2.0 * 2000.0)
    assert result.value == pytest.approx(expected, rel=1e-12)
    assert result.total == pytest.approx(expected, rel=1e-12)


def test_passive_on_quiet_constant_prices():
    bars = make_bars([1500.0] * 5)
    config = BacktestConfig(strategy=passive_config(), fee_rate=0.003)
    result = run_backtest(config, bars)
    assert result.fees == 0.0
    assert result.value == pytest.approx(1.0, rel=1e-12)
    assert result.total == pytest.approx(1.0, rel=1e-12)


def test_no_volume_means_no_fees_for_every_strategy():
    bars = make_bars([2000.0, 2050.0, 1900.0, 2150.0])
    for strategy in (
        nolp_config(),
        passive_config(),
        fixed_config(0.10),
        reset_config(0.10, 0.05),
    ):
        result = run_backtest(BacktestConfig(strategy=strategy, fee_rate=0.003), bars)
        assert result.fees == 0.0
        assert result.total == result.value


EVERY_KIND = (
    nolp_config(),
    passive_config(),
    fixed_config(0.10),
    reset_config(0.10, 0.05),
    fixed_config(0.10, 60),
    reset_config(0.10, 0.05, 60),
)


@pytest.mark.parametrize("strategy", EVERY_KIND, ids=lambda s: f"{s.kind}-{s.snap_spacing}")
def test_single_bar_run(strategy):
    config = BacktestConfig(strategy=strategy, fee_rate=0.003)
    one = make_bars([2000.0])
    result = run_backtest(config, one)
    assert result.fees == 0.0
    assert result.value == pytest.approx(1.0, rel=1e-12)
    assert result.total == result.value
    assert len(result.trajectory) == 1
    assert result.trajectory[0][1:] == result[:3]
    # Whether or not the run keeps its trajectory, bar 1 is marked when its
    # value is the result, and the metrics of a longer run do not depend on it.
    two = make_bars([2000.0, 2100.0], volumes=[0.0, 1e6])
    for bars in (one, two):
        kept = run_backtest(config, bars)
        assert len(kept.trajectory) == len(bars)
        assert repr(run_backtest(config, bars, keep_trajectory=False)[:3]) == repr(kept[:3])


def test_fee_linearity_in_initial_value():
    bars = make_bars([2000.0, 2050.0, 2100.0], volumes=[0, 1e6, 2e6])
    small = run_backtest(
        BacktestConfig(strategy=fixed_config(0.10), fee_rate=0.003, initial_value=1.0), bars
    )
    large = run_backtest(
        BacktestConfig(strategy=fixed_config(0.10), fee_rate=0.003, initial_value=2.0), bars
    )
    # Absolute fee income doubles; the per-unit metrics do not move at all.
    assert large.fees * 2.0 == small.fees * 2.0
    assert large.fees == small.fees
    assert large.value == small.value
    assert large.total == small.total


def test_compounding_beats_simple_sum_at_constant_price():
    bars = make_bars([1000.0] * 6, volumes=[0, 1e5, 2e5, 0, 3e5, 1e5], liquidity=1e5)
    result = run_backtest(BacktestConfig(strategy=fixed_config(0.05), fee_rate=0.003), bars)
    assert result.value == pytest.approx(1.0, rel=1e-12)
    assert result.total > result.value + result.fees
    # With a single fee event there is nothing to compound on top of.
    one_fee = make_bars([1000.0] * 3, volumes=[0, 1e5, 0], liquidity=1e5)
    single = run_backtest(BacktestConfig(strategy=fixed_config(0.05), fee_rate=0.003), one_fee)
    assert single.total == pytest.approx(single.value + single.fees, rel=1e-12)


def test_reset_changes_later_fee_income():
    bars = make_bars([2000.0, 2000.0, 2100.0, 2150.0], volumes=[0, 1e6, 1e6, 1e6])
    fee = 0.003
    fixed = run_backtest(BacktestConfig(strategy=fixed_config(0.10), fee_rate=fee), bars)
    reset = run_backtest(BacktestConfig(strategy=reset_config(0.10, 0.05), fee_rate=fee), bars)
    # Identical until the reset at 2100. The reset re-deposits one-sided:
    # most value lands in the quote-only range below 2100, so on the next
    # climb only the thin base-only side earns and fee income drops.
    assert fixed.trajectory[1].fee == reset.trajectory[1].fee
    assert fixed.trajectory[2].fee == reset.trajectory[2].fee
    assert 0.0 < reset.trajectory[3].fee < fixed.trajectory[3].fee


def test_rejects_empty_and_unsorted_bars():
    with pytest.raises(UsageError):
        run_backtest(BacktestConfig(strategy=nolp_config(), fee_rate=0.003), ())
    shuffled = (
        HourlyBar(timestamp=3600, price=2000.0, volume=0.0, pool_liquidity=1e4),
        HourlyBar(timestamp=0, price=2000.0, volume=0.0, pool_liquidity=1e4),
    )
    with pytest.raises(DataError, match="bar 2"):
        run_backtest(BacktestConfig(strategy=nolp_config(), fee_rate=0.003), shuffled)
    bars = make_bars([2000.0] * 6)
    repeated = (*bars[:4], bars[4]._replace(timestamp=bars[3].timestamp), bars[5])
    with pytest.raises(DataError) as caught:
        run_backtest(BacktestConfig(strategy=nolp_config(), fee_rate=0.003), repeated)
    ts = bars[3].timestamp
    assert str(caught.value) == f"bar 5: timestamp {ts} does not increase over previous {ts}"


# Bar 3's fee is infinite, and so is the compounding factor.
FEE_OVERFLOW = make_bars(
    [2000.0, 2000.0, 2000.0], volumes=[0.0, 1e6, 1e308], liquidity=[1e4, 1e4, 1e-300]
)

# Bar 2's fee compounds a range of half-width 1e10 to about 7.5e304 of
# liquidity, which bar 3 marks above the range at more than a float holds;
# marked inside the range, at 1e9, it overflows too.
RANGE_MARK_OVERFLOW = make_bars(
    [1.0, 1.0, 1e15], volumes=[0.0, 1e305, 0.0], liquidity=[1e4, 1e-3, 1e4]
)
IN_RANGE_MARK_OVERFLOW = make_bars(
    [1.0, 1.0, 1e9], volumes=[0.0, 1e305, 0.0], liquidity=[1e4, 1e-3, 1e4]
)

# Below a range the value is less than at its lower bound, so it overflows
# only by rounding: bar 3 closes on the lower bound of a = 300%, 7917.016 /
# 4, with a fee that brings its total to one float below the largest, and
# bar 4, one float below that bound, rounds past it.
_LOWER = 7917.016 / 4.0
BELOW_RANGE_MARK_OVERFLOW = make_bars(
    [7917.016, 7917.016, _LOWER, math.nextafter(_LOWER, 0.0)],
    volumes=[0.0, 1e6, 1e300, 0.0],
    liquidity=[1.0, 1e-4, 6.323633841681785e-08, 1.0],
)


@pytest.mark.parametrize(
    "strategy, bars, message",
    [
        (
            passive_config(),
            FEE_OVERFLOW,
            "bar 3: compounding the fee inf into value 1.0033541019662497 overflows the ledger",
        ),
        (
            fixed_config(0.10),
            FEE_OVERFLOW,
            "bar 3: compounding the fee inf into value 1.0720732398274229 overflows the ledger",
        ),
        (
            reset_config(0.10, 0.05),
            FEE_OVERFLOW,
            "bar 3: compounding the fee inf into value 1.0720732398274229 overflows the ledger",
        ),
        # Bar 2's value of the loose tokens, or of the full-range deposit, is
        # infinite, with or without fees.
        (
            nolp_config(),
            make_bars([1e-300, 1e300]),
            "bar 2: marking the ledger at price 1e+300 overflows",
        ),
        (
            passive_config(),
            make_bars([5e-324, 1e308]),
            "bar 2: marking the ledger at price 1e+308 overflows",
        ),
        (
            passive_config(),
            make_bars([5e-324, 1e308], volumes=[0.0, 1e6]),
            "bar 2: marking the ledger at price 1e+308 overflows",
        ),
        # A range ledger's marked value is tested too; the reset's trigger
        # holds bar 3's close, so it does not fire there.
        (
            fixed_config(1e10),
            RANGE_MARK_OVERFLOW,
            "bar 3: marking the ledger at price 1000000000000000.0 overflows",
        ),
        (
            reset_config(1e10, 1e16),
            RANGE_MARK_OVERFLOW,
            "bar 3: marking the ledger at price 1000000000000000.0 overflows",
        ),
        # Inside the range, and for the reset before its first fire.
        (
            fixed_config(1e10),
            IN_RANGE_MARK_OVERFLOW,
            "bar 3: marking the ledger at price 1000000000.0 overflows",
        ),
        (
            reset_config(1e10, 1e16),
            IN_RANGE_MARK_OVERFLOW,
            "bar 3: marking the ledger at price 1000000000.0 overflows",
        ),
        (
            fixed_config(3.0),
            BELOW_RANGE_MARK_OVERFLOW,
            "bar 4: marking the ledger at price 1979.2539999999997 overflows",
        ),
        (
            reset_config(3.0, 1e16),
            BELOW_RANGE_MARK_OVERFLOW,
            "bar 4: marking the ledger at price 1979.2539999999997 overflows",
        ),
    ],
    ids=(
        "passive",
        "fixed",
        "reset",
        "nolp-marked",
        "passive-marked",
        "passive-marked-fee",
        "fixed-marked",
        "reset-marked",
        "fixed-marked-in-range",
        "reset-marked-in-range",
        "fixed-marked-below-range",
        "reset-marked-below-range",
    ),
)
def test_ledger_overflow_is_a_data_error_naming_the_bar(strategy, bars, message):
    for keep_trajectory in (False, True):
        with pytest.raises(DataError) as caught:
            run_backtest(BacktestConfig(strategy=strategy, fee_rate=0.003), bars, keep_trajectory)
        assert str(caught.value) == message


@pytest.mark.parametrize(
    "strategy, initial_value, prices, reason",
    [
        # The base tokens and their value are finite; their deposit in the
        # range above the price, about twice the deployed liquidity, is not.
        (
            reset_config(1e-9, 1e-9),
            1e299,
            [1.0, 0.99],
            "redepositing 1e+299 base and 0.0 quote overflows",
        ),
        (
            reset_config(1e-9, 1e-9),
            1e149,
            [1e-300, 1.01e-300],
            "redepositing 0.0 base and 1.0000001396196635e+149 quote overflows",
        ),
        (reset_config(0.10, 0.05), 1.0, [2000.0, 1.7e308], "upper must be finite, got inf"),
        # Snapped or not, a reset names the bound that overflows.
        (reset_config(1e10, 0.05), 1.0, [1.0, 1e300], "upper must be finite, got inf"),
        (reset_config(1e10, 0.05, 60), 1.0, [1.0, 1e300], "upper must be finite, got inf"),
        (
            reset_config(0.10, 0.05),
            1.0,
            [2000.0, 5e-324],
            "upper must exceed lower, got [5e-324, 5e-324]",
        ),
        (
            reset_config(0.10, 0.05, 60),
            1.0,
            [2000.0, 1e308],
            "tick index 887280 outside [-887272, 887272]",
        ),
        (
            reset_config(0.10, 0.05, 60),
            1.0,
            [2000.0, 1e-300],
            "tick index -887280 outside [-887272, 887272]",
        ),
        # The second reset closes one float below the spaced tick that its
        # range above the price snaps to: that range's bounds have equal
        # square roots, so the base tokens' deposit divides by zero.
        (
            reset_config(0.001, 0.001, 60),
            1.0,
            [1.0, 1.25, 1.2485575197227397],
            "float division by zero",
        ),
    ],
)
def test_reset_failure_names_the_bar_strategy_and_reason(strategy, initial_value, prices, reason):
    config = BacktestConfig(strategy=strategy, fee_rate=0.003, initial_value=initial_value)
    with pytest.raises(DataError) as caught:
        run_backtest(config, make_bars(prices))
    assert str(caught.value) == f"bar {len(prices)}: cannot reset {strategy.label()}: {reason}"


@pytest.mark.parametrize(
    "strategy, initial_value, price, reason",
    [
        (fixed_config(0.10), 1.0, 1.7e308, "upper must be finite, got inf"),
        (reset_config(0.10, 0.5), 1.0, 1.5e308, "upper must be finite, got inf"),
        (reset_config(1e-9, 1e-9), 1.0, 5e-324, "upper must exceed lower, got [5e-324, 5e-324]"),
        (nolp_config(), 1.0, 5e-324, "x must be finite and >= 0, got inf"),
        (passive_config(), 1e308, 1e-300, "liquidity must be finite and >= 0, got inf"),
        (fixed_config(0.10), 1e300, 1e-300, "liquidity must be finite and >= 0, got inf"),
        (fixed_config(0.10, 60), 1.0, 1e308, "tick index 887280 outside [-887272, 887272]"),
        (fixed_config(0.10, 60), 1.0, 1e-300, "tick index -887280 outside [-887272, 887272]"),
    ],
)
def test_deploy_failure_names_the_strategy_and_reason(strategy, initial_value, price, reason):
    config = BacktestConfig(strategy=strategy, fee_rate=0.003, initial_value=initial_value)
    with pytest.raises(DataError) as caught:
        run_backtest(config, make_bars([price, 1.0]))
    assert str(caught.value) == f"bar 1: cannot deploy {strategy.label()}: {reason}"


GOOD_BAR = {"timestamp": 0, "price": 1.0, "volume": 0.0, "pool_liquidity": 1.0, "tvl": None}

BAR_BUILDERS = {
    "new": lambda fields: HourlyBar(**fields),
    "make": lambda fields: HourlyBar._make(fields.values()),
    "replace": lambda fields: HourlyBar(**GOOD_BAR)._replace(**fields),
}

BAD_BAR_FIELDS = [
    ("price", -1.0, "price must be finite and > 0, got -1.0"),
    ("price", 0.0, "price must be finite and > 0, got 0.0"),
    ("price", math.nan, "price must be finite and > 0, got nan"),
    ("price", math.inf, "price must be finite and > 0, got inf"),
    ("volume", -1.0, "volume must be finite and >= 0, got -1.0"),
    ("volume", math.nan, "volume must be finite and >= 0, got nan"),
    ("volume", math.inf, "volume must be finite and >= 0, got inf"),
    ("pool_liquidity", -1.0, "pool_liquidity must be finite and > 0, got -1.0"),
    ("pool_liquidity", 0.0, "pool_liquidity must be finite and > 0, got 0.0"),
    ("pool_liquidity", math.nan, "pool_liquidity must be finite and > 0, got nan"),
    ("pool_liquidity", math.inf, "pool_liquidity must be finite and > 0, got inf"),
    ("tvl", -2.0, "tvl must be finite and >= 0, got -2.0"),
    ("tvl", math.nan, "tvl must be finite and >= 0, got nan"),
    ("tvl", math.inf, "tvl must be finite and >= 0, got inf"),
    ("timestamp", 0.5, "timestamp must be an integer, got 0.5"),
    ("timestamp", True, "timestamp must be an integer, got True"),
]


@pytest.mark.parametrize("build", BAR_BUILDERS)
@pytest.mark.parametrize(
    "field, value, message",
    BAD_BAR_FIELDS,
    ids=[f"{field}={value!r}" for field, value, _ in BAD_BAR_FIELDS],
)
def test_bar_validation(build, field, value, message):
    with pytest.raises(DataError) as caught:
        BAR_BUILDERS[build]({**GOOD_BAR, field: value})
    assert str(caught.value) == message


@pytest.mark.parametrize("tvl", [None, 0.0, 5e7])
def test_bar_is_an_immutable_tuple_that_unpickles_unchecked(tvl, monkeypatch):
    bar = HourlyBar(timestamp=3600, price=2000.0, volume=1e6, pool_liquidity=1e4, tvl=tvl)
    assert bar == (3600, 2000.0, 1e6, 1e4, tvl)
    assert hash(bar) == hash((3600, 2000.0, 1e6, 1e4, tvl))
    with pytest.raises(AttributeError):
        bar.price = 1.0
    with pytest.raises(AttributeError):
        bar.extra = 1.0
    pickled = [pickle.dumps(bar, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]

    def checked_constructor_called(*args, **kwargs):
        raise AssertionError("unpickling checked the bar again")

    monkeypatch.setattr(HourlyBar, "__new__", checked_constructor_called)
    for data in pickled:
        restored = pickle.loads(data)
        assert type(restored) is HourlyBar
        assert restored == bar


def test_config_validation():
    with pytest.raises(UsageError):
        BacktestConfig(strategy=nolp_config(), fee_rate=1.5)
    with pytest.raises(UsageError):
        BacktestConfig(strategy=nolp_config(), fee_rate=-0.1)
    with pytest.raises(UsageError):
        BacktestConfig(strategy=nolp_config(), fee_rate=0.003, initial_value=0.0)


def test_replay_requires_a_kept_trajectory():
    config = BacktestConfig(strategy=fixed_config(0.10), fee_rate=0.003)
    result = run_backtest(config, THREE_BARS, keep_trajectory=False)
    assert result.trajectory == ()
    assert result.fees == LEDGER_FEES


class TestSeriesMemo:
    """Every run reuses the rows of the last bar tuple, keyed on its identity
    and on the fee rate, sign included."""

    BARS = make_bars([2000.0, 2050.0, 1900.0, 2150.0], volumes=[0, 1e6, 2e6, 1e6])

    @staticmethod
    def _run(bars, fee_rate=0.003, keep_trajectory=False):
        config = BacktestConfig(strategy=reset_config(0.10, 0.05), fee_rate=fee_rate)
        result = run_backtest(config, bars, keep_trajectory=keep_trajectory)
        return result.fees, result.value, result.total

    @pytest.fixture(autouse=True)
    def _empty_memo(self, monkeypatch):
        monkeypatch.setattr(engine, "_memo", ((), None, None, None, None, None))

    def test_a_changed_list_gives_fresh_results(self):
        bars = list(self.BARS)
        before = self._run(bars)
        bars[2] = HourlyBar(
            timestamp=bars[2].timestamp, price=2300.0, volume=2e6, pool_liquidity=1e4
        )
        assert self._run(bars) == self._run(tuple(bars))
        assert self._run(bars) != before

    def test_another_fee_rate_misses_the_memo(self):
        fresh = self._run(tuple(list(self.BARS)), 0.01)
        assert self._run(self.BARS, 0.003) != fresh
        assert self._run(self.BARS, 0.01) == fresh

    def test_an_unsorted_tuple_fails_every_time(self):
        shuffled = (self.BARS[1], self.BARS[0], *self.BARS[2:])
        for _ in range(2):
            with pytest.raises(DataError, match="bar 2"):
                self._run(shuffled)
        assert engine._memo[0] is not shuffled

    def test_a_trajectory_run_and_a_plain_run_share_rows(self):
        kept = self._run(self.BARS, keep_trajectory=True)
        rows = series_memo().rows
        assert self._run(self.BARS) == kept
        assert series_memo().rows is rows

    def test_a_negative_zero_fee_rate_misses_the_memo(self):
        def trajectory(fee_rate):
            config = BacktestConfig(strategy=reset_config(0.10, 0.05), fee_rate=fee_rate)
            return repr(run_backtest(config, self.BARS).trajectory)

        cold = trajectory(-0.0)
        assert "fee=-0.0" in cold
        assert "fee=-0.0" not in trajectory(0.0)
        assert trajectory(-0.0) == cold


def _bits(result):
    """A result's three metrics, with every bit (the sign of zero included)."""
    return (result.fees.hex(), result.value.hex(), result.total.hex())


class TestSharedPrefix:
    """A reset run without a trajectory resumes from its width's snapshot at
    the first row its trigger fires on (the prefix rule); its results must
    be those of a cold run, bit for bit, in any order."""

    # A stablecoin depeg: the narrowest triggers fire on the first bar,
    # wider ones only in the depeg, and the widest never.
    DEPEG = bars_from_rows(seeded_series("stable_depeg", count=96))
    OTHER = bars_from_rows(seeded_series("stable_depeg", seed=1, count=48))
    AXIS = (0.0002, 0.0005, 0.001, 0.003, 0.01, 0.02, 0.05, 0.2)
    FEE_RATE = 0.0005

    @pytest.fixture(autouse=True)
    def _empty_memo(self, monkeypatch):
        monkeypatch.setattr(engine, "_memo", ((), None, None, None, None, None))

    @pytest.fixture
    def segments(self, monkeypatch):
        """The kernel segments runs make: ``("hold", start, stop)`` for the
        held-range segment ``_hold``, and ``("advance", start)`` for the
        general ``_advance``, which runs to the last row."""
        calls = []
        advance, hold = engine._advance, engine._hold

        def recording_advance(strategy, rows, start, *rest):
            calls.append(("advance", start))
            return advance(strategy, rows, start, *rest)

        def recording_hold(rows, start, stop, held):
            calls.append(("hold", start, stop))
            return hold(rows, start, stop, held)

        monkeypatch.setattr(engine, "_advance", recording_advance)
        monkeypatch.setattr(engine, "_hold", recording_hold)
        return calls

    @classmethod
    def _grid(cls, snap_spacing):
        return [reset_config(a, r, snap_spacing) for a in cls.AXIS for r in cls.AXIS]

    @classmethod
    def _run(cls, strategy, bars, keep_trajectory=False):
        config = BacktestConfig(strategy=strategy, fee_rate=cls.FEE_RATE)
        return run_backtest(config, bars, keep_trajectory=keep_trajectory)

    @classmethod
    def _cold(cls, strategy, bars):
        # A new tuple misses the memo, so the run starts with no snapshot.
        return cls._run(strategy, tuple(list(bars)))

    @pytest.mark.parametrize("snap_spacing", (None, 10), ids=("plain", "snapped"))
    def test_every_order_gives_the_cold_results(self, snap_spacing, segments):
        grid = self._grid(snap_spacing)
        cold = {strategy: _bits(self._cold(strategy, self.DEPEG)) for strategy in grid}
        segments.clear()
        shuffled = grid[:]
        random.Random(0).shuffle(shuffled)
        for order in (grid, grid[::-1], shuffled):
            for i, strategy in enumerate(order):
                if order is shuffled and i % 7 == 0:
                    self._run(strategy, self.OTHER)  # evicts the memo
                assert _bits(self._run(strategy, self.DEPEG)) == cold[strategy], strategy
            if order is not shuffled:
                # Every width keeps its furthest snapshot: the widest
                # trigger never fires.
                rows = len(self.DEPEG) - 1
                assert {at for at, _ in series_memo().snapshots.values()} == {rows}
            if order is grid:
                # The first resets spread from the first row to none at
                # all, and the grid ran fewer rows than cold runs do.
                schedules = series_memo().schedules.values()
                fires = sorted(fired[0] if fired else rows for fired, _ in schedules)
                assert fires[0] == 0 and fires[-1] == rows
                assert any(20 < row < rows for row in fires)
                # An _advance call runs from its start to the last row.
                ends = [call[2] if call[0] == "hold" else rows for call in segments]
                steps = sum(end - call[1] for end, call in zip(ends, segments))
                assert steps < 0.9 * rows * len(grid)

    @pytest.mark.parametrize("side", (0, 1), ids=("lower", "upper"))
    def test_a_close_on_a_trigger_bound_resets_as_in_a_trajectory_run(self, side):
        strategy = reset_config(0.10, 0.05)
        trigger = deploy(strategy, 2000.0, 1.0)[2]
        bars = make_bars([2000.0, 2000.0, trigger[side], 2000.0], volumes=[0.0, 1e6, 1e6, 1e6])
        kept = self._run(strategy, bars, keep_trajectory=True)
        assert _bits(self._run(strategy, bars)) == _bits(kept)
        ((fired, valid),) = series_memo().schedules.values()
        assert fired[0] == 1 and valid

    def test_an_overflow_in_a_shared_prefix_names_the_same_bar_for_every_config(self):
        # Bar 5's fee is infinite. Only r=0.1% fires before it, at bar 3;
        # the other configs share the width's prefix up to bar 6, where
        # every trigger fires.
        bars = make_bars(
            [2000.0, 2000.0, 2010.0, 1990.0, 2000.0, 2300.0],
            volumes=[0.0, 1e6, 1e6, 1e6, 1e308, 1e6],
            liquidity=[1e4, 1e4, 1e4, 1e4, 1e-300, 1e4],
        )
        widths = (0.001, 0.01, 0.02, 0.05)
        configs = [reset_config(0.10, r) for r in (*widths, *widths[::-1])]
        messages = []
        for strategy in configs:
            # A trajectory run starts from deploy, so it shares nothing.
            with pytest.raises(DataError) as kept:
                self._run(strategy, bars, keep_trajectory=True)
            with pytest.raises(DataError) as shared:
                self._run(strategy, bars)
            assert str(shared.value) == str(kept.value)
            messages.append(str(shared.value))
        assert all(message.startswith("bar 5: compounding the fee inf") for message in messages)
        assert len({text for strategy, text in zip(configs, messages) if strategy.r != 0.001}) == 1

    def test_a_trajectory_run_starts_from_deploy_and_keeps_the_snapshots(self, segments):
        grid = self._grid(None)
        plain = {strategy: _bits(self._run(strategy, self.DEPEG)) for strategy in grid}
        snapshots = dict(series_memo().snapshots)
        rows = len(self.DEPEG) - 1
        for strategy in grid:
            segments.clear()
            result = self._run(strategy, self.DEPEG, keep_trajectory=True)
            assert segments == [("advance", 0)]
            assert _bits(result) == plain[strategy]
            assert result.trajectory[-1][2:] == (result.value, result.total)
        assert series_memo().snapshots == snapshots

    def test_a_held_range_runs_in_the_held_range_segment(self, segments):
        # Only a Fixed run without a trajectory and a reset's prefix, up to
        # its first fire (none for r=20%, row 27 for r=1%), hold their range;
        # a reset that never fires makes no _advance call.
        rows = len(self.DEPEG) - 1
        expected = {
            (fixed_config(0.01), False): [("hold", 0, rows)],
            (fixed_config(0.01), True): [("advance", 0)],
            (nolp_config(), False): [("advance", 0)],
            (passive_config(), False): [("advance", 0)],
            (reset_config(0.01, 0.2), True): [("advance", 0)],
            (reset_config(0.01, 0.2), False): [("hold", 0, rows)],
            (reset_config(0.01, 0.01), False): [("hold", 0, 27), ("advance", 27)],
        }
        for (strategy, keep_trajectory), calls in expected.items():
            segments.clear()
            self._run(strategy, tuple(list(self.DEPEG)), keep_trajectory)
            assert segments == calls, (strategy, keep_trajectory)


class TestSharedSchedule:
    """A reset run without a trajectory is the run of its ``a``, tick
    spacing, budget and fire schedule (the schedule rule): configs that
    share all four share one kernel run, and every result is that of a cold
    run, bit for bit, in any order."""

    DEPEG = TestSharedPrefix.DEPEG
    OTHER = TestSharedPrefix.OTHER
    AXIS = TestSharedPrefix.AXIS + (0.0021, 0.004, 0.0045, 0.03)
    FEE_RATE = TestSharedPrefix.FEE_RATE

    @pytest.fixture(autouse=True)
    def _empty_memo(self, monkeypatch):
        monkeypatch.setattr(engine, "_memo", ((), None, None, None, None, None))

    @pytest.fixture
    def deploys(self, monkeypatch):
        """The configs that ran the kernel: a run that misses the memo
        deploys once, and a hit deploys nothing."""
        calls = []
        real = engine.deploy

        def counting_deploy(strategy, price, budget):
            calls.append((strategy, budget))
            return real(strategy, price, budget)

        monkeypatch.setattr(engine, "deploy", counting_deploy)
        return calls

    @classmethod
    def _run(cls, strategy, bars, initial_value=1.0):
        config = BacktestConfig(strategy, cls.FEE_RATE, initial_value)
        return run_backtest(config, bars, keep_trajectory=False)

    @classmethod
    def _cold(cls, strategy, bars, initial_value=1.0):
        return cls._run(strategy, tuple(list(bars)), initial_value)

    @staticmethod
    def _schedule(strategy, bars):
        """The bars a reset fires on, replayed through the state API."""
        state = initialize(strategy, bars[0].price, 1.0)
        fired = []
        for i, bar in enumerate(bars[1:]):
            after = on_close(state, bar.price)
            if after is not state:
                fired.append(i)
            state = after
        return tuple(fired)

    @pytest.mark.parametrize("snap_spacing", (None, 10), ids=("plain", "snapped"))
    def test_every_order_gives_the_cold_results_from_one_run_per_schedule(
        self, snap_spacing, deploys, monkeypatch
    ):
        grid = [reset_config(a, r, snap_spacing) for a in self.AXIS for r in self.AXIS]
        cold = {strategy: _bits(self._cold(strategy, self.DEPEG)) for strategy in grid}
        schedules = {r: self._schedule(reset_config(0.01, r), self.DEPEG) for r in self.AXIS}
        # Some r values share a schedule, so the grid needs fewer runs.
        runs = {(strategy.a, schedules[strategy.r]) for strategy in grid}
        assert len(runs) < len(grid)
        shuffled = grid[:]
        random.Random(1).shuffle(shuffled)
        for order in (grid, grid[::-1], shuffled):
            monkeypatch.setattr(engine, "_memo", ((), None, None, None, None, None))
            deploys.clear()
            for i, strategy in enumerate(order):
                if order is shuffled and i % 7 == 0:
                    self._run(strategy, self.OTHER)  # evicts the memo
                assert _bits(self._run(strategy, self.DEPEG)) == cold[strategy], strategy
            if order is not shuffled:
                assert len(deploys) == len(runs)
                assert {(s.a, schedules[s.r]) for s, _ in deploys} == runs

    def test_a_snapped_range_of_another_a_is_not_shared(self, deploys):
        # Snapped at spacing 10, both ranges deploy into the same ticks, but
        # each reset snaps a range of its own a; each width keeps its own
        # prefix snapshot.
        pair = (reset_config(0.001, 0.002, 10), reset_config(0.0011, 0.002, 10))
        price = self.DEPEG[0].price
        assert deploy(pair[0], price, 1.0)[:2] == deploy(pair[1], price, 1.0)[:2]
        cold = [_bits(self._cold(strategy, self.DEPEG)) for strategy in pair]
        assert cold[0] != cold[1]
        deploys.clear()
        for strategy, bits in zip((*pair, *pair), cold + cold):
            assert _bits(self._run(strategy, self.DEPEG)) == bits
        assert deploys == [(strategy, 1.0) for strategy in pair]
        assert set(series_memo().snapshots) == {(strategy.a, 10, 1.0) for strategy in pair}

    def test_another_budget_or_tick_spacing_is_not_shared(self, deploys):
        plain, snapped = reset_config(0.003, 0.001), reset_config(0.003, 0.001, 10)
        runs = ((plain, 1.0), (plain, 3.0), (snapped, 1.0))
        cold = [_bits(self._cold(strategy, self.DEPEG, budget)) for strategy, budget in runs]
        assert len(set(cold)) == len(runs)
        deploys.clear()
        for (strategy, budget), bits in zip(runs + runs, cold + cold):
            assert _bits(self._run(strategy, self.DEPEG, budget)) == bits
        assert deploys == list(runs)

    def test_an_overflow_makes_each_config_of_the_schedule_raise_its_own_label(self, deploys):
        # Both triggers fire on bar 2 and hold every later close; bar 2's
        # reset range is wider than a float holds.
        bars = make_bars([1.0, 1e300, 1e300])
        configs = [reset_config(1e10, r) for r in (0.05, 0.06, 0.05)]
        for strategy in configs:
            with pytest.raises(DataError) as caught:
                self._run(strategy, bars)
            assert str(caught.value) == (
                f"bar 2: cannot reset {strategy.label()}: upper must be finite, got inf"
            )
        assert series_memo().schedules == {0.05: ((0,), True), 0.06: ((0,), True)}
        assert series_memo().results == {}
        assert len(deploys) == len(configs)

    def test_an_invalid_trigger_is_not_memoised(self, deploys):
        # Bar 2's reset range is valid for every config, its trigger only
        # for r=50%; r=100% and r=200% fire on the same bar, but their new
        # triggers overflow.
        bars = make_bars([1.0, 1e308])
        valid = reset_config(1e-9, 0.5)
        self._run(valid, bars)
        for r in (1.0, 2.0, 1.0):
            strategy = reset_config(1e-9, r)
            with pytest.raises(DataError) as caught:
                self._run(strategy, bars)
            assert str(caught.value) == (
                f"bar 2: cannot reset {strategy.label()}: upper must be finite, got inf"
            )
        memo = series_memo()
        assert memo.schedules == {0.5: ((0,), True), 1.0: ((0,), False), 2.0: ((0,), False)}
        assert len(memo.results) == 1
        assert len(deploys) == 4
