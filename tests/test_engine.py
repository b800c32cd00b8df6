"""Backtest loop semantics: fee accrual, the two ledgers, the three metrics.

The 3-bar expectations below are a spreadsheet-style ledger computed by hand
before the engine was written; the engine must reproduce them bit-for-bit.
"""

import math
import pickle

import pytest

from clbacktest import engine
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
    passive_config,
    reset_config,
    run_backtest,
)
from helpers import make_bars

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


def test_single_bar_run():
    bars = make_bars([2000.0])
    result = run_backtest(BacktestConfig(strategy=fixed_config(0.10), fee_rate=0.003), bars)
    assert result.fees == 0.0
    assert result.value == pytest.approx(1.0, rel=1e-12)
    assert result.total == result.value
    assert len(result.trajectory) == 1


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


def test_ledger_overflow_is_a_data_error_naming_the_bar():
    bars = make_bars(
        [2000.0, 2000.0, 2000.0], volumes=[0.0, 1e6, 1e308], liquidity=[1e4, 1e4, 1e-300]
    )
    for strategy in (passive_config(), fixed_config(0.10), reset_config(0.10, 0.05)):
        with pytest.raises(DataError, match="^bar 3: "):
            run_backtest(BacktestConfig(strategy=strategy, fee_rate=0.003), bars)


@pytest.mark.parametrize(
    "strategy, initial_value, prices, reason",
    [
        (
            reset_config(1e-9, 1e-9),
            1e149,
            [1e-300, 0.99e-300],
            "redepositing inf base and 0.0 quote overflows",
        ),
        (
            reset_config(1e-9, 1e-9),
            1e149,
            [1e-300, 1.01e-300],
            "redepositing 0.0 base and 1.0000001396196635e+149 quote overflows",
        ),
        (reset_config(0.10, 0.05), 1.0, [2000.0, 1.7e308], "upper must be finite, got inf"),
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
        monkeypatch.setattr(engine, "_memo", ((), None, None))

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
        rows = engine._memo[2]
        assert self._run(self.BARS) == kept
        assert engine._memo[2] is rows

    def test_a_negative_zero_fee_rate_misses_the_memo(self):
        def trajectory(fee_rate):
            config = BacktestConfig(strategy=reset_config(0.10, 0.05), fee_rate=fee_rate)
            return repr(run_backtest(config, self.BARS).trajectory)

        cold = trajectory(-0.0)
        assert "fee=-0.0" in cold
        assert "fee=-0.0" not in trajectory(0.0)
        assert trajectory(-0.0) == cold
