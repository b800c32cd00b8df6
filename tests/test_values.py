"""The package's value types are checked named tuples.

Every way of building a value (the constructor, ``_make`` and ``_replace``)
runs its type's checks and raises the same error, because a named tuple's
``_make`` and ``_replace`` would otherwise skip ``__new__``. Unpickling, as
sweep workers do, builds a value without checking it again.
"""

import datetime as dt
import pickle

import pytest

from clbacktest import (
    BacktestConfig,
    BacktestResult,
    Baselines,
    BarSeries,
    DailyReturnPoint,
    DataError,
    GridSpec,
    HourlyBar,
    LiquidityPosition,
    PairProfile,
    PriceRange,
    StrategyConfig,
    StrategyState,
    SweepSummary,
    TokenAmounts,
    TrajectoryPoint,
    UsageError,
    fixed_config,
    initialize,
    reset_config,
)

BAR = HourlyBar(timestamp=3600, price=2000.0, volume=1e6, pool_liquidity=1e4, tvl=5e7)
RESULT = BacktestResult(
    fees=0.1, value=1.0, total=1.1, trajectory=(TrajectoryPoint(3600, 0.1, 1.0, 1.1),)
)
PAIR = (fixed_config(0.1), RESULT)

# One valid value of every type, its fields in field order.
GOOD = {
    PriceRange: {"lower": 1.0, "upper": 2.0},
    TokenAmounts: {"x": 1.0, "y": 2.0},
    PairProfile: {"name": "volatile", "tick_spacing": 60},
    StrategyConfig: {"kind": "reset", "a": 0.1, "r": 0.05, "snap_spacing": 60},
    LiquidityPosition: {"price_range": PriceRange(1.0, 2.0), "liquidity": 3.0},
    StrategyState: initialize(reset_config(0.1, 0.05), 2000.0, 1.0)._asdict(),
    HourlyBar: BAR._asdict(),
    BacktestConfig: {"strategy": fixed_config(0.1), "fee_rate": 0.003, "initial_value": 2.0},
    BacktestResult: RESULT._asdict(),
    BarSeries: {"pair": PairProfile("volatile", 60), "fee_rate": 0.003, "bars": (BAR,)},
    DailyReturnPoint: {"date": dt.date(2021, 1, 1), "lp_return": 1e-4},
    GridSpec: {
        "pair_class": "stable",
        "kind": "reset",
        "a_axis": (0.1,),
        "r_axis": (0.05,),
        "snap_spacing": 10,
    },
    Baselines: {"nolp": RESULT, "passive": RESULT},
    SweepSummary: {
        "best_total": PAIR,
        "worst_total": PAIR,
        "best_fees": PAIR,
        "baselines": Baselines(RESULT, RESULT),
        "all_results": (PAIR,),
        "pair_class": "volatile",
    },
}

# A field change that breaks a rule, and the error each way of building must raise.
BAD = [
    (PriceRange, {"upper": 0.5}, ValueError, "upper must exceed lower, got [1.0, 0.5]"),
    (TokenAmounts, {"y": -1.0}, ValueError, "y must be finite and >= 0, got -1.0"),
    (PairProfile, {"tick_spacing": 0}, ValueError, "tick_spacing must be >= 1, got 0"),
    (
        StrategyConfig,
        {"kind": "grid"},
        UsageError,
        "unknown strategy kind 'grid'; valid kinds: nolp, passive, fixed, reset",
    ),
    (
        StrategyConfig,
        {"r": None},
        UsageError,
        "strategy 'reset' needs r > 0 (at least 1e-09), got None",
    ),
    (StrategyConfig, {"snap_spacing": 0}, UsageError, "snap_spacing must be >= 1, got 0"),
    (
        LiquidityPosition,
        {"liquidity": -1.0},
        ValueError,
        "liquidity must be finite and >= 0, got -1.0",
    ),
    (HourlyBar, {"price": 0.0}, DataError, "price must be finite and > 0, got 0.0"),
    (BacktestConfig, {"fee_rate": 1.0}, UsageError, "fee_rate must lie in [0, 1), got 1.0"),
    (
        BacktestConfig,
        {"initial_value": 0.0},
        UsageError,
        "initial_value must be finite and > 0, got 0.0",
    ),
    (BarSeries, {"fee_rate": -0.1}, UsageError, "fee_rate must lie in [0, 1), got -0.1"),
    (
        GridSpec,
        {"pair_class": "exotic"},
        UsageError,
        "pair_class must be one of ('volatile', 'stable'), got 'exotic'",
    ),
    (
        GridSpec,
        {"kind": "passive"},
        UsageError,
        "only fixed and reset strategies sweep, got 'passive'",
    ),
    (GridSpec, {"kind": "fixed"}, UsageError, "fixed grids take no r axis"),
]

BUILDS = {
    "new": lambda cls, change: cls(**{**GOOD[cls], **change}),
    "make": lambda cls, change: cls._make({**GOOD[cls], **change}.values()),
    "replace": lambda cls, change: cls(**GOOD[cls])._replace(**change),
}


@pytest.mark.parametrize("build", BUILDS)
@pytest.mark.parametrize(
    "cls, change, error, message",
    BAD,
    ids=[f"{cls.__name__}-{next(iter(change))}" for cls, change, _, _ in BAD],
)
def test_every_way_of_building_checks(build, cls, change, error, message):
    with pytest.raises(error) as caught:
        BUILDS[build](cls, change)
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize("cls", GOOD, ids=lambda cls: cls.__name__)
def test_values_are_immutable_named_tuples(cls):
    fields = GOOD[cls]
    assert cls._fields == tuple(fields)
    value = cls(**fields)
    assert value == tuple(fields.values())
    assert cls._make(fields.values()) == value
    assert value._replace() == value
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={field!r}" for name, field in fields.items()
    ) + ")"
    with pytest.raises(AttributeError):
        setattr(value, cls._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = None


def test_values_unpickle_unchecked(monkeypatch):
    values = [cls(**fields) for cls, fields in GOOD.items()]
    pickled = [
        (value, pickle.dumps(value, protocol))
        for value in values
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]

    def checked_constructor_called(*args, **kwargs):
        raise AssertionError("unpickling checked a value again")

    for cls in GOOD:
        monkeypatch.setattr(cls, "__new__", checked_constructor_called)
    for value, data in pickled:
        restored = pickle.loads(data)
        assert type(restored) is type(value)
        assert restored == value
