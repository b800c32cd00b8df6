"""The package's value types are checked named tuples.

Every way of building a value (the constructor, ``_make`` and ``_replace``)
runs its type's checks and raises the same error, because a named tuple's
``_make`` and ``_replace`` would otherwise skip ``__new__``. Unpickling, as
sweep workers do, builds a value without checking it again.

Each type states its fields and defaults once, in its ``checked_tuple``
call; its constructor's signature shows them, and its arity errors are the
named tuple's own.

The rule "finite and > 0" (or ">= 0") is spelled once, in
``clmath.check_bound``; each of its callers keeps its own error class. The
package's imports are its export list.
"""

import datetime as dt
import inspect
import io
import math
import pickle

import pytest

import clbacktest
from clbacktest import (
    BacktestConfig,
    BacktestResult,
    Baselines,
    BarSeries,
    DailyReturnPoint,
    DataError,
    GridSpec,
    HourlyBar,
    PairProfile,
    PriceRange,
    StrategyConfig,
    StrategyState,
    SweepSummary,
    TrajectoryPoint,
    UsageError,
    axis_from_span,
    build_grid,
    daily_fee_returns,
    fixed_config,
    initialize,
    liquidity_from_equal_value,
    load_bars,
    pair_for_class,
    rank_results,
    reset_config,
    scale_liquidity,
)
from clbacktest.clmath import MAX_TICK

BAR = HourlyBar(timestamp=3600, price=2000.0, volume=1e6, pool_liquidity=1e4, tvl=5e7)
RESULT = BacktestResult(
    fees=0.1, value=1.0, total=1.1, trajectory=(TrajectoryPoint(3600, 0.1, 1.0, 1.1),)
)
PAIR = (fixed_config(0.1), RESULT)
NO_TVL = BAR._replace(tvl=0.0)  # a valid bar, but no day's return divides by it

# One valid value of every type, its fields in field order.
GOOD = {
    PriceRange: {"lower": 1.0, "upper": 2.0},
    PairProfile: {"name": "volatile", "tick_spacing": 60},
    StrategyConfig: {"kind": "reset", "a": 0.1, "r": 0.05, "snap_spacing": 60},
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
    (
        PairProfile,
        {"tick_spacing": 0},
        ValueError,
        "tick_spacing must be an integer in [1, 887272], got 0",
    ),
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
    (
        StrategyConfig,
        {"snap_spacing": 0},
        UsageError,
        "snap_spacing must be an integer in [1, 887272], got 0",
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

# Every caller of the bound check, then each check that no other test
# reaches, then the named tuples' own arity errors: the class each raises
# and its message. (tests/test_engine.py covers each bar field.)
BOUND_CALLS = {
    "bar-price": (
        lambda: BAR._replace(price=math.inf),
        DataError,
        "price must be finite and > 0, got inf",
    ),
    "bar-volume": (
        lambda: BAR._replace(volume=-1.0),
        DataError,
        "volume must be finite and >= 0, got -1.0",
    ),
    "initial_value": (
        lambda: BacktestConfig(fixed_config(0.1), 0.003, -math.inf),
        UsageError,
        "initial_value must be finite and > 0, got -inf",
    ),
    "axis-start": (
        lambda: axis_from_span(0.0, 0.2, 0.1),
        UsageError,
        "axis start must be finite and > 0, got 0.0",
    ),
    "axis-stop": (
        lambda: axis_from_span(0.1, math.inf, 0.1),
        UsageError,
        "axis stop must be finite and > 0, got inf",
    ),
    "axis-step": (
        lambda: axis_from_span(0.1, 0.2, math.nan),
        UsageError,
        "axis step must be finite and > 0, got nan",
    ),
    "range-lower": (
        lambda: PriceRange(-1.0, 2.0),
        ValueError,
        "lower must be finite and > 0, got -1.0",
    ),
    "equal-value-price": (
        lambda: liquidity_from_equal_value(0.0, 0.1, 1.0),
        ValueError,
        "price must be finite and > 0, got 0.0",
    ),
    "equal-value-a": (
        lambda: liquidity_from_equal_value(2000.0, math.inf, 1.0),
        ValueError,
        "a must be finite and > 0, got inf",
    ),
    "equal-value-total": (
        lambda: liquidity_from_equal_value(2000.0, 0.1, -1.0),
        ValueError,
        "total_value must be finite and >= 0, got -1.0",
    ),
    "initialize-budget": (
        lambda: initialize(fixed_config(0.1), 2000.0, math.inf),
        ValueError,
        "budget must be finite and >= 0, got inf",
    ),
    "scale_liquidity-factor": (
        lambda: scale_liquidity(StrategyState(**GOOD[StrategyState]), -1.0),
        ValueError,
        "factor must be finite and >= 0, got -1.0",
    ),
    "day-tvl": (
        lambda: daily_fee_returns(BarSeries(PairProfile("volatile", 60), 0.003, (NO_TVL,))),
        DataError,
        "day 1970-01-01: tvl must be finite and > 0, got 0.0",
    ),
    "header-duplicate": (
        lambda: load_bars(
            io.StringIO("timestamp,price,volume,pool_liquidity,price\n"),
            PairProfile("volatile", 60),
            0.003,
        ),
        DataError,
        "<stream>: duplicate column names in header",
    ),
    "grid-a-axis": (
        lambda: build_grid(GridSpec("stable", "fixed", a_axis=())),
        UsageError,
        "a axis is empty",
    ),
    "grid-r-axis": (
        lambda: build_grid(GridSpec("stable", "reset", r_axis=())),
        UsageError,
        "r axis is empty",
    ),
    "rank-pair-class": (
        lambda: rank_results([PAIR], Baselines(RESULT, RESULT), pair_class="x"),
        UsageError,
        "pair_class must be one of ('volatile', 'stable'), got 'x'",
    ),
    "pair-class": (lambda: pair_for_class("x"), ValueError, "unknown pair class 'x'"),
    "tick-spacing": (
        lambda: PairProfile("x", 2.5),
        ValueError,
        "tick_spacing must be an integer in [1, 887272], got 2.5",
    ),
    "snap-spacing-float": (
        lambda: fixed_config(0.1, snap_spacing=1.5),
        UsageError,
        "snap_spacing must be an integer in [1, 887272], got 1.5",
    ),
    "snap-spacing-bool": (
        lambda: StrategyConfig("fixed", 0.1, None, True),
        UsageError,
        "snap_spacing must be an integer in [1, 887272], got True",
    ),
    "snap-spacing-beyond-the-tick-range": (
        lambda: reset_config(0.1, 0.05, MAX_TICK + 1),
        UsageError,
        "snap_spacing must be an integer in [1, 887272], got 887273",
    ),
    "arity-missing": (
        lambda: HourlyBar(3600, 2000.0),
        TypeError,
        "HourlyBar.__new__() missing 2 required positional arguments: "
        "'volume' and 'pool_liquidity'",
    ),
    "arity-none": (
        lambda: StrategyConfig(),
        TypeError,
        "StrategyConfig.__new__() missing 1 required positional argument: 'kind'",
    ),
    "arity-extra": (
        lambda: PriceRange(1.0, 2.0, 3.0),
        TypeError,
        "PriceRange.__new__() takes 3 positional arguments but 4 were given",
    ),
    "arity-unknown": (
        lambda: GridSpec("stable", "reset", step=0.1),
        TypeError,
        "GridSpec.__new__() got an unexpected keyword argument 'step'",
    ),
    "arity-make": (
        lambda: HourlyBar._make((3600, 2000.0)),
        TypeError,
        "Expected 5 arguments, got 2",
    ),
}

# What the package exported when ``__all__`` was written out by hand.
EXPORTS = [
    "BacktestConfig", "BacktestResult", "Baselines", "BarSeries", "DailyReturnPoint",
    "DataError", "GridSpec", "HourlyBar", "PairProfile", "PriceRange", "StrategyConfig",
    "StrategyState", "SweepSummary", "TrajectoryPoint", "UsageError", "accrue_fees",
    "active_liquidity", "average_daily_return", "axis_from_span", "build_grid",
    "clip_window", "compute_baselines", "daily_fee_returns", "fixed_config", "initialize",
    "liquidity_from_equal_value", "load_bars", "mark_to_market", "nolp_config", "on_close",
    "pair_for_class", "passive_config", "rank_results", "render_report", "reset_config",
    "run_backtest", "run_sweep", "save_bars", "scale_liquidity", "tick_price",
    "write_results_csv",
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


@pytest.mark.parametrize("cls", [*GOOD, TrajectoryPoint], ids=lambda cls: cls.__name__)
def test_constructors_show_the_fields_and_defaults(cls):
    parameters = inspect.signature(cls).parameters.values()
    assert tuple(parameter.name for parameter in parameters) == cls._fields
    assert {
        parameter.name: parameter.default
        for parameter in parameters
        if parameter.default is not inspect.Parameter.empty
    } == cls._field_defaults


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


@pytest.mark.parametrize("call, error, message", BOUND_CALLS.values(), ids=BOUND_CALLS)
def test_every_bound_check_keeps_its_class(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_the_imports_are_the_export_list():
    namespace = {}
    exec("from clbacktest import *", namespace)
    del namespace["__builtins__"]
    assert sorted(clbacktest.__all__) == sorted(namespace) == sorted(EXPORTS)
