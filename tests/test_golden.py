"""Golden bit-for-bit gate on long, reset-heavy and tick-snapped series.

Three seeded series of 2400 hourly bars (``helpers.seeded_series``) are run
through every strategy kind. Unsnapped runs must equal the brute-force oracle
of the acceptance suite bit for bit. Snapped runs and full trajectories,
which the oracle does not model, must reproduce sha256 digests of their
``repr`` rows and a few explicit values, all captured from the engine before
its per-bar loop was rewritten on plain floats. Whole default grids over 240
bars must reproduce dump digests captured before the kernel's compounding
step was trimmed, one of them also on two processes. Never regenerate these
constants to make a change pass: a differing digest means the numbers moved.

The default grids of the north-star workloads, over ``bench/gen.py``'s
seed-0 series, must reproduce dump digests captured before the kernel's
held-range segment was added: the volatile Fixed and the stable Reset grid
over 730 bars and the whole volatile Reset grid over 240, plain and snapped,
the stable one also on two processes.

The state-machine API (``initialize``, ``accrue_fees``, ``mark_to_market``,
``scale_liquidity``, ``on_close``), replayed in the engine's per-bar order,
must also give ``run_backtest``'s trajectory and metrics bit for bit, plain
and snapped, on two of those series, on two short ones whose bars close
exactly on a shared or an outer bound, and on Hypothesis series of 2-40 bars
that close at random or on the bounds of the state they have reached. A run
without a trajectory must give the same metrics, or the same error.
"""

import hashlib
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from clbacktest import (
    BacktestConfig,
    BarSeries,
    DataError,
    GridSpec,
    accrue_fees,
    build_grid,
    fixed_config,
    initialize,
    mark_to_market,
    nolp_config,
    on_close,
    pair_for_class,
    passive_config,
    reset_config,
    run_backtest,
    run_sweep,
    scale_liquidity,
    write_results_csv,
)
from helpers import bars_from_rows, bench_bars, make_bars, seeded_series
from test_acceptance import _oracle_metrics

# shape -> (fee rate, tick spacing used when snapping)
SERIES = {
    "volatile": (0.003, 60),
    "reset_heavy": (0.003, 60),
    "stable_depeg": (0.0005, 10),
}
COUNT = 2400
NARROW = (0.01, 0.005)
ORACLE_CASES = (
    ("nolp", None, None),
    ("passive", None, None),
    ("fixed", 0.05, None),
    ("reset", 0.10, 0.05),
    ("reset", *NARROW),
)
SWEEP_AXES = {
    "fixed": ((0.006,), (0.05,), (0.3,)),
    "reset": (NARROW, (0.10, 0.05), (0.03, 0.02)),
}

# Captured from the dataclass engine; see the module docstring.
SWEEP_DIGESTS = {
    "reset_heavy/plain": "b691c7b27442829528e891695b752828ed645ffe662a6fa11eaa6920b907f2b6",
    "reset_heavy/snapped": "354f015ccc57e97bada79ac816fa3b64932993a84a893a42154dd7019c016c44",
    "stable_depeg/plain": "c70d6de10e5d9476fd48e996d5342026a07cff234c4b20c40c8d402712174bcc",
    "stable_depeg/snapped": "b57a3e6ab39fd4d3ae53c9a1a0239fa598e04d8266114b5ba4548dfe6a0f6970",
    "volatile/plain": "b40728c1710bc052fa8f970206c19143eb2e142dea75da5a137c921ab052532b",
    "volatile/snapped": "86765ce13ace7d1f866c81e9faaa8ae4c6a381f079871642dc3f920f088d8fe7",
}
TRAJECTORY_DIGESTS = {
    "reset_heavy": "b6b5d35408e72b46fb1f26751938e114bc50147d214fd5ac78c7d119268ed871",
    "stable_depeg": "6113e0e889f2a49cc9bc05953f5b03fdd180e4e9f11af8540f7143b53995dd9c",
    "volatile": "99a1122e589fd2c32cf99bbb020b33e85488e68e9ec68ada9092094a2a114ec0",
}
# (fees, value, total) of Fixed a=5% and narrow Reset; "shape/kind/snapping".
EXPLICIT = {
    "volatile/fixed/snapped": (0.2785862386683957, 0.9902023188587499, 1.3112760049467047),
    "reset_heavy/reset/plain": (0.19960932763417105, 6.853514859382628e-10, 3.620237520022476e-08),
    "reset_heavy/reset/snapped": (0.21308172948448628, 6.67135971934937e-10, 3.374890233356902e-08),
    "stable_depeg/reset/snapped": (3.7243125410598124, 0.9283435907159686, 46.113987202429925),
}


def _rows(shape):
    return seeded_series(shape, seed=0, count=COUNT)


def _series(shape):
    fee_rate, _ = SERIES[shape]
    bars = bars_from_rows(_rows(shape))
    return BarSeries(pair=pair_for_class("volatile"), fee_rate=fee_rate, bars=bars)


def _grid(spacing):
    return [fixed_config(a, snap_spacing=spacing) for (a,) in SWEEP_AXES["fixed"]] + [
        reset_config(a, r, snap_spacing=spacing) for a, r in SWEEP_AXES["reset"]
    ]


def _dump_digest(results):
    buffer = io.StringIO()
    write_results_csv(results, buffer)
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


def _strategy(kind, a, r, spacing=None):
    if kind == "nolp":
        return nolp_config()
    if kind == "passive":
        return passive_config()
    if kind == "fixed":
        return fixed_config(a, snap_spacing=spacing)
    return reset_config(a, r, snap_spacing=spacing)


@pytest.mark.parametrize("shape", sorted(SERIES))
def test_long_series_match_the_oracle(shape):
    rows = _rows(shape)
    bars = bars_from_rows(rows)
    fee_rate, _ = SERIES[shape]
    for budget in (1.0, 2.5):
        for kind, a, r in ORACLE_CASES:
            config = BacktestConfig(
                strategy=_strategy(kind, a, r), fee_rate=fee_rate, initial_value=budget
            )
            result = run_backtest(config, bars, keep_trajectory=False)
            expected = _oracle_metrics(kind, a, r, rows, fee_rate, budget)
            got = (result.fees, result.value, result.total)
            assert got == expected, (shape, kind, a, r, budget)


@pytest.mark.parametrize("snap", (False, True), ids=("plain", "snapped"))
@pytest.mark.parametrize("shape", sorted(SERIES))
def test_sweep_digests(shape, snap):
    series = _series(shape)
    spacing = SERIES[shape][1] if snap else None
    results = run_sweep(_grid(spacing), series, jobs=1)
    assert _dump_digest(results) == SWEEP_DIGESTS[f"{shape}/{'snapped' if snap else 'plain'}"]


def test_sweep_jobs_do_not_change_results():
    series = _series("reset_heavy")
    grid = _grid(SERIES["reset_heavy"][1])
    parallel = run_sweep(grid, series, jobs=2)
    assert parallel == run_sweep(grid, series, jobs=1)
    assert _dump_digest(parallel) == SWEEP_DIGESTS["reset_heavy/snapped"]


# (pair class, kind, snap spacing, stride) -> dump digest of every
# stride-th point of that default grid, over 240 bars of the pair class's
# series below; captured before the kernel's compounding step was trimmed.
FULL_GRID_DIGESTS = {
    ("stable", "reset", None, 1): "71b267926b9b6b9d83d0072112a81c8591b8f55b49f97b3f40fbf83f87895bd0",
    ("stable", "reset", 10, 1): "3708cb34f8e4d8b41a9383ee302d72fa5d02db25ea0d7c7c8d3acc1cb684458b",
    ("volatile", "fixed", None, 1): "1771f90d74bb06b9af6d148b8ef001263cf6dcc1823bd63364ee942c0d2a2bb9",
    ("volatile", "fixed", 60, 1): "f830d66d8e3c987280ff1f38adc83b2e6997509fc39d3d184e8a434235a9b554",
    # 2506 of the 27 556 points.
    ("volatile", "reset", None, 11): "c936a1782f3f7dfb8cbf2cee9684598dd775d1034afdbf227b6a5a8ab6386980",
}
FULL_GRID_SHAPES = {"stable": "stable_depeg", "volatile": "volatile"}


@pytest.mark.parametrize(
    "case, jobs",
    [(case, 1) for case in FULL_GRID_DIGESTS] + [(("stable", "reset", None, 1), 2)],
    ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else f"jobs{value}",
)
def test_full_grid_digests(case, jobs):
    pair_class, kind, spacing, stride = case
    shape = FULL_GRID_SHAPES[pair_class]
    bars = bars_from_rows(seeded_series(shape, count=240))
    series = BarSeries(pair=pair_for_class(pair_class), fee_rate=SERIES[shape][0], bars=bars)
    grid = build_grid(GridSpec(pair_class, kind, snap_spacing=spacing))[::stride]
    assert _dump_digest(run_sweep(grid, series, jobs=jobs)) == FULL_GRID_DIGESTS[case]


# (pair class, kind, bars, snap spacing) -> dump digest of that default grid
# over ``bench/gen.py``'s seed-0 series of the pair class (the north-star
# workloads); captured before the kernel's held-range segment was added.
NORTH_STAR_DIGESTS = {
    ("volatile", "fixed", 730, None): "05aa5bcfb944f2e2da4cd335aec434c3be4b3668f9780d993f0f805a828a8983",
    ("volatile", "fixed", 730, 60): "8ae166ba11d67001db68352030ad530ab5b49169a580d14c26ba42fab3779c5d",
    ("stable", "reset", 730, None): "20e2c8485fd25e2ae6caad5d3586f4daee3d0b5376907a956e31573a9634b76d",
    ("stable", "reset", 730, 10): "8190b6ab3aa96ec29db6bdb238cb2e20b8c83c6b7e3195d1e0b29b04a78b19d9",
    ("volatile", "reset", 240, None): "18de1dfff37bb62ff562a7f429fab17c320813a2887c6eb4b97c88bfae735c78",
    ("volatile", "reset", 240, 60): "9270f011dfaf37314a5205212d1165aebeddedbf4a364a1f65eff89f3e31302c",
}
NORTH_STAR_FEE_RATES = {"volatile": 0.003, "stable": 0.0005}


@pytest.mark.parametrize(
    "case, jobs",
    [(case, 1) for case in NORTH_STAR_DIGESTS]
    + [(case, 2) for case in NORTH_STAR_DIGESTS if case[0] == "stable"],
    ids=lambda value: "-".join(map(str, value)) if isinstance(value, tuple) else f"jobs{value}",
)
def test_north_star_digests(case, jobs):
    pair_class, kind, count, spacing = case
    fee_rate = NORTH_STAR_FEE_RATES[pair_class]
    # A tuple of its own: no run before this one has memoised its rows.
    bars = tuple(list(bench_bars(pair_class, count, fee_rate)))
    series = BarSeries(pair=pair_for_class(pair_class), fee_rate=fee_rate, bars=bars)
    grid = build_grid(GridSpec(pair_class, kind, snap_spacing=spacing))
    assert _dump_digest(run_sweep(grid, series, jobs=jobs)) == NORTH_STAR_DIGESTS[case]


@pytest.mark.parametrize("shape", sorted(SERIES))
def test_trajectory_digests(shape):
    bars = bars_from_rows(_rows(shape))
    fee_rate, spacing = SERIES[shape]
    digest = hashlib.sha256()
    for kind, a, r in ORACLE_CASES:
        for snap in (None, spacing) if a is not None else (None,):
            result = run_backtest(
                BacktestConfig(strategy=_strategy(kind, a, r, snap), fee_rate=fee_rate), bars
            )
            assert len(result.trajectory) == COUNT
            assert result.trajectory[-1][1:] == (
                result.trajectory[-1].fee,
                result.value,
                result.total,
            )
            for point in result.trajectory:
                digest.update(repr(tuple(point)).encode("utf-8") + b"\n")
    assert digest.hexdigest() == TRAJECTORY_DIGESTS[shape]


@pytest.mark.parametrize("case", sorted(EXPLICIT))
def test_explicit_values(case):
    shape, kind, snapped = case.split("/")
    fee_rate, spacing = SERIES[shape]
    a, r = (0.05, None) if kind == "fixed" else NARROW
    strategy = _strategy(kind, a, r, spacing if snapped == "snapped" else None)
    bars = bars_from_rows(_rows(shape))
    config = BacktestConfig(strategy=strategy, fee_rate=fee_rate)
    result = run_backtest(config, bars, keep_trajectory=False)
    assert (result.fees, result.value, result.total) == EXPLICIT[case]


def _replay(strategy, bars, fee_rate, budget=1.0):
    """Trajectory rows and ``(fees, value, total)`` of ``strategy`` through
    the state-machine API, in the engine's per-bar order: fees on both
    ledgers, marks of both, compounding of the second, then ``on_close`` on
    both. Every amount is divided by ``budget`` as ``run_backtest`` does."""
    first = bars[0]
    plain = comp = initialize(strategy, first.price, budget)
    value = total = mark_to_market(plain, first.price)
    fee_sum = 0.0
    rows = [(first.timestamp, 0.0, value / budget, total / budget)]
    for bar in bars[1:]:
        fee_plain = accrue_fees(plain, bar, fee_rate)
        fee_comp = accrue_fees(comp, bar, fee_rate)
        value = mark_to_market(plain, bar.price)
        value_comp = mark_to_market(comp, bar.price)
        if fee_comp > 0.0 and value_comp > 0.0:
            comp = scale_liquidity(comp, (value_comp + fee_comp) / value_comp)
        plain = on_close(plain, bar.price)
        comp = on_close(comp, bar.price)
        fee_sum += fee_plain
        total = value_comp + fee_comp
        rows.append((bar.timestamp, fee_plain / budget, value / budget, total / budget))
    return rows, (fee_sum / budget, value / budget, total / budget)


# A Reset (r = 5% or 0.5%) fires at 2100 and 2205 (both are exactly 1.05
# times the previous reset price), and the next bar closes on the bound its
# two new ranges share, where only the lower range earns fees; it fires
# again at 1990.
SHARED_BOUND_PRICES = (2000.0, 2100.0, 2100.0, 2205.0, 2205.0, 1990.0)

# Reset(a=10%, r=5%) fires at 2100; the next bar closes one float above the
# shared bound (only the upper range earns fees), the one after exactly on
# the lower range's outer bound (which earns fees and fires a reset), and
# the last one float above the outer bound of the range it redeposited
# into (which earns none).
_OUTER = 2100.0 / (1.0 + 0.10)
OUTER_BOUND_PRICES = (
    2000.0,
    2100.0,
    math.nextafter(2100.0, math.inf),
    _OUTER,
    math.nextafter(_OUTER * (1.0 + 0.10), math.inf),
)


def _replay_series(shape):
    if shape in ("shared_bound", "outer_bound"):
        prices = SHARED_BOUND_PRICES if shape == "shared_bound" else OUTER_BOUND_PRICES
        return make_bars(prices, volumes=[1000.0] * len(prices)), SERIES["volatile"][0]
    return bars_from_rows(_rows(shape)), SERIES[shape][0]


@pytest.mark.parametrize("snap", (False, True), ids=("plain", "snapped"))
@pytest.mark.parametrize("shape", ("reset_heavy", "volatile", "shared_bound", "outer_bound"))
def test_state_machine_replay_matches_run_backtest(shape, snap):
    bars, fee_rate = _replay_series(shape)
    for kind, a, r in ORACLE_CASES:
        strategy = _strategy(kind, a, r, 60 if snap and a is not None else None)
        config = BacktestConfig(strategy=strategy, fee_rate=fee_rate)
        result = run_backtest(config, bars)
        rows, metrics = _replay(strategy, bars, fee_rate)
        assert rows == [tuple(p) for p in result.trajectory], strategy.label()
        assert metrics == result[:3], strategy.label()
        # Without a trajectory, on a tuple no run has seen, a Fixed run and a
        # reset's prefix hold their range in the kernel's held-range segment.
        plain = run_backtest(config, tuple(list(bars)), keep_trajectory=False)
        assert repr(plain[:3]) == repr(metrics), strategy.label()


# (kind, snapped) of the differential test below: every kind, plain, and
# the two kinds with a range, snapped.
DIFFERENTIAL_CASES = (
    ("nolp", False),
    ("passive", False),
    ("fixed", False),
    ("fixed", True),
    ("reset", False),
    ("reset", True),
)
WIDTHS = (1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5)


def _edges(state):
    """Prices at which ``state`` changes: the bounds of its ranges and its
    trigger interval, and the floats next to each."""
    bounds = [bound for geometry in state.ranges for bound in geometry[:2]]
    bounds += state.trigger or ()
    return bounds + [math.nextafter(b, d) for b in bounds for d in (0.0, math.inf)]


@pytest.mark.parametrize("kind, snapped", DIFFERENTIAL_CASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_series_replay_matches_run_backtest(kind, snapped, data):
    """On 2-40 bars that move at random or close exactly on (or one float
    beside) a range, trigger or shared bound, the state-machine replay and
    ``run_backtest`` agree bit for bit, metrics and trajectory; or both fail
    on the last bar, whose reset cannot be done, for the same reason."""
    a = data.draw(st.sampled_from(WIDTHS)) if kind in ("fixed", "reset") else None
    r = data.draw(st.sampled_from(WIDTHS)) if kind == "reset" else None
    spacing = data.draw(st.sampled_from((1, 10, 60))) if snapped else None
    strategy = _strategy(kind, a, r, spacing)
    budget = data.draw(st.sampled_from((1.0, 2.5, 1e4)))
    fee_rate = data.draw(st.sampled_from((0.0, 0.0005, 0.003, 0.01)))
    # Each later bar closes, by its pick, at the previous close times a
    # factor, at the previous close again (after a reset, that is the bound
    # its two ranges share), or on an edge of the state reached so far.
    picks = st.tuples(st.integers(0, 63), st.floats(0.8, 1.25))
    steps = data.draw(st.lists(picks, min_size=1, max_size=39))
    prices = [data.draw(st.floats(0.5, 5000.0))]
    state = initialize(strategy, prices[0], budget)
    for pick, factor in steps:
        last, edges = prices[-1], _edges(state)
        if pick < 32 or not edges:
            prices.append(last * factor if pick < 24 else last)
        else:
            prices.append(edges[pick % len(edges)])
        try:
            state = on_close(state, prices[-1])
        except (ValueError, ZeroDivisionError):
            break  # the series ends on the bar whose reset cannot be done
    count = len(prices)
    volumes = data.draw(st.lists(st.floats(0.0, 1e6), min_size=count, max_size=count))
    liquidity = data.draw(st.floats(1e2, 1e7))
    bars = make_bars(prices, volumes=volumes, liquidity=liquidity)
    config = BacktestConfig(strategy=strategy, fee_rate=fee_rate, initial_value=budget)
    try:
        rows, metrics = _replay(strategy, bars, fee_rate, budget)
    except (ValueError, ZeroDivisionError) as error:
        for keep_trajectory in (True, False):
            with pytest.raises(DataError) as caught:
                run_backtest(config, tuple(list(bars)), keep_trajectory)
            assert str(caught.value) == f"bar {count}: cannot reset {strategy.label()}: {error}"
        return
    result = run_backtest(config, bars)
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(rows) == repr([tuple(p) for p in result.trajectory])
    assert repr(metrics) == repr(result[:3])
    # A run without a trajectory, on a tuple no run has seen, takes the
    # held-range segment for a Fixed run and a reset's prefix.
    plain = run_backtest(config, tuple(list(bars)), keep_trajectory=False)
    assert repr(metrics) == repr(plain[:3])
