"""Parameter sweeps over strategy grids, ranking, and report rendering.

Each input of a sweep is checked once. :func:`build_grid` checks the size
of the grid, then each axis value once, in the order in which building the
points one by one would meet them, so a grid with several bad values raises
the same first error; it then builds the points without checking each. A
chunk of the grid checks the series' fee rate once and builds each point's
``BacktestConfig`` unchecked, and ``run_backtest`` checks nothing it is
given again (see :mod:`clbacktest.engine`). Ranking and the report compute
each result's tie key once.
"""

from __future__ import annotations

import math
import os
from typing import Sequence, TextIO

from ._tuples import checked_tuple
from .clmath import PAIRS, check_bound
from .dataio import BarSeries
from .engine import BacktestConfig, BacktestResult, check_fee_rate, run_backtest
from .errors import DataError, UsageError
from .strategies import (
    FIXED,
    RESET,
    StrategyConfig,
    check_width,
    nolp_config,
    passive_config,
)

PAIR_CLASSES = tuple(PAIRS)

# Default parameter axes per pair class: volatile pairs use a 0.6% step up to
# 99.6% (166 values), stable pairs a 0.1% step up to 50% (500 values) for the
# range width and up to 5% (50 values per axis) for reset grids. Values are
# built as integer-numerator divisions so the endpoints are exact floats.
_VOLATILE_AXIS = tuple((6 * k) / 1000 for k in range(1, 167))
_STABLE_FIXED_AXIS = tuple(k / 1000 for k in range(1, 501))
_STABLE_RESET_AXIS = tuple(k / 1000 for k in range(1, 51))

# Most grid points a sweep accepts, and most values on one axis. A Reset
# grid is the product of two axes, so its axes can be at most about 316
# long. The default grids have at most 2500 points.
MAX_GRID_POINTS = 100_000

ResultPair = tuple[StrategyConfig, BacktestResult]


def _check_pair_class(pair_class: str) -> None:
    """Raise UsageError unless ``pair_class`` is one of ``PAIR_CLASSES``."""
    if pair_class not in PAIR_CLASSES:
        raise UsageError(f"pair_class must be one of {PAIR_CLASSES}, got {pair_class!r}")


class GridSpec(
    checked_tuple("GridSpec", "pair_class kind a_axis r_axis snap_spacing", (None, None, None))
):
    """A strategy family plus the parameter axes to sweep.

    Axes left as None fall back to the pair class defaults above. ``a_axis``
    holds range half-widths, ``r_axis`` reset trigger half-widths (reset
    grids are the full cross product).
    """

    __slots__ = ()

    def _check(self) -> None:
        _check_pair_class(self.pair_class)
        if self.kind not in (FIXED, RESET):
            raise UsageError(f"only fixed and reset strategies sweep, got {self.kind!r}")
        if self.kind == FIXED and self.r_axis is not None:
            raise UsageError("fixed grids take no r axis")


class Baselines(checked_tuple("Baselines", "nolp passive")):
    """Reference runs the ranked strategies are compared against."""

    __slots__ = ()


class SweepSummary(
    checked_tuple(
        "SweepSummary", "best_total worst_total best_fees baselines all_results pair_class"
    )
):
    """Ranked sweep outcome: extremal configurations plus the full grid."""

    __slots__ = ()


def axis_from_span(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive arithmetic axis start, start+step, ... up to stop.

    Raises UsageError, before building anything, for an axis of more than
    ``MAX_GRID_POINTS`` values.
    """
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        check_bound(value, f"axis {name}", error=UsageError)
    if stop < start:
        raise UsageError(f"axis stop {stop!r} is below start {start!r}")
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_GRID_POINTS:
        raise UsageError(
            f"axis {start!r}..{stop!r} in steps of {step!r} has more than "
            f"{MAX_GRID_POINTS} values"
        )
    return tuple(start + i * step for i in range(int(math.floor(steps)) + 1))


def default_axis(pair_class: str, kind: str) -> tuple[float, ...]:
    """Default parameter axis for a pair class and strategy family."""
    if pair_class == "volatile":
        return _VOLATILE_AXIS
    return _STABLE_FIXED_AXIS if kind == FIXED else _STABLE_RESET_AXIS


def build_grid(spec: GridSpec) -> list[StrategyConfig]:
    """Expand a GridSpec into concrete strategy configurations.

    Raises UsageError, before building anything, for a grid of more than
    ``MAX_GRID_POINTS`` points.
    """
    kind, snap_spacing = spec.kind, spec.snap_spacing
    a_axis = spec.a_axis if spec.a_axis is not None else default_axis(spec.pair_class, kind)
    if not a_axis:
        raise UsageError("a axis is empty")
    r_axis: Sequence[float | None] = (None,)
    if kind == RESET:
        r_axis = spec.r_axis if spec.r_axis is not None else default_axis(spec.pair_class, kind)
        if not r_axis:
            raise UsageError("r axis is empty")
    points = len(a_axis) * len(r_axis)
    if points > MAX_GRID_POINTS:
        raise UsageError(f"grid has {points} points, more than {MAX_GRID_POINTS}")
    # Each value is checked once, in the order in which building the grid
    # point by point would first meet it: the first point whole, then the
    # rest of its row of r values, then the rest of the a values. The points
    # are then built without checking them again.
    StrategyConfig(kind, a_axis[0], r_axis[0], snap_spacing)
    for name, values in (("r", r_axis[1:]), ("a", a_axis[1:])):
        for value in values:
            check_width(kind, name, value)
    new = tuple.__new__
    return [new(StrategyConfig, (kind, a, r, snap_spacing)) for a in a_axis for r in r_axis]


def run_sweep(
    grid: Sequence[StrategyConfig],
    series: BarSeries,
    jobs: int | None = 1,
) -> list[ResultPair]:
    """Backtest every configuration in the grid over the series.

    Results come back in grid order and are identical whatever ``jobs`` is;
    ``jobs=None`` uses every CPU this process may run on. ``jobs`` counts
    processes, the calling one included: it runs one strided chunk of the
    grid itself and starts one process for each other chunk. A failing
    configuration raises its error; when several fail, the first in grid
    order does, whatever ``jobs`` is. A process that cannot be started, or
    that dies before it sends its results, raises DataError naming the
    cause, once the ones already started have been stopped.
    Trajectories are dropped to keep memory flat across large grids.
    """
    configs = list(grid)
    if not configs:
        raise UsageError("cannot sweep an empty grid")
    workers = worker_count(jobs, len(configs), usable_cpus())
    payloads = [(configs[i::workers], series.bars, series.fee_rate) for i in range(workers)]
    outcomes = _dispatch(payloads) if workers > 1 else [_run_chunk(payloads[0])]
    # A chunk stops at its first failure, whose grid index follows from the
    # chunk's offset and how many results it has.
    failures = {i + len(done) * workers: error for i, (done, error) in enumerate(outcomes) if error}
    if failures:
        raise failures[min(failures)]
    # Stitch the strided chunks back into grid order: grid point i is result
    # i // workers of chunk i % workers.
    results = [outcomes[i % workers][0][i // workers] for i in range(len(configs))]
    return list(zip(configs, results))


def _dispatch(payloads: list) -> list[tuple[list[BacktestResult], Exception | None]]:
    """Run the first payload here and each other one in a process of its
    own; returns every chunk's outcome in payload order."""
    # Imported only here, so a command that runs in one process never loads
    # it. Importing it and starting one plain process that sends over a
    # one-way pipe costs about 27 ms of CPU above a bare interpreter, against
    # about 43 ms for a one-worker process pool (medians of 30 runs, 2 vCPUs,
    # Python 3.11.7).
    from multiprocessing import Pipe, Process

    children, outcomes = [], []
    try:
        for payload in payloads[1:]:
            receiver, sender = Pipe(duplex=False)
            child = Process(target=_send_outcome, args=(payload, sender, receiver))
            try:
                with sender:
                    child.start()
            except OSError as exc:  # fork's EAGAIN or ENOMEM, say
                receiver.close()
                raise DataError(f"cannot start a sweep worker: {exc}") from None
            children.append((child, receiver))
        outcomes.append(_run_chunk(payloads[0]))
        for child, receiver in children:
            try:
                outcomes.append(receiver.recv())
            except EOFError:
                child.join()
                code = child.exitcode
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise DataError(f"sweep worker {how} before sending its results") from None
    finally:
        for child, receiver in children:
            if len(outcomes) < len(payloads):
                # An exception is leaving: a child blocked writing results
                # that nobody will read would never exit.
                child.terminate()
            child.join()
            receiver.close()
    return outcomes


def worker_count(jobs: int | None, configs: int, cpus: int) -> int:
    """Processes for a sweep, the calling one included: ``jobs`` (all ``cpus``
    when None), capped at the number of configurations and of CPUs, and at
    least 1."""
    return max(1, min(cpus if jobs is None else jobs, configs, cpus))


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU of the machine."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def compute_baselines(series: BarSeries) -> Baselines:
    """Run the no-deposit and full-range reference strategies."""
    (_, nolp), (_, passive) = run_sweep([nolp_config(), passive_config()], series)
    return Baselines(nolp=nolp, passive=passive)


def rank_results(
    results: Sequence[ResultPair],
    baselines: Baselines,
    pair_class: str = "volatile",
) -> SweepSummary:
    """Pick the extremal configurations; ties go to the smaller parameters."""
    if not results:
        raise UsageError("cannot rank an empty result list")
    _check_pair_class(pair_class)
    return SweepSummary(*_extremals(results), baselines, tuple(results), pair_class)


def render_report(summary: SweepSummary) -> str:
    """Render the ranked summary as a markdown table.

    Baseline rows come first, then Best/Worst (total) and Best (fees) rows
    for each strategy family present in the results. Metrics display with 3
    decimals for volatile runs and 4 for stable ones.
    """
    decimals = 3 if summary.pair_class == "volatile" else 4
    rows: list[tuple[str, str, BacktestResult]] = [
        ("No-LP", "-", summary.baselines.nolp),
        ("Passive", "-", summary.baselines.passive),
    ]
    for kind, label in ((FIXED, "Fixed"), (RESET, "Reset")):
        family = [item for item in summary.all_results if item[0].kind == kind]
        if not family:
            continue
        for row_name, item in zip(
            (f"Best {label} (total)", f"Worst {label} (total)", f"Best {label} (fees)"),
            _extremals(family),
        ):
            rows.append((row_name, item[0].params_text(), item[1]))

    header = ("strategy", "parameters", "fees", "value", "total")
    table = [header] + [
        (
            name,
            params,
            f"{result.fees:.{decimals}f}",
            f"{result.value:.{decimals}f}",
            f"{result.total:.{decimals}f}",
        )
        for name, params, result in rows
    ]
    lines = ["| " + " | ".join(cells) + " |" for cells in table]
    lines.insert(1, "| " + " | ".join("---" for _ in header) + " |")
    return "\n".join(lines)


def write_results_csv(results: Sequence[ResultPair], dest: TextIO) -> None:
    """Dump per-configuration metrics at full precision, for machine use, to
    the open text stream ``dest``."""
    dest.write("kind,a,r,fees,value,total\n")
    dest.writelines(
        [
            f"{config.kind},{_cell(config.a)},{_cell(config.r)},"
            f"{result.fees!r},{result.value!r},{result.total!r}\n"
            for config, result in results
        ]
    )


def _cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def _run_chunk(payload) -> tuple[list[BacktestResult], Exception | None]:
    """A chunk's results up to its first failure, and that failure or None."""
    configs, bars, fee_rate = payload
    done: list[BacktestResult] = []
    try:
        # Each point's BacktestConfig is built unchecked: its strategy was
        # checked when the grid was built, its budget is the default 1.0,
        # and its fee rate is checked here, once per chunk.
        check_fee_rate(fee_rate)
        for strategy in configs:
            config = tuple.__new__(BacktestConfig, (strategy, fee_rate, 1.0))
            done.append(run_backtest(config, bars, keep_trajectory=False))
    except Exception as error:
        return done, error
    return done, None


def _send_outcome(payload, sender, receiver) -> None:
    # A forked child inherits the reading end; closing it lets a write fail,
    # rather than block for ever, once the parent has gone.
    receiver.close()
    sender.send(_run_chunk(payload))


def _extremals(results: Sequence[ResultPair]) -> tuple[ResultPair, ResultPair, ResultPair]:
    """The best and worst ``total`` and the best ``fees`` of ``results``.

    Ties go to the smaller parameters (an absent one counts as +inf), then
    to the earlier pair. Each pair's parameter key is computed once, and
    each pick compares plain tuples without a key function.
    """
    inf = math.inf
    keys = [
        (inf if config.a is None else config.a, inf if config.r is None else config.r)
        for config, _ in results
    ]
    totals = [result.total for _, result in results]
    metrics = ([-total for total in totals], totals, [-result.fees for _, result in results])
    order = range(len(results))
    return tuple(results[min(zip(metric, keys, order))[2]] for metric in metrics)
