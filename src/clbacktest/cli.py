"""Command line interface.

Exit codes: 0 success, 1 data error (unreadable or malformed input, an
unwritable output file or standard output, or a sweep worker that cannot
start or dies before it sends its results), 2 usage error (bad flags or
parameter values). An empty output path counts as an unwritable one. An
error prints one ``error:`` line to standard error. An ``error:`` or ``-v``
line that cannot be written (standard error closed at start-up, on a full
device, or on a pipe whose reader has gone) is dropped, and the exit code
stays the same.

The cyclic garbage collector is off while a command runs. Bars, rows,
results and trajectory points are tuples of numbers that cannot form a
cycle, yet the collector would walk them on a pass after every few hundred
allocations. What does form cycles, such as the argument parser, is a
fixed set per command that does not grow with the bars or the grid, and is
freed when the collector runs again. Sweep workers started by fork inherit
the off state. :func:`main` restores the caller's collector state when it
returns, so calling it in-process leaves the collector as it was; the
library functions it calls do not touch the collector.

:func:`run` is the process entry point, for ``python -m clbacktest.cli``
and the ``clbacktest`` script alike; :func:`main` is the in-process API.
:func:`main` returns the exit code of every outcome and never raises
SystemExit: a command's own code, 1 or 2 for an error, and the code of the
SystemExit that argparse raises after a usage error (2) or ``--help`` (0).
Everything a command prints to standard output, ``--help``'s text
included, goes through :func:`_printing`, which flushes it, and each line to
standard error is flushed when it is written. So :func:`run` only ends the
process with that code, through :func:`os._exit`. That skips the
interpreter's teardown: atexit handlers (multiprocessing's among them), the
final collections, which would walk every object still alive, and the
teardown of every module. A command needs none of it: every file it opens
is closed by a ``with`` block inside :func:`main`, and a sweep joins every
worker and closes every pipe before it returns, so multiprocessing's
handler would find nothing to join. A usage message that argparse could not
write to standard error is dropped, as :func:`_warn` drops a line; an
uncaught exception leaves by the normal exit path.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import errno
import gc
import math
import os
import re
import stat
import sys
from typing import NoReturn, Sequence

from .clmath import (
    PairProfile,
    geometry_of,
    liquidity_from_equal_value,
    mark,
    pair_for_class,
    symmetric_bounds,
)
from .dataio import (
    BarSeries,
    average_daily_return,
    clip_window,
    daily_fee_returns,
    load_bars,
)
from .engine import BacktestConfig, run_backtest
from .errors import DataError, UsageError
from .strategies import (
    FIXED,
    RESET,
    StrategyConfig,
    initialize,
    mark_to_market,
    on_close,
)
from .sweep import (
    PAIR_CLASSES,
    GridSpec,
    axis_from_span,
    build_grid,
    compute_baselines,
    rank_results,
    render_report,
    run_sweep,
    write_results_csv,
)


def main(argv: Sequence[str] | None = None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # from argparse: a usage error, or after --help
        return exc.code
    except (DataError, UsageError) as exc:
        _warn(f"error: {exc}")
        return 1 if isinstance(exc, DataError) else 2
    finally:
        if collecting:
            gc.enable()


def run() -> NoReturn:
    """End the process with :func:`main`'s exit code on the process's
    arguments, skipping the interpreter's teardown."""
    os._exit(main())


class _Parser(argparse.ArgumentParser):
    """An argument parser that prints ``--help`` through :func:`_printing`,
    as every command prints its output. Subparsers are built as this class
    too."""

    def print_help(self, file=None) -> None:
        if file is None:
            with _printing():
                print(self.format_help(), end="")
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clbacktest",
        description="Backtest concentrated-liquidity strategies on hourly AMM pool data.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    commands = parser.add_subparsers(dest="command", required=True)

    backtest = commands.add_parser(
        "backtest", help="run one strategy over a bar CSV and print its metrics"
    )
    _add_data_flags(backtest)
    _add_window_flags(backtest)
    backtest.add_argument(
        "--strategy",
        required=True,
        help="strategy spec: nolp | passive | fixed:a=0.10 | reset:a=0.10,r=0.05",
    )
    backtest.add_argument(
        "--trajectory", metavar="PATH", help="write per-bar rows to this CSV file"
    )
    backtest.set_defaults(handler=_cmd_backtest)

    sweep = commands.add_parser(
        "sweep", help="backtest a parameter grid and print a ranked report"
    )
    _add_data_flags(sweep)
    _add_window_flags(sweep)
    sweep.add_argument(
        "--kind", required=True, choices=(FIXED, RESET), help="strategy family to sweep"
    )
    sweep.add_argument(
        "--grid",
        metavar="MIN,MAX,STEP",
        help="override the parameter axis (applies to both axes of a reset grid)",
    )
    sweep.add_argument(
        "--dump", metavar="PATH", help="write per-configuration metrics to this CSV file"
    )
    sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "processes to run the grid on, this one included, N >= 1 (default: all "
            "CPUs this process may use); results do not depend on it"
        ),
    )
    sweep.set_defaults(handler=_cmd_sweep)

    daily = commands.add_parser(
        "daily-returns", help="estimate pool-level daily LP fee returns from a bar CSV"
    )
    _add_data_flags(daily, pair_class=False)
    _add_window_flags(daily)
    daily.set_defaults(handler=_cmd_daily_returns)

    selfcheck = commands.add_parser(
        "selfcheck", help="recompute built-in reference scenarios and verify known values"
    )
    selfcheck.set_defaults(handler=_cmd_selfcheck)

    return parser


def parse_strategy_spec(text: str, snap_spacing: int | None = None) -> StrategyConfig:
    """Parse a strategy spec ``kind[:key=value,...]`` such as ``fixed:a=0.10``.

    Only the grammar is checked here; :class:`StrategyConfig` decides which
    parameters each kind takes.
    """
    kind, _, params_text = text.strip().partition(":")
    params: dict[str, float] = {}
    if params_text.strip():
        for part in params_text.split(","):
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq or not key:
                raise UsageError(f"malformed strategy parameter {part.strip()!r}, expected key=value")
            if key in params:
                raise UsageError(f"strategy parameter {key!r} is given more than once")
            try:
                params[key] = float(value.strip())
            except ValueError:
                raise UsageError(f"strategy parameter {key!r} must be a number, got {value.strip()!r}") from None
    unknown = sorted(set(params) - {"a", "r"})
    if unknown:
        raise UsageError(f"unknown strategy parameter(s) {', '.join(unknown)}; known: a, r")
    return StrategyConfig(
        kind=kind.strip().lower(),
        a=params.get("a"),
        r=params.get("r"),
        snap_spacing=snap_spacing,
    )


def _add_data_flags(sub: argparse.ArgumentParser, pair_class: bool = True) -> None:
    sub.add_argument("--data", required=True, metavar="PATH", help="hourly bar CSV")
    sub.add_argument(
        "--fee", required=True, type=float, metavar="RATE", help="pool fee rate, e.g. 0.003"
    )
    if pair_class:
        sub.add_argument(
            "--pair-class",
            choices=PAIR_CLASSES,
            default="volatile",
            help="tick spacing and report rounding preset (default: volatile)",
        )
        sub.add_argument(
            "--snap-ticks",
            action="store_true",
            help="snap range bounds to the pair's tick spacing",
        )


def _add_window_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--from",
        dest="start",
        type=_date_flag,
        default=None,
        metavar="DATE",
        help="first UTC date to include (YYYY-MM-DD)",
    )
    sub.add_argument(
        "--to",
        dest="end",
        type=_date_flag,
        default=None,
        metavar="DATE",
        help="last UTC date to include (YYYY-MM-DD)",
    )


def _date_flag(text: str) -> dt.date:
    # fromisoformat alone also takes 20210301 or 2021-W09-1 on Python 3.11+.
    try:
        if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
            raise ValueError
        return dt.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid date value: {text!r} (expected YYYY-MM-DD)"
        ) from None


def _load_series(args, pair: PairProfile) -> BarSeries:
    series = load_bars(args.data, pair, args.fee)
    series = clip_window(series, args.start, args.end)
    _debug(args, f"loaded {len(series.bars)} bars from {args.data}")
    return series


def _debug(args, message: str) -> None:
    """Print a progress line to standard error under ``-v``."""
    if args.verbose:
        _warn(f"DEBUG clbacktest.cli: {message}")


def _warn(line: str) -> None:
    """Print ``line`` to standard error and flush it, the one place that
    writes there. A line that cannot be written is dropped: it is not part
    of the command's result, and the exit code must not depend on it. Print
    nothing when the descriptor was closed at start-up: Python then sets
    ``sys.stderr`` to None, and ``print`` would write the line to standard
    output."""
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr, flush=True)


def _snap_spacing(args, series: BarSeries) -> int | None:
    """The tick spacing that ``--snap-ticks`` asks for: the series pair's, or None."""
    return series.pair.tick_spacing if args.snap_ticks else None


def _cmd_backtest(args) -> int:
    series = _load_series(args, pair_for_class(args.pair_class))
    strategy = parse_strategy_spec(args.strategy, _snap_spacing(args, series))
    config = BacktestConfig(strategy=strategy, fee_rate=args.fee)
    with _output(args.trajectory) as output:
        result = run_backtest(config, series.bars, keep_trajectory=output is not None)
        with _printing():
            print(f"strategy  {strategy.label()}")
            print(f"bars      {len(series.bars)}")
            print(f"fees      {result.fees:.6f}")
            print(f"value     {result.value:.6f}")
            print(f"total     {result.total:.6f}")
        if output is not None:
            _empty(output)
            output.write("timestamp,fee,value,total\n")
            output.writelines(
                [
                    f"{timestamp},{fee!r},{value!r},{total!r}\n"
                    for timestamp, fee, value, total in result.trajectory
                ]
            )
            _debug(args, f"wrote {len(result.trajectory)} trajectory rows to {args.trajectory}")
    return 0


def _cmd_sweep(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    series = _load_series(args, pair_for_class(args.pair_class))
    axis = None
    if args.grid is not None:
        pieces = args.grid.split(",")
        if len(pieces) != 3:
            raise UsageError(f"--grid expects MIN,MAX,STEP, got {args.grid!r}")
        try:
            start, stop, step = (float(p) for p in pieces)
        except ValueError:
            raise UsageError(f"--grid values must be numbers, got {args.grid!r}") from None
        axis = axis_from_span(start, stop, step)
    spec = GridSpec(
        pair_class=args.pair_class,
        kind=args.kind,
        a_axis=axis,
        r_axis=axis if args.kind == RESET else None,
        snap_spacing=_snap_spacing(args, series),
    )
    grid = build_grid(spec)
    _debug(args, f"sweeping {len(grid)} configurations")
    with _output(args.dump) as output:
        baselines = compute_baselines(series)
        results = run_sweep(grid, series, jobs=args.jobs)
        summary = rank_results(results, baselines, pair_class=args.pair_class)
        with _printing():
            print(render_report(summary))
        if output is not None:
            _empty(output)
            write_results_csv(results, output)
            _debug(args, f"dumped {len(results)} rows to {args.dump}")
    return 0


@contextlib.contextmanager
def _output(path: str | None):
    """Open the output file ``path`` before the work that fills it.

    Yields None when no path is given. An OSError raised while the file is
    open, or by opening it, becomes a DataError that names ``path``, so an
    unwritable path (an empty one included) fails before any work is done
    or printed. The file is opened without emptying it; :func:`_empty`
    empties it only when the command writes it, so a command that fails
    before then leaves an existing file as it was. A file that this command
    created is removed if the command fails.
    """
    if path is None:
        yield None
        return
    created = False
    try:
        try:
            handle, created = open(path, "x", newline="", encoding="utf-8"), True
        except FileExistsError:
            handle = open(path, "a", newline="", encoding="utf-8")
        with handle:
            yield handle
    except BaseException as exc:
        if created:
            with contextlib.suppress(OSError):
                os.remove(path)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from None
        raise


def _empty(handle) -> None:
    """Empty the output file open as ``handle`` for the write that follows,
    unless it is not a regular file (a FIFO, say)."""
    if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
        handle.truncate(0)


@contextlib.contextmanager
def _printing():
    """Flush what the block printed to standard output; turn an OSError
    raised while writing or flushing it into a DataError.

    Standard output's file descriptor, if it has one, is first pointed at
    os.devnull, so that the final flush of what is left in its buffer does
    not fail again. When the descriptor was closed at start-up, Python sets
    ``sys.stdout`` to None and ``print`` writes nothing, so that counts as a
    failed write.
    """
    try:
        yield
        if sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.flush()
    except OSError as exc:
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()  # an in-memory stream has none
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise DataError(f"cannot write standard output: {exc}") from None


def _cmd_daily_returns(args) -> int:
    points = daily_fee_returns(_load_series(args, pair_for_class("volatile")))
    average = None
    if args.start is not None or args.end is not None:
        # The points all lie in the window; passing it names it in an error.
        average = average_daily_return(points, args.start, args.end)
    with _printing():
        print("date,lp_return")
        for point in points:
            print(f"{point.date.isoformat()},{point.lp_return!r}")
        if average is not None:
            print(f"average,{average!r}")
    return 0


def _cmd_selfcheck(args) -> int:
    """Recompute reference scenarios for an ETH-USDC-like pool at 2000."""
    checks: list[tuple[str, float, float, float]] = []

    narrow = liquidity_from_equal_value(2000.0, 0.10, 1000.0)
    wide = liquidity_from_equal_value(2000.0, 0.20, 1000.0)
    checks.append(("deposit 1000 at 2000 into 10% range: liquidity", narrow, 240.3, 0.005))
    checks.append(("deposit 1000 at 2000 into 20% range: liquidity", wide, 128.3, 0.005))
    checks.append(("narrow-over-wide liquidity ratio", narrow / wide, 1.875, 0.005))

    def position(liquidity: float, a: float, price: float) -> tuple[float, ...]:
        """:func:`mark` of ``liquidity`` in the range of half-width ``a`` around 2000."""
        ranges = (geometry_of(*symmetric_bounds(2000.0, a)),)
        return mark(ranges, (liquidity,), price, math.sqrt(price))

    checks.append(
        ("10% position value after drop to 1900", position(narrow, 0.10, 1900.0)[1], 967.63, 0.005)
    )
    checks.append(
        ("20% position value after drop to 1900", position(wide, 0.20, 1900.0)[1], 971.81, 0.005)
    )

    _, _, x, y = position(narrow, 0.10, 2100.0)
    checks.append(("10% position at 2100: quote tokens", y, 765.06, 0.005))
    checks.append(("10% position at 2100: base token value", x * 2100.0, 252.87, 0.005))

    state = initialize(StrategyConfig(kind=RESET, a=0.10, r=0.05), 2000.0, 1000.0)
    before = mark_to_market(state, 2100.0)
    state = on_close(state, 2100.0)
    below, above = state.ledger
    checks.append(("reset at 2100: liquidity below", below, 359.0, 0.01))
    checks.append(("reset at 2100: liquidity above", above, 119.0, 0.01))
    checks.append(("reset at 2100: new trigger lower bound", state.reset_range.lower, 2000.0, 1e-9))
    checks.append(("reset at 2100: new trigger upper bound", state.reset_range.upper, 2205.0, 1e-9))
    checks.append(("reset at 2100: value conserved", mark_to_market(state, 2100.0), before, 1e-9))

    failures = 0
    with _printing():
        for name, got, want, tolerance in checks:
            ok = abs(got - want) <= tolerance * abs(want)
            failures += 0 if ok else 1
            status = "PASS" if ok else "FAIL"
            print(f"{status}  {name}: got {got:.6f}, want {want:.6f} (tol {tolerance:g})")
        print(f"{len(checks) - failures}/{len(checks)} reference checks passed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    run()
