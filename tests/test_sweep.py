"""Grid construction, batch execution, ranking, report rendering."""

import csv
import io
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clbacktest import (
    BacktestConfig,
    Baselines,
    BarSeries,
    DataError,
    GridSpec,
    StrategyConfig,
    UsageError,
    axis_from_span,
    build_grid,
    compute_baselines,
    fixed_config,
    nolp_config,
    pair_for_class,
    rank_results,
    render_report,
    reset_config,
    run_backtest,
    run_sweep,
    write_results_csv,
)
from clbacktest import engine, sweep
from clbacktest.strategies import MIN_WIDTH
from clbacktest.sweep import MAX_GRID_POINTS, worker_count
from helpers import make_bars

VOLATILE = pair_for_class("volatile")

# Axis values a grid accepts and rejects, None and the smallest width among them.
AXIS_VALUES = (0.01, 0.2, MIN_WIDTH, None, 0.0, -0.1, MIN_WIDTH / 2, math.nan, math.inf)


def _series(prices=None, volumes=None, fee_rate=0.003):
    if prices is None:
        prices = [2000.0, 2050.0, 1980.0, 2100.0, 2020.0]
    if volumes is None:
        volumes = [0.0] + [1e6] * (len(prices) - 1)
    return BarSeries(
        pair=VOLATILE, fee_rate=fee_rate, bars=make_bars(prices, volumes=volumes, liquidity=1e5)
    )


class TestBuildGrid:
    def test_volatile_fixed_cardinality(self):
        grid = build_grid(GridSpec(pair_class="volatile", kind="fixed"))
        assert len(grid) == 166
        assert grid[0].a == 0.006
        assert grid[-1].a == 0.996

    def test_stable_fixed_cardinality(self):
        grid = build_grid(GridSpec(pair_class="stable", kind="fixed"))
        assert len(grid) == 500
        assert grid[0].a == 0.001
        assert grid[-1].a == 0.5

    def test_stable_reset_cardinality(self):
        grid = build_grid(GridSpec(pair_class="stable", kind="reset"))
        assert len(grid) == 2500
        assert reset_config(0.002, 0.004) in grid

    def test_volatile_reset_cardinality(self):
        grid = build_grid(GridSpec(pair_class="volatile", kind="reset"))
        assert len(grid) == 166 * 166
        assert grid[0] == reset_config(0.006, 0.006)

    def test_grids_are_ascending(self):
        grid = build_grid(GridSpec(pair_class="stable", kind="fixed"))
        widths = [config.a for config in grid]
        assert widths == sorted(widths)

    def test_axis_override(self):
        spec = GridSpec(pair_class="volatile", kind="fixed", a_axis=(0.05, 0.10))
        assert [c.a for c in build_grid(spec)] == [0.05, 0.10]

    def test_grid_above_the_bound_is_rejected_before_it_is_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a grid point was built")

        monkeypatch.setattr(sweep, "StrategyConfig", refuse)
        monkeypatch.setattr(sweep, "check_width", refuse)
        side = tuple(k / 10_000 for k in range(1, 318))  # 317 * 317 > MAX_GRID_POINTS
        with pytest.raises(UsageError, match=f"100489 points, more than {MAX_GRID_POINTS}"):
            build_grid(GridSpec(pair_class="stable", kind="reset", a_axis=side, r_axis=side))
        long_axis = (0.01,) * (MAX_GRID_POINTS + 1)
        with pytest.raises(UsageError, match="more than"):
            build_grid(GridSpec(pair_class="stable", kind="fixed", a_axis=long_axis))

    def test_grid_at_the_bound_is_built(self, monkeypatch):
        monkeypatch.setattr(sweep, "MAX_GRID_POINTS", 6)
        spec = GridSpec("stable", "reset", a_axis=(0.01, 0.02), r_axis=(0.01, 0.02, 0.03))
        assert len(build_grid(spec)) == 6
        with pytest.raises(UsageError, match="7 points"):
            build_grid(GridSpec("stable", "fixed", a_axis=(0.01,) * 7))

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(("fixed", "reset")),
        a_axis=st.lists(st.sampled_from(AXIS_VALUES), min_size=1, max_size=5),
        r_axis=st.lists(st.sampled_from(AXIS_VALUES), min_size=1, max_size=5),
        snap_spacing=st.sampled_from((None, 0, 10)),
    )
    def test_grid_checks_match_building_each_point(self, kind, a_axis, r_axis, snap_spacing):
        """A grid raises the first error, or builds the configurations, that
        building each point with its public constructor in grid order does."""
        if kind == "fixed":
            r_axis = [None]
        try:
            expected = [
                StrategyConfig(kind, a, r, snap_spacing) for a in a_axis for r in r_axis
            ]
        except UsageError as error:
            expected = str(error)
        spec = GridSpec("stable", kind, a_axis, r_axis if kind == "reset" else None, snap_spacing)
        try:
            got = build_grid(spec)
        except UsageError as error:
            got = str(error)
        assert got == expected

    def test_spec_validation(self):
        with pytest.raises(UsageError):
            GridSpec(pair_class="exotic", kind="fixed")
        with pytest.raises(UsageError):
            GridSpec(pair_class="stable", kind="nolp")
        with pytest.raises(UsageError):
            GridSpec(pair_class="stable", kind="fixed", r_axis=(0.01,))


class TestAxisFromSpan:
    def test_simple_span(self):
        assert axis_from_span(0.05, 0.25, 0.05) == (
            0.05,
            0.05 + 0.05,
            0.05 + 2 * 0.05,
            0.05 + 3 * 0.05,
            0.05 + 4 * 0.05,
        )

    def test_endpoint_survives_float_noise(self):
        assert len(axis_from_span(0.1, 0.3, 0.1)) == 3
        assert len(axis_from_span(0.001, 0.05, 0.001)) == 50

    def test_axis_above_the_bound_is_rejected_from_its_count(self):
        # 1e12 and an infinite number of values: building either would not
        # finish, so the rejection can only come from the computed count.
        with pytest.raises(UsageError, match=f"more than {MAX_GRID_POINTS} values"):
            axis_from_span(0.001, 1.0, 1e-12)
        with pytest.raises(UsageError, match=f"more than {MAX_GRID_POINTS} values"):
            axis_from_span(0.1, 1.0, 5e-324)
        assert len(axis_from_span(0.001, 100.0, 0.001)) == MAX_GRID_POINTS

    def test_invalid_spans(self):
        with pytest.raises(UsageError):
            axis_from_span(0.0, 0.1, 0.01)
        with pytest.raises(UsageError):
            axis_from_span(0.2, 0.1, 0.01)
        with pytest.raises(UsageError):
            axis_from_span(0.1, 0.2, -0.01)


class TestRunSweep:
    def test_results_follow_grid_order(self):
        series = _series()
        grid = [fixed_config(a) for a in (0.05, 0.10, 0.15)]
        results = run_sweep(grid, series)
        assert [config for config, _ in results] == grid

    def test_deterministic(self):
        series = _series()
        grid = build_grid(
            GridSpec(pair_class="volatile", kind="fixed", a_axis=(0.05, 0.10, 0.15))
        )
        assert run_sweep(grid, series) == run_sweep(grid, series)

    def test_parallel_matches_serial(self):
        series = _series()
        grid = [fixed_config(0.01 * k) for k in range(1, 8)]
        serial = run_sweep(grid, series, jobs=1)
        parallel = run_sweep(grid, series, jobs=3)
        assert parallel == serial

    @staticmethod
    def _chunks_run_here(monkeypatch):
        """Run every chunk of a sweep in this process, on 4 CPUs; returns
        the list that holds the chunks of the last multi-process sweep."""
        chunks = []

        def dispatch(payloads):
            chunks[:] = [configs for configs, _, _ in payloads]
            return [sweep._run_chunk(payload) for payload in payloads]

        monkeypatch.setattr(sweep, "_dispatch", dispatch)
        monkeypatch.setattr(sweep, "usable_cpus", lambda: 4)
        return chunks

    def test_each_process_runs_one_contiguous_chunk(self, monkeypatch):
        chunks = self._chunks_run_here(monkeypatch)
        series = _series()
        grid = [fixed_config(0.01 * k) for k in range(1, 8)]
        for n in range(1, 8):
            serial = run_sweep(grid[:n], series, jobs=1)
            for jobs in range(2, 5):
                workers = min(jobs, n)
                chunks.clear()
                assert run_sweep(grid[:n], series, jobs=jobs) == serial
                # The calling process runs the first chunk, of ceil(n / workers).
                assert len(chunks) == (workers if workers > 1 else 0)
                if workers > 1:
                    assert [config for chunk in chunks for config in chunk] == grid[:n]
                    assert len(chunks[0]) == -(-n // workers)
                    assert all(chunks)

    def test_the_first_failure_in_grid_order_is_raised_whatever_the_jobs(self, monkeypatch):
        self._chunks_run_here(monkeypatch)
        # Every reset of r >= 13% fails on the second bar, where its new
        # trigger overflows; a fixed range does not.
        series = _series([1.0, 1.6e308])
        for n in range(1, 8):
            for first in range(n):
                grid = [
                    reset_config(0.10, 0.13 + 0.01 * i)
                    if i == first or (i > first and i % 2)
                    else fixed_config(0.01 * (i + 1))
                    for i in range(n)
                ]
                for jobs in range(1, 5):
                    with pytest.raises(DataError) as caught:
                        run_sweep(grid, series, jobs=jobs)
                    assert f"cannot reset {grid[first].label()}: " in str(caught.value)

    def test_accepts_baseline_configs(self):
        series = _series()
        results = run_sweep([nolp_config()], series)
        assert results[0][1].fees == 0.0

    def test_rejects_empty_grid(self):
        with pytest.raises(UsageError):
            run_sweep([], _series())


class TestWorkerCount:
    def test_caps_at_cpus_and_configs(self):
        assert worker_count(100_000, 2500, 8) == 8
        assert worker_count(4, 2500, 8) == 4
        assert worker_count(8, 3, 8) == 3

    def test_default_is_every_cpu(self):
        assert worker_count(None, 2500, 6) == 6
        assert worker_count(None, 1, 6) == 1

    def test_at_least_one(self):
        assert worker_count(0, 10, 4) == 1
        assert worker_count(-3, 10, 4) == 1

    def test_default_jobs_follow_the_cpu_affinity(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep pinned to one CPU started a worker")

        monkeypatch.setattr(sweep.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(multiprocessing, "Process", refuse)
        grid = [fixed_config(0.05), fixed_config(0.10)]
        results = run_sweep(grid, _series(), jobs=None)
        assert [config for config, _ in results] == grid

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(sweep.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
        assert sweep.usable_cpus() == 3
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
        assert sweep.usable_cpus() == 1


class TestRankResults:
    def _results(self, totals, fees=None):
        series = _series()
        base = run_backtest(
            BacktestConfig(strategy=fixed_config(0.10), fee_rate=0.003), series.bars
        )
        out = []
        for i, total in enumerate(totals):
            config = fixed_config(0.01 * (i + 1))
            fee_value = fees[i] if fees else base.fees
            result = type(base)(fees=fee_value, value=base.value, total=total, trajectory=())
            out.append((config, result))
        return out

    def _baselines(self):
        return compute_baselines(_series())

    def test_argmax_total(self):
        results = self._results([0.9, 1.1, 1.0])
        summary = rank_results(results, self._baselines())
        assert summary.best_total == results[1]
        assert summary.worst_total == results[0]

    def test_tie_breaks_to_smaller_width(self):
        results = self._results([1.0, 1.0, 1.0])
        summary = rank_results(results, self._baselines())
        assert summary.best_total == results[0]
        assert summary.worst_total == results[0]

    def test_single_result_is_best_and_worst(self):
        results = self._results([1.05])
        summary = rank_results(results, self._baselines())
        assert summary.best_total == summary.worst_total == results[0]

    def test_best_fees_independent_of_total(self):
        results = self._results([1.0, 1.2, 1.1], fees=[0.5, 0.1, 0.2])
        summary = rank_results(results, self._baselines())
        assert summary.best_total == results[1]
        assert summary.best_fees == results[0]

    def test_permutation_invariance(self):
        results = self._results([0.9, 1.1, 1.0, 1.05])
        summary = rank_results(results, self._baselines())
        shuffled = [results[2], results[0], results[3], results[1]]
        again = rank_results(shuffled, self._baselines())
        assert again.best_total == summary.best_total
        assert again.worst_total == summary.worst_total
        assert again.best_fees == summary.best_fees

    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            rank_results([], self._baselines())


class TestRenderReport:
    def _summary(self, kinds=("fixed", "reset"), pair_class="volatile"):
        series = _series()
        grid = []
        if "fixed" in kinds:
            grid += [fixed_config(a) for a in (0.05, 0.10)]
        if "reset" in kinds:
            grid += [reset_config(0.05, 0.05), reset_config(0.10, 0.05)]
        results = run_sweep(grid, series)
        return rank_results(results, compute_baselines(series), pair_class=pair_class)

    def test_mixed_families_make_eight_rows(self):
        text = render_report(self._summary())
        lines = text.splitlines()
        assert len(lines) == 2 + 8  # header + separator + data rows
        labels = [line.split("|")[1].strip() for line in lines[2:]]
        assert labels == [
            "No-LP",
            "Passive",
            "Best Fixed (total)",
            "Worst Fixed (total)",
            "Best Fixed (fees)",
            "Best Reset (total)",
            "Worst Reset (total)",
            "Best Reset (fees)",
        ]

    def test_single_family_makes_five_rows(self):
        text = render_report(self._summary(kinds=("fixed",)))
        assert len(text.splitlines()) == 2 + 5

    def test_baseline_parameters_are_dashes(self):
        lines = render_report(self._summary()).splitlines()
        nolp_cells = [cell.strip() for cell in lines[2].split("|")]
        assert nolp_cells[2] == "-"

    def test_volatile_rounds_to_three_decimals(self):
        lines = render_report(self._summary()).splitlines()
        fee_cell = lines[3].split("|")[3].strip()
        assert len(fee_cell.split(".")[1]) == 3

    def test_stable_rounds_to_four_decimals(self):
        lines = render_report(self._summary(pair_class="stable")).splitlines()
        fee_cell = lines[3].split("|")[3].strip()
        assert len(fee_cell.split(".")[1]) == 4

    def test_reset_parameters_show_both_widths(self):
        text = render_report(self._summary())
        assert "a=5.0%, r=5.0%" in text


class TestWriteResultsCsv:
    def test_one_row_per_config_with_full_precision(self):
        series = _series()
        grid = [fixed_config(0.05), reset_config(0.05, 0.05)]
        results = run_sweep(grid, series)
        buffer = io.StringIO()
        write_results_csv(results, buffer)
        rows = list(csv.reader(io.StringIO(buffer.getvalue())))
        assert rows[0] == ["kind", "a", "r", "fees", "value", "total"]
        assert len(rows) == 3
        assert rows[1][0] == "fixed"
        assert rows[1][2] == ""  # fixed has no r
        assert float(rows[1][3]) == results[0][1].fees
        assert float(rows[2][5]) == results[1][1].total


def test_compute_baselines():
    series = _series()
    baselines = compute_baselines(series)
    assert isinstance(baselines, Baselines)
    assert baselines.nolp.fees == 0.0
    assert baselines.passive.fees > 0.0


def test_a_sweep_builds_its_rows_once_per_process(monkeypatch):
    builds = []
    series_rows = engine._series_rows

    def counting_rows(bars, fee_rate):
        memo = engine._memo
        rows = series_rows(bars, fee_rate)
        if engine._memo is not memo:  # a miss builds the rows and a new memo
            builds.append(len(bars))
        return rows

    monkeypatch.setattr(engine, "_series_rows", counting_rows)
    series = _series()
    compute_baselines(series)
    run_sweep(build_grid(GridSpec("volatile", "reset", (0.05, 0.1), (0.02, 0.05))), series, jobs=1)
    assert builds == [len(series.bars)]


def _run_python(script, *args):
    """Run ``script`` in a fresh interpreter that finds the package and the
    test helpers; a minute is far more than any script here needs."""
    paths = (Path(sweep.__file__).resolve().parent.parent, Path(__file__).resolve().parent)
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths))),
        text=True,
        timeout=60,
    )


# Run by a fresh interpreter with a start method as argument: a snapped
# stable Reset sweep across a depeg on two processes, then on one. Prints
# whether the results agree, how many configurations the calling process ran
# of the two-process sweep, and the grid size.
START_METHOD_SCRIPT = """
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
from clbacktest import BarSeries, GridSpec, build_grid, pair_for_class, run_sweep, sweep
from helpers import bars_from_rows, seeded_series
sweep.usable_cpus = lambda: 2
pair = pair_for_class("stable")
series = BarSeries(pair, 0.0005, bars_from_rows(seeded_series("stable_depeg", count=96)))
axis = (0.002, 0.005, 0.01, 0.02, 0.04)
grid = build_grid(GridSpec("stable", "reset", axis, axis, snap_spacing=pair.tick_spacing))
here = []
run_backtest = sweep.run_backtest
sweep.run_backtest = lambda *args, **kwargs: here.append(1) or run_backtest(*args, **kwargs)
parallel, ran_here = run_sweep(grid, series, jobs=2), len(here)
print(parallel == run_sweep(grid, series, jobs=1), ran_here, len(grid))
"""


@pytest.mark.parametrize("method", ("fork", "spawn", "forkserver"))
def test_every_start_method_gives_the_one_process_results(method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    process = _run_python(START_METHOD_SCRIPT, method)
    assert process.stderr == ""
    # The calling process runs 13 of the 25 configurations, the child 12.
    assert process.stdout == "True 13 25\n"


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a monkeypatch reaches a sweep worker only when it is forked",
)


@fork_only
def test_a_worker_that_exits_without_sending_names_its_exit_code(monkeypatch):
    monkeypatch.setattr(sweep, "usable_cpus", lambda: 2)
    monkeypatch.setattr(sweep, "_send_outcome", lambda *args: os._exit(3))
    with pytest.raises(DataError, match="^sweep worker exited with code 3 before sending"):
        run_sweep([fixed_config(0.05), fixed_config(0.10)], _series(), jobs=2)


# Run by a fresh interpreter: the calling process is interrupted in its own
# chunk while the forked worker sends a result larger than a pipe buffer.
INTERRUPT_SCRIPT = """
import os
from clbacktest import BarSeries, fixed_config, pair_for_class, run_sweep, sweep
from helpers import make_bars
sweep.usable_cpus = lambda: 2
series = BarSeries(pair_for_class("volatile"), 0.003, make_bars([2000.0, 2050.0]))
parent = os.getpid()

def run_backtest(*args, **kwargs):
    if os.getpid() == parent:
        raise KeyboardInterrupt
    return "x" * 1_000_000

sweep.run_backtest = run_backtest
try:
    run_sweep([fixed_config(0.05), fixed_config(0.10)], series, jobs=2)
except KeyboardInterrupt:
    print("interrupted")
"""


@fork_only
def test_an_interrupted_sweep_stops_its_worker():
    process = _run_python(INTERRUPT_SCRIPT)
    assert (process.stdout, process.stderr) == ("interrupted\n", "")
