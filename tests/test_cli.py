"""End-to-end command line behavior and the exit-code contract."""

import argparse
import contextlib
import csv
import errno
import gc
import hashlib
import io
import multiprocessing
import os
import re
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from clbacktest import BacktestConfig, UsageError, cli, load_bars, pair_for_class, run_backtest
from clbacktest import sweep
from clbacktest.cli import build_parser, main, parse_strategy_spec
from clbacktest.strategies import fixed_config, reset_config
from helpers import csv_text, seeded_series

README = Path(__file__).resolve().parent.parent / "README.md"

FIXTURE_ROWS = [
    (1600000000, 2000.0, 0.0, 1e4, 5e7),
    (1600003600, 2000.0, 1e6, 1e4, 5e7),
    (1600007200, 2100.0, 1e6, 1e4, 5e7),
    (1600010800, 2150.0, 1e6, 1e4, 5e7),
]


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "bars.csv"
    path.write_text(csv_text(FIXTURE_ROWS))
    return path


class TestParseStrategySpec:
    def test_plain_kinds(self):
        assert parse_strategy_spec("nolp").kind == "nolp"
        assert parse_strategy_spec("passive").kind == "passive"

    def test_fixed(self):
        config = parse_strategy_spec("fixed:a=0.10")
        assert config == fixed_config(0.10)

    def test_reset(self):
        config = parse_strategy_spec("reset:a=0.10,r=0.05")
        assert config == reset_config(0.10, 0.05)

    def test_whitespace_and_case(self):
        assert parse_strategy_spec(" Fixed: a = 0.2 ") == fixed_config(0.2)

    def test_snap_spacing_passthrough(self):
        config = parse_strategy_spec("fixed:a=0.10", snap_spacing=60)
        assert config.snap_spacing == 60

    def test_unknown_kind(self):
        with pytest.raises(UsageError, match="unknown strategy"):
            parse_strategy_spec("grid:a=0.1")

    def test_missing_and_extra_parameters(self):
        with pytest.raises(UsageError):
            parse_strategy_spec("fixed")
        with pytest.raises(UsageError):
            parse_strategy_spec("fixed:a=0.1,r=0.2")
        with pytest.raises(UsageError):
            parse_strategy_spec("reset:a=0.1")
        with pytest.raises(UsageError):
            parse_strategy_spec("passive:a=0.1")

    def test_repeated_and_unknown_parameters(self):
        with pytest.raises(UsageError, match="'a' is given more than once"):
            parse_strategy_spec("fixed:a=0.1,a=0.2")
        with pytest.raises(UsageError, match="unknown strategy parameter"):
            parse_strategy_spec("fixed:a=0.1,b=0.2")

    def test_bad_values(self):
        with pytest.raises(UsageError):
            parse_strategy_spec("fixed:a=ten")
        with pytest.raises(UsageError, match="a > 0"):
            parse_strategy_spec("fixed:a=-1")
        with pytest.raises(UsageError):
            parse_strategy_spec("fixed:a")


class TestBacktestCommand:
    def test_prints_three_metrics(self, data_file, capsys):
        code = main(
            ["backtest", "--data", str(data_file), "--fee", "0.003", "--strategy", "fixed:a=0.10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        for name in ("fees", "value", "total"):
            assert name in out
        series = load_bars(data_file, pair_for_class("volatile"), 0.003)
        expected = run_backtest(
            BacktestConfig(strategy=fixed_config(0.10), fee_rate=0.003), series.bars
        )
        assert f"{expected.fees:.6f}" in out
        assert f"{expected.total:.6f}" in out

    def test_negative_width_is_a_usage_error(self, data_file, capsys):
        code = main(
            ["backtest", "--data", str(data_file), "--fee", "0.003", "--strategy", "fixed:a=-1"]
        )
        assert code == 2
        assert "a > 0" in capsys.readouterr().err

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        code = main(
            [
                "backtest",
                "--data",
                str(tmp_path / "nope.csv"),
                "--fee",
                "0.003",
                "--strategy",
                "nolp",
            ]
        )
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_csv_names_the_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        rows = list(FIXTURE_ROWS)
        rows[1] = (1600003600, 2000.0, -5.0, 1e4, 5e7)
        path.write_text(csv_text(rows))
        code = main(["backtest", "--data", str(path), "--fee", "0.003", "--strategy", "nolp"])
        assert code == 1
        assert "row 2" in capsys.readouterr().err

    def test_trajectory_file_matches_engine(self, data_file, tmp_path):
        out_path = tmp_path / "traj.csv"
        code = main(
            [
                "backtest",
                "--data",
                str(data_file),
                "--fee",
                "0.003",
                "--strategy",
                "reset:a=0.10,r=0.05",
                "--trajectory",
                str(out_path),
            ]
        )
        assert code == 0
        series = load_bars(data_file, pair_for_class("volatile"), 0.003)
        expected = run_backtest(
            BacktestConfig(strategy=reset_config(0.10, 0.05), fee_rate=0.003), series.bars
        )
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["timestamp", "fee", "value", "total"]
        assert len(rows) == 1 + len(expected.trajectory)
        for row, point in zip(rows[1:], expected.trajectory):
            assert int(row[0]) == point.timestamp
            assert float(row[1]) == point.fee
            assert float(row[2]) == point.value
            assert float(row[3]) == point.total

    def test_only_a_trajectory_file_keeps_the_trajectory(
        self, data_file, tmp_path, capsys, monkeypatch
    ):
        kept = []

        def recording_run_backtest(config, bars, keep_trajectory=True):
            kept.append(keep_trajectory)
            return run_backtest(config, bars, keep_trajectory)

        monkeypatch.setattr(cli, "run_backtest", recording_run_backtest)
        argv = ["backtest", "--data", str(data_file), "--fee", "0.003", "--strategy", "passive"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--trajectory", str(tmp_path / "traj.csv")]) == 0
        assert capsys.readouterr() == plain
        assert kept == [False, True]

    @pytest.mark.parametrize("name", ("missing-dir/traj.csv", ""), ids=("missing-dir", "empty"))
    def test_unwritable_trajectory_fails_before_the_run(self, data_file, tmp_path, capsys, name):
        path = str(tmp_path / name) if name else name
        code = main(
            ["backtest", "--data", str(data_file), "--fee", "0.003"]
            + ["--strategy", "fixed:a=0.10", "--trajectory", path]
        )
        captured = capsys.readouterr()
        assert code == 1
        unwritable = rf"error: cannot write {re.escape(path)}: \[Errno 2\] [^\n]+\n"
        assert re.fullmatch(unwritable, captured.err)
        assert captured.out == ""

    def test_window_filter(self, data_file, capsys):
        code = main(
            [
                "backtest",
                "--data",
                str(data_file),
                "--fee",
                "0.003",
                "--strategy",
                "nolp",
                "--from",
                "2020-09-13",
                "--to",
                "2020-09-13",
            ]
        )
        assert code == 0
        assert "bars      4" in capsys.readouterr().out

    def test_empty_window_is_a_usage_error(self, data_file, capsys):
        code = main(
            [
                "backtest",
                "--data",
                str(data_file),
                "--fee",
                "0.003",
                "--strategy",
                "nolp",
                "--from",
                "2024-01-01",
            ]
        )
        assert code == 2
        assert "selects no bars" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["fixed:a=3e-16", "fixed:a=1e-300", "reset:a=0.1,r=1e-12"])
    def test_unrepresentable_width_is_a_usage_error(self, data_file, capsys, spec):
        code = main(["backtest", "--data", str(data_file), "--fee", "0.003", "--strategy", spec])
        assert code == 2
        assert "> 0 (at least 1e-09)" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["passive", "fixed:a=0.10"])
    def test_ledger_overflow_names_the_bar(self, tmp_path, capsys, strategy):
        path = tmp_path / "overflow.csv"
        rows = list(FIXTURE_ROWS)
        rows[1] = (1600003600, 2000.0, 1e308, 1e-300, 5e7)
        path.write_text(csv_text(rows))
        code = main(["backtest", "--data", str(path), "--fee", "0.003", "--strategy", strategy])
        assert code == 1
        assert "error: bar 2: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "prices, strategy, bar",
        [
            ((1e39, 2000.0), "fixed:a=0.10", 1),
            ((2000.0, 1e39), "reset:a=0.10,r=0.05", 2),
        ],
    )
    def test_snap_beyond_the_tick_range_names_the_bar(
        self, tmp_path, capsys, prices, strategy, bar
    ):
        path = tmp_path / "huge.csv"
        rows = [(1600000000 + 3600 * i, p, 1e6, 1e4, "") for i, p in enumerate(prices)]
        path.write_text(csv_text(rows))
        args = ["backtest", "--data", str(path), "--fee", "0.003", "--strategy", strategy]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--snap-ticks"]) == 1
        assert f"error: bar {bar}: " in capsys.readouterr().err

    def test_undecodable_csv_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(csv_text(FIXTURE_ROWS).replace("2100.0", "2100.0\xa3").encode("latin-1"))
        code = main(["backtest", "--data", str(path), "--fee", "0.003", "--strategy", "nolp"])
        assert code == 1
        assert "not UTF-8" in capsys.readouterr().err

    def test_timestamp_without_a_date_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "far.csv"
        path.write_text(csv_text([(10**12, 2000.0, 0.0, 1e4, "")]))
        args = ["backtest", "--data", str(path), "--fee", "0.003", "--strategy", "nolp"]
        assert main(args + ["--from", "2020-01-01"]) == 1
        assert "timestamp 1000000000000 has no UTC calendar date" in capsys.readouterr().err

    def test_bad_date_flag_exits_two(self, data_file, capsys):
        args = ["backtest", "--data", str(data_file), "--fee", "0.003", "--strategy", "nolp"]
        for flag, value in [
            ("--from", "tomorrow"),
            ("--from", "2021-13-01"),
            ("--to", ""),
            # Other ISO 8601 forms, which fromisoformat takes on Python 3.11+.
            ("--from", "20210301"),
            ("--from", "2021-W09-1"),
            ("--from", "2021-03-01T00:00"),
        ]:
            assert main(args + [flag, value]) == 2
            assert capsys.readouterr().err.splitlines()[-1].endswith(
                f"error: argument {flag}: invalid date value: {value!r} (expected YYYY-MM-DD)"
            )


class TestSweepCommand:
    def test_prints_report_and_dump(self, data_file, tmp_path, capsys):
        dump = tmp_path / "results.csv"
        code = main(
            [
                "sweep",
                "--data",
                str(data_file),
                "--fee",
                "0.003",
                "--kind",
                "fixed",
                "--grid",
                "0.05,0.15,0.05",
                "--dump",
                str(dump),
                "--jobs",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Best Fixed (total)" in out
        assert "| No-LP | - |" in out
        with open(dump, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + 3

    def test_reports_are_byte_identical_across_runs(self, data_file, capsys):
        args = [
            "sweep",
            "--data",
            str(data_file),
            "--fee",
            "0.003",
            "--kind",
            "reset",
            "--grid",
            "0.05,0.10,0.05",
            "--jobs",
            "1",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_parallel_output_matches_serial(self, data_file, capsys):
        args = [
            "sweep",
            "--data",
            str(data_file),
            "--fee",
            "0.003",
            "--kind",
            "fixed",
            "--grid",
            "0.02,0.12,0.02",
        ]
        assert main(args + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    @pytest.mark.parametrize(
        "grid, message",
        [
            ("0.1,0.2", "--grid expects MIN,MAX,STEP, got '0.1,0.2'"),
            ("0.1,x,0.1", "--grid values must be numbers, got '0.1,x,0.1'"),
            ("", "--grid expects MIN,MAX,STEP, got ''"),
        ],
        ids=("two-values", "not-a-number", "empty"),
    )
    def test_bad_grid_flag(self, data_file, capsys, grid, message):
        code = main(
            [
                "sweep",
                "--data",
                str(data_file),
                "--fee",
                "0.003",
                "--kind",
                "fixed",
                "--grid",
                grid,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("jobs", ("0", "-3"))
    def test_jobs_below_one_is_a_usage_error(self, data_file, capsys, monkeypatch, jobs):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        monkeypatch.setattr(multiprocessing, "Process", no_sweep)
        code = main(
            ["sweep", "--data", str(data_file), "--fee", "0.003", "--kind", "fixed"]
            + ["--jobs", jobs]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert f"--jobs must be at least 1, got {jobs}" in captured.err
        assert captured.out == ""

    def test_ledger_overflow_in_workers_exits_one(self, tmp_path, capsys):
        # Passive's fee share stays finite; the concentrated Fixed ranges
        # earn 100 to 200 times more and overflow inside the sweep workers.
        path = tmp_path / "overflow.csv"
        rows = list(FIXTURE_ROWS)
        rows[1] = (1600003600, 2000.0, 1e308, 1e-3, 5e7)
        path.write_text(csv_text(rows))
        code = main(
            ["sweep", "--data", str(path), "--fee", "0.003", "--kind", "fixed"]
            + ["--grid", "0.01,0.02,0.01", "--jobs", "2"]
        )
        assert code == 1
        assert "error: bar 2: " in capsys.readouterr().err

    def test_failure_names_the_same_grid_point_whatever_the_jobs(
        self, tmp_path, capsys, monkeypatch
    ):
        # Every reset of r >= 13% fails on the second bar; each process's
        # chunk stops at its own first failure, and the sweep reports the
        # first in grid order.
        path = tmp_path / "overflow.csv"
        rows = [(1600000000, 1.0, 0.0, 1e4, 5e7), (1600003600, 1.6e308, 1e6, 1e4, 5e7)]
        path.write_text(csv_text(rows))
        monkeypatch.setattr(sweep, "usable_cpus", lambda: 2)
        errors = []
        for jobs in ("1", "2"):
            code = main(
                ["sweep", "--data", str(path), "--fee", "0.003", "--kind", "reset"]
                + ["--grid", "0.10,0.15,0.01", "--jobs", jobs]
            )
            assert code == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "cannot reset reset(a=10.0%, r=13.0%)" in errors[0]

    @pytest.mark.parametrize("jobs", (2, 3))
    def test_a_worker_that_cannot_start_exits_one(self, data_file, capsys, monkeypatch, jobs):
        # No process is started: the last start fails as fork does when the
        # system is out of processes, and the ones before it only record.
        calls, pipes = [], []
        real_pipe = multiprocessing.Pipe

        def recording_pipe(duplex=True):
            ends = real_pipe(duplex)
            pipes.extend(ends)
            return ends

        def start(process):
            if len(calls) == jobs - 2:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            calls.append("start")

        monkeypatch.setattr(multiprocessing, "Pipe", recording_pipe)
        monkeypatch.setattr(multiprocessing.Process, "start", start)
        monkeypatch.setattr(multiprocessing.Process, "terminate", lambda p: calls.append("terminate"))
        monkeypatch.setattr(multiprocessing.Process, "join", lambda p, t=None: calls.append("join"))
        monkeypatch.setattr(sweep, "usable_cpus", lambda: jobs)
        code = main(
            ["sweep", "--data", str(data_file), "--fee", "0.003", "--kind", "fixed"]
            + ["--jobs", str(jobs)]
        )
        assert code == 1
        assert capsys.readouterr() == (
            "",
            f"error: cannot start a sweep worker: [Errno {errno.EAGAIN}] "
            f"{os.strerror(errno.EAGAIN)}\n",
        )
        assert calls == ["start", "terminate", "join"] * (jobs - 2)
        assert len(pipes) == 2 * (jobs - 1)
        assert all(end.closed for end in pipes)

    def test_missing_file_exits_one(self, tmp_path):
        code = main(
            [
                "sweep",
                "--data",
                str(tmp_path / "absent.csv"),
                "--fee",
                "0.003",
                "--kind",
                "fixed",
                "--grid",
                "0.1,0.2,0.1",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("name", ("missing-dir/results.csv", ""), ids=("missing-dir", "empty"))
    def test_unwritable_dump_fails_before_the_sweep(self, data_file, tmp_path, capsys, name):
        path = str(tmp_path / name) if name else name
        code = main(
            ["sweep", "--data", str(data_file), "--fee", "0.003", "--kind", "fixed"]
            + ["--grid", "0.05,0.15,0.05", "--jobs", "1", "--dump", path]
        )
        captured = capsys.readouterr()
        assert code == 1
        unwritable = rf"error: cannot write {re.escape(path)}: \[Errno 2\] [^\n]+\n"
        assert re.fullmatch(unwritable, captured.err)
        assert captured.out == ""


@pytest.fixture
def seeded_file(tmp_path):
    """300 seeded bars on which a narrow Reset fires on most bars."""
    path = tmp_path / "seeded.csv"
    path.write_text(csv_text([row + ("",) for row in seeded_series("reset_heavy", count=300)]))
    return path


def _csv_bytes(header, rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


class TestOutputFiles:
    """The CLI's CSV files equal csv.writer over in-process results, byte for byte."""

    @pytest.mark.parametrize("snap", [False, True], ids=["plain", "snapped"])
    @pytest.mark.parametrize("spec", ["nolp", "passive", "fixed:a=0.10", "reset:a=0.05,r=0.02"])
    def test_trajectory(self, seeded_file, tmp_path, spec, snap):
        path = tmp_path / "trajectory.csv"
        argv = ["backtest", "--data", str(seeded_file), "--fee", "0.003", "--strategy", spec]
        argv += ["--trajectory", str(path)] + (["--snap-ticks"] if snap else [])
        assert main(argv) == 0
        pair = pair_for_class("volatile")
        strategy = parse_strategy_spec(spec, snap_spacing=pair.tick_spacing if snap else None)
        bars = load_bars(seeded_file, pair, 0.003).bars
        result = run_backtest(BacktestConfig(strategy=strategy, fee_rate=0.003), bars)
        header = ("timestamp", "fee", "value", "total")
        assert path.read_bytes() == _csv_bytes(header, result.trajectory)

    @pytest.mark.parametrize("kind, grid", [("fixed", "0.02,0.2,0.02"), ("reset", "0.02,0.1,0.02")])
    def test_dump(self, seeded_file, tmp_path, kind, grid):
        path = tmp_path / "dump.csv"
        argv = ["sweep", "--data", str(seeded_file), "--fee", "0.003", "--kind", kind]
        argv += ["--grid", grid, "--jobs", "1", "--dump", str(path)]
        assert main(argv) == 0
        axis = sweep.axis_from_span(*(float(value) for value in grid.split(",")))
        spec = sweep.GridSpec("volatile", kind, a_axis=axis, r_axis=axis if kind == "reset" else None)
        series = load_bars(seeded_file, pair_for_class("volatile"), 0.003)
        results = sweep.run_sweep(sweep.build_grid(spec), series, jobs=1)
        rows = [(c.kind, c.a, c.r, r.fees, r.value, r.total) for c, r in results]
        header = ("kind", "a", "r", "fees", "value", "total")
        assert path.read_bytes() == _csv_bytes(header, rows)


class TestOutputOnFailure:
    """A failed command leaves an existing output file as it was and leaves
    no file it created behind."""

    @pytest.fixture
    def overflow_file(self, tmp_path):
        path = tmp_path / "overflow.csv"
        rows = list(FIXTURE_ROWS)
        rows[1] = (1600003600, 2000.0, 1e308, 1e-300, 5e7)
        path.write_text(csv_text(rows))
        return path

    @pytest.mark.parametrize("existing", (True, False), ids=("existing", "new"))
    def test_overflowing_backtest(self, overflow_file, tmp_path, capsys, existing):
        path = tmp_path / "trajectory.csv"
        if existing:
            path.write_text("old\n")
        code = main(
            ["backtest", "--data", str(overflow_file), "--fee", "0.003"]
            + ["--strategy", "passive", "--trajectory", str(path)]
        )
        assert code == 1
        assert "error: bar 2: " in capsys.readouterr().err
        if existing:
            assert path.read_text() == "old\n"
        else:
            assert not path.exists()

    @pytest.mark.parametrize("on_write", (True, False))
    def test_sweep_dump_with_failing_stdout(
        self, data_file, tmp_path, capsys, monkeypatch, on_write
    ):
        path = tmp_path / "dump.csv"
        path.write_text("old\n")
        monkeypatch.setattr(sys, "stdout", FailingStdout(on_write))
        code = main(
            ["sweep", "--data", str(data_file), "--fee", "0.003", "--kind", "fixed"]
            + ["--grid", "0.05,0.15,0.05", "--jobs", "1", "--dump", str(path)]
        )
        assert code == 1
        assert "error: cannot write standard output" in capsys.readouterr().err
        assert path.read_text() == "old\n"

    def test_a_successful_command_replaces_the_file(self, data_file, tmp_path, capsys):
        path = tmp_path / "trajectory.csv"
        argv = ["backtest", "--data", str(data_file), "--fee", "0.003", "--strategy", "nolp"]
        assert main(argv + ["--trajectory", str(path)]) == 0
        fresh = path.read_bytes()
        path.write_text("old\n" * 100)
        assert main(argv + ["--trajectory", str(path)]) == 0
        assert path.read_bytes() == fresh

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_a_fifo_is_written_and_not_replaced(self, data_file, tmp_path, capsys):
        argv = ["backtest", "--data", str(data_file), "--fee", "0.003", "--strategy", "nolp"]
        assert main(argv + ["--trajectory", str(tmp_path / "plain.csv")]) == 0
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(argv + ["--trajectory", str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [(tmp_path / "plain.csv").read_bytes()]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)


class TestDailyReturnsCommand:
    def test_prints_rows(self, data_file, capsys):
        code = main(["daily-returns", "--data", str(data_file), "--fee", "0.003"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "date,lp_return"
        assert lines[1].startswith("2020-09-13,")
        expected = (0.0 + 1e6 + 1e6 + 1e6) * 0.003 / 5e7
        assert float(lines[1].split(",")[1]) == pytest.approx(expected, rel=1e-12)

    def test_window_appends_average(self, data_file, capsys):
        code = main(
            [
                "daily-returns",
                "--data",
                str(data_file),
                "--fee",
                "0.003",
                "--from",
                "2020-09-13",
                "--to",
                "2020-09-13",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("average,")

    def test_window_ignores_missing_tvl_outside_it(self, tmp_path, capsys):
        # 2020-09-14 has no tvl; 2020-09-15 has it on every bar.
        day = 1600041600
        rows = [(day, 2000.0, 1e6, 1e4, ""), (day + 3600, 2000.0, 1e6, 1e4, "")]
        rows += [(day + 86400 + 3600 * i, 2000.0, 1e6 * (i + 1), 1e4, 4e7) for i in range(3)]
        path = tmp_path / "gap.csv"
        path.write_text(csv_text(rows))
        args = ["daily-returns", "--data", str(path), "--fee", "0.003"]
        assert main(args) == 2
        assert "bar at timestamp 1600041600 has no tvl" in capsys.readouterr().err
        assert main(args + ["--from", "2020-09-15"]) == 0
        expected = (1e6 + 2e6 + 3e6) * 0.003 / 4e7
        assert capsys.readouterr().out.splitlines() == [
            "date,lp_return",
            f"2020-09-15,{expected!r}",
            f"average,{expected!r}",
        ]

    @pytest.mark.parametrize(
        "window, error",
        [
            ([], "error: day 2021-01-01: the fee return overflows (volume inf, tvl 1.0)\n"),
            (
                ["--from", "2021-01-02"],
                "error: window 2021-01-02..None: the average daily return overflows\n",
            ),
        ],
        ids=["day", "average"],
    )
    def test_overflow_exits_one(self, tmp_path, capsys, window, error):
        day = 1609459200  # 2021-01-01 00:00 UTC
        rows = [(day, 1.0, 1e308, 1.0, 1.0), (day + 3600, 1.0, 1e308, 1.0, 1.0)]
        rows += [(day + 86400 * d, 1.0, 1e308, 1.0, 0.003) for d in (1, 2)]
        path = tmp_path / "overflow.csv"
        path.write_text(csv_text(rows))
        code = main(["daily-returns", "--data", str(path), "--fee", "0.003", *window])
        assert code == 1
        assert capsys.readouterr() == ("", error)

    def test_missing_tvl_exits_two(self, tmp_path, capsys):
        path = tmp_path / "no_tvl.csv"
        rows = [(ts, p, v, lq, "") for ts, p, v, lq, _ in FIXTURE_ROWS]
        path.write_text(csv_text(rows))
        code = main(["daily-returns", "--data", str(path), "--fee", "0.003"])
        assert code == 2
        assert "tvl" in capsys.readouterr().err


SELFCHECK_OUTPUT = """\
PASS  deposit 1000 at 2000 into 10% range: liquidity: got 240.244133, want 240.300000 (tol 0.005)
PASS  deposit 1000 at 2000 into 20% range: liquidity: got 128.319283, want 128.300000 (tol 0.005)
PASS  narrow-over-wide liquidity ratio: got 1.872237, want 1.875000 (tol 0.005)
PASS  10% position value after drop to 1900: got 968.111660, want 967.630000 (tol 0.005)
PASS  20% position value after drop to 1900: got 971.320797, want 971.810000 (tol 0.005)
PASS  10% position at 2100: quote tokens: got 765.324995, want 765.060000 (tol 0.005)
PASS  10% position at 2100: base token value: got 253.122783, want 252.870000 (tol 0.005)
PASS  reset at 2100: liquidity below: got 358.867421, want 359.000000 (tol 0.01)
PASS  reset at 2100: liquidity above: got 118.691433, want 119.000000 (tol 0.01)
PASS  reset at 2100: new trigger lower bound: got 2000.000000, want 2000.000000 (tol 1e-09)
PASS  reset at 2100: new trigger upper bound: got 2205.000000, want 2205.000000 (tol 1e-09)
PASS  reset at 2100: value conserved: got 1018.447779, want 1018.447779 (tol 1e-09)
12/12 reference checks passed
"""


class TestSelfcheckCommand:
    def test_all_reference_scenarios_pass(self, capsys):
        code = main(["selfcheck"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == SELFCHECK_OUTPUT


class TestVerbose:
    def test_debug_lines_reach_stderr_after_an_earlier_command(self, data_file, tmp_path, capsys):
        common = ["--data", str(data_file), "--fee", "0.003"]
        assert main(["backtest", *common, "--strategy", "nolp"]) == 0
        assert capsys.readouterr().err == ""
        trajectory, dump = tmp_path / "trajectory.csv", tmp_path / "dump.csv"
        backtest_args = ["--strategy", "nolp", "--trajectory", str(trajectory)]
        assert main(["-v", "backtest", *common, *backtest_args]) == 0
        assert capsys.readouterr().err == (
            f"DEBUG clbacktest.cli: loaded 4 bars from {data_file}\n"
            f"DEBUG clbacktest.cli: wrote 4 trajectory rows to {trajectory}\n"
        )
        sweep_args = ["--kind", "fixed", "--grid", "0.05,0.20,0.05", "--jobs", "1"]
        sweep_args += ["--dump", str(dump)]
        assert main(["-v", "sweep", *common, *sweep_args]) == 0
        assert capsys.readouterr().err == (
            f"DEBUG clbacktest.cli: loaded 4 bars from {data_file}\n"
            "DEBUG clbacktest.cli: sweeping 4 configurations\n"
            f"DEBUG clbacktest.cli: dumped 4 rows to {dump}\n"
        )

    @pytest.mark.parametrize(
        "args, code",
        [
            (["-v", "backtest", "--data", "{data}", "--fee", "0.003", "--strategy", "nolp"], 0),
            (["backtest", "--data", "{data}", "--fee", "2", "--strategy", "nolp"], 2),
            (["backtest", "--data", "{data}.absent", "--fee", "0.003", "--strategy", "nolp"], 1),
        ],
        ids=("verbose", "usage-error", "data-error"),
    )
    def test_unwritable_stderr_keeps_the_exit_code(
        self, data_file, capsys, monkeypatch, args, code
    ):
        monkeypatch.setattr(sys, "stderr", FailingStdout(on_write=True))
        assert main([arg.format(data=data_file) for arg in args]) == code
        out = capsys.readouterr().out
        if code == 0:
            assert out.startswith("strategy  nolp\nbars      4\n")
        else:
            assert out == ""


@pytest.fixture
def collector():
    """Restore the cyclic garbage collector's state after the test."""
    collecting = gc.isenabled()
    yield
    if collecting:
        gc.enable()
    else:
        gc.disable()


class TestCollector:
    @pytest.mark.parametrize("collecting", (True, False))
    @pytest.mark.parametrize(
        "strategy, data, code",
        [("nolp", "bars.csv", 0), ("nolp", "absent.csv", 1), ("fixed:a=-1", "bars.csv", 2)],
    )
    def test_main_restores_the_collector_state(
        self, data_file, collector, capsys, monkeypatch, collecting, strategy, data, code
    ):
        seen = []

        def recording_load_bars(*args):
            seen.append(gc.isenabled())
            return load_bars(*args)

        monkeypatch.setattr(cli, "load_bars", recording_load_bars)
        gc.enable() if collecting else gc.disable()
        code_seen = main(
            ["backtest", "--data", str(data_file.parent / data), "--fee", "0.003"]
            + ["--strategy", strategy]
        )
        assert (code_seen, seen) == (code, [False])
        assert gc.isenabled() is collecting

    def test_cyclic_garbage_does_not_grow_with_the_grid(self, data_file, collector, capsys):
        def garbage_after(grid):
            gc.collect()
            code = main(
                ["sweep", "--data", str(data_file), "--fee", "0.003", "--kind", "fixed"]
                + ["--grid", grid, "--jobs", "1"]
            )
            assert code == 0
            return gc.collect()

        gc.enable()
        garbage_after("0.05,0.20,0.05")  # warm-up: first-call imports and caches
        small = garbage_after("0.05,0.20,0.05")
        large = garbage_after("0.001,0.400,0.001")
        assert small == large


# Run by a fresh interpreter with the fixture, a trajectory and a dump path as
# arguments: a backtest and a one-process sweep, then a sweep on two workers.
# The interpreter runs with -S, so no .pth file in site-packages can load a
# module before the package does.
STARTUP_SCRIPT = """
import contextlib, io, sys
UNUSED = ("dataclasses", "inspect", "concurrent.futures", "multiprocessing", "logging")
preloaded = [name for name in UNUSED if name in sys.modules]
from clbacktest import cli, sweep
data, trajectory, dump = sys.argv[1:]
common = ["--data", data, "--fee", "0.003"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["backtest", *common, "--strategy", "reset:a=0.1,r=0.05"]
                 + ["--snap-ticks", "--trajectory", trajectory]),
        cli.main(["sweep", *common, "--kind", "fixed", "--jobs", "1", "--dump", dump]),
    ]
    loaded = [name for name in UNUSED if name in sys.modules]
    sweep.usable_cpus = lambda: 2
    codes.append(cli.main(["sweep", *common, "--kind", "fixed", "--jobs", "2"]))
print(preloaded, codes, loaded, [name for name in UNUSED if name in sys.modules])
"""


def test_commands_in_one_process_load_no_pool_or_dataclasses(data_file, tmp_path):
    src = Path(cli.__file__).resolve().parent.parent
    process = subprocess.run(
        [sys.executable, "-S", "-c", STARTUP_SCRIPT, str(data_file)]
        + [str(tmp_path / "trajectory.csv"), str(tmp_path / "dump.csv")],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        text=True,
        timeout=120,
    )
    assert process.stderr == ""
    # Only the sweep on two processes loads multiprocessing, and no command
    # loads concurrent.futures.
    assert process.stdout == "[] [0, 0, 0] [] ['multiprocessing']\n"


class FailingStdout(io.StringIO):
    """A standard output whose writes (or only its flushes) fail."""

    def __init__(self, on_write: bool):
        super().__init__()
        self.on_write = on_write

    def write(self, text):
        if self.on_write:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return super().write(text)

    def flush(self):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class TestStandardOutput:
    @pytest.mark.parametrize("on_write", (True, False))
    @pytest.mark.parametrize(
        "command",
        [
            ["backtest", "--data", "{data}", "--fee", "0.003", "--strategy", "nolp"],
            ["sweep", "--data", "{data}", "--fee", "0.003", "--kind", "fixed", "--jobs", "1"],
            ["daily-returns", "--data", "{data}", "--fee", "0.003"],
            ["selfcheck"],
        ],
        ids=lambda command: command[0],
    )
    def test_failed_write_exits_one(self, data_file, capsys, monkeypatch, command, on_write):
        monkeypatch.setattr(sys, "stdout", FailingStdout(on_write))
        code = main([arg.format(data=data_file) for arg in command])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: cannot write standard output: [Errno 32] Broken pipe\n"
        )


# The two ways a process enters the command line, both through cli.run: as
# a module, and as the console script does, importing run and calling it
# with sys.argv set.
ENTRY_POINTS = {
    "module": ["-m", "clbacktest.cli"],
    "script": ["-c", "from clbacktest.cli import run; run()"],
}

# Commands run from a directory that holds bars.csv and days.csv; a command
# that writes a file writes out.csv.
EXIT_CASES = {
    "backtest": ["backtest", "--data", "bars.csv", "--fee", "0.003"]
    + ["--strategy", "reset:a=0.10,r=0.05", "--snap-ticks", "--trajectory", "out.csv"],
    "sweep": ["sweep", "--data", "bars.csv", "--fee", "0.003", "--kind", "fixed"]
    + ["--jobs", "2", "--dump", "out.csv"],
    "daily-returns": ["daily-returns", "--data", "days.csv", "--fee", "0.003"],
    "selfcheck": ["selfcheck"],
    "data-error": ["backtest", "--data", "absent.csv", "--fee", "0.003", "--strategy", "nolp"],
    "usage-error": ["backtest", "--data", "bars.csv", "--fee", "0.003", "--strategy", "fixed:a=-1"],
    "argparse-error": ["backtest", "--data", "bars.csv", "--strategy", "nolp"],
    "verbose": ["-v", "sweep", "--data", "bars.csv", "--fee", "0.003", "--kind", "fixed"]
    + ["--grid", "0.05,0.20,0.05", "--jobs", "1", "--dump", "out.csv"],
}

# 400 days of two bars each: daily-returns prints more than the 8 KiB that
# standard output buffers.
DAYS_ROWS = [(1600041600 + 43200 * i, 2000.0, 1e6 + i, 1e4, 4e7) for i in range(800)]

# Closes the descriptor named by its first argument, then runs Python on the
# other arguments.
CLOSE_FD = (
    "import os, sys; os.close(int(sys.argv[1])); "
    "os.execv(sys.executable, [sys.executable, *sys.argv[2:]])"
)


# Run with the command's arguments: a sweep whose forked worker dies, by
# the statement ``death``, before it sends its results.
WORKER_DEATH_SCRIPT = """
import multiprocessing, os
multiprocessing.set_start_method("fork")
from clbacktest import cli, sweep
sweep.usable_cpus = lambda: 2
sweep._send_outcome = lambda *args: {death}
cli.run()
"""

# Run with a start method and then the command's arguments: the command on
# at least two CPUs, its workers started by that method.
START_METHOD_SCRIPT = """
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv.pop(1))
from clbacktest import cli, sweep
sweep.usable_cpus = lambda: 2
cli.run()
"""


# Commands of the fault table besides EXIT_CASES.
FAULT_COMMANDS = {
    **EXIT_CASES,
    "dump-full": ["sweep", "--data", "bars.csv", "--fee", "0.003", "--kind", "fixed"]
    + ["--jobs", "1", "--dump", "/dev/full"],
    "trajectory-full": ["backtest", "--data", "bars.csv", "--fee", "0.003", "--strategy", "nolp"]
    + ["--trajectory", "/dev/full"],
    # /proc/self/mem opens, but reading it from offset 0 fails with EIO.
    "mem-backtest": ["backtest", "--strategy", "nolp"]
    + ["--data", "/proc/self/mem", "--fee", "0.003"],
    "mem-daily-returns": ["daily-returns", "--data", "/proc/self/mem", "--fee", "0.003"],
    "help": ["backtest", "--help"],
}

ERROR_LINE = rb"error: [^\n]+\n"
# argparse's usage message, whose last line is its own error line.
USAGE_LINES = rb"usage: (clbacktest backtest) [^\n]+\n( [^\n]+\n)*\1: error: [^\n]+\n"
DEBUG_LINES = rb"(DEBUG clbacktest\.cli: [^\n]+\n)+"
STDOUT_CLOSED = rb"error: cannot write standard output: \[Errno 9\] Bad file descriptor\n"
STDOUT_FULL = rb"error: cannot write standard output: \[Errno 28\] No space left on device\n"
FILE_FULL = rb"error: cannot write /dev/full: \[Errno 28\] No space left on device\n"
WORKER_DIED = rb"error: sweep worker %s before sending its results\n"
PRINTED = None

# The fault table. A process that meets the fault while it runs the command
# (a key of FAULT_COMMANDS) ends with the exit code, and all it writes to
# standard error matches the pattern: one error: line when the code is not
# 0 (argparse's ``PROG: error:`` line counts as one). With the fault on
# standard error, nothing reaches that stream, and the
# pattern matches what an in-process main writes there. The last field is
# all the process writes to standard output, or, for PRINTED, what an
# in-process main prints: nothing follows an error. A fault is
# STREAM:closed (its descriptor closed before Python starts), STREAM:full
# (/dev/full), STREAM:no-reader (a pipe whose read end is closed),
# worker:STATEMENT (a forked sweep worker runs STATEMENT in place of sending
# its results), or "" for none. A fault that starts with UNBUFFERED runs the
# process with PYTHONUNBUFFERED=1, so standard output is not buffered.
UNBUFFERED = "unbuffered "
FAULTS = {
    "fd1-closed-backtest": ("stdout:closed", "backtest", 1, STDOUT_CLOSED, b""),
    "fd1-closed-sweep": ("stdout:closed", "sweep", 1, STDOUT_CLOSED, b""),
    "fd1-closed-daily-returns": ("stdout:closed", "daily-returns", 1, STDOUT_CLOSED, b""),
    "fd1-closed-selfcheck": ("stdout:closed", "selfcheck", 1, STDOUT_CLOSED, b""),
    "fd1-closed-help": ("stdout:closed", "help", 1, STDOUT_CLOSED, b""),
    "fd2-closed-selfcheck": ("stderr:closed", "selfcheck", 0, b"", SELFCHECK_OUTPUT.encode()),
    "fd2-closed-verbose": ("stderr:closed", "verbose", 0, DEBUG_LINES, PRINTED),
    "fd2-closed-data-error": ("stderr:closed", "data-error", 1, ERROR_LINE, b""),
    "fd2-closed-usage-error": ("stderr:closed", "usage-error", 2, ERROR_LINE, b""),
    "stdout-full": ("stdout:full", "selfcheck", 1, STDOUT_FULL, b""),
    "dump-full": ("", "dump-full", 1, FILE_FULL, PRINTED),
    "trajectory-full": ("", "trajectory-full", 1, FILE_FULL, PRINTED),
    "stderr-full-data-error": ("stderr:full", "data-error", 1, ERROR_LINE, b""),
    "stderr-full-usage-error": ("stderr:full", "usage-error", 2, ERROR_LINE, b""),
    "stderr-full-verbose": ("stderr:full", "verbose", 0, DEBUG_LINES, PRINTED),
    "stderr-no-reader-data-error": ("stderr:no-reader", "data-error", 1, ERROR_LINE, b""),
    "stderr-no-reader-usage-error": ("stderr:no-reader", "usage-error", 2, ERROR_LINE, b""),
    "stderr-no-reader-verbose": ("stderr:no-reader", "verbose", 0, DEBUG_LINES, PRINTED),
    "worker-exits": ("worker:os._exit(3)", "sweep", 1, WORKER_DIED % b"exited with code 3", b""),
    "worker-killed": (
        "worker:os.kill(os.getpid(), 9)", "sweep", 1, WORKER_DIED % b"was killed by signal 9", b""
    ),
    "mem-backtest": ("", "mem-backtest", 1, rb"error: cannot read /proc/self/mem: [^\n]+\n", b""),
    "mem-daily-returns": (
        "", "mem-daily-returns", 1, rb"error: cannot read /proc/self/mem: [^\n]+\n", b""
    ),
    "usage-error": ("", "usage-error", 2, ERROR_LINE, b""),
    "stderr-full-argparse-error": ("stderr:full", "argparse-error", 2, USAGE_LINES, b""),
    "stdout-full-help": ("stdout:full", "help", 1, STDOUT_FULL, b""),
    "stdout-full-help-unbuffered": (UNBUFFERED + "stdout:full", "help", 1, STDOUT_FULL, b""),
}

# A row whose id names one of these skips where it is missing.
NEEDS = {
    "full": pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full"),
    "mem": pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="no /proc/self/mem"),
    "worker": pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
    ),
}


def _workdir(root: Path, name: str) -> Path:
    workdir = root / name
    workdir.mkdir()
    (workdir / "bars.csv").write_text(csv_text(FIXTURE_ROWS))
    (workdir / "days.csv").write_text(csv_text(DAYS_ROWS))
    return workdir


def _written(workdir: Path) -> bytes | None:
    out = workdir / "out.csv"
    return out.read_bytes() if out.exists() else None


def _subprocess(
    args: list[str],
    workdir: Path,
    prefix: tuple[str, ...] = (),
    stdout=subprocess.PIPE,
    stderr=subprocess.PIPE,
    unbuffered: bool = False,
):
    """Run ``python [prefix] args`` in ``workdir``, standard output and error
    piped unless given, and help text 80 columns wide. Standard output is
    block-buffered unless ``unbuffered``, which sets PYTHONUNBUFFERED."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    env["COLUMNS"] = "80"
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, *prefix, *args],
        cwd=workdir,
        stdout=stdout,
        stderr=stderr,
        env=env,
        timeout=120,
    )


# The --help text of the top level and of each command, 80 columns wide, is
# pinned by the sha256 of their concatenation in this order, captured once
# and never regenerated. It is the same on Python 3.10-3.13.
HELP_COMMANDS = ([], ["backtest"], ["sweep"], ["daily-returns"], ["selfcheck"])
HELP_SHA256 = "7357519ba2628bf701586c3d7608d9cacf961856ac4dc092401419e1ddc4a5cc"


class TestExitPath:
    @pytest.mark.parametrize("case", EXIT_CASES)
    def test_processes_match_an_in_process_main(self, tmp_path, capsys, monkeypatch, case):
        argv = EXIT_CASES[case]
        monkeypatch.chdir(_workdir(tmp_path, "main"))
        code = main(argv)
        out, err = capsys.readouterr()
        expected = (code, out.encode(), err.encode(), _written(tmp_path / "main"))
        for entry, prefix in ENTRY_POINTS.items():
            workdir = _workdir(tmp_path, entry)
            process = _subprocess([*prefix, *argv], workdir)
            seen = (process.returncode, process.stdout, process.stderr, _written(workdir))
            assert seen == expected, entry
        assert code == {"data-error": 1, "usage-error": 2, "argparse-error": 2}.get(case, 0)
        if case == "daily-returns":
            assert len(out) > 8192

    @pytest.mark.parametrize(
        "fault, command, code, stderr, stdout",
        [
            pytest.param(*row, id=name, marks=[mark for key, mark in NEEDS.items() if key in name])
            for name, row in FAULTS.items()
        ],
    )
    def test_a_fault_ends_in_its_exit_code_and_one_error_line(
        self, tmp_path, capsys, monkeypatch, fault, command, code, stderr, stdout
    ):
        argv = FAULT_COMMANDS[command]
        unbuffered = fault.startswith(UNBUFFERED)
        stream, _, how = fault.removeprefix(UNBUFFERED).partition(":")
        workdir = _workdir(tmp_path, "run")
        before = set(os.listdir(workdir))
        prefix, streams = tuple(ENTRY_POINTS["module"]), {}
        with contextlib.ExitStack() as stack:
            if stream == "worker":
                prefix = ("-c", WORKER_DEATH_SCRIPT.format(death=how))
            elif how == "closed":
                prefix = ("-c", CLOSE_FD, str({"stdout": 1, "stderr": 2}[stream]), *prefix)
            elif how == "full":
                streams[stream] = stack.enter_context(open("/dev/full", "wb"))
            elif how == "no-reader":
                read, write = os.pipe()
                os.close(read)
                streams[stream] = stack.enter_context(open(write, "wb"))
            process = _subprocess([*prefix, *argv], workdir, unbuffered=unbuffered, **streams)
        err = process.stderr
        if stdout is None or stream == "stderr":
            # What the command writes with its streams intact.
            monkeypatch.chdir(_workdir(tmp_path, "main"))
            assert main(argv) == code
            printed, written = capsys.readouterr()
            if stream == "stderr":
                assert not process.stderr  # a closed descriptor 2 wrote nothing to the pipe
                err = written.encode()
            if stdout is None:
                stdout = printed.encode()
        assert process.returncode == code
        assert re.fullmatch(stderr, err)
        errors = [line for line in err.splitlines() if re.match(rb"([a-z -]+: )?error: ", line)]
        assert len(errors) == (code != 0)
        assert (process.stdout or b"") == stdout
        created = set(os.listdir(workdir)) - before
        if code == 0 and "out.csv" in argv:
            assert created == {"out.csv"}
            assert _written(workdir) == _written(tmp_path / "main")
        else:
            assert created == set()

    @pytest.mark.parametrize("method", ("fork", "spawn", "forkserver"))
    def test_a_sweep_on_two_processes_matches_one_under_each_start_method(
        self, tmp_path, capsys, monkeypatch, method
    ):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        argv = ["sweep", "--data", "bars.csv", "--fee", "0.003", "--kind", "reset"]
        argv += ["--grid", "0.02,0.10,0.02", "--snap-ticks", "--dump", "out.csv", "--jobs"]
        monkeypatch.chdir(_workdir(tmp_path, "main"))
        code = main([*argv, "1"])
        out, err = capsys.readouterr()
        expected = (code, out.encode(), err.encode(), _written(tmp_path / "main"))
        workdir = _workdir(tmp_path, method)
        process = _subprocess([*argv, "2"], workdir, ("-c", START_METHOD_SCRIPT, method))
        seen = (process.returncode, process.stdout, process.stderr, _written(workdir))
        assert seen == expected
        assert code == 0

    def test_help_prints_its_text_and_exits_0(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        printed, written = [], []
        for command in HELP_COMMANDS:
            assert main([*command, "--help"]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            printed.append(out.encode())
            process = _subprocess([*ENTRY_POINTS["module"], *command, "--help"], tmp_path)
            assert (process.returncode, process.stderr) == (0, b"")
            written.append(process.stdout)
        assert hashlib.sha256(b"".join(printed)).hexdigest() == HELP_SHA256
        assert written == printed

    def test_the_console_script_runs_run(self):
        text = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
        scripts = text[text.index("\n[project.scripts]\n") :].split("\n[", 2)[1]
        assert 'clbacktest = "clbacktest.cli:run"' in scripts.splitlines()


def test_readme_shows_only_accepted_flags():
    """Every ``--flag`` in the README's command sections is one its command takes."""
    subcommands = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    accepted = {
        name: {option for action in sub._actions for option in action.option_strings}
        for name, sub in subcommands.items()
    }
    text = README.read_text(encoding="utf-8")
    cli = text[text.index("\n## CLI\n") :]
    cli = cli[: cli.index("\n## ", 1)]
    intro, *sections = cli.split("\n### ")
    shown = 0
    for flag in re.findall(r"--[a-z][a-z-]*", intro):
        assert any(flag in options for options in accepted.values()), flag
        shown += 1
    for section in sections:
        name = section.split()[0]
        for flag in re.findall(r"--[a-z][a-z-]*", section):
            assert flag in accepted[name], f"{name} {flag}"
            shown += 1
    assert shown >= 10
