"""Workloads, measurement loops and metrics of the clbacktest benchmark.

A workload run generates its seeded CSV, computes the expected outputs
in-process (outside any timed region), then repeats the workload's CLI
invocations in fresh interpreters until the time budget is spent. Each
invocation is checked: exit code, printed metrics, and every output row bit
for bit against the in-process results; at the default seed the output
digests must also equal those stored in ``digests.json``, captured from the
seed commit.

Untraced runs give the end-to-end metrics. Traced runs alternate untraced and
traced invocations (``traced.py``), and add in-process probes of the engine
and strategies layers; they give the per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from clbacktest import (
    BacktestConfig,
    GridSpec,
    axis_from_span,
    build_grid,
    compute_baselines,
    initialize,
    load_bars,
    on_close,
    pair_for_class,
    rank_results,
    render_report,
    run_backtest,
)
from clbacktest.cli import parse_strategy_spec

import gen
import layers
import reference
import traced

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS_PATH = BENCH / "digests.json"
DEFAULT_SEED = 0

MIN_REPS = 3
SETUP_PROBES_PER_REP = 2
REFERENCE_ITERATIONS = 600_000
REFERENCE_CPU_S = 0.2
REPLAY_SAMPLE = 5
PROCESS_TIMEOUT_S = 150.0

SETUP_CODE = """
import sys
from clbacktest import GridSpec, axis_from_span, build_grid, load_bars, pair_for_class
path, pair_class, fee, kind, grid = sys.argv[1:6]
load_bars(path, pair_for_class(pair_class), float(fee))
if kind:
    axis = axis_from_span(*map(float, grid.split(","))) if grid else None
    build_grid(GridSpec(pair_class=pair_class, kind=kind, a_axis=axis,
                        r_axis=axis if kind == "reset" else None))
"""

END_TO_END = {
    "ref_cpu_s": "s",
    "setup_s": "s",
    "bar_configs_per_ref_cpu_s": "bar_configs/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "dataio.load_bars_s": "s",
    "dataio.us_per_row": "us",
    "dataio.rows": "count",
    "dataio.csv_bytes": "bytes",
    "engine.us_per_bar_p50": "us",
    "engine.us_per_bar_p99": "us",
    "engine.us_per_bar.nolp": "us",
    "engine.us_per_bar.passive": "us",
    "engine.us_per_bar.fixed": "us",
    "engine.us_per_bar.reset": "us",
    "engine.trajectory_us_per_bar": "us",
    "engine.accrue_fees_us": "us",
    "strategies.initialize_us": "us",
    "strategies.mark_to_market_us": "us",
    "strategies.scale_liquidity_us": "us",
    "strategies.on_close_us": "us",
    "strategies.resets_fired": "count",
    "strategies.fee_bars": "count",
    "strategies.in_range_frac": "ratio",
    "sweep.build_grid_s": "s",
    "sweep.compute_baselines_s": "s",
    "sweep.run_sweep_s": "s",
    "sweep.serial_s": "s",
    "sweep.dispatch_s": "s",
    "sweep.parallel_efficiency": "ratio",
    "sweep.rank_render_s": "s",
    "sweep.dump_s": "s",
    "sweep.configs": "count",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.residual_s": "s",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
}


@dataclass(frozen=True)
class Workload:
    """One set of CLI invocations over one seeded series.

    A sweep workload sets ``kind`` (one ``sweep`` invocation); the batch sets
    ``strategies`` (one ``backtest`` invocation each). ``grid`` overrides the
    sweep axis as ``MIN,MAX,STEP``; only the self-test uses it.
    """

    name: str
    shape: str
    bars: int
    fee_rate: float
    kind: str | None = None
    jobs: int = 1
    grid: str | None = None
    strategies: tuple[str, ...] = ()

    @property
    def pair_class(self) -> str:
        return self.shape


# Probe configurations of the engine, one per strategy kind.
PROBE_SPECS = {
    "volatile": ("nolp", "passive", "fixed:a=0.10", "reset:a=0.10,r=0.05"),
    "stable": ("nolp", "passive", "fixed:a=0.01", "reset:a=0.01,r=0.005"),
}

WORKLOADS = {
    w.name: w
    for w in (
        # A month of hourly bars: one serial default Fixed sweep lasts under
        # two seconds, so a run holds enough of them for a steady median.
        Workload("sweep-fixed-volatile", "volatile", 730, 0.003, kind="fixed", jobs=1),
        # Two days across a depeg: the 2500-point grid is dominated by
        # per-config cost, resets and dispatch rather than bar count.
        Workload("sweep-reset-stable", "stable", 48, 0.0005, kind="reset", jobs=2),
        # Two years: long enough that parsing, the kernel and the trajectory
        # write each take a measurable share of every invocation.
        Workload(
            "backtest-batch",
            "volatile",
            2 * 8760,
            0.003,
            strategies=PROBE_SPECS["volatile"],
        ),
    )
}


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class Invocation:
    """One CLI call of a workload and the outputs expected from it."""

    label: str
    args: list[str]
    output_flag: str
    columns: tuple[str, ...]
    expected_rows: list[tuple[str, ...]]
    expected: object
    configs: int
    bars: int

    def argv(self, output: Path) -> list[str]:
        return [*self.args, self.output_flag, str(output)]

    def stdout_ok(self, stdout: str) -> bool:
        if self.output_flag == "--dump":
            return stdout == self.expected
        return reference.backtest_stdout_ok(stdout, self.expected)


@dataclass
class Context:
    """Everything prepared for one workload run, outside the timed region."""

    workload: Workload
    seed: int
    workdir: Path
    csv_path: Path
    record: dict
    series: object
    invocations: list[Invocation]
    sample: list[tuple[object, tuple[float, float, float]]]
    workers: int
    stored_digests: dict | None
    census: dict = field(default_factory=dict)


def _sample_indices(n: int, k: int) -> list[int]:
    if n <= k:
        return list(range(n))
    return sorted({round(i * (n - 1) / (k - 1)) for i in range(k)})


def _stored_digests(workload: Workload, seed: int, record: dict) -> dict | None:
    """Digests captured at the seed commit, if they cover this exact input."""
    if seed != DEFAULT_SEED or not DIGESTS_PATH.is_file():
        return None
    stored = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    entry = stored["workloads"].get(workload.name)
    if (
        entry is None
        or entry["definition"] != workload_definition(workload)
        or entry.get("csv_sha256") != record["csv_sha256"]
    ):
        return None
    return entry["digests"]


def workload_definition(workload: Workload) -> dict:
    return json.loads(json.dumps(asdict(workload)))


def prepare(workload: Workload, seed: int, workdir: Path) -> Context:
    """Generate the input and compute every expected output in-process."""
    csv_path = workdir / "bars.csv"
    record = gen.write_series(csv_path, workload.shape, seed, workload.bars, workload.fee_rate)
    pair = pair_for_class(workload.pair_class)
    series = load_bars(csv_path, pair, workload.fee_rate)
    bars = series.bars
    base = [
        "--data", str(csv_path),
        "--fee", repr(workload.fee_rate),
        "--pair-class", workload.pair_class,
    ]
    invocations = []
    census = {}
    workers = 1
    if workload.kind:
        axis = axis_from_span(*map(float, workload.grid.split(","))) if workload.grid else None
        grid = build_grid(
            GridSpec(
                pair_class=workload.pair_class,
                kind=workload.kind,
                a_axis=axis,
                r_axis=axis if workload.kind == "reset" else None,
            )
        )
        results = [
            (c, run_backtest(BacktestConfig(strategy=c, fee_rate=workload.fee_rate), bars, keep_trajectory=False))
            for c in grid
        ]
        report = render_report(rank_results(results, compute_baselines(series), workload.pair_class))
        jobs = min(workload.jobs, available_cpus())
        workers = max(1, min(jobs, len(grid)))
        args = ["sweep", *base, "--kind", workload.kind, "--jobs", str(jobs)]
        if workload.grid:
            args += ["--grid", workload.grid]
        invocations.append(
            Invocation(
                "sweep", args, "--dump", reference.DUMP_COLUMNS,
                reference.dump_rows(results), report + "\n", len(grid) + 2, len(bars),
            )
        )
        sample = [
            (results[i][0], _metrics(results[i][1])) for i in _sample_indices(len(grid), REPLAY_SAMPLE)
        ]
        if workload.kind == "reset":
            census = reset_census(grid, bars)
    else:
        sample = []
        for spec in workload.strategies:
            strategy = parse_strategy_spec(spec, snap_spacing=pair.tick_spacing)
            result = run_backtest(BacktestConfig(strategy=strategy, fee_rate=workload.fee_rate), bars)
            invocations.append(
                Invocation(
                    spec, ["backtest", *base, "--snap-ticks", "--strategy", spec],
                    "--trajectory", reference.TRAJECTORY_COLUMNS,
                    reference.trajectory_rows(result), result, 1, len(bars),
                )
            )
            sample.append((strategy, _metrics(result)))
    return Context(
        workload=workload,
        seed=seed,
        workdir=workdir,
        csv_path=csv_path,
        record=record,
        series=series,
        invocations=invocations,
        sample=sample,
        workers=workers,
        stored_digests=_stored_digests(workload, seed, record),
        census=census,
    )


def _metrics(result) -> tuple[float, float, float]:
    return (result.fees, result.value, result.total)


def reset_census(grid, bars) -> dict:
    """How many grid points fire at least one reset, via ``on_close`` alone."""
    firing = 0
    for config in grid:
        state = initialize(config, bars[0].price, 1.0)
        for bar in bars[1:]:
            after = on_close(state, bar.price)
            if after.reset_range != state.reset_range:
                firing += 1
                break
            state = after
    return {"grid_points": len(grid), "grid_points_firing_resets": firing}


# --------------------------------------------------------------------------
# Processes


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


def run_process(argv: list[str], stdout_path: Path, env: dict) -> tuple[float, int, int, float]:
    """Run ``argv`` to completion; returns (wall seconds, exit code, peak RSS
    KiB, CPU seconds).

    ``os.wait4`` reaps the child so that its resource usage, which covers the
    worker processes it waited for, can be read. A child that outlives
    ``PROCESS_TIMEOUT_S`` is killed and reported through its exit code.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(PROCESS_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss, usage.ru_utime + usage.ru_stime


def setup_probe(ctx: Context) -> float:
    """CPU time of interpreter start, import, load_bars and build_grid, summed
    over the workload's invocations.

    Every invocation of a workload reads the same CSV and imports the same
    package, so the sum is the invocation count times one probe.
    """
    w = ctx.workload
    argv = [
        sys.executable, "-c", SETUP_CODE, str(ctx.csv_path), w.pair_class,
        repr(w.fee_rate), w.kind or "", w.grid or "",
    ]
    _wall, code, _rss, cpu = run_process(argv, ctx.workdir / "setup.out", child_env())
    if code != 0:
        raise RuntimeError(f"setup probe exited {code}: {(ctx.workdir / 'setup.err').read_text()}")
    return cpu * len(ctx.invocations)


def reference_slice() -> float:
    """CPU seconds of a fixed pure-Python loop, run in this process.

    The loop shares no code with the program; its CPU time measures how fast
    the host runs Python at the moment. ``REFERENCE_CPU_S`` is its CPU time
    on the reference host that end-to-end times are scaled to.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.process_time()
    acc = 0.0
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        x = (i % 97) * 0.01 + 1.0
        pair = (x, math.sqrt(x) * x)
        acc += pair[0] - pair[1] * 0.5
        table[i & 255] = acc
    cpu = time.process_time() - start
    if collecting:
        gc.enable()
    return cpu


def interpreter_probe(ctx: Context) -> float:
    wall, code, _rss, _cpu = run_process([sys.executable, "-c", "pass"], ctx.workdir / "bare.out", child_env())
    if code != 0:
        raise RuntimeError(f"bare interpreter exited {code}")
    return wall


# --------------------------------------------------------------------------
# Checked workload repetitions


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


@dataclass
class Rep:
    wall: float
    cpu: float
    peak_rss_kb: int
    digests: dict[str, str]
    spans: list[list[dict]] = field(default_factory=list)


def check_invocation(ctx: Context, inv: Invocation, code: int, stdout_path: Path, output: Path) -> tuple[bool, str, str]:
    """Returns (ok, digest of the output rows, failure description)."""
    if code != 0:
        err = stdout_path.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        return False, "", f"{inv.label}: exit {code}: {err.strip()[-300:]}"
    if not inv.stdout_ok(stdout_path.read_text(encoding="utf-8")):
        return False, "", f"{inv.label}: printed metrics differ from the in-process run"
    rows = reference.read_rows(output, inv.columns)
    digest = reference.digest(rows)
    if rows != inv.expected_rows:
        return False, digest, f"{inv.label}: {reference.first_mismatch(rows, inv.expected_rows)}"
    if ctx.stored_digests is not None and ctx.stored_digests.get(inv.label) != digest:
        return False, digest, f"{inv.label}: digest {digest} differs from the stored seed-commit digest"
    return True, digest, ""


def run_rep(ctx: Context, checks: Checks, traced_run: bool, rep: int, references: list[float] | None = None) -> Rep:
    """One checked run of every invocation of the workload.

    With ``references``, a reference slice is timed before each invocation.
    """
    tag = "traced" if traced_run else "plain"
    wall = 0.0
    cpu = 0.0
    peak = 0
    digests = {}
    spans = []
    for index, inv in enumerate(ctx.invocations):
        output = ctx.workdir / f"{tag}-{index}.csv"
        stdout_path = ctx.workdir / f"{tag}-{index}.out"
        if traced_run:
            spans_path = ctx.workdir / f"spans-{rep}-{index}.jsonl"
            env = child_env({traced.SPANS_ENV: str(spans_path), traced.RUN_ENV: f"{rep}-{index}"})
            argv = [sys.executable, str(BENCH / "traced.py"), *inv.argv(output)]
        else:
            env = child_env()
            argv = [sys.executable, "-m", "clbacktest.cli", *inv.argv(output)]
        if references is not None:
            references.append(reference_slice())
        seconds, code, rss, cpu_s = run_process(argv, stdout_path, env)
        wall += seconds
        cpu += cpu_s
        peak = max(peak, rss)
        ok, digest, problem = check_invocation(ctx, inv, code, stdout_path, output)
        checks.add(ok, f"{tag} rep {rep}: {problem}")
        digests[inv.label] = digest
        if traced_run:
            spans.append(read_spans(spans_path))
    return Rep(wall, cpu, peak, digests, spans)


def read_spans(path: Path) -> list[dict]:
    spans = []
    for part in sorted(path.parent.glob(path.name + "*")):
        with open(part, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle if line.strip())
        part.unlink()
    return spans


def timed_loop(seconds: float, min_iterations: int, body) -> None:
    """Call ``body(i)`` until ``seconds`` would be overrun by one more call,
    but at least ``min_iterations`` times."""
    start = time.perf_counter()
    durations = []
    while True:
        elapsed = time.perf_counter() - start
        if len(durations) >= min_iterations and elapsed + statistics.median(durations) > seconds:
            return
        begin = time.perf_counter()
        body(len(durations))
        durations.append(time.perf_counter() - begin)


# --------------------------------------------------------------------------
# Metrics


def measure(ctx: Context, seconds: float, trace: bool) -> tuple[dict, dict, Checks]:
    """Run the workload for ``seconds``; returns (metrics, report details, checks).

    The details hold the sample count behind each metric under ``samples``.
    """
    checks = Checks()
    if trace:
        return measure_traced(ctx, seconds, checks)
    reps: list[Rep] = []
    setups: list[float] = []
    references: list[float] = []

    def body(i: int) -> None:
        for _ in range(SETUP_PROBES_PER_REP):
            references.append(reference_slice())
            setups.append(setup_probe(ctx))
        reps.append(run_rep(ctx, checks, False, i, references))

    timed_loop(seconds, MIN_REPS, body)
    # Times are CPU seconds of the process tree, scaled to the reference
    # host's speed. On a shared host the hypervisor deschedules the virtual
    # CPUs, which stretches wall time but is not charged to the processes;
    # and neighbours slow the CPUs themselves, by up to a half for seconds to
    # minutes at a time. A reference slice before every measured process
    # samples the host's speed as often as the program does, so the ratio of
    # their totals cancels the slowdown.
    cpus = [r.cpu for r in reps]
    speed = REFERENCE_CPU_S / statistics.fmean(references)
    cpu = statistics.fmean(cpus) * speed
    setup = statistics.fmean(setups) * speed
    work = sum(inv.configs * inv.bars for inv in ctx.invocations)
    metrics = {
        "ref_cpu_s": cpu,
        "setup_s": setup,
        "bar_configs_per_ref_cpu_s": work / (cpu - setup),
        "peak_rss_mb": statistics.median(r.peak_rss_kb for r in reps) / 1024.0,
    }
    info = {
        "samples": {
            "ref_cpu_s": len(reps),
            "setup_s": len(setups),
            "bar_configs_per_ref_cpu_s": len(reps),
            "peak_rss_mb": len(reps),
        },
        "reference_slices": len(references),
        "reference_cpu_s_mean": statistics.fmean(references),
        "cpu_s_mean": statistics.fmean(cpus),
        "setup_cpu_s_mean": statistics.fmean(setups),
        "wall_s_median": statistics.median(r.wall for r in reps),
        "repetition_cpu_s": cpus,
        "repetition_wall_s": [r.wall for r in reps],
        "setup_cpu_s": setups,
        "reference_cpu_s": references,
    }
    return metrics, info, checks


def measure_traced(ctx: Context, seconds: float, checks: Checks) -> tuple[dict, dict, Checks]:
    probes = probe_layers(ctx, checks)
    plain: list[Rep] = []
    traced_reps: list[Rep] = []
    bare: list[float] = []

    def body(i: int) -> None:
        plain.append(run_rep(ctx, checks, False, i))
        traced_reps.append(run_rep(ctx, checks, True, i))
        bare.append(interpreter_probe(ctx))
        checks.add(
            traced_reps[-1].digests == plain[-1].digests,
            f"rep {i}: traced output digests {traced_reps[-1].digests} differ from untraced {plain[-1].digests}",
        )

    timed_loop(seconds, 2, body)
    per_rep = [span_metrics(ctx, rep) for rep in traced_reps]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    metrics["sweep.configs"] = per_rep[0]["sweep.configs"]
    metrics.update(probes)
    metrics["cli.interpreter_s"] = statistics.median(bare) * len(ctx.invocations)
    metrics["trace.overhead_s"] = statistics.median(r.cpu for r in traced_reps) - statistics.median(
        r.cpu for r in plain
    )
    metrics["failed_frac"] = checks.failed / checks.attempted
    samples = {name: len(traced_reps) for name in PER_LAYER}
    samples["cli.interpreter_s"] = len(bare)
    samples["trace.overhead_s"] = len(traced_reps) + len(plain)
    samples["failed_frac"] = checks.attempted
    for name in probes:
        samples[name] = 1
    return {name: metrics[name] for name in PER_LAYER}, {"samples": samples}, checks


def probe_layers(ctx: Context, checks: Checks) -> dict:
    """Engine and strategies metrics from in-process calls on the series."""
    w = ctx.workload
    bars = ctx.series.bars
    snap = pair_for_class(w.pair_class).tick_spacing if not w.kind else None
    out = {}
    strategies = {}
    for spec in PROBE_SPECS[w.pair_class]:
        strategy = parse_strategy_spec(spec, snap_spacing=snap)
        strategies[strategy.kind] = strategy
        out[f"engine.us_per_bar.{strategy.kind}"] = layers.kernel_us_per_bar(strategy, w.fee_rate, bars, False)
    fixed = strategies["fixed"]
    out["engine.trajectory_us_per_bar"] = (
        layers.kernel_us_per_bar(fixed, w.fee_rate, bars, True) - out["engine.us_per_bar.fixed"]
    )
    replay = layers.Replay()
    for strategy, expected in ctx.sample:
        got = replay.run(strategy, w.fee_rate, bars)
        checks.add(got == expected, f"replay of {strategy.label()}: {got!r} != run_backtest {expected!r}")
    out["engine.accrue_fees_us"] = replay.us_per_call("accrue_fees")
    for name in ("initialize", "mark_to_market", "scale_liquidity", "on_close"):
        out[f"strategies.{name}_us"] = replay.us_per_call(name)
    out["strategies.resets_fired"] = replay.resets_fired
    out["strategies.fee_bars"] = replay.fee_bars
    out["strategies.in_range_frac"] = replay.fee_bars / replay.accrual_bars
    out["dataio.rows"] = len(bars)
    out["dataio.csv_bytes"] = ctx.record["csv_bytes"]
    return out


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_time(span: dict, children: list[dict]) -> float:
    """Span duration minus the part of it that child spans cover."""
    covered = 0.0
    cursor = span["start"]
    for child in sorted(children, key=lambda s: s["start"]):
        start = max(child["start"], cursor)
        end = min(child["end"], span["end"])
        if end > start:
            covered += end - start
            cursor = end
    return _duration(span) - covered


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def span_metrics(ctx: Context, rep: Rep) -> dict:
    """Per-layer times of one traced repetition, summed over its invocations."""
    totals: dict[str, float] = {}
    per_bar: list[float] = []
    serial = 0.0
    for spans in rep.spans:
        by_id = {s["id"]: s for s in spans}
        children: dict[str, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        for s in spans:
            totals[s["name"]] = totals.get(s["name"], 0.0) + _duration(s)
        mains = [s for s in spans if s["name"] == "cli.main"]
        if len(mains) != 1 or "import" not in {s["name"] for s in spans}:
            raise RuntimeError("traced run lacks its cli.main or import span")
        totals["residual"] = totals.get("residual", 0.0) + self_time(mains[0], children.get(mains[0]["id"], []))
        for s in spans:
            if s["name"] != "run_backtest":
                continue
            parent = by_id.get(s["parent"])
            if parent is not None and parent["name"] == "compute_baselines":
                continue
            per_bar.append(_duration(s) * 1e6 / s["bars"])
            serial += _duration(s)
    expected_runs = sum(inv.configs - 2 if ctx.workload.kind else 1 for inv in ctx.invocations)
    if len(per_bar) != expected_runs:
        raise RuntimeError(f"traced run recorded {len(per_bar)} run_backtest spans, expected {expected_runs}")
    rows = len(ctx.series.bars) * len(ctx.invocations)
    out = {
        "dataio.load_bars_s": totals["load_bars"],
        "dataio.us_per_row": totals["load_bars"] * 1e6 / rows,
        "engine.us_per_bar_p50": _percentile(per_bar, 0.50),
        "engine.us_per_bar_p99": _percentile(per_bar, 0.99),
        "cli.import_s": totals["import"],
        "cli.main_s": totals["cli.main"],
        "cli.residual_s": totals["residual"],
    }
    sweep_names = ("build_grid", "compute_baselines", "run_sweep", "rank_results", "render_report", "write_results_csv")
    if ctx.workload.kind:
        missing = [name for name in sweep_names if name not in totals]
        if missing:
            raise RuntimeError(f"traced sweep lacks spans {missing}")
        run_sweep_s = totals["run_sweep"]
        out.update(
            {
                "sweep.build_grid_s": totals["build_grid"],
                "sweep.compute_baselines_s": totals["compute_baselines"],
                "sweep.run_sweep_s": run_sweep_s,
                "sweep.serial_s": serial,
                "sweep.dispatch_s": run_sweep_s - serial / ctx.workers,
                "sweep.parallel_efficiency": serial / (ctx.workers * run_sweep_s),
                "sweep.rank_render_s": totals["rank_results"] + totals["render_report"],
                "sweep.dump_s": totals["write_results_csv"],
                "sweep.configs": len(per_bar),
            }
        )
    else:
        # The batch never enters the sweep layer.
        out.update({name: 0.0 for name in PER_LAYER if name.startswith("sweep.")})
        out["sweep.configs"] = 0
    return out


# --------------------------------------------------------------------------
# Environment


def environment(seed: int) -> dict:
    return {
        "nproc": available_cpus(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


def source_digest() -> str:
    """sha256 over the program's sources, which identifies them without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None
