"""Seeded benchmark of the clbacktest command line, end to end and per layer.

    python3 bench/run.py --workload sweep-fixed-volatile --seed 0 --seconds 36 --trace 0

Run from a checkout: the program is imported and started from ``src/`` next
to this directory. Workloads (see ``README.md``):

* ``sweep-fixed-volatile`` - default 166-point Fixed sweep, one process;
* ``sweep-reset-stable``   - default 2500-point stable Reset sweep, two workers;
* ``backtest-batch``       - one tick-snapped backtest with trajectory per
                             strategy kind over two years.

With ``--trace 0`` the end-to-end metrics are measured on untraced runs; with
``--trace 1`` the per-layer metrics come from traced runs and in-process
probes. Every metric is printed with its unit, then a JSON line with the
environment, inputs, sample counts and checks, and last the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_harness():
    """Import the benchmark against the checkout's own ``src/``; exits if absent."""
    if not (SRC / "clbacktest" / "cli.py").is_file():
        sys.exit(f"error: no clbacktest sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import clbacktest

    if not Path(clbacktest.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: clbacktest imported from {clbacktest.__file__}, not {SRC}")
    import harness

    return harness


def main(argv=None) -> int:
    args = parse_args(argv)
    harness = load_harness()
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    result, report = run(harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:30s} {metric['value']!r:>24} {metric['unit']:14s} n={report['samples'][name]}")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Prepare, measure and check one workload; returns (result, report)."""
    import harness

    out_root = BENCH / "out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_root))
    try:
        ctx = harness.prepare(workload, seed, workdir)
        harness.setup_probe(ctx)  # untimed: compiles bytecode, warms the page cache
        metrics, details, checks = harness.measure(ctx, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = harness.PER_LAYER if trace else harness.END_TO_END
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report = {
        "workload": workload.name,
        "seconds": seconds,
        "trace": int(trace),
        "env": harness.environment(seed),
        "inputs": {
            **ctx.record,
            "invocations": [" ".join(inv.args[:1] + inv.args[3:]) for inv in ctx.invocations],
            "configs": sum(inv.configs for inv in ctx.invocations),
            "workers": ctx.workers,
            **ctx.census,
        },
        **details,
        "checks": {
            "attempted": checks.attempted,
            "failed": checks.failed,
            "failures": checks.failures,
            "stored_digests": "compared" if ctx.stored_digests is not None else "none for this seed and input",
        },
    }
    return result, report


if __name__ == "__main__":
    sys.exit(main())
