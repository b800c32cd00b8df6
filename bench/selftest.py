"""Quick self-test of the benchmark at tiny input sizes.

    python3 bench/selftest.py

Runs every workload, shrunk, once untraced and once traced, and asserts that
each emits exactly the metric names and units listed in ``BENCHMARK.json``
with no failed check. Then corrupts one row of a sweep dump after the CLI
wrote it and asserts that the run's failed fraction rises above 0.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import run

SEED = 3
SECONDS = 1


def tiny_workloads(harness) -> list:
    w = harness.WORKLOADS
    return [
        replace(w["sweep-fixed-volatile"], bars=48, grid="0.05,0.15,0.05"),
        replace(w["sweep-reset-stable"], bars=48, grid="0.002,0.006,0.002"),
        replace(w["backtest-batch"], bars=72),
    ]


def corrupt_dump(harness):
    """A ``run_process`` that alters one dumped value after the CLI wrote it."""
    original = harness.run_process

    def corrupting(argv, stdout_path, env):
        outcome = original(argv, stdout_path, env)
        if "--dump" not in argv:
            return outcome
        dump = Path(argv[argv.index("--dump") + 1])
        lines = dump.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split(",")
        fields[-1] = repr(float(fields[-1]) + 1.0)
        lines[2] = ",".join(fields)
        dump.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return outcome

    return corrupting


def main() -> int:
    harness = run.load_harness()
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS), "workload names"
    for workload in tiny_workloads(harness):
        for trace in (False, True):
            result, report = run.run(workload, SEED, SECONDS, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted[trace], f"{workload.name} trace={trace}: {sorted(set(got) ^ set(wanted[trace]))}"
            assert result["correct"] and result["failed"] == 0, report["checks"]
            assert result["attempted"] >= 1
            print(f"ok  {workload.name} trace={int(trace)}: {len(got)} metrics, {result['attempted']} checks")

    original = harness.run_process
    harness.run_process = corrupt_dump(harness)
    try:
        result, report = run.run(tiny_workloads(harness)[0], SEED, SECONDS, False)
    finally:
        harness.run_process = original
    failed_frac = result["failed"] / result["attempted"]
    assert failed_frac > 0 and not result["correct"], report["checks"]
    print(f"ok  corrupted dump row: failed_frac {failed_frac} ({report['checks']['failures'][0]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
