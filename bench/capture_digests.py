"""Capture the output digests that default-seed runs are checked against.

    python3 bench/capture_digests.py

Run this only on the commit whose outputs the digests pin (the bit-for-bit
output contract): it runs each workload's CLI invocations once at the default
seed, requires them to match the in-process results, and writes their
digests to ``digests.json``. Never re-run it to make a changed program pass.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    harness = run.load_harness()
    captured = {"seed": harness.DEFAULT_SEED, "git_sha": harness.git_sha(), "workloads": {}}
    out_root = harness.BENCH / "out"
    out_root.mkdir(exist_ok=True)
    for workload in harness.WORKLOADS.values():
        workdir = Path(tempfile.mkdtemp(prefix="capture-", dir=out_root))
        try:
            ctx = harness.prepare(workload, harness.DEFAULT_SEED, workdir)
            ctx.stored_digests = None
            checks = harness.Checks()
            rep = harness.run_rep(ctx, checks, False, 0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if checks.failed:
            print(f"error: {workload.name} does not match its in-process results: {checks.failures}", file=sys.stderr)
            return 1
        captured["workloads"][workload.name] = {
            "definition": harness.workload_definition(workload),
            "csv_sha256": ctx.record["csv_sha256"],
            "digests": rep.digests,
        }
        print(f"{workload.name}: {rep.digests}")
    harness.DIGESTS_PATH.write_text(json.dumps(captured, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
