"""Report the CPU time of sweeps of the north-star workload.

Writes ``bench/gen.py``'s seed-0 stable series of 730 hourly bars (fee rate
0.0005, a month across a depeg) to a temporary directory, then runs ``python
-m clbacktest.cli sweep --kind reset --pair-class stable`` over it three
times: the default 2500-point stable Reset grid with ``--jobs 1``, once with
plain and once with tick-snapped ranges (``--snap-ticks``), and with plain
ranges at ``--jobs 2``. Prints one line per sweep with its CPU time (user +
system, from ``os.wait4``). That time covers the command's process and each
process it started and waited for: the ``--jobs 2`` worker where the start
method makes it the command's child (``fork`` and ``spawn``; a
``forkserver`` worker is not counted). Report only: it exits 0 whatever it
measures, unless a sweep fails. Needs ``os.posix_spawn`` (Linux, macOS).

Usage: python tools/north_star.py [SRC]   (default: src, the directory that holds clbacktest)
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

BARS = 730
SEED = 0
FEE_RATE = 0.0005


def load_gen():
    """``bench/gen.py`` as a module, imported without writing bytecode under ``bench/``."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import gen

    return gen


def main(argv: list[str]) -> int:
    src = os.path.abspath(argv[0] if argv else "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "stable.csv")
        record = load_gen().write_series(data, "stable", SEED, BARS, FEE_RATE)
        args = ["-m", "clbacktest.cli", "sweep", "--data", data, "--fee", str(FEE_RATE)]
        args += ["--kind", "reset", "--pair-class", "stable"]
        discard = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
        for ranges, jobs, extra in (
            ("plain", "one process", ["--jobs", "1"]),
            ("snapped", "one process", ["--jobs", "1", "--snap-ticks"]),
            ("plain", "--jobs 2, the process tree", ["--jobs", "2"]),
        ):
            argv = [sys.executable, *args, *extra]
            pid = os.posix_spawn(sys.executable, argv, env, file_actions=discard)
            _, status, usage = os.wait4(pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                sys.exit(f"error: python {' '.join(argv[1:])} failed")
            print(
                f"stable Reset sweep, default grid, {ranges} ranges, {BARS} bars (seed "
                f"{SEED}, sha256 {record['csv_sha256'][:12]}), {jobs}: "
                f"{usage.ru_utime + usage.ru_stime:.3f} s CPU"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
