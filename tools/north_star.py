"""Report the CPU time of sweeps of the north-star workloads.

Writes two of ``bench/gen.py``'s seed-0 series of 730 hourly bars to a
temporary directory: the stable one (fee rate 0.0005, a month across a
depeg) and the volatile one (fee rate 0.003). Then runs ``python -m
clbacktest.cli sweep`` four times: the default 2500-point stable Reset grid
(``--kind reset --pair-class stable``) with ``--jobs 1``, once with plain and
once with tick-snapped ranges (``--snap-ticks``), and with plain ranges at
``--jobs 2``; and the default 166-point volatile Fixed grid (``--kind fixed
--pair-class volatile``) with ``--jobs 1``. Prints one line per sweep with
its CPU time (user + system, from ``os.wait4``). That time covers the
command's process and each process it started and waited for: the ``--jobs
2`` worker where the start method makes it the command's child (``fork`` and
``spawn``; a ``forkserver`` worker is not counted). Report only: it exits 0
whatever it measures, unless a sweep fails. Needs ``os.posix_spawn`` (Linux,
macOS).

Usage: python tools/north_star.py [SRC]   (default: src, the directory that holds clbacktest)
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

BARS = 730
SEED = 0
# (pair class, kind, fee rate, the command's further arguments, what they select)
SWEEPS = (
    ("stable", "reset", 0.0005, ["--jobs", "1"], "plain ranges, one process"),
    ("stable", "reset", 0.0005, ["--jobs", "1", "--snap-ticks"], "snapped ranges, one process"),
    ("stable", "reset", 0.0005, ["--jobs", "2"], "plain ranges, --jobs 2, the process tree"),
    ("volatile", "fixed", 0.003, ["--jobs", "1"], "plain ranges, one process"),
)


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
        records = {}
        discard = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
        for pair_class, kind, fee_rate, extra, label in SWEEPS:
            data = os.path.join(tmp, f"{pair_class}.csv")
            if pair_class not in records:
                records[pair_class] = load_gen().write_series(data, pair_class, SEED, BARS, fee_rate)
            argv = [sys.executable, "-m", "clbacktest.cli", "sweep", "--data", data]
            argv += ["--fee", str(fee_rate), "--kind", kind, "--pair-class", pair_class, *extra]
            pid = os.posix_spawn(sys.executable, argv, env, file_actions=discard)
            _, status, usage = os.wait4(pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                sys.exit(f"error: python {' '.join(argv[1:])} failed")
            print(
                f"{pair_class} {kind.capitalize()} sweep, default grid, {BARS} bars (seed {SEED}, "
                f"sha256 {records[pair_class]['csv_sha256'][:12]}), {label}: "
                f"{usage.ru_utime + usage.ru_stime:.3f} s CPU"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
