"""Time the north-star sweeps and check their dumps against stored digests.

Writes ``bench/gen.py``'s seed-0 series to a temporary directory: the stable
shape (fee rate 0.0005, a month across a depeg at 730 hourly bars) over 730
and 8760 bars, and the volatile shape (fee rate 0.003) over 730 bars. Then
runs ``python -m clbacktest.cli sweep --dump`` on each sweep of
:data:`SWEEPS`: the default 2500-point stable Reset grid (``--kind reset
--pair-class stable``) over 730 bars with ``--jobs 1``, once with plain and
once with tick-snapped ranges (``--snap-ticks``), and with plain ranges at
``--jobs 2``; the same grid over 8760 bars, plain, with ``--jobs 1``; the
default 166-point volatile Fixed grid (``--kind fixed --pair-class
volatile``) and the default volatile Reset grid over 730 bars, plain, with
``--jobs 1``; and a fine stable Reset grid over 730 bars, ``--grid
0.001,0.01,0.0002`` on both axes (2116 points), snapped, with ``--jobs 1``.
Its 46 widths snap into 10 deployed ranges, so it is the one sweep here in
which several widths deploy the same range.

Prints one line per sweep with its CPU time (user + system, from
``os.wait4``). That time covers the command's process and each process it
started and waited for: the ``--jobs 2`` worker where the start method makes
it the command's child (``fork`` and ``spawn``; a ``forkserver`` worker is
not counted). The times are a report. The dumps are a gate: each dump's
sha256 must equal the digest stored beside its sweep, which pins every
grid point's ``fees``, ``value`` and ``total`` bit for bit. Exits 1 naming
each sweep whose dump differs, or at the first sweep that fails. Needs
``os.posix_spawn`` (Linux, macOS).

Usage: python tools/north_star.py [SRC]   (default: src, the directory that holds clbacktest)
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

SEED = 0
FEE_RATES = {"stable": 0.0005, "volatile": 0.003}
# (pair class, kind, bars, the command's further arguments, what they select,
# sha256 of the --dump file). A sweep without --grid runs the kind's default
# grid. The digests were captured once, from the code that added them; never
# regenerate one.
SWEEPS = (
    ("stable", "reset", 730, ["--jobs", "1"], "plain ranges, one process",
     "20e2c8485fd25e2ae6caad5d3586f4daee3d0b5376907a956e31573a9634b76d"),
    ("stable", "reset", 730, ["--jobs", "1", "--snap-ticks"], "snapped ranges, one process",
     "8190b6ab3aa96ec29db6bdb238cb2e20b8c83c6b7e3195d1e0b29b04a78b19d9"),
    ("stable", "reset", 730, ["--jobs", "2"], "plain ranges, --jobs 2, the process tree",
     "20e2c8485fd25e2ae6caad5d3586f4daee3d0b5376907a956e31573a9634b76d"),
    ("stable", "reset", 8760, ["--jobs", "1"], "plain ranges, one process",
     "b14361be44e6d6671ca7180aa48ced76f4dcacfb85ce34281a6a29b6b1c2730b"),
    ("volatile", "fixed", 730, ["--jobs", "1"], "plain ranges, one process",
     "05aa5bcfb944f2e2da4cd335aec434c3be4b3668f9780d993f0f805a828a8983"),
    ("volatile", "reset", 730, ["--jobs", "1"], "plain ranges, one process",
     "147605540090a3fad37fe6dbfbae0ca7171db0d8a471e753735938a2cc9f6d9b"),
    ("stable", "reset", 730, ["--grid", "0.001,0.01,0.0002", "--snap-ticks", "--jobs", "1"],
     "snapped ranges, one process",
     "1f1e2cd14d03c6f3f896d1fbe3f6ed8953a99f74f832c9781d259cba1cd22332"),
)


def load_gen():
    """``bench/gen.py`` as a module, imported without writing bytecode under ``bench/``."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import gen

    return gen


def sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def main(argv: list[str]) -> int:
    src = os.path.abspath(argv[0] if argv else "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    mismatched = []
    with tempfile.TemporaryDirectory() as tmp:
        records = {}
        dump = os.path.join(tmp, "dump.csv")
        discard = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
        for pair_class, kind, bars, extra, label, digest in SWEEPS:
            fee_rate = FEE_RATES[pair_class]
            data = os.path.join(tmp, f"{pair_class}-{bars}.csv")
            if data not in records:
                records[data] = load_gen().write_series(data, pair_class, SEED, bars, fee_rate)
            argv = [sys.executable, "-m", "clbacktest.cli", "sweep", "--data", data]
            argv += ["--fee", str(fee_rate), "--kind", kind, "--pair-class", pair_class]
            argv += [*extra, "--dump", dump]
            pid = os.posix_spawn(sys.executable, argv, env, file_actions=discard)
            _, status, usage = os.wait4(pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                sys.exit(f"error: python {' '.join(argv[1:])} failed")
            grid = "default grid"
            if "--grid" in extra:
                grid = "grid " + extra[extra.index("--grid") + 1]
            name = (
                f"{pair_class} {kind.capitalize()} sweep, {grid}, {bars} bars (seed {SEED}, "
                f"sha256 {records[data]['csv_sha256'][:12]}), {label}"
            )
            got = sha256(dump)
            verdict = "dump ok" if got == digest else f"DUMP DIFFERS: sha256 {got}, stored {digest}"
            print(f"{name}: {usage.ru_utime + usage.ru_stime:.3f} s CPU, {verdict}", flush=True)
            if got != digest:
                mismatched.append(name)
    for name in mismatched:
        print(f"error: the dump of the {name} differs from its stored digest", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
