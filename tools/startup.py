"""Report what starting the command line costs.

Prints the median CPU time (user + system, from ``os.wait4``) of ``python -c
"import clbacktest.cli"``, of a whole ``python -m clbacktest.cli selfcheck``
run from start to exit, and of ``python -c pass``, 5 runs each in
alternation after one untimed run of each, and which of the modules a
one-process command never needs the import loads. Report only: it exits 0
whatever it measures. Needs ``os.posix_spawn`` (Linux, macOS).

Usage: python tools/startup.py [SRC]   (default: src, the directory that holds clbacktest)
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

RUNS = 5
UNUSED = ("dataclasses", "inspect", "concurrent.futures", "multiprocessing", "logging")
IMPORT = "import clbacktest.cli"
COMMANDS = {
    "import": ["-c", IMPORT],
    "selfcheck": ["-m", "clbacktest.cli", "selfcheck"],
    "bare": ["-c", "pass"],
}


def cpu_seconds(args: list[str], env: dict[str, str]) -> float:
    """CPU time of one ``python *args`` process, its standard output discarded."""
    discard = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=discard)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"error: python {' '.join(args)} failed")
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    src = os.path.abspath(argv[0] if argv else "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    times: dict[str, list[float]] = {name: [] for name in COMMANDS}
    for run in range(RUNS + 1):
        for name, samples in times.items():
            seconds = cpu_seconds(COMMANDS[name], env)
            if run:
                samples.append(seconds)
    probe = f"import sys; {IMPORT}; print(*[m for m in {UNUSED!r} if m in sys.modules])"
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    imported, selfcheck, bare = (statistics.median(samples) for samples in times.values())
    print(f"python -c {IMPORT!r}: {imported:.3f} s CPU (median of {RUNS})")
    print(f"python -m clbacktest.cli selfcheck: {selfcheck:.3f} s CPU (median of {RUNS})")
    print(f"python -c 'pass': {bare:.3f} s CPU (median of {RUNS})")
    print(f"the import: {imported - bare:.3f} s CPU")
    print(f"a whole selfcheck run: {selfcheck - bare:.3f} s CPU")
    print(f"of {', '.join(UNUSED)}, the import loads: {', '.join(loaded) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
