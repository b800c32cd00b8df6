"""Run the clbacktest command line with spans around its public layer calls.

    CLBACKTEST_BENCH_SPANS=spans.jsonl python3 bench/traced.py sweep --data ...

The arguments are those of ``clbacktest``. Each span records name, start,
end, the span that caused it, the run id from ``CLBACKTEST_BENCH_RUN`` and
the process id; ``run_backtest`` spans add the strategy kind and bar count.
Spans stay in memory and are written as JSON lines when the process ends:
the main process writes the spans path itself, each sweep worker process the
spans path suffixed with ``.<pid>``.

Wrapping happens at import time on purpose: sweep workers started with the
``spawn`` method re-import this file as ``__mp_main__``, and ``fork``
workers inherit the wrapped functions, so worker calls are traced either way.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
from multiprocessing import util

SPANS_ENV = "CLBACKTEST_BENCH_SPANS"
RUN_ENV = "CLBACKTEST_BENCH_RUN"

# Names the CLI module imports from the library layers; each is wrapped where
# the CLI looks it up. ``sweep.run_backtest`` is wrapped separately because
# the baselines and the sweep workers call it through the sweep module.
CLI_CALLS = (
    "load_bars",
    "build_grid",
    "compute_baselines",
    "run_sweep",
    "rank_results",
    "render_report",
    "write_results_csv",
    "run_backtest",
)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, path: str, run_id: str) -> None:
        self.path = path
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.ids = itertools.count()

    def _own(self) -> None:
        # A forked worker inherits the parent's spans; start it afresh and
        # have it write its own spans when the worker exits.
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans = []
            self.stack = []
            self.ids = itertools.count()
            util.Finalize(None, self.dump, args=(f"{self.path}.{self.pid}",), exitpriority=10)

    def record(self, span_id, name, start, end, parent, **attrs) -> None:
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "run": self.run_id,
                "pid": self.pid,
                **attrs,
            }
        )

    def new_id(self) -> str:
        return f"{self.pid}-{next(self.ids)}"

    def wrap(self, fn, name: str, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._own()
            parent = self.stack[-1] if self.stack else None
            span_id = self.new_id()
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                attrs = describe(*args) if describe else {}
                self.record(span_id, name, start, end, parent, **attrs)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _describe_backtest(config, bars, *_rest) -> dict:
    return {"kind": config.strategy.kind, "bars": len(bars)}


def install(tracer: Tracer):
    """Wrap the layer calls of the CLI; returns the traced ``cli.main``."""
    import clbacktest.cli as cli
    import clbacktest.sweep as sweep

    for name in CLI_CALLS:
        describe = _describe_backtest if name == "run_backtest" else None
        setattr(cli, name, tracer.wrap(getattr(cli, name), name, describe))
    sweep.run_backtest = tracer.wrap(sweep.run_backtest, "run_backtest", _describe_backtest)
    return tracer.wrap(cli.main, "cli.main")


TRACER = Tracer(os.environ.get(SPANS_ENV, ""), os.environ.get(RUN_ENV, ""))
_import_start = time.perf_counter()
MAIN = install(TRACER)
_import_end = time.perf_counter()

if __name__ == "__main__":
    if not TRACER.path:
        sys.exit(f"{SPANS_ENV} is not set")
    TRACER.record(TRACER.new_id(), "import", _import_start, _import_end, None)
    code = MAIN(sys.argv[1:])
    TRACER.dump(TRACER.path)
    sys.exit(code)
