"""Expected outputs computed in-process, and the checks that compare against them.

Outputs are reduced to canonical rows of strings taken by column name:
``kind,a,r,fees,value,total`` for a sweep dump and
``timestamp,fee,value,total`` for a trajectory. Floats are ``repr`` strings,
which round-trip, so equal rows mean bit-identical numbers. A digest is the
sha256 of the canonical rows, one per line, fields joined by commas.
"""

from __future__ import annotations

import csv
import hashlib

DUMP_COLUMNS = ("kind", "a", "r", "fees", "value", "total")
TRAJECTORY_COLUMNS = ("timestamp", "fee", "value", "total")


def read_rows(path, columns: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Canonical rows of a CSV the program wrote; extra columns are ignored."""
    with open(path, newline="", encoding="utf-8") as handle:
        return [tuple(row[name] for name in columns) for row in csv.DictReader(handle)]


def dump_rows(results) -> list[tuple[str, ...]]:
    """Canonical dump rows of in-process ``(StrategyConfig, BacktestResult)`` pairs."""
    return [
        (
            config.kind,
            "" if config.a is None else repr(config.a),
            "" if config.r is None else repr(config.r),
            repr(result.fees),
            repr(result.value),
            repr(result.total),
        )
        for config, result in results
    ]


def trajectory_rows(result) -> list[tuple[str, ...]]:
    """Canonical trajectory rows of an in-process ``BacktestResult``."""
    return [
        (str(p.timestamp), repr(p.fee), repr(p.value), repr(p.total))
        for p in result.trajectory
    ]


def digest(rows) -> str:
    text = "\n".join(",".join(row) for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def backtest_stdout_ok(stdout: str, result) -> bool:
    """The printed fees/value/total lines match the in-process result."""
    printed = dict(parts for parts in (line.split(None, 1) for line in stdout.splitlines()) if len(parts) == 2)
    return all(
        printed.get(name, "").strip() == f"{getattr(result, name):.6f}"
        for name in ("fees", "value", "total")
    )


def first_mismatch(got, want) -> str:
    """Human-readable description of where two row lists first differ."""
    for index, (g, w) in enumerate(zip(got, want), start=1):
        if g != w:
            return f"row {index}: got {','.join(g)} want {','.join(w)}"
    if len(got) != len(want):
        return f"{len(got)} rows, want {len(want)}"
    return ""
