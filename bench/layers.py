"""In-process per-layer probes: engine cost per strategy kind, strategies replay.

These call the library's public functions from the benchmark process, outside
any timed end-to-end region, on the same series the workload hands the CLI.
"""

from __future__ import annotations

import statistics
import time

from clbacktest import (
    BacktestConfig,
    accrue_fees,
    initialize,
    mark_to_market,
    on_close,
    run_backtest,
    scale_liquidity,
)

MIN_PROBE_SECONDS = 0.1
MIN_PROBE_REPEATS = 3


def kernel_us_per_bar(strategy, fee_rate: float, bars, keep_trajectory: bool) -> float:
    """Median µs per bar of ``run_backtest`` over repeated calls."""
    config = BacktestConfig(strategy=strategy, fee_rate=fee_rate)
    times = []
    while len(times) < MIN_PROBE_REPEATS or sum(times) < MIN_PROBE_SECONDS:
        start = time.perf_counter()
        run_backtest(config, bars, keep_trajectory=keep_trajectory)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e6 / len(bars)


class Replay:
    """Replays ``run_backtest`` through the strategies API, timing each call.

    The calls follow the engine's per-bar order: fee accrual on both ledgers,
    mark-to-market of both, compounding of the second, then ``on_close`` on
    both. Totals of call time and call count are kept per function, plus the
    exact counts of resets fired on the non-compounding ledger, fee-earning
    bars and accrual bars.
    """

    CALLS = ("initialize", "accrue_fees", "mark_to_market", "scale_liquidity", "on_close")

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(self.CALLS, 0.0)
        self.calls = dict.fromkeys(self.CALLS, 0)
        self.resets_fired = 0
        self.fee_bars = 0
        self.accrual_bars = 0

    def _timed(self, name: str, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.seconds[name] += time.perf_counter() - start
        self.calls[name] += 1
        return out

    def run(self, strategy, fee_rate: float, bars, budget: float = 1.0) -> tuple[float, float, float]:
        """Replay one strategy; returns per-unit ``(fees, value, total)``."""
        first = bars[0]
        plain = self._timed("initialize", initialize, strategy, first.price, budget)
        comp = plain
        fee_sum = 0.0
        value_now = self._timed("mark_to_market", mark_to_market, plain, first.price)
        total_now = value_now
        for bar in bars[1:]:
            price = bar.price
            fee_plain = self._timed("accrue_fees", accrue_fees, plain, bar, fee_rate)
            fee_comp = self._timed("accrue_fees", accrue_fees, comp, bar, fee_rate)
            fee_sum += fee_plain
            value_now = self._timed("mark_to_market", mark_to_market, plain, price)
            value_comp = self._timed("mark_to_market", mark_to_market, comp, price)
            total_now = value_comp + fee_comp
            if fee_comp > 0.0 and value_comp > 0.0:
                comp = self._timed(
                    "scale_liquidity", scale_liquidity, comp, (value_comp + fee_comp) / value_comp
                )
            after = self._timed("on_close", on_close, plain, price)
            comp = self._timed("on_close", on_close, comp, price)
            self.accrual_bars += 1
            self.fee_bars += fee_plain > 0.0
            self.resets_fired += after.reset_range != plain.reset_range
            plain = after
        return fee_sum / budget, value_now / budget, total_now / budget

    def us_per_call(self, name: str) -> float:
        calls = self.calls[name]
        return self.seconds[name] * 1e6 / calls if calls else 0.0
