"""Backtesting toolkit for concentrated-liquidity market making.

Closed-form position math for constant-product pools with range liquidity,
four provision strategies (hold, full-range, fixed range, resetting range),
an hourly fee-accrual backtest with non-compounding and compounding ledgers,
CSV ingestion, and parameter sweeps with ranked reports.
"""

from types import ModuleType as _ModuleType

from .clmath import (
    PairProfile,
    PriceRange,
    liquidity_from_equal_value,
    pair_for_class,
    tick_price,
)
from .dataio import (
    BarSeries,
    DailyReturnPoint,
    average_daily_return,
    clip_window,
    daily_fee_returns,
    load_bars,
    save_bars,
)
from .engine import (
    BacktestConfig,
    BacktestResult,
    HourlyBar,
    TrajectoryPoint,
    accrue_fees,
    run_backtest,
)
from .errors import DataError, UsageError
from .strategies import (
    StrategyConfig,
    StrategyState,
    active_liquidity,
    fixed_config,
    initialize,
    mark_to_market,
    nolp_config,
    on_close,
    passive_config,
    reset_config,
    scale_liquidity,
)
from .sweep import (
    Baselines,
    GridSpec,
    SweepSummary,
    axis_from_span,
    build_grid,
    compute_baselines,
    rank_results,
    render_report,
    run_sweep,
    write_results_csv,
)

__version__ = "0.1.0"

# The imports above are the export list; submodules are not exports.
__all__ = [
    name
    for name, value in list(globals().items())
    if not (name.startswith("_") or isinstance(value, _ModuleType))
]
