"""Liquidity-provision strategies as immutable state machines.

Four strategies share one lifecycle: :func:`initialize` turns a budget into a
state at the entry price, :func:`on_close` reacts to an hourly closing price,
and :func:`active_liquidity` / :func:`mark_to_market` answer the two questions
the backtest engine asks every bar.

* ``nolp``     - hold the initial 50/50 token split, never deposit.
* ``passive``  - deposit everything into a full-range position.
* ``fixed``    - deposit 50/50 into the symmetric range of half-width ``a``
                 around the entry price and never touch it again.
* ``reset``    - like ``fixed``, but when the close leaves the trigger
                 interval of half-width ``r`` the position is liquidated at
                 the close and redeposited one-sided around it.

States are frozen dataclasses; every transition returns a new state. The
arithmetic behind each transition lives in flat helpers on plain floats
(:func:`~clbacktest.clmath.mark_pair`, :func:`reset_bounds`,
:func:`redeposit`), which the backtest kernel calls directly on its pair of
ledgers over shared range geometries (layout in :mod:`clbacktest.clmath`),
starting from :func:`deploy`; the dataclass functions convert a state to
one flat ledger and pass it as both ledgers of the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .clmath import (
    PriceRange,
    TokenAmounts,
    check_liquidity,
    check_range,
    geometry_of,
    liquidity_for_value,
    liquidity_from_equal_value,
    mark_pair,
    nearest_spaced_tick,
    one_sided_liquidity,
    range_geometry,
    symmetric_bounds,
    tick_price,
)
from .errors import UsageError

NOLP = "nolp"
PASSIVE = "passive"
FIXED = "fixed"
RESET = "reset"

KINDS = (NOLP, PASSIVE, FIXED, RESET)

# Smallest accepted half-width ``a`` or ``r``. One tick is a factor of
# 1.0001, so this is far below any range a pool can hold, yet far above the
# 2.2e-16 at which ``1 + a`` rounds to 1 and the deposit formulas divide by 0.
MIN_WIDTH = 1e-9


@dataclass(frozen=True)
class StrategyConfig:
    """Identity and parameters of one strategy instance.

    ``a`` is the half-width factor of the liquidity range (bounds at
    p/(1+a) and p*(1+a)); ``r`` is the same-shaped factor for the reset
    trigger interval. ``snap_spacing``, when set, snaps range bounds to tick
    indices that are multiples of it.
    """

    kind: str
    a: float | None = None
    r: float | None = None
    snap_spacing: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise UsageError(f"unknown strategy kind {self.kind!r}")
        needs_a = self.kind in (FIXED, RESET)
        if needs_a:
            if self.a is None or not math.isfinite(self.a) or self.a < MIN_WIDTH:
                raise UsageError(
                    f"strategy {self.kind!r} needs a > 0 (at least {MIN_WIDTH!r}), got {self.a!r}"
                )
        elif self.a is not None:
            raise UsageError(f"strategy {self.kind!r} takes no range width a")
        if self.kind == RESET:
            if self.r is None or not math.isfinite(self.r) or self.r < MIN_WIDTH:
                raise UsageError(
                    f"strategy {self.kind!r} needs r > 0 (at least {MIN_WIDTH!r}), got {self.r!r}"
                )
        elif self.r is not None:
            raise UsageError(f"strategy {self.kind!r} takes no reset width r")
        if self.snap_spacing is not None and self.snap_spacing < 1:
            raise UsageError(f"snap_spacing must be >= 1, got {self.snap_spacing!r}")

    def params_text(self) -> str:
        """Parameters as percentages, e.g. ``a=6.0%, r=3.0%``; empty if none."""
        widths = (("a", self.a), ("r", self.r))
        return ", ".join(f"{name}={_pct(value)}" for name, value in widths if value is not None)

    def label(self) -> str:
        """Human-readable name, e.g. ``fixed(a=6.0%)``."""
        params = self.params_text()
        return f"{self.kind}({params})" if params else self.kind


def nolp_config() -> StrategyConfig:
    return StrategyConfig(kind=NOLP)


def passive_config() -> StrategyConfig:
    return StrategyConfig(kind=PASSIVE)


def fixed_config(a: float, snap_spacing: int | None = None) -> StrategyConfig:
    return StrategyConfig(kind=FIXED, a=a, snap_spacing=snap_spacing)


def reset_config(a: float, r: float, snap_spacing: int | None = None) -> StrategyConfig:
    return StrategyConfig(kind=RESET, a=a, r=r, snap_spacing=snap_spacing)


@dataclass(frozen=True)
class LiquidityPosition:
    """One range position: where the liquidity sits and how much of it."""

    price_range: PriceRange
    liquidity: float

    def __post_init__(self) -> None:
        check_liquidity(self.liquidity)


@dataclass(frozen=True)
class StrategyState:
    """Everything a strategy owns between bars.

    ``positions`` holds range positions (fixed/reset), ``full_range_liquidity``
    the passive deposit, and ``holdings`` loose tokens (nolp). ``reset_range``
    is the trigger interval of a reset strategy, None for everything else.
    """

    config: StrategyConfig
    entry_price: float
    positions: tuple[LiquidityPosition, ...] = ()
    holdings: TokenAmounts = TokenAmounts()
    full_range_liquidity: float = 0.0
    reset_range: PriceRange | None = None


def initialize(config: StrategyConfig, price: float, budget: float) -> StrategyState:
    """Deploy ``budget`` (in quote-token units) at the entry price (see :func:`deploy`)."""
    ranges, ledger, trigger = deploy(config, price, budget)
    full, hold_x, hold_y = ledger[len(ranges):] or (0.0, 0.0, 0.0)
    return StrategyState(
        config=config,
        entry_price=price,
        positions=_positions(ranges, ledger),
        holdings=TokenAmounts(x=hold_x, y=hold_y),
        full_range_liquidity=full,
        reset_range=None if trigger is None else PriceRange(*trigger),
    )


def deploy(
    config: StrategyConfig, price: float, budget: float
) -> tuple[list[tuple[float, ...]], list[float], tuple[float, float] | None]:
    """Flat form of :func:`initialize`: ``(ranges, ledger, trigger)``.

    ``ranges`` and ``ledger`` are as in ``clmath``; ``trigger`` holds the
    bounds of a reset strategy's trigger interval, None for other kinds.
    Raises ValueError when the deposit cannot be represented.
    """
    if not math.isfinite(price) or price <= 0.0:
        raise ValueError(f"price must be a finite positive number, got {price!r}")
    if not math.isfinite(budget) or budget < 0.0:
        raise ValueError(f"budget must be finite and >= 0, got {budget!r}")

    if config.kind == NOLP:
        # TokenAmounts rejects a split that overflows.
        holdings = TokenAmounts(x=budget / (2.0 * price), y=budget / 2.0)
        return [], _ledger([], 0.0, holdings.x, holdings.y), None

    if config.kind == PASSIVE:
        return [], _ledger([], budget / (2.0 * math.sqrt(price)), 0.0, 0.0), None

    lower, upper = symmetric_bounds(price, config.a)
    check_range(lower, upper)
    if config.snap_spacing is not None:
        price_range = _snap_symmetric(PriceRange(lower, upper), price, config.snap_spacing)
        lower, upper = price_range.lower, price_range.upper
        liquidity = liquidity_for_value(price_range, price, budget)
    else:
        liquidity = liquidity_from_equal_value(price, config.a, budget)
    check_liquidity(liquidity)

    trigger = None
    if config.kind == RESET:
        trigger = symmetric_bounds(price, config.r)
        check_range(*trigger)
    return [geometry_of(lower, upper)], [liquidity], trigger


def on_close(state: StrategyState, price: float) -> StrategyState:
    """React to an hourly closing price.

    Only reset strategies ever change state: when the close sits outside the
    open trigger interval (touching a bound counts as outside), all positions
    are liquidated at the close and redeposited one-sided around it, and a new
    trigger interval is centered on the close.
    """
    if state.config.kind != RESET or state.reset_range is None:
        return state
    if state.reset_range.lower < price < state.reset_range.upper:
        return state
    below_lower, above_upper, trigger_lower, trigger_upper = reset_bounds(state.config, price)
    ranges, ledger = _flat_ledger(state)
    ranges, ledger, _ = redeposit(
        ranges, ledger, ledger, price, math.sqrt(price), below_lower, above_upper
    )
    return replace(
        state,
        positions=_positions(ranges, ledger),
        reset_range=PriceRange(trigger_lower, trigger_upper),
    )


def active_liquidity(state: StrategyState, price: float) -> float:
    """Liquidity of the state that earns fees at the given price."""
    ranges, ledger = _flat_ledger(state)
    return mark_pair(ranges, ledger, ledger, price, math.sqrt(price))[0]


def mark_to_market(state: StrategyState, price: float) -> float:
    """Total state value in quote-token units at the given price."""
    ranges, ledger = _flat_ledger(state)
    return mark_pair(ranges, ledger, ledger, price, math.sqrt(price))[1]


def _flat_ledger(state: StrategyState) -> tuple[list[tuple[float, ...]], list[float]]:
    """The state's range geometries and its ledger list (see ``clmath``)."""
    positions = state.positions
    ranges = [geometry_of(p.price_range.lower, p.price_range.upper) for p in positions]
    liquidities = [p.liquidity for p in positions]
    holdings = state.holdings
    return ranges, _ledger(liquidities, state.full_range_liquidity, holdings.x, holdings.y)


def _ledger(liquidities: list[float], full: float, hold_x: float, hold_y: float) -> list[float]:
    """Ledger list: range liquidities, then the tail if any of it is non-zero."""
    if full or hold_x or hold_y:
        return [*liquidities, full, hold_x, hold_y]
    return liquidities


def _positions(
    ranges: list[tuple[float, ...]], ledger: list[float]
) -> tuple[LiquidityPosition, ...]:
    return tuple(
        LiquidityPosition(price_range=PriceRange(geometry[0], geometry[1]), liquidity=liquidity)
        for geometry, liquidity in zip(ranges, ledger)
    )


def reset_bounds(config: StrategyConfig, price: float) -> tuple[float, float, float, float]:
    """Outer bounds of the two one-sided ranges and the new trigger interval.

    Returns ``(below_lower, above_upper, trigger_lower, trigger_upper)`` for a
    reset at ``price``; raises ValueError when a bound is not representable
    (a float overflow, or no spaced tick on the far side of the price).
    """
    below_lower, above_upper = symmetric_bounds(price, config.a)
    if config.snap_spacing is not None:
        below_lower = _snap_outer(below_lower, config.snap_spacing, must_stay_below=price)
        above_upper = _snap_outer(above_upper, config.snap_spacing, must_stay_above=price)
    trigger_lower, trigger_upper = symmetric_bounds(price, config.r)
    check_range(below_lower, price)
    check_range(price, above_upper)
    check_range(trigger_lower, trigger_upper)
    return below_lower, above_upper, trigger_lower, trigger_upper


def redeposit(
    ranges: list[tuple[float, ...]],
    ledger_a: list[float],
    ledger_b: list[float],
    price: float,
    sqrt_price: float,
    below_lower: float,
    above_upper: float,
) -> tuple[list[tuple[float, ...]], list[float], list[float]]:
    """Liquidate two ledgers' range positions at ``price`` and redeposit
    each one-sided around it; returns the new ranges and ledgers.

    The quote tokens go into ``[below_lower, price]``, the base tokens into
    ``[price, above_upper]``; no swap is needed, so value is conserved. Both
    new ranges reuse ``sqrt_price`` for their shared bound. Full-range
    liquidity and loose tokens are kept. Raises ValueError, for the first
    ledger first, when a new liquidity overflows.
    """
    _, _, _, _, x_a, y_a, x_b, y_b = mark_pair(ranges, ledger_a, ledger_b, price, sqrt_price)
    below = range_geometry(below_lower, price, math.sqrt(below_lower), sqrt_price)
    above = range_geometry(price, above_upper, sqrt_price, math.sqrt(above_upper))
    count = len(ranges)
    new_a = _mint(x_a, y_a, below, above, ledger_a[count:])
    new_b = _mint(x_b, y_b, below, above, ledger_b[count:])
    return [below, above], new_a, new_b


def _mint(
    x: float, y: float, below: tuple[float, ...], above: tuple[float, ...], tail: list[float]
) -> list[float]:
    """Ledger of a one-sided redeposit of ``x`` and ``y`` that keeps ``tail``."""
    below_liquidity, above_liquidity = one_sided_liquidity(x, y, below, above)
    if not max(below_liquidity, above_liquidity) < math.inf:
        raise ValueError(f"redepositing {x!r} base and {y!r} quote overflows")
    return [below_liquidity, above_liquidity, *tail]


def scale_liquidity(state: StrategyState, factor: float) -> StrategyState:
    """Scale every liquidity amount and holding by ``factor`` (compounding)."""
    if not math.isfinite(factor) or factor < 0.0:
        raise ValueError(f"factor must be finite and >= 0, got {factor!r}")
    positions = tuple(
        LiquidityPosition(price_range=p.price_range, liquidity=p.liquidity * factor)
        for p in state.positions
    )
    holdings = TokenAmounts(x=state.holdings.x * factor, y=state.holdings.y * factor)
    return replace(
        state,
        positions=positions,
        holdings=holdings,
        full_range_liquidity=state.full_range_liquidity * factor,
    )


def _snap_symmetric(price_range: PriceRange, price: float, spacing: int) -> PriceRange:
    """Snap both bounds to spaced ticks, keeping the deposit price inside."""
    lower_tick = nearest_spaced_tick(price_range.lower, spacing)
    upper_tick = nearest_spaced_tick(price_range.upper, spacing)
    while tick_price(lower_tick) >= price:
        lower_tick -= spacing
    while tick_price(upper_tick) <= price:
        upper_tick += spacing
    return PriceRange(tick_price(lower_tick), tick_price(upper_tick))


def _snap_outer(
    bound: float,
    spacing: int,
    must_stay_below: float | None = None,
    must_stay_above: float | None = None,
) -> float:
    """Snap an outer reset bound without crossing the trigger price."""
    tick = nearest_spaced_tick(bound, spacing)
    if must_stay_below is not None:
        while tick_price(tick) >= must_stay_below:
            tick -= spacing
    if must_stay_above is not None:
        while tick_price(tick) <= must_stay_above:
            tick += spacing
    return tick_price(tick)


def _pct(value: float | None) -> str:
    text = f"{100.0 * value:.4f}".rstrip("0")
    if text.endswith("."):
        text += "0"
    return f"{text}%"
