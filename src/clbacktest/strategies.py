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
(:func:`mark_ledger`, :func:`reset_bounds`, :func:`redeposit`), which the
backtest kernel calls directly on its own flat ledgers; the dataclass
functions convert a state and call them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .clmath import (
    PriceRange,
    TokenAmounts,
    check_range,
    flat_position,
    flat_one_sided_liquidity,
    flat_reserves,
    flat_value,
    liquidity_for_value,
    liquidity_from_equal_value,
    nearest_spaced_tick,
    symmetric_range,
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
        if not math.isfinite(self.liquidity) or self.liquidity < 0.0:
            raise ValueError(f"liquidity must be finite and >= 0, got {self.liquidity!r}")


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
    """Deploy ``budget`` (in quote-token units) at the entry price."""
    if not math.isfinite(price) or price <= 0.0:
        raise ValueError(f"price must be a finite positive number, got {price!r}")
    if not math.isfinite(budget) or budget < 0.0:
        raise ValueError(f"budget must be finite and >= 0, got {budget!r}")

    if config.kind == NOLP:
        holdings = TokenAmounts(x=budget / (2.0 * price), y=budget / 2.0)
        return StrategyState(config=config, entry_price=price, holdings=holdings)

    if config.kind == PASSIVE:
        liquidity = budget / (2.0 * math.sqrt(price))
        return StrategyState(config=config, entry_price=price, full_range_liquidity=liquidity)

    price_range = symmetric_range(price, config.a)
    if config.snap_spacing is not None:
        price_range = _snap_symmetric(price_range, price, config.snap_spacing)
        liquidity = liquidity_for_value(price_range, price, budget)
    else:
        liquidity = liquidity_from_equal_value(price, config.a, budget)
    position = LiquidityPosition(price_range=price_range, liquidity=liquidity)

    reset_range = None
    if config.kind == RESET:
        reset_range = symmetric_range(price, config.r)
    return StrategyState(
        config=config,
        entry_price=price,
        positions=(position,),
        reset_range=reset_range,
    )


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
    positions = redeposit(flat_positions(state), price, math.sqrt(price), below_lower, above_upper)
    return replace(
        state,
        positions=tuple(
            LiquidityPosition(price_range=PriceRange(lower, upper), liquidity=liquidity)
            for lower, upper, liquidity, _, _ in positions
        ),
        reset_range=PriceRange(trigger_lower, trigger_upper),
    )


def active_liquidity(state: StrategyState, price: float) -> float:
    """Liquidity of the state that earns fees at the given price."""
    positions = flat_positions(state)
    return mark_ledger(positions, state.full_range_liquidity, 0.0, 0.0, price, math.sqrt(price))[0]


def mark_to_market(state: StrategyState, price: float) -> float:
    """Total state value in quote-token units at the given price."""
    return mark_ledger(
        flat_positions(state),
        state.full_range_liquidity,
        state.holdings.x,
        state.holdings.y,
        price,
        math.sqrt(price),
    )[1]


def flat_positions(state: StrategyState) -> list[list[float]]:
    """The state's range positions as fresh flat lists (see ``clmath``)."""
    return [
        flat_position(p.price_range.lower, p.price_range.upper, p.liquidity)
        for p in state.positions
    ]


def mark_ledger(
    positions: list[list[float]],
    full: float,
    hold_x: float,
    hold_y: float,
    price: float,
    sqrt_price: float,
) -> tuple[float, float]:
    """Active liquidity and quote-token value of a flat ledger at ``price``.

    The ledger is flat range positions, full-range liquidity ``full`` and
    loose tokens ``hold_x``/``hold_y``; ``sqrt_price`` is ``sqrt(price)``.
    A position is active when the price is inside its closed range. When two
    positions share a bound at the price (the situation right after a
    reset), the shared point is attributed to the lower position only, so
    the total is never double-counted.
    """
    active = full
    value = 0.0
    for position in positions:
        value += flat_value(position, price, sqrt_price)
        if position[0] <= price <= position[1] and not (
            price == position[0]
            and any(other[1] == price for other in positions if other is not position)
        ):
            active += position[2]
    if full > 0.0:
        value += 2.0 * full * sqrt_price
    if hold_x > 0.0 or hold_y > 0.0:
        value += hold_x * price + hold_y
    return active, value


def reset_bounds(config: StrategyConfig, price: float) -> tuple[float, float, float, float]:
    """Outer bounds of the two one-sided ranges and the new trigger interval.

    Returns ``(below_lower, above_upper, trigger_lower, trigger_upper)`` for a
    reset at ``price``; raises ValueError when a bound is not representable
    (a float overflow, or no spaced tick on the far side of the price).
    """
    a, r = config.a, config.r
    below_lower = price / (1.0 + a)
    above_upper = price * (1.0 + a)
    if config.snap_spacing is not None:
        below_lower = _snap_outer(below_lower, config.snap_spacing, must_stay_below=price)
        above_upper = _snap_outer(above_upper, config.snap_spacing, must_stay_above=price)
    trigger_lower = price / (1.0 + r)
    trigger_upper = price * (1.0 + r)
    check_range(below_lower, price)
    check_range(price, above_upper)
    check_range(trigger_lower, trigger_upper)
    return below_lower, above_upper, trigger_lower, trigger_upper


def redeposit(
    positions: list[list[float]],
    price: float,
    sqrt_price: float,
    below_lower: float,
    above_upper: float,
) -> list[list[float]]:
    """Liquidate flat positions at ``price`` and redeposit one-sided around it.

    The quote tokens go into ``[below_lower, price]``, the base tokens into
    ``[price, above_upper]``; no swap is needed, so value is conserved.
    """
    withdrawn_x = 0.0
    withdrawn_y = 0.0
    for position in positions:
        x, y = flat_reserves(position, price, sqrt_price)
        withdrawn_x += x
        withdrawn_y += y
    below = flat_position(below_lower, price, 0.0)
    above = flat_position(price, above_upper, 0.0)
    below[2] = flat_one_sided_liquidity(0.0, withdrawn_y, below[3], below[4])
    above[2] = flat_one_sided_liquidity(withdrawn_x, 0.0, above[3], above[4])
    if not max(below[2], above[2]) < math.inf:
        raise ValueError(f"redepositing {withdrawn_x!r} base and {withdrawn_y!r} quote overflows")
    return [below, above]


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
