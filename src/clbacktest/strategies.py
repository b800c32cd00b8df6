"""Liquidity-provision strategies as immutable state machines.

Four strategies share one lifecycle: :func:`initialize` turns a budget into a
state at the entry price, :func:`on_close` reacts to an hourly closing price,
and :func:`active_liquidity` / :func:`mark_to_market` answer the two questions
asked of a position every bar: how much of its liquidity earns fees, and what
it is worth. The backtest kernel does not call them; it spells the same
arithmetic out on local floats (see below).

* ``nolp``     - hold the initial 50/50 token split, never deposit.
* ``passive``  - deposit everything into a full-range position.
* ``fixed``    - deposit 50/50 into the symmetric range of half-width ``a``
                 around the entry price and never touch it again.
* ``reset``    - like ``fixed``, but when the close leaves the trigger
                 interval of half-width ``r`` the position is liquidated at
                 the close and redeposited one-sided around it.

States are immutable named tuples; every transition returns a new state. A
state stores the kernel's flat form: range geometries, one ledger and the
trigger interval (layout in :mod:`clbacktest.clmath`). The arithmetic
behind each transition lives in flat helpers on plain floats that take one
ledger (:func:`~clbacktest.clmath.mark`, :func:`reset_bounds`,
:func:`redeposit`). The backtest kernel starts from :func:`deploy` and calls
:func:`reset_bounds` on a reset; it marks and redeposits its two ledgers
with the arithmetic of ``mark`` and :func:`redeposit` written out on local
floats. It tests no trigger interval: it resets on the rows of a fire
schedule computed once per ``r`` and series (see :mod:`clbacktest.engine`),
so only :func:`on_close` reads the trigger bounds that ``deploy`` and
``reset_bounds`` return; both still check them.

Checks. :class:`StrategyConfig` checks a strategy's kind and parameters when
it is built: :func:`check_width` is its width rule, which a sweep grid also
applies, once per axis value, and :func:`~clbacktest.clmath.check_spacing`
its ``snap_spacing`` rule (an ``int``, not a ``bool``, in [1, MAX_TICK]).
:func:`initialize` checks the entry price and budget; :func:`deploy`, which
the kernel calls with a checked bar's price and a checked budget, does not
check them again. No snapped deploy or reset checks its spacing again:
``nearest_spaced_tick`` and ``liquidity_for_value`` validate nothing. What
``deploy`` and :func:`reset_bounds` still check is arithmetic on valid
input: a bound or liquidity that overflows a float or leaves the tick range
raises ValueError. ``reset_bounds`` tests its three ranges in one chained
comparison and calls ``check_range`` only to name a failure. A snapped
reset, like a snapped ``deploy``, checks its bounds once, before snapping;
the snapped bounds are tick prices with the price strictly between them.
A snapped ``deploy`` builds its range's geometry once and mints on it.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._tuples import checked_tuple
from .clmath import (
    PriceRange,
    check_bound,
    check_range,
    check_spacing,
    equal_value_liquidity,
    geometry_of,
    liquidity_for_value,
    mark,
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


class StrategyConfig(
    checked_tuple("StrategyConfig", "kind a r snap_spacing", (None, None, None))
):
    """Identity and parameters of one strategy instance.

    ``a`` is the half-width factor of the liquidity range (bounds at
    p/(1+a) and p*(1+a)); ``r`` is the same-shaped factor for the reset
    trigger interval. ``snap_spacing``, when set, snaps range bounds to tick
    indices that are multiples of it; it is an ``int`` in [1, MAX_TICK].
    """

    __slots__ = ()

    def _check(self) -> None:
        kind, a, r, snap_spacing = self
        if kind not in KINDS:
            raise UsageError(
                f"unknown strategy kind {kind!r}; valid kinds: {', '.join(KINDS)}"
            )
        for name, width, value, needed in (
            ("a", "range width", a, kind in (FIXED, RESET)),
            ("r", "reset width", r, kind == RESET),
        ):
            if needed:
                check_width(kind, name, value)
            elif value is not None:
                raise UsageError(f"strategy {kind!r} takes no {width} {name}")
        if snap_spacing is not None:
            check_spacing(snap_spacing, "snap_spacing", UsageError)

    def params_text(self) -> str:
        """Parameters as percentages, e.g. ``a=6.0%, r=3.0%``; empty if none."""
        widths = (("a", self.a), ("r", self.r))
        return ", ".join(f"{name}={_pct(value)}" for name, value in widths if value is not None)

    def label(self) -> str:
        """Human-readable name, e.g. ``fixed(a=6.0%)``."""
        params = self.params_text()
        return f"{self.kind}({params})" if params else self.kind


def check_width(kind: str, name: str, value: float | None) -> None:
    """Raise UsageError unless ``value`` is a finite half-width ``name`` of at
    least :data:`MIN_WIDTH`, as strategy ``kind`` needs."""
    if value is None or not math.isfinite(value) or value < MIN_WIDTH:
        raise UsageError(
            f"strategy {kind!r} needs {name} > 0 (at least {MIN_WIDTH!r}), got {value!r}"
        )


def nolp_config() -> StrategyConfig:
    return StrategyConfig(kind=NOLP)


def passive_config() -> StrategyConfig:
    return StrategyConfig(kind=PASSIVE)


def fixed_config(a: float, snap_spacing: int | None = None) -> StrategyConfig:
    return StrategyConfig(kind=FIXED, a=a, snap_spacing=snap_spacing)


def reset_config(a: float, r: float, snap_spacing: int | None = None) -> StrategyConfig:
    return StrategyConfig(kind=RESET, a=a, r=r, snap_spacing=snap_spacing)


Ranges = tuple[tuple[float, ...], ...]
Ledger = tuple[float, ...]
Trigger = tuple[float, float] | None


class StrategyState(checked_tuple("StrategyState", "config ranges ledger trigger")):
    """Everything a strategy owns between bars, in the kernel's flat form.

    ``ranges`` holds the geometry tuple of each range position and ``ledger``
    its liquidity, followed for nolp and passive by the tail
    ``(full_range_liquidity, hold_x, hold_y)`` (layout in ``clmath``).
    ``trigger`` holds the bounds of a reset strategy's trigger interval, None
    for everything else; ``reset_range`` gives it as a :class:`PriceRange`.
    """

    __slots__ = ()

    @property
    def reset_range(self) -> PriceRange | None:
        """The trigger interval of a reset strategy, None for everything else."""
        return None if self.trigger is None else PriceRange(*self.trigger)


def initialize(config: StrategyConfig, price: float, budget: float) -> StrategyState:
    """Deploy ``budget`` (in quote-token units) at the entry price (see :func:`deploy`).

    Raises ValueError unless ``price`` is finite and > 0 and ``budget``
    finite and >= 0, or when the deposit cannot be represented.
    """
    check_bound(price, "price")
    check_bound(budget, "budget", strict=False)
    return StrategyState(config, *deploy(config, price, budget))


def deploy(config: StrategyConfig, price: float, budget: float) -> tuple[Ranges, Ledger, Trigger]:
    """Flat form of :func:`initialize`: ``(ranges, ledger, trigger)``.

    ``ranges`` and ``ledger`` are as in ``clmath``; ``trigger`` holds the
    bounds of a reset strategy's trigger interval, None for other kinds.
    ``price`` and ``budget`` are not checked again: :func:`initialize`
    checks them, and the backtest kernel passes a bar's price and a
    config's budget, both checked where they were built. Raises ValueError
    when the deposit cannot be represented.
    """
    if config.kind == NOLP:
        hold_x = budget / (2.0 * price)
        check_bound(hold_x, "x", strict=False)
        return (), (0.0, hold_x, budget / 2.0), None

    if config.kind == PASSIVE:
        liquidity = budget / (2.0 * math.sqrt(price))
        check_bound(liquidity, "liquidity", strict=False)
        return (), (liquidity, 0.0, 0.0), None

    lower, upper = symmetric_bounds(price, config.a)
    check_range(lower, upper)
    if config.snap_spacing is None:
        geometry = geometry_of(lower, upper)
        liquidity = equal_value_liquidity(price, config.a, budget)
    else:
        geometry = geometry_of(*_snap_outward(lower, upper, price, config.snap_spacing))
        liquidity = liquidity_for_value(geometry, price, budget)
    check_bound(liquidity, "liquidity", strict=False)

    trigger = None
    if config.kind == RESET:
        trigger = symmetric_bounds(price, config.r)
        check_range(*trigger)
    return (geometry,), (liquidity,), trigger


def on_close(state: StrategyState, price: float) -> StrategyState:
    """React to an hourly closing price.

    Only reset strategies ever change state: when the close sits outside the
    open trigger interval (touching a bound counts as outside), all positions
    are liquidated at the close and redeposited one-sided around it, and a new
    trigger interval is centered on the close.
    """
    trigger = state.trigger
    if trigger is None or trigger[0] < price < trigger[1]:
        return state
    below_lower, above_upper, trigger_lower, trigger_upper = reset_bounds(state.config, price)
    ranges, ledger = redeposit(
        state.ranges, state.ledger, price, math.sqrt(price), below_lower, above_upper
    )
    return StrategyState(state.config, ranges, ledger, (trigger_lower, trigger_upper))


def active_liquidity(state: StrategyState, price: float) -> float:
    """Liquidity of the state that earns fees at the given price."""
    return mark(state.ranges, state.ledger, price, math.sqrt(price))[0]


def mark_to_market(state: StrategyState, price: float) -> float:
    """Total state value in quote-token units at the given price."""
    return mark(state.ranges, state.ledger, price, math.sqrt(price))[1]


def reset_bounds(config: StrategyConfig, price: float) -> tuple[float, float, float, float]:
    """Outer bounds of the two one-sided ranges and the new trigger interval.

    Returns ``(below_lower, above_upper, trigger_lower, trigger_upper)`` for a
    reset at ``price``; raises ValueError when a bound is not representable
    (a float overflow, or no spaced tick on the far side of the price). A
    snapped reset checks its bounds before snapping them, so an overflowing
    bound is named as on the unsnapped path.
    """
    below_lower, above_upper = symmetric_bounds(price, config.a)
    if config.snap_spacing is not None:
        check_range(below_lower, above_upper)
        below_lower, above_upper = _snap_outward(
            below_lower, above_upper, price, config.snap_spacing
        )
    trigger_lower, trigger_upper = symmetric_bounds(price, config.r)
    if not (
        0.0 < below_lower < price < above_upper < math.inf
        and 0.0 < trigger_lower < trigger_upper < math.inf
    ):
        # The test above is the three ranges' check_range; these name the failure.
        check_range(below_lower, price)
        check_range(price, above_upper)
        check_range(trigger_lower, trigger_upper)
    return below_lower, above_upper, trigger_lower, trigger_upper


def redeposit(
    ranges: Sequence[tuple[float, ...]],
    ledger: Sequence[float],
    price: float,
    sqrt_price: float,
    below_lower: float,
    above_upper: float,
) -> tuple[Ranges, Ledger]:
    """Liquidate a ledger's range positions at ``price`` and redeposit them
    one-sided around it; returns the new ranges and ledger.

    The quote tokens go into ``[below_lower, price]``, the base tokens into
    ``[price, above_upper]``; no swap is needed, so value is conserved. Both
    new ranges reuse ``sqrt_price`` for their shared bound. Full-range
    liquidity and loose tokens are kept. Raises ValueError when a new
    liquidity overflows, and ZeroDivisionError when a new range holding a
    deposit is so narrow that its bounds' square roots are equal (a snapped
    bound a float or two from the price).
    """
    x, y = mark(ranges, ledger, price, sqrt_price)[2:]
    below = range_geometry(below_lower, price, math.sqrt(below_lower), sqrt_price)
    above = range_geometry(price, above_upper, sqrt_price, math.sqrt(above_upper))
    below_liquidity, above_liquidity = one_sided_liquidity(x, y, below, above)
    if not (below_liquidity < math.inf and above_liquidity < math.inf):
        raise ValueError(f"redepositing {x!r} base and {y!r} quote overflows")
    return (below, above), (below_liquidity, above_liquidity, *ledger[len(ranges):])


def scale_liquidity(state: StrategyState, factor: float) -> StrategyState:
    """Scale every liquidity amount and holding by ``factor`` (compounding)."""
    check_bound(factor, "factor", strict=False)
    ledger = tuple([amount * factor for amount in state.ledger])
    if math.inf in ledger:
        raise ValueError(f"scaling the ledger by {factor!r} overflows")
    return StrategyState(state.config, state.ranges, ledger, state.trigger)


def _snap_outward(lower: float, upper: float, price: float, spacing: int) -> tuple[float, float]:
    """Snap both bounds to the nearest spaced ticks, moving each outward
    until ``price`` lies strictly inside; returns the two tick prices."""
    lower_tick = nearest_spaced_tick(lower, spacing)
    upper_tick = nearest_spaced_tick(upper, spacing)
    while (lower := tick_price(lower_tick)) >= price:
        lower_tick -= spacing
    while (upper := tick_price(upper_tick)) <= price:
        upper_tick += spacing
    return lower, upper


def _pct(value: float | None) -> str:
    text = f"{100.0 * value:.4f}".rstrip("0")
    if text.endswith("."):
        text += "0"
    return f"{text}%"
