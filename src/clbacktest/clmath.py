"""Closed-form position math for concentrated liquidity on constant-product pools.

Prices are quoted as token Y per token X (for an ETH-USDC pool: USDC per ETH).
A position is described by a price range [lower, upper] and a liquidity scale
L. While the pool price p is inside the range, the virtual reserves (x', y')
of the position satisfy

    x' * y' = L**2      and      y' / x' = p,

so x' = L / sqrt(p) and y' = L * sqrt(p). The real reserves are the virtual
reserves minus the amounts the position would hold at the range bounds, which
gives the piecewise formulas in :func:`mark`.

All arithmetic is plain float64. Formula shapes are deliberately fixed (for
example ``value = y + x * p``) so that results are reproducible bit-for-bit.

The formulas live in flat helpers on plain floats that validate nothing:
:func:`mark` (active liquidity, value and reserves of one ledger),
:func:`one_sided_liquidity` and :func:`equal_value_liquidity`. The strategy
state API, :func:`~clbacktest.strategies.redeposit`,
:func:`liquidity_for_value` (the snapped deposit) and
:func:`liquidity_from_equal_value` call them; the last two validate their
arguments first. The backtest kernel is the one other spelling of this
arithmetic: it marks and redeposits both of its ledgers on local floats so
that a bar costs no call. ``mark`` and ``redeposit`` are its reference, and
the golden replay test holds the two equal bit for bit. Each argument rule
is written once, here: :func:`check_bound` (finite and > 0, or >= 0,
raising the caller's error class) and :func:`check_range`. Bars, the run
config, sweep axes and daily returns call ``check_bound`` too. Only CSV
ingest's whole-column check spells the bound again, and only
:func:`~clbacktest.strategies.reset_bounds` the range test, for its three
ranges in one comparison; it calls ``check_range`` to name a failure.

A range's geometry is the tuple ``(lower, upper, sqrt_lower,
1/sqrt_lower - 1/sqrt_upper, sqrt_upper - sqrt_lower, 1/sqrt_upper)`` built
by :func:`range_geometry`: the per-range constants of the reserve formulas.
A ledger is the sequence ``(L_1, ..., L_n)`` of the liquidity on each of its
ranges, in the order of its sequence of ranges, optionally followed by the
tail ``(full_range_liquidity, hold_x, hold_y)``. This flat form is also what
a strategy state stores.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._tuples import checked_tuple

TICK_BASE = 1.0001
# Largest |i| for which TICK_BASE**i stays comfortably inside float range;
# same bound as the common on-chain implementations.
MAX_TICK = 887272

_LOG_TICK_BASE = math.log(TICK_BASE)


def check_bound(value: float, name: str, strict: bool = True, error: type = ValueError) -> None:
    """Raise ``error`` unless ``value`` is finite and > 0 (``strict``) or >= 0."""
    if not (0.0 < value < math.inf if strict else 0.0 <= value < math.inf):
        raise error(f"{name} must be finite and {'>' if strict else '>='} 0, got {value!r}")


def check_range(lower: float, upper: float) -> None:
    """Raise ValueError unless 0 < lower < upper, both finite."""
    if 0.0 < lower < upper < math.inf:  # the common case; the checks below name a failure
        return
    check_bound(lower, "lower")
    if not math.isfinite(upper):
        raise ValueError(f"upper must be finite, got {upper!r}")
    if upper <= lower:
        raise ValueError(f"upper must exceed lower, got [{lower!r}, {upper!r}]")


class PriceRange(checked_tuple("PriceRange", "lower upper")):
    """A price interval [lower, upper] with 0 < lower < upper, both finite."""

    __slots__ = ()

    def _check(self) -> None:
        check_range(*self)


class PairProfile(checked_tuple("PairProfile", "name tick_spacing")):
    """Static facts about a trading pair that the engine needs.

    tick_spacing restricts valid tick indices to multiples of itself when
    snapping is enabled; 60 is typical for volatile pairs, 10 for stable ones.
    """

    __slots__ = ()

    def _check(self) -> None:
        if self.tick_spacing < 1:
            raise ValueError(f"tick_spacing must be >= 1, got {self.tick_spacing}")


# Each pair class by name, in the order the command line lists them.
PAIRS = {pair.name: pair for pair in (PairProfile("volatile", 60), PairProfile("stable", 10))}


def pair_for_class(pair_class: str) -> PairProfile:
    """Map a pair class name (a key of ``PAIRS``) to its profile."""
    try:
        return PAIRS[pair_class]
    except (KeyError, TypeError):
        raise ValueError(f"unknown pair class {pair_class!r}") from None


def tick_price(index: int) -> float:
    """Price of tick ``index``, i.e. TICK_BASE**index."""
    if abs(index) > MAX_TICK:
        raise ValueError(f"tick index {index} outside [-{MAX_TICK}, {MAX_TICK}]")
    return TICK_BASE**index


def nearest_spaced_tick(price: float, spacing: int) -> int:
    """Tick index closest to ``price`` in log space among multiples of spacing."""
    if spacing < 1:
        raise ValueError(f"spacing must be >= 1, got {spacing}")
    check_bound(price, "price")
    exact = math.log(price) / _LOG_TICK_BASE
    step = round(exact / spacing)
    bound = MAX_TICK // spacing
    return max(-bound, min(bound, step)) * spacing


def symmetric_bounds(price: float, a: float) -> tuple[float, float]:
    """Bounds ``(price / (1 + a), price * (1 + a))``; no validation."""
    return price / (1.0 + a), price * (1.0 + a)


def range_geometry(
    lower: float, upper: float, sqrt_lower: float, sqrt_upper: float
) -> tuple[float, ...]:
    """Geometry tuple of ``[lower, upper]`` from its bounds and their roots.

    No validation. Taking the roots lets a caller reuse one it already has.
    """
    return (
        lower,
        upper,
        sqrt_lower,
        1.0 / sqrt_lower - 1.0 / sqrt_upper,
        sqrt_upper - sqrt_lower,
        1.0 / sqrt_upper,
    )


def geometry_of(lower: float, upper: float) -> tuple[float, ...]:
    """Geometry tuple of ``[lower, upper]``; no validation."""
    return range_geometry(lower, upper, math.sqrt(lower), math.sqrt(upper))


def mark(
    ranges: Sequence[tuple[float, ...]],
    ledger: Sequence[float],
    price: float,
    sqrt_price: float,
) -> tuple[float, float, float, float]:
    """Mark a ledger holding positions on ``ranges`` at ``price``.

    Returns ``(active, value, x, y)``: the ledger's active liquidity, its
    value in quote-token units, and the summed real reserves of its range
    positions; ``sqrt_price`` is ``sqrt(price)``. No validation.

    Per range, the reserves are ``L`` times the reserves per unit of
    liquidity. Inside the range both tokens are held; below it the position
    is entirely base token, above it entirely quote token. The boundary
    points use the in-range branch; both branches agree there. A position's
    value is ``y + x * p``, a full-range deposit's ``2 * L * sqrt(p)``, loose
    tokens' ``x * p + y``; terms that are 0 by construction are not added,
    which leaves every sum bit-identical because all amounts are
    non-negative.

    A position is active when the price is inside its closed range. When
    two positions share a bound at the price (the situation right after a
    reset), the shared point is attributed to the lower position only, so
    the total is never double-counted.
    """
    count = len(ranges)
    tail = len(ledger) > count
    active = ledger[count] if tail else 0.0
    value = x_sum = y_sum = 0.0
    for (lower, upper, sqrt_lower, inv_span, sqrt_span, inv_sqrt_upper), liquidity in zip(
        ranges, ledger
    ):
        if price < lower:
            x = liquidity * inv_span
            value += x * price
            x_sum += x
        elif price > upper:
            y = liquidity * sqrt_span
            value += y
            y_sum += y
        else:
            x = liquidity * (1.0 / sqrt_price - inv_sqrt_upper)
            y = liquidity * (sqrt_price - sqrt_lower)
            value += y + x * price
            x_sum += x
            y_sum += y
            if price != lower or not any(other[1] == price for other in ranges):
                active += liquidity
    if tail:
        full, hold_x, hold_y = ledger[count:]
        if full > 0.0:
            value += 2.0 * full * sqrt_price
        if hold_x > 0.0 or hold_y > 0.0:
            value += hold_x * price + hold_y
    return active, value, x_sum, y_sum


def one_sided_liquidity(
    x: float, y: float, below: tuple[float, ...], above: tuple[float, ...]
) -> tuple[float, float]:
    """Liquidity minted by quote tokens ``y`` in the range ``below`` and by
    base tokens ``x`` in the range ``above`` (geometry tuples).

    ``below`` must lie at or below the price and ``above`` at or above it,
    so each deposit is one token only; nothing mints nothing. No validation.
    """
    return (y / below[4] if y > 0.0 else 0.0, x / above[3] if x > 0.0 else 0.0)


def liquidity_from_equal_value(price: float, a: float, total_value: float) -> float:
    """Liquidity that deposits ``total_value`` 50/50 into the range
    ``symmetric_bounds(price, a)``.

    For the symmetric range the in-range reserves at its own midprice satisfy
    x * p = y, and the closed form below follows from setting y = total/2:

        L = (total / 2) / (sqrt(p) * (1 - 1 / sqrt(1 + a)))

    Checks its arguments, then computes :func:`equal_value_liquidity`.
    """
    check_bound(price, "price")
    check_bound(a, "a")
    check_bound(total_value, "total_value", strict=False)
    return equal_value_liquidity(price, a, total_value)


def equal_value_liquidity(price: float, a: float, total_value: float) -> float:
    """The closed form of :func:`liquidity_from_equal_value`; no validation."""
    return (total_value / 2.0) / (math.sqrt(price) * (1.0 - 1.0 / math.sqrt(1.0 + a)))


def liquidity_for_value(lower: float, upper: float, price: float, total_value: float) -> float:
    """Liquidity such that a position on ``[lower, upper]`` is worth
    ``total_value`` at ``price``.

    Inverse of the value :func:`mark` gives a lone position; used when the
    range is not centered on the deposit price (tick-snapped ranges).
    """
    check_range(lower, upper)
    check_bound(total_value, "total_value", strict=False)
    check_bound(price, "price")
    unit = mark((geometry_of(lower, upper),), (1.0,), price, math.sqrt(price))[1]
    if unit <= 0.0:
        raise ValueError(f"range [{lower!r}, {upper!r}] holds no value at {price!r}")
    return total_value / unit
