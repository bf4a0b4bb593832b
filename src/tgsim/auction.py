"""Double-auction clearing for retail feeders and the area market.

Demand and supply are step curves built from limit orders. Clearing
finds the largest quantity at which the demand staircase still sits at
or above the supply staircase, then prices the trade:

* if only one price is consistent with that quantity (one curve crosses
  the other's horizontal step) that price clears;
* if a whole interval of prices is consistent (the curves overlap along
  a vertical gap) the midpoint of the interval clears;
* if nothing overlaps there is no trade and the price is the midpoint
  of the best bid and best ask when both exist, else the price floor.

Allocation fills every order strictly better than the clearing price in
full, then rations orders exactly at the clearing price in ascending
order-id, so at most one order per side is partially filled and the two
sides balance exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .fold import left_sum

SIDE_BUY = "buy"
SIDE_SELL = "sell"


@dataclass(frozen=True)
class Order:
    """One limit order. Quantity in kW, price in currency per unit."""

    order_id: str
    side: str
    price: float
    quantity: float

    def __post_init__(self) -> None:
        if self.side not in (SIDE_BUY, SIDE_SELL):
            raise ValueError(f"bad side {self.side!r}")
        if not self.quantity > 0:
            raise ValueError("order quantity must be positive")
        if not math.isfinite(self.price):
            raise ValueError("order price must be finite")


class Segment(NamedTuple):
    price: float
    quantity: float
    order_id: str


class StepCurve:
    """Aggregated step curve, demand sorted high to low, supply low to high.

    Per-order identity is preserved; equal-price segments simply sit
    adjacent in the sort, which serves as the merged price level.
    """

    def __init__(self, side: str, segments: Iterable[Segment]) -> None:
        if side not in (SIDE_BUY, SIDE_SELL):
            raise ValueError(f"bad side {side!r}")
        self.side = side
        segs = [Segment(float(p), float(q), str(i)) for p, q, i in segments]
        for s in segs:
            if not s.quantity > 0:
                raise ValueError("segment quantity must be positive")
        if side == SIDE_BUY:
            segs.sort(key=lambda s: (-s.price, s.order_id))
        else:
            segs.sort(key=lambda s: (s.price, s.order_id))
        self.segments = segs

    def __len__(self) -> int:
        return len(self.segments)

    def total_quantity(self) -> float:
        return left_sum(s.quantity for s in self.segments)

    def best_price(self) -> float | None:
        return self.segments[0].price if self.segments else None

    def quantity_at(self, price: float) -> float:
        """Quantity willing to trade at the given price (weak inequality)."""
        if self.side == SIDE_BUY:
            return left_sum(s.quantity for s in self.segments if s.price >= price)
        return left_sum(s.quantity for s in self.segments if s.price <= price)


@dataclass
class ClearingResult:
    price: float
    quantity: float
    accepted_buys: dict[str, float] = field(default_factory=dict)
    accepted_sells: dict[str, float] = field(default_factory=dict)
    marginal_order: str | None = None


def build_demand_curve(bids: Iterable[Order], fleet: Iterable[Segment] = ()) -> StepCurve:
    """Demand curve from buy orders; must-run orders already bid the cap.

    ``fleet`` adds segments of bids that were checked as ``Order`` checks
    them but never built as orders (``bidding.fleet_bids``).
    """
    segs = list(fleet)
    for o in bids:
        if o.side != SIDE_BUY:
            raise ValueError(f"demand curve given a sell order {o.order_id}")
        segs.append(Segment(o.price, o.quantity, o.order_id))
    return StepCurve(SIDE_BUY, segs)


@dataclass(frozen=True)
class FeederSupplySpec:
    """Feeder import capability seen by the retail market.

    The feeder can import capacity_normal kW at the wholesale price.
    Scarcity steps offer additional blocks at increasing prices, which
    stands in for emergency headroom; beyond the last step the curve
    simply ends, which is the hard feeder limit.
    """

    wholesale_price: float
    capacity_normal: float
    scarcity_steps: tuple[tuple[float, float], ...] = ()
    price_cap: float = 1000.0

    def __post_init__(self) -> None:
        if self.capacity_normal < 0:
            raise ValueError("capacity must be nonnegative")
        last = self.wholesale_price
        for price, extra in self.scarcity_steps:
            if price <= last:
                raise ValueError("scarcity step prices must increase")
            if not extra > 0:
                raise ValueError("scarcity step quantity must be positive")
            last = price
        if self.scarcity_steps and self.scarcity_steps[-1][0] > self.price_cap:
            raise ValueError("scarcity step above price cap")


MARKET_MAKER_PREFIX = "__import"


def build_feeder_supply(spec: FeederSupplySpec, sell_bids: Iterable[Order] = ()) -> StepCurve:
    """Supply curve: wholesale block, scarcity blocks, local sell orders."""
    segs = []
    if spec.capacity_normal > 0:
        segs.append(Segment(spec.wholesale_price, spec.capacity_normal, f"{MARKET_MAKER_PREFIX}_wholesale"))
    for k, (price, extra) in enumerate(spec.scarcity_steps):
        segs.append(Segment(price, extra, f"{MARKET_MAKER_PREFIX}_scarcity{k}"))
    for o in sell_bids:
        if o.side != SIDE_SELL:
            raise ValueError(f"supply curve given a buy order {o.order_id}")
        segs.append(Segment(o.price, o.quantity, o.order_id))
    return StepCurve(SIDE_SELL, segs)


def aggregate_demand(curves: Iterable[StepCurve]) -> StepCurve:
    """Horizontal (quantity) sum of several demand curves."""
    segs = []
    for c in curves:
        if c.side != SIDE_BUY:
            raise ValueError("can only aggregate demand curves")
        segs.extend(c.segments)
    return StepCurve(SIDE_BUY, segs)


def _price_spans(curve: StepCurve) -> list[tuple[float, float]]:
    """(cumulative quantity, price) spans in trade order."""
    spans = []
    cum = 0.0
    for s in curve.segments:
        cum += s.quantity
        spans.append((cum, s.price))
    return spans


def clear(
    demand: StepCurve,
    supply: StepCurve,
    price_floor: float = 0.0,
    price_cap: float = float("inf"),
) -> ClearingResult:
    """Find the clearing price and quantity of two step curves.

    Only sets price and quantity; allocate() distributes the fills.
    """
    if demand.side != SIDE_BUY or supply.side != SIDE_SELL:
        raise ValueError("clear() wants a demand curve and a supply curve")
    d_spans = _price_spans(demand)
    s_spans = _price_spans(supply)

    # walk merged quantity breakpoints while demand stays at or above supply
    qty = 0.0
    d_at = s_at = None  # prices on the last feasible elementary interval
    di = si = 0
    while di < len(d_spans) and si < len(s_spans):
        d_cum, d_price = d_spans[di]
        s_cum, s_price = s_spans[si]
        if d_price < s_price:
            break
        step_end = min(d_cum, s_cum)
        qty = step_end
        d_at, s_at = d_price, s_price
        if d_cum <= step_end:
            di += 1
        if s_cum <= step_end:
            si += 1

    if qty <= 0.0:
        best_bid = demand.best_price()
        best_ask = supply.best_price()
        if best_bid is not None and best_ask is not None:
            price = (best_bid + best_ask) / 2.0
        else:
            price = price_floor
        return ClearingResult(price=price, quantity=0.0)

    # prices just beyond the traded quantity bound the clearing price
    d_next = d_spans[di][1] if di < len(d_spans) else None
    s_next = s_spans[si][1] if si < len(s_spans) else None
    lo = s_at if d_next is None else max(s_at, d_next)
    hi = d_at if s_next is None else min(d_at, s_next)
    price = lo if lo == hi else (lo + hi) / 2.0
    price = min(max(price, price_floor), price_cap)
    return ClearingResult(price=price, quantity=qty)


def _fill_side(
    segments: list[Segment], price: float, quantity: float, better
) -> tuple[dict[str, float], str | None]:
    fills: dict[str, float] = {}
    marginal = None
    remaining = quantity
    at_price = []
    for s in segments:
        if better(s.price, price):
            take = min(s.quantity, remaining)
            fills[s.order_id] = fills.get(s.order_id, 0.0) + take
            remaining -= take
        elif s.price == price:
            at_price.append(s)
    # ration orders exactly at the clearing price by ascending order id
    at_price.sort(key=lambda s: s.order_id)
    for s in at_price:
        if remaining <= 0.0:
            break
        take = min(s.quantity, remaining)
        fills[s.order_id] = fills.get(s.order_id, 0.0) + take
        remaining -= take
        if take < s.quantity:
            marginal = s.order_id
            break
    return fills, marginal


def allocate(result: ClearingResult, demand: StepCurve, supply: StepCurve) -> ClearingResult:
    """Distribute the cleared quantity over individual orders.

    Strictly in-the-money orders fill completely; orders at the clearing
    price are rationed in ascending order-id with at most one partial
    fill per side. marginal_order reports the buy-side partial if there
    is one, else the sell-side partial.
    """
    if result.quantity <= 0.0:
        result.accepted_buys = {}
        result.accepted_sells = {}
        result.marginal_order = None
        return result
    buys, m_buy = _fill_side(demand.segments, result.price, result.quantity, lambda p, c: p > c)
    sells, m_sell = _fill_side(supply.segments, result.price, result.quantity, lambda p, c: p < c)
    result.accepted_buys = buys
    result.accepted_sells = sells
    result.marginal_order = m_buy if m_buy is not None else m_sell
    return result


def clear_and_allocate(
    demand: StepCurve,
    supply: StepCurve,
    price_floor: float = 0.0,
    price_cap: float = float("inf"),
) -> ClearingResult:
    return allocate(clear(demand, supply, price_floor, price_cap), demand, supply)


def clear_area(
    agg_demand: StepCurve,
    renewables_price: float,
    renewables_capacity: float,
    bulk_price: float,
    bulk_capacity: float,
    price_floor: float = 0.0,
    price_cap: float = float("inf"),
) -> ClearingResult:
    """Clear aggregated demand against the two-step merit order supply."""
    if bulk_price <= renewables_price:
        raise ValueError("bulk price must exceed the renewables price")
    segs = []
    if renewables_capacity > 0:
        segs.append(Segment(renewables_price, renewables_capacity, "__area_renewables"))
    if bulk_capacity > 0:
        segs.append(Segment(bulk_price, bulk_capacity, "__area_bulk"))
    supply = StepCurve(SIDE_SELL, segs)
    return clear(agg_demand, supply, price_floor, price_cap)


def participation(curves: dict[str, StepCurve], price: float) -> dict[str, float]:
    """Per-feeder quantity read back by evaluating each curve at a price."""
    return {name: c.quantity_at(price) for name, c in curves.items()}
