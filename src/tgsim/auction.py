"""Double-auction clearing for retail feeders and the area market.

Demand and supply are step curves built from limit orders. A curve is
held as columns sorted in trade order: price, quantity and the order's
rank. Demand runs from the highest price down, supply from the lowest
up, and orders at one price sit in ascending order id. The rank is the
order's identity: it is the id's position in Python string order among
a fixed set of ids (an ``OrderRanks`` table), so ``f1_h10000`` ranks
before ``f1_h9999``, and the table's sorted ids name the order again. A
run ranks its order ids in one table, once, so the area curve merges
feeder curves with one stable sort on (price, rank), and the market
maker's orders are one range of ranks. Steps without ids take any
integer key that orders them as ids would, and have no names.

Clearing finds the largest quantity at which the demand staircase still
sits at or above the supply staircase, then prices the trade:

* if only one price is consistent with that quantity (one curve crosses
  the other's horizontal step) that price clears;
* if a whole interval of prices is consistent (the curves overlap along
  a vertical gap) the midpoint of the interval clears;
* if nothing overlaps there is no trade and the price is the midpoint
  of the best bid and best ask when both exist, else the price floor.

Allocation fills every order strictly better than the clearing price in
full, then rations orders exactly at the clearing price in ascending
order-id, so at most one order per side is partially filled and the two
sides balance exactly. Each side's fills are one column over a prefix of
its curve in trade order. Cumulative and remaining quantities are left
folds (``np.add.accumulate``, ``np.subtract.accumulate``), so the array
passes give the bits of an order-by-order walk, which
``tests/oracle_clearing.py`` keeps as the reference.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .fold import array_sum

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


MARKET_MAKER_PREFIX = "__import"


def market_maker_ids(n_steps: int) -> list[str]:
    """Ids of the wholesale block and of n_steps scarcity steps, in step order."""
    mm = MARKET_MAKER_PREFIX
    return [f"{mm}_wholesale"] + [f"{mm}_scarcity{k}" for k in range(n_steps)]


class OrderRanks:
    """Tie-break ranks of a fixed set of order ids.

    An id's rank is its position among the distinct ids in Python string
    order, so ordering by rank orders by id, equal ids tie and
    ``ids[rank]`` names the order. Ids that share a prefix sit together
    in that order, so the market maker's ids are one range of ranks.
    """

    def __init__(self, ids: Iterable[str]) -> None:
        # sorting before deduplicating keeps runs of ids already in order,
        # which the sort takes in one pass
        distinct = list(dict.fromkeys(sorted(ids)))
        self._rank = dict(zip(distinct, range(len(distinct))))
        self.ids = np.array(distinct, dtype=object)
        # the ranks of the market maker's ids: every id with the prefix
        # sorts at or past it and before the prefix with its last
        # character raised
        mm = MARKET_MAKER_PREFIX
        self.market_maker = range(bisect_left(distinct, mm), bisect_left(distinct, mm[:-1] + chr(ord(mm[-1]) + 1)))

    def of(self, ids: Iterable[str]) -> np.ndarray:
        rank = self._rank
        return np.array([rank[oid] for oid in ids], dtype=np.intp)


class Bids(NamedTuple):
    """Orders of one side as columns. ``rank`` orders equal prices and,
    where the orders have ids, indexes the table that names them."""

    price: np.ndarray
    quantity: np.ndarray
    rank: np.ndarray


class StepCurve:
    """Aggregated step curve as columns in trade order.

    ``price``, ``quantity`` (float64) and ``rank`` (integers) hold one
    entry per order. Demand sorts by descending price, supply by
    ascending price, ties by ascending rank, i.e. by order id; the sort
    is stable, so equal (price, id) orders keep their input order.
    Per-order identity is preserved: equal-price orders sit adjacent as
    the merged price level. ``ranks`` is the table the ranks index, and
    ``ids`` reads the orders' names from it (None without a table).

    ``_from_columns`` is the one way in: the library's builders pass it
    columns whose quantities they have checked. ``StepCurve(side,
    segments)`` turns (price, quantity, order_id) rows into columns and
    a table of their ids, for tests and hand-built curves. ``segments``
    rebuilds the rows on each read.
    """

    def __init__(self, side: str, segments: Iterable[tuple[float, float, str]] = ()) -> None:
        rows = [(float(p), float(q), str(i)) for p, q, i in segments]
        if not all(q > 0 for _, q, _ in rows):
            raise ValueError("segment quantity must be positive")
        ids = [i for _, _, i in rows]
        ranks = OrderRanks(ids)
        self._sort(side, [p for p, _, _ in rows], [q for _, q, _ in rows], ranks.of(ids), ranks)

    @classmethod
    def _from_columns(cls, side: str, price, quantity, rank, ranks: OrderRanks | None = None) -> StepCurve:
        """Sort columns into a curve; ``rank`` is the tie key, indexing
        ``ranks`` if given."""
        curve = cls.__new__(cls)
        curve._sort(side, price, quantity, rank, ranks)
        return curve

    def _sort(self, side, price, quantity, rank, ranks) -> None:
        if side not in (SIDE_BUY, SIDE_SELL):
            raise ValueError(f"bad side {side!r}")
        price = np.asarray(price, dtype=np.float64)
        quantity = np.asarray(quantity, dtype=np.float64)
        # stable, and -0.0 ties with 0.0 as it does under Python's sort
        order = np.lexsort((rank, -price if side == SIDE_BUY else price))
        self.side = side
        self.price = price[order]
        self.quantity = quantity[order]
        self.rank = rank[order]
        self.ranks = ranks

    @property
    def ids(self) -> np.ndarray | None:
        return None if self.ranks is None else self.ranks.ids[self.rank]

    @property
    def segments(self) -> list[Segment]:
        return [
            Segment(p, q, i)
            for p, q, i in zip(self.price.tolist(), self.quantity.tolist(), self.ids.tolist())
        ]

    def __len__(self) -> int:
        return len(self.price)

    def total_quantity(self) -> float:
        return array_sum(self.quantity)

    def best_price(self) -> float | None:
        return float(self.price[0]) if len(self.price) else None

    def quantity_at(self, price: float) -> float:
        """Quantity willing to trade at the given price (weak inequality)."""
        willing = self.price >= price if self.side == SIDE_BUY else self.price <= price
        return array_sum(self.quantity[willing])


def _trade_key(curve: StepCurve) -> np.ndarray:
    """Ascending key of the trade order: better prices come first."""
    return -curve.price if curve.side == SIDE_BUY else curve.price


@dataclass(frozen=True, eq=False)
class ClearingResult:
    """``buy_fills[k]`` fills the demand curve's order k in trade order,
    ``sell_fills[k]`` the supply curve's; both are empty when nothing
    trades and in a ``clear()`` result."""

    price: float
    quantity: float
    buy_fills: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sell_fills: np.ndarray = field(default_factory=lambda: np.zeros(0))
    marginal_order: str | None = None


def _order_columns(orders: Sequence[Order], ranks: OrderRanks) -> Bids:
    return Bids(
        np.array([o.price for o in orders], dtype=np.float64),
        np.array([o.quantity for o in orders], dtype=np.float64),
        ranks.of(o.order_id for o in orders),
    )


def build_demand_curve(
    bids: Iterable[Order], ranks: OrderRanks | None = None, houses: Bids | None = None
) -> StepCurve:
    """Demand curve from buy orders; must-run orders already bid the cap.

    ``houses`` adds a fleet's bids as columns, checked as ``Order``
    checks them but never built as orders (``bidding.fleet_bids``); they
    go ahead of ``bids`` into the one sort. Ranks come from ``ranks``,
    which must then know every id, else from the orders' own ids.
    """
    orders = list(bids)
    for o in orders:
        if o.side != SIDE_BUY:
            raise ValueError(f"demand curve given a sell order {o.order_id}")
    if ranks is None:
        if houses is not None:
            raise ValueError("house bids need the rank table their ranks index")
        ranks = OrderRanks(o.order_id for o in orders)
    cols = _order_columns(orders, ranks)
    if houses is not None:
        if not (houses.quantity > 0).all():
            raise ValueError("order quantity must be positive")
        cols = Bids(*(np.concatenate(pair) for pair in zip(houses, cols)))
    return StepCurve._from_columns(SIDE_BUY, *cols, ranks)


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


def build_feeder_supply(spec: FeederSupplySpec, sell_bids: Iterable[Order] = (),
                        ranks: OrderRanks | None = None) -> StepCurve:
    """Supply curve: wholesale block, scarcity blocks, local sell orders (``ranks`` as for demand)."""
    sells = list(sell_bids)
    for o in sells:
        if o.side != SIDE_SELL:
            raise ValueError(f"supply curve given a buy order {o.order_id}")
    steps = spec.scarcity_steps
    whole = spec.capacity_normal > 0  # steps and orders are positive already
    ids = market_maker_ids(len(steps))[0 if whole else 1:] + [o.order_id for o in sells]
    price = [spec.wholesale_price] * whole + [p for p, _ in steps] + [o.price for o in sells]
    quantity = [spec.capacity_normal] * whole + [q for _, q in steps] + [o.quantity for o in sells]
    if ranks is None:
        ranks = OrderRanks(ids)
    return StepCurve._from_columns(SIDE_SELL, price, quantity, ranks.of(ids), ranks)


def aggregate_demand(curves: Iterable[StepCurve]) -> StepCurve:
    """Horizontal (quantity) sum of several demand curves.

    The curves' columns are concatenated in the given order and sorted
    once; the stable sort keeps that order among equal (price, id)
    orders. Curves that share a rank table merge on their ranks; others
    are re-ranked together.
    """
    curves = list(curves)
    for c in curves:
        if c.side != SIDE_BUY:
            raise ValueError("can only aggregate demand curves")
    if not curves:
        return StepCurve(SIDE_BUY)
    ranks = curves[0].ranks
    if ranks is not None and all(c.ranks is ranks for c in curves):
        rank = np.concatenate([c.rank for c in curves])
    else:
        ids = np.concatenate([c.ids for c in curves]).tolist()
        ranks = OrderRanks(ids)
        rank = ranks.of(ids)
    price = np.concatenate([c.price for c in curves])
    quantity = np.concatenate([c.quantity for c in curves])
    return StepCurve._from_columns(SIDE_BUY, price, quantity, rank, ranks)


def _price_spans(curve: StepCurve) -> tuple[np.ndarray, np.ndarray]:
    """(cumulative quantity, price) columns in trade order.

    ``np.add.accumulate`` folds left one element at a time, so each
    cumulative quantity has the bits of a running ``cum += quantity``.
    """
    return np.add.accumulate(curve.quantity), curve.price


def clear(
    demand: StepCurve,
    supply: StepCurve,
    price_floor: float = 0.0,
    price_cap: float = float("inf"),
) -> ClearingResult:
    """Find the clearing price and quantity of two step curves.

    Only sets price and quantity; clear_and_allocate() also fills the orders.
    """
    if demand.side != SIDE_BUY or supply.side != SIDE_SELL:
        raise ValueError("clear() wants a demand curve and a supply curve")
    d_cum, d_price = _price_spans(demand)
    d_key = _trade_key(demand)
    s_cum, s_price = (col.tolist() for col in _price_spans(supply))
    nd, ns = len(d_cum), len(s_cum)

    # Walk the supply steps while demand stays at or above supply. On one
    # step, the demand orders that end before the step does and price at
    # or above it trade whole; the first order past them either ends the
    # walk (priced below the step) or reaches the end of the step.
    qty = 0.0
    d_at = s_at = None  # prices on the last feasible elementary interval
    di = si = 0
    while di < nd and si < ns:
        s_end, s_p = s_cum[si], s_price[si]
        below = int(np.searchsorted(d_key, -s_p, "right"))  # first demand price < s_p
        reach = int(np.searchsorted(d_cum, s_end, "left"))  # first demand end >= s_end
        whole = max(di, min(below, reach))
        if whole > di:
            qty, d_at, s_at = float(d_cum[whole - 1]), float(d_price[whole - 1]), s_p
            di = whole
        if di == nd:
            break
        d_p = float(d_price[di])
        if d_p < s_p:
            break
        # this order reaches the end of the step, so the step trades whole
        qty, d_at, s_at = s_end, d_p, s_p
        if d_cum[di] == s_end:
            di += 1
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
    d_next = float(d_price[di]) if di < nd else None
    s_next = s_price[si] if si < ns else None
    lo = s_at if d_next is None else max(s_at, d_next)
    hi = d_at if s_next is None else min(d_at, s_next)
    price = lo if lo == hi else (lo + hi) / 2.0
    price = min(max(price, price_floor), price_cap)
    return ClearingResult(price=price, quantity=qty)


def _fill_side(curve: StepCurve, price: float, quantity: float) -> tuple[np.ndarray, str | None]:
    """Fills of one side: strictly better orders, then at-price rationing.

    Both are a prefix of the trade order, since at-price orders already
    sit in ascending id. remaining[i] is what is left before order i;
    orders fill whole up to the first one it cannot cover (the clamp).
    A strictly better order there takes what is left and every later
    one takes 0.0; an at-price order there is the marginal partial fill,
    and no at-price order fills once nothing is left.
    """
    key = _trade_key(curve)
    p_key = -price if curve.side == SIDE_BUY else price
    n_better = int(np.searchsorted(key, p_key, "left"))
    end = int(np.searchsorted(key, p_key, "right"))
    q = curve.quantity[:end]
    remaining = np.subtract.accumulate(np.concatenate(([quantity], q)))[:-1]
    short = q > remaining
    c = int(short.argmax()) if end else 0
    fills = q
    n, marginal = end, None
    if end and short[c]:
        left = float(remaining[c])
        fills = q.copy()
        fills[c] = left
        if c < n_better:
            fills[c + 1 : n_better] = 0.0
            n = n_better
        elif left > 0.0:
            n, marginal = c + 1, curve.ranks.ids[curve.rank[c]]
        else:
            n = c
    return fills[:n], marginal


def clear_and_allocate(
    demand: StepCurve,
    supply: StepCurve,
    price_floor: float = 0.0,
    price_cap: float = float("inf"),
) -> ClearingResult:
    """Clear two step curves and distribute the cleared quantity over orders.

    Strictly in-the-money orders fill completely; orders at the clearing
    price are rationed in ascending order-id with at most one partial
    fill per side. marginal_order reports the buy-side partial if there
    is one, else the sell-side partial. A no-trade clearing fills nothing.
    """
    result = clear(demand, supply, price_floor, price_cap)
    if result.quantity <= 0.0:
        return result
    buys, m_buy = _fill_side(demand, result.price, result.quantity)
    sells, m_sell = _fill_side(supply, result.price, result.quantity)
    marginal = m_buy if m_buy is not None else m_sell
    return ClearingResult(result.price, result.quantity, buys, sells, marginal)


_AREA_BLOCKS = OrderRanks(["__area_renewables", "__area_bulk"])


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
    renewables, bulk = renewables_capacity > 0, bulk_capacity > 0
    supply = StepCurve._from_columns(
        SIDE_SELL,
        [renewables_price] * renewables + [bulk_price] * bulk,
        [renewables_capacity] * renewables + [bulk_capacity] * bulk,
        _AREA_BLOCKS.of(["__area_renewables"] * renewables + ["__area_bulk"] * bulk),
        _AREA_BLOCKS,
    )
    return clear(agg_demand, supply, price_floor, price_cap)

