"""Double-auction clearing for retail feeders and the area market.

Demand and supply are step curves built from limit orders. A curve is
held as columns sorted in trade order: price, quantity and the order's
rank. Demand runs from the highest price down, supply from the lowest
up, and orders at one price sit in ascending rank. The rank is the
order's identity: its position in a fixed list of order ids (an
``OrderRanks`` table), which names the order again. One rule sets the
ranks: the order in which a run builds its orders. A run lists them
once, in one table: the market maker's blocks in step order (wholesale,
then ``scarcity0``, ``scarcity1``, ...), each battery's ``chg`` and
``dis`` legs in device-id order, each feeder's ``base`` and ``resp`` in
config order, then every house in fleet order. The table formats a
house's name only when asked for it. So the area curve merges feeder
curves on (price, rank) alone. Each feeder curve is already in trade
order, so the merge (``merge_order``) is one stable sort on the price,
which merges the curves' runs, and a re-sort by rank of only the groups
of equal prices that the merge left out of rank order. Steps without
ids, such as forecast steps, rank by their step number.

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
rank, so at most one order per side is partially filled and the two
sides balance exactly. Each side's fills are one column over a prefix of
its curve in trade order. Cumulative and remaining quantities are left
folds (``np.add.accumulate``, ``np.subtract.accumulate``), so the array
passes give the bits of an order-by-order walk, which
``tests/oracle_clearing.py`` keeps as the reference. Each curve keeps
its trade key (``key``: the price, negated for demand) in trade order,
so clearing and allocation search it without negating prices again,
and its cumulative quantities (``cum``). Once cleared against, a curve
also keeps its staircase, the cumulative quantity and price columns as
lists, which clearing walks. No clearing changes a curve, so a run
builds each feeder's supply (``build_feeder_supply``) at most once per
hour and pattern of local sell orders, and the area's
(``build_area_supply``) once per bulk price, and clears every interval
of the hour against them. Orders come to the builders as columns
(``Bids``) with the run's table: a fleet's bids straight from its
array pass, the fixed orders (base load, battery legs) through
``order_columns``, which a run calls once per pattern of legs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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


MARKET_MAKER_PREFIX = "__import"


def market_maker_ids(n_steps: int) -> list[str]:
    """Ids of the wholesale block and of n_steps scarcity steps, in step order."""
    mm = MARKET_MAKER_PREFIX
    return [f"{mm}_wholesale"] + [f"{mm}_scarcity{k}" for k in range(n_steps)]


class OrderRanks:
    """Tie-break ranks of a fixed list of distinct order ids, given in
    rank order, then of blocks of house orders.

    A fixed id's rank is its position, ``ids`` holds the fixed ids and
    ``of`` looks them up. Each ``(feeder id, count)`` of ``blocks``
    ranks that many houses next, in fleet order; ``blocks`` keeps them
    as ``(feeder id, first rank, count)``. House j of feeder f is named
    ``f"{f}_h{j:04d}"``, but only when ``name`` or ``names`` asks, so a
    table of any fleet holds no per-house string.
    """

    def __init__(self, ids: Iterable[str], blocks: Iterable[tuple[str, int]] = ()) -> None:
        ids = list(ids)
        self.ids = np.array(ids, dtype=object)
        self._rank = dict(zip(ids, range(len(ids))))
        if len(self._rank) != len(ids):
            raise ValueError("order ids must be distinct")
        first = len(ids)
        self.blocks: list[tuple[str, int, int]] = []
        for fid, count in blocks:
            self.blocks.append((fid, first, count))
            first += count

    def of(self, ids: Iterable[str]) -> np.ndarray:
        """Ranks of fixed ids."""
        rank = self._rank
        return np.array([rank[oid] for oid in ids], dtype=np.intp)

    def name(self, rank: int) -> str:
        """The order id of ``rank``."""
        rank = int(rank)
        if rank < len(self.ids):
            return self.ids[rank]
        for fid, first, count in self.blocks:
            if rank < first + count:
                return f"{fid}_h{rank - first:04d}"
        raise IndexError(f"rank {rank} is outside the table")

    def names(self, ranks) -> np.ndarray:
        """The order ids of ``ranks``, as an object array."""
        return np.array([self.name(rank) for rank in np.asarray(ranks).tolist()], dtype=object)


class Bids(NamedTuple):
    """Orders of one side as columns. ``rank`` orders equal prices and,
    where the orders have ids, indexes the table that names them."""

    price: np.ndarray
    quantity: np.ndarray
    rank: np.ndarray


def merge_order(key: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """The order ``np.lexsort((rank, key))`` gives, in near-linear time
    where ``key`` is a few ascending runs, as curves one after another are.

    A stable argsort of ``key`` (numpy's timsort) merges the runs. It
    leaves each group of equal keys in input order, so only the groups
    where that breaks ascending rank sort again, by (rank, input
    position), in one sort for all of them. The order is exact for any
    columns; NaN keys tie with each other and sort last, as in lexsort.
    """
    order = key.argsort(kind="stable")
    k, r = key[order], rank[order]
    tie = k[1:] == k[:-1]
    if len(k) and k[-1] != k[-1]:  # NaNs, which sort last
        tie |= np.isnan(k[1:]) & np.isnan(k[:-1])
    inverted = tie & (r[1:] < r[:-1])
    if not np.count_nonzero(inverted):
        return order
    # the groups of equal keys that hold an inversion sort again; besides
    # ``group`` the scratch is one byte a row, since a run merges forecasts
    # while it holds a day of curves
    group = np.cumsum(np.concatenate(([False], ~tie)))
    redo = np.zeros(group[-1] + 1, dtype=bool)
    redo[group[1:][inverted]] = True
    at = np.flatnonzero(redo[group])
    order[at] = order[at[np.lexsort((r[at], group[at]))]]
    return order


class StepCurve:
    """Aggregated step curve as columns in trade order.

    ``price``, ``quantity`` (float64) and ``rank`` (integers) hold one
    entry per order. Demand sorts by descending price, supply by
    ascending price, ties by ascending rank; the sort is stable, so
    equal (price, rank) orders keep their input order. ``key`` is the
    ascending column the sort ran on: ``-price`` for demand, ``price``
    for supply. ``cum`` is the cumulative quantity, a left fold
    (``np.add.accumulate``), so each entry has the bits of a running
    ``cum += quantity``. Equal-price orders sit adjacent as the merged
    price level, each keeping its rank; ``ranks`` is the table the
    ranks index (None for steps without ids), which names an order.

    ``_from_columns`` is the one way in: the library's builders pass it
    columns whose quantities they have checked.
    """

    @classmethod
    def _from_columns(cls, side: str, price, quantity, rank, ranks: OrderRanks | None = None, merge=False) -> StepCurve:
        """Sort columns into a curve; ``rank`` is the tie key, indexing
        ``ranks`` if given. ``merge`` says the columns are curves of this
        side one after another, each in trade order, so ``merge_order``
        merges them; the order is the same."""
        if side not in (SIDE_BUY, SIDE_SELL):
            raise ValueError(f"bad side {side!r}")
        price = np.asarray(price, dtype=np.float64)
        quantity = np.asarray(quantity, dtype=np.float64)
        key = -price if side == SIDE_BUY else price
        # stable, and -0.0 ties with 0.0 as it does under Python's sort
        order = merge_order(key, rank) if merge else np.lexsort((rank, key))
        curve = cls()
        curve.side = side
        curve.key = key[order]
        curve.price = price[order]
        curve.quantity = quantity[order]
        curve.rank = rank[order]
        curve.ranks = ranks
        curve.cum = np.add.accumulate(curve.quantity)
        return curve

    @cached_property
    def staircase(self) -> tuple[list[float], list[float]]:
        """``cum`` and ``price`` as lists, made on the first read and kept."""
        return self.cum.tolist(), self.price.tolist()

    def __len__(self) -> int:
        return len(self.price)

    def best_price(self) -> float | None:
        return float(self.price[0]) if len(self.price) else None


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


def order_columns(orders: Sequence[Order], ranks: OrderRanks) -> Bids:
    """Orders of one side as columns, in the given order, ranked by ``ranks``."""
    return Bids(
        np.array([o.price for o in orders], dtype=np.float64),
        np.array([o.quantity for o in orders], dtype=np.float64),
        ranks.of(o.order_id for o in orders),
    )


def build_demand_curve(bids: Bids, ranks: OrderRanks, houses: Bids | None = None) -> StepCurve:
    """Demand curve from buy orders; must-run orders already bid the cap.

    ``bids`` is the buy orders as columns (``order_columns``), as a run
    passes its fixed orders, ranked by ``ranks``. ``houses`` adds a
    fleet's bids as columns, checked as ``Order`` checks them but never
    built as orders (``bidding.fleet_bids``); they go ahead of ``bids``
    into the one sort.
    """
    if houses is not None:
        if not (houses.quantity > 0).all():
            raise ValueError("order quantity must be positive")
        bids = Bids(*(np.concatenate(pair) for pair in zip(houses, bids)))
    return StepCurve._from_columns(SIDE_BUY, *bids, ranks)


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


def build_feeder_supply(spec: FeederSupplySpec, sells: Bids, ranks: OrderRanks) -> StepCurve:
    """Supply curve: wholesale block, scarcity blocks, then the local sell
    orders ``sells`` as columns (``order_columns``), ranked by ``ranks``,
    which names the market maker's blocks too (``market_maker_ids``)."""
    steps = spec.scarcity_steps
    whole = spec.capacity_normal > 0  # steps and orders are positive already
    ids = market_maker_ids(len(steps))[0 if whole else 1:]
    price = np.concatenate(([spec.wholesale_price] * whole + [p for p, _ in steps], sells.price))
    quantity = np.concatenate(([spec.capacity_normal] * whole + [q for _, q in steps], sells.quantity))
    return StepCurve._from_columns(SIDE_SELL, price, quantity, np.concatenate((ranks.of(ids), sells.rank)), ranks)


def aggregate_demand(curves: Iterable[StepCurve]) -> StepCurve:
    """Horizontal (quantity) sum of several demand curves of one rank table.

    The curves' columns are concatenated in the given order and merged
    (``merge_order``), which keeps that order among equal (price, rank)
    orders. One curve is its own sum and is returned as it is; no curves
    sum to an empty curve.
    """
    curves = list(curves)
    if not curves:
        return StepCurve._from_columns(SIDE_BUY, [], [], np.zeros(0, dtype=np.intp))
    ranks = curves[0].ranks
    for c in curves:
        if c.side != SIDE_BUY:
            raise ValueError("can only aggregate demand curves")
        if c.ranks is not ranks:
            raise ValueError("can only aggregate curves of one rank table")
    if len(curves) == 1:
        return curves[0]
    price = np.concatenate([c.price for c in curves])
    quantity = np.concatenate([c.quantity for c in curves])
    rank = np.concatenate([c.rank for c in curves])
    return StepCurve._from_columns(SIDE_BUY, price, quantity, rank, ranks, merge=True)


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
    d_cum, d_price, d_key = demand.cum, demand.price, demand.key
    s_cum, s_price = supply.staircase
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
        below = int(d_key.searchsorted(-s_p, "right"))  # first demand price < s_p
        reach = int(d_cum.searchsorted(s_end, "left"))  # first demand end >= s_end
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
    sit in ascending rank. remaining[i] is what is left before order i;
    orders fill whole up to the first one it cannot cover (the clamp).
    A strictly better order there takes what is left and every later
    one takes 0.0; an at-price order there is the marginal partial fill,
    and no at-price order fills once nothing is left.
    """
    key = curve.key
    p_key = -price if curve.side == SIDE_BUY else price
    n_better = int(key.searchsorted(p_key, "left"))
    end = int(key.searchsorted(p_key, "right"))
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
            n, marginal = c + 1, curve.ranks.name(curve.rank[c])
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
    price are rationed in ascending rank with at most one partial
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


def build_area_supply(renewables_price: float, renewables_capacity: float, bulk_price: float,
                      bulk_capacity: float) -> StepCurve:
    """The area's two-step merit order supply: renewables, then bulk."""
    if bulk_price <= renewables_price:
        raise ValueError("bulk price must exceed the renewables price")
    renewables, bulk = renewables_capacity > 0, bulk_capacity > 0
    return StepCurve._from_columns(
        SIDE_SELL,
        [renewables_price] * renewables + [bulk_price] * bulk,
        [renewables_capacity] * renewables + [bulk_capacity] * bulk,
        _AREA_BLOCKS.of(["__area_renewables"] * renewables + ["__area_bulk"] * bulk),
        _AREA_BLOCKS,
    )


def clear_area(
    agg_demand: StepCurve,
    supply: StepCurve,
    price_floor: float = 0.0,
    price_cap: float = float("inf"),
) -> ClearingResult:
    """Clear aggregated demand against the area's supply (``build_area_supply``)."""
    return clear(agg_demand, supply, price_floor, price_cap)
