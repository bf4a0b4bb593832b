"""Step curves built by hand from order ids, and readers of their rows.

A run ranks its orders in the order it builds them, in one table
(``auction.OrderRanks``). Hand-written ids come in no build order, so
here they rank in ascending id, the rule by which the clearing oracle
(``oracle_clearing.py``) rations orders at one price. Every curve goes
through the package's one way in, ``StepCurve._from_columns``.

The readers rebuild a curve's rows, (price, quantity, order id) in trade
order, from its columns and the table its ranks index.
"""

from __future__ import annotations

from typing import NamedTuple

from tgsim.auction import (
    MARKET_MAKER_PREFIX,
    SIDE_BUY,
    SIDE_SELL,
    OrderRanks,
    StepCurve,
    build_demand_curve,
    build_feeder_supply,
    market_maker_ids,
    order_columns,
)
from tgsim.fold import array_sum


class Row(NamedTuple):
    price: float
    quantity: float
    order_id: str


def id_ranks(ids) -> OrderRanks:
    """A table of hand-written ids in ascending id; a repeated id names one rank."""
    return OrderRanks(sorted(set(ids)))


def hand_curve(side: str, rows=(), ranks: OrderRanks | None = None) -> StepCurve:
    """The curve of (price, quantity, order_id) rows, ranked by ``ranks``,
    else by ``id_ranks`` of the rows' ids."""
    rows = [Row(float(p), float(q), str(i)) for p, q, i in rows]
    if not all(r.quantity > 0 for r in rows):
        raise ValueError("segment quantity must be positive")
    ids = [r.order_id for r in rows]
    ranks = id_ranks(ids) if ranks is None else ranks
    return StepCurve._from_columns(side, [r.price for r in rows], [r.quantity for r in rows], ranks.of(ids), ranks)


def _check_side(orders, side: str) -> None:
    for o in orders:
        if o.side != side:
            curve, other = ("demand", SIDE_SELL) if side == SIDE_BUY else ("supply", SIDE_BUY)
            raise ValueError(f"{curve} curve given a {other} order {o.order_id}")


def demand_of(orders, ranks: OrderRanks | None = None, houses=None) -> StepCurve:
    """``build_demand_curve`` of buy ``Order``s (and ``houses``' columns),
    ranked by ``ranks``, else by ``id_ranks`` of the orders' ids."""
    orders = list(orders)
    _check_side(orders, SIDE_BUY)
    ranks = id_ranks(o.order_id for o in orders) if ranks is None else ranks
    return build_demand_curve(order_columns(orders, ranks), ranks, houses)


def supply_of(spec, orders=(), ranks: OrderRanks | None = None) -> StepCurve:
    """``build_feeder_supply`` of ``spec`` and sell ``Order``s, ranked by
    ``ranks``, else by ``id_ranks`` of the orders' and the market maker's ids."""
    orders = list(orders)
    _check_side(orders, SIDE_SELL)
    if ranks is None:
        ranks = id_ranks(market_maker_ids(len(spec.scarcity_steps)) + [o.order_id for o in orders])
    return build_feeder_supply(spec, order_columns(orders, ranks), ranks)


def order_ids(curve: StepCurve):
    """The order ids of a curve's steps in trade order, as an object array."""
    return curve.ranks.names(curve.rank)


def segments(curve: StepCurve) -> list[Row]:
    """A curve's rows in trade order."""
    return [Row(*row) for row in zip(curve.price.tolist(), curve.quantity.tolist(), order_ids(curve).tolist())]


def price_spans(curve: StepCurve) -> tuple:
    """A demand curve's (``cum``, ``price``) columns: one interval of
    ``availability_feedback``'s window, as a run keeps it."""
    return curve.cum, curve.price


def total_quantity(curve: StepCurve) -> float:
    return array_sum(curve.quantity)


def quantity_at(curve: StepCurve, price: float) -> float:
    """Quantity willing to trade at the given price (weak inequality)."""
    willing = curve.price >= price if curve.side == SIDE_BUY else curve.price <= price
    return array_sum(curve.quantity[willing])


def market_maker_ranks(ranks: OrderRanks) -> range:
    """The ranks of the market maker's blocks, its ``__import`` ids, in a
    table: one run of ranks, in a table by id as in a run's."""
    at = [r for r, oid in enumerate(ranks.ids.tolist()) if oid.startswith(MARKET_MAKER_PREFIX)]
    found = range(at[0], at[-1] + 1) if at else range(0)
    assert at == list(found)
    return found
