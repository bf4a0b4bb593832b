"""Step curves, double-auction clearing and allocation."""

import numpy as np
import pytest

from oracle_clearing import oracle_clear, random_book
from tgsim.auction import (
    MARKET_MAKER_PREFIX,
    FeederSupplySpec,
    Order,
    Segment,
    SIDE_BUY,
    SIDE_SELL,
    StepCurve,
    aggregate_demand,
    build_demand_curve,
    build_feeder_supply,
    clear,
    clear_and_allocate,
    clear_area,
    participation,
)
from tgsim.bidding import PriceStats, thermostat_bid
from tgsim.thermal import ThermostatConfig


def buys(*specs):
    return StepCurve(SIDE_BUY, [Segment(p, q, i) for i, p, q in specs])


def sells(*specs):
    return StepCurve(SIDE_SELL, [Segment(p, q, i) for i, p, q in specs])


# ----------------------------------------------------------------------
# orders and curves
# ----------------------------------------------------------------------


def test_order_validation():
    with pytest.raises(ValueError):
        Order("x", "short", 10.0, 1.0)
    with pytest.raises(ValueError):
        Order("x", SIDE_BUY, 10.0, 0.0)
    with pytest.raises(ValueError):
        Order("x", SIDE_BUY, float("nan"), 1.0)


def test_step_curve_sort_orders():
    d = buys(("b", 30.0, 1.0), ("a", 50.0, 2.0), ("c", 30.0, 1.0))
    assert [(s.order_id, s.price) for s in d.segments] == [("a", 50.0), ("b", 30.0), ("c", 30.0)]
    s = sells(("b", 30.0, 1.0), ("a", 50.0, 2.0), ("c", 30.0, 1.0))
    assert [(x.order_id, x.price) for x in s.segments] == [("b", 30.0), ("c", 30.0), ("a", 50.0)]
    with pytest.raises(ValueError):
        StepCurve("neither", [])
    with pytest.raises(ValueError):
        buys(("a", 10.0, 0.0))


def test_quantity_at_uses_weak_inequality():
    d = buys(("a", 40.0, 3.0), ("b", 20.0, 2.0))
    assert d.quantity_at(40.0) == 3.0  # a buyer at 40 does accept price 40
    assert d.quantity_at(40.0001) == 0.0
    assert d.quantity_at(10.0) == 5.0
    s = sells(("a", 40.0, 3.0), ("b", 20.0, 2.0))
    assert s.quantity_at(20.0) == 2.0
    assert s.quantity_at(40.0) == 5.0
    assert s.quantity_at(19.9) == 0.0
    assert d.total_quantity() == 5.0
    assert d.best_price() == 40.0 and s.best_price() == 20.0
    assert StepCurve(SIDE_BUY, []).best_price() is None


def test_build_demand_curve_places_must_run_at_cap():
    # a comfort emergency bids the cap itself; the curve keeps its price
    cfg = ThermostatConfig("hysteresis", "cooling", 22.0, 1.0, 20.0, 24.0, 22.0)
    stats = PriceStats(window=12, prior_mean=30.0, prior_sigma=10.0)
    must_run = thermostat_bid("h2", 24.5, cfg, 1.0, stats, 4.0, 0.0, 1000.0)
    orders = [Order("h1", SIDE_BUY, 35.0, 4.0), must_run]
    curve = build_demand_curve(orders)
    assert curve.segments[0].order_id == "h2"  # must-run sorts to the top
    assert curve.segments[0].price == 1000.0
    with pytest.raises(ValueError):
        build_demand_curve([Order("s", SIDE_SELL, 10.0, 1.0)])


def test_build_feeder_supply_blocks_and_ids():
    assert MARKET_MAKER_PREFIX == "__import"
    spec = FeederSupplySpec(
        wholesale_price=30.0,
        capacity_normal=100.0,
        scarcity_steps=((60.0, 25.0), (90.0, 25.0)),
    )
    local = [Order("pv1", SIDE_SELL, 45.0, 5.0)]
    curve = build_feeder_supply(spec, local)
    assert [s.order_id for s in curve.segments] == [
        "__import_wholesale",
        "pv1",
        "__import_scarcity0",
        "__import_scarcity1",
    ]
    assert curve.total_quantity() == 155.0
    # zero normal capacity drops the wholesale block entirely
    islanded = build_feeder_supply(FeederSupplySpec(30.0, 0.0, ((60.0, 25.0),)))
    assert [s.order_id for s in islanded.segments] == ["__import_scarcity0"]
    with pytest.raises(ValueError):
        build_feeder_supply(spec, [Order("b", SIDE_BUY, 10.0, 1.0)])


def test_feeder_supply_spec_validation():
    with pytest.raises(ValueError):
        FeederSupplySpec(30.0, -1.0)
    with pytest.raises(ValueError):
        FeederSupplySpec(30.0, 100.0, ((30.0, 10.0),))  # step must beat wholesale
    with pytest.raises(ValueError):
        FeederSupplySpec(30.0, 100.0, ((60.0, 10.0), (50.0, 10.0)))
    with pytest.raises(ValueError):
        FeederSupplySpec(30.0, 100.0, ((60.0, 0.0),))
    with pytest.raises(ValueError):
        FeederSupplySpec(30.0, 100.0, ((1500.0, 10.0),), price_cap=1000.0)


# ----------------------------------------------------------------------
# clearing
# ----------------------------------------------------------------------


def test_clear_vertical_overlap_prices_at_midpoint():
    r = clear(buys(("b", 50.0, 10.0)), sells(("s", 30.0, 10.0)))
    assert (r.price, r.quantity) == (40.0, 10.0)


def test_clear_partial_demand_block_prices_at_demand():
    r = clear(buys(("b", 40.0, 10.0)), sells(("s", 20.0, 5.0)))
    assert (r.price, r.quantity) == (40.0, 5.0)


def test_clear_partial_supply_block_prices_at_supply():
    r = clear(buys(("b", 50.0, 5.0)), sells(("s", 30.0, 10.0)))
    assert (r.price, r.quantity) == (30.0, 5.0)


def test_clear_no_overlap_prices_between_best_quotes():
    r = clear(buys(("b", 20.0, 10.0)), sells(("s", 30.0, 10.0)))
    assert (r.price, r.quantity) == (25.0, 0.0)


def test_clear_crossing_between_blocks():
    # both curves break exactly at quantity 10; the price interval is the
    # vertical gap [30, 45] cut down by the next blocks on each side
    d = buys(("b1", 50.0, 10.0), ("b2", 20.0, 10.0))
    s = sells(("s1", 30.0, 10.0), ("s2", 45.0, 10.0))
    r = clear(d, s)
    assert (r.price, r.quantity) == (37.5, 10.0)


def test_clear_empty_books_fall_back_to_floor():
    r = clear(StepCurve(SIDE_BUY, []), sells(("s", 30.0, 10.0)), price_floor=5.0)
    assert (r.price, r.quantity) == (5.0, 0.0)
    r = clear(buys(("b", 30.0, 10.0)), StepCurve(SIDE_SELL, []), price_floor=5.0)
    assert (r.price, r.quantity) == (5.0, 0.0)
    r = clear(StepCurve(SIDE_BUY, []), StepCurve(SIDE_SELL, []), price_floor=5.0)
    assert (r.price, r.quantity) == (5.0, 0.0)


def test_clear_rejects_swapped_curves():
    with pytest.raises(ValueError):
        clear(sells(("s", 30.0, 1.0)), buys(("b", 50.0, 1.0)))


def test_allocate_single_price_crossing_with_partial_buyer():
    d = buys(("b1", 50.0, 10.0), ("b2", 35.0, 5.0))
    s = sells(("s1", 35.0, 12.0))
    r = clear_and_allocate(d, s)
    assert (r.price, r.quantity) == (35.0, 12.0)
    assert r.accepted_buys == {"b1": 10.0, "b2": 2.0}
    assert r.accepted_sells == {"s1": 12.0}
    assert r.marginal_order == "b2"


def test_allocate_rations_at_price_by_ascending_order_id():
    d = buys(("a", 40.0, 3.0), ("c", 40.0, 3.0), ("b", 40.0, 3.0))
    s = sells(("s1", 20.0, 7.0))
    r = clear_and_allocate(d, s)
    assert (r.price, r.quantity) == (40.0, 7.0)
    assert r.accepted_buys == {"a": 3.0, "b": 3.0, "c": 1.0}
    assert r.marginal_order == "c"
    # null trades allocate nothing
    empty = clear_and_allocate(buys(("b", 10.0, 1.0)), sells(("s", 90.0, 1.0)))
    assert empty.accepted_buys == {} and empty.accepted_sells == {}
    assert empty.marginal_order is None


def test_aggregate_demand_merges_feeders():
    f1 = buys(("f1_h1", 40.0, 3.0))
    f2 = buys(("f2_h1", 50.0, 2.0), ("f2_h2", 30.0, 1.0))
    agg = aggregate_demand([f1, f2])
    assert [s.order_id for s in agg.segments] == ["f2_h1", "f1_h1", "f2_h2"]
    with pytest.raises(ValueError):
        aggregate_demand([sells(("s", 10.0, 1.0))])


def test_clear_area_marginal_renewables_set_the_price():
    demand = buys(("f0", 40.0, 5.0))
    r = clear_area(demand, renewables_price=15.0, renewables_capacity=10.0,
                   bulk_price=30.0, bulk_capacity=100.0)
    assert (r.price, r.quantity) == (15.0, 5.0)


def test_clear_area_demand_exhausted_at_renewables_boundary():
    # demand ends exactly where renewables run out: the bulk block caps
    # the interval at the demand price and the midpoint of [15, 20] clears
    demand = buys(("f0", 20.0, 10.0))
    r = clear_area(demand, 15.0, 10.0, 30.0, 100.0)
    assert (r.price, r.quantity) == (17.5, 10.0)


def test_clear_area_bulk_price_and_validation():
    demand = buys(("f0", 50.0, 30.0))
    r = clear_area(demand, 15.0, 10.0, 30.0, 100.0)
    # 10 renewable + 20 bulk, marginal bulk partially used
    assert (r.price, r.quantity) == (30.0, 30.0)
    with pytest.raises(ValueError):
        clear_area(demand, 30.0, 10.0, 30.0, 100.0)
    # without renewables the bulk block carries everything
    r = clear_area(demand, 15.0, 0.0, 30.0, 100.0)
    assert (r.price, r.quantity) == (30.0, 30.0)


def test_participation_reads_curves_at_price():
    curves = {
        "f0": buys(("a", 40.0, 3.0), ("b", 20.0, 2.0)),
        "f1": buys(("c", 25.0, 4.0)),
    }
    assert participation(curves, 25.0) == {"f0": 3.0, "f1": 4.0}


# ----------------------------------------------------------------------
# randomized cross-check against the unit-expansion reference
# ----------------------------------------------------------------------


def to_curves(book):
    raw_buys, raw_sells = book
    d = StepCurve(SIDE_BUY, [Segment(p, q, i) for i, p, q in raw_buys])
    s = StepCurve(SIDE_SELL, [Segment(p, q, i) for i, p, q in raw_sells])
    return d, s


def test_random_books_match_reference_clearing():
    rng = np.random.default_rng(99)
    for k in range(300):
        raw_buys, raw_sells = random_book(rng, k)
        d, s = to_curves((raw_buys, raw_sells))
        got = clear_and_allocate(d, s)
        price, qty, buy_fills, sell_fills = oracle_clear(raw_buys, raw_sells)
        assert got.price == price
        assert got.quantity == qty
        assert got.accepted_buys == buy_fills
        assert got.accepted_sells == sell_fills


def test_random_books_satisfy_market_invariants():
    rng = np.random.default_rng(123)
    for k in range(300):
        raw_buys, raw_sells = random_book(rng, k)
        d, s = to_curves((raw_buys, raw_sells))
        r = clear_and_allocate(d, s, price_floor=0.0, price_cap=1000.0)
        # conservation: both sides fill to exactly the cleared quantity
        assert sum(r.accepted_buys.values()) == r.quantity
        assert sum(r.accepted_sells.values()) == r.quantity
        assert r.quantity <= min(d.total_quantity(), s.total_quantity())
        assert 0.0 <= r.price <= 1000.0
        by_id_buy = {i: q for i, _, q in raw_buys}
        by_id_sell = {i: q for i, _, q in raw_sells}
        prices_buy = {i: p for i, p, _ in raw_buys}
        prices_sell = {i: p for i, p, _ in raw_sells}
        partial = 0
        for oid, fill in r.accepted_buys.items():
            assert 0.0 < fill <= by_id_buy[oid]
            assert prices_buy[oid] >= r.price  # no buyer pays above its bid
            partial += fill < by_id_buy[oid]
        assert partial <= 1
        partial = 0
        for oid, fill in r.accepted_sells.items():
            assert 0.0 < fill <= by_id_sell[oid]
            assert prices_sell[oid] <= r.price  # no seller dumps below its ask
            partial += fill < by_id_sell[oid]
        assert partial <= 1


def test_extra_demand_never_reduces_traded_quantity():
    rng = np.random.default_rng(7)
    for k in range(120):
        raw_buys, raw_sells = random_book(rng, k)
        d, s = to_curves((raw_buys, raw_sells))
        base = clear(d, s)
        extra = raw_buys + [("zz_extra", float(rng.integers(1, 100)), 2.0)]
        d2, _ = to_curves((extra, raw_sells))
        more = clear(d2, s)
        assert more.quantity >= base.quantity