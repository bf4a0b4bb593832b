"""Step curves, double-auction clearing and allocation."""

import struct

import numpy as np
import pytest

from hand_curves import (
    demand_of,
    hand_curve,
    id_ranks,
    order_ids,
    quantity_at,
    segments,
    supply_of,
    total_quantity,
)
from oracle_clearing import (
    fills_by_id,
    oracle_clear,
    random_book,
    walk_aggregate,
    walk_clear_and_allocate,
    walk_sort,
    walk_spans,
)
from tgsim import auction
from tgsim.auction import (
    MARKET_MAKER_PREFIX,
    Bids,
    FeederSupplySpec,
    Order,
    OrderRanks,
    SIDE_BUY,
    SIDE_SELL,
    aggregate_demand,
    build_area_supply,
    build_demand_curve,
    build_feeder_supply,
    clear,
    clear_and_allocate,
    clear_area,
    market_maker_ids,
)
from tgsim.bidding import PriceStats, thermostat_bid
from tgsim.thermal import ThermostatConfig


def buys(*specs):
    return hand_curve(SIDE_BUY, [(p, q, i) for i, p, q in specs])


def sells(*specs):
    return hand_curve(SIDE_SELL, [(p, q, i) for i, p, q in specs])


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
    assert [(s.order_id, s.price) for s in segments(d)] == [("a", 50.0), ("b", 30.0), ("c", 30.0)]
    s = sells(("b", 30.0, 1.0), ("a", 50.0, 2.0), ("c", 30.0, 1.0))
    assert [(x.order_id, x.price) for x in segments(s)] == [("b", 30.0), ("c", 30.0), ("a", 50.0)]
    with pytest.raises(ValueError):
        hand_curve("neither", [])
    with pytest.raises(ValueError):
        buys(("a", 10.0, 0.0))


def test_quantity_at_uses_weak_inequality():
    d = buys(("a", 40.0, 3.0), ("b", 20.0, 2.0))
    assert quantity_at(d, 40.0) == 3.0  # a buyer at 40 does accept price 40
    assert quantity_at(d, 40.0001) == 0.0
    assert quantity_at(d, 10.0) == 5.0
    s = sells(("a", 40.0, 3.0), ("b", 20.0, 2.0))
    assert quantity_at(s, 20.0) == 2.0
    assert quantity_at(s, 40.0) == 5.0
    assert quantity_at(s, 19.9) == 0.0
    assert total_quantity(d) == 5.0
    assert d.best_price() == 40.0 and s.best_price() == 20.0
    assert hand_curve(SIDE_BUY, []).best_price() is None


def test_build_demand_curve_places_must_run_at_cap():
    # a comfort emergency bids the cap itself; the curve keeps its price
    cfg = ThermostatConfig("hysteresis", "cooling", 22.0, 1.0, 20.0, 24.0, 22.0)
    stats = PriceStats(window=12, prior_mean=30.0, prior_sigma=10.0)
    must_run = thermostat_bid("h2", 24.5, cfg, 1.0, stats, 4.0, 0.0, 1000.0)
    orders = [Order("h1", SIDE_BUY, 35.0, 4.0), must_run]
    curve = demand_of(orders)
    assert segments(curve)[0].order_id == "h2"  # must-run sorts to the top
    assert segments(curve)[0].price == 1000.0
    with pytest.raises(ValueError):
        demand_of([Order("s", SIDE_SELL, 10.0, 1.0)])


def test_order_ranks_name_every_order_at_its_given_position():
    # a table takes its ids in rank order and never sorts them, so
    # f1_h10000 ranks after f1_h9999 when listed so, and the market
    # maker's blocks rank in step order (scarcity2 before scarcity10)
    ids = market_maker_ids(12) + [f"f1_h{j:04d}" for j in (3, 9999, 10000, 10001)] + ["bat_dis", "f1_base", "_"]
    ranks = OrderRanks(ids)
    assert ranks.ids.tolist() == ids
    assert ranks.of(ids).tolist() == list(range(len(ids)))
    picked = ["f1_h10000", "__import_scarcity2", "__import_scarcity10"]
    assert ranks.of(picked).tolist() == [15, 3, 11]
    assert ranks.ids[ranks.of(picked)].tolist() == picked
    with pytest.raises(ValueError):
        OrderRanks(["f1_base", "bat_dis", "f1_base"])
    with pytest.raises(KeyError):
        ranks.of(["f1_resp"])
    # curves built by hand from hand-written ids rank them in ascending
    # id; a repeated id names one rank
    curve = hand_curve(SIDE_BUY, [(30.0, 1.0, oid) for oid in ids + ["f1_base"]])
    assert curve.ranks.ids.tolist() == sorted(ids)
    assert order_ids(curve).tolist() == sorted(ids + ["f1_base"])
    assert demand_of([Order(oid, SIDE_BUY, 30.0, 1.0) for oid in ids]).ranks.ids.tolist() == sorted(ids)
    supply = supply_of(FeederSupplySpec(30.0, 10.0, ((60.0, 5.0), (90.0, 5.0))),
                       [Order("bat_dis", SIDE_SELL, 45.0, 1.0)])
    assert supply.ranks.ids.tolist() == sorted(market_maker_ids(2) + ["bat_dis"])


def test_house_blocks_are_named_on_demand_as_a_table_of_their_strings_names_them():
    # two feeders' house blocks after the fixed ids; the names the table
    # formats equal a table that lists every house id as a string
    fixed = market_maker_ids(0) + ["bat_chg", "bat_dis", "f1_base", "f1_resp", "g_base", "g_resp"]
    sizes = {"f1": 10_001, "g": 3}
    ranks = OrderRanks(fixed, sizes.items())
    spelled = fixed + [f"{fid}_h{j:04d}" for fid, n in sizes.items() for j in range(n)]
    strings = OrderRanks(spelled)
    assert ranks.ids.tolist() == fixed
    assert ranks.blocks == [("f1", 7, 10_001), ("g", 10_008, 3)]
    every = np.arange(len(spelled))
    assert ranks.names(every).tolist() == spelled
    assert ranks.names(every[::-1]).tolist() == spelled[::-1]
    assert ranks.names(every[7:10_008]).tolist() == [f"f1_h{j:04d}" for j in range(10_001)]
    assert [ranks.name(r) for r in (0, 7 + 9999, 7 + 10_000, 10_010)] == [
        "__import_wholesale", "f1_h9999", "f1_h10000", "g_h0002"]
    assert ranks.names([]).tolist() == []
    with pytest.raises(IndexError):
        ranks.names([len(spelled)])
    # a partial fill at the price names its house: f1_h10000 and g_h0001 bid
    # 2 kW each at 30, and the supply covers the 5 kW above 30 and 1 kW more
    houses = Bids(np.array([30.0, 45.0, 30.0]), np.array([2.0, 1.0, 2.0]),
                  np.array([10_008 + 1, 7 + 9999, 7 + 10_000]))
    for table in (ranks, strings):
        demand = demand_of([Order("f1_base", SIDE_BUY, 1000.0, 4.0)], table, houses)
        supply = hand_curve(SIDE_SELL, [(30.0, 6.0, "__import_wholesale")])
        result = clear_and_allocate(demand, supply)
        assert result.price == 30.0 and result.marginal_order == "f1_h10000"
        assert order_ids(demand).tolist() == ["f1_base", "f1_h9999", "f1_h10000", "g_h0001"]
        assert [seg.order_id for seg in segments(demand)] == order_ids(demand).tolist()


def test_build_feeder_supply_blocks_and_ids():
    assert MARKET_MAKER_PREFIX == "__import"
    spec = FeederSupplySpec(
        wholesale_price=30.0,
        capacity_normal=100.0,
        scarcity_steps=((60.0, 25.0), (90.0, 25.0)),
    )
    local = [Order("pv1", SIDE_SELL, 45.0, 5.0)]
    curve = supply_of(spec, local)
    assert [s.order_id for s in segments(curve)] == [
        "__import_wholesale",
        "pv1",
        "__import_scarcity0",
        "__import_scarcity1",
    ]
    assert total_quantity(curve) == 155.0
    # zero normal capacity drops the wholesale block entirely
    islanded = supply_of(FeederSupplySpec(30.0, 0.0, ((60.0, 25.0),)))
    assert [s.order_id for s in segments(islanded)] == ["__import_scarcity0"]
    with pytest.raises(ValueError):
        supply_of(spec, [Order("b", SIDE_BUY, 10.0, 1.0)])


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
    r = clear(hand_curve(SIDE_BUY, []), sells(("s", 30.0, 10.0)), price_floor=5.0)
    assert (r.price, r.quantity) == (5.0, 0.0)
    r = clear(buys(("b", 30.0, 10.0)), hand_curve(SIDE_SELL, []), price_floor=5.0)
    assert (r.price, r.quantity) == (5.0, 0.0)
    r = clear(hand_curve(SIDE_BUY, []), hand_curve(SIDE_SELL, []), price_floor=5.0)
    assert (r.price, r.quantity) == (5.0, 0.0)


def test_clear_rejects_swapped_curves():
    with pytest.raises(ValueError):
        clear(sells(("s", 30.0, 1.0)), buys(("b", 50.0, 1.0)))


def test_allocate_single_price_crossing_with_partial_buyer():
    d = buys(("b1", 50.0, 10.0), ("b2", 35.0, 5.0))
    s = sells(("s1", 35.0, 12.0))
    r = clear_and_allocate(d, s)
    assert (r.price, r.quantity) == (35.0, 12.0)
    assert fills_by_id(d, r.buy_fills) == {"b1": 10.0, "b2": 2.0}
    assert fills_by_id(s, r.sell_fills) == {"s1": 12.0}
    assert r.marginal_order == "b2"


def test_allocate_rations_at_price_by_ascending_order_id():
    d = buys(("a", 40.0, 3.0), ("c", 40.0, 3.0), ("b", 40.0, 3.0))
    s = sells(("s1", 20.0, 7.0))
    r = clear_and_allocate(d, s)
    assert (r.price, r.quantity) == (40.0, 7.0)
    # the fill column follows the trade order: the at-price orders by id
    assert r.buy_fills.tolist() == [3.0, 3.0, 1.0]
    assert fills_by_id(d, r.buy_fills) == {"a": 3.0, "b": 3.0, "c": 1.0}
    assert r.marginal_order == "c"
    # null trades allocate nothing
    empty = clear_and_allocate(buys(("b", 10.0, 1.0)), sells(("s", 90.0, 1.0)))
    assert len(empty.buy_fills) == 0 and len(empty.sell_fills) == 0
    # clear() prices the trade and fills nothing
    priced = clear(d, s)
    assert len(priced.buy_fills) == 0 and len(priced.sell_fills) == 0
    assert empty.marginal_order is None


def test_aggregate_demand_merges_feeders():
    table = id_ranks(["f1_h1", "f2_h1", "f2_h2"])
    f1 = hand_curve(SIDE_BUY, [(40.0, 3.0, "f1_h1")], table)
    f2 = hand_curve(SIDE_BUY, [(50.0, 2.0, "f2_h1"), (30.0, 1.0, "f2_h2")], table)
    agg = aggregate_demand([f1, f2])
    assert [s.order_id for s in segments(agg)] == ["f2_h1", "f1_h1", "f2_h2"]
    with pytest.raises(ValueError):
        aggregate_demand([sells(("s", 10.0, 1.0))])
    # ranks of different tables do not compare, so their curves do not merge
    with pytest.raises(ValueError, match="one rank table"):
        aggregate_demand([f1, buys(("f2_h1", 50.0, 2.0))])


def test_clear_area_marginal_renewables_set_the_price():
    demand = buys(("f0", 40.0, 5.0))
    r = clear_area(demand, build_area_supply(renewables_price=15.0, renewables_capacity=10.0,
                                             bulk_price=30.0, bulk_capacity=100.0))
    assert (r.price, r.quantity) == (15.0, 5.0)


def test_clear_area_demand_exhausted_at_renewables_boundary():
    # demand ends exactly where renewables run out: the bulk block caps
    # the interval at the demand price and the midpoint of [15, 20] clears
    demand = buys(("f0", 20.0, 10.0))
    r = clear_area(demand, build_area_supply(15.0, 10.0, 30.0, 100.0))
    assert (r.price, r.quantity) == (17.5, 10.0)


def test_clear_area_bulk_price_and_validation():
    demand = buys(("f0", 50.0, 30.0))
    r = clear_area(demand, build_area_supply(15.0, 10.0, 30.0, 100.0))
    # 10 renewable + 20 bulk, marginal bulk partially used
    assert (r.price, r.quantity) == (30.0, 30.0)
    with pytest.raises(ValueError):
        build_area_supply(30.0, 10.0, 30.0, 100.0)
    # without renewables the bulk block carries everything
    r = clear_area(demand, build_area_supply(15.0, 0.0, 30.0, 100.0))
    assert (r.price, r.quantity) == (30.0, 30.0)


# ----------------------------------------------------------------------
# randomized cross-check against the unit-expansion reference
# ----------------------------------------------------------------------


def to_curves(book):
    raw_buys, raw_sells = book
    d = hand_curve(SIDE_BUY, [(p, q, i) for i, p, q in raw_buys])
    s = hand_curve(SIDE_SELL, [(p, q, i) for i, p, q in raw_sells])
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
        assert fills_by_id(d, got.buy_fills) == buy_fills
        assert fills_by_id(s, got.sell_fills) == sell_fills


def test_random_books_satisfy_market_invariants():
    rng = np.random.default_rng(123)
    for k in range(300):
        raw_buys, raw_sells = random_book(rng, k)
        d, s = to_curves((raw_buys, raw_sells))
        r = clear_and_allocate(d, s, price_floor=0.0, price_cap=1000.0)
        # conservation: both sides fill to exactly the cleared quantity
        bought, sold = fills_by_id(d, r.buy_fills), fills_by_id(s, r.sell_fills)
        assert sum(bought.values()) == r.quantity
        assert sum(sold.values()) == r.quantity
        assert r.quantity <= min(total_quantity(d), total_quantity(s))
        assert 0.0 <= r.price <= 1000.0
        by_id_buy = {i: q for i, _, q in raw_buys}
        by_id_sell = {i: q for i, _, q in raw_sells}
        prices_buy = {i: p for i, p, _ in raw_buys}
        prices_sell = {i: p for i, p, _ in raw_sells}
        partial = 0
        for oid, fill in bought.items():
            assert 0.0 < fill <= by_id_buy[oid]
            assert prices_buy[oid] >= r.price  # no buyer pays above its bid
            partial += fill < by_id_buy[oid]
        assert partial <= 1
        partial = 0
        for oid, fill in sold.items():
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


# ----------------------------------------------------------------------
# bitwise cross-check of the array curves against the order-by-order walk
# ----------------------------------------------------------------------

# prices that tie often, including both signed zeros
TIED_PRICES = np.array([-0.0, 0.0, 10.0, 30.0, 30.0, 47.25, 50.0, 1000.0])


def _bits(x):
    return struct.pack("<d", x)  # tells -0.0 from 0.0


def _rows_bits(rows):
    return [(_bits(p), _bits(q), i) for p, q, i in rows]


def _fills_bits(fills):
    return [(oid, _bits(q)) for oid, q in fills.items()]


def _random_rows(rng, n, prefix, repeat_ids):
    """n (price, quantity, id) rows; ids repeat when asked."""
    tied = rng.random(n) < 0.6
    prices = np.where(tied, rng.choice(TIED_PRICES, n), rng.uniform(-5.0, 100.0, n))
    whole = rng.random(n) < 0.5  # integer sizes make running sums hit exact zeros
    qs = np.where(whole, rng.integers(1, 7, n).astype(float), rng.uniform(0.05, 7.0, n))
    if repeat_ids:
        ids = [f"{prefix}{k}" for k in rng.integers(0, max(1, n // 2), n)]
    else:
        ids = [f"{prefix}{k}" for k in range(n)]
    return list(zip(prices.tolist(), qs.tolist(), ids))


def _check_against_walk(demand, supply, d_rows, s_rows, floor, cap):
    d_walk, s_walk = walk_sort(d_rows, buy=True), walk_sort(s_rows, buy=False)
    assert _rows_bits(segments(demand)) == _rows_bits(d_walk)
    assert _rows_bits(segments(supply)) == _rows_bits(s_walk)
    for curve, walk in ((demand, d_walk), (supply, s_walk)):
        spans = zip(curve.cum.tolist(), curve.price.tolist())
        assert [(_bits(c), _bits(p)) for c, p in spans] == [(_bits(c), _bits(p)) for c, p in walk_spans(walk)]
    price, qty, buys, sells, marginal = walk_clear_and_allocate(d_walk, s_walk, floor, cap)
    got = clear(demand, supply, floor, cap)
    assert (_bits(got.price), _bits(got.quantity)) == (_bits(price), _bits(qty))
    got = clear_and_allocate(demand, supply, floor, cap)
    assert (_bits(got.price), _bits(got.quantity)) == (_bits(price), _bits(qty))
    assert _fills_bits(fills_by_id(demand, got.buy_fills)) == _fills_bits(buys)
    assert _fills_bits(fills_by_id(supply, got.sell_fills)) == _fills_bits(sells)
    assert got.marginal_order == marginal


def test_array_clearing_matches_the_walk_bitwise_on_random_books():
    rng = np.random.default_rng(2026)
    for k in range(600):
        repeat = k % 3 == 0
        d_rows = _random_rows(rng, int(rng.integers(0, 40)), "b", repeat)
        s_rows = _random_rows(rng, int(rng.integers(0, 6)), "s", repeat)
        floor, cap = (0.0, 1000.0) if k % 2 else (-1.0, float(rng.choice([40.0, float("inf")])))
        _check_against_walk(hand_curve(SIDE_BUY, d_rows), hand_curve(SIDE_SELL, s_rows), d_rows, s_rows, floor, cap)


def test_curves_keep_their_trade_key():
    rng = np.random.default_rng(17)
    for side, sign in ((SIDE_BUY, -1.0), (SIDE_SELL, 1.0)):
        curve = hand_curve(side, _random_rows(rng, 40, "o", False))
        assert curve.key.tobytes() == (sign * curve.price).tobytes()
        assert (np.diff(curve.key) >= 0).all()


def test_clear_area_against_a_supply_built_once_equals_a_build_per_call():
    # one area supply cleared against many demand curves gives what a
    # supply built afresh for each clearing gives, and no clearing
    # changes a column of it
    rng = np.random.default_rng(31)
    for renewables, bulk in ((10.5, 100.25), (0.0, 100.25), (10.5, 0.0), (0.0, 0.0)):
        supply = build_area_supply(15.0, renewables, 30.0, bulk)
        columns = [col.copy() for col in (supply.key, supply.price, supply.quantity, supply.rank)]
        rows = [(15.0, renewables, "__area_renewables"), (30.0, bulk, "__area_bulk")]
        for k in range(150):
            d_rows = _random_rows(rng, int(rng.integers(0, 40)), "b", k % 3 == 0)
            demand = hand_curve(SIDE_BUY, d_rows)
            floor, cap = (0.0, 1000.0) if k % 2 else (-1.0, 40.0)
            fresh = hand_curve(SIDE_SELL, [r for r in rows if r[1] > 0])
            got, want = clear_area(demand, supply, floor, cap), clear(demand, fresh, floor, cap)
            assert (_bits(got.price), _bits(got.quantity)) == (_bits(want.price), _bits(want.quantity))
            assert (len(got.buy_fills), len(got.sell_fills), got.marginal_order) == (0, 0, None)
        kept = (supply.key, supply.price, supply.quantity, supply.rank)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(kept, columns))


def _clearing_bits(result, demand, supply):
    return (_bits(result.price), _bits(result.quantity), _fills_bits(fills_by_id(demand, result.buy_fills)),
            _fills_bits(fills_by_id(supply, result.sell_fills)), result.marginal_order)


def test_a_supply_cleared_many_times_keeps_a_staircase_that_never_goes_stale():
    # the oracle test's random books: each supply clears many demand
    # curves, and every result equals a clearing of fresh copies of both
    # curves and the unit-expansion reference; no clearing changes the
    # spans of either curve
    rng = np.random.default_rng(2030)
    for k in range(300):
        _, raw_sells = random_book(rng, k)
        s_rows = [(p, q, i) for i, p, q in raw_sells]
        supply = hand_curve(SIDE_SELL, s_rows)
        s_spans = [supply.cum.tobytes(), supply.price.tobytes()]
        for j in range(12):
            raw_buys, _ = random_book(rng, k + j)
            d_rows = [(p, q, i) for i, p, q in raw_buys]
            demand = hand_curve(SIDE_BUY, d_rows)
            d_spans = [demand.cum.tobytes(), demand.price.tobytes()]
            fresh_d, fresh_s = hand_curve(SIDE_BUY, d_rows), hand_curve(SIDE_SELL, s_rows)
            want = _clearing_bits(clear_and_allocate(fresh_d, fresh_s), fresh_d, fresh_s)
            for _ in range(2):
                assert _clearing_bits(clear_and_allocate(demand, supply), demand, supply) == want
            price, qty, buy_fills, sell_fills = oracle_clear(raw_buys, raw_sells)
            got = clear(demand, supply)
            assert (got.price, got.quantity) == (price, qty)
            assert want[2:4] == (_fills_bits(buy_fills), _fills_bits(sell_fills))
            assert [demand.cum.tobytes(), demand.price.tobytes()] == d_spans
            assert [supply.cum.tobytes(), supply.price.tobytes()] == s_spans
            assert supply.staircase == (fresh_s.cum.tolist(), fresh_s.price.tolist())


def test_order_columns_build_the_curves_their_orders_build():
    # a run passes its fixed orders as columns made once; they build the
    # curves the orders build, and need the table their ranks index
    ranks = OrderRanks(market_maker_ids(1) + ["bat_chg", "bat_dis", "f1_base", "pv_dis"], [("f1", 3)])
    named = [Order("f1_base", SIDE_BUY, 1000.0, 40.0), Order("bat_chg", SIDE_BUY, 30.0, 5.0)]
    houses = Bids(np.array([30.0, -0.0, 55.5]), np.array([4.0, 4.0, 2.5]), np.arange(3) + len(ranks.ids))
    local = [Order("pv_dis", SIDE_SELL, 30.0, 1.5), Order("bat_dis", SIDE_SELL, 45.0, 5.0)]
    spec = FeederSupplySpec(30.0, 100.0, ((80.0, 5.0),), 1000.0)
    pairs = [
        (demand_of(named, ranks, houses),
         build_demand_curve(auction.order_columns(named, ranks), ranks, houses)),
        (supply_of(spec, local, ranks),
         build_feeder_supply(spec, auction.order_columns(local, ranks), ranks)),
        (supply_of(spec, [], ranks), build_feeder_supply(spec, auction.order_columns([], ranks), ranks)),
    ]
    for want, got in pairs:
        for name in ("key", "price", "quantity", "rank", "cum"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert got.ranks is ranks
    with pytest.raises(TypeError, match="ranks"):
        build_demand_curve(auction.order_columns(named, ranks))
    with pytest.raises(TypeError, match="ranks"):
        build_feeder_supply(spec, auction.order_columns(local, ranks))


def _feeder_demand(rng, fid, n_houses, ranks, named, at_30=()):
    """A feeder curve built as the engine builds it, and its rows; the
    houses at_30 bid 30.0."""
    ids = [f"{fid}_h{j:04d}" for j in range(n_houses)]
    bidding = rng.random(n_houses) < 0.8
    bidding[list(at_30)] = True
    idx = np.flatnonzero(bidding)
    prices = np.where(rng.random(len(idx)) < 0.7, rng.choice(TIED_PRICES, len(idx)),
                      rng.uniform(0.0, 60.0, len(idx)))
    prices[np.isin(idx, list(at_30))] = 30.0
    qs = rng.choice([1.0, 2.5, 4.0], n_houses)
    houses = Bids(prices, qs[idx], ranks.of(ids)[idx])
    curve = demand_of(named, ranks, houses)
    rows = [(p, q, ids[i]) for i, p, q in zip(idx.tolist(), prices.tolist(), qs[idx].tolist())]
    return curve, rows + [(o.price, o.quantity, o.order_id) for o in named]


def test_feeder_curves_rank_ids_in_string_order_past_ten_thousand_houses():
    rng = np.random.default_rng(11)
    n = 10_050
    ids = [f"f1_h{j:04d}" for j in range(n)] + ["f1_base", "bat_chg"]
    ranks = OrderRanks(sorted(ids))  # hand-written ids, ranked as the builders rank them
    named = [Order("f1_base", SIDE_BUY, 1000.0, 40.0), Order("bat_chg", SIDE_BUY, 30.0, 5.0)]
    demand, d_rows = _feeder_demand(rng, "f1", n, ranks, named, at_30=(9999, 10000))
    order = [s.order_id for s in segments(demand)]
    tied = [oid for oid, p in zip(order, demand.price.tolist()) if p == 30.0]
    assert tied == sorted(tied) and tied.index("f1_h10000") < tied.index("f1_h9999")
    total = total_quantity(demand)
    for capacity in (0.3 * total, 0.6 * total, total + 1.0):
        s_rows = [(30.0, capacity, "__import_wholesale"), (47.25, 100.0, "__import_scarcity0")]
        _check_against_walk(demand, hand_curve(SIDE_SELL, s_rows), d_rows, s_rows, 0.0, 1000.0)


def test_aggregate_demand_matches_the_walk_bitwise():
    rng = np.random.default_rng(5)
    for k in range(60):
        fids = [f"f{i}" for i in range(int(rng.integers(1, 4)))]
        n = int(rng.integers(0, 300))
        # every feeder also bids a shared id, so equal (price, id) rows
        # from different feeders must keep the feeder order
        ids = [f"{fid}_h{j:04d}" for fid in fids for j in range(n)] + ["shared"]
        ranks = OrderRanks(ids)
        built = [
            _feeder_demand(rng, fid, n, ranks, [Order("shared", SIDE_BUY, 30.0, float(i + 1))])
            for i, fid in enumerate(fids)
        ]
        merged = aggregate_demand(c for c, _ in built)
        assert _rows_bits(segments(merged)) == _rows_bits(walk_aggregate([rows for _, rows in built]))
        # curves built by hand over one table of their ids merge alike
        table = id_ranks(oid for _, rows in built for _, _, oid in rows)
        own = [hand_curve(SIDE_BUY, rows, table) for _, rows in built]
        assert _rows_bits(segments(aggregate_demand(own))) == _rows_bits(segments(merged))
    assert len(aggregate_demand([])) == 0


@pytest.mark.byte_pin
def test_merge_order_is_the_lexsort_order():
    # curves in trade order one after another, as the area and forecast
    # merges see them: keys tie within and across curves (-0.0 with 0.0),
    # ranks interleave across curves, and equal (key, rank) pairs stand
    # for hand-built duplicate ids; then the same columns in no order
    rng = np.random.default_rng(31)
    grid = np.array([-0.0, 0.0, -12.5, -30.0, -47.25, -1000.0])
    fixed = 0

    def check(key, rank):
        want = np.lexsort((rank, key))
        got = auction.merge_order(key, rank)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        return key.argsort(kind="stable").tolist() != want.tolist()

    check(np.zeros(0), np.zeros(0, dtype=np.intp))
    for _ in range(400):
        curves = []
        for _ in range(int(rng.integers(1, 5))):
            n = int(rng.integers(0, 40))
            key = np.where(rng.random(n) < 0.6, rng.choice(grid, n), rng.uniform(-100.0, 0.0, n))
            rank = rng.integers(0, int(rng.integers(1, 60)), n)
            in_trade_order = np.lexsort((rank, key))
            curves.append((key[in_trade_order], rank[in_trade_order]))
        key, rank = (np.concatenate(col) for col in zip(*curves))
        fixed += check(key, rank)
        shuffled = rng.permutation(len(key))
        check(key[shuffled], rank[shuffled])
    # both paths ran: merges the key sort alone gets right, and fix-ups
    assert 50 < fixed < 350
    # NaN keys tie with each other and sort last, ranked
    check(np.array([np.nan, 1.0, np.nan, -0.0, np.nan, 0.0]), np.array([5, 1, 2, 3, 2, 1]))


def test_column_built_supplies_equal_the_row_built_curves_bitwise(monkeypatch):
    # storage sells priced at the wholesale price on either side of
    # "__import_wholesale" in id order, so only the id tie-break places them
    sells_at = [
        Order("bat_dis", SIDE_SELL, 30.0, 4.5),
        Order("A_dis", SIDE_SELL, 30.0, 2.25),
        Order("pv_dis", SIDE_SELL, -0.0, 1.5),
    ]
    steps = ((60.0, 25.7), (119.9, 33.3))
    for capacity in (100.3, 0.0):
        spec = FeederSupplySpec(30.0, capacity, steps, 1000.0)
        rows = [(30.0, capacity, f"{MARKET_MAKER_PREFIX}_wholesale")] if capacity else []
        rows += [(p, q, f"{MARKET_MAKER_PREFIX}_scarcity{k}") for k, (p, q) in enumerate(steps)]
        rows += [(o.price, o.quantity, o.order_id) for o in sells_at]
        built = supply_of(spec, sells_at)
        assert _rows_bits(segments(built)) == _rows_bits(segments(hand_curve(SIDE_SELL, rows)))
        if capacity:
            order = [s.order_id for s in segments(built)[:4]]
            assert order == ["pv_dis", "A_dis", f"{MARKET_MAKER_PREFIX}_wholesale", "bat_dis"]

    # build_area_supply's two blocks, as clear_area hands them to the clearing
    seen = []
    real_clear = auction.clear

    def recorded(demand, supply, *limits):
        seen.append(supply)
        return real_clear(demand, supply, *limits)

    monkeypatch.setattr(auction, "clear", recorded)
    demand = buys(("f0", 50.0, 30.0))
    for renewables, bulk in ((10.5, 100.25), (0.0, 100.25), (10.5, 0.0)):
        clear_area(demand, build_area_supply(15.0, renewables, 30.0, bulk))
        rows = [(15.0, renewables, "__area_renewables"), (30.0, bulk, "__area_bulk")]
        want = hand_curve(SIDE_SELL, [r for r in rows if r[1] > 0])
        assert _rows_bits(segments(seen.pop())) == _rows_bits(segments(want))
