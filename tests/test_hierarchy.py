"""Hourly scheduling, forecast feedback, dispatch blending, settlement."""

import struct

import numpy as np
import pytest

from oracle_clearing import feedback_rows, fills_by_id, id_path_schedule
from tgsim.auction import (
    SIDE_BUY,
    SIDE_SELL,
    Bids,
    FeederSupplySpec,
    Order,
    OrderRanks,
    Segment,
    StepCurve,
    _price_spans,
    build_demand_curve,
    build_feeder_supply,
    clear_and_allocate,
    market_maker_ids,
)
from tgsim.fold import array_sum, left_sum
from tgsim.hierarchy import (
    MODE_CONTINGENCY,
    MODE_NORMAL,
    availability_feedback,
    feeder_reference,
    reference_mode,
    scarcity_rent,
    schedule_hourly,
    settle,
)


def demand(*segs):
    return StepCurve(SIDE_BUY, [Segment(p, q, i) for p, q, i in segs])


def supply(*segs):
    return StepCurve(SIDE_SELL, [Segment(p, q, i) for p, q, i in segs])


# ---------------------------------------------------------------- schedule


def hour(**feeders):
    """{feeder: Bids} of one (price, kW) step per feeder, ranked in
    feeder order."""
    return {
        fid: Bids(np.array([p]), np.array([q]), np.array([rank]))
        for rank, (fid, (p, q)) in enumerate(feeders.items())
    }


def test_schedule_renewables_marginal_hour():
    # 5 kW of demand against 10 kW of cheap renewables: the renewables
    # block is marginal, so the hour clears at the renewables price.
    entry = schedule_hourly(hour(f0=(40.0, 5.0)), 30.0, 15.0, 10.0, 100.0, 0.0, 1000.0)
    assert entry.price == 15.0
    assert entry.area_quantity_kw == 5.0
    assert entry.feeder_kw == {"f0": 5.0}


def test_schedule_bulk_marginal_hour_splits_positions():
    # demand exceeds renewables so the bulk block sets the price, and
    # each feeder's position is its own willingness at that price
    entry = schedule_hourly(hour(f0=(50.0, 8.0), f1=(45.0, 4.0)), 30.0, 15.0, 5.0, 100.0, 0.0, 1000.0)
    assert entry.price == 30.0
    assert entry.area_quantity_kw == 12.0
    assert entry.feeder_kw == {"f0": 8.0, "f1": 4.0}


def test_schedule_uses_per_hour_bulk_price():
    forecasts = hour(f0=(90.0, 20.0))
    sched = [schedule_hourly(forecasts, bulk, 15.0, 0.0, 100.0, 0.0, 1000.0) for bulk in (30.0, 60.0)]
    assert [e.price for e in sched] == [30.0, 60.0]
    assert [e.area_quantity_kw for e in sched] == [20.0, 20.0]


def test_schedule_empty_hour_clears_at_floor_with_zero_positions():
    empty = Bids(np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64))
    entry = schedule_hourly({"f0": empty}, 30.0, 15.0, 10.0, 100.0, 5.0, 1000.0)
    assert entry.price == 5.0
    assert entry.area_quantity_kw == 0.0
    assert entry.feeder_kw == {"f0": 0.0}


def test_schedule_is_a_pure_function_of_its_inputs():
    args = (hour(f0=(50.0, 8.0), f1=(45.0, 4.0)), 30.0, 15.0, 5.0, 100.0, 0.0, 1000.0)
    first = schedule_hourly(*args)
    second = schedule_hourly(*args)
    assert first == second


def _string_and_number_orders_differ(rows_by_feeder):
    """Whether two feeders hold steps of one price whose step numbers
    order differently as numbers and as strings (2 and 10)."""
    at_price = {}
    for fid, rows in rows_by_feeder.items():
        for p, _, oid in rows:
            at_price.setdefault(p, []).append(int(oid.removeprefix("__forecast")))
    return any(
        (a < b) != (str(a) < str(b)) for ks in at_price.values() for a in ks for b in ks
    )


def test_schedule_matches_the_forecast_id_path_bitwise():
    # most prices come from one grid shared by every feeder, so steps
    # tie across feeders, and a window holds up to some 40 distinct
    # prices, so step numbers on both sides of 10 meet at one price:
    # ordering them as numbers instead of as the ids' strings folds the
    # area curve's quantities in another order
    rng = np.random.default_rng(17)
    grid = 20.0 + 2.5 * np.arange(24)
    mixed = 0
    for trial in range(200):
        windows = {}
        for f in range(int(rng.integers(2, 5))):
            window = []
            for c in range(int(rng.integers(1, 4))):
                n = int(rng.integers(0, 20))
                prices = np.where(rng.random(n) < 0.8, rng.choice(grid, n), rng.uniform(20.0, 80.0, n))
                qs = rng.uniform(0.1, 7.0, n)
                window.append([(p, q, f"c{c}_{i}") for i, (p, q) in enumerate(zip(prices.tolist(), qs.tolist()))])
            windows[f"f{f}"] = window
        forecasts = {
            fid: availability_feedback([_price_spans(StepCurve(SIDE_BUY, rows)) for rows in window])
            for fid, window in windows.items()
        }
        rows = {fid: feedback_rows(window) for fid, window in windows.items()}
        mixed += _string_and_number_orders_differ(rows)
        total = left_sum(q for steps in rows.values() for _, q, _ in steps)
        bulk = float(rng.choice(grid))
        renewables_kw, bulk_kw = float(rng.uniform(0.0, 0.5) * total), float(rng.uniform(0.0, 1.2) * total)
        entry = schedule_hourly(forecasts, bulk, 15.0, renewables_kw, bulk_kw, 0.0, 1000.0)
        price, qty, feeder_kw = id_path_schedule(rows, bulk, 15.0, renewables_kw, bulk_kw, 0.0, 1000.0)
        got = [entry.price, entry.area_quantity_kw, *entry.feeder_kw.values()]
        want = [price, qty, *feeder_kw.values()]
        assert list(entry.feeder_kw) == list(feeder_kw)
        assert [struct.pack("<d", x) for x in got] == [struct.pack("<d", x) for x in want], trial
    assert mixed > 50


# ------------------------------------------------------ forecast feedback


def quantity_at(forecast, price):
    """A forecast's demand at or above price, folded in trade order."""
    return array_sum(forecast.quantity[forecast.price >= price])


def spans_of(forecast):
    return np.add.accumulate(forecast.quantity), forecast.price


def test_feedback_single_curve_is_identity_pointwise():
    c = demand((50.0, 2.0, "a"), (40.0, 3.0, "b"))
    mean = availability_feedback([_price_spans(c)])
    for probe in (55.0, 50.0, 45.0, 40.0, 10.0):
        assert quantity_at(mean, probe) == c.quantity_at(probe)


def test_feedback_averages_over_the_union_of_prices():
    # window of two intervals with steps at different prices: each
    # interval contributes its willingness at every price, halved
    a = demand((50.0, 2.0, "a"))
    b = demand((40.0, 3.0, "b"))
    mean = availability_feedback([_price_spans(a), _price_spans(b)])
    assert quantity_at(mean, 50.0) == 1.0
    assert quantity_at(mean, 40.0) == 2.5
    assert quantity_at(mean, 39.0) == 2.5
    assert quantity_at(mean, 51.0) == 0.0
    # total is the mean of the input totals
    assert array_sum(mean.quantity) == 2.5


def test_feedback_ranks_steps_as_their_forecast_ids_sort():
    # 25 prices give steps 0..24; a second window skips some prices, so
    # its step numbers differ from the first's at equal prices. Across
    # both forecasts the ranks sort as the ids __forecast{k} do as
    # strings: 1, 10, 11, ..., 19, 2, 20, ...
    rows = [(100.0 - p, 1.0, f"h{p}") for p in range(25)]
    first = availability_feedback([_price_spans(demand(*rows))])
    second = availability_feedback([_price_spans(demand(*rows[::3]))])
    ids = [oid for window in ([rows], [rows[::3]]) for _, _, oid in feedback_rows(window)]
    rank = np.concatenate([first.rank, second.rank])
    assert len(ids) == len(rank) == 25 + 9
    assert np.argsort(rank, kind="stable").tolist() == sorted(range(len(ids)), key=ids.__getitem__)
    assert [ids[i] for i in np.argsort(first.rank)[:3]] == ["__forecast0", "__forecast1", "__forecast10"]
    # the same step number ranks the same in every forecast
    assert set(zip(ids, rank.tolist())) == set(zip(ids[:25], first.rank.tolist()))


def test_feedback_is_idempotent():
    a = demand((50.0, 2.0, "a"))
    b = demand((40.0, 3.0, "b"))
    once = availability_feedback([_price_spans(a), _price_spans(b)])
    twice = availability_feedback([spans_of(once)])
    for probe in (60.0, 50.0, 40.0, 0.0):
        assert quantity_at(twice, probe) == quantity_at(once, probe)


def _bits(forecast):
    """(price, kW) bits of a forecast's steps in rank order."""
    steps = sorted(zip(forecast.rank.tolist(), forecast.price.tolist(), forecast.quantity.tolist()))
    return [(struct.pack("<d", p), struct.pack("<d", q)) for _, p, q in steps]


def _row_bits(rows):
    """(price, kW) bits of the oracle's rows in id string order."""
    return [(struct.pack("<d", p), struct.pack("<d", q)) for p, q, _ in sorted(rows, key=lambda r: r[2])]


def test_feedback_matches_the_per_price_formula_bitwise():
    # half the prices come from a small grid, so curves tie with each
    # other and within themselves; some curves in a window are empty
    rng = np.random.default_rng(3)
    grid = np.array([0.0, 12.5, 30.0, 30.1, 47.25, 1000.0])
    windows = [[[], []], [[], [(30.0, 2.0, "a")]]]
    for _ in range(300):
        window = []
        for c in range(int(rng.integers(1, 7))):
            n = int(rng.integers(0, 15))
            prices = np.where(rng.random(n) < 0.5, rng.choice(grid, n), rng.uniform(0.0, 100.0, n))
            qs = rng.uniform(0.1, 7.0, n)
            window.append([(p, q, f"c{c}_{i}") for i, (p, q) in enumerate(zip(prices.tolist(), qs.tolist()))])
        windows.append(window)
    for window in windows:
        got = availability_feedback([_price_spans(StepCurve(SIDE_BUY, rows)) for rows in window])
        want = feedback_rows(window)
        assert got.price.tolist() == [p for p, _, _ in want]
        assert _bits(got) == _row_bits(want)


def test_feedback_matches_the_per_price_formula_on_signed_zeros_bitwise():
    # 0.0 and -0.0 are one price level; the first one seen names it
    rng = np.random.default_rng(8)
    for _ in range(200):
        window = []
        for c in range(int(rng.integers(1, 5))):
            n = int(rng.integers(0, 6))
            prices = rng.choice([-0.0, 0.0, 0.0, 5.0, 30.0], n)
            qs = rng.choice([1.0, 0.5, 2.0], n)
            window.append([(p, q, f"c{c}_{i}") for i, (p, q) in enumerate(zip(prices.tolist(), qs.tolist()))])
        got = availability_feedback([_price_spans(StepCurve(SIDE_BUY, rows)) for rows in window])
        assert _bits(got) == _row_bits(feedback_rows(window))


def test_feedback_rejects_empty_window():
    with pytest.raises(ValueError):
        availability_feedback([])


# ------------------------------------------------------- reference blend


def test_reference_mode_threshold_is_strict():
    assert reference_mode(1.5, 1.0, None, 300.0) == MODE_CONTINGENCY
    assert reference_mode(-1.5, 1.0, None, 300.0) == MODE_CONTINGENCY
    assert reference_mode(1.0, 1.0, None, 300.0) == MODE_NORMAL
    assert reference_mode(-1.0, 1.0, None, 300.0) == MODE_NORMAL
    assert reference_mode(0.0, 1.0, None, 300.0) == MODE_NORMAL


def test_reference_mode_recent_shed_forces_contingency():
    assert reference_mode(0.0, 1.0, 100.0, 300.0) == MODE_CONTINGENCY
    # recency window is strict: a shed exactly at the boundary has aged out
    assert reference_mode(0.0, 1.0, 300.0, 300.0) == MODE_NORMAL
    assert reference_mode(0.0, 1.0, None, 300.0) == MODE_NORMAL


def test_feeder_reference_blends_by_mode():
    # dyadic weights keep the arithmetic exact
    assert feeder_reference(100.0, 20.0, 0.75, 0.25, MODE_NORMAL) == 80.0
    assert feeder_reference(100.0, 20.0, 0.75, 0.25, MODE_CONTINGENCY) == 40.0


def test_feeder_reference_default_style_weights():
    ref = feeder_reference(100.0, 20.0, 0.9, 0.1, MODE_NORMAL)
    assert ref == pytest.approx(92.0, rel=1e-12)
    ref = feeder_reference(100.0, 20.0, 0.9, 0.1, MODE_CONTINGENCY)
    assert ref == pytest.approx(28.0, rel=1e-12)


def test_feeder_reference_degenerate_weights():
    assert feeder_reference(100.0, 20.0, 1.0, 0.0, MODE_NORMAL) == 100.0
    assert feeder_reference(100.0, 20.0, 0.0, 1.0, MODE_NORMAL) == 20.0
    assert feeder_reference(100.0, 20.0, 1.0, 0.0, MODE_CONTINGENCY) == 20.0


def test_feeder_reference_validation():
    with pytest.raises(ValueError):
        feeder_reference(1.0, 1.0, 1.5, 0.1, MODE_NORMAL)
    with pytest.raises(ValueError):
        feeder_reference(1.0, 1.0, 0.9, -0.1, MODE_NORMAL)
    with pytest.raises(ValueError):
        feeder_reference(1.0, 1.0, 0.9, 0.1, "panic")


# ----------------------------------------------------------- settlement


def test_settle_two_legs():
    rec = settle("f0", 3, position_kwh=10.0, da_price=5.0, actual_kwh=11.0, rt_price=5.0)
    assert rec.participant == "f0"
    assert rec.interval_index == 3
    assert rec.da_energy_kwh == 10.0
    assert rec.da_payment == 50.0
    assert rec.rt_deviation_kwh == 1.0
    assert rec.rt_payment == 5.0
    assert rec.payment == 55.0


def test_settle_on_schedule_zeroes_the_real_time_leg():
    rec = settle("f0", 0, 10.0, 5.0, 10.0, 99.0)
    assert rec.rt_deviation_kwh == 0.0
    assert rec.rt_payment == 0.0
    assert rec.payment == rec.da_payment


def test_settle_under_consumption_is_refunded_at_rt_price():
    rec = settle("f1", 7, 10.0, 5.0, 8.0, 6.0)
    assert rec.rt_deviation_kwh == -2.0
    assert rec.rt_payment == -12.0
    assert rec.payment == 38.0


def test_settle_payment_identity():
    # the headline payment is always the sum of the two legs, bitwise
    cases = [
        (3.7, 41.25, 3.9, 55.5),
        (0.0, 30.0, 0.25, 61.0),
        (12.5, 28.0, 12.5, 28.0),
        (-4.0, 33.0, -3.0, 90.0),
    ]
    for pos, da, actual, rt in cases:
        rec = settle("x", 0, pos, da, actual, rt)
        assert rec.payment == rec.da_payment + rec.rt_payment


# -------------------------------------------------------- scarcity rent


def test_rent_zero_when_wholesale_is_marginal():
    sup = supply((30.0, 100.0, "__import_wholesale"))
    dem = demand((50.0, 50.0, "d"))
    result = clear_and_allocate(dem, sup, 0.0, 1000.0)
    assert result.price == 30.0
    assert scarcity_rent(result, sup) == 0.0


def test_rent_on_scarcity_pricing():
    # demand pushes into the scarcity block: the wholesale block earns
    # the spread between the clearing price and its own offer
    sup = supply((30.0, 100.0, "__import_wholesale"), (60.0, 25.0, "__import_scarcity0"))
    dem = demand((90.0, 110.0, "d"))
    result = clear_and_allocate(dem, sup, 0.0, 1000.0)
    assert result.price == 60.0
    assert fills_by_id(sup, result.sell_fills) == {"__import_wholesale": 100.0, "__import_scarcity0": 10.0}
    assert scarcity_rent(result, sup) == 3000.0


def test_rent_excludes_local_sellers():
    # pv1 is a real participant paid the clearing price in full, so its
    # margin never counts toward the market maker's rent
    sup = supply(
        (20.0, 10.0, "pv1"),
        (30.0, 100.0, "__import_wholesale"),
        (60.0, 25.0, "__import_scarcity0"),
    )
    dem = demand((90.0, 110.0, "d"))
    result = clear_and_allocate(dem, sup, 0.0, 1000.0)
    assert result.price == 45.0
    assert fills_by_id(sup, result.sell_fills) == {"pv1": 10.0, "__import_wholesale": 100.0}
    assert scarcity_rent(result, sup) == 1500.0


def test_rent_folds_the_margins_in_id_order_bitwise():
    # all three blocks fill whole at the bid price 157.1, and the three
    # margins round differently when folded in trade order (wholesale
    # first) than in id order (scarcity0, scarcity1, wholesale)
    sup = supply(
        (30.0, 100.3, "__import_wholesale"),
        (60.0, 25.7, "__import_scarcity0"),
        (119.9, 33.3, "__import_scarcity1"),
    )
    result = clear_and_allocate(demand((157.1, 300.0, "d")), sup, 0.0, 1000.0)
    assert result.price == 157.1
    assert result.sell_fills.tolist() == [100.3, 25.7, 33.3]
    wholesale, scarcity0, scarcity1 = (
        (157.1 - 30.0) * 100.3, (157.1 - 60.0) * 25.7, (157.1 - 119.9) * 33.3
    )
    by_id = left_sum([scarcity0, scarcity1, wholesale])
    by_trade = left_sum([wholesale, scarcity0, scarcity1])
    assert struct.pack("<d", by_id) != struct.pack("<d", by_trade)
    assert struct.pack("<d", scarcity_rent(result, sup)) == struct.pack("<d", by_id)


def test_rent_folds_twelve_steps_in_id_order_bitwise():
    # with 12 scarcity steps __import_scarcity10 and 11 sort before
    # __import_scarcity2, so id order is neither trade nor step order; a
    # storage sell at the wholesale price is no part of the rent
    prices = (34.36, 42.77, 45.96, 47.44, 50.93, 57.67, 64.92, 70.23, 73.72, 82.05, 90.48, 94.97)
    kws = (12.88, 18.78, 21.69, 18.98, 13.56, 13.82, 19.73, 27.62, 2.39, 3.6, 23.08, 14.33)
    ranks = OrderRanks(market_maker_ids(12) + ["bat_dis", "d"])
    sup = build_feeder_supply(
        FeederSupplySpec(30.0, 100.3, tuple(zip(prices, kws)), 1000.0),
        [Order("bat_dis", SIDE_SELL, 30.0, 4.5)], ranks,
    )
    dem = build_demand_curve([Order("d", SIDE_BUY, 157.1, sup.total_quantity() - 0.7)], ranks)
    result = clear_and_allocate(dem, sup, 0.0, 1000.0)
    assert result.price == 94.97
    filled = list(zip(sup.ids.tolist(), sup.price.tolist(), result.sell_fills.tolist()))
    assert len(filled) == 14 and filled[1][0] == "bat_dis"

    def fold(rows):
        return left_sum((result.price - p) * fill for oid, p, fill in rows if oid.startswith("__import"))

    by_id = fold(sorted(filled))
    by_step = fold(filled[2:] + filled[:1])
    assert [oid for oid, _, _ in sorted(filled)][1:5] == [f"__import_scarcity{k}" for k in (1, 10, 11, 2)]
    assert struct.pack("<d", by_id) != struct.pack("<d", fold(filled))
    assert struct.pack("<d", by_id) != struct.pack("<d", by_step)
    assert struct.pack("<d", scarcity_rent(result, sup)) == struct.pack("<d", by_id)


def test_rent_zero_on_null_trade():
    sup = supply((30.0, 100.0, "__import_wholesale"))
    dem = demand((10.0, 50.0, "d"))
    result = clear_and_allocate(dem, sup, 0.0, 1000.0)
    assert result.quantity == 0.0
    assert scarcity_rent(result, sup) == 0.0
