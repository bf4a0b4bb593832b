"""Hourly scheduling, forecast feedback, dispatch blending, settlement."""

import struct

import numpy as np
import pytest

from oracle_clearing import fills_by_id
from tgsim.auction import SIDE_BUY, SIDE_SELL, Segment, StepCurve, _price_spans, clear_and_allocate
from tgsim.fold import left_sum
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


def test_schedule_zero_hours():
    assert schedule_hourly([], [], 15.0, 10.0, 100.0, 0.0, 1000.0) == []


def test_schedule_renewables_marginal_hour():
    # 5 kW of demand against 10 kW of cheap renewables: the renewables
    # block is marginal, so the hour clears at the renewables price.
    forecasts = [{"f0": demand((40.0, 5.0, "f0"))}]
    (entry,) = schedule_hourly(forecasts, [30.0], 15.0, 10.0, 100.0, 0.0, 1000.0)
    assert entry.hour_index == 0
    assert entry.price == 15.0
    assert entry.area_quantity_kw == 5.0
    assert entry.feeder_kw == {"f0": 5.0}


def test_schedule_bulk_marginal_hour_splits_positions():
    # demand exceeds renewables so the bulk block sets the price, and
    # each feeder's position is its own willingness at that price
    forecasts = [
        {
            "f0": demand((50.0, 8.0, "f0")),
            "f1": demand((45.0, 4.0, "f1")),
        }
    ]
    (entry,) = schedule_hourly(forecasts, [30.0], 15.0, 5.0, 100.0, 0.0, 1000.0)
    assert entry.price == 30.0
    assert entry.area_quantity_kw == 12.0
    assert entry.feeder_kw == {"f0": 8.0, "f1": 4.0}


def test_schedule_uses_per_hour_bulk_price():
    hour = {"f0": demand((90.0, 20.0, "f0"))}
    sched = schedule_hourly([hour, hour], [30.0, 60.0], 15.0, 0.0, 100.0, 0.0, 1000.0)
    assert [e.price for e in sched] == [30.0, 60.0]
    assert [e.area_quantity_kw for e in sched] == [20.0, 20.0]


def test_schedule_empty_hour_clears_at_floor_with_zero_positions():
    forecasts = [{"f0": StepCurve(SIDE_BUY, [])}]
    (entry,) = schedule_hourly(forecasts, [30.0], 15.0, 10.0, 100.0, 5.0, 1000.0)
    assert entry.price == 5.0
    assert entry.area_quantity_kw == 0.0
    assert entry.feeder_kw == {"f0": 0.0}


def test_schedule_is_a_pure_function_of_its_inputs():
    forecasts = [
        {"f0": demand((50.0, 8.0, "f0")), "f1": demand((45.0, 4.0, "f1"))},
        {"f0": demand((40.0, 2.0, "f0")), "f1": demand((35.0, 6.0, "f1"))},
    ]
    args = (forecasts, [30.0, 25.0], 15.0, 5.0, 100.0, 0.0, 1000.0)
    first = schedule_hourly(*args)
    second = schedule_hourly(*args)
    assert first == second


def test_schedule_length_mismatch_rejected():
    forecasts = [{"f0": demand((40.0, 5.0, "f0"))}] * 2
    with pytest.raises(ValueError):
        schedule_hourly(forecasts, [30.0], 15.0, 10.0, 100.0, 0.0, 1000.0)


def test_schedule_entry_lookup():
    hour = {"f0": demand((40.0, 5.0, "f0"))}
    sched = schedule_hourly([hour, hour, hour], [30.0] * 3, 15.0, 10.0, 100.0, 0.0, 1000.0)
    assert [e.hour_index for e in sched] == [0, 1, 2]


# ------------------------------------------------------ forecast feedback


def test_feedback_single_curve_is_identity_pointwise():
    c = demand((50.0, 2.0, "a"), (40.0, 3.0, "b"))
    mean = availability_feedback([_price_spans(c)])
    for probe in (55.0, 50.0, 45.0, 40.0, 10.0):
        assert mean.quantity_at(probe) == c.quantity_at(probe)


def test_feedback_averages_over_the_union_of_prices():
    # window of two intervals with steps at different prices: each
    # interval contributes its willingness at every price, halved
    a = demand((50.0, 2.0, "a"))
    b = demand((40.0, 3.0, "b"))
    mean = availability_feedback([_price_spans(a), _price_spans(b)])
    assert mean.quantity_at(50.0) == 1.0
    assert mean.quantity_at(40.0) == 2.5
    assert mean.quantity_at(39.0) == 2.5
    assert mean.quantity_at(51.0) == 0.0
    # total is the mean of the input totals
    assert mean.total_quantity() == 2.5


def test_feedback_emits_synthetic_order_ids():
    a = demand((50.0, 2.0, "house7"))
    b = demand((40.0, 3.0, "house9"))
    mean = availability_feedback([_price_spans(a), _price_spans(b)])
    ids = [s.order_id for s in mean.segments]
    assert ids == ["__forecast0", "__forecast1"]


def test_feedback_is_idempotent():
    a = demand((50.0, 2.0, "a"))
    b = demand((40.0, 3.0, "b"))
    once = availability_feedback([_price_spans(a), _price_spans(b)])
    twice = availability_feedback([_price_spans(once)])
    for probe in (60.0, 50.0, 40.0, 0.0):
        assert twice.quantity_at(probe) == once.quantity_at(probe)


def _feedback_per_price(curves):
    """The feedback curve read off every curve at every distinct price."""
    prices = sorted({s.price for c in curves for s in c.segments}, reverse=True)
    segs, prev_q = [], 0.0
    for k, p in enumerate(prices):
        q_here = left_sum(c.quantity_at(p) for c in curves) / len(curves)
        if q_here > prev_q:
            segs.append((p, q_here - prev_q, f"__forecast{k}"))
            prev_q = q_here
    return segs


def test_feedback_matches_the_per_price_formula_bitwise():
    # half the prices come from a small grid, so curves tie with each
    # other and within themselves; some curves in a window are empty
    rng = np.random.default_rng(3)
    grid = np.array([0.0, 12.5, 30.0, 30.1, 47.25, 1000.0])
    windows = [[demand(), demand()], [demand(), demand((30.0, 2.0, "a"))]]
    for _ in range(300):
        window = []
        for c in range(int(rng.integers(1, 7))):
            n = int(rng.integers(0, 15))
            prices = np.where(rng.random(n) < 0.5, rng.choice(grid, n), rng.uniform(0.0, 100.0, n))
            qs = rng.uniform(0.1, 7.0, n)
            window.append(demand(*((p, q, f"c{c}_{i}") for i, (p, q) in enumerate(zip(prices, qs)))))
        windows.append(window)
    for window in windows:
        got = [tuple(s) for s in availability_feedback([_price_spans(c) for c in window]).segments]
        assert got == _feedback_per_price(window)


def test_feedback_matches_the_per_price_formula_on_signed_zeros_bitwise():
    # 0.0 and -0.0 are one price level; the first one seen names it
    rng = np.random.default_rng(8)
    for _ in range(200):
        window = []
        for c in range(int(rng.integers(1, 5))):
            n = int(rng.integers(0, 6))
            prices = rng.choice([-0.0, 0.0, 0.0, 5.0, 30.0], n)
            qs = rng.choice([1.0, 0.5, 2.0], n)
            window.append(demand(*((p, q, f"c{c}_{i}") for i, (p, q) in enumerate(zip(prices, qs)))))
        mean = availability_feedback([_price_spans(c) for c in window])
        got = [(struct.pack("<d", p), struct.pack("<d", q), i) for p, q, i in mean.segments]
        want = [(struct.pack("<d", p), struct.pack("<d", q), i) for p, q, i in _feedback_per_price(window)]
        assert got == want


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


def test_rent_zero_on_null_trade():
    sup = supply((30.0, 100.0, "__import_wholesale"))
    dem = demand((10.0, 50.0, "d"))
    result = clear_and_allocate(dem, sup, 0.0, 1000.0)
    assert result.quantity == 0.0
    assert scarcity_rent(result, sup) == 0.0
