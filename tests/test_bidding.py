"""Thermostat and storage bidding, and the price-to-setpoint inverse."""

import math

import pytest

from tgsim.auction import clear_and_allocate, StepCurve, SIDE_BUY, SIDE_SELL, Segment
from tgsim.bidding import (
    PriceStats,
    StorageSpec,
    StorageState,
    apply_clearing_to_storage,
    setpoint_from_price,
    storage_bids,
    thermostat_bid,
)
from tgsim.thermal import ThermostatConfig

COOL_CFG = ThermostatConfig(
    kind="hysteresis",
    mode="cooling",
    setpoint=22.0,
    deadband=1.0,
    t_min=20.0,
    t_max=24.0,
    t_desired=22.0,
)
HEAT_CFG = ThermostatConfig(
    kind="hysteresis",
    mode="heating",
    setpoint=20.0,
    deadband=1.0,
    t_min=18.0,
    t_max=22.0,
    t_desired=20.0,
)


def fresh_stats():
    return PriceStats(window=12, prior_mean=30.0, prior_sigma=10.0)


# ----------------------------------------------------------------------
# price statistics
# ----------------------------------------------------------------------


def test_price_stats_prior_until_window_full():
    stats = PriceStats(window=3, prior_mean=30.0, prior_sigma=10.0)
    assert stats.mean == 30.0 and stats.sigma == 10.0
    stats.observe(100.0)
    stats.observe(0.0)
    # two of three observed: the prior still stands
    assert stats.mean == 30.0 and stats.sigma == 10.0
    stats.observe(50.0)
    assert stats.mean == 50.0
    assert stats.sigma == pytest.approx(math.sqrt((2500.0 + 2500.0 + 0.0) / 3.0))


def test_price_stats_population_sigma_and_rolling_window():
    stats = PriceStats(window=2, prior_mean=0.0, prior_sigma=1.0)
    stats.observe(20.0)
    stats.observe(40.0)
    # population convention: sqrt(((20-30)^2 + (40-30)^2)/2) = 10 exactly
    assert stats.mean == 30.0
    assert stats.sigma == 10.0
    stats.observe(60.0)  # 20 falls out of the window
    assert stats.mean == 50.0
    assert stats.sigma == 10.0


def test_price_stats_validation():
    with pytest.raises(ValueError):
        PriceStats(window=1)
    with pytest.raises(ValueError):
        PriceStats(window=4, prior_sigma=-1.0)
    stats = fresh_stats()
    with pytest.raises(ValueError):
        stats.observe(float("inf"))


# ----------------------------------------------------------------------
# thermostat bids
# ----------------------------------------------------------------------


def test_bid_at_desired_temperature_is_expected_price():
    order = thermostat_bid("h1", 22.0, COOL_CFG, 1.0, fresh_stats(), 4.0, 0.0, 1000.0)
    assert order.price == 30.0
    assert order.quantity == 4.0
    assert order.side == SIDE_BUY


def test_bid_slope_follows_comfort_setting():
    # slope = k*sigma/|t_max - t_desired| = 1*10/2 = 5 per degC
    order = thermostat_bid("h1", 23.0, COOL_CFG, 1.0, fresh_stats(), 4.0, 0.0, 1000.0)
    assert order.price == 35.0
    # doubling k doubles the premium
    order = thermostat_bid("h1", 23.0, COOL_CFG, 2.0, fresh_stats(), 4.0, 0.0, 1000.0)
    assert order.price == 40.0
    # at the cool end of the comfort range the bid rides the line down
    order = thermostat_bid("h1", 20.0, COOL_CFG, 1.0, fresh_stats(), 4.0, 0.0, 1000.0)
    assert order.price == 20.0


def test_bid_emergency_at_comfort_limit_is_must_run():
    order = thermostat_bid("h1", 24.0, COOL_CFG, 1.0, fresh_stats(), 4.0, 0.0, 1000.0)
    assert order.price == 1000.0
    order = thermostat_bid("h1", 26.5, COOL_CFG, 1.0, fresh_stats(), 4.0, 0.0, 1000.0)
    assert order.price == 1000.0


def test_bid_abstains_when_no_service_wanted():
    assert thermostat_bid("h1", 19.9, COOL_CFG, 1.0, fresh_stats(), 4.0, 0.0, 1000.0) is None
    # heating device in a warm house has nothing to buy
    assert thermostat_bid("h1", 22.1, HEAT_CFG, 1.0, fresh_stats(), 4.0, 0.0, 1000.0) is None


def test_heating_bid_rises_as_it_gets_colder():
    order = thermostat_bid("h1", 19.0, HEAT_CFG, 1.0, fresh_stats(), 4.0, 0.0, 1000.0)
    assert order.price == 35.0
    order = thermostat_bid("h1", 18.0, HEAT_CFG, 1.0, fresh_stats(), 4.0, 0.0, 1000.0)
    assert order.price == 1000.0  # comfort emergency


def test_zero_k_is_price_insensitive():
    """k = 0 wants service at any price or not at all."""
    order = thermostat_bid("h1", 23.0, COOL_CFG, 0.0, fresh_stats(), 4.0, 0.0, 1000.0)
    assert order.price == 1000.0
    # exactly at t_desired the strict comparison says no service needed
    assert thermostat_bid("h1", 22.0, COOL_CFG, 0.0, fresh_stats(), 4.0, 0.0, 1000.0) is None
    assert thermostat_bid("h1", 21.0, COOL_CFG, 0.0, fresh_stats(), 4.0, 0.0, 1000.0) is None


def test_bid_clamps_to_market_limits():
    stats = fresh_stats()
    order = thermostat_bid("h1", 23.9, COOL_CFG, 5.0, stats, 4.0, 0.0, 60.0)
    # line value 30 + 25*1.9 = 77.5 exceeds the cap
    assert order.price == 60.0
    order = thermostat_bid("h1", 20.1, COOL_CFG, 5.0, stats, 4.0, 0.0, 1000.0)
    # line value 30 - 25*1.9 = -17.5 sits under the floor
    assert order.price == 0.0


def test_bid_rejects_negative_k():
    with pytest.raises(ValueError):
        thermostat_bid("h1", 23.0, COOL_CFG, -0.5, fresh_stats(), 4.0, 0.0, 1000.0)
    with pytest.raises(ValueError):
        setpoint_from_price(30.0, COOL_CFG, -1.0, fresh_stats())


# ----------------------------------------------------------------------
# price to setpoint
# ----------------------------------------------------------------------


def test_setpoint_examples():
    stats = fresh_stats()
    assert setpoint_from_price(30.0, COOL_CFG, 1.0, stats) == 22.0
    # 22 + (40-30)*2/10 = 24: high prices push a cooling setpoint up
    assert setpoint_from_price(40.0, COOL_CFG, 1.0, stats) == 24.0
    assert setpoint_from_price(20.0, COOL_CFG, 1.0, stats) == 20.0
    # beyond the comfort range the setpoint pins at the limit
    assert setpoint_from_price(50.0, COOL_CFG, 1.0, stats) == 24.0
    assert setpoint_from_price(-100.0, COOL_CFG, 1.0, stats) == 20.0
    # heating backs off (lower setpoint) when prices are high
    assert setpoint_from_price(40.0, HEAT_CFG, 1.0, stats) == 18.0
    assert setpoint_from_price(35.0, HEAT_CFG, 1.0, stats) == 19.0


def test_setpoint_degenerate_cases():
    stats = fresh_stats()
    assert setpoint_from_price(500.0, COOL_CFG, 0.0, stats) == 22.0
    flat = PriceStats(window=2, prior_mean=30.0, prior_sigma=10.0)
    flat.observe(25.0)
    flat.observe(25.0)
    assert flat.sigma == 0.0
    # no price spread: nothing to respond to
    assert setpoint_from_price(500.0, COOL_CFG, 1.0, flat) == 22.0


def test_bid_and_setpoint_are_inverses_between_clamps():
    stats = fresh_stats()
    for cfg in (COOL_CFG, HEAT_CFG):
        lo, hi = cfg.t_min, cfg.t_max
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            t = lo + frac * (hi - lo)
            order = thermostat_bid("h1", t, cfg, 1.5, stats, 4.0, 0.0, 1000.0)
            back = setpoint_from_price(order.price, cfg, 1.5, stats)
            assert back == pytest.approx(t, abs=1e-9)


# ----------------------------------------------------------------------
# storage
# ----------------------------------------------------------------------


def test_storage_spec_validation():
    with pytest.raises(ValueError):
        StorageSpec("b", 0.0, 5.0, 5.0, 20.0, 40.0)
    with pytest.raises(ValueError):
        StorageSpec("b", 10.0, 0.0, 5.0, 20.0, 40.0)
    with pytest.raises(ValueError):
        StorageSpec("b", 10.0, 5.0, 5.0, 40.0, 40.0)  # bands must not touch
    with pytest.raises(ValueError):
        StorageSpec("b", 10.0, 5.0, 5.0, 20.0, 40.0, efficiency=0.0)
    with pytest.raises(ValueError):
        StorageSpec("b", 10.0, 5.0, 5.0, 20.0, 40.0, efficiency=1.1)


def test_storage_bids_respect_state_of_charge():
    spec = StorageSpec("b1", 10.0, 5.0, 4.0, 20.0, 40.0)
    empty = storage_bids(spec, StorageState(0.0))
    assert [o.order_id for o in empty] == ["b1_chg"]
    assert empty[0].side == SIDE_BUY and empty[0].price == 20.0 and empty[0].quantity == 5.0
    full = storage_bids(spec, StorageState(10.0))
    assert [o.order_id for o in full] == ["b1_dis"]
    assert full[0].side == SIDE_SELL and full[0].price == 40.0 and full[0].quantity == 4.0
    both = storage_bids(spec, StorageState(5.0))
    assert {o.order_id for o in both} == {"b1_chg", "b1_dis"}
    with pytest.raises(ValueError):
        storage_bids(spec, StorageState(-0.1))
    with pytest.raises(ValueError):
        storage_bids(spec, StorageState(10.1))


def test_storage_never_trades_with_itself():
    """The band gap means both legs can never clear simultaneously."""
    spec = StorageSpec("b1", 10.0, 5.0, 4.0, 25.0, 45.0)
    orders = storage_bids(spec, StorageState(5.0))
    demand = StepCurve(SIDE_BUY, [Segment(o.price, o.quantity, o.order_id) for o in orders if o.side == SIDE_BUY])
    supply = StepCurve(SIDE_SELL, [Segment(o.price, o.quantity, o.order_id) for o in orders if o.side == SIDE_SELL])
    result = clear_and_allocate(demand, supply)
    assert result.quantity == 0.0
    assert result.price == 35.0  # midpoint of the untraded band
    assert result.accepted_buys == {} and result.accepted_sells == {}


def test_apply_clearing_round_trip_efficiency():
    # efficiency 0.25 makes both legs exact: sqrt is 0.5
    spec = StorageSpec("b1", 10.0, 8.0, 8.0, 20.0, 40.0, efficiency=0.25)
    s = apply_clearing_to_storage(spec, StorageState(0.0), charge_kw=8.0, discharge_kw=0.0, h=0.5)
    assert s.soc_kwh == 2.0  # bought 4 kWh from the grid, half survives
    s = apply_clearing_to_storage(spec, s, charge_kw=0.0, discharge_kw=2.0, h=0.5)
    assert s.soc_kwh == 0.0  # delivering 1 kWh drained the remaining 2
    # the full cycle returned efficiency times the energy bought
    assert 1.0 / 4.0 == spec.efficiency


def test_apply_clearing_guards_and_clamps():
    spec = StorageSpec("b1", 10.0, 5.0, 5.0, 20.0, 40.0)
    with pytest.raises(ValueError):
        apply_clearing_to_storage(spec, StorageState(5.0), 1.0, 1.0, 0.25)
    with pytest.raises(ValueError):
        apply_clearing_to_storage(spec, StorageState(5.0), -1.0, 0.0, 0.25)
    # overcharge clamps to capacity, overdraw clamps to zero
    s = apply_clearing_to_storage(spec, StorageState(9.9), 5.0, 0.0, 1.0)
    assert s.soc_kwh == 10.0
    s = apply_clearing_to_storage(spec, StorageState(0.1), 0.0, 5.0, 1.0)
    assert s.soc_kwh == 0.0


def test_apply_clearing_lossless_unit_efficiency():
    spec = StorageSpec("b1", 10.0, 5.0, 5.0, 20.0, 40.0)
    s = apply_clearing_to_storage(spec, StorageState(2.0), 4.0, 0.0, 0.25)
    assert s.soc_kwh == 3.0
    s = apply_clearing_to_storage(spec, s, 0.0, 4.0, 0.25)
    assert s.soc_kwh == 2.0