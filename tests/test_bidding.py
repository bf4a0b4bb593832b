"""Thermostat and storage bidding, and the price-to-setpoint inverse."""

import math

import numpy as np
import pytest

from hand_curves import hand_curve
from oracle_clearing import fills_by_id
from tgsim.auction import clear_and_allocate, SIDE_BUY, SIDE_SELL
from tgsim.bidding import (
    HouseStats,
    PriceStats,
    StorageSpec,
    apply_clearing_to_storage,
    fleet_bids,
    fleet_setpoints,
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
# fleet bids and setpoints against the scalar oracles
# ----------------------------------------------------------------------


def bits(values):
    """Bit patterns of floats, so equality also tells -0.0 from 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def stats_cases():
    """sigma from the prior, from a full window, and zero."""
    full = PriceStats(window=4, prior_mean=30.0, prior_sigma=10.0)
    for price in (22.0, 31.5, 47.25, 28.0):
        full.observe(price)
    flat = PriceStats(window=2, prior_mean=30.0, prior_sigma=10.0)
    flat.observe(25.0)
    flat.observe(25.0)
    assert full.sigma > 0.0 and full.mean != 30.0 and flat.sigma == 0.0
    return {"prior": fresh_stats(), "window": full, "flat": flat}


def random_fleet(cfg, seed, n=300):
    """Temperatures on t_min, t_max and t_desired exactly and around the
    comfort range; a fifth of the fleet at k = 0, every seventh house latched."""
    rng = np.random.default_rng(seed)
    edges = np.tile([cfg.t_min, cfg.t_max, cfg.t_desired], 20)
    t_in = np.concatenate([edges, rng.uniform(cfg.t_min - 1.0, cfg.t_max + 1.0, n - len(edges))])
    k = rng.lognormal(0.0, 0.8, n)
    k[rng.random(n) < 0.2] = 0.0
    p_rated = rng.uniform(2.0, 6.0, n)
    latched = np.zeros(n, dtype=np.uint8)
    latched[::7] = 1
    return t_in, k, p_rated, latched


def test_fleet_bids_match_thermostat_bid_bitwise():
    limits = ((0.0, 1000.0), (25.0, 40.0))  # the narrow pair binds on most line bids
    for cfg in (COOL_CFG, HEAT_CFG):
        for name, stats in stats_cases().items():
            for floor, cap in limits:
                t_in, k, p_rated, latched = random_fleet(cfg, seed=len(name))
                idx, prices = fleet_bids(t_in, cfg, k, stats, p_rated, latched, floor, cap)
                want = {}
                for i in range(len(t_in)):
                    if latched[i]:
                        continue
                    order = thermostat_bid(
                        f"h{i}", float(t_in[i]), cfg, float(k[i]), stats, float(p_rated[i]), floor, cap
                    )
                    if order is not None:
                        want[i] = order
                assert idx.tolist() == sorted(want), (cfg.mode, name, floor, cap)
                assert bits(prices) == bits([want[i].price for i in idx.tolist()])
                assert [want[i].quantity for i in idx.tolist()] == p_rated[idx].tolist()
                # the cases the oracle must have seen: abstention, must-run,
                # the floor, and k = 0 houses both bidding and abstaining
                flat = k == 0.0
                free = latched == 0
                assert len(want) < free.sum()
                assert cap in prices.tolist()
                if name != "flat" and cap == 40.0:
                    assert floor in prices.tolist()
                assert (flat[idx]).any() and (flat & free & ~np.isin(np.arange(len(k)), idx)).any()


def test_fleet_setpoints_match_setpoint_from_price_bitwise():
    for cfg in (COOL_CFG, HEAT_CFG):
        for name, stats in stats_cases().items():
            _, k, _, _ = random_fleet(cfg, seed=3)
            for p_clear in (0.0, 1000.0, stats.mean, 25.0, 33.3, 41.7):
                got = fleet_setpoints(p_clear, cfg, k, stats)
                want = [setpoint_from_price(p_clear, cfg, float(x), stats) for x in k.tolist()]
                assert bits(got) == bits(want), (cfg.mode, name, p_clear)
            if name == "flat":
                assert (got == cfg.t_desired).all()


@pytest.mark.byte_pin
@pytest.mark.parametrize("cfg", [COOL_CFG, HEAT_CFG], ids=["cooling", "heating"])
def test_one_area_pass_equals_the_per_feeder_calls_bitwise(cfg):
    # three feeders in one fleet, the middle one without houses, each with
    # its own statistics: a -0.0 mean, a full window, and sigma = 0. Each
    # feeder's run of one area pass, with its statistics repeated over its
    # houses, has the bits of a call over its houses alone.
    t_in, k, p_rated, latched = random_fleet(cfg, seed=8)
    bounds = [(0, 170), (170, 170), (170, len(t_in))]
    signed_zero = PriceStats(window=2, prior_mean=-0.0, prior_sigma=10.0)
    cases = stats_cases()
    assert math.copysign(1.0, signed_zero.mean) == -1.0 and cases["flat"].sigma == 0.0
    of_house = np.repeat(np.arange(3), [hi - lo for lo, hi in bounds])
    seen = []
    for order in ((signed_zero, cases["window"], cases["flat"]), (cases["flat"], signed_zero, cases["window"])):
        house_stats = HouseStats(np.array([s.mean for s in order])[of_house],
                                 np.array([s.sigma for s in order])[of_house])
        for floor, cap in ((0.0, 1000.0), (25.0, 40.0)):
            idx, prices = fleet_bids(t_in, cfg, k, house_stats, p_rated, latched, floor, cap)
            cut = idx.searchsorted([lo for lo, _ in bounds] + [len(t_in)])
            for (lo, hi), stats, a, b in zip(bounds, order, cut, cut[1:]):
                want_idx, want = fleet_bids(t_in[lo:hi], cfg, k[lo:hi], stats, p_rated[lo:hi], latched[lo:hi],
                                            floor, cap)
                assert (idx[a:b] - lo).tolist() == want_idx.tolist()
                assert bits(prices[a:b]) == bits(want)
            seen += prices.tolist()
            # clearing prices at the limits, at a mean and in between
            for p_feeders in ((floor, cap, floor), (cap, 33.3, order[0].mean), (order[2].mean, floor, 41.7)):
                got = fleet_setpoints(np.array(p_feeders)[of_house], cfg, k, house_stats)
                want = [fleet_setpoints(p, cfg, k[lo:hi], stats) for (lo, hi), p, stats in
                        zip(bounds, p_feeders, order)]
                assert bits(got) == bits(np.concatenate(want)), (cfg.mode, p_feeders)
    # the pass saw bids at the floor and at the cap, houses that abstain,
    # latched houses and houses with k = 0
    assert 0.0 in seen and 25.0 in seen and 1000.0 in seen and 40.0 in seen
    assert latched.any() and (k == 0.0).any() and len(seen) < 4 * (latched == 0).sum()


def test_fleet_bids_reject_negative_k_on_unlatched_houses():
    t_in, k, p_rated, latched = random_fleet(COOL_CFG, seed=4)
    k[0] = -0.5  # house 0 is latched: it does not bid, so it is not checked
    fleet_bids(t_in, COOL_CFG, k, fresh_stats(), p_rated, latched, 0.0, 1000.0)
    k[1] = -0.5
    with pytest.raises(ValueError):
        fleet_bids(t_in, COOL_CFG, k, fresh_stats(), p_rated, latched, 0.0, 1000.0)
    with pytest.raises(ValueError):
        fleet_setpoints(30.0, COOL_CFG, k, fresh_stats())
    # and the checks Order makes of every bid
    t_in[:] = COOL_CFG.t_max  # every unlatched house must run
    k[1] = 1.0
    p_rated[5] = 0.0
    with pytest.raises(ValueError, match="quantity"):
        fleet_bids(t_in, COOL_CFG, k, fresh_stats(), p_rated, latched, 0.0, 1000.0)
    p_rated[5] = 4.0
    with pytest.raises(ValueError, match="price"):
        fleet_bids(t_in, COOL_CFG, k, fresh_stats(), p_rated, latched, 0.0, math.inf)


def test_fleet_bids_and_setpoints_of_an_empty_fleet():
    empty = np.zeros(0)
    idx, prices = fleet_bids(
        empty, COOL_CFG, empty, fresh_stats(), empty, np.zeros(0, dtype=np.uint8), 0.0, 1000.0
    )
    assert idx.tolist() == [] and prices.tolist() == []
    assert fleet_setpoints(30.0, HEAT_CFG, empty, fresh_stats()).tolist() == []


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
    empty = storage_bids(spec, 0.0)
    assert [o.order_id for o in empty] == ["b1_chg"]
    assert empty[0].side == SIDE_BUY and empty[0].price == 20.0 and empty[0].quantity == 5.0
    full = storage_bids(spec, 10.0)
    assert [o.order_id for o in full] == ["b1_dis"]
    assert full[0].side == SIDE_SELL and full[0].price == 40.0 and full[0].quantity == 4.0
    both = storage_bids(spec, 5.0)
    assert {o.order_id for o in both} == {"b1_chg", "b1_dis"}
    with pytest.raises(ValueError):
        storage_bids(spec, -0.1)
    with pytest.raises(ValueError):
        storage_bids(spec, 10.1)


def test_storage_never_trades_with_itself():
    """The band gap means both legs can never clear simultaneously."""
    spec = StorageSpec("b1", 10.0, 5.0, 4.0, 25.0, 45.0)
    orders = storage_bids(spec, 5.0)
    demand = hand_curve(SIDE_BUY, [(o.price, o.quantity, o.order_id) for o in orders if o.side == SIDE_BUY])
    supply = hand_curve(SIDE_SELL, [(o.price, o.quantity, o.order_id) for o in orders if o.side == SIDE_SELL])
    result = clear_and_allocate(demand, supply)
    assert result.quantity == 0.0
    assert result.price == 35.0  # midpoint of the untraded band
    assert fills_by_id(demand, result.buy_fills) == {} and fills_by_id(supply, result.sell_fills) == {}


def test_apply_clearing_round_trip_efficiency():
    # efficiency 0.25 makes both legs exact: sqrt is 0.5
    spec = StorageSpec("b1", 10.0, 8.0, 8.0, 20.0, 40.0, efficiency=0.25)
    soc = apply_clearing_to_storage(spec, 0.0, charge_kw=8.0, discharge_kw=0.0, h=0.5)
    assert soc == 2.0  # bought 4 kWh from the grid, half survives
    soc = apply_clearing_to_storage(spec, soc, charge_kw=0.0, discharge_kw=2.0, h=0.5)
    assert soc == 0.0  # delivering 1 kWh drained the remaining 2
    # the full cycle returned efficiency times the energy bought
    assert 1.0 / 4.0 == spec.efficiency


def test_apply_clearing_guards_and_clamps():
    spec = StorageSpec("b1", 10.0, 5.0, 5.0, 20.0, 40.0)
    with pytest.raises(ValueError):
        apply_clearing_to_storage(spec, 5.0, 1.0, 1.0, 0.25)
    with pytest.raises(ValueError):
        apply_clearing_to_storage(spec, 5.0, -1.0, 0.0, 0.25)
    # overcharge clamps to capacity, overdraw clamps to zero
    soc = apply_clearing_to_storage(spec, 9.9, 5.0, 0.0, 1.0)
    assert soc == 10.0
    soc = apply_clearing_to_storage(spec, 0.1, 0.0, 5.0, 1.0)
    assert soc == 0.0


def test_apply_clearing_lossless_unit_efficiency():
    spec = StorageSpec("b1", 10.0, 5.0, 5.0, 20.0, 40.0)
    soc = apply_clearing_to_storage(spec, 2.0, 4.0, 0.0, 0.25)
    assert soc == 3.0
    soc = apply_clearing_to_storage(spec, soc, 0.0, 4.0, 0.25)
    assert soc == 2.0