"""House thermal model, thermostat logic and fleet diversity.

Reference values marked "precomputed" were derived from the closed-form
solution of dT/dt = (T_out - T)/(R*C) + q/C with 50-digit arithmetic
and rounded to the nearest double, independently of the implementation.
"""

import dataclasses
import math

import numpy as np
import pytest

from tgsim.thermal import (
    HouseState,
    Population,
    ThermalParams,
    ThermostatConfig,
    _cycle,
    _cycle_band,
    aggregate_power,
    boundary_decide,
    curtailment_experiment,
    cycle_phase,
    cycle_phases,
    decide,
    diversity_from_phases,
    diversity_metric,
    hysteresis_decide,
    state_from_phase,
    states_from_phases,
    steady_duty,
    step_house,
)

COOL = ThermalParams(r_thermal=2.0, c_thermal=2.0, q_hvac=-12.0, p_rated=4.0)
COOL_CFG = ThermostatConfig(
    kind="hysteresis",
    mode="cooling",
    setpoint=22.0,
    deadband=1.0,
    t_min=20.0,
    t_max=24.0,
    t_desired=22.0,
)
HEAT = ThermalParams(r_thermal=2.0, c_thermal=2.0, q_hvac=12.0, p_rated=4.0)
HEAT_CFG = ThermostatConfig(
    kind="hysteresis",
    mode="heating",
    setpoint=20.0,
    deadband=1.0,
    t_min=18.0,
    t_max=22.0,
    t_desired=20.0,
)


# ----------------------------------------------------------------------
# single-house physics
# ----------------------------------------------------------------------


def test_step_house_off_matches_closed_form():
    # R*C = 4 h and h = 4 h make the decay exactly exp(-1);
    # 30 - 8*exp(-1) = 27.05696447062846 precomputed
    out = step_house(HouseState(t_in=22.0, hvac_on=False), COOL, t_out=30.0, h=4.0)
    assert out.t_in == pytest.approx(27.05696447062846, rel=1e-12)
    assert out.hvac_on is False


def test_step_house_on_matches_closed_form():
    # cooling pulls toward T_eq = 32 + (-10)(2.5) = 7 degC;
    # 7 + 19*exp(-(1/12)/4.5) = 25.651386018008537 precomputed
    params = ThermalParams(r_thermal=2.5, c_thermal=1.8, q_hvac=-10.0, p_rated=3.5)
    out = step_house(HouseState(t_in=26.0, hvac_on=True), params, t_out=32.0, h=1.0 / 12.0)
    assert out.t_in == pytest.approx(25.651386018008537, rel=1e-12)


def test_step_house_two_half_steps_compose_exactly():
    """The exact exponential update is step-size independent."""
    params = ThermalParams(r_thermal=2.0, c_thermal=1.5, q_hvac=-8.0, p_rated=3.0)
    s0 = HouseState(t_in=24.0, hvac_on=True)
    full = step_house(s0, params, t_out=33.0, h=0.5)
    halves = step_house(step_house(s0, params, 33.0, 0.25), params, 33.0, 0.25)
    assert halves.t_in == pytest.approx(full.t_in, rel=1e-12)


def test_step_house_fixed_point_is_exact():
    # starting at T_eq the update is T_eq + 0*decay, bitwise unchanged
    assert step_house(HouseState(30.0, False), COOL, t_out=30.0, h=0.3).t_in == 30.0
    # on: T_eq = 32 + (-12)(2) = 8
    assert step_house(HouseState(8.0, True), COOL, t_out=32.0, h=0.3).t_in == 8.0


def test_step_house_long_step_reaches_equilibrium():
    out = step_house(HouseState(22.0, True), COOL, t_out=32.0, h=1e6)
    assert out.t_in == pytest.approx(8.0, abs=1e-9)


def test_step_house_rejects_bad_inputs():
    with pytest.raises(ValueError):
        step_house(HouseState(22.0, False), COOL, t_out=30.0, h=0.0)
    with pytest.raises(ValueError):
        step_house(HouseState(22.0, False), COOL, t_out=30.0, h=-1.0)
    with pytest.raises(ValueError):
        step_house(HouseState(float("nan"), False), COOL, t_out=30.0, h=1.0)
    with pytest.raises(ValueError):
        step_house(HouseState(22.0, False), COOL, t_out=float("inf"), h=1.0)


def test_param_and_config_validation():
    with pytest.raises(ValueError):
        ThermalParams(r_thermal=0.0, c_thermal=2.0, q_hvac=-12.0, p_rated=4.0)
    with pytest.raises(ValueError):
        ThermalParams(r_thermal=2.0, c_thermal=-1.0, q_hvac=-12.0, p_rated=4.0)
    with pytest.raises(ValueError):
        ThermalParams(r_thermal=2.0, c_thermal=2.0, q_hvac=-12.0, p_rated=0.0)
    with pytest.raises(ValueError):
        ThermostatConfig("bimetal", "cooling", 22.0, 1.0, 20.0, 24.0, 22.0)
    with pytest.raises(ValueError):
        ThermostatConfig("hysteresis", "venting", 22.0, 1.0, 20.0, 24.0, 22.0)
    with pytest.raises(ValueError):
        # hysteresis needs a real deadband
        ThermostatConfig("hysteresis", "cooling", 22.0, 0.0, 20.0, 24.0, 22.0)
    with pytest.raises(ValueError):
        # comfort range must bracket the desired temperature
        ThermostatConfig("hysteresis", "cooling", 22.0, 1.0, 23.0, 24.0, 22.0)


# ----------------------------------------------------------------------
# thermostat decisions
# ----------------------------------------------------------------------


def test_hysteresis_cooling_switching():
    assert hysteresis_decide(22.5, COOL_CFG, prior_on=False) is True  # at upper edge
    assert hysteresis_decide(22.4999, COOL_CFG, prior_on=False) is False
    assert hysteresis_decide(21.5, COOL_CFG, prior_on=True) is False  # at lower edge
    assert hysteresis_decide(21.6, COOL_CFG, prior_on=True) is True  # holds inside band
    assert hysteresis_decide(22.0, COOL_CFG, prior_on=False) is False


def test_hysteresis_heating_mirrors_cooling():
    assert hysteresis_decide(19.5, HEAT_CFG, prior_on=False) is True
    assert hysteresis_decide(20.5, HEAT_CFG, prior_on=True) is False
    assert hysteresis_decide(20.0, HEAT_CFG, prior_on=False) is False
    assert hysteresis_decide(20.0, HEAT_CFG, prior_on=True) is True


def test_boundary_thermostat_only_acts_at_boundaries():
    cfg = ThermostatConfig("zero_deadband", "cooling", 22.0, 0.0, 20.0, 24.0, 22.0)
    # far outside any band, but between boundaries the relay holds
    assert boundary_decide(30.0, cfg, prior_on=False, at_market_boundary=False) is False
    assert boundary_decide(10.0, cfg, prior_on=True, at_market_boundary=False) is True
    # at a boundary the comparison is strict: exactly at setpoint means off
    assert boundary_decide(22.0001, cfg, prior_on=False, at_market_boundary=True) is True
    assert boundary_decide(22.0, cfg, prior_on=True, at_market_boundary=True) is False
    assert boundary_decide(21.9, cfg, prior_on=True, at_market_boundary=True) is False
    heat = ThermostatConfig("zero_deadband", "heating", 20.0, 0.0, 18.0, 22.0, 20.0)
    assert boundary_decide(19.9, heat, prior_on=False, at_market_boundary=True) is True
    assert boundary_decide(20.0, heat, prior_on=True, at_market_boundary=True) is False


def test_decide_dispatches_on_kind():
    # hysteresis thermostats do not care about market boundaries
    assert decide(22.5, COOL_CFG, False, at_market_boundary=False) is True
    zd = ThermostatConfig("zero_deadband", "cooling", 22.0, 0.0, 20.0, 24.0, 22.0)
    assert decide(23.0, zd, False, at_market_boundary=False) is False
    assert decide(23.0, zd, False, at_market_boundary=True) is True


# ----------------------------------------------------------------------
# population kernel vs scalar reference
# ----------------------------------------------------------------------


FLEETS = [
    (kind, mode)
    for kind in ("hysteresis", "zero_deadband")
    for mode in ("cooling", "heating")
]


def _random_population(rng, kind, mode, n=40):
    """A fleet of one (kind, mode) with per-house setpoints off t_desired."""
    heating = mode == "heating"
    sp = 20.0 if heating else 22.0
    cfg = ThermostatConfig(
        kind=kind,
        mode=mode,
        setpoint=sp,
        deadband=rng.uniform(0.5, 2.0),
        t_min=sp - 2.0,
        t_max=sp + 2.0,
        t_desired=sp,
    )
    params, states, ks = [], [], []
    for i in range(n):
        q = rng.uniform(4.0, 14.0) * (1.0 if heating else -1.0)
        params.append(
            ThermalParams(
                r_thermal=rng.uniform(1.5, 3.0),
                c_thermal=rng.uniform(1.0, 2.5),
                q_hvac=q,
                p_rated=rng.uniform(3.0, 5.0),
            )
        )
        states.append(HouseState(t_in=rng.uniform(15.0, 28.0), hvac_on=bool(rng.integers(2))))
        ks.append(1.0)
    pop = Population(params, cfg, states, ks)
    # as price response leaves them, setpoints differ from house to house
    pop.setpoint[:] = sp + rng.uniform(-0.5, 0.5, n)
    return pop, params


def _house_cfg(pop, i):
    """The scalar oracles' view of house i: the fleet rule at its setpoint."""
    return dataclasses.replace(pop.cfg, setpoint=float(pop.setpoint[i]))


def test_population_tick_matches_scalar_reference_bitwise():
    """The array kernel must reproduce decide() + step_house() exactly.

    Every (kind, mode) fleet runs. Sequential ticks let any divergence
    compound; market boundaries come every 5th tick, the tick length
    changes midway (the cached per-house decay must follow it), and
    some houses start exactly on a switching edge, where >= and > differ.
    """
    for kind, mode in FLEETS:
        rng = np.random.default_rng(7)
        pop, params = _random_population(rng, kind, mode)
        _check_tick_against_scalar_reference(pop, params, 18.0 if mode == "heating" else 26.0)
        empty = Population([], pop.cfg, [], [])
        empty.tick(20.0, 0.1, at_market_boundary=True)
        assert empty.aggregate_power() == 0.0


def _check_tick_against_scalar_reference(pop, params, t_out):
    pop.latched[3] = 1
    pop.latched[11] = 1
    half = pop.cfg.deadband / 2.0
    for i in range(0, 12, 4):
        pop.t_in[i] = pop.setpoint[i] + half
        pop.t_in[i + 1] = pop.setpoint[i + 1]
        pop.t_in[i + 2] = pop.setpoint[i + 2] - half
    for k in range(60):
        at_boundary = k % 5 == 0
        h = 1.0 / 30.0 if k < 30 else 1.0 / 60.0
        expect_t = np.empty(len(pop))
        expect_on = np.empty(len(pop), dtype=np.uint8)
        expect_power = 0.0
        for i in range(len(pop)):
            t = float(pop.t_in[i])
            if pop.latched[i]:
                on = False
            else:
                on = decide(t, _house_cfg(pop, i), bool(pop.hvac_on[i]), at_boundary)
            nxt = step_house(HouseState(t, on), params[i], t_out, h)
            expect_t[i] = nxt.t_in
            expect_on[i] = 1 if on else 0
            if on:
                expect_power += float(pop.p_rated[i])
        pop.tick(t_out, h, at_market_boundary=at_boundary)
        assert np.array_equal(pop.t_in, expect_t)
        assert np.array_equal(pop.hvac_on, expect_on)
        assert pop.aggregate_power() == expect_power
    # the fleet is split between on and off at the end
    assert 0 < expect_on.sum() < len(pop)


def test_population_validation_and_guards():
    with pytest.raises(ValueError):
        Population([COOL], COOL_CFG, [], [1.0])
    pop = Population([COOL], COOL_CFG, [HouseState(23.0, False)], [1.0])
    with pytest.raises(ValueError):
        pop.tick(30.0, 0.0, at_market_boundary=True)
    with pytest.raises(ValueError):
        pop.tick(float("nan"), 0.1, at_market_boundary=True)


def test_from_arrays_checks_every_house_as_thermal_params_does():
    cols = dict(r_thermal=[2.0, 2.0], c_thermal=[2.0, 2.0], q_hvac=[-12.0, -12.0], p_rated=[4.0, 4.0],
                comfort_k=[1.0, 1.0], t_in=[22.0, 23.0], hvac_on=[True, False])
    pop = Population.from_arrays(COOL_CFG, **cols)
    rows = Population([COOL, COOL], COOL_CFG, [HouseState(22.0, True), HouseState(23.0, False)], [1.0, 1.0])
    for name in Population._ARRAYS:
        assert getattr(pop, name).dtype == getattr(rows, name).dtype, name
        assert getattr(pop, name).tolist() == getattr(rows, name).tolist(), name
    for name, bad in (("r_thermal", [2.0, 0.0]), ("c_thermal", [-1.0, 2.0]), ("p_rated", [4.0, float("nan")]),
                      ("t_in", [22.0]), ("hvac_on", [True, False, True])):
        with pytest.raises(ValueError):
            Population.from_arrays(COOL_CFG, **{**cols, name: bad})


def test_latch_forces_hvac_off_and_excludes_power():
    states = [HouseState(25.0, True), HouseState(25.0, True)]
    pop = Population([COOL, COOL], COOL_CFG, states, [1.0, 1.0])
    pop.latched[:] = 1
    pop.tick(32.0, 1.0 / 60.0, at_market_boundary=True)
    assert pop.aggregate_power() == 0.0
    assert not pop.hvac_on.any()
    # physics followed the off trajectory
    expect = step_house(HouseState(25.0, False), COOL, 32.0, 1.0 / 60.0).t_in
    assert pop.t_in[0] == expect
    # releasing the latch lets the thermostat switch back on
    pop.latched[:] = 0
    pop.tick(32.0, 1.0 / 60.0, at_market_boundary=True)
    assert pop.aggregate_power() == 8.0
    assert pop.hvac_on.all()


def test_zero_deadband_population_holds_between_boundaries():
    cfg = ThermostatConfig("zero_deadband", "cooling", 22.0, 0.0, 20.0, 24.0, 22.0)
    pop = Population([COOL], cfg, [HouseState(21.9, False)], [1.0])
    # temperature drifts up past the setpoint with no boundary: holds off
    for _ in range(120):
        pop.tick(32.0, 1.0 / 120.0, at_market_boundary=False)
    assert pop.t_in[0] > 22.0
    assert pop.hvac_on[0] == 0
    # the next market boundary finally switches it
    pop.tick(32.0, 1.0 / 120.0, at_market_boundary=True)
    assert pop.hvac_on[0] == 1


def test_aggregate_power_both_forms():
    assert aggregate_power([], []) == 0.0
    params = [
        ThermalParams(2.0, 2.0, -12.0, 4.0),
        ThermalParams(2.0, 2.0, -12.0, 3.5),
        ThermalParams(2.0, 2.0, -12.0, 5.0),
    ]
    states = [HouseState(22.0, True), HouseState(22.0, False), HouseState(22.0, True)]
    assert aggregate_power(states, params) == 9.0
    pop = Population(params, COOL_CFG, states, [1.0] * 3)
    assert pop.aggregate_power() == 9.0


# ----------------------------------------------------------------------
# cycle phase and diversity
# ----------------------------------------------------------------------


def test_cycle_phase_duty_fraction_at_handover():
    # cooling at t_out 32: tau_on = 4*ln(14.5/13.5), tau_off = 4*ln(10.5/9.5);
    # duty = tau_on/(tau_on+tau_off) = 0.41656730110504137 precomputed.
    # The on run ends at the bottom of the band, so that state's phase is
    # exactly the duty fraction.
    duty = cycle_phase(HouseState(21.5, True), COOL, COOL_CFG, t_out=32.0)
    assert duty == pytest.approx(0.41656730110504137, rel=1e-12)
    assert steady_duty(COOL, COOL_CFG, 32.0) == pytest.approx(0.41656730110504137, rel=1e-12)
    # heating at t_out 0: duty = 0.8340315418240445 precomputed, on run
    # ends at the top of the band
    duty_h = cycle_phase(HouseState(20.5, True), HEAT, HEAT_CFG, t_out=0.0)
    assert duty_h == pytest.approx(0.8340315418240445, rel=1e-12)
    assert steady_duty(HEAT, HEAT_CFG, 0.0) == pytest.approx(0.8340315418240445, rel=1e-12)
    # no cycle: idle when ambient never drives the house past the band
    # edge that starts the unit, always on when the unit cannot reach
    # the edge that stops it
    assert steady_duty(COOL, COOL_CFG, 22.5) == 0.0
    assert steady_duty(HEAT, HEAT_CFG, 19.5) == 0.0
    weak_cool = ThermalParams(r_thermal=2.0, c_thermal=2.0, q_hvac=-1.0, p_rated=1.0)
    weak_heat = ThermalParams(r_thermal=2.0, c_thermal=2.0, q_hvac=1.0, p_rated=1.0)
    assert steady_duty(weak_cool, COOL_CFG, 32.0) == 1.0
    assert steady_duty(weak_heat, HEAT_CFG, 0.0) == 1.0


def test_cycle_phase_anchors():
    # top of band with the compressor just started: phase 0
    assert cycle_phase(HouseState(22.5, True), COOL, COOL_CFG, 32.0) == 0.0
    # out-of-band temperatures clamp to the nearest edge
    assert cycle_phase(HouseState(25.0, True), COOL, COOL_CFG, 32.0) == 0.0
    # just released at the bottom: start of the off run
    duty = cycle_phase(HouseState(21.5, True), COOL, COOL_CFG, 32.0)
    assert cycle_phase(HouseState(21.5, False), COOL, COOL_CFG, 32.0) == pytest.approx(duty)


def test_cycle_phase_degenerate_operating_points():
    # mild ambient: the off trajectory never reaches the top of the band
    assert cycle_phase(HouseState(22.0, False), COOL, COOL_CFG, t_out=20.0) == 0.0
    # undersized equipment: the on trajectory cannot reach the bottom
    weak = ThermalParams(r_thermal=2.0, c_thermal=2.0, q_hvac=-1.0, p_rated=1.0)
    assert cycle_phase(HouseState(22.0, True), weak, COOL_CFG, t_out=32.0) == 0.0
    # the inverse degrades to mid-band off rather than inventing a cycle
    s = state_from_phase(0.7, weak, COOL_CFG, t_out=32.0)
    assert s == HouseState(t_in=22.0, hvac_on=False)


def test_phase_round_trip_cooling_and_heating():
    for params, cfg, t_out, lo, hi in (
        (COOL, COOL_CFG, 32.0, 21.5, 22.5),
        (HEAT, HEAT_CFG, 0.0, 19.5, 20.5),
    ):
        for t in np.linspace(lo + 0.01, hi - 0.01, 7):
            for on in (True, False):
                phase = cycle_phase(HouseState(float(t), on), params, cfg, t_out)
                back = state_from_phase(phase, params, cfg, t_out)
                assert back.hvac_on == on
                assert back.t_in == pytest.approx(float(t), abs=1e-9)


def test_state_from_phase_wraps():
    a = state_from_phase(0.25, COOL, COOL_CFG, 32.0)
    b = state_from_phase(1.25, COOL, COOL_CFG, 32.0)
    assert a == b


@pytest.mark.byte_pin
def test_states_from_phases_match_state_from_phase_bitwise():
    """states_from_phases synthesizes the states state_from_phase does.

    Every (kind, mode) fleet runs with r, c and q spread. Each house takes
    phase 0.0, one ulp below its duty, exactly its duty and one ulp below
    1.0 (and two phases that wrap); the ambients leave every unit idle,
    let every unit cycle, and leave the weaker units unable to reach the
    band.
    """
    below = np.nextafter(1.0, 0.0)
    for kind, mode in FLEETS:
        rng = np.random.default_rng(11)
        pop, params = _random_population(rng, kind, mode, n=60)
        cfg = pop.cfg
        cooling, lo, hi = _cycle_band(cfg)
        ambients = (15.0, 23.0, 35.0, 45.0)
        if mode == "heating":
            ambients = tuple(42.0 - t for t in ambients)
        cycling_counts = []
        for t_out in ambients:
            duties = []
            for p in params:
                cycle = _cycle(p.r_thermal, p.q_hvac, cooling, lo, hi, t_out)
                if cycle is None:
                    duties.append(0.5)
                    continue
                rc = p.r_thermal * p.c_thermal
                tau_on, tau_off = rc * cycle[3], rc * cycle[4]
                duties.append(tau_on / (tau_on + tau_off))
            cycling_counts.append(sum(0.0 < steady_duty(p, cfg, t_out) < 1.0 for p in params))
            for phase in ([0.0] * 60, np.nextafter(duties, 0.0), duties, [below] * 60, [1.0] * 60, [-0.25] * 60):
                phase = np.asarray(phase, dtype=np.float64)
                t_in, hvac_on = states_from_phases(phase, pop.r_thermal, pop.c_thermal, pop.q_hvac, cfg, t_out)
                want = [state_from_phase(float(x), p, cfg, t_out) for x, p in zip(phase, params)]
                assert t_in.view(np.uint64).tolist() == np.array([s.t_in for s in want]).view(np.uint64).tolist()
                assert hvac_on.tolist() == [s.hvac_on for s in want]
        # mild: every unit idles; then all cycle; then the weaker units run flat out
        assert cycling_counts[:2] == [0, 60]
        assert all(0 < c < 60 for c in cycling_counts[2:])


def test_measured_cycle_matches_predicted_period_and_duty():
    """Free-running simulation reproduces the analytic cycle timing.

    Period tau_on + tau_off = 0.68616969015651 h precomputed for the
    standard cooling house at t_out 32. Switching is quantised to the
    step size, so the tolerance is a few steps wide.
    """
    h = 5e-4
    state = HouseState(t_in=22.5, hvac_on=True)
    on_edges = []
    on_trace = []
    prior = state.hvac_on
    for k in range(int(20.0 / h)):
        on = hysteresis_decide(state.t_in, COOL_CFG, prior)
        state = step_house(HouseState(state.t_in, on), COOL, 32.0, h)
        if on and not prior:
            on_edges.append(k)
        prior = on
        on_trace.append(on)
    assert len(on_edges) >= 10
    periods = np.diff(on_edges) * h
    # quantisation only ever lengthens the cycle (every crossing
    # overshoots the threshold before the relay flips), so the measured
    # mean sits a step or two above the analytic value
    assert periods.mean() == pytest.approx(0.68616969015651, abs=4 * h)
    assert periods.mean() >= 0.68616969015651
    # duty measured over whole cycles only, to avoid partial-cycle bias
    whole = on_trace[on_edges[0] : on_edges[-1]]
    assert sum(whole) / len(whole) == pytest.approx(0.41656730110504137, abs=2e-3)


def test_diversity_from_phases():
    # synchronized fleet: zero diversity
    assert diversity_from_phases([0.3] * 5) == pytest.approx(0.0, abs=1e-12)
    # two houses half a cycle apart cancel completely
    assert diversity_from_phases([0.0, 0.5]) == pytest.approx(1.0, abs=1e-12)
    # uniform spread comes close to full diversity
    assert diversity_from_phases(np.arange(200) / 200.0) > 0.99
    with pytest.raises(ValueError):
        diversity_from_phases([])


def test_diversity_metric_matches_per_house_cycle_phase_bitwise():
    """cycle_phases reads the same phases as the scalar cycle_phase.

    Every (kind, mode) fleet runs, with setpoints off t_desired;
    temperatures sit on band edges and outside the band, and some
    ambients leave part of the fleet, or all of it, unable to cycle.
    """
    for kind, mode in FLEETS:
        rng = np.random.default_rng(11)
        pop, params = _random_population(rng, kind, mode, n=60)
        # heating ambients mirror the cooling ones around 21 degC
        ambients = (15.0, 23.0, 35.0, 45.0)
        if mode == "heating":
            ambients = tuple(42.0 - t for t in ambients)
        _check_diversity_against_cycle_phase(pop, params, ambients)


def _check_diversity_against_cycle_phase(pop, params, ambients):
    # the hysteresis band follows each setpoint; the zero-deadband one is
    # t_desired +- 0.5 for every house
    half = pop.cfg.deadband / 2.0
    pop.t_in[0::6] = pop.setpoint[0::6] + half
    pop.t_in[2::6] = pop.setpoint[2::6] - half
    pop.t_in[3::6] = pop.cfg.t_desired + 0.5
    pop.t_in[5::6] = pop.cfg.t_desired - 0.5
    n = len(pop)
    cycling_counts = []
    for t_out in ambients:
        phases = [
            cycle_phase(
                HouseState(float(pop.t_in[i]), bool(pop.hvac_on[i])),
                params[i], _house_cfg(pop, i), t_out,
            )
            for i in range(n)
        ]
        fleet = cycle_phases(pop, t_out)
        assert fleet.view(np.uint64).tolist() == np.array(phases).view(np.uint64).tolist()
        assert diversity_metric(pop, t_out) == diversity_from_phases(phases)
        cycling_counts.append(sum(
            0.0 < steady_duty(params[i], _house_cfg(pop, i), t_out) < 1.0 for i in range(n)
        ))
    # mild: every unit idles; then all cycle; then the weaker units run flat out
    assert cycling_counts[:2] == [0, n]
    assert all(0 < c < n for c in cycling_counts[2:])


def test_feeder_diversity_from_the_area_pass_matches_each_feeder_alone():
    """An area fleet split into feeder runs, one house and none included.

    Each run's diversity from the one area pass equals diversity_metric
    of that feeder built as its own Population, bit for bit, and a run
    from houses() reads and writes the area's arrays.
    """
    bounds = [(0, 17), (17, 18), (18, 18), (18, 50)]
    for kind, mode in FLEETS:
        rng = np.random.default_rng(5)
        area, params = _random_population(rng, kind, mode, n=50)
        feeders = []
        for lo, hi in bounds:
            states = [HouseState(float(area.t_in[i]), bool(area.hvac_on[i])) for i in range(lo, hi)]
            own = Population(params[lo:hi], area.cfg, states, [1.0] * (hi - lo))
            own.setpoint[:] = area.setpoint[lo:hi]
            feeders.append(own)
        ambients = (35.0, 45.0) if mode == "cooling" else (7.0, -3.0)
        for t_out in ambients:
            got = diversity_metric(area, t_out, [b for b in bounds if b[1] > b[0]])
            want = [diversity_metric(own, t_out) for own in feeders if len(own)]
            assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
        part = area.houses(18, 50)
        assert len(part) == 32
        for name in Population._ARRAYS:
            assert np.shares_memory(getattr(part, name), getattr(area, name)), name
        part.latched[0] = 1
        assert area.latched[18] == 1


def test_diversity_metric_on_synchronized_population():
    states = [HouseState(22.5, True)] * 6
    pop = Population([COOL] * 6, COOL_CFG, states, [1.0] * 6)
    assert diversity_metric(pop, 32.0) == pytest.approx(0.0, abs=1e-12)


def test_curtailment_window_drops_load_then_rebounds():
    n = 24
    params = [COOL] * n
    # seed the fleet spread evenly around the cycle
    states = [state_from_phase(i / n, COOL, COOL_CFG, 32.0) for i in range(n)]
    pop = Population(params, COOL_CFG, states, [1.0] * n)
    out = curtailment_experiment(
        pop, t_out=32.0, span_h=6.0, tick_h=1.0 / 60.0, off_start_h=2.0, off_end_h=3.0
    )
    mins = np.arange(len(out["power_kw"])) / 60.0
    window = (mins >= 2.0) & (mins < 3.0)
    assert out["power_kw"][window].max() == 0.0
    assert out["power_kw"][window.argmax() - 1] > 0.0  # load present before
    # every house is hot at release, so the first post-window tick slams on
    release = int(3.0 * 60)
    assert out["power_kw"][release] == pytest.approx(4.0 * n)
    assert out["mean_t_in"].max() > 23.0  # drifted well above the band
    assert not pop.latched.any()  # experiment releases the latch
