"""Acceptance gate: twelve headline guarantees, one test and one verdict line each.

Each test prints "criterion NN: PASS|FAIL - label" (visible with -s or on
failure) and enforces the stated tolerance and, where one applies, the
runtime budget. The unit suites carry the fine-grained diagnostics; this
module is the single place that says whether the package does what it
advertises.
"""

import json
import time
from datetime import datetime

import numpy as np
import pytest

from conftest import SCENARIO_DIR, artifact_files
from hand_curves import hand_curve
from oracle_clearing import fills_by_id, oracle_clear, random_book
from tgsim.auction import SIDE_BUY, SIDE_SELL, clear_and_allocate
from tgsim.bidding import PriceStats, setpoint_from_price, thermostat_bid
from tgsim.config import load_config
from tgsim.frequency import (
    SwingParams,
    integrate_to_steady_state,
    nerc_ace,
    steady_state_deviation,
    ufls_check,
)
from tgsim.spectral import Series, convolve_direct, convolve_fft, emissions_reduction
from tgsim.thermal import (
    Population,
    ThermalParams,
    ThermostatConfig,
    curtailment_experiment,
    state_from_phase,
)

T0 = datetime(2026, 7, 1)


def verdict(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num}: {label}"


def test_c01_control_error_formula():
    # hand case: interchange surplus 5 MW, bias -10 MW/0.1Hz, +0.01 Hz
    ok = nerc_ace(5.0, 0.0, -10.0, 0.01, 0.0) == 6.0

    def reference(pa, ps, bias, fa, fs, em):
        # written term by term rather than inline; same reporting form
        interchange = pa - ps
        frequency = 10.0 * bias * (fa - fs)
        return interchange - frequency - em

    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        pa, ps = rng.uniform(-500.0, 500.0, 2)
        bias = -rng.uniform(1.0, 50.0)
        fa, fs = rng.uniform(59.8, 60.2, 2)
        em = rng.uniform(-5.0, 5.0)
        ok = ok and nerc_ace(pa, ps, bias, fa, fs, em) == reference(pa, ps, bias, fa, fs, em)
    ok = ok and (time.perf_counter() - t0) < 1.0
    verdict(1, "control error matches hand case and reference bit-for-bit", ok)


def test_c02_swing_fixed_point():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    ok = True
    for _ in range(20):
        params = SwingParams(
            m_hz_per_s_mw=rng.uniform(1e-3, 1e-2), d_per_s=-rng.uniform(0.05, 0.45)
        )
        h_s = rng.uniform(0.5, 2.0)  # h * |D| stays below 0.9
        dp = rng.uniform(-5.0, 5.0)
        settled = integrate_to_steady_state(dp, params, h_s)
        ok = ok and abs(settled - steady_state_deviation(dp, params)) < 1e-6
    ok = ok and (time.perf_counter() - t0) < 5.0
    verdict(2, "simulated steady state equals -M*dP/D within 1e-6 Hz", ok)


def test_c03_clearing_matches_the_reference_on_random_books():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    ok = True
    for k in range(10_000):
        raw_buys, raw_sells = random_book(rng, k)
        demand = hand_curve(SIDE_BUY, [(p, q, i) for i, p, q in raw_buys])
        supply = hand_curve(SIDE_SELL, [(p, q, i) for i, p, q in raw_sells])
        got = clear_and_allocate(demand, supply)
        price, qty, buy_fills, sell_fills = oracle_clear(raw_buys, raw_sells)
        ok = ok and (
            got.price == price
            and got.quantity == qty
            and fills_by_id(demand, got.buy_fills) == buy_fills
            and fills_by_id(supply, got.sell_fills) == sell_fills
        )
    ok = ok and (time.perf_counter() - t0) < 30.0
    verdict(3, "10,000 random books clear identically to the unit-expansion reference", ok)


def test_c04_direct_and_fft_convolution_agree():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(1000):
        nv = int(rng.integers(1, 33))
        nl = int(rng.integers(2, 65))
        v = Series(T0, 900.0, rng.normal(0.0, 10.0, nv))
        load = Series(T0, 900.0, rng.normal(0.0, 50.0, nl))
        direct = convolve_direct(v, load).values
        viafft = convolve_fft(v, load).values
        rel = np.max(np.abs(direct - viafft)) / max(1.0, np.max(np.abs(direct)))
        ok = ok and rel < 1e-9
    # unit impulse: output is the input scaled by the period in hours
    load = Series(T0, 900.0, np.array([3.0, -1.0, 4.0, 1.5, 0.0, 9.0]))
    impulse = Series(T0, 900.0, np.array([1.0]))
    ok = ok and np.array_equal(convolve_direct(impulse, load).values, load.values * 0.25)
    ok = ok and (time.perf_counter() - t0) < 10.0
    verdict(4, "direct and FFT convolutions agree within 1e-9 relative", ok)


def test_c05_emissions_lookup():
    # displacement fractions by wind penetration, restated here from the
    # published table rather than read from the module under test
    species = ("co2", "n2o", "ch4", "co", "nox", "sox", "pm")
    table = {
        0.00: (0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00),
        0.10: (0.12, 0.09, 0.12, 0.10, 0.13, 0.08, 0.11),
        0.20: (0.21, 0.11, 0.17, 0.15, 0.22, 0.17, 0.22),
        0.30: (0.28, 0.10, 0.21, 0.19, 0.29, 0.24, 0.32),
        0.40: (0.33, 0.04, 0.23, 0.20, 0.34, 0.30, 0.40),
    }
    ok = all(
        emissions_reduction(w, sp) == row[k]
        for w, row in table.items()
        for k, sp in enumerate(species)
    )
    ok = ok and emissions_reduction(0.10, "nox") == 0.13
    midpoints = [
        (0.15, "co2", 0.165),  # halfway between 0.12 and 0.21
        (0.25, "n2o", 0.105),  # n2o is non-monotone; 0.11 down to 0.10
        (0.35, "pm", 0.36),
        (0.05, "nox", 0.065),
    ]
    for w, sp, want in midpoints:
        ok = ok and abs(emissions_reduction(w, sp) - want) < 1e-12
    verdict(5, "emissions lookup hits every grid point and hand midpoint", ok)


def test_c06_bid_setpoint_round_trip():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(1000):
        t_min = rng.uniform(15.0, 20.0)
        t_desired = t_min + rng.uniform(0.5, 3.0)
        t_max = t_desired + rng.uniform(0.5, 3.0)
        mode = "cooling" if rng.random() < 0.5 else "heating"
        cfg = ThermostatConfig(
            kind="hysteresis", mode=mode, setpoint=t_desired, deadband=0.5,
            t_min=t_min, t_max=t_max, t_desired=t_desired,
        )
        comfort_k = rng.uniform(0.1, 5.0)
        stats = PriceStats(window=12, prior_mean=rng.uniform(10.0, 100.0),
                           prior_sigma=rng.uniform(0.5, 20.0))
        # strictly inside the band keeps the bid on the unclamped line
        t_measured = rng.uniform(t_min + 1e-3, t_max - 1e-3)
        order = thermostat_bid("dev", t_measured, cfg, comfort_k, stats,
                               p_rated=4.0, price_floor=-1e9, price_cap=1e9)
        back = setpoint_from_price(order.price, cfg, comfort_k, stats)
        ok = ok and abs(back - t_measured) < 1e-9
    verdict(6, "bid to setpoint inverts on the unclamped segment within 1e-9", ok)


def test_c07_curtailment_conserves_daily_energy():
    rng = np.random.default_rng(2027)
    n = 200
    cfg = ThermostatConfig(
        kind="hysteresis", mode="cooling", setpoint=22.0, deadband=1.0,
        t_min=20.0, t_max=24.0, t_desired=22.0,
    )
    # 0.9..1.25 spread keeps every house able to cool below its band at
    # 32 C outdoors while giving the periods enough scatter to re-diversify
    factors = rng.uniform(0.9, 1.25, size=(4, n))
    params = [
        ThermalParams(2.0 * factors[0, i], 2.0 * factors[1, i],
                      -12.0 * factors[2, i], 4.0 * factors[3, i])
        for i in range(n)
    ]
    phases = rng.uniform(0.0, 1.0, n)
    states = [state_from_phase(phases[i], params[i], cfg, 32.0) for i in range(n)]

    t0 = time.perf_counter()
    curtailed_pop = Population(params, cfg, states, [1.0] * n)
    curtailed = curtailment_experiment(
        curtailed_pop, 32.0, span_h=24.0, tick_h=1 / 60, off_start_h=10.0, off_end_h=12.0
    )
    baseline_pop = Population(params, cfg, states, [1.0] * n)
    baseline = curtailment_experiment(baseline_pop, 32.0, span_h=24.0, tick_h=1 / 60)
    elapsed = time.perf_counter() - t0

    tick_h = 1 / 60
    hours = np.arange(len(curtailed["power_kw"])) * tick_h
    e_curtailed = curtailed["power_kw"].sum() * tick_h
    e_baseline = baseline["power_kw"].sum() * tick_h
    pre_mean = curtailed["power_kw"][(hours >= 6.0) & (hours < 10.0)].mean()
    rebound_peak = curtailed["power_kw"][hours >= 12.0].max()

    ok = abs(e_curtailed - e_baseline) / e_baseline < 0.05
    ok = ok and curtailed["power_kw"][(hours >= 10.0) & (hours < 12.0)].max() == 0.0
    ok = ok and rebound_peak > pre_mean
    ok = ok and curtailed["diversity"][-1] > 0.8
    ok = ok and elapsed < 60.0
    verdict(7, "2h curtailment shifts energy without losing it and diversity recovers", ok)


def test_c08_shedding_probability_and_reproducibility():
    armed = [f"dev{i:04d}" for i in range(1000)]
    # certain shedding: one balancing tick takes out every armed device
    all_shed = ufls_check(59.90, 59.95, 1.0, armed, np.random.default_rng(1))
    ok = sorted(all_shed) == sorted(armed)
    # coin-flip shedding: plausible binomial count, and the same seed
    # reproduces the exact set
    first = ufls_check(59.90, 59.95, 0.5, armed, np.random.default_rng(2024))
    again = ufls_check(59.90, 59.95, 0.5, armed, np.random.default_rng(2024))
    ok = ok and 450 <= len(first) <= 550
    ok = ok and first == again
    ok = ok and ufls_check(59.96, 59.95, 1.0, armed, np.random.default_rng(1)) == []
    verdict(8, "shedding is total at p=1, binomial and bit-reproducible at p=0.5", ok)


def test_c09_price_oscillation_appears_and_capacity_cures_it(scenario_runs):
    sync_cfg = load_config(SCENARIO_DIR / "scarcity_sync.yaml")
    relaxed_cfg = load_config(SCENARIO_DIR / "scarcity_relaxed.yaml")
    # the cure is exactly a doubling of feeder capacity, nothing else
    ok = relaxed_cfg.feeders[0].capacity_kw == 2.0 * sync_cfg.feeders[0].capacity_kw

    sync, _ = scenario_runs["scarcity_sync"]
    relaxed, _ = scenario_runs["scarcity_relaxed"]
    sync_alt = sync.summary["price_alternations"]["f1"]
    relaxed_alt = relaxed.summary["price_alternations"]["f1"]
    ok = ok and sync_alt >= 3
    ok = ok and relaxed_alt == 0
    verdict(9, f"squeezed feeder alternates {sync_alt}x rail-to-rail, doubled capacity 0x", ok)


def test_c10_cleared_quantity_never_exceeds_supply(scenario_runs):
    ok = True
    max_cleared = {}
    for stem, (run, _) in scenario_runs.items():
        cfg = load_config(SCENARIO_DIR / f"{stem}.yaml")
        caps = {
            f.feeder_id: f.capacity_kw + sum(extra for _, extra in f.scarcity_steps)
            for f in cfg.feeders
        }
        local_sells: dict[tuple, float] = {}
        cleared: dict[tuple, float] = {}
        for line in (run.out_dir / "events.jsonl").read_text().splitlines():
            ev = json.loads(line)
            if ev["type"] == "bid" and ev["side"] == "sell":
                key = (ev["t"], ev["market"])
                local_sells[key] = local_sells.get(key, 0.0) + ev["quantity"]
            elif ev["type"] == "clearing":
                cleared[(ev["t"], ev["market"])] = ev["quantity"]
        for (t, fid), quantity in cleared.items():
            total = caps[fid] + local_sells.get((t, fid), 0.0)
            ok = ok and quantity <= total + 1e-9
            max_cleared[stem] = max(max_cleared.get(stem, 0.0), quantity)
    # the squeezed feeder saturates its whole supply; doubling the capacity
    # lets the same demand clear beyond that constrained total
    ok = ok and max_cleared["scarcity_sync"] == 250.0
    ok = ok and max_cleared["scarcity_relaxed"] > 250.0
    verdict(10, "cleared quantity stays within the supply curve and the cap binds", ok)


@pytest.mark.byte_pin
def test_c11_runs_are_byte_identical(scenario_runs):
    ok = True
    for stem, (first, second) in scenario_runs.items():
        a = artifact_files(first)
        b = artifact_files(second)
        ok = ok and set(a) == set(b)
        ok = ok and all(a[name] == b[name] for name in a)
    verdict(11, "every scenario reproduces byte-identical artifacts", ok)


def test_c12_two_settlement_neutrality(scenario_runs):
    run, _ = scenario_runs["two_settlement"]
    rows = (run.out_dir / "settlement.csv").read_text().splitlines()
    header = rows[0].split(",")
    idx = {name: k for k, name in enumerate(header)}
    ok = len(rows) > 1
    for row in rows[1:]:
        cells = row.split(",")
        da = float(cells[idx["da_energy_kwh"]])
        da_price = float(cells[idx["da_price"]])
        dev = float(cells[idx["rt_deviation_kwh"]])
        rt_price = float(cells[idx["rt_price"]])
        rent = float(cells[idx["scarcity_rent"]])
        payment = float(cells[idx["payment"]])
        ok = ok and dev == 0.0
        ok = ok and payment == da * da_price + dev * rt_price + rent
    st = run.summary["settlement"]
    ok = ok and st["scarcity_rent"] == 0.0
    ok = ok and st["residual"] == 0.0
    ok = ok and st["buyer_payments"] == st["seller_receipts"]
    verdict(12, "real-time legs are all zero and the books balance exactly", ok)
