"""End-to-end scenario runs: artifacts, determinism, integration replay."""

import dataclasses
import gc
import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import SCENARIO_DIR, artifact_files, scenario_paths
from tgsim import engine
from tgsim.auction import SIDE_BUY, OrderRanks, StepCurve, _price_spans
from tgsim.bidding import PriceStats, setpoint_from_price
from tgsim.config import ConfigError, load_config, parse_config
from tgsim.engine import SimulationRun, run_scenario
from tgsim.fold import left_sum
from tgsim.spectral import Series, write_series_csv
from tgsim.thermal import (
    Population,
    ThermalParams,
    ThermostatConfig,
    state_from_phase,
    steady_duty,
)


def rows_of(raw: bytes) -> list[dict]:
    lines = raw.decode().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","), strict=True)) for line in lines[1:]]


# ------------------------------------------------------------ null system


def test_null_scenario_is_flat(scenario_runs):
    run, _ = scenario_runs["null"]
    files = artifact_files(run)
    freq = rows_of(files["frequency.csv"])
    assert len(freq) == 3600 // 4
    for row in freq:
        assert row["freq_hz"] == "60.0"
        assert row["delta_f_hz"] == "0.0"
        assert row["ace_raw_mw"] == "0.0"
        assert row["ufls_shed_kw"] == "0.0"
        assert row["time_error_s"] == "0.0"
    load = rows_of(files["load.csv"])
    assert len(load) == 3600 // 60
    assert all(row["load_kw"] == "0.0" for row in load)
    assert "diversity" not in load[0]
    markets = rows_of(files["markets.csv"])
    # one row per feeder plus the area aggregation row, every interval
    assert len(markets) == (3600 // 300) * 2
    assert {row["market_id"] for row in markets} == {"f1", "__area"}
    # nothing bids, so every clearing is a null trade at the floor
    assert all(row["price"] == "0.0" for row in markets)
    assert all(row["quantity_kw"] == "0.0" for row in markets)
    # without houses neither the feeder nor the area has a diversity
    assert all(row["diversity"] == "" for row in markets)
    summary = run.summary
    assert summary["peak_load_kw"] == 0.0
    assert summary["energy_kwh"] == 0.0
    assert summary["price_mean"] == 0.0
    assert summary["ufls_events"] == 0
    assert summary["final_freq_hz"] == 60.0
    assert summary["final_diversity"] == {"f1": None}
    assert summary["settlement"]["residual"] == 0.0


def test_row_cadences_follow_the_configured_ticks(scenario_runs):
    for path in scenario_paths():
        cfg = load_config(path)
        sim = cfg.simulation
        run, _ = scenario_runs[path.stem]
        files = artifact_files(run)
        n_markets = sim.span_s // sim.market_interval_s
        assert len(rows_of(files["frequency.csv"])) == sim.span_s // sim.agc_tick_s
        assert len(rows_of(files["load.csv"])) == sim.span_s // sim.device_tick_s
        assert len(rows_of(files["markets.csv"])) == n_markets * (len(cfg.feeders) + 1)
        settle = rows_of(files["settlement.csv"])
        # two settlement rows per feeder interval, plus any storage rows
        assert len(settle) >= n_markets * len(cfg.feeders) * 2
        if cfg.house_trace:
            n_houses = sum(f.houses for f in cfg.feeders)
            assert len(rows_of(files["houses.csv"])) == (sim.span_s // sim.device_tick_s) * n_houses


def test_manifest_describes_the_run(scenario_runs):
    for path in scenario_paths():
        cfg = load_config(path)
        run, _ = scenario_runs[path.stem]
        m = run.manifest
        assert m["config_sha256"] == cfg.config_hash()
        assert m["seed"] == cfg.seed
        assert m["span_s"] == cfg.simulation.span_s
        assert m["start"] == cfg.simulation.start.isoformat()
        produced = sorted(p.name for p in run.out_dir.iterdir())
        assert sorted(m["files"] + ["manifest.json"]) == produced
        on_disk = json.loads((run.out_dir / "manifest.json").read_text())
        assert on_disk == m


# ---------------------------------------------------------- determinism


def test_double_runs_are_byte_identical(scenario_runs):
    for stem, (first, second) in scenario_runs.items():
        a = artifact_files(first)
        b = artifact_files(second)
        assert set(a) == set(b), stem
        for name in a:
            assert a[name] == b[name], f"{stem}/{name} differs between runs"


def test_multiday_run_keeps_one_day_of_curves_and_is_deterministic(tmp_path, monkeypatch):
    # days 1 and 2 are scheduled from the previous day's availability
    # feedback one hour at a time: an hour's forecasts are made and
    # scheduled before the next hour's, and its spans are released once
    # read. The run keeps the spans of at most one day, and a finished
    # run keeps none.
    calls: list = []
    built: list = []
    real_feedback = engine.availability_feedback
    real_schedule = engine.schedule_hourly
    real_build = engine.build_demand_curve

    def recorded_feedback(spans):
        calls.append(("feedback", spans))
        return real_feedback(spans)

    def recorded_schedule(*args):
        calls.append(("schedule", [by_feeder is None for by_feeder in sim.day_curves]))
        return real_schedule(*args)

    def recorded_build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(engine, "availability_feedback", recorded_feedback)
    monkeypatch.setattr(engine, "schedule_hourly", recorded_schedule)
    monkeypatch.setattr(engine, "build_demand_curve", recorded_build)
    # two feeders of houses whose bids differ in price and count, so
    # spans from the wrong interval or feeder would not match
    base = load_config(SCENARIO_DIR / "two_day.yaml")

    def config(span_s):
        sim = dataclasses.replace(base.simulation, span_s=span_s)
        return dataclasses.replace(base, simulation=sim, house_trace=False)

    files = []
    for name in ("a", "b"):
        calls.clear()
        built.clear()
        sim = SimulationRun(config(3 * 86400), base_dir=SCENARIO_DIR)
        run = sim.run(tmp_path / name)
        hours, n_feeders = sim.hours_per_day, len(sim.feeders)
        # day 0 schedules bootstrap forecasts; then each hour's feedback
        # calls come right before that hour's schedule call, and by then
        # the spans of that hour and the ones before are released
        hour = ["feedback"] * n_feeders + ["schedule"]
        assert [kind for kind, _ in calls] == ["schedule"] * hours + hour * (2 * hours)
        released = [seen for kind, seen in calls if kind == "schedule"]
        assert released[:hours] == [[]] * hours
        for day in (1, 2):
            for h in range(hours):
                assert released[day * hours + h] == [True] * (h + 1) + [False] * (hours - h - 1)
        assert sim.day_curves == []
        # day 2's feedback reads the spans pairs of the curves cleared in
        # each of day 1's intervals; the market phase builds them interval
        # by interval, feeders in sorted order
        fed = [spans for kind, spans in calls if kind == "feedback"][-hours * n_feeders:]
        per_hour = 3600 // 300
        day1 = built[len(built) // 3 : 2 * len(built) // 3]
        for h in range(hours):
            for j in range(n_feeders):
                spans = fed[h * n_feeders + j]
                assert len(spans) == per_hour
                for k, pair in enumerate(spans):
                    want = _price_spans(day1[(h * per_hour + k) * n_feeders + j])
                    assert isinstance(pair, tuple) and len(pair) == 2
                    assert all(a.dtype == np.float64 and a.tobytes() == w.tobytes() for a, w in zip(pair, want))
        files.append(artifact_files(run))
        events = map(json.loads, files[-1]["events.jsonl"].splitlines())
        assert [e["day"] for e in events if e["type"] == "schedule"] == [0, 1, 2]
    assert files[0] == files[1]

    # no later day reads a run of one day or less, so it stores no spans
    for span_s in (3600, 86400):
        calls.clear()
        sim = SimulationRun(config(span_s), base_dir=SCENARIO_DIR)
        sim.run(tmp_path / f"short{span_s}")
        assert sim.day_curves == [] and all(kind == "schedule" for kind, _ in calls)


def test_retained_memory_holds_at_most_one_day_of_curves(tmp_path, monkeypatch):
    # two_day with 24 hourly prices, so the houses' bids spread and day
    # 1's forecasts have many steps. The same runs measure the live bytes
    # a finished run holds over those after construction, the spans held
    # at the day 1 boundary, and the peak that boundary adds while it
    # forecasts and schedules day 1; and run() builds no rank table.
    made = []
    real_init = OrderRanks.__init__

    def counted(self, ids):
        made.append(None)
        real_init(self, ids)

    monkeypatch.setattr(OrderRanks, "__init__", counted)
    base = load_config(SCENARIO_DIR / "two_day.yaml")
    hourly = tuple(20.0 + 1.5 * h for h in range(24))
    retained, peaks, marks = {}, [], []
    for days in (1, 2):
        cfg = dataclasses.replace(
            base, da_price=hourly, simulation=dataclasses.replace(base.simulation, span_s=days * 86400)
        )
        tracemalloc.start()
        try:
            made.clear()
            sim = SimulationRun(cfg, base_dir=SCENARIO_DIR)
            assert made
            start_day = sim._start_day

            def measured(*args):
                marks.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()
                sched = start_day(*args)
                peaks.append(tracemalloc.get_traced_memory()[1] - marks[-1])
                marks.append(tracemalloc.get_traced_memory()[0])
                return sched

            sim._start_day = measured
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            made.clear()
            sim.run(tmp_path / f"{days}d")
            assert made == []
            gc.collect()
            retained[days] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    # marks: the 1-day run's day 0, then the 2-day run's days 0 and 1,
    # each before and after its day start
    store = marks[4] - marks[3]
    assert store > 0
    assert peaks[2] <= 0.15 * store, (peaks, store)
    assert retained[2] <= retained[1] + 0.1 * store, (retained, store)


def test_a_run_parsed_from_text_rejects_an_uncovered_outdoor_series(tmp_path):
    # a run checks the series as load_config does, so one built from
    # parse_config cannot hold the uncovered half day flat
    text = ("schema_version: 1\nsimulation:\n  span_s: 86400\n"
            "feeders:\n  - id: f0\n    capacity_kw: 50.0\ninputs:\n  outdoor_temp_c: temps.csv\n")
    (tmp_path / "scenario.yaml").write_text(text)
    cfg = parse_config(text)
    write_series_csv(Series(cfg.simulation.start, 3600.0, np.full(13, 30.0)), tmp_path / "temps.csv")
    with pytest.raises(ConfigError) as from_file:
        load_config(tmp_path / "scenario.yaml")
    with pytest.raises(ConfigError) as from_text:
        SimulationRun(cfg, base_dir=tmp_path)
    assert from_text.value.problems == from_file.value.problems == [
        "inputs.outdoor_temp_c: series runs 2026-07-15T00:00:00 to 2026-07-15T12:00:00, "
        "the run needs 2026-07-15T00:00:00 to 2026-07-16T00:00:00"
    ]


def test_bootstrap_forecast_reads_each_scheduling_period_start(tmp_path):
    # with 1800 s periods one day has 48; day 0's forecast of period p
    # reads the outdoor series at p * 1800 s, so no read leaves the span
    base = load_config(SCENARIO_DIR / "single_house.yaml")
    temps = Series(base.simulation.start, 3600.0, 30.0 + np.arange(25) / 4.0)
    write_series_csv(temps, tmp_path / "temps.csv")
    sim_spec = dataclasses.replace(base.simulation, span_s=86400, schedule_interval_s=1800)
    cfg = dataclasses.replace(base, simulation=sim_spec, outdoor_temp_c="temps.csv", house_trace=False)
    sim = SimulationRun(cfg, base_dir=tmp_path)
    reads = []
    t_out = sim.t_out

    def recorded(t_s):
        reads.append(t_s)
        return t_out(t_s)

    sim.t_out = recorded
    sim.run(tmp_path / "run")
    assert sim.hours_per_day == 48
    assert 0 < max(reads) <= cfg.simulation.span_s
    reads.clear()
    sim._bootstrap_forecast(47)
    assert reads == [47 * 1800]


def test_bootstrap_forecast_columns_equal_the_row_built_curves_bitwise():
    base = load_config(SCENARIO_DIR / "baseline_200.yaml")
    # one feeder without base load, so its forecast has the response step only
    feeders = [base.feeders[0], dataclasses.replace(base.feeders[1], base_load_kw=0.0)]
    cfg = dataclasses.replace(base, feeders=feeders, house_trace=False)
    sim = SimulationRun(cfg, base_dir=SCENARIO_DIR)
    pop, mkt = cfg.population, cfg.market
    median = ThermalParams(pop.r_median, pop.c_median, pop.q_hvac, pop.p_rated)
    duty = steady_duty(median, sim.thermostat, sim.t_out(0))
    assert duty > 0

    def bits(price, quantity):
        return [(struct.pack("<d", p), struct.pack("<d", q)) for p, q in zip(price.tolist(), quantity.tolist())]

    got = sim._bootstrap_forecast(0)
    assert list(got) == [f.feeder_id for f in feeders]
    ids, ranks = [], []
    for fspec in feeders:
        fid = fspec.feeder_id
        rows = [(mkt.price_cap, fspec.base_load_kw, f"{fid}_base")] if fspec.base_load_kw else []
        rows.append((mkt.prior_mean, fspec.houses * pop.p_rated * duty, f"{fid}_resp"))
        want = StepCurve(SIDE_BUY, rows)
        assert bits(got[fid].price, got[fid].quantity) == bits(want.price, want.quantity)
        ids += want.ids.tolist()
        ranks += got[fid].rank.tolist()
    # the ranks order every feeder's steps as their ids sort
    assert sorted(range(len(ids)), key=ranks.__getitem__) == sorted(range(len(ids)), key=ids.__getitem__)


def test_an_hour_scheduled_at_the_cap_anchors_the_feeder_at_the_bulk_price(tmp_path, monkeypatch):
    # must-run base load beyond the area's supply schedules hour 0 at the
    # cap; the feeder's wholesale block still sits at the day-ahead bulk
    # price, below its first scarcity step (60.0), so the run goes on
    text = (SCENARIO_DIR / "scarcity_sync.yaml").read_text()
    text = text.replace("area: {}", "area: {bulk_capacity_mw: 0.01}")
    text = text.replace("    capacity_kw: 150.0\n", "    capacity_kw: 150.0\n    base_load_kw: 50.0\n")
    cfg = parse_config(text)
    assert (cfg.area.bulk_capacity_mw, cfg.feeders[0].base_load_kw) == (0.01, 50.0)
    schedules, supplies = [], []
    real_schedule, real_supply = engine.schedule_hourly, engine.build_feeder_supply

    def scheduled(*args):
        schedules.append(real_schedule(*args))
        return schedules[-1]

    def supplied(*args):
        supplies.append(real_supply(*args))
        return supplies[-1]

    monkeypatch.setattr(engine, "schedule_hourly", scheduled)
    monkeypatch.setattr(engine, "build_feeder_supply", supplied)
    SimulationRun(cfg, base_dir=SCENARIO_DIR).run(tmp_path / "run")
    assert schedules[0].price == cfg.market.price_cap
    assert supplies[0].best_price() == 30.0


def test_seed_only_enters_through_the_random_streams(tmp_path, scenario_runs):
    # the null system never draws a random number, so reseeding changes
    # the recorded seed and nothing else
    cfg = load_config(SCENARIO_DIR / "null.yaml")
    reseeded = dataclasses.replace(cfg, seed=cfg.seed + 1)
    run = run_scenario(reseeded, tmp_path / "null_reseeded", base_dir=SCENARIO_DIR)
    base = artifact_files(scenario_runs["null"][0])
    ours = artifact_files(run)
    assert set(base) == set(ours)
    for name in base:
        if name == "manifest.json":
            continue
        assert base[name] == ours[name]
    m_base = json.loads(base["manifest.json"])
    m_ours = json.loads(ours["manifest.json"])
    assert m_ours.pop("seed") == cfg.seed + 1
    assert m_base.pop("seed") == cfg.seed
    assert m_base == m_ours


def test_summaries_match_the_pinned_goldens(scenario_runs):
    golden_dir = SCENARIO_DIR / "golden"
    for stem, (run, _) in scenario_runs.items():
        golden = (golden_dir / f"{stem}.summary.json").read_bytes()
        produced = (run.out_dir / "summary.json").read_bytes()
        assert produced == golden, f"summary drifted for {stem}"


def test_artifacts_match_the_pinned_digests(scenario_runs):
    # the summary goldens do not cover the event log or the CSV ledgers
    pinned = json.loads((SCENARIO_DIR / "golden" / "artifacts.sha256.json").read_text())
    for stem, digests in pinned.items():
        run, _ = scenario_runs[stem]
        for name, digest in digests.items():
            produced = hashlib.sha256((run.out_dir / name).read_bytes()).hexdigest()
            assert produced == digest, f"{stem}/{name} drifted"


# ------------------------------------------------------------- replay


def test_single_house_trace_replays_outside_the_engine(scenario_runs):
    """houses.csv must be reproducible from the public pieces alone.

    Mirrors the engine's per-tick ordering: the market clears and moves
    the setpoint before the device tick, and the price enters the
    rolling statistics only after the setpoint response.
    """
    run, _ = scenario_runs["single_house"]
    files = artifact_files(run)
    prices = {
        int(row["t_s"]): float(row["price"])
        for row in rows_of(files["markets.csv"])
        if row["market_id"] == "f1"
    }
    traced = rows_of(files["houses.csv"])
    assert len(traced) == 7200 // 60

    params = ThermalParams(r_thermal=2.0, c_thermal=2.0, q_hvac=-12.0, p_rated=4.0)
    cfg0 = ThermostatConfig(
        kind="hysteresis", mode="cooling", setpoint=22.0,
        deadband=1.0, t_min=20.0, t_max=24.0, t_desired=22.0,
    )
    state0 = state_from_phase(0.0, params, cfg0, 32.0)
    pop = Population(["f1_h0000"], [params], cfg0, [state0], [1.0])
    stats = PriceStats(window=12, prior_mean=30.0, prior_sigma=10.0)
    market_setpoint = pop.setpoint.copy()

    replayed = []
    for t in range(0, 7200, 60):
        boundary = t % 300 == 0
        if boundary:
            price = prices[t]
            market_setpoint[0] = setpoint_from_price(
                price, cfg0, float(pop.comfort_k[0]), stats
            )
            stats.observe(price)
        np.clip(market_setpoint, cfg0.t_min, cfg0.t_max, out=pop.setpoint)
        pop.tick(32.0, 60 / 3600.0, boundary)
        replayed.append((t, float(pop.t_in[0]), int(pop.hvac_on[0]), float(pop.setpoint[0])))

    for row, (t, t_in, on, sp) in zip(traced, replayed, strict=True):
        assert int(row["t_s"]) == t
        assert row["house_id"] == "f1_h0000"
        assert float(row["t_in_c"]) == t_in
        assert int(row["hvac_on"]) == on
        assert float(row["setpoint_c"]) == sp


# --------------------------------------------------- disturbance runs


def test_gen_loss_sheds_only_below_threshold(scenario_runs):
    run, _ = scenario_runs["gen_loss_ufls"]
    files = artifact_files(run)
    freq_rows = rows_of(files["frequency.csv"])
    shed_rows = [row for row in freq_rows if float(row["ufls_shed_kw"]) > 0]
    assert shed_rows, "the 8 MW loss must trigger shedding"
    assert all(float(row["freq_hz"]) < 59.95 for row in shed_rows)
    # before the event nothing sheds and frequency hugs nominal
    for row in freq_rows:
        if int(row["t_s"]) < 600:
            assert float(row["ufls_shed_kw"]) == 0.0
            assert abs(float(row["delta_f_hz"])) < 0.05
    summary = run.summary
    assert summary["ufls_events"] == len(shed_rows)
    assert summary["ufls_total_kw"] == pytest.approx(
        sum(float(row["ufls_shed_kw"]) for row in shed_rows)
    )
    # sustained loss: arrested well below nominal, clock running slow
    assert summary["final_freq_hz"] < 59.95
    assert summary["time_error_s"] < 0.0


def test_disarmed_relays_never_shed(tmp_path, scenario_runs, monkeypatch):
    cfg = load_config(SCENARIO_DIR / "gen_loss_ufls.yaml")
    disarmed = dataclasses.replace(
        cfg, area=dataclasses.replace(
            cfg.area, ufls=dataclasses.replace(cfg.area.ufls, armed_fraction=0.0)
        )
    )
    calls = []
    ufls_check = engine.ufls_check

    def recorded(*args):
        calls.append(args)
        return ufls_check(*args)

    monkeypatch.setattr(engine, "ufls_check", recorded)
    run = run_scenario(disarmed, tmp_path / "disarmed", base_dir=SCENARIO_DIR)
    assert run.summary["ufls_events"] == 0
    assert run.summary["ufls_total_kw"] == 0.0
    # frequency sits below the threshold, yet with no armed house no draw runs
    assert run.summary["final_freq_hz"] < cfg.area.ufls.threshold_hz
    assert calls == []
    # shedding arrests the decline, so the armed run bottoms out higher
    armed_nadir = min(
        float(r["freq_hz"])
        for r in rows_of(artifact_files(scenario_runs["gen_loss_ufls"][0])["frequency.csv"])
    )
    disarmed_nadir = min(
        float(r["freq_hz"]) for r in rows_of(artifact_files(run)["frequency.csv"])
    )
    assert armed_nadir > disarmed_nadir


# gen_loss_ufls over three feeders in config order f2 (60 houses), f0
# (none) and f1 (100), with a 900 s loss: both fleets shed, then release.
# The events and frequency digests were computed when each feeder held its
# own Population. The load and markets digests were refreshed when the
# diversity column moved from load.csv to markets.csv; every other column
# of both files kept its bytes.
THREE_FEEDER_UFLS_SHA256 = {
    "events.jsonl": "e54afa066742ac6a56430ffd91041347a96f401176621dcfd6f8d2745e87ab61",
    "frequency.csv": "83bcc0cd828e09ccd9635edeaf6e4e1434ce4b1d6999881b2e9c8e0fa2c42001",
    "load.csv": "1b57469376e029f4f73ec9f0aeac1c5318fc2e1b83bc2802b5df9193851ea735",
    "markets.csv": "6f98660a8d450c4128c47be0fddda1124f0df4375580288a22192a8eaa2697e7",
}


def three_feeder_ufls_config():
    cfg = load_config(SCENARIO_DIR / "gen_loss_ufls.yaml")
    f1 = cfg.feeders[0]
    feeders = (
        dataclasses.replace(f1, feeder_id="f2", houses=60, capacity_kw=300.0, base_load_kw=20.0),
        dataclasses.replace(f1, feeder_id="f0", houses=0, capacity_kw=50.0, base_load_kw=10.0),
        f1,
    )
    area = cfg.area
    return dataclasses.replace(
        cfg,
        feeders=feeders,
        simulation=dataclasses.replace(cfg.simulation, span_s=2700),
        area=dataclasses.replace(area, events=(dataclasses.replace(area.events[0], duration_s=900),)),
    )


def test_feeder_runs_of_the_area_fleet_shed_and_release_by_their_own_indices(tmp_path, monkeypatch):
    cfg = three_feeder_ufls_config()
    shed_ids = []
    drawn_over = []
    ufls_check = engine.ufls_check

    def recorded(*args):
        shed = ufls_check(*args)
        # the draw is over house ranks; name them through the run's table
        drawn_over.append({hid.split("_")[0] for hid in sim.ranks.ids[args[3]]})
        shed_ids.extend(sim.ranks.ids[shed])
        return shed

    monkeypatch.setattr(engine, "ufls_check", recorded)
    sim = SimulationRun(cfg, base_dir=SCENARIO_DIR)
    assert len(sim.fleet) == 160
    for fid, (lo, hi) in (("f2", (0, 60)), ("f1", (60, 160))):
        pop = sim.feeders[fid].pop
        assert pop.ids == sim.fleet.ids[lo:hi]
        assert np.shares_memory(pop.latched, sim.fleet.latched)
    run = sim.run(tmp_path / "run")
    assert {hid.split("_")[0] for hid in shed_ids} == {"f1", "f2"}
    # each draw is over one feeder's closed armed relays; f0 has none
    assert drawn_over and all(feeders in ({"f1"}, {"f2"}) for feeders in drawn_over)
    assert not sim.fleet.latched.any()
    events = [json.loads(line) for line in (run.out_dir / "events.jsonl").read_text().splitlines()]
    assert [e["t"] for e in events if e["type"] == "ufls_release"] == [1800]
    for name, digest in THREE_FEEDER_UFLS_SHA256.items():
        assert hashlib.sha256((run.out_dir / name).read_bytes()).hexdigest() == digest, name


def test_closed_relay_counts_stay_exact_and_draws_resume_after_the_release(tmp_path, monkeypatch):
    # a second loss after the release at 1800 s: the released relays close
    # again and drawing resumes over them
    cfg = three_feeder_ufls_config()
    area = cfg.area
    first = area.events[0]
    cfg = dataclasses.replace(cfg, area=dataclasses.replace(
        area, events=(first, dataclasses.replace(first, at_s=2100, duration_s=300))))
    sim = SimulationRun(cfg, base_dir=SCENARIO_DIR)
    block_t0 = []
    candidates = []
    ufls_check = engine.ufls_check

    def recorded(*args):
        candidates.append((block_t0[-1], len(args[3])))
        return ufls_check(*args)

    balancing_block = sim._balancing_block

    def checked(t0, frequency, emit):
        block_t0.append(t0)
        sheds = balancing_block(t0, frequency, emit)
        for fid, fs in sim.feeders.items():
            closed = np.count_nonzero(fs.pop.latched[fs.armed_idx] == 0)
            assert fs.armed_closed == closed, (t0, fid)
        return sheds

    monkeypatch.setattr(engine, "ufls_check", recorded)
    sim._balancing_block = checked
    run = sim.run(tmp_path / "run")
    events = [json.loads(line) for line in (run.out_dir / "events.jsonl").read_text().splitlines()]
    releases = [e["t"] for e in events if e["type"] == "ufls_release"]
    assert releases[0] == 1800
    # no draw over no houses, and draws resume over the re-closed relays
    assert candidates and all(n > 0 for _, n in candidates)
    assert any(t0 >= 2100 for t0, _ in candidates)
    assert any(e["type"] == "ufls" and e["t"] > 1800 for e in events)


def test_diversity_is_sampled_once_per_market_interval_onto_markets_csv(tmp_path, monkeypatch):
    # a warming afternoon, so each clearing reads its own outdoor temperature
    cfg = three_feeder_ufls_config()
    temps = Series(cfg.simulation.start, 3600.0, 32.0 + np.arange(2) / 4.0)
    write_series_csv(temps, tmp_path / "temps.csv")
    cfg = dataclasses.replace(cfg, outdoor_temp_c="temps.csv")
    calls, bid_t_in = [], []
    diversity_metric, fleet_bids = engine.diversity_metric, engine.fleet_bids

    def recorded(pop, t_out, bounds=None):
        divs = diversity_metric(pop, t_out, bounds)
        calls.append((pop, t_out, bounds, pop.t_in.copy(), divs))
        return divs

    def recorded_bids(t_in, *args):
        bid_t_in.append(t_in.copy())
        return fleet_bids(t_in, *args)

    monkeypatch.setattr(engine, "diversity_metric", recorded)
    monkeypatch.setattr(engine, "fleet_bids", recorded_bids)
    sim = SimulationRun(cfg, base_dir=tmp_path)
    run = sim.run(tmp_path / "run")
    span = cfg.simulation.span_s
    intervals = range(0, span, cfg.simulation.market_interval_s)
    # one area pass per clearing and one for final_diversity, not one per
    # device tick
    assert len(calls) == len(intervals) + 1 < span // cfg.simulation.device_tick_s
    for pop, _, bounds, _, _ in calls:
        assert pop is sim.fleet
        assert bounds == [(0, 60), (60, 160)]
    *at_clearings, (_, t_out, _, _, (f2, f1)) = calls
    assert t_out == sim.t_out(span)
    assert run.summary["final_diversity"] == {"f2": f2, "f0": None, "f1": f1}

    rows = rows_of((run.out_dir / "markets.csv").read_bytes())
    for k, (t, (_, t_out, _, t_in, (f2, f1))) in enumerate(zip(intervals, at_clearings, strict=True)):
        assert t_out == sim.t_out(t) != sim.t_out(t + cfg.simulation.device_tick_s)
        # the state the interval's bids are built from, feeders in id order
        assert np.array_equal(np.concatenate(bid_t_in[3 * k:3 * k + 3]), np.r_[t_in[60:], t_in[:60]])
        written = {row["market_id"]: row["diversity"] for row in rows if int(row["t_s"]) == t}
        # the area mean folds the feeders with houses in config order
        assert written == {"f2": repr(f2), "f0": "", "f1": repr(f1),
                           "__area": repr(left_sum([f2, f1]) / 2)}


def test_house_ranks_and_armed_relays_follow_id_string_order_past_ten_thousand():
    # past 9,999 houses a feeder, f1_h10000 sorts before f1_h9999; curve
    # ties and the shedding draw both follow that string order
    cfg = load_config(SCENARIO_DIR / "gen_loss_ufls.yaml")
    feeder = dataclasses.replace(cfg.feeders[0], houses=10_001)
    sim = SimulationRun(dataclasses.replace(cfg, feeders=(feeder,)), base_dir=SCENARIO_DIR)
    fs = sim.feeders[feeder.feeder_id]
    by_id = sorted(fs.pop.ids)
    assert by_id.index("f1_h10000") < by_id.index("f1_h9999")
    house_ids = np.array(fs.pop.ids, dtype=object)
    assert house_ids[np.argsort(fs.house_rank)].tolist() == by_id
    assert house_ids[fs.armed_idx].tolist() == by_id  # armed_fraction 1.0
    assert sim.ranks.of(["f1_base"]).shape == (1,)


def test_shed_relays_release_once_after_the_hold(tmp_path):
    # a two-minute loss sheds armed houses; once frequency is back above
    # the threshold for hold_s the relays release, once
    cfg = load_config(SCENARIO_DIR / "gen_loss_ufls.yaml")
    area = cfg.area
    cfg = dataclasses.replace(
        cfg,
        simulation=dataclasses.replace(cfg.simulation, span_s=1800),
        area=dataclasses.replace(
            area, events=(dataclasses.replace(area.events[0], duration_s=120),)
        ),
    )
    sim = SimulationRun(cfg, base_dir=SCENARIO_DIR)
    run = sim.run(tmp_path / "run")
    files = artifact_files(run)
    events = [json.loads(line) for line in files["events.jsonl"].decode().splitlines()]
    assert any(e["type"] == "ufls" for e in events)
    freq = rows_of(files["frequency.csv"])
    last_below = max(int(r["t_s"]) for r in freq if float(r["freq_hz"]) < area.ufls.threshold_hz)
    above_since = last_below + cfg.simulation.agc_tick_s
    releases = [e["t"] for e in events if e["type"] == "ufls_release"]
    assert releases == [above_since + area.ufls.hold_s]
    assert not any(fs.pop.latched.any() for fs in sim.feeders.values())


# ------------------------------------------------------------ heating

HEATING = """
schema_version: 1
seed: 5
simulation:
  start: "2026-01-15T00:00:00"
  span_s: 3600
population:
  mode: heating
  thermostat: {kind}
  q_hvac: 12.0
  t_desired: 20.0
  t_min: 18.0
  t_max: 22.0
  comfort_k_spread: 0.2
feeders:
  - {{id: f1, houses: 8, capacity_kw: 40.0, base_load_kw: 3.0}}
  - {{id: f2, houses: 6, capacity_kw: 30.0}}
area:
  regulation_gain: 0.5
  split: {{alpha: 0.0, beta: 0.5}}
  events: [{{at_s: 1200, delta_p_mw: -0.01, duration_s: 600}}]
inputs:
  outdoor_temp_c: 5.0
  da_price: 30.0
"""


def test_heating_aggregator_command_moves_setpoints_against_the_load():
    # a positive command sheds load, so heating setpoints fall toward
    # t_min; a negative one adds load and raises them toward t_max
    sim = SimulationRun(parse_config(HEATING.format(kind="hysteresis")))
    cfg = sim.thermostat
    cap = sim.cfg.area.regulation_capacity_mw
    for fs in sim.feeders.values():
        fs.market_setpoint[:] = np.linspace(cfg.t_min, cfg.t_max, len(fs.pop))
    for to_agg in (0.5, 3.0, -0.7, -5.0):
        sim._apply_aggregator_command(to_agg)
        frac = min(max(to_agg / cap, -1.0), 1.0)
        for fs, (lo, hi) in zip(sim.feeders.values(), sim.house_bounds):
            sp = fs.market_setpoint
            if frac > 0:
                want = [-frac * (s - cfg.t_min) for s in sp.tolist()]
            else:
                want = [-frac * (cfg.t_max - s) for s in sp.tolist()]
            assert sim.reg_offset[lo:hi].tolist() == want
    sim._apply_aggregator_command(0.0)
    assert not sim.reg_offset.any()


@pytest.mark.parametrize("kind", ["hysteresis", "zero_deadband"])
def test_heating_runs_are_byte_identical(tmp_path, kind):
    cfg = parse_config(HEATING.format(kind=kind))
    runs = [run_scenario(cfg, tmp_path / name) for name in ("a", "b")]
    files = [artifact_files(run) for run in runs]
    assert files[0] == files[1]
    assert runs[0].summary["energy_kwh"] > 0.0
    # regulation reached the aggregators, so the heating offset path ran
    freq = rows_of(files[0]["frequency.csv"])
    assert any(float(row["reg_to_aggregators_mw"]) != 0.0 for row in freq)


# ------------------------------------------------------------ event log


def event_lines(run) -> list[str]:
    return (run.out_dir / "events.jsonl").read_text().splitlines()


def test_bid_lines_are_the_json_of_their_record(tmp_path):
    # every bid and house_bids line is the JSON of its record, also under
    # a feeder id that json escapes
    fid = 'f"1\\é'
    doc = HEATING.format(kind="hysteresis").replace("id: f1,", "id: 'f\"1\\é',")
    run = run_scenario(parse_config(doc), tmp_path / "run")
    lines = [line for line in event_lines(run)
             if '"type":"bid"' in line or '"type":"house_bids"' in line]
    records = [json.loads(line) for line in lines]
    assert [json.dumps(r, separators=(",", ":")) for r in records] == lines
    assert {r["market"] for r in records} == {fid, "f2"}
    assert any(r["type"] == "bid" and r["order"] == f"{fid}_base" for r in records)
    assert any(r["type"] == "house_bids" and r["market"] == fid and r["orders"] for r in records)


# each scenario's edge case: intervals with no house bid in
# gen_loss_ufls, bids at the cap in scarcity_sync
@pytest.mark.parametrize("stem, edge", [
    ("gen_loss_ufls", lambda r: r["price"] is None),
    ("scarcity_sync", lambda r: r["must_run_kw"] > 0),
], ids=["gen_loss_ufls", "scarcity_sync"])
def test_house_bids_line_is_the_left_fold_of_the_fleet_bids(tmp_path, monkeypatch, stem, edge):
    # each feeder's house_bids line of an interval folds the bids
    # fleet_bids made for it, in bid order
    made = []
    fleet_bids = engine.fleet_bids

    def recorded(t_in, cfg, k, stats, p_rated, *args):
        idx, prices = fleet_bids(t_in, cfg, k, stats, p_rated, *args)
        made.append((prices.tolist(), p_rated[idx].tolist()))
        return idx, prices

    monkeypatch.setattr(engine, "fleet_bids", recorded)
    cfg = load_config(SCENARIO_DIR / f"{stem}.yaml")
    run = run_scenario(cfg, tmp_path / "run", base_dir=SCENARIO_DIR)
    sim_spec = cfg.simulation
    cap = cfg.market.price_cap
    digests = [line for line in event_lines(run) if '"type":"house_bids"' in line]
    keys = [(r["t"], r["market"]) for r in map(json.loads, digests)]
    feeder_ids = sorted(f.feeder_id for f in cfg.feeders)
    assert keys == [(t, fid) for t in range(0, sim_spec.span_s, sim_spec.market_interval_s)
                    for fid in feeder_ids]
    assert len(made) == len(digests)
    for (t, fid), line, (prices, quantities) in zip(keys, digests, made):
        q = pq = must = 0.0
        for p, dq in zip(prices, quantities):
            q += dq
            pq += p * dq
            if p == cap:
                must += dq
        want = {"t": t, "type": "house_bids", "market": fid, "orders": len(prices),
                "quantity_kw": q, "price": pq / q if q else None, "must_run_kw": must}
        # floats are written as their repr, so equal text is equal bits
        assert line == json.dumps(want, separators=(",", ":")), (t, fid)
    assert any(prices for prices, _ in made)
    assert any(edge(r) for r in map(json.loads, digests))


# ------------------------------------------------------------ storage


def test_storage_arbitrage_follows_the_price_spread(scenario_runs):
    run, _ = scenario_runs["storage_arb"]
    files = artifact_files(run)
    f1 = [row for row in rows_of(files["markets.csv"]) if row["market_id"] == "f1"]
    cheap = [row for row in f1 if int(row["t_s"]) < 3600]
    dear = [row for row in f1 if int(row["t_s"]) >= 3600]
    assert [float(r["price"]) for r in cheap] == [24.0] * 4
    assert [float(r["price"]) for r in dear] == [40.0] * 4

    load = rows_of(files["load.csv"])
    for row in load:
        want = 32.0 if int(row["t_s"]) < 3600 else -32.0
        assert float(row["storage_kw"]) == want
        assert float(row["base_kw"]) == 128.0

    bat = [row for row in rows_of(files["settlement.csv"]) if row["participant"] == "bat1"]
    assert len(bat) == 4
    for row in bat:
        assert int(row["t_s"]) >= 3600
        assert row["role"] == "seller"
        assert float(row["rt_deviation_kwh"]) == -8.0
        assert float(row["rt_price"]) == 40.0

    summary = run.summary
    assert summary["peak_load_kw"] == 160.0
    # 160 kW for an hour then 96 kW for an hour, accumulated in 1/60 h
    # steps, so only the step width's rounding separates it from 256
    assert summary["energy_kwh"] == pytest.approx(256.0, rel=1e-12)
    assert summary["settlement"]["residual"] == 0.0


# --------------------------------------------------------- settlement


def test_settlement_rows_carry_the_two_leg_identity(scenario_runs):
    # buyer rows: payment = da + rt; seller rows fold their rent margin
    # in as a third term; both reconstruct bitwise from the columns
    for stem in ("two_settlement", "storage_arb", "baseline_200"):
        run, _ = scenario_runs[stem]
        rows = rows_of(artifact_files(run)["settlement.csv"])
        assert rows
        for row in rows:
            assert row["role"] in ("buyer", "seller")
            da = float(row["da_energy_kwh"]) * float(row["da_price"])
            rt = float(row["rt_deviation_kwh"]) * float(row["rt_price"])
            rent = float(row["scarcity_rent"])
            assert float(row["payment"]) == da + rt + rent


def test_two_settlement_deviations_are_exactly_zero(scenario_runs):
    run, _ = scenario_runs["two_settlement"]
    rows = rows_of(artifact_files(run)["settlement.csv"])
    assert rows
    for row in rows:
        assert float(row["rt_deviation_kwh"]) == 0.0
    assert run.summary["settlement"]["residual"] == 0.0
    assert run.summary["settlement"]["scarcity_rent"] == 0.0
