"""End-to-end scenario runs: artifacts, determinism, integration replay."""

import collections
import dataclasses
import gc
import hashlib
import json
import math
import struct
import sys
import tracemalloc
import types
from array import array
from pathlib import Path

import numpy as np
import pytest
import yaml

from conftest import SCENARIO_DIR, artifact_files, scenario_paths
from hand_curves import hand_curve, order_ids
from tgsim import engine
from tgsim.auction import SIDE_BUY, OrderRanks
from tgsim.bidding import PriceStats, setpoint_from_price
from tgsim.config import ConfigError, load_config, parse_config
from tgsim.engine import SimulationRun, run_scenario
from tgsim.fold import left_sum
from tgsim.frequency import (
    SwingParams,
    nerc_ace,
    regulation_command,
    smooth_ace,
    split_regulation,
    swing_step,
    time_correction_offset,
    time_error_step,
)
from tgsim.spectral import Series, write_series_csv
from tgsim.thermal import (
    Population,
    ThermalParams,
    ThermostatConfig,
    diversity_metric,
    state_from_phase,
    steady_duty,
)


def rows_of(raw: bytes) -> list[dict]:
    lines = raw.decode().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","), strict=True)) for line in lines[1:]]


def feeder_runs(cfg) -> list[tuple[int, int]]:
    """Each feeder's houses lo to hi - 1 of the area fleet, feeders in id
    order, the order their markets clear in."""
    ends = np.cumsum([0] + [f.houses for f in cfg.feeders]).tolist()
    runs = {f.feeder_id: (lo, hi) for f, lo, hi in zip(cfg.feeders, ends, ends[1:])}
    return [runs[fid] for fid in sorted(runs)]


def bids_by_feeder(cfg, idx, prices) -> list[tuple[np.ndarray, np.ndarray]]:
    """An area fleet_bids call's (indices, prices) split into each
    feeder's, feeders in id order."""
    return [(idx[(idx >= lo) & (idx < hi)], prices[(idx >= lo) & (idx < hi)]) for lo, hi in feeder_runs(cfg)]


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


@pytest.mark.byte_pin
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
                    curve = day1[(h * per_hour + k) * n_feeders + j]
                    want = (curve.cum, curve.price)
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


def test_the_diurnal_scenario_schedules_day_one_from_feedback_and_its_houses_bid_apart(tmp_path, monkeypatch):
    # the shipped multi-day scenario where the loop is not degenerate:
    # day 1 is scheduled from feedback forecasts of many steps, and the
    # houses of a feeder bid apart. The floors sit well under the values
    # measured at seed 7 (a median of 226.5 steps; 83% of the feeder
    # intervals with more than half of their bids distinct), so a resize
    # that collapses the regime fails here.
    forecasts, scheduled, bids, area_calls = [], [], [], []
    real_feedback, real_schedule, real_bids = engine.availability_feedback, engine.schedule_hourly, engine.fleet_bids

    def recorded_feedback(spans):
        forecasts.append(real_feedback(spans))
        return forecasts[-1]

    def recorded_schedule(by_feeder, *args):
        scheduled.append(by_feeder)
        return real_schedule(by_feeder, *args)

    def recorded_bids(*args):
        idx, prices = real_bids(*args)
        area_calls.append(None)
        bids.extend((len(p), len(np.unique(p))) for _, p in bids_by_feeder(cfg, idx, prices))
        return idx, prices

    monkeypatch.setattr(engine, "availability_feedback", recorded_feedback)
    monkeypatch.setattr(engine, "schedule_hourly", recorded_schedule)
    monkeypatch.setattr(engine, "fleet_bids", recorded_bids)
    cfg = load_config(SCENARIO_DIR / "diurnal_two_day.yaml")
    assert cfg.simulation.span_s == 2 * 86400 and len(cfg.da_price) == 24
    sim = SimulationRun(cfg, SCENARIO_DIR)
    sim.run(tmp_path / "run")
    hours, n_feeders = sim.hours_per_day, len(sim.feeders)
    assert len(scheduled) == 2 * hours
    # every forecast of day 1 is a feedback curve, and only day 1 has them
    day1 = [f for by_feeder in scheduled[hours:] for f in by_feeder.values()]
    assert len(forecasts) == len(day1) == hours * n_feeders
    assert all(a is b for a, b in zip(day1, forecasts))
    assert np.median([len(f.price) for f in forecasts]) >= 150
    # the area bids in one pass an interval, and each feeder interval has
    # its run of it; count those where most bids differ
    assert len(area_calls) == cfg.simulation.span_s // cfg.simulation.market_interval_s
    assert len(bids) == n_feeders * len(area_calls)
    apart = sum(2 * distinct > n for n, distinct in bids)
    assert apart >= 0.7 * len(bids), (apart, len(bids))


# diurnal_two_day derived to 2 x 1000 houses over 26 h at seed 7, each
# feeder's kW scaled with its houses. The digests were taken before house
# and forecast ranks became the order in which a run builds its orders,
# and that change kept every byte.
DIURNAL_AT_SCALE_SHA256 = {
    "events.jsonl": "1069d40937ec3c982d1edd8d4bc318370ceae21f95996b2db6334208700d1880",
    "frequency.csv": "9014e702d1e19a048f85d52d6e9a3fbd976b9e1a3b8e9da661089a1ac2abb94a",
    "load.csv": "4ea5efed5793865ef3806b134b1b54cf2889cc4404577aa41218714bbddb9437",
    "markets.csv": "712737aba34c8efbffd695a4ab02a8a8c71f3e692d13c44028cb3ecf929cfc91",
    "settlement.csv": "7e90cd932572521367234c5019339fa6db662021587f8cfc20b43032c22a452a",
    "summary.json": "879553739815c075ded1eebdab88e954f3036b3c99c3c73985a66c2cf55b68de",
}


def diurnal_at_scale_config():
    """diurnal_two_day over 26 h with each feeder scaled to 1000 houses,
    as perfbench's derive_yaml scales a workload: capacity, base load and
    scarcity kW grow with the houses."""
    doc = yaml.safe_load((SCENARIO_DIR / "diurnal_two_day.yaml").read_text())
    doc["simulation"]["span_s"] = 26 * 3600
    for feeder in doc["feeders"]:
        k = 1000 / feeder["houses"]
        feeder["houses"] = 1000
        feeder["capacity_kw"] *= k
        feeder["base_load_kw"] *= k
        feeder["scarcity_steps"] = [[p, kw * k] for p, kw in feeder["scarcity_steps"]]
    return parse_config(yaml.safe_dump(doc, sort_keys=False))


@pytest.mark.byte_pin
def test_the_diurnal_loop_at_scale_matches_its_pinned_digests(tmp_path, monkeypatch):
    # the size where day 1's forecasts have thousands of steps (a median
    # of 7541.5 at seed 7) and every feeder interval has more than half
    # of its bids distinct, so a resize that collapses either fails here
    forecasts, bids = [], []
    real_feedback, real_bids = engine.availability_feedback, engine.fleet_bids

    def recorded_feedback(spans):
        forecasts.append(real_feedback(spans))
        return forecasts[-1]

    def recorded_bids(*args):
        idx, prices = real_bids(*args)
        bids.extend((len(p), len(np.unique(p))) for _, p in bids_by_feeder(cfg, idx, prices))
        return idx, prices

    monkeypatch.setattr(engine, "availability_feedback", recorded_feedback)
    monkeypatch.setattr(engine, "fleet_bids", recorded_bids)
    cfg = diurnal_at_scale_config()
    assert cfg.seed == 7 and [f.houses for f in cfg.feeders] == [1000, 1000]
    run = SimulationRun(cfg, SCENARIO_DIR).run(tmp_path / "run")
    assert len(forecasts) == 2 * 24
    assert np.median([len(f.price) for f in forecasts]) >= 5000
    assert bids and all(2 * distinct > n for n, distinct in bids)
    for name, digest in DIURNAL_AT_SCALE_SHA256.items():
        assert hashlib.sha256((run.out_dir / name).read_bytes()).hexdigest() == digest, name


# two_day over 3 h with its feeders listed f2 first and f2 congested, so
# config order is not id order and the feeders clear at different
# prices. The digests were taken when each feeder bid and responded in
# calls of its own.
OUT_OF_ORDER_SHA256 = {
    "events.jsonl": "87d86fee13a8a7c92c99ac7afebff4b0acd7d7e71cfe30107579d80c6c7f6c7d",
    "frequency.csv": "714bf686a681a1dadcfb4ee1dcca57e78bb9dd9d98d13c341899274304e566d6",
    "load.csv": "fdd3173f9799ee78b710af74e818eeb55812c1ace99e74f3a292c7c80fff59ac",
    "markets.csv": "5969c06940878159c3531de5960a316964645b77eb91261a05825da111c2bd26",
    "settlement.csv": "9f5055cc8056cc0eefe738db13aa5e1b83334b10bedc21f34bbbebc7ea3ec914",
    "summary.json": "0d34e5c0100aacdc0477656c8e79f13c83a2db45f13a2af86b4b72ae4916f39d",
}


@pytest.mark.byte_pin
def test_feeders_listed_out_of_id_order_bid_and_respond_at_their_own_prices(tmp_path):
    # the area's bid and setpoint passes give each house its own feeder's
    # statistics and clearing price, though feeders clear in id order
    base = load_config(SCENARIO_DIR / "two_day.yaml")
    f1, f2 = base.feeders
    cfg = dataclasses.replace(base, feeders=(dataclasses.replace(f2, capacity_kw=20.0), f1),
                              simulation=dataclasses.replace(base.simulation, span_s=3 * 3600))
    run = run_scenario(cfg, tmp_path / "run", base_dir=SCENARIO_DIR)
    rows = rows_of((run.out_dir / "markets.csv").read_bytes())
    prices = [[row["price"] for row in rows if row["market_id"] == fid] for fid in ("f1", "f2")]
    assert all(a != b for a, b in zip(*prices, strict=True))
    for name, digest in OUT_OF_ORDER_SHA256.items():
        assert hashlib.sha256((run.out_dir / name).read_bytes()).hexdigest() == digest, name


def test_retained_memory_holds_at_most_one_day_of_curves(tmp_path, monkeypatch):
    # two_day with 24 hourly prices, so the houses' bids spread and day
    # 1's forecasts have many steps. The same runs measure the live bytes
    # a finished run holds over those after construction, the spans held
    # at the day 1 boundary, and the peak that boundary adds while it
    # forecasts and schedules day 1; and run() builds no rank table.
    made = []
    real_init = OrderRanks.__init__

    def counted(self, *args):
        made.append(None)
        real_init(self, *args)

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


def series_scenario(span_s: int) -> str:
    """One 50 kW feeder without houses for span_s, reading temps.csv."""
    return (f"schema_version: 1\nsimulation:\n  span_s: {span_s}\n"
            "feeders:\n  - id: f0\n    capacity_kw: 50.0\ninputs:\n  outdoor_temp_c: temps.csv\n")


def test_an_outdoor_series_must_cover_the_run(tmp_path):
    # a run interpolates the series, which would hold an uncovered stretch
    # flat at its nearest sample; the scenario runs from 2026-07-15T00:00 for an hour
    p = tmp_path / "scenario.yaml"
    p.write_text(series_scenario(3600))

    def with_series(*times):
        (tmp_path / "temps.csv").write_text("time,value\n" + "".join(f"{t},30.0\n" for t in times))
        return p

    late_start = ("2026-07-15T00:30:00", "2026-07-15T01:00:00")
    early_end = ("2026-07-15T00:00:00", "2026-07-15T00:30:00")
    days_later = ("2026-07-20T00:00:00", "2026-07-20T01:00:00")
    for first, last in (late_start, early_end, days_later):
        with pytest.raises(ConfigError) as err:
            SimulationRun(load_config(with_series(first, last)), tmp_path)
        assert err.value.problems == [f"inputs.outdoor_temp_c: series runs {first} to {last}, "
                                      "the run needs 2026-07-15T00:00:00 to 2026-07-15T01:00:00"]
    exact = ("2026-07-15T00:00:00", "2026-07-15T00:30:00", "2026-07-15T01:00:00")
    wider = ("2026-07-14T23:00:00", "2026-07-15T00:00:00", "2026-07-15T01:00:00", "2026-07-15T02:00:00")
    for times in (exact, wider):
        cfg = load_config(with_series(*times))
        assert cfg.outdoor_temp_c == "temps.csv"  # as written; the run resolves it
        SimulationRun(cfg, tmp_path)


def test_a_relative_series_path_resolves_only_against_the_scenario_directory(tmp_path, monkeypatch):
    # the working directory holds a series that covers the run, yet a run
    # without a base_dir may not read it
    text = series_scenario(3600)
    write_series_csv(Series(parse_config(text).simulation.start, 3600.0, np.full(2, 30.0)), tmp_path / "temps.csv")
    monkeypatch.chdir(tmp_path)
    for build in (lambda cfg: SimulationRun(cfg), lambda cfg: run_scenario(cfg, tmp_path / "run")):
        with pytest.raises(ConfigError) as err:
            build(parse_config(text))
        assert err.value.problems == [
            "inputs.outdoor_temp_c: relative path 'temps.csv' needs the scenario file's directory"
        ]
    assert not (tmp_path / "run").exists()
    # an absolute path is read as written, with or without a base_dir
    absolute = parse_config(text.replace("temps.csv", str(tmp_path / "temps.csv")))
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    for base_dir in (None, elsewhere):
        assert SimulationRun(absolute, base_dir).t_out(1800.0) == 30.0
    # a relative one is read from base_dir, not from the working directory
    write_series_csv(Series(parse_config(text).simulation.start, 3600.0, np.full(2, 25.0)), elsewhere / "temps.csv")
    assert SimulationRun(parse_config(text), elsewhere).t_out(1800.0) == 25.0


def test_a_run_parsed_from_text_rejects_an_uncovered_outdoor_series(tmp_path):
    # a run checks the series whether its config came from a file or from
    # text, so one built from parse_config cannot hold the uncovered half day flat
    text = series_scenario(86400)
    (tmp_path / "scenario.yaml").write_text(text)
    cfg = parse_config(text)
    write_series_csv(Series(cfg.simulation.start, 3600.0, np.full(13, 30.0)), tmp_path / "temps.csv")
    with pytest.raises(ConfigError) as from_file:
        SimulationRun(load_config(tmp_path / "scenario.yaml"), tmp_path)
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
        want = hand_curve(SIDE_BUY, rows)
        assert bits(got[fid].price, got[fid].quantity) == bits(want.price, want.quantity)
        ids += order_ids(want).tolist()
        ranks += got[fid].rank.tolist()
    # the ranks order the steps as the run builds them: feeders in config
    # order, base before response
    assert ids == ["f1_base", "f1_resp", "f2_resp"]
    assert ranks == sorted(ranks)


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


def test_a_bad_hour_fails_at_its_first_interval(tmp_path):
    # hand-built configs that parse_config would reject: the hour's
    # supply checks still run, and raise the ValueError of the bad curve
    # at that hour's first interval
    base = load_config(SCENARIO_DIR / "two_day.yaml")

    def clearings_until_error(cfg, match):
        with pytest.raises(ValueError, match=match):
            run_scenario(cfg, tmp_path / "run", base_dir=SCENARIO_DIR)
        events = map(json.loads, (tmp_path / "run" / "events.jsonl").read_text().splitlines())
        return [e["t"] for e in events if e["type"] == "clearing"]

    # without area supply nothing is scheduled, so hour 2 anchors at its
    # bulk price, above the feeders' first scarcity step (80.0)
    area = dataclasses.replace(base.area, renewables_capacity_mw=0.0, bulk_capacity_mw=0.0)
    simulation = dataclasses.replace(base.simulation, span_s=3 * 3600)
    cfg = dataclasses.replace(base, simulation=simulation, area=area, da_price=(30.0, 30.0, 90.0))
    assert cfg.feeders[0].scarcity_steps[0][0] == 80.0
    assert max(clearings_until_error(cfg, "scarcity step prices must increase")) == 7200 - 300

    # the 25th hourly price, first read by day 1's hour 0, is not above
    # the renewables price
    assert base.area.renewables_price == 15.0
    cfg = dataclasses.replace(base, da_price=(30.0,) * 24 + (15.0,))
    assert max(clearings_until_error(cfg, "bulk price must exceed the renewables price")) == 86400 - 300


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


@pytest.mark.byte_pin
def test_summaries_match_the_pinned_goldens(scenario_runs):
    golden_dir = SCENARIO_DIR / "golden"
    for stem, (run, _) in scenario_runs.items():
        golden = (golden_dir / f"{stem}.summary.json").read_bytes()
        produced = (run.out_dir / "summary.json").read_bytes()
        assert produced == golden, f"summary drifted for {stem}"


@pytest.mark.byte_pin
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
    pop = Population([params], cfg0, [state0], [1.0])
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
        drawn_over.append({hid.split("_")[0] for hid in sim.ranks.names(args[3])})
        shed_ids.extend(sim.ranks.names(shed))
        return shed

    monkeypatch.setattr(engine, "ufls_check", recorded)
    sim = SimulationRun(cfg, base_dir=SCENARIO_DIR)
    assert len(sim.fleet) == 160
    for fid, (lo, hi) in (("f2", (0, 60)), ("f1", (60, 160))):
        fs = sim.feeders[fid]
        # house i of the area fleet ranks first + i, first the rank of house 0
        assert len(fs.pop) == hi - lo and fs.first_rank == sim.feeders["f2"].first_rank + lo
        assert sim.ranks.names(range(fs.first_rank, fs.first_rank + hi - lo)).tolist() == [
            f"{fid}_h{j:04d}" for j in range(hi - lo)]
        assert np.shares_memory(fs.pop.latched, sim.fleet.latched[lo:hi])
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

    def checked(t0, out):
        block_t0.append(t0)
        sheds = balancing_block(t0, out)
        for fid, fs in sim.feeders.items():
            closed = np.count_nonzero(fs.pop.latched[: fs.n_armed] == 0)
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
    cycle_ratios, fleet_bids = engine.cycle_ratios, engine.fleet_bids

    def recorded(pop, t_out):
        # each sample's diversities from the in-process oracle, on the state
        # and temperature its ratio pass reads
        calls.append((pop, t_out, pop.t_in.copy(), diversity_metric(pop, t_out, sim.house_bounds)))
        return cycle_ratios(pop, t_out)

    def recorded_bids(t_in, *args):
        bid_t_in.extend(t_in[lo:hi].copy() for lo, hi in feeder_runs(cfg))
        return fleet_bids(t_in, *args)

    monkeypatch.setattr(engine, "cycle_ratios", recorded)
    monkeypatch.setattr(engine, "fleet_bids", recorded_bids)
    sim = SimulationRun(cfg, base_dir=tmp_path)
    run = sim.run(tmp_path / "run")
    span = cfg.simulation.span_s
    intervals = range(0, span, cfg.simulation.market_interval_s)
    # one area pass per clearing and one for final_diversity, not one per
    # device tick
    assert len(calls) == len(intervals) + 1 < span // cfg.simulation.device_tick_s
    assert sim.house_bounds == [(0, 60), (60, 160)]
    for pop, _, _, _ in calls:
        assert pop is sim.fleet
    *at_clearings, (_, t_out, _, (f2, f1)) = calls
    assert t_out == sim.t_out(span)
    assert run.summary["final_diversity"] == {"f2": f2, "f0": None, "f1": f1}

    rows = rows_of((run.out_dir / "markets.csv").read_bytes())
    for k, (t, (_, t_out, t_in, (f2, f1))) in enumerate(zip(intervals, at_clearings, strict=True)):
        assert t_out == sim.t_out(t) != sim.t_out(t + cfg.simulation.device_tick_s)
        # the state the interval's bids are built from, feeders in id order
        assert np.array_equal(np.concatenate(bid_t_in[3 * k:3 * k + 3]), np.r_[t_in[60:], t_in[:60]])
        written = {row["market_id"]: row["diversity"] for row in rows if int(row["t_s"]) == t}
        # the area mean folds the feeders with houses in config order
        assert written == {"f2": repr(f2), "f0": "", "f1": repr(f1),
                           "__area": repr(left_sum([f2, f1]) / 2)}


def test_house_ranks_and_armed_relays_follow_fleet_index_past_ten_thousand(monkeypatch):
    # past 9,999 houses a feeder, f1_h10000 ranks after f1_h9999 (string
    # order would put it first); curve ties and the shedding draw both
    # follow that fleet order
    cfg = load_config(SCENARIO_DIR / "gen_loss_ufls.yaml")
    feeder = dataclasses.replace(cfg.feeders[0], houses=10_001)
    sim = SimulationRun(dataclasses.replace(cfg, feeders=(feeder,)), base_dir=SCENARIO_DIR)
    fs = sim.feeders[feeder.feeder_id]
    # the fixed orders come first, in the order the run builds them, and
    # they are all the table holds as strings; the houses are one block
    assert sim.ranks.ids.tolist() == ["__import_wholesale", "f1_base", "f1_resp"]
    assert list(sim.ranks._rank) == sim.ranks.ids.tolist()
    assert sim.ranks.blocks == [("f1", fs.first_rank, 10_001)] and fs.first_rank == 3
    names = sim.ranks.names(range(fs.first_rank, fs.first_rank + 10_001)).tolist()
    assert names == [f"f1_h{j:04d}" for j in range(10_001)]
    assert names[9999:] == ["f1_h9999", "f1_h10000"]
    assert sorted(names).index("f1_h10000") < sorted(names).index("f1_h9999")
    assert sim.ranks.name(fs.first_rank + 10_000) == "f1_h10000"
    with pytest.raises(IndexError):
        sim.ranks.names([fs.first_rank + 10_001])
    assert fs.n_armed == 10_001  # armed_fraction 1.0
    assert sim.ranks.of(["f1_base"]).shape == (1,)
    # the draw is over the closed relays' ranks in fleet order, and each
    # shed rank latches the house it names
    drawn, ufls_check = [], engine.ufls_check

    def recorded(*args):
        drawn.append(list(args[3]))
        return ufls_check(*args)

    monkeypatch.setattr(engine, "ufls_check", recorded)
    fs.pop.latched[:5000] = 1
    fs.armed_closed = 10_001 - 5000
    sim._shed(0, cfg.area.ufls.threshold_hz - 0.1, types.SimpleNamespace(event=lambda record: None))
    assert drawn == [list(range(fs.first_rank + 5000, fs.first_rank + 10_001))]
    shed = np.flatnonzero(fs.pop.latched[5000:]) + 5000
    assert len(shed) and (fs.armed_closed == 10_001 - 5000 - len(shed))
    assert sim.ranks.names(fs.first_rank + shed).tolist() == [f"f1_h{j:04d}" for j in shed.tolist()]


def test_feeders_a_and_a_h5_each_hold_one_block_of_house_ranks():
    # a_h5's house ids sort between a_h5999 and a_h6000 of feeder a, so in
    # string order the two feeders' houses would interleave
    cfg = three_feeder_ufls_config()
    a, a_h5 = (dataclasses.replace(cfg.feeders[2], feeder_id=fid, houses=n) for fid, n in (("a", 6001), ("a_h5", 3)))
    sim = SimulationRun(dataclasses.replace(cfg, feeders=(a, a_h5)), base_dir=SCENARIO_DIR)
    first = sim.feeders["a"].first_rank
    assert sim.ranks.ids.tolist() == ["__import_wholesale", "a_base", "a_resp", "a_h5_base", "a_h5_resp"]
    assert sim.feeders["a_h5"].first_rank == first + 6001
    names = sim.ranks.names(range(first, first + 6004)).tolist()
    assert names == [f"a_h{j:04d}" for j in range(6001)] + ["a_h5_h0000", "a_h5_h0001", "a_h5_h0002"]
    assert sorted(names) != names


def setup_cases():
    baseline = load_config(SCENARIO_DIR / "baseline_200.yaml")
    return {
        # steady phases, both spreads above zero
        "baseline_200": baseline,
        # zero deadband, synchronized, no spread
        "scarcity_sync": load_config(SCENARIO_DIR / "scarcity_sync.yaml"),
        "heating": parse_config(HEATING.format(kind="hysteresis")),
        "comfort_k_0": dataclasses.replace(
            baseline, population=dataclasses.replace(baseline.population, comfort_k=0.0)),
        # f0, between f2 and f1, has no houses
        "empty_feeder": three_feeder_ufls_config(),
    }


def reference_fleet(sim):
    """The fleet the per-house setup loop built: two draws, a
    ThermalParams and a state_from_phase call per house, then a
    Population from the rows. Returns it and its population stream."""
    cfg = sim.cfg
    spec = cfg.population
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[0])
    sigma_rc = math.log1p(spec.spread)
    sigma_k = math.log1p(spec.comfort_k_spread)
    t0 = sim.t_out(0.0)
    params, states, ks = [], [], []
    for fspec in cfg.feeders:
        for j in range(fspec.houses):
            z = rng.standard_normal(3)
            u = rng.random()
            r = spec.r_median * math.exp(sigma_rc * z[0])
            c = spec.c_median * math.exp(sigma_rc * z[1])
            k = spec.comfort_k * math.exp(sigma_k * z[2]) if spec.comfort_k > 0 else 0.0
            par = ThermalParams(r_thermal=r, c_thermal=c, q_hvac=spec.q_hvac, p_rated=spec.p_rated)
            phase = u if spec.initial == "steady" else 0.0
            params.append(par)
            states.append(state_from_phase(phase, par, sim.thermostat, t0))
            ks.append(k)
    return Population(params, sim.thermostat, states, ks), rng


@pytest.mark.byte_pin
@pytest.mark.parametrize("case", ["baseline_200", "scarcity_sync", "heating", "comfort_k_0", "empty_feeder"])
def test_the_array_setup_builds_the_per_house_loops_fleet_bitwise(case):
    cfg = setup_cases()[case]
    sim = SimulationRun(cfg, base_dir=SCENARIO_DIR)
    want, rng = reference_fleet(sim)
    got = sim.fleet
    assert len(got) == len(want) > 0
    for name in ("r_thermal", "c_thermal", "q_hvac", "p_rated", "setpoint", "comfort_k", "t_in"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.float64, name
        assert a.view(np.uint64).tolist() == b.view(np.uint64).tolist(), name
    assert got.hvac_on.dtype == want.hvac_on.dtype == np.uint8
    assert got.hvac_on.tolist() == want.hvac_on.tolist()
    # the next draw from the population stream is the same too
    assert sim.rng_pop.bit_generator.state == rng.bit_generator.state
    if case == "empty_feeder":
        assert sim.house_bounds == [(0, 60), (60, 160)]
    if case == "scarcity_sync":
        # phase 0: every unit starts its on run at the top of the band
        assert got.hvac_on.all() and len(set(got.t_in.tolist())) == 1
    else:
        assert 0 < got.hvac_on.sum() < len(got)


@pytest.mark.parametrize("fraction, houses, armed", [
    (0.07, 100, 7), (0.07, 5000, 350), (0.3, 10, 3), (0.071, 100, 8), (1.0, 37, 37), (0.0, 37, 0),
])
def test_armed_relays_count_from_the_fraction_as_written(fraction, houses, armed):
    # in binary floats 0.07 * 100 is 7.000000000000001 and 0.07 * 5000 is
    # 350.00000000000006; neither arms one house more
    cfg = load_config(SCENARIO_DIR / "gen_loss_ufls.yaml")
    feeder = dataclasses.replace(cfg.feeders[0], houses=houses)
    area = dataclasses.replace(cfg.area, ufls=dataclasses.replace(cfg.area.ufls, armed_fraction=fraction))
    sim = SimulationRun(dataclasses.replace(cfg, feeders=(feeder,), area=area), base_dir=SCENARIO_DIR)
    fs = sim.feeders[feeder.feeder_id]
    assert fs.n_armed == fs.armed_closed == armed


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


def reference_balancing_block(sim, t0, out, reached: set) -> list[float]:
    """The balancing block as a loop of calls to the seven scalar forms of
    tgsim.frequency, on sim's state; adds to reached each case it met."""
    cfg = sim.cfg
    area = cfg.area
    h = cfg.simulation.agc_tick_s
    f_nom = area.freq_nominal_hz
    windows = [(ev.at_s, math.inf if ev.duration_s is None else ev.at_s + ev.duration_s, ev.delta_p_mw)
               for ev in area.events]
    feeders = list(sim.feeders.values())
    load_mw = gen_mw = None
    records = array("d")
    sheds = []
    active_at = []  # per step, the events in force
    released = False
    for t in range(t0, t0 + cfg.simulation.device_tick_s, h):
        if load_mw is None:
            load_kw = 0.0
            import_kw = 0.0
            for fs in feeders:
                load_kw += fs.house_power_kw + fs.spec.base_load_kw + fs.storage_net_kw
                import_kw += fs.import_kw
            load_mw = load_kw / 1000.0
            gen_mw = import_kw / 1000.0
        droop_mw = -area.droop_mw_per_hz * sim.delta_f
        droop_gen = (1.0 - area.split.alpha) * droop_mw
        droop_load = area.split.alpha * droop_mw
        active_at.append({j for j, (at_s, until_s, _) in enumerate(windows) if at_s <= t < until_s})
        event_mw = 0.0
        for j in sorted(active_at[-1]):
            event_mw += windows[j][2]
        delta_p = gen_mw + sim.reg_gen_mw + droop_gen + event_mw - (load_mw - droop_load)
        sim.delta_f = swing_step(sim.delta_f, delta_p, area.swing, h)
        freq = f_nom + sim.delta_f
        sim.time_error_s = time_error_step(sim.time_error_s, freq, f_nom, h)
        offset = time_correction_offset(sim.time_error_s, area.time_error_threshold_s, area.time_correction_offset_hz)
        ace_raw = nerc_ace(0.0, area.scheduled_interchange_mw, area.bias_mw_per_01hz, freq, f_nom + offset)
        sim.ace_filtered = smooth_ace(sim.ace_filtered, ace_raw, area.smoothing_tau_s, h)
        cmd = regulation_command(sim.ace_filtered, area.regulation_gain, area.regulation_capacity_mw)
        to_agg, sim.reg_gen_mw = split_regulation(cmd, area.split)
        cases = {
            "time error above the threshold": offset < 0,
            "time error below minus the threshold": offset > 0,
            "command clipped at the top rail": cmd == area.regulation_capacity_mw,
            "command clipped at the bottom rail": cmd == -area.regulation_capacity_mw,
            "droop shared by generators and loads": droop_gen != 0.0 and droop_load != 0.0,
        }
        reached.update(case for case, met in cases.items() if met)

        shed_kw = 0.0
        if freq < area.ufls.threshold_hz:
            sim.above_threshold_since = None
            if any(fs.armed_closed for fs in feeders):
                shed_kw = sim._shed(t, freq, out)
                if shed_kw > 0:
                    reached.add("shed")
                    sheds.append(shed_kw)
                    load_mw = None
        else:
            if sim.above_threshold_since is None:
                sim.above_threshold_since = t
            if sim.relays_held and t - sim.above_threshold_since >= area.ufls.hold_s:
                sim.fleet.latched[:] = 0
                for fs in feeders:
                    fs.armed_closed = fs.n_armed
                sim.relays_held = False
                reached.add("release")
                released = True
                out.event({"t": t, "type": "ufls_release"})
        records.extend((t, freq + 0.0, sim.delta_f + 0.0, ace_raw + 0.0, sim.ace_filtered + 0.0,
                        to_agg + 0.0, sim.reg_gen_mw + 0.0, shed_kw + 0.0, sim.time_error_s + 0.0))
    if sheds and released:
        reached.add("a shed and a release in one tick")
    if active_at[0] - active_at[-1] and active_at[-1] - active_at[0]:
        reached.add("one event ends and one starts inside a device tick")
    if any(area.events[j].duration_s is None for j in set().union(*active_at)):
        reached.add("an open-ended event")
    out.writer.send_records(records)
    sim.reg_agg_mw = to_agg
    sim._apply_aggregator_command(to_agg)
    return sheds


def balancing_oracle_config():
    """gen_loss_ufls with a loss from 300 s to 1824 s, a 12 MW surplus from
    1808 s, inside the tick the loss ends in, an open-ended 1 MW loss from
    5400 s and a 12 s dip at 6004 s that sheds and, after a 20 s hold,
    releases within one tick; a small time-error threshold, a 0.5 MW
    regulation capacity, droop shared by generators and loads, and a bias
    whose tenfold is not exact."""
    cfg = load_config(SCENARIO_DIR / "gen_loss_ufls.yaml")
    area = cfg.area
    loss = area.events[0]
    return dataclasses.replace(
        cfg,
        feeders=(dataclasses.replace(cfg.feeders[0], houses=40),),
        simulation=dataclasses.replace(cfg.simulation, span_s=7200),
        area=dataclasses.replace(
            area, split=dataclasses.replace(area.split, alpha=0.3), droop_mw_per_hz=0.5, bias_mw_per_01hz=-1.3,
            regulation_capacity_mw=0.5, time_error_threshold_s=0.05,
            ufls=dataclasses.replace(area.ufls, hold_s=20.0),
            events=(dataclasses.replace(loss, at_s=300, duration_s=1524),
                    dataclasses.replace(loss, at_s=1808, duration_s=3000, delta_p_mw=12.0),
                    dataclasses.replace(loss, at_s=5400, delta_p_mw=-1.0),
                    dataclasses.replace(loss, at_s=6004, duration_s=12, delta_p_mw=-10.0)),
        ),
    )


def test_the_balancing_block_steps_as_the_scalar_forms_bitwise(tmp_path):
    cfg = balancing_oracle_config()
    assert 0.0 < cfg.area.split.alpha < 1.0 and cfg.area.droop_mw_per_hz > 0.0
    run = run_scenario(cfg, tmp_path / "block", base_dir=SCENARIO_DIR)
    sim = SimulationRun(cfg, base_dir=SCENARIO_DIR)
    reached = set()
    sim._balancing_block = types.MethodType(lambda s, t0, out: reference_balancing_block(s, t0, out, reached), sim)
    reference = sim.run(tmp_path / "reference")
    # every case the block branches on, so a resize cannot quietly skip one
    assert reached == {
        "time error above the threshold", "time error below minus the threshold",
        "command clipped at the top rail", "command clipped at the bottom rail",
        "droop shared by generators and loads", "shed", "release", "a shed and a release in one tick",
        "one event ends and one starts inside a device tick", "an open-ended event",
    }

    def records(out_dir):
        lines = (out_dir / "frequency.csv").read_text().splitlines()[1:]
        return [struct.pack("<9d", *map(float, line.split(","))) for line in lines]

    got, want = records(run.out_dir), records(reference.out_dir)
    assert len(got) == cfg.simulation.span_s // cfg.simulation.agc_tick_s
    assert got == want
    assert artifact_files(run) == artifact_files(reference)


def negative(field):
    return lambda cfg: dataclasses.replace(cfg, area=dataclasses.replace(cfg.area, **{field: -0.5}))


@pytest.mark.parametrize("change, message", [
    (lambda cfg: dataclasses.replace(cfg, area=dataclasses.replace(cfg.area, swing=SwingParams(d_per_s=-0.25))),
     "unstable step"),
    (lambda cfg: dataclasses.replace(cfg, area=dataclasses.replace(cfg.area, smoothing_tau_s=2.0)),
     "need 0 < h <= tau"),
    (negative("regulation_gain"), "gain must be nonnegative"),
    (negative("regulation_capacity_mw"), "capacity must be nonnegative"),
    (negative("time_error_threshold_s"), "threshold and offset must be nonnegative"),
    (negative("time_correction_offset_hz"), "threshold and offset must be nonnegative"),
    (lambda cfg: dataclasses.replace(cfg, area=dataclasses.replace(cfg.area, freq_nominal_hz=0.0)),
     "nominal frequency must be positive"),
], ids=["tick_times_damping", "tau_below_tick", "negative_gain", "negative_capacity",
        "negative_time_error_threshold", "negative_correction_offset", "zero_nominal_frequency"])
def test_a_balancing_constant_parse_config_rejects_fails_the_run_at_construction(change, message):
    # a hand-built config skips parse_config; the scalar forms' checks run
    # once, when the run is built, instead of at each balancing step
    cfg = change(load_config(SCENARIO_DIR / "gen_loss_ufls.yaml"))
    with pytest.raises(ValueError, match=message):
        SimulationRun(cfg, base_dir=SCENARIO_DIR)


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
    for lo, hi in sim.house_bounds:
        sim.market_setpoint[lo:hi] = np.linspace(cfg.t_min, cfg.t_max, hi - lo)
    for to_agg in (0.5, 3.0, -0.7, -5.0):
        sim._apply_aggregator_command(to_agg)
        frac = min(max(to_agg / cap, -1.0), 1.0)
        for lo, hi in sim.house_bounds:
            sp = sim.market_setpoint[lo:hi]
            if frac > 0:
                want = [-frac * (s - cfg.t_min) for s in sp.tolist()]
            else:
                want = [-frac * (cfg.t_max - s) for s in sp.tolist()]
            assert sim.reg_offset[lo:hi].tolist() == want
    sim._apply_aggregator_command(0.0)
    assert not sim.reg_offset.any()


@pytest.mark.byte_pin
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


# ------------------------------------------------------------ device tick


@pytest.mark.byte_pin
def test_the_c_calls_a_tick_makes_equal_numpy_wrappers_bitwise():
    # the calls that stand in for x.mean(), np.clip and np.flatnonzero on
    # the per-tick and per-interval paths, over signed zeros, subnormals
    # and ties at the bounds
    rng = np.random.default_rng(30)
    pool = rng.standard_normal(5000) * 10.0 ** rng.integers(-8, 9, 5000)
    odd = rng.random(5000) < 0.2
    pool[odd] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1.1e-308], int(odd.sum()))
    zpool = pool + 1j * rng.permutation(pool)
    for n in range(1, 5001):
        for x in (pool[:n], zpool[:n], pool[5000 - n:], zpool[5000 - n:]):
            assert (np.add.reduce(x) / len(x)).tobytes() == x.mean().tobytes(), n
    edges = np.array([20.0, 24.0, 19.999, 24.001, 0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf])
    x = np.concatenate((edges, pool))
    for lo, hi in ((20.0, 24.0), (0.0, 1.0), (-0.0, 0.0), (-1.0, -0.0), (-0.0, 5e-324)):
        want = np.clip(x, lo, hi, out=np.empty_like(x))
        for got in (engine._clip(x, lo, hi, out=np.empty_like(x)), x.clip(lo, hi, out=np.empty_like(x))):
            assert got.tobytes() == want.tobytes(), (lo, hi)
    for n in (0, 1, 7, 5000):
        for m in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool), rng.random(n) < 0.3, pool[:n] > 0):
            got, want = m.nonzero()[0], np.flatnonzero(m)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_device_tick_calls_no_numpy_python_function(tmp_path):
    # numpy's Python-level wrappers (np.clip, ndarray.mean, np.where, ...)
    # cost more than the C calls they end in; a device tick makes none
    cfg = load_config(SCENARIO_DIR / "baseline_200.yaml")
    cfg = dataclasses.replace(cfg, simulation=dataclasses.replace(cfg.simulation, span_s=3600))
    numpy_dir = str(Path(np.__file__).parent)
    tgsim_dir = str(Path(engine.__file__).parent)
    tick_codes = {SimulationRun._device_phase.__code__, Population.tick.__code__,
                  Population.aggregate_power.__code__}
    seen, ticks = [], []

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in tick_codes:
            ticks.append(code)
        if not code.co_filename.startswith(numpy_dir):
            return
        caller = frame.f_back
        while caller is not None and not caller.f_code.co_filename.startswith(tgsim_dir):
            caller = caller.f_back
        if caller is not None and caller.f_code in tick_codes:
            seen.append((caller.f_code.co_name, code.co_filename, code.co_name))

    sim = SimulationRun(cfg, base_dir=SCENARIO_DIR)
    sys.setprofile(profile)
    try:
        sim.run(tmp_path / "run")
    finally:
        sys.setprofile(None)
    assert len(ticks) == 60 * (2 + len(sim.feeders))
    assert seen == []


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
    # each feeder's house_bids line of an interval folds its run of the
    # bids the area's fleet_bids call made, in bid order
    made = []
    fleet_bids = engine.fleet_bids

    def recorded(t_in, thermostat, k, stats, p_rated, *args):
        idx, prices = fleet_bids(t_in, thermostat, k, stats, p_rated, *args)
        made.extend((p.tolist(), p_rated[i].tolist()) for i, p in bids_by_feeder(cfg, idx, prices))
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


# storage_arb with six houses, a round trip of 0.81 and a battery that
# starts empty, fills over three cheap hours, empties in the middle of
# the third of three dear ones and charges again. The digests were taken
# when every interval built its storage orders, their bid lines and its
# supply afresh.
STORAGE_CYCLE_SHA256 = {
    "events.jsonl": "71b1ea02a2c2b97b35e4dc9f712f7527afd7a9f7e972b7aeebce81d0d72a85d8",
    "frequency.csv": "42bdc37bd67558e2c19a5f353284b15cb487d89320b1fd8701ab896550114777",
    "load.csv": "004d68e75a378857c5bb55d24e575121435c0fd0be00677071771c9d2c32f141",
    "markets.csv": "cb10bb1d8aa6e0eab6715f3617ed65ab712273389d5ee748a75f60f06790dd2b",
    "settlement.csv": "343aae47a10ca209e7188ec0e617ca2ecdeebcb21aa2784e35c989ff4b08931f",
    "summary.json": "fc3abc12e3a619214b51c9f513984046420e1eb11aff77f9340a2229b0b3ef64",
}


def storage_cycle_config():
    text = (SCENARIO_DIR / "storage_arb.yaml").read_text()
    for old, new in (("span_s: 7200", "span_s: 25200"), ("houses: 0", "houses: 6"),
                     ("efficiency: 1.0", "efficiency: 0.81"), ("soc0_kwh: 16.0", "soc0_kwh: 0.0"),
                     ("p_discharge: 32.0", "p_discharge: 24.0"),
                     ("da_price: [24.0, 40.0]", "da_price: [24.0, 24.0, 24.0, 40.0, 40.0, 40.0, 24.0]")):
        assert old in text
        text = text.replace(old, new)
    return parse_config(text)


@pytest.mark.byte_pin
def test_a_battery_through_empty_partly_charged_and_full_matches_its_pinned_digests(tmp_path):
    # each pattern of battery legs is made once and reused; the bytes are
    # those of orders and lines made in every interval
    run = run_scenario(storage_cycle_config(), tmp_path / "run")
    bids = [e for e in map(json.loads, event_lines(run)) if e["type"] == "bid"]
    legs: dict[int, list[str]] = {}
    for e in bids:
        legs.setdefault(e["t"], []).append(e["order"])
    # empty: base and charge; partly charged: both legs; full: discharge only
    patterns = {tuple(orders) for orders in legs.values()}
    assert patterns == {("f1_base", "bat1_chg"), ("f1_base", "bat1_chg", "bat1_dis"), ("f1_base", "bat1_dis")}
    for name, digest in STORAGE_CYCLE_SHA256.items():
        assert hashlib.sha256((run.out_dir / name).read_bytes()).hexdigest() == digest, name

    # lines encoded once take only t's text, which is the encoder's
    records = [{k: v for k, v in e.items() if k != "t"} for e in bids if e["t"] == 0]
    records.append(dict(records[0], market='f"1\\é'))
    for recs in (records, records[:1], []):
        parts = engine._t_lines(recs)
        for t in (0, 300, 10**9):
            want = "".join(engine._EVENT_ENCODER.encode({"t": t, **r}) + "\n" for r in recs)
            assert engine._lines_at(parts, t) == want


@pytest.mark.parametrize("case", ["two_day", "storage_cycle"])
def test_a_run_builds_each_feeder_supply_once_per_hour_and_pattern_of_sell_orders(tmp_path, monkeypatch, case):
    # two_day's battery sells in every interval, so a build per interval
    # that has a sell order would show; the storage cycle's battery stops
    # selling in the middle of an hour, so a supply kept for the hour
    # whatever its sell orders would show
    built, now = [], [0]
    real_supply = engine.build_feeder_supply

    def supplied(*args):
        built.append(now[-1] // 3600)
        return real_supply(*args)

    monkeypatch.setattr(engine, "build_feeder_supply", supplied)
    cfg = load_config(SCENARIO_DIR / "two_day.yaml") if case == "two_day" else storage_cycle_config()
    sim = SimulationRun(cfg, base_dir=SCENARIO_DIR)
    market_phase = sim._market_phase

    def timed(t, *args):
        now.append(t)
        return market_phase(t, *args)

    sim._market_phase = timed
    run = sim.run(tmp_path / "run")
    sells = {(t, fid): () for t in now[1:] for fid in sim.feeders}
    for e in map(json.loads, event_lines(run)):
        if e["type"] == "bid" and e["side"] == "sell":
            sells[e["t"], e["market"]] += (e["order"],)
    patterns: dict[int, set] = {}
    for (t, fid), orders in sells.items():
        patterns.setdefault(t // 3600, set()).add((fid, orders))
    if case == "two_day":
        assert len(now) - 1 == 576 and all(sells[t, "f1"] == ("bat1_dis",) for t in now[1:])
    else:
        assert max(len(seen) for seen in patterns.values()) == 2
    assert dict(collections.Counter(built)) == {hour: len(seen) for hour, seen in patterns.items()}


@pytest.mark.parametrize("name", ["two_day", "storage_arb"])
def test_a_run_merges_curves_of_its_own_table_and_names_the_market_maker_by_rank(tmp_path, monkeypatch, name):
    # every curve a run merges indexes the run's one rank table, and the
    # market maker's fills are found by its range of ranks in that table
    # and folded into the rent from those fills
    merged, sold, rents = [], [], []
    real_aggregate, real_sold, real_rent = engine.aggregate_demand, engine.market_maker_sold, engine.scarcity_rent

    def aggregate(curves):
        curves = list(curves)
        merged.append(curves + [real_aggregate(curves)])
        return merged[-1][-1]

    def market_maker_sold(result, supply, market_maker):
        sold.append((market_maker, real_sold(result, supply, market_maker)))
        return sold[-1][1]

    def scarcity_rent(result, filled):
        rents.append(filled)
        return real_rent(result, filled)

    monkeypatch.setattr(engine, "aggregate_demand", aggregate)
    monkeypatch.setattr(engine, "market_maker_sold", market_maker_sold)
    monkeypatch.setattr(engine, "scarcity_rent", scarcity_rent)
    sim = SimulationRun(load_config(SCENARIO_DIR / f"{name}.yaml"), base_dir=SCENARIO_DIR)
    sim.run(tmp_path / "run")
    intervals = sim.cfg.simulation.span_s // sim.cfg.simulation.market_interval_s
    assert len(merged) == intervals
    assert all(curve.ranks is sim.ranks for curves in merged for curve in curves)
    assert isinstance(sim.market_maker, range)
    assert len(sold) == len(rents) == intervals * len(sim.feeders)
    assert all(market_maker is sim.market_maker for market_maker, _ in sold)
    assert all(filled is passed for (_, filled), passed in zip(sold, rents))


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
