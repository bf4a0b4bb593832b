"""Scenario parsing: defaults, collect-all validation, key-path messages."""

import dataclasses
import hashlib
import importlib.util
import json
import sys
from datetime import datetime
from pathlib import Path

import pytest
import yaml

from tgsim import config
from tgsim.config import (
    SCHEMA_VERSION,
    AreaSpec,
    ConfigError,
    FeederSpec,
    MarketSpec,
    PopulationSpec,
    SimulationSpec,
    UflsSpec,
    load_config,
    parse_config,
)
from tgsim.frequency import RegulationSplit, SwingParams

REPO_ROOT = Path(__file__).resolve().parents[1]

MINIMAL = """\
schema_version: 1
simulation:
  span_s: 3600
feeders:
  - id: f0
    capacity_kw: 50.0
"""


def problems_of(text):
    """Parse a bad document and hand back the collected problem list."""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    return err.value.problems


def test_minimal_document_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.seed == 0
    assert cfg.simulation.start == datetime(2026, 7, 15)
    assert cfg.simulation.span_s == 3600
    # the default cadences nest: 4 s balancing, 60 s devices, 5 min
    # markets, hourly scheduling
    assert cfg.simulation.agc_tick_s == 4
    assert cfg.simulation.device_tick_s == 60
    assert cfg.simulation.market_interval_s == 300
    assert cfg.simulation.schedule_interval_s == 3600
    assert cfg.market.price_floor == 0.0
    assert cfg.market.price_cap == 1000.0
    assert cfg.market.stats_window == 12
    assert cfg.market.prior_mean == 30.0
    assert cfg.market.prior_sigma == 10.0
    assert cfg.population.mode == "cooling"
    assert cfg.population.thermostat == "hysteresis"
    assert cfg.population.q_hvac == -12.0
    assert cfg.population.initial == "steady"
    assert len(cfg.feeders) == 1
    f = cfg.feeders[0]
    assert f.feeder_id == "f0"
    assert f.houses == 0
    assert f.capacity_kw == 50.0
    assert f.scarcity_steps == ()
    assert f.weight_normal == 0.9
    assert f.weight_contingency == 0.1
    assert cfg.area.freq_nominal_hz == 60.0
    assert cfg.area.swing.m_hz_per_s_mw == 0.01
    assert cfg.area.swing.d_per_s == -0.2
    assert cfg.area.bias_mw_per_01hz == -1.0
    assert cfg.area.renewables_price == 15.0
    assert cfg.area.bulk_capacity_mw == 100.0
    assert cfg.area.split.alpha == 0.0
    assert cfg.area.split.beta == 0.0
    assert cfg.area.ufls.threshold_hz == 59.95
    assert cfg.area.ufls.probability == 0.0
    assert cfg.area.events == ()
    assert cfg.storage == ()
    assert cfg.outdoor_temp_c == 30.0
    assert cfg.da_price == (30.0,)
    assert cfg.house_trace is False
    assert cfg.source_text == MINIMAL


def test_defaults_are_the_spec_dataclass_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.simulation == SimulationSpec(span_s=3600)
    assert cfg.market == MarketSpec()
    assert cfg.population == PopulationSpec()
    assert cfg.feeders == (FeederSpec(feeder_id="f0", capacity_kw=50.0),)
    assert cfg.area.ufls == UflsSpec()
    assert cfg.area == AreaSpec(swing=SwingParams(), split=RegulationSplit(), ufls=UflsSpec())


def test_config_hash_is_sha256_of_source_text():
    cfg = parse_config(MINIMAL)
    assert cfg.config_hash() == hashlib.sha256(MINIMAL.encode()).hexdigest()


def test_all_problems_collected_in_one_error():
    """One bad document, one exception, every problem listed with its path."""
    text = """\
schema_version: 2
simulation:
  span_s: 3600
  market_interval_s: 299
population:
  q_hvac: 5
feeders:
  - id: f0
    capacity_kw: 50.0
  - id: f0
    capacity_kw: 10.0
area:
  swing:
    d_per_s: 0.2
junk: {}
"""
    problems = problems_of(text)
    assert problems == [
        "schema_version: expected 1, got 2",
        "simulation.market_interval_s: 299 is not a multiple of the next faster tick 60",
        "simulation.schedule_interval_s: 3600 is not a multiple of the next faster tick 299",
        "population.q_hvac: cooling equipment must remove heat (q_hvac < 0)",
        "feeders[1].id: duplicate feeder id 'f0'",
        "area.swing.d_per_s: damping must be negative",
        "junk: unknown top-level section",
    ]
    # str() carries the same list, one problem per line
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value).count("\n") == len(problems) - 1


def test_schema_version_required():
    text = MINIMAL.replace("schema_version: 1\n", "")
    assert f"schema_version: expected {SCHEMA_VERSION}, got None" in problems_of(text)


BAD_YAML = ["feeders: [unclosed", "simulation:\n\tspan_s: 3600\n", MINIMAL + "seed: 1\x07\n"]


def test_yaml_syntax_error_is_a_config_error(monkeypatch):
    # an unclosed flow, a tab used as indentation, a control character:
    # one problem under libyaml's parser and under PyYAML's own
    for loader in (config._YAML_LOADER, yaml.SafeLoader):
        monkeypatch.setattr(config, "_YAML_LOADER", loader)
        for text in BAD_YAML:
            problems = problems_of(text)
            assert len(problems) == 1, (loader, text)
            assert problems[0].startswith("not parseable as YAML:"), (loader, text)


def test_top_level_must_be_a_mapping():
    assert problems_of("- 1\n- 2") == ["top level must be a mapping"]
    assert problems_of("just a string") == ["top level must be a mapping"]


def test_span_is_required():
    text = MINIMAL.replace("  span_s: 3600\n", "")
    assert "simulation.span_s: required value missing" in problems_of(text)


def test_capacity_is_required():
    text = MINIMAL.replace("    capacity_kw: 50.0\n", "")
    assert "feeders[0].capacity_kw: required value missing" in problems_of(text)


def test_at_least_one_feeder_required():
    text = "schema_version: 1\nsimulation:\n  span_s: 3600\n"
    assert "feeders: at least one feeder is required" in problems_of(text)


def test_cadences_must_nest():
    bad = MINIMAL.replace("span_s: 3600", "span_s: 5000")
    assert (
        "simulation.span_s: 5000 is not a multiple of the next faster tick 3600"
        in problems_of(bad)
    )
    bad = MINIMAL.replace("  span_s: 3600", "  span_s: 3600\n  device_tick_s: 7")
    probs = problems_of(bad)
    assert "simulation.device_tick_s: 7 is not a multiple of the next faster tick 4" in probs
    assert "simulation.market_interval_s: 300 is not a multiple of the next faster tick 7" in probs
    # each day is scheduled as whole scheduling periods, so one must divide a day
    for interval, span in ((50000, 100000), (7000, 7000), (100000, 100000)):
        bad = MINIMAL.replace(
            "  span_s: 3600",
            f"  span_s: {span}\n  schedule_interval_s: {interval}\n"
            "  market_interval_s: 500\n  device_tick_s: 100",
        )
        assert problems_of(bad) == [
            f"simulation.schedule_interval_s: must divide one day (86400 s), got {interval}"
        ]
    ok = MINIMAL.replace("  span_s: 3600", "  span_s: 86400\n  schedule_interval_s: 1800")
    assert parse_config(ok).simulation.schedule_interval_s == 1800
    # a tick out of bounds reads as its default, so it is not also
    # reported as out of step with the next faster tick
    assert problems_of(MINIMAL.replace("span_s: 3600", "span_s: -1")) == ["simulation.span_s: must be >= 1, got -1"]
    bad = MINIMAL.replace("  span_s: 3600", "  span_s: 3600\n  market_interval_s: -100")
    assert problems_of(bad) == ["simulation.market_interval_s: must be >= 1, got -100"]


def test_seed_validation():
    assert "seed: must be >= 0, got -1" in problems_of("seed: -1\n" + MINIMAL)
    assert "seed: expected an integer, got 1.5" in problems_of("seed: 1.5\n" + MINIMAL)
    # booleans are ints in python, but not here
    assert "seed: expected an integer, got True" in problems_of("seed: true\n" + MINIMAL)


def test_start_timestamp():
    text = """\
schema_version: 1
simulation:
  span_s: 3600
  start: "2026-01-05T06:30:00"
feeders:
  - id: f0
    capacity_kw: 50.0
"""
    cfg = parse_config(text)
    assert cfg.simulation.start == datetime(2026, 1, 5, 6, 30)
    bad = text.replace('"2026-01-05T06:30:00"', '"yesterday"')
    assert "simulation.start: not an ISO-8601 timestamp: 'yesterday'" in problems_of(bad)


def test_market_bounds():
    text = MINIMAL + "market:\n  price_floor: 40.0\n  price_cap: 35.0\n"
    assert "market.price_floor: must sit below market.price_cap" in problems_of(text)
    text = MINIMAL + "market:\n  stats_window: 1\n"
    assert "market.stats_window: must be >= 2, got 1" in problems_of(text)
    text = MINIMAL + "market:\n  stats_window: ten\n"
    assert "market.stats_window: expected an integer, got 'ten'" in problems_of(text)


def test_population_bounds():
    text = MINIMAL + "population:\n  t_desired: 25.0\n"
    assert "population.t_desired: need t_min < t_desired < t_max" in problems_of(text)
    text = MINIMAL + "population:\n  mode: heating\n"
    # heating with the cooling default q_hvac = -12 is contradictory
    assert (
        "population.q_hvac: heating equipment must add heat (q_hvac > 0)"
        in problems_of(text)
    )
    text = MINIMAL + "population:\n  mode: venting\n"
    assert (
        "population.mode: expected one of ('cooling', 'heating'), got 'venting'"
        in problems_of(text)
    )
    text = MINIMAL + "population:\n  r_median: 0\n"
    assert "population.r_median: must be > 0.0, got 0.0" in problems_of(text)
    text = MINIMAL + "population:\n  r_median: .nan\n"
    assert "population.r_median: must be finite" in problems_of(text)
    text = MINIMAL + "population:\n  r_median: two\n"
    assert "population.r_median: expected a number, got 'two'" in problems_of(text)


def test_scarcity_step_validation():
    text = """\
schema_version: 1
simulation:
  span_s: 3600
feeders:
  - id: f0
    capacity_kw: 50.0
    scarcity_steps: [[40.0, 10.0], [35.0, 5.0], [45.0, 0.0], [2000.0, 5.0], bogus]
"""
    probs = problems_of(text)
    assert "feeders[0].scarcity_steps[1]: step prices must strictly increase" in probs
    assert "feeders[0].scarcity_steps[2]: extra_kw must be positive" in probs
    assert "feeders[0].scarcity_steps[3]: step price above market.price_cap" in probs
    assert "feeders[0].scarcity_steps[4]: expected [price, extra_kw], got 'bogus'" in probs


def test_scarcity_step_values_are_finite_numbers():
    base = MINIMAL.replace("capacity_kw: 50.0", "capacity_kw: 50.0\n    scarcity_steps: [{steps}]")
    probs = problems_of(base.format(steps="[x, 5], [.nan, 5], [60.0, true], [70.0, .inf]"))
    assert probs == [
        "feeders[0].scarcity_steps[0].price: expected a number, got 'x'",
        "feeders[0].scarcity_steps[1].price: must be finite",
        "feeders[0].scarcity_steps[2].extra_kw: expected a number, got True",
        "feeders[0].scarcity_steps[3].extra_kw: must be finite",
    ]
    cfg = parse_config(base.format(steps="[40, 5], [50.5, 2]"))
    assert cfg.feeders[0].scarcity_steps == ((40.0, 5.0), (50.5, 2.0))


def test_scarcity_steps_must_clear_the_day_ahead_price():
    text = """\
schema_version: 1
simulation:
  span_s: 3600
feeders:
  - id: f0
    capacity_kw: 50.0
    scarcity_steps: [[35.0, 10.0]]
inputs:
  da_price: [30.0, 40.0]
"""
    problem = "scarcity_steps: first step price must exceed every day-ahead price"
    assert f"feeders[0].{problem}" in problems_of(text)
    # the path is the index in the document, whatever entries precede it
    shifted = text.replace("feeders:\n", "feeders:\n  - 5\n")
    assert problems_of(shifted) == ["feeders[0]: expected a mapping", f"feeders[1].{problem}"]


def test_area_guards():
    text = MINIMAL + "area:\n  bias_mw_per_01hz: 0.5\n"
    assert "area.bias_mw_per_01hz: bias is negative by convention" in problems_of(text)
    text = MINIMAL + "area:\n  swing: {d_per_s: -0.3}\n"
    assert (
        "area.swing.d_per_s: unstable with agc_tick_s=4: need tick * |D| < 1"
        in problems_of(text)
    )
    text = MINIMAL + "area:\n  smoothing_tau_s: 2.0\n"
    assert "area.smoothing_tau_s: must be at least the balancing tick" in problems_of(text)
    # a value out of bounds reads as the default, so the cross checks
    # after it do not report it again
    text = MINIMAL + "area:\n  smoothing_tau_s: -1\n"
    assert problems_of(text) == ["area.smoothing_tau_s: must be > 0.0, got -1.0"]
    text = MINIMAL + "area:\n  ufls: {threshold_hz: 60.0}\n"
    assert "area.ufls.threshold_hz: must sit below the nominal frequency" in problems_of(text)
    # SwingParams and RegulationSplit check their own values: out of range
    # is a problem with its path, not a bare ValueError
    text = MINIMAL + "area:\n  swing: {m_hz_per_s_mw: 0}\n"
    assert problems_of(text) == ["area.swing.m_hz_per_s_mw: must be > 0.0, got 0.0"]
    text = MINIMAL + "area:\n  split: {alpha: 0.5, beta: 2}\n"
    assert problems_of(text) == ["area.split.beta: must be <= 1.0, got 2.0"]


def test_event_parsing():
    text = MINIMAL + "area:\n  events:\n    - {at_s: 600, delta_p_mw: -8.0, duration_s: 120}\n    - {at_s: 900, delta_p_mw: 2.0}\n"
    cfg = parse_config(text)
    assert len(cfg.area.events) == 2
    assert cfg.area.events[0].at_s == 600
    assert cfg.area.events[0].delta_p_mw == -8.0
    assert cfg.area.events[0].duration_s == 120
    assert cfg.area.events[1].duration_s is None
    bad = MINIMAL + "area:\n  events:\n    - {delta_p_mw: -8.0, duration_s: 0}\n"
    probs = problems_of(bad)
    assert "area.events[0].at_s: required value missing" in probs
    assert "area.events[0].duration_s: must be >= 1, got 0" in probs


def test_storage_parsing():
    text = MINIMAL + """\
storage:
  - id: b1
    feeder: f0
    capacity_kwh: 10.0
    p_charge: 3.0
    p_discharge: 2.0
    buy_below: 20.0
    sell_above: 40.0
    efficiency: 0.9
    soc0_kwh: 5.0
"""
    cfg = parse_config(text)
    assert len(cfg.storage) == 1
    placed = cfg.storage[0]
    assert placed.feeder_id == "f0"
    assert placed.soc0_kwh == 5.0
    assert placed.spec.device_id == "b1"
    assert placed.spec.capacity_kwh == 10.0
    assert placed.spec.p_charge == 3.0
    assert placed.spec.p_discharge == 2.0
    assert placed.spec.buy_below == 20.0
    assert placed.spec.sell_above == 40.0
    assert placed.spec.efficiency == 0.9


def test_storage_ids_are_unique():
    battery = """\
  - id: {sid}
    feeder: f0
    capacity_kwh: 10.0
    p_charge: 3.0
    p_discharge: 2.0
    buy_below: 20.0
    sell_above: 40.0
    soc0_kwh: {soc}
"""
    text = MINIMAL + "storage:\n" + battery.format(sid="bat1", soc=1.0) + battery.format(sid="bat1", soc=5.0)
    assert problems_of(text) == ["storage[1].id: duplicate storage id 'bat1'"]
    text = MINIMAL + "storage:\n" + battery.format(sid="bat1", soc=1.0) + battery.format(sid="bat2", soc=5.0)
    assert [s.spec.device_id for s in parse_config(text).storage] == ["bat1", "bat2"]


def test_reserved_id_prefix_is_rejected():
    text = MINIMAL.replace("id: f0", "id: __area") + """\
storage:
  - id: __import_x
    feeder: __area
    capacity_kwh: 10.0
    p_charge: 3.0
    p_discharge: 2.0
    buy_below: 20.0
    sell_above: 40.0
"""
    assert problems_of(text) == [
        "feeders[0].id: ids starting with '__' are reserved, got '__area'",
        "storage[0].id: ids starting with '__' are reserved, got '__import_x'",
    ]
    # an inner double underscore is not the reserved prefix
    assert parse_config(MINIMAL.replace("id: f0", "id: f__0")).feeders[0].feeder_id == "f__0"
    # ids are YAML strings: a null, number or list is not turned into text
    battery = "storage:\n  - {{id: {raw}, feeder: {raw}, capacity_kwh: 10.0, p_charge: 3.0, p_discharge: 2.0,\n" \
              "     buy_below: 20.0, sell_above: 40.0}}\n"
    for raw in ("null", "7", "[a, b]"):
        got = yaml.safe_load(raw)
        assert problems_of(MINIMAL.replace("id: f0", f"id: {raw}")) == [
            f"feeders[0].id: expected a string, got {got!r}"
        ]
        assert problems_of(MINIMAL + battery.format(raw=raw)) == [
            f"storage[0].id: expected a string, got {got!r}",
            f"storage[0].feeder: expected a string, got {got!r}",
        ]


def test_storage_validation():
    base = MINIMAL + """\
storage:
  - id: b1
    feeder: {feeder}
    capacity_kwh: {cap}
    p_charge: 3.0
    p_discharge: 2.0
    buy_below: {buy}
    sell_above: {sell}
    soc0_kwh: {soc}
"""
    text = base.format(feeder="nope", cap=10.0, buy=20.0, sell=40.0, soc=0.0)
    assert "storage[0].feeder: unknown feeder 'nope'" in problems_of(text)
    text = base.format(feeder="f0", cap=10.0, buy=20.0, sell=40.0, soc=12.0)
    assert "storage[0].soc0_kwh: initial charge exceeds capacity" in problems_of(text)
    text = base.format(feeder="f0", cap=10.0, buy=45.0, sell=40.0, soc=0.0)
    assert "storage[0].buy_below: must sit strictly below sell_above" in problems_of(text)
    text = base.format(feeder="f0", cap=10.0, buy=20.0, sell=40.0, soc=0.0)
    text = text.replace("p_charge: 3.0", "p_charge: 3.0\n    efficiency: 1.2")
    assert "storage[0].efficiency: must be <= 1.0, got 1.2" in problems_of(text)
    # a bad number is one problem, not echoed by the checks that would read it
    for cap, problem in (("x", "expected a number, got 'x'"), (-1.0, "must be > 0.0, got -1.0")):
        text = base.format(feeder="f0", cap=cap, buy=20.0, sell=40.0, soc=5.0)
        assert problems_of(text) == [f"storage[0].capacity_kwh: {problem}"]
    text = base.format(feeder="f0", cap=10.0, buy=20.0, sell="x", soc=0.0)
    assert problems_of(text) == ["storage[0].sell_above: expected a number, got 'x'"]


def test_battery_legs_must_lie_within_the_market_band():
    # a leg above the cap cleared at the no-trade midpoint of a bid at the
    # cap and the ask (1512.0 against a cap of 1024.0); a leg at either
    # edge of the band is fine
    text = (REPO_ROOT / "scenarios" / "storage_arb.yaml").read_text()
    text = text.replace("capacity_kw: 512.0", "capacity_kw: 0.0").replace("base_load_kw: 128.0", "base_load_kw: 8.0")
    assert "price_cap: 1024.0" in text and "price_floor: 0.0" in text

    def legs(buy, sell):
        return text.replace("buy_below: 28.0", f"buy_below: {buy}").replace("sell_above: 36.0", f"sell_above: {sell}")

    band = "must lie within [market.price_floor, market.price_cap]"
    assert problems_of(legs(28.0, 2000.0)) == [f"storage[0].sell_above: {band}"]
    assert problems_of(legs(-1.0, 36.0)) == [f"storage[0].buy_below: {band}"]
    assert problems_of(legs(-1.0, 1024.5)) == [f"storage[0].buy_below: {band}", f"storage[0].sell_above: {band}"]
    spec = parse_config(legs(0.0, 1024.0)).storage[0].spec
    assert (spec.buy_below, spec.sell_above) == (0.0, 1024.0)


def test_prior_mean_must_lie_within_the_market_band():
    # a prior above the cap had every house bid the cap until the price
    # window filled, and day 0's forecast a step above it; a prior at
    # either edge of the band is fine
    text = (REPO_ROOT / "scenarios" / "two_day.yaml").read_text()
    assert "price_floor: 0.0" in text and "price_cap: 1000.0" in text

    def prior(mean):
        return text.replace("prior_mean: 30.0", f"prior_mean: {mean}")

    band = "market.prior_mean: must lie within [market.price_floor, market.price_cap]"
    assert problems_of(prior(5000.0)) == [band]
    assert problems_of(prior(-50.0)) == [band]
    assert problems_of(prior(1000.5)) == [band]
    assert [parse_config(prior(mean)).market.prior_mean for mean in (0.0, 1000.0)] == [0.0, 1000.0]
    # an empty band is reported once, not echoed against the prior
    problems = problems_of(prior(-50.0).replace("price_floor: 0.0", "price_floor: 1000.0"))
    assert "market.price_floor: must sit below market.price_cap" in problems
    assert not [p for p in problems if p.startswith("market.prior_mean")]


def test_inputs_parsing():
    text = MINIMAL + "inputs:\n  outdoor_temp_c: 28\n  da_price: [25.0, 40.0]\n"
    cfg = parse_config(text)
    assert cfg.outdoor_temp_c == 28.0
    assert isinstance(cfg.outdoor_temp_c, float)
    assert cfg.da_price == (25.0, 40.0)
    text = MINIMAL + 'inputs:\n  outdoor_temp_c: "inputs/temps.csv"\n'
    cfg = parse_config(text)
    assert cfg.outdoor_temp_c == "inputs/temps.csv"
    text = MINIMAL + "inputs:\n  outdoor_temp_c: true\n"
    assert (
        "inputs.outdoor_temp_c: expected a number or CSV path, got True"
        in problems_of(text)
    )
    # a non-finite temperature or price is a problem here, not a failed run
    for raw in (".nan", ".inf", "-.inf"):
        got = yaml.safe_load(raw)
        assert problems_of(MINIMAL + f"inputs:\n  outdoor_temp_c: {raw}\n") == [
            f"inputs.outdoor_temp_c: expected a number or CSV path, got {got!r}"
        ]
        assert problems_of(MINIMAL + f"inputs:\n  da_price: [30.0, {raw}]\n") == [
            f"inputs.da_price: expected a price or list of hourly prices, got {[30.0, got]!r}"
        ]


def test_day_ahead_price_must_sit_between_renewables_and_cap():
    text = MINIMAL + "inputs:\n  da_price: 10.0\n"
    assert (
        "inputs.da_price: bulk price 10.0 must exceed area.renewables_price"
        in problems_of(text)
    )
    text = MINIMAL + "inputs:\n  da_price: 1000.0\n"
    assert (
        "inputs.da_price: bulk price 1000.0 must sit below market.price_cap"
        in problems_of(text)
    )


def test_house_trace_flag():
    cfg = parse_config(MINIMAL + "output:\n  house_trace: true\n")
    assert cfg.house_trace is True


def test_house_trace_accepts_only_a_boolean():
    for raw in ("'false'", "'true'", "1", "0", "yes please", "null"):
        assert problems_of(MINIMAL + f"output:\n  house_trace: {raw}\n") == [
            f"output.house_trace: expected true or false, got {yaml.safe_load(raw)!r}"
        ]
    assert parse_config(MINIMAL + "output:\n  house_trace: false\n").house_trace is False


# every mapping the parser reads, each with one key of its own set
EVERY_SECTION = """\
schema_version: 1
simulation: {span_s: 3600, start: "2026-07-15T00:00:00"}
market: {price_cap: 1000.0}
population: {mode: cooling}
feeders:
  - {id: f0, houses: 2, capacity_kw: 50.0, scarcity_steps: [[500.0, 5.0]]}
area:
  bias_mw_per_01hz: -1.0
  swing: {d_per_s: -0.2}
  split: {alpha: 0.5}
  ufls: {probability: 0.5}
  events: [{at_s: 600, delta_p_mw: -1.0, duration_s: 60}]
storage:
  - {id: bat1, feeder: f0, capacity_kwh: 8.0, p_charge: 2.0, p_discharge: 2.0,
     buy_below: 20.0, sell_above: 40.0, soc0_kwh: 1.0}
inputs: {outdoor_temp_c: 32.0, da_price: 30.0}
output: {house_trace: false}
"""


@pytest.mark.parametrize("path, typo", [
    ("simulation", "spanx_s"),
    ("market", "price_cp"),
    ("population", "therostat"),
    ("feeders[0]", "base_load"),
    ("area", "droop"),
    ("area.swing", "d_per_sec"),
    ("area.split", "beta_"),
    ("area.ufls", "armed"),
    ("area.events[0]", "duration"),
    ("storage[0]", "soc_kwh"),
    ("inputs", "da_prices"),
    ("output", "house_trac"),
])
def test_unknown_keys_are_reported_with_their_path(path, typo):
    doc = yaml.safe_load(EVERY_SECTION)
    parse_config(yaml.safe_dump(doc))  # valid before the typo goes in
    node = doc
    for part in path.split("."):
        name, _, index = part.partition("[")
        node = node[name]
        if index:
            node = node[int(index[:-1])]
    node[typo] = True
    assert problems_of(yaml.safe_dump(doc)) == [f"{path}.{typo}: unknown key"]


def test_every_spec_field_reads_back_under_its_own_key():
    # each section written back as every field of its spec, under the
    # field's name (ids and a battery's feeder spelled as in the YAML)
    cfg = parse_config(EVERY_SECTION)
    doc = json.loads(json.dumps(dataclasses.asdict(cfg), default=str))
    for fd in doc["feeders"]:
        fd["id"] = fd.pop("feeder_id")
    doc["storage"] = [{**sd.pop("spec"), **sd} for sd in doc["storage"]]
    for sd in doc["storage"]:
        sd["id"], sd["feeder"] = sd.pop("device_id"), sd.pop("feeder_id")
    doc["inputs"] = {key: doc.pop(key) for key in ("outdoor_temp_c", "da_price")}
    doc["output"] = {"house_trace": doc.pop("house_trace")}
    del doc["source_text"]
    again = parse_config(yaml.safe_dump({"schema_version": 1, **doc}))
    assert dataclasses.replace(again, source_text="") == dataclasses.replace(cfg, source_text="")


def test_unknown_keys_are_reported_beside_other_problems():
    # the typo does not hide the bad value next to it, nor the other way round
    text = MINIMAL + "output:\n  house_trace: 1\n  house_bids: true\n"
    assert problems_of(text) == [
        "output.house_trace: expected true or false, got 1",
        "output.house_bids: unknown key",
    ]
    assert problems_of(MINIMAL + "area:\n  swing: 3\n") == ["area.swing: expected a mapping, got int"]


def test_load_config_from_file(tmp_path):
    p = tmp_path / "scenario.yaml"
    p.write_text(MINIMAL)
    cfg = load_config(p)
    assert cfg.simulation.span_s == 3600
    assert cfg.config_hash() == hashlib.sha256(MINIMAL.encode()).hexdigest()
    with pytest.raises(OSError):
        load_config(tmp_path / "missing.yaml")


def test_shipped_scenarios_all_parse():
    paths = sorted((REPO_ROOT / "scenarios").glob("*.yaml"))
    stems = {p.stem for p in paths}
    assert {
        "baseline_200",
        "gen_loss_ufls",
        "null",
        "scarcity_relaxed",
        "scarcity_sync",
        "single_house",
        "storage_arb",
        "two_settlement",
    } <= stems
    for p in paths:
        cfg = load_config(p)
        assert cfg.feeders, p.name
        assert cfg.simulation.span_s % cfg.simulation.schedule_interval_s == 0, p.name


def perfbench_workloads(monkeypatch):
    """perfbench/workloads.py as a module, imported without writing bytecode beside it."""
    path = REPO_ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def scenario_texts(monkeypatch):
    """Every shipped scenario's text, and each benchmark workload's derived text."""
    texts = {p.name: p.read_text() for p in sorted((REPO_ROOT / "scenarios").glob("*.yaml"))}
    workloads = perfbench_workloads(monkeypatch)
    for name, wl in workloads.WORKLOADS.items():
        shipped = texts[f"{wl.scenario}.yaml"]
        texts[name] = workloads.derive_yaml(shipped, wl, 1)
    return texts


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml: one loader only")
def test_libyaml_and_pure_python_loaders_give_equal_configs(monkeypatch):
    assert config._YAML_LOADER is yaml.CSafeLoader
    texts = scenario_texts(monkeypatch)
    assert len(texts) >= 12
    with_libyaml = {name: parse_config(text) for name, text in texts.items()}
    monkeypatch.setattr(config, "_YAML_LOADER", yaml.SafeLoader)
    for name, text in texts.items():
        assert parse_config(text) == with_libyaml[name], name


def test_a_pyyaml_without_libyaml_parses_through_its_own_loader(monkeypatch):
    # a second copy of tgsim.config, imported where yaml has no CSafeLoader
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    spec = importlib.util.spec_from_file_location("tgsim._config_without_libyaml", config.__file__)
    fallback = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, fallback)
    spec.loader.exec_module(fallback)
    assert fallback._YAML_LOADER is yaml.SafeLoader
    text = (REPO_ROOT / "scenarios" / "gen_loss_ufls.yaml").read_text()
    # the copy's dataclasses are its own, so compare their reprs
    assert repr(fallback.parse_config(text)) == repr(parse_config(text))
    for bad in BAD_YAML:
        with pytest.raises(fallback.ConfigError) as err:
            fallback.parse_config(bad)
        assert len(err.value.problems) == 1 and err.value.problems[0].startswith("not parseable as YAML:")
