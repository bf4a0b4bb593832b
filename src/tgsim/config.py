"""Scenario configuration: schema, parsing and validation.

Scenarios are YAML documents with a top-level schema_version. The
validator walks the whole document and collects every problem it finds
with its full key path (for example area.swing.d_per_s) instead of
stopping at the first, so a config review needs one round trip. A key
the parser never reads is one of those problems, so a typo such as
output.house_trac cannot silently fall back to a default.

Defaults are deliberate: the cadence defaults (hourly schedule, five
minute markets, four second balancing ticks, one minute device ticks)
nest exactly, and the validator re-checks divisibility whenever any of
them is overridden.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import yaml

from .bidding import StorageSpec
from .frequency import RegulationSplit, SwingParams
from .thermal import KIND_HYSTERESIS, KIND_ZERO_DEADBAND, MODE_COOLING, MODE_HEATING

SCHEMA_VERSION = 1
RESERVED_PREFIX = "__"  # order ids the engine builds: __import*, __area_*, __forecast*


class ConfigError(ValueError):
    """Carries every validation problem found in a scenario document."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@dataclass(frozen=True)
class SimulationSpec:
    start: datetime
    span_s: int
    device_tick_s: int = 60
    market_interval_s: int = 300
    agc_tick_s: int = 4
    schedule_interval_s: int = 3600


@dataclass(frozen=True)
class MarketSpec:
    price_floor: float = 0.0
    price_cap: float = 1000.0
    stats_window: int = 12
    prior_mean: float = 30.0
    prior_sigma: float = 10.0


@dataclass(frozen=True)
class PopulationSpec:
    mode: str = MODE_COOLING
    thermostat: str = KIND_HYSTERESIS
    r_median: float = 2.0
    c_median: float = 2.0
    spread: float = 0.2
    q_hvac: float = -12.0
    p_rated: float = 4.0
    t_desired: float = 22.0
    t_min: float = 20.0
    t_max: float = 24.0
    deadband: float = 1.0
    comfort_k: float = 1.0
    comfort_k_spread: float = 0.0
    initial: str = "steady"  # steady | synchronized


@dataclass(frozen=True)
class FeederSpec:
    feeder_id: str
    houses: int
    capacity_kw: float
    scarcity_steps: tuple[tuple[float, float], ...] = ()
    base_load_kw: float = 0.0
    weight_normal: float = 0.9
    weight_contingency: float = 0.1
    ace_threshold_mw: float = 1.0
    ufls_recency_s: float = 300.0


@dataclass(frozen=True)
class UflsSpec:
    threshold_hz: float = 59.95
    probability: float = 0.0
    armed_fraction: float = 0.0
    hold_s: float = 60.0


@dataclass(frozen=True)
class EventSpec:
    at_s: int
    delta_p_mw: float
    duration_s: int | None = None


@dataclass(frozen=True)
class AreaSpec:
    freq_nominal_hz: float = 60.0
    swing: SwingParams = field(default_factory=lambda: SwingParams(0.01, -0.2))
    bias_mw_per_01hz: float = -1.0
    renewables_price: float = 15.0
    renewables_capacity_mw: float = 0.0
    bulk_capacity_mw: float = 100.0
    regulation_gain: float = 0.5
    regulation_capacity_mw: float = 2.0
    smoothing_tau_s: float = 60.0
    split: RegulationSplit = field(default_factory=RegulationSplit)
    droop_mw_per_hz: float = 0.0
    ufls: UflsSpec = field(default_factory=UflsSpec)
    time_error_threshold_s: float = 10.0
    time_correction_offset_hz: float = 0.02
    scheduled_interchange_mw: float = 0.0
    events: tuple[EventSpec, ...] = ()


@dataclass(frozen=True)
class StoragePlacement:
    spec: StorageSpec
    feeder_id: str
    soc0_kwh: float


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    simulation: SimulationSpec
    market: MarketSpec
    population: PopulationSpec
    feeders: tuple[FeederSpec, ...]
    area: AreaSpec
    storage: tuple[StoragePlacement, ...]
    outdoor_temp_c: float | str = 30.0  # constant, or path to a series CSV
    da_price: tuple[float, ...] = (30.0,)  # one price per scheduling period, cycled
    house_trace: bool = False
    source_text: str = ""

    def config_hash(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()


class _Mapping(dict):
    """A config mapping that remembers every key the parser looked up."""

    def __init__(self, d: dict):
        super().__init__(d)
        self.read: set = set()

    def __contains__(self, key) -> bool:
        self.read.add(key)
        return super().__contains__(key)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class _Walker:
    """Typed dictionary access that records problems instead of raising."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self._mappings: list[tuple[str, _Mapping]] = []

    def complain(self, path: str, msg: str) -> None:
        self.problems.append(f"{path}: {msg}")

    def mapping(self, d: dict, path: str) -> _Mapping:
        """d with its key reads recorded; unread_keys reports the rest."""
        m = _Mapping(d)
        self._mappings.append((path, m))
        return m

    def unread_keys(self) -> None:
        for path, m in self._mappings:
            for key in m:
                if key not in m.read:
                    self.complain(self._at(path, str(key)), "unknown key")

    def section(self, doc: dict, key: str, path: str = "") -> dict:
        where = self._at(path, key)
        val = doc.get(key)
        if val is None:
            return {}
        if not isinstance(val, dict):
            self.complain(where, f"expected a mapping, got {type(val).__name__}")
            return {}
        return self.mapping(val, where)

    @staticmethod
    def _at(path: str, key: str) -> str:
        return f"{path}.{key}" if path else key

    def number(self, d: dict, key: str, path: str, default=None, lo=None, hi=None, lo_open=None):
        where = self._at(path, key)
        if key not in d:
            if default is None:
                self.complain(where, "required value missing")
                return 0.0
            return default
        val = d[key]
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            self.complain(where, f"expected a number, got {val!r}")
            return default if default is not None else 0.0
        v = float(val)
        if not math.isfinite(v):
            self.complain(where, "must be finite")
            return default if default is not None else 0.0
        if lo is not None and v < lo:
            self.complain(where, f"must be >= {lo}, got {v}")
        if lo_open is not None and v <= lo_open:
            self.complain(where, f"must be > {lo_open}, got {v}")
        if hi is not None and v > hi:
            self.complain(where, f"must be <= {hi}, got {v}")
        return v

    def integer(self, d: dict, key: str, path: str, default=None, lo=None):
        where = self._at(path, key)
        if key not in d:
            if default is None:
                self.complain(where, "required value missing")
                return 0
            return default
        val = d[key]
        if isinstance(val, bool) or not isinstance(val, int):
            self.complain(where, f"expected an integer, got {val!r}")
            return default if default is not None else 0
        if lo is not None and val < lo:
            self.complain(where, f"must be >= {lo}, got {val}")
        return val

    def config_id(self, ident: str, seen: set[str], kind: str, where: str) -> None:
        """Record a config-given id; it must be new and outside the reserved prefix."""
        if ident in seen:
            self.complain(where, f"duplicate {kind} id {ident!r}")
        if ident.startswith(RESERVED_PREFIX):
            self.complain(where, f"ids starting with {RESERVED_PREFIX!r} are reserved, got {ident!r}")
        seen.add(ident)

    def choice(self, d: dict, key: str, path: str, options: tuple[str, ...], default: str):
        val = d.get(key, default)
        if val not in options:
            self.complain(self._at(path, key), f"expected one of {options}, got {val!r}")
            return default
        return val


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document, collecting all problems."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"not parseable as YAML: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be a mapping"])

    w = _Walker()

    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        w.complain("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")

    seed = w.integer(doc, "seed", "", default=0, lo=0)

    sim_d = w.section(doc, "simulation")
    start_raw = sim_d.get("start", "2026-07-15T00:00:00")
    try:
        start = datetime.fromisoformat(str(start_raw))
    except ValueError:
        w.complain("simulation.start", f"not an ISO-8601 timestamp: {start_raw!r}")
        start = datetime(2026, 7, 15)
    sim = SimulationSpec(
        start=start,
        span_s=w.integer(sim_d, "span_s", "simulation", default=None, lo=1),
        device_tick_s=w.integer(sim_d, "device_tick_s", "simulation", default=60, lo=1),
        market_interval_s=w.integer(sim_d, "market_interval_s", "simulation", default=300, lo=1),
        agc_tick_s=w.integer(sim_d, "agc_tick_s", "simulation", default=4, lo=1),
        schedule_interval_s=w.integer(sim_d, "schedule_interval_s", "simulation", default=3600, lo=1),
    )
    for small, big, name in (
        (sim.agc_tick_s, sim.device_tick_s, "device_tick_s"),
        (sim.device_tick_s, sim.market_interval_s, "market_interval_s"),
        (sim.market_interval_s, sim.schedule_interval_s, "schedule_interval_s"),
        (sim.schedule_interval_s, sim.span_s, "span_s"),
    ):
        if small > 0 and big % small != 0:
            w.complain(f"simulation.{name}", f"{big} is not a multiple of the next faster tick {small}")
    # each day is scheduled ahead as a whole number of scheduling periods
    if sim.schedule_interval_s > 0 and 86400 % sim.schedule_interval_s != 0:
        w.complain(
            "simulation.schedule_interval_s", f"must divide one day (86400 s), got {sim.schedule_interval_s}"
        )

    mkt_d = w.section(doc, "market")
    market = MarketSpec(
        price_floor=w.number(mkt_d, "price_floor", "market", default=0.0),
        price_cap=w.number(mkt_d, "price_cap", "market", default=1000.0),
        stats_window=w.integer(mkt_d, "stats_window", "market", default=12, lo=2),
        prior_mean=w.number(mkt_d, "prior_mean", "market", default=30.0),
        prior_sigma=w.number(mkt_d, "prior_sigma", "market", default=10.0, lo=0.0),
    )
    if market.price_floor >= market.price_cap:
        w.complain("market.price_floor", "must sit below market.price_cap")

    pop_d = w.section(doc, "population")
    population = PopulationSpec(
        mode=w.choice(pop_d, "mode", "population", (MODE_COOLING, MODE_HEATING), MODE_COOLING),
        thermostat=w.choice(
            pop_d, "thermostat", "population", (KIND_HYSTERESIS, KIND_ZERO_DEADBAND), KIND_HYSTERESIS
        ),
        r_median=w.number(pop_d, "r_median", "population", default=2.0, lo_open=0.0),
        c_median=w.number(pop_d, "c_median", "population", default=2.0, lo_open=0.0),
        spread=w.number(pop_d, "spread", "population", default=0.2, lo=0.0),
        q_hvac=w.number(pop_d, "q_hvac", "population", default=-12.0),
        p_rated=w.number(pop_d, "p_rated", "population", default=4.0, lo_open=0.0),
        t_desired=w.number(pop_d, "t_desired", "population", default=22.0),
        t_min=w.number(pop_d, "t_min", "population", default=20.0),
        t_max=w.number(pop_d, "t_max", "population", default=24.0),
        deadband=w.number(pop_d, "deadband", "population", default=1.0, lo_open=0.0),
        comfort_k=w.number(pop_d, "comfort_k", "population", default=1.0, lo=0.0),
        comfort_k_spread=w.number(pop_d, "comfort_k_spread", "population", default=0.0, lo=0.0),
        initial=w.choice(pop_d, "initial", "population", ("steady", "synchronized"), "steady"),
    )
    if not population.t_min < population.t_desired < population.t_max:
        w.complain("population.t_desired", "need t_min < t_desired < t_max")
    if population.mode == MODE_COOLING and population.q_hvac >= 0:
        w.complain("population.q_hvac", "cooling equipment must remove heat (q_hvac < 0)")
    if population.mode == MODE_HEATING and population.q_hvac <= 0:
        w.complain("population.q_hvac", "heating equipment must add heat (q_hvac > 0)")

    feeders: list[FeederSpec] = []
    feeder_raw = doc.get("feeders", [])
    if not isinstance(feeder_raw, list) or not feeder_raw:
        w.complain("feeders", "at least one feeder is required")
        feeder_raw = []
    seen_ids: set[str] = set()
    first_steps: list[tuple[str, float]] = []  # (feeder path, first scarcity step price)
    for idx, fd in enumerate(feeder_raw):
        path = f"feeders[{idx}]"
        if not isinstance(fd, dict):
            w.complain(path, "expected a mapping")
            continue
        fd = w.mapping(fd, path)
        fid = str(fd.get("id", f"feeder{idx}"))
        w.config_id(fid, seen_ids, "feeder", f"{path}.id")
        steps_raw = fd.get("scarcity_steps", [])
        steps: list[tuple[float, float]] = []
        if not isinstance(steps_raw, list):
            w.complain(f"{path}.scarcity_steps", "expected a list of [price, extra_kw] pairs")
        else:
            last_price = None
            for j, pair in enumerate(steps_raw):
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                    w.complain(f"{path}.scarcity_steps[{j}]", f"expected [price, extra_kw], got {pair!r}")
                    continue
                # a step that is not two finite numbers gets no order checks
                before = len(w.problems)
                step = dict(zip(("price", "extra_kw"), pair))
                price = w.number(step, "price", f"{path}.scarcity_steps[{j}]")
                extra = w.number(step, "extra_kw", f"{path}.scarcity_steps[{j}]")
                if len(w.problems) > before:
                    continue
                if extra <= 0:
                    w.complain(f"{path}.scarcity_steps[{j}]", "extra_kw must be positive")
                if last_price is not None and price <= last_price:
                    w.complain(f"{path}.scarcity_steps[{j}]", "step prices must strictly increase")
                if price > market.price_cap:
                    w.complain(f"{path}.scarcity_steps[{j}]", "step price above market.price_cap")
                last_price = price
                steps.append((price, extra))
        if steps:
            first_steps.append((path, steps[0][0]))
        feeders.append(
            FeederSpec(
                feeder_id=fid,
                houses=w.integer(fd, "houses", path, default=0, lo=0),
                capacity_kw=w.number(fd, "capacity_kw", path, default=None, lo=0.0),
                scarcity_steps=tuple(steps),
                base_load_kw=w.number(fd, "base_load_kw", path, default=0.0, lo=0.0),
                weight_normal=w.number(fd, "weight_normal", path, default=0.9, lo=0.0, hi=1.0),
                weight_contingency=w.number(fd, "weight_contingency", path, default=0.1, lo=0.0, hi=1.0),
                ace_threshold_mw=w.number(fd, "ace_threshold_mw", path, default=1.0, lo=0.0),
                ufls_recency_s=w.number(fd, "ufls_recency_s", path, default=300.0, lo=0.0),
            )
        )

    area_d = w.section(doc, "area")
    swing_d = w.section(area_d, "swing", "area") if area_d else {}
    m_val = w.number(swing_d, "m_hz_per_s_mw", "area.swing", default=0.01, lo_open=0.0)
    d_val = w.number(swing_d, "d_per_s", "area.swing", default=-0.2)
    if d_val >= 0:
        w.complain("area.swing.d_per_s", "damping must be negative")
        d_val = -0.2
    split_d = w.section(area_d, "split", "area") if area_d else {}
    ufls_d = w.section(area_d, "ufls", "area") if area_d else {}
    events: list[EventSpec] = []
    events_raw = area_d.get("events", [])
    if not isinstance(events_raw, list):
        w.complain("area.events", "expected a list")
        events_raw = []
    for j, ev in enumerate(events_raw):
        path = f"area.events[{j}]"
        if not isinstance(ev, dict):
            w.complain(path, "expected a mapping")
            continue
        ev = w.mapping(ev, path)
        duration = ev.get("duration_s")
        if duration is not None:
            duration = w.integer(ev, "duration_s", path, default=0, lo=1)
        events.append(
            EventSpec(
                at_s=w.integer(ev, "at_s", path, default=None, lo=0),
                delta_p_mw=w.number(ev, "delta_p_mw", path, default=None),
                duration_s=duration,
            )
        )

    bias = w.number(area_d, "bias_mw_per_01hz", "area", default=-1.0)
    if bias >= 0:
        w.complain("area.bias_mw_per_01hz", "bias is negative by convention")
    area = AreaSpec(
        freq_nominal_hz=w.number(area_d, "freq_nominal_hz", "area", default=60.0, lo_open=0.0),
        swing=SwingParams(m_hz_per_s_mw=m_val, d_per_s=d_val),
        bias_mw_per_01hz=bias,
        renewables_price=w.number(area_d, "renewables_price", "area", default=15.0),
        renewables_capacity_mw=w.number(area_d, "renewables_capacity_mw", "area", default=0.0, lo=0.0),
        bulk_capacity_mw=w.number(area_d, "bulk_capacity_mw", "area", default=100.0, lo=0.0),
        regulation_gain=w.number(area_d, "regulation_gain", "area", default=0.5, lo=0.0),
        regulation_capacity_mw=w.number(area_d, "regulation_capacity_mw", "area", default=2.0, lo=0.0),
        smoothing_tau_s=w.number(area_d, "smoothing_tau_s", "area", default=60.0, lo_open=0.0),
        split=RegulationSplit(
            alpha=w.number(split_d, "alpha", "area.split", default=0.0, lo=0.0, hi=1.0),
            beta=w.number(split_d, "beta", "area.split", default=0.0, lo=0.0, hi=1.0),
        ),
        droop_mw_per_hz=w.number(area_d, "droop_mw_per_hz", "area", default=0.0, lo=0.0),
        ufls=UflsSpec(
            threshold_hz=w.number(ufls_d, "threshold_hz", "area.ufls", default=59.95, lo_open=0.0),
            probability=w.number(ufls_d, "probability", "area.ufls", default=0.0, lo=0.0, hi=1.0),
            armed_fraction=w.number(ufls_d, "armed_fraction", "area.ufls", default=0.0, lo=0.0, hi=1.0),
            hold_s=w.number(ufls_d, "hold_s", "area.ufls", default=60.0, lo=0.0),
        ),
        time_error_threshold_s=w.number(area_d, "time_error_threshold_s", "area", default=10.0, lo=0.0),
        time_correction_offset_hz=w.number(area_d, "time_correction_offset_hz", "area", default=0.02, lo=0.0),
        scheduled_interchange_mw=w.number(area_d, "scheduled_interchange_mw", "area", default=0.0),
        events=tuple(events),
    )
    if sim.agc_tick_s * abs(area.swing.d_per_s) >= 1.0:
        w.complain("area.swing.d_per_s", f"unstable with agc_tick_s={sim.agc_tick_s}: need tick * |D| < 1")
    if area.smoothing_tau_s < sim.agc_tick_s:
        w.complain("area.smoothing_tau_s", "must be at least the balancing tick")
    if area.ufls.threshold_hz >= area.freq_nominal_hz:
        w.complain("area.ufls.threshold_hz", "must sit below the nominal frequency")

    storage: list[StoragePlacement] = []
    storage_ids: set[str] = set()
    storage_raw = doc.get("storage", [])
    if not isinstance(storage_raw, list):
        w.complain("storage", "expected a list")
        storage_raw = []
    for j, sd in enumerate(storage_raw):
        path = f"storage[{j}]"
        if not isinstance(sd, dict):
            w.complain(path, "expected a mapping")
            continue
        sd = w.mapping(sd, path)
        sid = str(sd.get("id", f"storage{j}"))
        w.config_id(sid, storage_ids, "storage", f"{path}.id")
        fid = str(sd.get("feeder", ""))
        if fid not in seen_ids:
            w.complain(f"{path}.feeder", f"unknown feeder {fid!r}")
        cap = w.number(sd, "capacity_kwh", path, default=None, lo_open=0.0)
        buy_below = w.number(sd, "buy_below", path, default=None)
        sell_above = w.number(sd, "sell_above", path, default=None)
        if buy_below is not None and sell_above is not None and buy_below >= sell_above:
            w.complain(f"{path}.buy_below", "must sit strictly below sell_above")
            sell_above = buy_below + 1.0
        p_charge = w.number(sd, "p_charge", path, default=None, lo_open=0.0)
        p_discharge = w.number(sd, "p_discharge", path, default=None, lo_open=0.0)
        efficiency = w.number(sd, "efficiency", path, default=1.0, lo_open=0.0, hi=1.0)
        soc0 = w.number(sd, "soc0_kwh", path, default=0.0, lo=0.0)
        try:
            spec = StorageSpec(
                device_id=sid,
                capacity_kwh=cap or 1.0,
                p_charge=p_charge or 1.0,
                p_discharge=p_discharge or 1.0,
                buy_below=buy_below if buy_below is not None else 0.0,
                sell_above=sell_above if sell_above is not None else 1.0,
                efficiency=efficiency,
            )
        except ValueError as exc:
            w.complain(path, str(exc))
            continue
        if cap is not None and soc0 > cap:
            w.complain(f"{path}.soc0_kwh", "initial charge exceeds capacity")
        storage.append(StoragePlacement(spec=spec, feeder_id=fid, soc0_kwh=soc0))

    inputs_d = w.section(doc, "inputs")
    t_out_raw = inputs_d.get("outdoor_temp_c", 30.0)
    if isinstance(t_out_raw, (int, float)) and not isinstance(t_out_raw, bool):
        outdoor: float | str = float(t_out_raw)
    elif isinstance(t_out_raw, str):
        outdoor = t_out_raw
    else:
        w.complain("inputs.outdoor_temp_c", f"expected a number or CSV path, got {t_out_raw!r}")
        outdoor = 30.0
    da_raw = inputs_d.get("da_price", 30.0)
    if isinstance(da_raw, (int, float)) and not isinstance(da_raw, bool):
        da = (float(da_raw),)
    elif isinstance(da_raw, list) and da_raw and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in da_raw
    ):
        da = tuple(float(x) for x in da_raw)
    else:
        w.complain("inputs.da_price", f"expected a price or list of hourly prices, got {da_raw!r}")
        da = (30.0,)
    for price in da:
        if price <= area.renewables_price:
            w.complain("inputs.da_price", f"bulk price {price} must exceed area.renewables_price")
            break
        if price >= market.price_cap:
            w.complain("inputs.da_price", f"bulk price {price} must sit below market.price_cap")
            break
    for path, first_price in first_steps:
        if max(da) >= first_price:
            w.complain(f"{path}.scarcity_steps", "first step price must exceed every day-ahead price")

    out_d = w.section(doc, "output")
    house_trace = out_d.get("house_trace", False)
    if not isinstance(house_trace, bool):
        w.complain("output.house_trace", f"expected true or false, got {house_trace!r}")
        house_trace = False

    known = {
        "schema_version", "seed", "simulation", "market", "population",
        "feeders", "area", "storage", "inputs", "output",
    }
    for key in doc:
        if key not in known:
            w.complain(str(key), "unknown top-level section")
    w.unread_keys()

    if w.problems:
        raise ConfigError(w.problems)

    return ScenarioConfig(
        seed=seed,
        simulation=sim,
        market=market,
        population=population,
        feeders=tuple(feeders),
        area=area,
        storage=tuple(storage),
        outdoor_temp_c=outdoor,
        da_price=da,
        house_trace=house_trace,
        source_text=text,
    )


def load_config(path) -> ScenarioConfig:
    text = Path(path).read_text()
    return parse_config(text)
