"""Scenario configuration: schema, parsing and validation.

Scenarios are YAML documents with a top-level schema_version. Each
section is one spec dataclass below: a field's name is its key and its
default the key's default (no default: required); inputs and output
hold ScenarioConfig's outdoor_temp_c, da_price and house_trace. Feeder
and storage entries spell their ids `id`, which must be YAML strings,
and a battery's feeder `feeder`. The validator collects every problem
with its full key path (for example area.swing.d_per_s) instead of
stopping at the first, so a config review needs one round trip. A key
outside its section's field names is one of those problems, so a typo
such as output.house_trac cannot silently fall back to a default.

Each kind of value is read one way: _Walker.number reads every int and
float key, its test of a finite number (_number_problem) also decides
the inputs' temperature and prices, and _Walker.entries walks the three
list sections, feeders, area.events and storage.

Defaults are deliberate: the cadence defaults (hourly schedule, five
minute markets, four second balancing ticks, one minute device ticks)
nest exactly, and the validator re-checks divisibility whenever any of
them is overridden.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import cache
from pathlib import Path

import yaml

from .bidding import StorageSpec
from .frequency import RegulationSplit, SwingParams
from .spectral import Series, ingest_series
from .thermal import KIND_HYSTERESIS, KIND_ZERO_DEADBAND, MODE_COOLING, MODE_HEATING

SCHEMA_VERSION = 1
# libyaml's parser under PyYAML's safe constructor and resolver, so the same
# documents as yaml.SafeLoader at a fraction of the time; that pure-Python
# loader only where PyYAML was built without libyaml
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
RESERVED_PREFIX = "__"  # order ids the engine builds: __import*, __area_*


class ConfigError(ValueError):
    """Carries every validation problem found in a scenario document."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@dataclass(frozen=True, kw_only=True)
class SimulationSpec:
    start: datetime = datetime(2026, 7, 15)
    span_s: int
    device_tick_s: int = 60
    market_interval_s: int = 300
    agc_tick_s: int = 4
    schedule_interval_s: int = 3600


@dataclass(frozen=True, kw_only=True)
class MarketSpec:
    price_floor: float = 0.0
    price_cap: float = 1000.0
    stats_window: int = 12
    prior_mean: float = 30.0
    prior_sigma: float = 10.0


@dataclass(frozen=True, kw_only=True)
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


@dataclass(frozen=True, kw_only=True)
class FeederSpec:
    feeder_id: str  # YAML key: id
    houses: int = 0
    capacity_kw: float
    scarcity_steps: tuple[tuple[float, float], ...] = ()
    base_load_kw: float = 0.0
    weight_normal: float = 0.9
    weight_contingency: float = 0.1
    ace_threshold_mw: float = 1.0
    ufls_recency_s: float = 300.0


@dataclass(frozen=True, kw_only=True)
class UflsSpec:
    """Underfrequency load shedding.

    Each feeder arms the ceiling of ``armed_fraction`` times its houses,
    counted on the fraction as written, not on its binary float: 0.07 of
    100 houses arms 7, though ``0.07 * 100`` is 7.000000000000001.
    """

    threshold_hz: float = 59.95
    probability: float = 0.0
    armed_fraction: float = 0.0
    hold_s: float = 60.0


@dataclass(frozen=True, kw_only=True)
class EventSpec:
    at_s: int
    delta_p_mw: float
    duration_s: int | None = None


@dataclass(frozen=True, kw_only=True)
class AreaSpec:
    freq_nominal_hz: float = 60.0
    swing: SwingParams
    bias_mw_per_01hz: float = -1.0
    renewables_price: float = 15.0
    renewables_capacity_mw: float = 0.0
    bulk_capacity_mw: float = 100.0
    regulation_gain: float = 0.5
    regulation_capacity_mw: float = 2.0
    smoothing_tau_s: float = 60.0
    split: RegulationSplit
    droop_mw_per_hz: float = 0.0
    ufls: UflsSpec
    time_error_threshold_s: float = 10.0
    time_correction_offset_hz: float = 0.02
    scheduled_interchange_mw: float = 0.0
    events: tuple[EventSpec, ...] = ()


@dataclass(frozen=True, kw_only=True)
class StoragePlacement:
    spec: StorageSpec  # YAML keys: the StorageSpec fields, device_id spelled id
    feeder_id: str  # YAML key: feeder
    soc0_kwh: float = 0.0


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    seed: int = 0
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


@cache
def _keys(cls) -> frozenset[str]:
    """Field names of a spec dataclass: the keys its section may hold."""
    return frozenset(f.name for f in dataclasses.fields(cls))


@cache
def _numeric_fields(cls) -> tuple[tuple[str, bool, object], ...]:
    """(name, is_integer, default or None) of each int or float field, in field order."""
    out = []
    for f in dataclasses.fields(cls):
        kind = getattr(f.type, "__name__", f.type)  # a str under `from __future__ import annotations`
        if kind in ("int", "float"):
            out.append((f.name, kind == "int", None if f.default is dataclasses.MISSING else f.default))
    return tuple(out)


# feeder and storage entries spell their ids `id` and a battery's feeder `feeder`
_FEEDER_KEYS = _keys(FeederSpec) - {"feeder_id"} | {"id"}
_STORAGE_KEYS = (
    _keys(StorageSpec) - {"device_id"} | _keys(StoragePlacement) - {"spec", "feeder_id"} | {"id", "feeder"}
)


def _number_problem(x, integer: bool = False) -> str:
    """Why x is not a finite number ("" when it is one). A bool is not a
    number; with integer set, an int is one and nothing else is;
    otherwise an int or float is one if a float holds it finitely, so an
    int past the float range is as infinite as .inf."""
    if isinstance(x, bool) or not isinstance(x, int if integer else (int, float)):
        return f"expected {'an integer' if integer else 'a number'}, got {x!r}"
    try:
        return "" if integer or math.isfinite(x) else "must be finite"
    except OverflowError:
        return "must be finite"


# per-key bounds for _Walker.fields
_POSITIVE = {"lo_open": 0.0}
_NON_NEGATIVE = {"lo": 0.0}
_FRACTION = {"lo": 0.0, "hi": 1.0}
_TICK = {"lo": 1}


class _Walker:
    """Typed dictionary access that records problems instead of raising."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.unknown: list[str] = []  # unknown-key problems, reported after the rest

    def complain(self, path: str, msg: str) -> None:
        self.problems.append(f"{path}: {msg}")

    def known_keys(self, d: dict, path: str, known: frozenset[str]) -> None:
        """Note every key of d outside known as an unknown key."""
        self.unknown.extend(f"{self._at(path, str(key))}: unknown key" for key in d if key not in known)

    def section(self, doc: dict, key: str, known: frozenset[str], path: str = "") -> dict:
        where = self._at(path, key)
        val = doc.get(key)
        if val is None:
            return {}
        if not isinstance(val, dict):
            self.complain(where, f"expected a mapping, got {type(val).__name__}")
            return {}
        self.known_keys(val, where, known)
        return val

    @staticmethod
    def _at(path: str, key: str) -> str:
        return f"{path}.{key}" if path else key

    # A bad value, missing, of the wrong type or out of bounds, reads as
    # the default (0 if required), so no cross check reports it again.
    def number(self, d: dict, key: str, path: str, default=None, lo=None, hi=None, lo_open=None, integer=False):
        """d[key] as a float, or as an int where integer is set."""
        where = self._at(path, key)
        fallback = (0 if integer else 0.0) if default is None else default
        if key not in d:
            if default is None:
                self.complain(where, "required value missing")
            return fallback
        val = d[key]
        problem = _number_problem(val, integer)
        if not problem:
            v = val if integer else float(val)
            if lo is not None and v < lo:
                problem = f"must be >= {lo}, got {v}"
            elif lo_open is not None and v <= lo_open:
                problem = f"must be > {lo_open}, got {v}"
            elif hi is not None and v > hi:
                problem = f"must be <= {hi}, got {v}"
            else:
                return v
        self.complain(where, problem)
        return fallback

    def fields(self, cls, d: dict, path: str, **bounds: dict) -> dict:
        """Every int and float field of spec class cls, read from section d.

        The field's name is the key, its annotation picks an int or a
        float, and its default is the default (none: required). bounds
        maps a field name to the lo/hi/lo_open limits of its key.
        """
        values = {}
        for name, is_integer, default in _numeric_fields(cls):
            values[name] = self.number(d, name, path, default, integer=is_integer, **bounds.pop(name, {}))
        if bounds:
            raise TypeError(f"{cls.__name__} has no numeric fields {sorted(bounds)}")
        return values

    def entries(self, doc: dict, key: str, known: frozenset[str], path: str = "", empty: str = ""):
        """(index, path, entry) of each mapping in list section doc[key],
        its keys checked against known. A non-list is a problem, and so
        is an empty list where empty is the problem to report instead."""
        where = self._at(path, key)
        raw = doc.get(key, [])
        if not isinstance(raw, list) or (empty and not raw):
            self.complain(where, empty or "expected a list")
            return
        for idx, entry in enumerate(raw):
            at = f"{where}[{idx}]"
            if not isinstance(entry, dict):
                self.complain(at, "expected a mapping")
                continue
            self.known_keys(entry, at, known)
            yield idx, at, entry

    def string(self, d: dict, key: str, path: str, default: str) -> str | None:
        """d[key] (default when absent) if it is a string, else None and a problem."""
        val = d.get(key, default)
        if not isinstance(val, str):
            self.complain(self._at(path, key), f"expected a string, got {val!r}")
            return None
        return val

    def config_id(self, d: dict, path: str, default: str, seen: set[str], kind: str) -> str:
        """A config-given id: a string, new, and outside the reserved prefix."""
        ident = self.string(d, "id", path, default)
        if ident is None:
            return default
        where = f"{path}.id"
        if ident in seen:
            self.complain(where, f"duplicate {kind} id {ident!r}")
        if ident.startswith(RESERVED_PREFIX):
            self.complain(where, f"ids starting with {RESERVED_PREFIX!r} are reserved, got {ident!r}")
        seen.add(ident)
        return ident

    def choice(self, d: dict, key: str, path: str, options: tuple[str, ...], default: str):
        val = d.get(key, default)
        if val not in options:
            self.complain(self._at(path, key), f"expected one of {options}, got {val!r}")
            return default
        return val


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document, collecting all problems."""
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError([f"not parseable as YAML: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["top level must be a mapping"])

    w = _Walker()

    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        w.complain("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")

    seed = w.number(doc, "seed", "", ScenarioConfig.seed, lo=0, integer=True)

    sim_d = w.section(doc, "simulation", _keys(SimulationSpec))
    start_raw = sim_d.get("start", SimulationSpec.start)
    try:
        start = datetime.fromisoformat(str(start_raw))
    except ValueError:
        w.complain("simulation.start", f"not an ISO-8601 timestamp: {start_raw!r}")
        start = SimulationSpec.start
    if start.tzinfo is not None:
        w.complain("simulation.start", f"must be local time without a UTC offset, got {str(start_raw)!r}")
        start = SimulationSpec.start
    sim = SimulationSpec(start=start, **w.fields(
        SimulationSpec, sim_d, "simulation",
        span_s=_TICK, device_tick_s=_TICK, market_interval_s=_TICK, agc_tick_s=_TICK, schedule_interval_s=_TICK,
    ))
    for small, big, name in (
        (sim.agc_tick_s, sim.device_tick_s, "device_tick_s"),
        (sim.device_tick_s, sim.market_interval_s, "market_interval_s"),
        (sim.market_interval_s, sim.schedule_interval_s, "schedule_interval_s"),
        (sim.schedule_interval_s, sim.span_s, "span_s"),
    ):
        if big % small != 0:
            w.complain(f"simulation.{name}", f"{big} is not a multiple of the next faster tick {small}")
    # each day is scheduled ahead as a whole number of scheduling periods
    if 86400 % sim.schedule_interval_s != 0:
        w.complain(
            "simulation.schedule_interval_s", f"must divide one day (86400 s), got {sim.schedule_interval_s}"
        )

    mkt_d = w.section(doc, "market", _keys(MarketSpec))
    market = MarketSpec(**w.fields(MarketSpec, mkt_d, "market", stats_window={"lo": 2}, prior_sigma=_NON_NEGATIVE))
    if market.price_floor >= market.price_cap:
        w.complain("market.price_floor", "must sit below market.price_cap")
    # a prior outside the band sets every house's bid at a rail until the window fills
    elif not market.price_floor <= market.prior_mean <= market.price_cap:
        w.complain("market.prior_mean", "must lie within [market.price_floor, market.price_cap]")

    pop_d = w.section(doc, "population", _keys(PopulationSpec))
    population = PopulationSpec(
        mode=w.choice(pop_d, "mode", "population", (MODE_COOLING, MODE_HEATING), PopulationSpec.mode),
        thermostat=w.choice(
            pop_d, "thermostat", "population", (KIND_HYSTERESIS, KIND_ZERO_DEADBAND), PopulationSpec.thermostat
        ),
        **w.fields(
            PopulationSpec, pop_d, "population",
            r_median=_POSITIVE, c_median=_POSITIVE, spread=_NON_NEGATIVE, p_rated=_POSITIVE,
            deadband=_POSITIVE, comfort_k=_NON_NEGATIVE, comfort_k_spread=_NON_NEGATIVE,
        ),
        initial=w.choice(pop_d, "initial", "population", ("steady", "synchronized"), PopulationSpec.initial),
    )
    if not population.t_min < population.t_desired < population.t_max:
        w.complain("population.t_desired", "need t_min < t_desired < t_max")
    if population.mode == MODE_COOLING and population.q_hvac >= 0:
        w.complain("population.q_hvac", "cooling equipment must remove heat (q_hvac < 0)")
    if population.mode == MODE_HEATING and population.q_hvac <= 0:
        w.complain("population.q_hvac", "heating equipment must add heat (q_hvac > 0)")

    feeders: list[FeederSpec] = []
    seen_ids: set[str] = set()
    first_steps: list[tuple[str, float]] = []  # (feeder path, first scarcity step price)
    for idx, path, fd in w.entries(doc, "feeders", _FEEDER_KEYS, empty="at least one feeder is required"):
        fid = w.config_id(fd, path, f"feeder{idx}", seen_ids, "feeder")
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
        feeders.append(FeederSpec(feeder_id=fid, scarcity_steps=tuple(steps), **w.fields(
            FeederSpec, fd, path, houses={"lo": 0}, capacity_kw=_NON_NEGATIVE, base_load_kw=_NON_NEGATIVE,
            weight_normal=_FRACTION, weight_contingency=_FRACTION, ace_threshold_mw=_NON_NEGATIVE,
            ufls_recency_s=_NON_NEGATIVE,
        )))

    area_d = w.section(doc, "area", _keys(AreaSpec))
    swing_d = w.section(area_d, "swing", _keys(SwingParams), "area")
    # SwingParams checks its own values: a section with a bad number
    # falls back to the defaults instead of raising
    before = len(w.problems)
    swing = w.fields(SwingParams, swing_d, "area.swing", m_hz_per_s_mw=_POSITIVE)
    if swing["d_per_s"] >= 0:
        w.complain("area.swing.d_per_s", "damping must be negative")
    swing = SwingParams(**swing) if len(w.problems) == before else SwingParams()
    split_d = w.section(area_d, "split", _keys(RegulationSplit), "area")
    ufls_d = w.section(area_d, "ufls", _keys(UflsSpec), "area")
    events: list[EventSpec] = []
    for _, path, ev in w.entries(area_d, "events", _keys(EventSpec), "area"):
        duration = ev.get("duration_s")
        if duration is not None:
            duration = w.number(ev, "duration_s", path, lo=1, integer=True)
        events.append(EventSpec(**w.fields(EventSpec, ev, path, at_s={"lo": 0}), duration_s=duration))

    area_values = w.fields(
        AreaSpec, area_d, "area", freq_nominal_hz=_POSITIVE, renewables_capacity_mw=_NON_NEGATIVE,
        bulk_capacity_mw=_NON_NEGATIVE, regulation_gain=_NON_NEGATIVE, regulation_capacity_mw=_NON_NEGATIVE,
        smoothing_tau_s=_POSITIVE, droop_mw_per_hz=_NON_NEGATIVE, time_error_threshold_s=_NON_NEGATIVE,
        time_correction_offset_hz=_NON_NEGATIVE,
    )
    if area_values["bias_mw_per_01hz"] >= 0:
        w.complain("area.bias_mw_per_01hz", "bias is negative by convention")
    split = RegulationSplit(**w.fields(RegulationSplit, split_d, "area.split", alpha=_FRACTION, beta=_FRACTION))
    ufls = w.fields(UflsSpec, ufls_d, "area.ufls", threshold_hz=_POSITIVE, probability=_FRACTION,
                    armed_fraction=_FRACTION, hold_s=_NON_NEGATIVE)
    area = AreaSpec(swing=swing, split=split, ufls=UflsSpec(**ufls), events=tuple(events), **area_values)
    if sim.agc_tick_s * abs(area.swing.d_per_s) >= 1.0:
        w.complain("area.swing.d_per_s", f"unstable with agc_tick_s={sim.agc_tick_s}: need tick * |D| < 1")
    if area.smoothing_tau_s < sim.agc_tick_s:
        w.complain("area.smoothing_tau_s", "must be at least the balancing tick")
    if area.ufls.threshold_hz >= area.freq_nominal_hz:
        w.complain("area.ufls.threshold_hz", "must sit below the nominal frequency")

    storage: list[StoragePlacement] = []
    storage_ids: set[str] = set()
    for j, path, sd in w.entries(doc, "storage", _STORAGE_KEYS):
        sid = w.config_id(sd, path, f"storage{j}", storage_ids, "storage")
        fid = w.string(sd, "feeder", path, "")
        if fid is not None and fid not in seen_ids:
            w.complain(f"{path}.feeder", f"unknown feeder {fid!r}")
        # a battery whose own numbers do not all read cleanly gets no cross checks
        before = len(w.problems)
        values = w.fields(StorageSpec, sd, path, capacity_kwh=_POSITIVE, p_charge=_POSITIVE, p_discharge=_POSITIVE,
                          efficiency={"lo_open": 0.0, "hi": 1.0})
        placement = w.fields(StoragePlacement, sd, path, soc0_kwh=_NON_NEGATIVE)
        if len(w.problems) > before:
            continue
        if values["buy_below"] >= values["sell_above"]:
            w.complain(f"{path}.buy_below", "must sit strictly below sell_above")
        # a leg outside the market's band would clear outside it
        for leg in ("buy_below", "sell_above"):
            if not market.price_floor <= values[leg] <= market.price_cap:
                w.complain(f"{path}.{leg}", "must lie within [market.price_floor, market.price_cap]")
        if placement["soc0_kwh"] > values["capacity_kwh"]:
            w.complain(f"{path}.soc0_kwh", "initial charge exceeds capacity")
        if len(w.problems) == before:
            storage.append(StoragePlacement(spec=StorageSpec(device_id=sid, **values), feeder_id=fid, **placement))

    inputs_d = w.section(doc, "inputs", frozenset({"outdoor_temp_c", "da_price"}))
    t_out_raw = inputs_d.get("outdoor_temp_c", ScenarioConfig.outdoor_temp_c)
    if not _number_problem(t_out_raw):
        outdoor: float | str = float(t_out_raw)
    elif isinstance(t_out_raw, str):
        outdoor = t_out_raw
    else:
        w.complain("inputs.outdoor_temp_c", f"expected a number or CSV path, got {t_out_raw!r}")
        outdoor = ScenarioConfig.outdoor_temp_c
    da_raw = inputs_d.get("da_price", ScenarioConfig.da_price)
    da_list = da_raw if isinstance(da_raw, (list, tuple)) else [da_raw]
    if da_list and not any(_number_problem(x) for x in da_list):
        da = tuple(float(x) for x in da_list)
    else:
        w.complain("inputs.da_price", f"expected a price or list of hourly prices, got {da_raw!r}")
        da = ScenarioConfig.da_price
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

    out_d = w.section(doc, "output", frozenset({"house_trace"}))
    house_trace = out_d.get("house_trace", ScenarioConfig.house_trace)
    if not isinstance(house_trace, bool):
        w.complain("output.house_trace", f"expected true or false, got {house_trace!r}")
        house_trace = ScenarioConfig.house_trace

    known = {
        "schema_version", "seed", "simulation", "market", "population",
        "feeders", "area", "storage", "inputs", "output",
    }
    for key in doc:
        if key not in known:
            w.complain(str(key), "unknown top-level section")

    if w.problems or w.unknown:
        raise ConfigError(w.problems + w.unknown)

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


def read_outdoor_series(cfg: ScenarioConfig, base_dir) -> Series:
    """Reads the outdoor series cfg names, as a run uses it; the one code
    that reads or checks it, called once per SimulationRun.

    A relative path resolves against base_dir, the scenario file's
    directory, and an absolute one is read as written. A relative path
    without a base_dir, a malformed series, or one that does not cover
    the run is a ConfigError; a missing file stays an OSError.
    """
    path = Path(cfg.outdoor_temp_c)
    if not path.is_absolute():
        if base_dir is None:
            raise ConfigError([f"inputs.outdoor_temp_c: relative path {cfg.outdoor_temp_c!r} "
                               "needs the scenario file's directory"])
        path = Path(base_dir) / path
    try:
        series = ingest_series(path, units="degC")
    except ValueError as exc:
        raise ConfigError([f"inputs.outdoor_temp_c: {exc}"]) from exc
    # a run reads the series by interpolation, which would hold an
    # uncovered stretch flat at the nearest sample
    first, last = series.start, series.start + timedelta(seconds=series.period_s * (len(series) - 1))
    start = cfg.simulation.start
    end = start + timedelta(seconds=cfg.simulation.span_s)
    if first > start or last < end:
        raise ConfigError([f"inputs.outdoor_temp_c: series runs {first.isoformat()} to "
                           f"{last.isoformat()}, the run needs {start.isoformat()} to {end.isoformat()}"])
    return series


def load_config(path) -> ScenarioConfig:
    """Parses the scenario file at path. An outdoor series path is kept
    as written: the run reads it, relative to the file's directory
    (read_outdoor_series), so validating a file means building its
    SimulationRun."""
    return parse_config(Path(path).read_text())
