"""Scenario execution: the nested-cadence simulation loop and artifacts.

One run advances four nested clocks. Every balancing tick (4 s) the
swing dynamics, control error, regulation split and shedding logic
update. Every device tick (60 s) the thermostat fleet decides and the
thermal states advance. Every market interval (300 s) each feeder's
diversity is sampled, bids are collected, each feeder's double auction
clears against supply anchored at the scheduled hourly price, setpoints
respond to the clearing price and deviations settle. Every schedule
interval (3600 s) the loop reads the hour's entry, its bulk price and
the supply anchor once, for every market interval of the hour; at each
day boundary the day is scheduled hour by hour from availability
feedback (bootstrap estimates on day one).

Every settlement.csv row is one settle() record: each feeder buys its
position, and its market maker (``{fid}__import``, paid net of the rent
it keeps) and each discharging battery sell, with negative energies.

The loop steps over device ticks. After a tick's market and device
phases, its balancing ticks run as one block (``_balancing_block``)
that keeps the control state in locals and sends one record per tick
to frequency.csv's writer. That writer is a second process
(``frequency_writer``), started by run() and waited for before run()
returns or raises: the rows' float text costs a long run about a third
of its time, so it is formatted on a second core. Every house of the
area lives in one ``Population``, drawn in feeder config order; each
feeder holds a contiguous run of it whose arrays are views of the
area's, so the device clock, the setpoint clip, the regulation offset
and the diversity phases are one pass over the area while each feeder's
draw and diversity are still its own.

All randomness flows from two named streams spawned off the scenario
seed: one for population synthesis, one for shedding draws. Each feeder
counts its armed relays that are still closed, so a shedding draw runs
only below the threshold and only over feeders with one left; a draw
over no houses would take nothing from the stream. Identical
(config, seed) pairs produce byte-identical artifacts; float columns
are serialised with repr so the round trip is lossless.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from array import array
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, auction, frequency_writer, report
from .auction import (
    SIDE_BUY,
    Bids,
    FeederSupplySpec,
    Order,
    OrderRanks,
    _price_spans,
    aggregate_demand,
    build_demand_curve,
    build_feeder_supply,
    clear_and_allocate,
    clear_area,
)
from .bidding import (
    PriceStats,
    apply_clearing_to_storage,
    fleet_bids,
    fleet_setpoints,
    storage_bids,
)
from .config import ScenarioConfig, StoragePlacement, read_outdoor_series
from .fold import array_sum, left_sum
from .frequency import (
    nerc_ace,
    regulation_command,
    smooth_ace,
    split_regulation,
    swing_step,
    time_correction_offset,
    time_error_step,
    ufls_check,
)
from .hierarchy import (
    HourEntry,
    SettlementRecord,
    availability_feedback,
    feeder_reference,
    reference_mode,
    scarcity_rent,
    schedule_hourly,
    settle,
)
from .thermal import (
    MODE_COOLING,
    Population,
    ThermalParams,
    ThermostatConfig,
    diversity_metric,
    state_from_phase,
    steady_duty,
)


def _fmt(x: float) -> str:
    v = float(x)
    if v == 0.0:
        v = 0.0  # fold -0.0 so ledgers never show a signed zero
    return repr(v)


def _fmt_or_empty(x: float | None) -> str:
    return "" if x is None else _fmt(x)


_EVENT_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _event_line(record: dict) -> str:
    return _EVENT_ENCODER.encode(record) + "\n"


def _start_frequency_writer(path: Path, files: ExitStack):
    """Starts the process that appends path's rows (frequency_writer) and
    returns the pipe that takes its records, sent in 64 KB batches.

    When files closes, on success or on error, the pipe closes and the
    writer is waited for; a writer that did not exit cleanly is an
    OSError, so the run never returns a truncated file.
    """
    writer = subprocess.Popen([sys.executable, "-S", "-I", frequency_writer.__file__, str(path)],
                              stdin=subprocess.PIPE, bufsize=frequency_writer.BATCH_BYTES)

    def finish() -> None:
        try:
            writer.stdin.close()
        except BrokenPipeError:
            pass  # the writer is gone; its exit status says so
        if writer.wait() != 0:
            raise OSError(f"{path}: the row writer exited with status {writer.returncode}")

    files.callback(finish)
    return writer.stdin


def _fill_of(fills: np.ndarray, column: np.ndarray, key) -> float:
    """Fill of the order whose entry in a curve's column is key, else 0.0."""
    hit = np.flatnonzero(column[: len(fills)] == key)
    return float(fills[hit[0]]) if len(hit) else 0.0


def _house_bids_digest(t: int, market: str, prices: np.ndarray, quantities: np.ndarray,
                       price_cap: float) -> dict:
    """One feeder's house bids of one interval as a single event record.

    Every sum is a left fold in bid order: the quantity, the
    quantity-weighted price (None when nothing is bid) and the
    quantity bid at the cap.
    """
    quantity = array_sum(quantities)
    price = array_sum(prices * quantities) / quantity if quantity else None
    return {"t": t, "type": "house_bids", "market": market, "orders": len(quantities),
            "quantity_kw": quantity, "price": price,
            "must_run_kw": array_sum(quantities[prices == price_cap])}


@dataclass
class RunArtifacts:
    out_dir: Path
    manifest: dict
    summary: dict


@dataclass
class _FeederState:
    spec: object
    pop: Population  # this feeder's run of SimulationRun.fleet, as views
    stats: PriceStats
    market_setpoint: np.ndarray  # a view into SimulationRun's area array
    armed_idx: np.ndarray  # houses with shedding relays, in id string order
    armed_closed: int  # armed houses whose relay is not latched open
    house_power_kw: float = 0.0
    import_kw: float = 0.0
    storage_net_kw: float = 0.0
    reg_share: float = 0.0  # of the regulation sent to aggregators, by rated kW
    house_rank: np.ndarray | None = None  # each house's rank in SimulationRun.ranks
    forecast_rank: np.ndarray | None = None  # of the bootstrap steps {fid}_base, {fid}_resp
    storage: list[StoragePlacement] = field(default_factory=list)  # placed here, in id order


class SimulationRun:
    """One scenario execution; call run() once."""

    def __init__(self, cfg: ScenarioConfig, base_dir: Path | None = None):
        self.cfg = cfg
        self.base_dir = Path(base_dir) if base_dir else Path.cwd()
        ss = np.random.SeedSequence(cfg.seed)
        pop_seq, ufls_seq = ss.spawn(2)
        self.rng_pop = np.random.default_rng(pop_seq)
        self.rng_ufls = np.random.default_rng(ufls_seq)
        # every house shares these settings; its setpoint lives in the fleet arrays
        spec = cfg.population
        self.thermostat = ThermostatConfig(
            kind=spec.thermostat,
            mode=spec.mode,
            setpoint=spec.t_desired,
            deadband=spec.deadband,
            t_min=spec.t_min,
            t_max=spec.t_max,
            t_desired=spec.t_desired,
        )
        self._build_outdoor()
        self._build_feeders()
        self._build_storage()
        self._build_ranks()
        self.hours_per_day = 86400 // cfg.simulation.schedule_interval_s
        # the (cumulative kW, price) spans of each feeder's demand curves per
        # hour of today, empty unless the next day reads them; the next day
        # start releases each hour once it is scheduled
        self.day_curves: list[dict[str, list[tuple[np.ndarray, np.ndarray]]] | None] = []
        # balancing state
        self.delta_f = 0.0
        self.ace_filtered = 0.0
        self.reg_gen_mw = 0.0
        self.reg_agg_mw = 0.0
        self.time_error_s = 0.0
        self.last_shed_t: float | None = None
        self.relays_held = False  # some house is latched off by shedding
        self.above_threshold_since: float | None = None
        self._buyer_paid = 0.0
        self._seller_received = 0.0
        self._rent_total = 0.0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _build_outdoor(self) -> None:
        src = self.cfg.outdoor_temp_c
        if isinstance(src, (int, float)):
            self._t_out_const = float(src)
            self._t_out_series = None
            return
        series = read_outdoor_series(self.cfg, self.base_dir)
        offsets = np.arange(len(series)) * series.period_s
        start_lag = (self.cfg.simulation.start - series.start).total_seconds()
        self._t_out_series = (offsets - start_lag, series.values)
        self._t_out_const = None

    def t_out(self, t_s: float) -> float:
        if self._t_out_series is None:
            return self._t_out_const
        xs, ys = self._t_out_series
        return float(np.interp(t_s, xs, ys))

    def da_price_for_hour(self, hour_abs: int) -> float:
        da = self.cfg.da_price
        return da[hour_abs % len(da)]

    def _build_feeders(self) -> None:
        """Draws every house, feeder by feeder in config order, into one
        area fleet, and gives each feeder its run of that fleet."""
        cfgp = self.cfg.population
        sigma_rc = math.log1p(cfgp.spread)
        sigma_k = math.log1p(cfgp.comfort_k_spread)
        t0 = self.t_out(0.0)
        ids, params, states, ks = [], [], [], []
        bounds = []
        for fspec in self.cfg.feeders:
            lo = len(ids)
            for j in range(fspec.houses):
                z = self.rng_pop.standard_normal(3)
                u = self.rng_pop.random()
                r = cfgp.r_median * math.exp(sigma_rc * z[0])
                c = cfgp.c_median * math.exp(sigma_rc * z[1])
                k = cfgp.comfort_k * math.exp(sigma_k * z[2]) if cfgp.comfort_k > 0 else 0.0
                par = ThermalParams(r_thermal=r, c_thermal=c, q_hvac=cfgp.q_hvac, p_rated=cfgp.p_rated)
                phase = u if cfgp.initial == "steady" else 0.0
                st = state_from_phase(phase, par, self.thermostat, t0)
                ids.append(f"{fspec.feeder_id}_h{j:04d}")
                params.append(par)
                states.append(st)
                ks.append(k)
            bounds.append((lo, len(ids)))
        self.fleet = fleet = Population(ids, params, self.thermostat, states, ks)
        self.market_setpoint = fleet.setpoint.copy()
        self.reg_offset = np.zeros(len(fleet))
        # the runs of houses that have a diversity, in feeder config order
        self.house_bounds = [(lo, hi) for lo, hi in bounds if hi > lo]
        self.feeders: dict[str, _FeederState] = {}
        for fspec, (lo, hi) in zip(self.cfg.feeders, bounds):
            pop = fleet.houses(lo, hi)
            n_armed = math.ceil(self.cfg.area.ufls.armed_fraction * fspec.houses)
            fs = _FeederState(
                spec=fspec,
                pop=pop,
                stats=PriceStats(
                    window=self.cfg.market.stats_window,
                    prior_mean=self.cfg.market.prior_mean,
                    prior_sigma=self.cfg.market.prior_sigma,
                ),
                market_setpoint=self.market_setpoint[lo:hi],
                armed_idx=np.arange(n_armed),
                armed_closed=n_armed,
            )
            fs.house_power_kw = pop.aggregate_power()
            self.feeders[fspec.feeder_id] = fs
        rated = {fid: float(np.sum(fs.pop.p_rated)) for fid, fs in self.feeders.items()}
        total = left_sum(rated.values())
        for fid, fs in self.feeders.items():
            fs.reg_share = rated[fid] / total if total > 0 else 0.0

    def _build_storage(self) -> None:
        self.soc_kwh: dict[str, float] = {}
        for placement in sorted(self.cfg.storage, key=lambda p: p.spec.device_id):
            self.soc_kwh[placement.spec.device_id] = placement.soc0_kwh
            self.feeders[placement.feeder_id].storage.append(placement)

    def _build_ranks(self) -> None:
        """One tie-break rank table over every id a demand or supply curve
        can hold, day 0's forecasts included; it also puts each feeder's
        armed houses in id string order."""
        ids = [f"{fid}_{step}" for fid in self.feeders for step in ("base", "resp")]
        ids += auction.market_maker_ids(max(len(f.scarcity_steps) for f in self.cfg.feeders))
        ids += [f"{sid}_{leg}" for sid in self.soc_kwh for leg in ("chg", "dis")]
        for fs in self.feeders.values():
            ids += fs.pop.ids
        self.ranks = OrderRanks(ids)
        # a storage order's fill is found in a curve by its rank
        self.storage_rank = {sid: self.ranks.of([f"{sid}_chg", f"{sid}_dis"]) for sid in self.soc_kwh}
        for fid, fs in self.feeders.items():
            fs.house_rank = self.ranks.of(fs.pop.ids)
            fs.armed_idx = fs.armed_idx[np.argsort(fs.house_rank[fs.armed_idx])]
            fs.forecast_rank = self.ranks.of([f"{fid}_base", f"{fid}_resp"])

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def _bootstrap_forecast(self, period: int) -> dict[str, Bids]:
        """Day 0's forecast for one scheduling period: base load at the cap,
        and the median house's steady duty at the period's start at the prior mean."""
        cfgp = self.cfg.population
        mkt = self.cfg.market
        median = ThermalParams(cfgp.r_median, cfgp.c_median, cfgp.q_hvac, cfgp.p_rated)
        t_start = period * self.cfg.simulation.schedule_interval_s
        duty = steady_duty(median, self.thermostat, self.t_out(t_start))
        price = np.array([mkt.price_cap, mkt.prior_mean], dtype=np.float64)
        forecasts = {}
        for fid, fs in self.feeders.items():
            quantity = np.array([fs.spec.base_load_kw, fs.spec.houses * cfgp.p_rated * duty], dtype=np.float64)
            step = np.lexsort((fs.forecast_rank, -price))  # trade order
            step = step[quantity[step] > 0]
            forecasts[fid] = Bids(price[step], quantity[step], fs.forecast_rank[step])
        return forecasts

    def _start_day(self, t: int, day: int, emit) -> list[HourEntry]:
        """The day-ahead cycle, run once at each day boundary.

        Hour by hour, forecasts the hour (bootstrap on day 0, then the
        availability feedback of yesterday's spans of that hour, released
        once read) and schedules it. Today's market phase gets an empty
        store only if a later day will read it.
        """
        area = self.cfg.area
        mkt = self.cfg.market
        hours = range(self.hours_per_day)
        sched = []
        for h in hours:
            if day == 0:
                forecasts = self._bootstrap_forecast(h)
            else:
                forecasts = {fid: availability_feedback(spans) for fid, spans in self.day_curves[h].items()}
                self.day_curves[h] = None
            sched.append(schedule_hourly(
                forecasts, self.da_price_for_hour(day * self.hours_per_day + h), area.renewables_price,
                area.renewables_capacity_mw * 1000.0, area.bulk_capacity_mw * 1000.0, mkt.price_floor, mkt.price_cap,
            ))
        emit({"t": t, "type": "schedule", "day": day, "prices": [e.price for e in sched]})
        keep = (day + 1) * 86400 < self.cfg.simulation.span_s  # a later day reads today's spans
        self.day_curves = [{fid: [] for fid in sorted(self.feeders)} for _ in hours] if keep else []
        return sched

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, out_dir: Path) -> RunArtifacts:
        cfg = self.cfg
        sim = cfg.simulation
        area = cfg.area
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

        prices_seen: list[float] = []
        peak_load = 0.0
        energy_kwh = 0.0
        ufls_events = 0
        ufls_total_kw = 0.0
        feeder_prices: dict[str, list[float]] = {fid: [] for fid in self.feeders}
        written = {"events.jsonl", "summary.json"}  # the manifest lists only what this run wrote

        with ExitStack() as files:

            def table(name: str, header: str):
                written.add(name)
                fh = files.enter_context(open(out_dir / name, "w"))
                fh.write(header + "\n")
                return fh

            events = files.enter_context(open(out_dir / "events.jsonl", "w"))
            table("frequency.csv", "t_s,freq_hz,delta_f_hz,ace_raw_mw,ace_filtered_mw,"
                  "reg_to_aggregators_mw,reg_to_generators_mw,ufls_shed_kw,time_error_s").close()
            frequency = _start_frequency_writer(out_dir / "frequency.csv", files)
            markets = table("markets.csv", "t_s,market_id,price,quantity_kw,n_buy_orders,n_sell_orders,"
                            "mode,reference_kw,scarcity_rent,diversity")
            load = table("load.csv", "t_s,load_kw,responsive_kw,base_kw,storage_kw,mean_t_in_c")
            settlement = table("settlement.csv", "interval,t_s,participant,role,da_energy_kwh,da_price,"
                               "rt_deviation_kwh,rt_price,payment,scarcity_rent")
            houses = None
            if cfg.house_trace:
                houses = table("houses.csv", "t_s,house_id,t_in_c,hvac_on,setpoint_c")

            def emit(record: dict) -> None:
                events.write(_event_line(record))

            for k in range(sim.span_s // sim.device_tick_s):
                t = k * sim.device_tick_s
                day = t // 86400
                hour_of_day = (t % 86400) // sim.schedule_interval_s
                interval_index = t // sim.market_interval_s

                if t % 86400 == 0:
                    sched = self._start_day(t, day, emit)
                if t % sim.schedule_interval_s == 0:
                    entry = sched[hour_of_day]
                    bulk_price = self.da_price_for_hour(day * self.hours_per_day + hour_of_day)
                    # never above the bulk price, so scarcity steps (which config keeps
                    # above every day-ahead price) stay above an hour scheduled at the cap
                    anchor = min(entry.price, bulk_price) if entry.area_quantity_kw > 0 else bulk_price

                at_boundary = t % sim.market_interval_s == 0
                if at_boundary:
                    self._market_phase(
                        t, interval_index, hour_of_day, entry, bulk_price, anchor, emit, events,
                        markets, settlement, prices_seen, feeder_prices,
                    )

                total_kw = self._device_phase(t, at_boundary, load, houses)
                peak_load = max(peak_load, total_kw)
                energy_kwh += total_kw * (sim.device_tick_s / 3600.0)

                for shed_kw in self._balancing_block(t, frequency, emit):
                    ufls_events += 1
                    ufls_total_kw += shed_kw

        freq_nom = area.freq_nominal_hz
        final_div = self._feeder_diversity(sim.span_s)
        price_mean = (left_sum(prices_seen) / len(prices_seen)) if prices_seen else None
        price_sigma = None
        if prices_seen:
            var = left_sum((p - price_mean) ** 2 for p in prices_seen) / len(prices_seen)
            price_sigma = math.sqrt(var)
        summary = {
            "span_s": sim.span_s,
            "peak_load_kw": peak_load,
            "energy_kwh": energy_kwh,
            "price_mean": price_mean,
            "price_sigma": price_sigma,
            "price_max": max(prices_seen) if prices_seen else None,
            "price_min": min(prices_seen) if prices_seen else None,
            "price_floor": cfg.market.price_floor,
            "price_cap": cfg.market.price_cap,
            "price_alternations": {
                fid: report.price_alternations(series, cfg.market.price_floor, cfg.market.price_cap)
                for fid, series in feeder_prices.items()
            },
            "ufls_events": ufls_events,
            "ufls_total_kw": ufls_total_kw,
            "final_diversity": final_div,
            "final_freq_hz": freq_nom + self.delta_f,
            "time_error_s": self.time_error_s,
            "settlement": {
                "buyer_payments": self._buyer_paid,
                "seller_receipts": self._seller_received,
                "scarcity_rent": self._rent_total,
                "residual": self._buyer_paid - self._seller_received - self._rent_total,
            },
        }

        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        manifest = {
            "config_sha256": cfg.config_hash(),
            "seed": cfg.seed,
            "span_s": sim.span_s,
            "start": sim.start.isoformat(),
            "version": __version__,
            "files": sorted(written),
        }
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return RunArtifacts(out_dir=out_dir, manifest=manifest, summary=summary)

    def _feeder_diversity(self, t_s: float) -> dict[str, float | None]:
        """Each feeder's diversity at t_s, in config order, from one phase
        pass over the area fleet; None for a feeder without houses."""
        divs = iter(diversity_metric(self.fleet, self.t_out(t_s), self.house_bounds))
        return {fid: (next(divs) if len(fs.pop) else None) for fid, fs in self.feeders.items()}

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def _market_phase(
        self, t, interval_index, hour_of_day, entry: HourEntry, bulk_price, anchor, emit, events,
        markets, settlement, prices_seen, feeder_prices,
    ) -> None:
        cfg = self.cfg
        mkt = cfg.market
        area = cfg.area
        interval_h = cfg.simulation.market_interval_s / 3600.0
        demand_curves = {}
        # sampled from the state the bids are built from
        diversity = self._feeder_diversity(t)

        for fid, fs in sorted(self.feeders.items()):
            fspec = fs.spec
            pop = fs.pop
            idx, prices = fleet_bids(
                pop.t_in, self.thermostat, pop.comfort_k, fs.stats, pop.p_rated, pop.latched,
                mkt.price_floor, mkt.price_cap,
            )
            quantities = pop.p_rated[idx]
            bids: list[Order] = []
            if fspec.base_load_kw > 0:
                bids.append(Order(f"{fid}_base", SIDE_BUY, mkt.price_cap, fspec.base_load_kw))
            sells: list[Order] = []
            for placement in fs.storage:
                for order in storage_bids(placement.spec, self.soc_kwh[placement.spec.device_id]):
                    (bids if order.side == SIDE_BUY else sells).append(order)

            events.write(
                _event_line(_house_bids_digest(t, fid, prices, quantities, mkt.price_cap)) + "".join(
                    _event_line({"t": t, "type": "bid", "market": fid, "order": order.order_id,
                                 "side": order.side, "price": order.price, "quantity": order.quantity})
                    for order in bids + sells
                )
            )

            demand = build_demand_curve(bids, self.ranks, Bids(prices, quantities, fs.house_rank[idx]))
            supply_spec = FeederSupplySpec(
                wholesale_price=anchor,
                capacity_normal=fspec.capacity_kw,
                scarcity_steps=fspec.scarcity_steps,
                price_cap=mkt.price_cap,
            )
            supply = build_feeder_supply(supply_spec, sells, self.ranks)
            result = clear_and_allocate(demand, supply, mkt.price_floor, mkt.price_cap)
            rent = scarcity_rent(result, supply)
            demand_curves[fid] = demand
            if self.day_curves:
                self.day_curves[hour_of_day][fid].append(_price_spans(demand))

            n_buys, n_sells = len(result.buy_fills), len(result.sell_fills)
            sold = zip(supply.rank[:n_sells].tolist(), result.sell_fills.tolist())
            fs.import_kw = left_sum(fill for rank, fill in sold if rank in self.ranks.market_maker)
            emit({"t": t, "type": "clearing", "market": fid, "price": result.price,
                  "quantity": result.quantity, "buys": n_buys, "sells": n_sells, "rent": rent,
                  "marginal": result.marginal_order})
            prices_seen.append(result.price)
            feeder_prices[fid].append(result.price)

            # price response: setpoints move along the inverted bid line
            fs.market_setpoint[:] = fleet_setpoints(
                result.price, self.thermostat, pop.comfort_k, fs.stats
            )

            # storage dispatch from fills
            fs.storage_net_kw = 0.0
            for placement in fs.storage:
                sid = placement.spec.device_id
                charge = _fill_of(result.buy_fills, demand.rank, self.storage_rank[sid][0])
                discharge = _fill_of(result.sell_fills, supply.rank, self.storage_rank[sid][1])
                self.soc_kwh[sid] = apply_clearing_to_storage(
                    placement.spec, self.soc_kwh[sid], charge, discharge, interval_h
                )
                fs.storage_net_kw += charge - discharge
                if discharge > 0:
                    self._settle_row(settlement, t, "seller", settle(
                        sid, interval_index, 0.0, entry.price, -discharge * interval_h, result.price))

            # two-settlement rows: the feeder buys its position, the market
            # maker sells it and keeps the rent
            sched_kw = entry.feeder_kw[fid]
            pos_kwh = sched_kw * interval_h
            self._settle_row(settlement, t, "buyer", settle(
                fid, interval_index, pos_kwh, entry.price, result.quantity * interval_h, result.price))
            self._settle_row(settlement, t, "seller", settle(
                f"{fid}__import", interval_index, -pos_kwh, entry.price, -(fs.import_kw * interval_h),
                result.price), rent * interval_h)

            # operating reference blends retail with the balancing request
            shed_age = None if self.last_shed_t is None else t - self.last_shed_t
            mode = reference_mode(self.ace_filtered, fspec.ace_threshold_mw, shed_age, fspec.ufls_recency_s)
            balance_kw = sched_kw + fs.reg_share * self.reg_agg_mw * 1000.0
            ref = feeder_reference(result.quantity, balance_kw, fspec.weight_normal,
                                   fspec.weight_contingency, mode)
            markets.write(
                f"{t},{fid},{_fmt(result.price)},{_fmt(result.quantity)},"
                f"{n_buys},{n_sells},"
                f"{mode},{_fmt(ref)},{_fmt(rent)},{_fmt_or_empty(diversity[fid])}\n"
            )
            fs.stats.observe(result.price)

        # area-level aggregation, recorded for reporting
        merged = aggregate_demand(demand_curves.values())
        area_result = clear_area(
            merged,
            area.renewables_price,
            area.renewables_capacity_mw * 1000.0,
            bulk_price,
            area.bulk_capacity_mw * 1000.0,
            mkt.price_floor,
            mkt.price_cap,
        )
        emit({"t": t, "type": "area_clearing", "price": area_result.price,
              "quantity": area_result.quantity})
        # the mean over the feeders that have houses, folded in config order
        with_houses = [d for d in diversity.values() if d is not None]
        area_div = left_sum(with_houses) / len(with_houses) if with_houses else None
        markets.write(
            f"{t},__area,{_fmt(area_result.price)},{_fmt(area_result.quantity)},"
            f"{len(merged)},2,normal,{_fmt(area_result.quantity)},{_fmt(0.0)},"
            f"{_fmt_or_empty(area_div)}\n"
        )

    def _settle_row(self, settlement, t: int, role: str, rec: SettlementRecord, rent_kwh: float = 0.0) -> None:
        """Writes one settlement.csv row from a settle() record and folds it
        into the run's totals. A seller's energies are negative; its
        payment is net of the rent it keeps."""
        payment = rec.payment + rent_kwh
        if role == "buyer":
            self._buyer_paid += payment
        else:
            self._seller_received -= payment
        self._rent_total += rent_kwh
        amounts = (rec.da_energy_kwh, rec.da_price, rec.rt_deviation_kwh, rec.rt_price, payment, rent_kwh)
        settlement.write(f"{rec.interval_index},{t},{rec.participant},{role},"
                         + ",".join(map(_fmt, amounts)) + "\n")

    def _device_phase(self, t, at_boundary: bool, load, houses) -> float:
        sim = self.cfg.simulation
        fleet = self.fleet
        mean_t = 0.0
        if len(fleet):
            np.clip(
                self.market_setpoint + self.reg_offset,
                self.thermostat.t_min,
                self.thermostat.t_max,
                out=fleet.setpoint,
            )
            fleet.tick(self.t_out(t), sim.device_tick_s / 3600.0, at_boundary)
            for fs in self.feeders.values():
                # each feeder's draw is a left fold over its own houses
                fs.house_power_kw = fs.pop.aggregate_power()
            mean_t = float(fleet.t_in.mean())
        resp = base = storage_net = 0.0
        for fid, fs in sorted(self.feeders.items()):
            resp += fs.house_power_kw
            base += fs.spec.base_load_kw
            storage_net += fs.storage_net_kw
            if houses is not None:
                for i, hid in enumerate(fs.pop.ids):
                    houses.write(
                        f"{t},{hid},{_fmt(fs.pop.t_in[i])},{int(fs.pop.hvac_on[i])},"
                        f"{_fmt(fs.pop.setpoint[i])}\n"
                    )
        total = resp + base + storage_net
        load.write(
            f"{t},{_fmt(total)},{_fmt(resp)},{_fmt(base)},{_fmt(storage_net)},{_fmt(mean_t)}\n"
        )
        return total

    def _balancing_block(self, t0: int, frequency, emit) -> list[float]:
        """Every balancing tick of the device tick that starts at t0.

        Each step advances the swing, the time error, the control error
        and the regulation split once, then the shedding relays; below the
        threshold a draw runs only while some armed relay is closed. The
        area's load and import change only at device ticks, or when a
        shed opens a running unit's relay, so they are summed once and
        again only after such a shed. Each step's frequency.csv row goes
        to the writer process as one record, and the block's records are
        written to its pipe at once. Returns the kW shed at each step that
        shed any.
        """
        cfg = self.cfg
        area = cfg.area
        h = cfg.simulation.agc_tick_s
        f_nom = area.freq_nominal_hz
        swing = area.swing
        split = area.split
        alpha = split.alpha
        droop = area.droop_mw_per_hz
        te_threshold = area.time_error_threshold_s
        te_offset = area.time_correction_offset_hz
        interchange = area.scheduled_interchange_mw
        bias = area.bias_mw_per_01hz
        tau = area.smoothing_tau_s
        gain = area.regulation_gain
        reg_cap = area.regulation_capacity_mw
        threshold = area.ufls.threshold_hz
        hold_s = area.ufls.hold_s
        events = [
            (ev.at_s, math.inf if ev.duration_s is None else ev.at_s + ev.duration_s, ev.delta_p_mw)
            for ev in area.events
        ]
        feeders = list(self.feeders.values())

        delta_f = self.delta_f
        time_error_s = self.time_error_s
        ace_filtered = self.ace_filtered
        reg_gen_mw = self.reg_gen_mw
        above_since = self.above_threshold_since
        load_mw = gen_mw = None
        records = array("d")
        sheds = []
        for t in range(t0, t0 + cfg.simulation.device_tick_s, h):
            if load_mw is None:
                load_kw = 0.0
                import_kw = 0.0
                for fs in feeders:
                    load_kw += fs.house_power_kw + fs.spec.base_load_kw + fs.storage_net_kw
                    import_kw += fs.import_kw
                load_mw = load_kw / 1000.0
                gen_mw = import_kw / 1000.0

            droop_mw = -droop * delta_f
            droop_gen = (1.0 - alpha) * droop_mw
            droop_load = alpha * droop_mw  # positive reduces load
            event_mw = 0.0
            for at_s, until_s, delta_p_mw in events:
                if at_s <= t < until_s:
                    event_mw += delta_p_mw

            delta_p = gen_mw + reg_gen_mw + droop_gen + event_mw - (load_mw - droop_load)
            delta_f = swing_step(delta_f, delta_p, swing, h)
            freq = f_nom + delta_f

            time_error_s = time_error_step(time_error_s, freq, f_nom, h)
            f_sched = f_nom + time_correction_offset(time_error_s, te_threshold, te_offset)

            ace_raw = nerc_ace(0.0, interchange, bias, freq, f_sched)
            ace_filtered = smooth_ace(ace_filtered, ace_raw, tau, h)
            cmd = regulation_command(ace_filtered, gain, reg_cap)
            to_agg, reg_gen_mw = split_regulation(cmd, split)

            shed_kw = 0.0
            if freq < threshold:
                above_since = None
                if any(fs.armed_closed for fs in feeders):
                    shed_kw = self._shed(t, freq, emit)
                    if shed_kw > 0:
                        sheds.append(shed_kw)
                        load_mw = None
            else:
                if above_since is None:
                    above_since = t
                if self.relays_held and t - above_since >= hold_s:
                    self.fleet.latched[:] = 0
                    for fs in feeders:
                        fs.armed_closed = len(fs.armed_idx)
                    self.relays_held = False
                    emit({"t": t, "type": "ufls_release"})

            # one frequency_writer record; + 0.0 folds -0.0 to 0.0, as _fmt does
            records.extend((t, freq + 0.0, delta_f + 0.0, ace_raw + 0.0, ace_filtered + 0.0,
                            to_agg + 0.0, reg_gen_mw + 0.0, shed_kw + 0.0, time_error_s + 0.0))

        frequency.write(records)
        self.delta_f = delta_f
        self.time_error_s = time_error_s
        self.ace_filtered = ace_filtered
        self.reg_gen_mw = reg_gen_mw
        self.reg_agg_mw = to_agg
        self.above_threshold_since = above_since
        # reg_offset is read only by the next device tick's setpoint clip
        self._apply_aggregator_command(to_agg)
        return sheds

    def _shed(self, t: int, freq: float, emit) -> float:
        """One shedding draw over every feeder's armed, unlatched houses.

        A feeder with no such house is skipped: its draw would be over no
        houses and take nothing from the stream. Returns the kW of running
        units the draw switched off.
        """
        ufls = self.cfg.area.ufls
        shed_kw = 0.0
        n_shed = 0
        for fid, fs in sorted(self.feeders.items()):
            if not fs.armed_closed:
                continue
            armed = fs.armed_idx
            closed = armed[fs.pop.latched[armed] == 0]
            rank = fs.house_rank[closed]  # ascending, as armed_idx is in id order
            shed = ufls_check(freq, ufls.threshold_hz, ufls.probability, rank.tolist(), self.rng_ufls)
            fs.armed_closed -= len(shed)
            for i in closed[np.searchsorted(rank, shed)].tolist():
                fs.pop.latched[i] = 1
                if fs.pop.hvac_on[i]:
                    fs.pop.hvac_on[i] = 0
                    fs.house_power_kw -= float(fs.pop.p_rated[i])
                    shed_kw += float(fs.pop.p_rated[i])
            n_shed += len(shed)
        if n_shed:
            self.relays_held = True
            self.last_shed_t = t
            emit({"t": t, "type": "ufls", "freq_hz": freq, "count": n_shed,
                  "shed_kw": shed_kw})
        return shed_kw

    def _apply_aggregator_command(self, to_agg_mw: float) -> None:
        cap = self.cfg.area.regulation_capacity_mw
        if cap <= 0 or to_agg_mw == 0.0:
            if self.reg_offset.any():
                self.reg_offset[:] = 0.0
            return
        frac = min(max(to_agg_mw / cap, -1.0), 1.0)
        # shedding load (frac > 0) raises cooling setpoints and lowers
        # heating ones, so the offset moves setpoints by direction * frac
        cfg = self.thermostat
        step = (1.0 if cfg.mode == MODE_COOLING else -1.0) * frac
        if step > 0:
            self.reg_offset[:] = step * (cfg.t_max - self.market_setpoint)
        else:
            self.reg_offset[:] = step * (self.market_setpoint - cfg.t_min)


def run_scenario(cfg: ScenarioConfig, out_dir, base_dir=None) -> RunArtifacts:
    return SimulationRun(cfg, base_dir=base_dir).run(Path(out_dir))
