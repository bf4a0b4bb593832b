"""Scenario execution: the nested-cadence simulation loop and artifacts.

One run advances four nested clocks. Every balancing tick (4 s) the
swing dynamics, control error, regulation split and shedding logic
update. Every device tick (60 s) the thermostat fleet decides and the
thermal states advance. Every market interval (300 s) the whole area
bids in one pass (each feeder's price statistics repeated over its
houses), each feeder's double auction clears its run of those bids
against supply anchored at the scheduled hourly price, deviations
settle, one setpoint pass moves every house along its feeder's inverted
bid line, and each feeder's diversity is sampled. Every schedule
interval (3600 s) the loop reads the hour's entry, its bulk price and
the supply anchor once, and checks each feeder's supply spec. A feeder's
supply curve is built at most once per hour and pattern of its local
sell orders (its batteries' discharge legs), by the first interval of
the hour that has that pattern, and every later interval of the hour
with it clears against that curve; the area's supply is built again
only when the bulk price changes. A feeder's fixed orders (its base
load and its batteries' legs) depend only on config and on which legs
bid, so each pattern of legs is made once per run, as columns, with
its bid event lines encoded once; an interval puts only its time into
them. At each day boundary the day is scheduled hour by hour from
availability feedback (bootstrap estimates on day one).

Every settlement.csv row is one settle() record: each feeder buys its
position, and its market maker (``{fid}__import``, paid net of the rent
it keeps) and each discharging battery sell, with negative energies.

Every file a run writes goes through one sink, ``_Artifacts``, which
each phase takes in place of file handles. It opens the files and
writes each table's header, takes events.jsonl's lines (``event``) and
every table row (``row``, by one cell rule: floats as their repr, -0.0
folded to 0.0), owns frequency.csv's writer process (``writer``), and
ends with summary.json and the manifest of what it wrote. On exit, on
success or error, it closes every file and waits for the writer.

The loop steps over device ticks. After a tick's market and device
phases, its balancing ticks run as one block (``_balancing_block``)
that keeps the control state in locals and sends one record per tick
to frequency.csv's writer. The block steps the control loop as
straight-line arithmetic on constants the run computes once
(``_init_balancing``); the scalar forms of ``tgsim.frequency`` state
the formulas and are its test oracle. That writer is a second process
(``frequency_writer``), started by the sink and waited for before run()
returns or raises: the rows' float text costs a long run about a third
of its time, so it is formatted on a second core. Every house of the
area lives in one ``Population``, drawn in feeder config order; each
feeder holds a contiguous run of it whose arrays are views of the
area's, so the device clock, the setpoint clip, the regulation offset
and the diversity phases are one pass over the area while each feeder's
draw and diversity are still its own.

The writer process has a second job: two of the three libm logs of a
diversity sample (``thermal.cycle_ratios``), those that depend only on
setpoints and the outdoor temperature. It runs the interpreter of the
run (``sys.executable``), so its ``math.log`` is the same libm call and
the bits are the ones an in-process ``thermal.diversity_metric`` gives.
Frequency records and log requests share one framed stream on its stdin
(``_WriterProcess``); the logs come back on its stdout, in request
order. The engine reads them without waiting whenever it writes, and
finishes a sample (``thermal.phases_from_logs``, with the third,
state-dependent log in-process) once its reply is in. Diversity feeds
nothing back into the run, so an interval's markets.csv rows, which
carry it, are written only then, a reply late; no other file waits and
row order is unchanged. run() waits for replies only at its end, for
the last interval's rows and final_diversity. On a single core the two
processes take turns and a run is a few percent slower than doing all
of it in-process.

All randomness flows from two named streams spawned off the scenario
seed: one for population synthesis, one for shedding draws. Each feeder
counts its armed relays that are still closed, so a shedding draw runs
only below the threshold and only over feeders with one left; a draw
over no houses would take nothing from the stream. Identical
(config, seed) pairs produce byte-identical artifacts; float columns
are serialised with repr so the round trip is lossless.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import select
import subprocess
import sys
from array import array
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, auction, frequency_writer, report
from .auction import (
    SIDE_BUY,
    Bids,
    FeederSupplySpec,
    Order,
    OrderRanks,
    aggregate_demand,
    build_area_supply,
    build_demand_curve,
    build_feeder_supply,
    clear_and_allocate,
    clear_area,
    order_columns,
)
from .bidding import (
    HouseStats,
    PriceStats,
    apply_clearing_to_storage,
    fleet_bids,
    fleet_setpoints,
    storage_bids,
    storage_legs,
)
from .config import ScenarioConfig, StoragePlacement, read_outdoor_series
from .fold import array_sum, left_sum, libm_exp, mean_sigma
from .frequency import (
    regulation_command,
    smooth_ace,
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
    market_maker_sold,
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
    cycle_ratios,
    diversity_from_phases,
    phases_from_logs,
    states_from_phases,
    steady_duty,
)


# The ufunc that np.clip and ndarray.clip end in. Both reach it through
# Python-level wrappers (fromnumeric, numpy's _methods), which a device
# tick skips by calling it; numpy 1.x keeps it in numpy.core.
try:
    from numpy._core.umath import clip as _clip
except ImportError:
    from numpy.core.umath import clip as _clip

# Each pipe to the writer process is asked to hold 1 MB (Linux; elsewhere
# pipes keep their size). A 10,000-house log request or reply, about
# 160 KB, then goes through whole. With 64 KB pipes the writer stalls on
# each reply until the engine next reads, and the engine on each request
# until the writer next reads: 0.2 s of waits in a 6 h run at that size.
# A smaller pipe is slower, never wrong.
PIPE_BYTES = 1 << 20


class _WriterProcess:
    """frequency_writer's process beside a run, and both of its pipes.

    One framed stream on its stdin carries frequency.csv's records and
    diversity's log requests; its stdout carries the logs back, in
    request order. Frames queue in the engine until BATCH_BYTES are
    queued. The engine then writes what the pipe takes without waiting,
    and waits only while BATCH_BYTES or more are still unsent. After
    every write it reads the replies that have come in, without
    waiting, and while it waits for room it reads them too, so neither
    process can block the other with a full pipe. A reply's callback
    runs once all of its bytes are in.

    On exit, on success or error, the queued frames are sent, stdin is
    closed, stdout is read to its end (after an error, the replies are
    dropped) and the process is waited for; a process that did not exit
    cleanly is an OSError naming path, so a run never returns a
    truncated file.
    """

    def __init__(self, path: Path):
        self.path = path
        self._proc = subprocess.Popen([sys.executable, "-S", "-I", frequency_writer.__file__, str(path)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        self._in = self._proc.stdin.fileno()
        self._out = self._proc.stdout.fileno()
        for fd in (self._in, self._out):
            os.set_blocking(fd, False)
            if hasattr(fcntl, "F_SETPIPE_SZ"):
                try:
                    fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
                except OSError:
                    pass  # past the user's pipe quota the default size stays
        self._poll = select.poll()
        self._poll.register(self._in, select.POLLOUT)
        self._poll.register(self._out, select.POLLIN)
        self._unsent = bytearray()
        # per request, in request order: [its logs, bytes of them read, callback]
        self._waiting: deque[list] = deque()
        self._discard = False  # on exit: replies are read but no callback runs

    def __enter__(self) -> _WriterProcess:
        return self

    def send_records(self, records: array) -> None:
        """Queues whole frequency.csv records."""
        self._queue(frequency_writer.RECORDS, len(records), records)

    def request_logs(self, a: np.ndarray, b: np.ndarray, then: Callable[[np.ndarray], None]) -> None:
        """Queues a request for math.log of each element of a, then of b;
        then(logs) is called with them once they are back."""
        n = len(a) + len(b)
        self._waiting.append([np.empty(n), 0, then])
        self._queue(frequency_writer.LOGS, n, a.data, b.data)

    def _queue(self, kind: int, count: int, *parts) -> None:
        self._unsent += frequency_writer.HEADER.pack(kind, count)
        for part in parts:
            self._unsent += part
        if len(self._unsent) >= frequency_writer.BATCH_BYTES:
            self._send(frequency_writer.BATCH_BYTES)

    def _send(self, backlog: int) -> None:
        """Writes what the pipe takes, then waits for room, reading replies
        meanwhile, while backlog bytes or more are still unsent."""
        while self._unsent:
            try:
                del self._unsent[:os.write(self._in, self._unsent)]
            except BlockingIOError:
                pass
            self._read()
            if len(self._unsent) < backlog:
                return
            self._poll.poll()  # room in the pipe, or a reply to read

    def _read(self) -> None:
        """Reads the reply bytes that have come into the logs they answer,
        and passes each whole reply to its callback. It waits for bytes
        only once finish() has made stdout blocking."""
        waiting = self._waiting
        while waiting:
            request = waiting[0]
            logs, got, then = request
            if got < logs.nbytes:
                n = self._proc.stdout.readinto(memoryview(logs).cast("B")[got:])
                if n is None:
                    return  # nothing more has come
                if not n:
                    raise OSError(f"{self.path}: the writer process closed its output")
                request[1] = got + n
                continue
            waiting.popleft()
            if not self._discard:
                then(logs)

    def finish(self) -> None:
        """Sends every queued frame and waits for every reply."""
        self._send(1)
        self._proc.stdin.close()
        os.set_blocking(self._out, True)
        self._read()

    def __exit__(self, *exc) -> None:
        self._discard = True
        try:
            self._send(1)  # the records of the ticks before an error still reach the file
        except OSError:
            pass  # the process is gone; its exit status says so
        self._proc.stdin.close()
        try:
            os.set_blocking(self._out, True)
            while os.read(self._out, frequency_writer.BATCH_BYTES):
                pass
        finally:
            self._proc.stdout.close()
            status = self._proc.wait()
        if status != 0:
            raise OSError(f"{self.path}: the row writer exited with status {status}")


_EVENT_ENCODER = json.JSONEncoder(separators=(",", ":"))
_T_HEAD = '{"t":'


def _t_lines(records: list[dict]) -> list[str]:
    """The events.jsonl lines of records that lack only "t", encoded
    once: the parts between which ``_lines_at`` puts t's text. Each line
    is _EVENT_ENCODER's text of the record with "t" first."""
    parts = [""]
    for record in records:
        text = _EVENT_ENCODER.encode({"t": 0, **record})
        parts[-1] += _T_HEAD
        parts.append(text[len(_T_HEAD) + 1:] + "\n")
    return parts


def _lines_at(parts: list[str], t: int) -> str:
    """The lines of ``_t_lines`` at time t; the JSON text of an int is its str."""
    return str(t).join(parts)


# each table's header, in the order the tables are opened
_TABLES = {
    "markets.csv": "t_s,market_id,price,quantity_kw,n_buy_orders,n_sell_orders,mode,reference_kw,scarcity_rent,"
                   "diversity",
    "load.csv": "t_s,load_kw,responsive_kw,base_kw,storage_kw,mean_t_in_c",
    "settlement.csv": "interval,t_s,participant,role,da_energy_kwh,da_price,rt_deviation_kwh,rt_price,payment,"
                      "scarcity_rent",
    "houses.csv": "t_s,house_id,t_in_c,hvac_on,setpoint_c",  # with the house trace only
}


class _Artifacts:
    """Every file of one run, in out_dir: events.jsonl, the tables of
    _TABLES (houses.csv with the house trace only), frequency.csv through
    ``writer``, and after the run summary.json and manifest.json. A
    constructor that fails part-way closes what it had opened and waits
    for the writer, as exit does.
    """

    def __init__(self, out_dir: Path, house_trace: bool):
        out_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = out_dir
        self.house_trace = house_trace
        with ExitStack() as files:

            def table(name: str, header: str):
                fh = files.enter_context(open(out_dir / name, "w"))
                fh.write(header + "\n")
                return fh

            self._events = files.enter_context(open(out_dir / "events.jsonl", "w"))
            table("frequency.csv", frequency_writer.COLUMNS).close()
            self.writer = files.enter_context(_WriterProcess(out_dir / "frequency.csv"))
            self._tables = {name: table(name, header) for name, header in _TABLES.items()
                            if house_trace or name != "houses.csv"}
            self._files = files.pop_all()

    def __enter__(self) -> _Artifacts:
        return self

    def __exit__(self, *exc):
        return self._files.__exit__(*exc)

    def event(self, record: dict) -> None:
        self._events.write(_EVENT_ENCODER.encode(record) + "\n")

    def event_lines(self, text: str) -> None:
        """Writes whole events.jsonl lines encoded beforehand."""
        self._events.write(text)

    def row(self, table: str, *cells) -> None:
        """Writes one line of a table, by the one cell rule: a float
        (numpy's float64 too) is its repr, with -0.0 folded to 0.0 so
        ledgers never show a signed zero; None is empty; anything else,
        such as text or an int, is its str."""
        self._tables[table].write(",".join([repr(float(x) + 0.0) if isinstance(x, float) else "" if x is None
                                            else str(x) for x in cells]) + "\n")

    def write_summary(self, summary: dict, manifest: dict) -> dict:
        """Writes summary.json, then manifest.json with the list of the
        run's other files; returns the manifest."""
        manifest = dict(manifest, files=sorted(["events.jsonl", "frequency.csv", "summary.json", *self._tables]))
        for name, doc in (("summary.json", summary), ("manifest.json", manifest)):
            (self.out_dir / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return manifest


def _fill_of(fills: np.ndarray, column: np.ndarray, key) -> float:
    """Fill of the order whose entry in a curve's column is key, else 0.0."""
    hit = (column[: len(fills)] == key).nonzero()[0]
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


class _FixedOrders(NamedTuple):
    """A feeder's orders for one pattern of battery legs."""

    buys: Bids  # base load, then each battery's charge leg, in device-id order
    sells: Bids  # each battery's discharge leg, in device-id order
    sell_ids: tuple[str, ...]  # which supply curve of the hour the sells go into
    bid_lines: list[str]  # the bid event lines of buys, then sells (_t_lines)


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
    n_armed: int  # houses 0 to n_armed - 1 have shedding relays
    armed_closed: int  # armed houses whose relay is not latched open
    house_power_kw: float = 0.0
    import_kw: float = 0.0
    storage_net_kw: float = 0.0
    reg_share: float = 0.0  # of the regulation sent to aggregators, by rated kW
    first_rank: int = 0  # the rank of house 0 in SimulationRun.ranks; house i ranks first_rank + i
    forecast_rank: np.ndarray | None = None  # of the bootstrap steps {fid}_base, {fid}_resp
    house_names: list[str] = field(default_factory=list)  # for houses.csv, made by run() with the trace only
    storage: list[StoragePlacement] = field(default_factory=list)  # placed here, in id order
    # per pattern of storage_legs over storage, made by run() when first seen
    fixed: dict[tuple[tuple[bool, bool], ...], _FixedOrders] = field(default_factory=dict)


class SimulationRun:
    """One scenario execution; call run() once."""

    def __init__(self, cfg: ScenarioConfig, base_dir: Path | None = None):
        """base_dir is the scenario file's directory, against which a
        relative outdoor series path resolves (config.read_outdoor_series)."""
        self.cfg = cfg
        self._init_balancing()
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
        # the run's one read of its outdoor series, if it names one
        self._t_out_series = None
        if isinstance(cfg.outdoor_temp_c, str):
            series = read_outdoor_series(cfg, base_dir)
            start_lag = (cfg.simulation.start - series.start).total_seconds()
            self._t_out_series = (np.arange(len(series)) * series.period_s - start_lag, series.values)
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
        self.feeder_prices: dict[str, list[float]] = {fid: [] for fid in self.feeders}  # in clearing order

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _init_balancing(self) -> None:
        """The balancing block's constants, once per run, after the checks
        the scalar forms of ``tgsim.frequency`` make on every call (in a
        step's order, so a config parse_config would reject fails here).
        Each subexpression those forms round on their own is one constant."""
        sim = self.cfg.simulation
        area = self.cfg.area
        h, f_nom, swing, split = sim.agc_tick_s, area.freq_nominal_hz, area.swing, area.split
        te_threshold, te_offset = area.time_error_threshold_s, area.time_correction_offset_hz
        cap = area.regulation_capacity_mw
        swing_step(0.0, 0.0, swing, h)
        time_error_step(0.0, f_nom, f_nom, h)
        time_correction_offset(0.0, te_threshold, te_offset)
        smooth_ace(0.0, 0.0, area.smoothing_tau_s, h)
        regulation_command(0.0, area.regulation_gain, cap)
        self._event_windows = [
            (ev.at_s, math.inf if ev.duration_s is None else ev.at_s + ev.duration_s, ev.delta_p_mw)
            for ev in area.events
        ]
        self._balancing = (
            h, sim.device_tick_s, f_nom, swing.m_hz_per_s_mw, swing.d_per_s, -area.droop_mw_per_hz,
            split.alpha, 1.0 - split.alpha, split.beta, te_threshold, -te_threshold, f_nom + -te_offset,
            f_nom + te_offset, 0.0 - area.scheduled_interchange_mw, 10.0 * area.bias_mw_per_01hz,
            h / area.smoothing_tau_s, -area.regulation_gain, cap, -cap, area.ufls.threshold_hz, area.ufls.hold_s,
        )

    def t_out(self, t_s: float) -> float:
        if self._t_out_series is None:
            return self.cfg.outdoor_temp_c
        xs, ys = self._t_out_series
        return float(np.interp(t_s, xs, ys))

    def da_price_for_hour(self, hour_abs: int) -> float:
        da = self.cfg.da_price
        return da[hour_abs % len(da)]

    def _build_feeders(self) -> None:
        """Draws every house, feeder by feeder in config order, into one
        area fleet, and gives each feeder its run of that fleet.

        Only the draws go house by house: each house takes
        ``standard_normal(3)``, then ``random()``, from the population
        stream. numpy's normal sampler takes a varying number of words
        from the stream per value, so where a house's uniform sits in the
        stream is known only once its normals are drawn, and no batched
        draw gives the same values. The rest are array passes over the
        fleet, with libm's exp and log as the per-house formulas
        (``state_from_phase`` among them) take them, so the fleet is the
        same bit for bit.
        """
        cfgp = self.cfg.population
        ends = np.cumsum([0] + [fspec.houses for fspec in self.cfg.feeders]).tolist()
        bounds = list(zip(ends[:-1], ends[1:]))
        self.house_ends = ends  # feeder j's houses are ends[j] to ends[j + 1] - 1
        self.feeder_of_house = np.repeat(np.arange(len(bounds)), np.diff(ends))  # j, in config order
        n = ends[-1]
        z, u = np.empty((n, 3)), [0.0] * n
        normal, uniform = self.rng_pop.standard_normal, self.rng_pop.random
        for i, row in enumerate(z):
            normal(out=row)
            u[i] = uniform()
        sigma_rc = math.log1p(cfgp.spread)
        r = cfgp.r_median * libm_exp(sigma_rc * z[:, 0])
        c = cfgp.c_median * libm_exp(sigma_rc * z[:, 1])
        if cfgp.comfort_k > 0:
            k = cfgp.comfort_k * libm_exp(math.log1p(cfgp.comfort_k_spread) * z[:, 2])
        else:
            k = np.zeros(n)
        phases = np.array(u) if cfgp.initial == "steady" else np.zeros(n)
        t_in, hvac_on = states_from_phases(phases, r, c, cfgp.q_hvac, self.thermostat, self.t_out(0.0))
        self.fleet = fleet = Population.from_arrays(
            self.thermostat, r, c, np.full(n, cfgp.q_hvac), np.full(n, cfgp.p_rated), k, t_in, hvac_on)
        self.market_setpoint = fleet.setpoint.copy()
        self.reg_offset = np.zeros(len(fleet))
        # the runs of houses that have a diversity, in feeder config order
        self.house_bounds = [(lo, hi) for lo, hi in bounds if hi > lo]
        self.feeders: dict[str, _FeederState] = {}
        for fspec, (lo, hi) in zip(self.cfg.feeders, bounds):
            pop = fleet.houses(lo, hi)
            n_armed = math.ceil(Fraction(repr(self.cfg.area.ufls.armed_fraction)) * fspec.houses)
            fs = _FeederState(
                spec=fspec,
                pop=pop,
                stats=PriceStats(
                    window=self.cfg.market.stats_window,
                    prior_mean=self.cfg.market.prior_mean,
                    prior_sigma=self.cfg.market.prior_sigma,
                ),
                n_armed=n_armed,
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
        can hold, day 0's forecasts included, in the order the run builds
        them: the market maker's blocks in step order, each battery's legs
        in device-id order, each feeder's base and response in config
        order, then every house in fleet order. Only the fixed ids are
        strings; each feeder's houses are one block of ranks, named by the
        table when something asks."""
        ids = auction.market_maker_ids(max(len(f.scarcity_steps) for f in self.cfg.feeders))
        self.market_maker = range(len(ids))
        ids += [f"{sid}_{leg}" for sid in self.soc_kwh for leg in ("chg", "dis")]
        ids += [f"{fid}_{step}" for fid in self.feeders for step in ("base", "resp")]
        self.ranks = OrderRanks(ids, [(fid, len(fs.pop)) for fid, fs in self.feeders.items()])
        for (_, first, _), fs in zip(self.ranks.blocks, self.feeders.values()):
            fs.first_rank = first
        # a storage order's fill is found in a curve by its rank
        self.storage_rank = {sid: self.ranks.of([f"{sid}_chg", f"{sid}_dis"]) for sid in self.soc_kwh}
        for fid, fs in self.feeders.items():
            fs.forecast_rank = self.ranks.of([f"{fid}_base", f"{fid}_resp"])

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def _bootstrap_forecast(self, period: int) -> dict[str, Bids]:
        """Day 0's forecast for one scheduling period: base load at the cap,
        and the median house's steady duty at the period's start at the prior
        mean. It keeps the steps of positive quantity, base first, unsorted:
        ``schedule_hourly`` merges steps given in any order."""
        cfgp = self.cfg.population
        mkt = self.cfg.market
        median = ThermalParams(cfgp.r_median, cfgp.c_median, cfgp.q_hvac, cfgp.p_rated)
        t_start = period * self.cfg.simulation.schedule_interval_s
        duty = steady_duty(median, self.thermostat, self.t_out(t_start))
        price = np.array([mkt.price_cap, mkt.prior_mean], dtype=np.float64)
        forecasts = {}
        for fid, fs in self.feeders.items():
            quantity = np.array([fs.spec.base_load_kw, fs.spec.houses * cfgp.p_rated * duty], dtype=np.float64)
            step = quantity > 0
            forecasts[fid] = Bids(price[step], quantity[step], fs.forecast_rank[step])
        return forecasts

    def _start_day(self, t: int, day: int, out: _Artifacts) -> list[HourEntry]:
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
        out.event({"t": t, "type": "schedule", "day": day, "prices": [e.price for e in sched]})
        keep = (day + 1) * 86400 < self.cfg.simulation.span_s  # a later day reads today's spans
        self.day_curves = [{fid: [] for fid in sorted(self.feeders)} for _ in hours] if keep else []
        return sched

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, out_dir: Path) -> RunArtifacts:
        cfg = self.cfg
        sim = cfg.simulation
        peak_load = 0.0
        energy_kwh = 0.0
        ufls_events = 0
        ufls_total_kw = 0.0

        area = cfg.area
        area_bulk = None  # the bulk price of the area supply built last
        if cfg.house_trace:
            for fs in self.feeders.values():
                fs.house_names = self.ranks.names(range(fs.first_rank, fs.first_rank + len(fs.pop))).tolist()
        with _Artifacts(Path(out_dir), cfg.house_trace) as out:
            for k in range(sim.span_s // sim.device_tick_s):
                t = k * sim.device_tick_s
                day = t // 86400
                hour_of_day = (t % 86400) // sim.schedule_interval_s
                interval_index = t // sim.market_interval_s

                if t % 86400 == 0:
                    sched = self._start_day(t, day, out)
                if t % sim.schedule_interval_s == 0:
                    entry = sched[hour_of_day]
                    bulk_price = self.da_price_for_hour(day * self.hours_per_day + hour_of_day)
                    # never above the bulk price, so scarcity steps (which config keeps
                    # above every day-ahead price) stay above an hour scheduled at the cap
                    anchor = min(entry.price, bulk_price) if entry.area_quantity_kw > 0 else bulk_price
                    specs = {fid: self._supply_spec(fs, anchor) for fid, fs in sorted(self.feeders.items())}
                    supplies: dict[tuple[str, tuple[str, ...]], auction.StepCurve] = {}  # this hour's
                    if bulk_price != area_bulk:
                        area_bulk, area_supply = bulk_price, build_area_supply(
                            area.renewables_price, area.renewables_capacity_mw * 1000.0, bulk_price,
                            area.bulk_capacity_mw * 1000.0)

                at_boundary = t % sim.market_interval_s == 0
                if at_boundary:
                    self._market_phase(t, interval_index, hour_of_day, entry, specs, supplies, area_supply, out)

                total_kw = self._device_phase(t, at_boundary, out)
                peak_load = max(peak_load, total_kw)
                energy_kwh += total_kw * (sim.device_tick_s / 3600.0)

                for shed_kw in self._balancing_block(t, out):
                    ufls_events += 1
                    ufls_total_kw += shed_kw

            final_div: dict[str, float | None] = {}
            self._request_diversity(out.writer, sim.span_s, final_div.update)
            # the one wait on the writer: the last markets.csv rows and final_div
            out.writer.finish()

        # every clearing price in clearing order: interval by interval, feeders sorted
        prices_seen = [p for ps in zip(*(self.feeder_prices[fid] for fid in sorted(self.feeders))) for p in ps]
        price_mean, price_sigma = mean_sigma(prices_seen) if prices_seen else (None, None)
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
                for fid, series in self.feeder_prices.items()
            },
            "ufls_events": ufls_events,
            "ufls_total_kw": ufls_total_kw,
            "final_diversity": final_div,
            "final_freq_hz": cfg.area.freq_nominal_hz + self.delta_f,
            "time_error_s": self.time_error_s,
            "settlement": {
                "buyer_payments": self._buyer_paid,
                "seller_receipts": self._seller_received,
                "scarcity_rent": self._rent_total,
                "residual": self._buyer_paid - self._seller_received - self._rent_total,
            },
        }
        manifest = out.write_summary(summary, {"config_sha256": cfg.config_hash(), "seed": cfg.seed,
                                               "span_s": sim.span_s, "start": sim.start.isoformat(),
                                               "version": __version__})
        return RunArtifacts(out_dir=out.out_dir, manifest=manifest, summary=summary)

    def _request_diversity(self, writer: _WriterProcess, t_s: float, then) -> None:
        """Samples each feeder's diversity at t_s from one phase pass over
        the area fleet, its two setpoint-only logs taken by the writer
        process. Once they are back, calls then with the diversities, in
        config order; None for a feeder without houses."""
        partial, on_ratio, off_ratio = cycle_ratios(self.fleet, self.t_out(t_s))
        n = len(partial.idx)

        def finish(logs: np.ndarray) -> None:
            phases = phases_from_logs(partial, logs[:n], logs[n:])
            divs = iter([diversity_from_phases(phases[lo:hi]) for lo, hi in self.house_bounds])
            then({fid: (next(divs) if len(fs.pop) else None) for fid, fs in self.feeders.items()})

        writer.request_logs(on_ratio, off_ratio, finish)

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def _supply_spec(self, fs: _FeederState, anchor: float) -> FeederSupplySpec:
        """A feeder's import blocks, anchored at anchor."""
        return FeederSupplySpec(wholesale_price=anchor, capacity_normal=fs.spec.capacity_kw,
                                scarcity_steps=fs.spec.scarcity_steps, price_cap=self.cfg.market.price_cap)

    def _fixed_orders(self, fid: str, fs: _FeederState) -> _FixedOrders:
        """The feeder's base load order and its batteries' ``storage_bids``
        at their charge now, as columns, with their bid lines."""
        buys: list[Order] = []
        if fs.spec.base_load_kw > 0:
            buys.append(Order(f"{fid}_base", SIDE_BUY, self.cfg.market.price_cap, fs.spec.base_load_kw))
        sells: list[Order] = []
        for placement in fs.storage:
            for order in storage_bids(placement.spec, self.soc_kwh[placement.spec.device_id]):
                (buys if order.side == SIDE_BUY else sells).append(order)
        lines = _t_lines([{"type": "bid", "market": fid, "order": o.order_id, "side": o.side, "price": o.price,
                           "quantity": o.quantity} for o in buys + sells])
        return _FixedOrders(order_columns(buys, self.ranks), order_columns(sells, self.ranks),
                            tuple(o.order_id for o in sells), lines)

    def _market_phase(self, t, interval_index, hour_of_day, entry: HourEntry, specs, supplies, area_supply,
                      out: _Artifacts) -> None:
        """One market interval. specs holds each feeder's supply spec of
        the hour; supplies, the hour's supply curves built so far, by
        feeder and sell orders."""
        cfg = self.cfg
        mkt = cfg.market
        interval_h = cfg.simulation.market_interval_s / 3600.0
        fleet = self.fleet
        demand_curves = {}
        rows = []  # each feeder's markets.csv cells up to the diversity

        # one bid pass over the area, each feeder's statistics (as they stand
        # before this interval's clearing) repeated over its houses
        feeders, of_house = self.feeders.values(), self.feeder_of_house
        house_stats = HouseStats(np.array([fs.stats.mean for fs in feeders])[of_house],
                                 np.array([fs.stats.sigma for fs in feeders])[of_house])
        bidders, bid_prices = fleet_bids(fleet.t_in, self.thermostat, fleet.comfort_k, house_stats, fleet.p_rated,
                                         fleet.latched, mkt.price_floor, mkt.price_cap)
        cut = bidders.searchsorted(self.house_ends).tolist()
        bid_runs = dict(zip(self.feeders, zip(cut, cut[1:])))
        house_rank = len(self.ranks.ids)  # the rank of the area's house 0

        for fid, fs in sorted(self.feeders.items()):
            fspec = fs.spec
            lo, hi = bid_runs[fid]
            idx, prices = bidders[lo:hi], bid_prices[lo:hi]
            quantities = fleet.p_rated[idx]
            legs = tuple(storage_legs(p.spec, self.soc_kwh[p.spec.device_id]) for p in fs.storage)
            fixed = fs.fixed.get(legs)
            if fixed is None:
                fixed = fs.fixed[legs] = self._fixed_orders(fid, fs)

            out.event(_house_bids_digest(t, fid, prices, quantities, mkt.price_cap))
            out.event_lines(_lines_at(fixed.bid_lines, t))

            demand = build_demand_curve(fixed.buys, self.ranks, Bids(prices, quantities, house_rank + idx))
            supply = supplies.get((fid, fixed.sell_ids))
            if supply is None:
                supply = supplies[fid, fixed.sell_ids] = build_feeder_supply(specs[fid], fixed.sells, self.ranks)
            result = clear_and_allocate(demand, supply, mkt.price_floor, mkt.price_cap)
            sold = market_maker_sold(result, supply, self.market_maker)
            rent = scarcity_rent(result, sold)
            demand_curves[fid] = demand
            if self.day_curves:
                self.day_curves[hour_of_day][fid].append((demand.cum, demand.price))

            n_buys, n_sells = len(result.buy_fills), len(result.sell_fills)
            # in ascending rank, the blocks' trade order (config keeps step prices rising above the anchor)
            fs.import_kw = left_sum(fill for _, fill in sold)
            out.event({"t": t, "type": "clearing", "market": fid, "price": result.price,
                       "quantity": result.quantity, "buys": n_buys, "sells": n_sells, "rent": rent,
                       "marginal": result.marginal_order})
            self.feeder_prices[fid].append(result.price)

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
                    self._settle_row(out, t, "seller", settle(
                        sid, interval_index, 0.0, entry.price, -discharge * interval_h, result.price))

            # two-settlement rows: the feeder buys its position, the market
            # maker sells it and keeps the rent
            sched_kw = entry.feeder_kw[fid]
            pos_kwh = sched_kw * interval_h
            self._settle_row(out, t, "buyer", settle(
                fid, interval_index, pos_kwh, entry.price, result.quantity * interval_h, result.price))
            self._settle_row(out, t, "seller", settle(
                f"{fid}__import", interval_index, -pos_kwh, entry.price, -(fs.import_kw * interval_h),
                result.price), rent * interval_h)

            # operating reference blends retail with the balancing request
            shed_age = None if self.last_shed_t is None else t - self.last_shed_t
            mode = reference_mode(self.ace_filtered, fspec.ace_threshold_mw, shed_age, fspec.ufls_recency_s)
            balance_kw = sched_kw + fs.reg_share * self.reg_agg_mw * 1000.0
            ref = feeder_reference(result.quantity, balance_kw, fspec.weight_normal,
                                   fspec.weight_contingency, mode)
            rows.append((t, fid, result.price, result.quantity, n_buys, n_sells, mode, ref, rent))
            fs.stats.observe(result.price)

        # price response: one pass moves every house's setpoint along its
        # feeder's inverted bid line, at its feeder's clearing price
        p_clear = np.array([self.feeder_prices[fid][-1] for fid in self.feeders])[of_house]
        self.market_setpoint[:] = fleet_setpoints(p_clear, self.thermostat, fleet.comfort_k, house_stats)

        # area-level aggregation, recorded for reporting
        merged = aggregate_demand(demand_curves.values())
        area_result = clear_area(merged, area_supply, mkt.price_floor, mkt.price_cap)
        out.event({"t": t, "type": "area_clearing", "price": area_result.price,
                   "quantity": area_result.quantity})
        area_row = (t, "__area", area_result.price, area_result.quantity, len(merged), 2, "normal",
                    area_result.quantity, 0.0)

        def write_rows(diversity: dict[str, float | None]) -> None:
            # the area mean over the feeders that have houses, folded in config order
            with_houses = [d for d in diversity.values() if d is not None]
            for row in rows:
                out.row("markets.csv", *row, diversity[row[1]])
            out.row("markets.csv", *area_row, left_sum(with_houses) / len(with_houses) if with_houses else None)

        # The market phase moves no house, so this samples the state the
        # bids were built from. It comes after the curves the day store
        # keeps, so its arrays, which wait for the writer, leave no gap
        # among them in memory. The rows wait for it; later intervals'
        # rows follow them.
        self._request_diversity(out.writer, t, write_rows)

    def _settle_row(self, out: _Artifacts, t: int, role: str, rec: SettlementRecord, rent_kwh: float = 0.0) -> None:
        """Writes one settlement.csv row from a settle() record and folds it
        into the run's totals. A seller's energies are negative; its
        payment is net of the rent it keeps."""
        payment = rec.payment + rent_kwh
        if role == "buyer":
            self._buyer_paid += payment
        else:
            self._seller_received -= payment
        self._rent_total += rent_kwh
        out.row("settlement.csv", rec.interval_index, t, rec.participant, role, rec.da_energy_kwh, rec.da_price,
                rec.rt_deviation_kwh, rec.rt_price, payment, rent_kwh)

    def _device_phase(self, t, at_boundary: bool, out: _Artifacts) -> float:
        sim = self.cfg.simulation
        fleet = self.fleet
        mean_t = 0.0
        if len(fleet):
            # np.clip(..., out=) and t_in.mean() without numpy's Python-level
            # wrappers: the C calls they end in, the same bits
            _clip(self.market_setpoint + self.reg_offset, self.thermostat.t_min, self.thermostat.t_max,
                  out=fleet.setpoint)
            fleet.tick(self.t_out(t), sim.device_tick_s / 3600.0, at_boundary)
            for fs in self.feeders.values():
                # each feeder's draw is a left fold over its own houses
                fs.house_power_kw = fs.pop.aggregate_power()
            mean_t = float(np.add.reduce(fleet.t_in) / len(fleet.t_in))
        resp = base = storage_net = 0.0
        for fid, fs in sorted(self.feeders.items()):
            resp += fs.house_power_kw
            base += fs.spec.base_load_kw
            storage_net += fs.storage_net_kw
            if out.house_trace:
                pop = fs.pop
                for house in zip(fs.house_names, pop.t_in.tolist(), pop.hvac_on.tolist(), pop.setpoint.tolist()):
                    out.row("houses.csv", t, *house)
        total = resp + base + storage_net
        out.row("load.csv", t, total, resp, base, storage_net, mean_t)
        return total

    def _balancing_block(self, t0: int, out: _Artifacts) -> list[float]:
        """Every balancing tick of the device tick that starts at t0.

        Each step advances the swing, the time error, the control error
        and the regulation split once, then the shedding relays; below the
        threshold a draw runs only while some armed relay is closed. A step
        does the operations of the scalar forms of ``tgsim.frequency``, its
        test oracle, in their order, on the constants of _init_balancing;
        it checks only the event windows that overlap the block. The
        area's load and import change only at device ticks, or when a
        shed opens a running unit's relay, so they are summed once and
        again only after such a shed. Each step's frequency.csv row goes
        to the writer process as one record, and the block's records are
        queued for its pipe as one frame. Returns the kW shed at each step
        that shed any.
        """
        (h, tick, f_nom, m, d, neg_droop, alpha, one_minus_alpha, beta, te_threshold, neg_te_threshold, f_fast,
         f_slow, ace_base, ten_bias, h_over_tau, neg_gain, cap, neg_cap, threshold, hold_s) = self._balancing
        t_end = t0 + tick
        windows = [w for w in self._event_windows if w[0] < t_end and w[1] > t0]
        feeders = list(self.feeders.values())

        delta_f = self.delta_f
        time_error_s = self.time_error_s
        ace_filtered = self.ace_filtered
        reg_gen_mw = self.reg_gen_mw
        above_since = self.above_threshold_since
        held = self.relays_held
        load_mw = gen_mw = None
        event_mw = 0.0
        records = []
        sheds = []
        for t in range(t0, t_end, h):
            if load_mw is None:
                load_kw = 0.0
                import_kw = 0.0
                for fs in feeders:
                    load_kw += fs.house_power_kw + fs.spec.base_load_kw + fs.storage_net_kw
                    import_kw += fs.import_kw
                load_mw = load_kw / 1000.0
                gen_mw = import_kw / 1000.0
            if windows:
                event_mw = 0.0
                for at_s, until_s, delta_p_mw in windows:
                    if at_s <= t < until_s:
                        event_mw += delta_p_mw

            # the loads' share of the droop, alpha * droop_mw, reduces load when positive
            droop_mw = neg_droop * delta_f
            delta_p = gen_mw + reg_gen_mw + one_minus_alpha * droop_mw + event_mw - (load_mw - alpha * droop_mw)
            delta_f = delta_f + h * (m * delta_p + d * delta_f)
            freq = f_nom + delta_f
            time_error_s = time_error_s + h * (freq - f_nom) / f_nom
            if time_error_s > te_threshold:
                f_sched = f_fast
            elif time_error_s < neg_te_threshold:
                f_sched = f_slow
            else:
                f_sched = f_nom
            ace_raw = ace_base - ten_bias * (freq - f_sched)
            ace_filtered = ace_filtered + h_over_tau * (ace_raw - ace_filtered)
            cmd = neg_gain * ace_filtered
            if neg_cap > cmd:
                cmd = neg_cap
            if cap < cmd:
                cmd = cap
            to_agg = beta * cmd
            reg_gen_mw = cmd - to_agg

            shed_kw = 0.0
            if freq < threshold:
                above_since = None
                if any(fs.armed_closed for fs in feeders):
                    shed_kw = self._shed(t, freq, out)
                    held = self.relays_held
                    if shed_kw > 0:
                        sheds.append(shed_kw)
                        load_mw = None
            else:
                if above_since is None:
                    above_since = t
                if held and t - above_since >= hold_s:
                    self.fleet.latched[:] = 0
                    for fs in feeders:
                        fs.armed_closed = fs.n_armed
                    self.relays_held = held = False
                    out.event({"t": t, "type": "ufls_release"})

            # one frequency_writer record; + 0.0 folds -0.0 to 0.0, as _Artifacts.row does
            records += (t, freq + 0.0, delta_f + 0.0, ace_raw + 0.0, ace_filtered + 0.0,
                        to_agg + 0.0, reg_gen_mw + 0.0, shed_kw + 0.0, time_error_s + 0.0)

        out.writer.send_records(array("d", records))
        self.delta_f = delta_f
        self.time_error_s = time_error_s
        self.ace_filtered = ace_filtered
        self.reg_gen_mw = reg_gen_mw
        self.reg_agg_mw = to_agg
        self.above_threshold_since = above_since
        # reg_offset is read only by the next device tick's setpoint clip
        self._apply_aggregator_command(to_agg)
        return sheds

    def _shed(self, t: int, freq: float, out: _Artifacts) -> float:
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
            closed = np.flatnonzero(fs.pop.latched[: fs.n_armed] == 0)
            shed = ufls_check(freq, ufls.threshold_hz, ufls.probability, (fs.first_rank + closed).tolist(),
                              self.rng_ufls)
            fs.armed_closed -= len(shed)
            for i in [rank - fs.first_rank for rank in shed]:
                fs.pop.latched[i] = 1
                if fs.pop.hvac_on[i]:
                    fs.pop.hvac_on[i] = 0
                    fs.house_power_kw -= float(fs.pop.p_rated[i])
                    shed_kw += float(fs.pop.p_rated[i])
            n_shed += len(shed)
        if n_shed:
            self.relays_held = True
            self.last_shed_t = t
            out.event({"t": t, "type": "ufls", "freq_hz": freq, "count": n_shed, "shed_kw": shed_kw})
        return shed_kw

    def _apply_aggregator_command(self, to_agg_mw: float) -> None:
        cap = self.cfg.area.regulation_capacity_mw
        if cap <= 0 or to_agg_mw == 0.0:
            # reg_offset.any() without its Python-level wrapper
            if np.logical_or.reduce(self.reg_offset):
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
