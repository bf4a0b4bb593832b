"""Per-layer tracing from outside the program.

The tracer replaces every function that ``tgsim.engine`` imports from
another tgsim module, and ``Population.tick``, with a wrapper that
records a span (start, end) and, for some functions, work counters.
Spans stay in memory and are written out when the run ends.

Library modules call each other through their own namespaces, so only
the engine's calls are wrapped and spans never nest: the engine's self
time is the traced run time minus the sum of all span durations. Time
that a later change moves out of a wrapped function (for example bids
built as arrays inside the engine) therefore shows up as engine self
time instead of vanishing.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter

import numpy as np

TICK = "thermal.Population.tick"


def _count_tick(c: Counter, args, out) -> None:
    pop = args[0]
    c["house_steps"] += len(pop)
    c["latched_house_ticks"] += int(pop.latched.sum())


def _count_bid(c: Counter, args, out) -> None:
    c["bid_abstain"] += out is None


def _count_demand(c: Counter, args, out) -> None:
    c["demand_segments"] += len(out)


def _count_clear(c: Counter, args, out) -> None:
    c["no_trade"] += out.quantity <= 0.0
    c["partial_fill"] += out.marginal_order is not None


def _count_feedback(c: Counter, args, out) -> None:
    c["feedback_curves_in"] += len(args[0])


def _count_ufls(c: Counter, args, out) -> None:
    c["ufls_candidates"] += len(args[3])
    c["ufls_shed"] += len(out)


COUNTERS = {
    TICK: _count_tick,
    "bidding.thermostat_bid": _count_bid,
    "auction.build_demand_curve": _count_demand,
    "auction.clear_and_allocate": _count_clear,
    "hierarchy.availability_feedback": _count_feedback,
    "frequency.ufls_check": _count_ufls,
}


class Tracer:
    """Spans and counters of one process; install once, before the run."""

    def __init__(self) -> None:
        self.spans: dict[str, array] = {}
        self.counts: Counter = Counter()
        # start times and cumulative durations of intervals that belong to
        # no layer (host-speed probes), with a leading zero
        self._pause_starts = np.zeros(0)
        self._pause_cum = np.zeros(1)

    def install(self, engine_module, population_cls) -> None:
        for attr, fn in list(vars(engine_module).items()):
            mod = getattr(fn, "__module__", "") or ""
            if inspect.isfunction(fn) and mod.startswith("tgsim.") and mod != engine_module.__name__:
                name = f"{mod.rsplit('.', 1)[-1]}.{attr}"
                setattr(engine_module, attr, self._wrap(name, fn))
        population_cls.tick = self._wrap(TICK, population_cls.tick)

    def _wrap(self, name: str, fn):
        buf = self.spans.setdefault(name, array("d"))
        counter = COUNTERS.get(name)
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            t1 = clock()
            buf.append(t0)
            buf.append(t1)
            if counter is not None:
                counter(counts, args, out)
            return out

        return traced

    def clear(self) -> None:
        for buf in self.spans.values():
            del buf[:]
        self.counts.clear()

    def exclude(self, intervals: list[tuple[float, float]]) -> None:
        """Leave these disjoint (start, end) intervals out of every span."""
        self._pause_starts = np.array([start for start, _ in intervals])
        self._pause_cum = np.concatenate(([0.0], np.cumsum([end - start for start, end in intervals])))

    def seconds(self, name: str) -> float:
        buf = self.spans.get(name)
        if not buf:
            return 0.0
        t = np.frombuffer(buf, dtype=np.float64)
        start, end = t[0::2], t[1::2]
        # an excluded interval runs to completion inside whatever span it starts in
        cum, starts = self._pause_cum, self._pause_starts
        paused = cum[np.searchsorted(starts, end)] - cum[np.searchsorted(starts, start)]
        return float(np.sum(end - start - paused))

    def calls(self, name: str) -> int:
        return len(self.spans.get(name, ())) // 2

    def module_seconds(self, module: str) -> float:
        return sum(self.seconds(n) for n in self.spans if n.startswith(module + "."))

    def total_seconds(self) -> float:
        return sum(self.seconds(n) for n in self.spans)

    def save(self, path) -> None:
        """Write spans as one (n, 2) array of start/end seconds per function."""
        np.savez_compressed(
            path, **{n: np.frombuffer(b, dtype=np.float64).reshape(-1, 2) for n, b in self.spans.items() if b}
        )


def layer_metrics(run: Tracer, run_s: float, state_from_phase_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; ``run`` holds only run() spans.

    Every time reported here is spent on every workload. A function that
    runs on some workloads only (availability feedback, storage, the
    shedding draw) is timed inside a total that is never zero, and its
    work shows as a count.
    """
    s, n, c = run.seconds, run.calls, run.counts
    bid_calls = n("bidding.thermostat_bid")
    return {
        "thermal.tick_s": s(TICK),
        "thermal.house_steps": c["house_steps"],
        "thermal.latched_house_ticks": c["latched_house_ticks"],
        "thermal.diversity_s": s("thermal.diversity_metric"),
        "thermal.state_from_phase_s": state_from_phase_s,
        "bidding.bid_s": s("bidding.thermostat_bid"),
        "bidding.bid_calls": bid_calls,
        "bidding.bid_abstain_ratio": c["bid_abstain"] / bid_calls if bid_calls else 0.0,
        "bidding.setpoint_s": s("bidding.setpoint_from_price"),
        "bidding.s": run.module_seconds("bidding"),
        "auction.demand_curve_s": s("auction.build_demand_curve"),
        "auction.demand_segments": c["demand_segments"],
        "auction.supply_curve_s": s("auction.build_feeder_supply"),
        "auction.clear_s": s("auction.clear_and_allocate"),
        "auction.no_trade_clearings": c["no_trade"],
        "auction.partial_fill_clearings": c["partial_fill"],
        "auction.area_clear_s": s("auction.clear_area"),
        "hierarchy.schedule_s": s("hierarchy.schedule_hourly") + s("hierarchy.availability_feedback"),
        "hierarchy.feedback_curves_in": c["feedback_curves_in"],
        "hierarchy.settle_s": s("hierarchy.settle"),
        "hierarchy.rent_s": s("hierarchy.scarcity_rent"),
        "hierarchy.reference_s": s("hierarchy.reference_mode") + s("hierarchy.feeder_reference"),
        "frequency.s": run.module_seconds("frequency"),
        "frequency.agc_ticks": n("frequency.swing_step"),
        "frequency.ufls_candidates": c["ufls_candidates"],
        "frequency.ufls_shed": c["ufls_shed"],
        "engine.run_s": run_s,
        "engine.self_s": run_s - run.total_seconds(),
    }
