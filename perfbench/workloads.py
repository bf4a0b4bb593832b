"""Benchmark workloads: scaled runs derived in-process from shipped scenarios.

Each workload takes one YAML under ``scenarios/``, replaces its seed with
the benchmark seed, sets the span, and scales every feeder to a fixed
house count. Feeder capacity, the kW of each scarcity step and the base
load scale with the houses, so a scaled feeder keeps the market regime
of the shipped one (uncongested, scarce, or shedding).

Each workload also names the property that makes it worth running. A
run that loses that property measures something else, so it counts as
failed (see ``guard``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import yaml


@dataclass(frozen=True)
class RunFacts:
    """What a workload guard may look at after a run."""

    summary: dict
    bids_per_interval: float  # mean buy orders in the area demand curve
    feedback_calls: int  # calls of hierarchy.availability_feedback


@dataclass(frozen=True)
class Workload:
    scenario: str
    houses_per_feeder: int
    hours: int
    guard_text: str
    guard: Callable[[RunFacts], bool]


WORKLOADS: dict[str, Workload] = {
    # Per-house layers (diversity, bids, setpoints, curve build) do most
    # of the work; the per-house bid event lines make artifacts large.
    "fleet_diverse": Workload(
        scenario="baseline_200",
        houses_per_feeder=1000,
        hours=2,
        guard_text="at least 1000 buy orders per market interval",
        guard=lambda f: f.bids_per_interval >= 1000,
    ),
    # Same layers, other paths: a synchronized zero-deadband fleet, tied
    # bid prices (curve sorting falls to the id tie-break), rationing at
    # the clearing price, scarcity rent and a price that swings rail to
    # rail. Zero spread makes it independent of the seed.
    "fleet_sync_scarcity": Workload(
        scenario="scarcity_sync",
        houses_per_feeder=1000,
        hours=3,
        guard_text="clearing price alternates between the rails",
        guard=lambda f: sum(f.summary["price_alternations"].values()) > 0,
    ),
    # The only workload with latched relays (in the kernel and in bids
    # that abstain), shedding draws and the per-AGC-tick scan over armed
    # houses.
    "contingency_ufls": Workload(
        scenario="gen_loss_ufls",
        houses_per_feeder=1000,
        hours=3,
        guard_text="at least one under-frequency shed event",
        guard=lambda f: f.summary["ufls_events"] > 0,
    ),
    # Two whole days: the only workload that schedules day 1 from day 0's
    # availability feedback, with 43,200 AGC ticks. Few houses, so the
    # per-tick engine and frequency work is a large share of the run.
    "multiday_feedback": Workload(
        scenario="baseline_200",
        houses_per_feeder=20,
        hours=48,
        guard_text="day 1 is scheduled from availability feedback",
        guard=lambda f: f.feedback_calls > 0,
    ),
}


def derive_yaml(text: str, wl: Workload, seed: int) -> str:
    """Scenario text of the workload, derived from the shipped YAML."""
    doc = yaml.safe_load(text)
    doc["seed"] = seed
    doc["simulation"]["span_s"] = wl.hours * 3600
    for feeder in doc["feeders"]:
        k = wl.houses_per_feeder / feeder["houses"]
        feeder["houses"] = wl.houses_per_feeder
        feeder["capacity_kw"] = feeder["capacity_kw"] * k
        if "base_load_kw" in feeder:
            feeder["base_load_kw"] = feeder["base_load_kw"] * k
        if "scarcity_steps" in feeder:
            feeder["scarcity_steps"] = [[p, kw * k] for p, kw in feeder["scarcity_steps"]]
    return yaml.safe_dump(doc, sort_keys=False)
