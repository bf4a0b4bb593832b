"""One measured run of a workload, alone in a fresh interpreter.

run.py starts this script once per sample, so each sample gets its own
peak RSS (the high-water mark only ever rises within a process) and its
own cold process. The script prints one JSON object on its last stdout line.

Usage:
    python3 perfbench/child.py --workload NAME --seed N --out DIR
                               [--trace --spans FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import signal
import statistics
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, RunFacts, derive_yaml

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
PROBE_INTERVAL_S = 0.1
# The settlement identity holds to rounding, not exactly: the shipped
# scarcity_sync golden leaves -5.8e-11 on payments of order 1e5.
SETTLEMENT_RTOL = 1e-12


def artifact_digest(out: Path) -> tuple[str, int]:
    """sha256 over every artifact's name and bytes, and their total size."""
    h = hashlib.sha256()
    total = 0
    for p in sorted(out.iterdir()):
        data = p.read_bytes()
        total += len(data)
        h.update(p.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest(), total


def probe() -> float:
    """Seconds a fixed float loop takes: how fast this CPU runs right now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20_000):
        acc += i * 0.5
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """High-water resident set of this process alone, in MiB (Linux).

    ru_maxrss would also count the parent's pages that this process
    shared between fork and exec, so read the kernel's VmHWM instead.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def settlement_failure(label: str, ledger: dict) -> str | None:
    scale = abs(ledger["buyer_payments"]) + abs(ledger["seller_receipts"]) + abs(ledger["scarcity_rent"])
    if not math.isfinite(ledger["residual"]) or abs(ledger["residual"]) > SETTLEMENT_RTOL * max(scale, 1.0):
        return f"{label} settlement residual {ledger['residual']!r} on payments of {scale!r}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import tgsim
    from tgsim import engine, thermal
    from tgsim.config import parse_config
    from tgsim.report import load_table, settlement_check

    if ROOT / "src" not in Path(tgsim.__file__).resolve().parents:
        print(f"tgsim imported from {tgsim.__file__}, not from this checkout", file=sys.stderr)
        return 3

    wl = WORKLOADS[args.workload]
    text = (ROOT / "scenarios" / f"{wl.scenario}.yaml").read_text()

    tracer = None
    if args.trace:
        from layers import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install(engine, thermal.Population)
    feedback_calls = []
    real_feedback = engine.availability_feedback

    def counted_feedback(curves):
        feedback_calls.append(None)
        return real_feedback(curves)

    engine.availability_feedback = counted_feedback

    setup_s = []
    for _ in range(SETUP_REPEATS):
        sim = None  # free the previous population before building the next
        if tracer is not None:
            tracer.clear()
        t0 = time.perf_counter()
        cfg = parse_config(derive_yaml(text, wl, args.seed))
        sim = engine.SimulationRun(cfg, base_dir=ROOT)
        setup_s.append(time.perf_counter() - t0)
    if tracer is not None:
        state_from_phase_s = tracer.seconds("thermal.state_from_phase")
        tracer.clear()

    # The run is interrupted every PROBE_INTERVAL_S by the probe, so it
    # samples the host's speed on the same CPU over the whole run. Its
    # own time is taken out of run_s, and out of any span it landed in.
    probes = [probe()]
    in_run: list[tuple[float, float]] = []

    def on_alarm(signum, frame):
        start = time.perf_counter()
        probe()
        in_run.append((start, time.perf_counter()))

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    t0 = time.perf_counter()
    art = sim.run(args.out)
    wall_run_s = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    run_s = wall_run_s - sum(end - start for start, end in in_run)
    probes += [end - start for start, end in in_run] + [probe()]
    peak_rss = peak_rss_mb()

    digest, artifact_bytes = artifact_digest(args.out)
    markets = load_table(args.out / "markets.csv")
    area_rows = [n for m, n in zip(markets["market_id"], markets["n_buy_orders"]) if m == "__area"]
    facts = RunFacts(
        summary=art.summary,
        bids_per_interval=statistics.fmean(area_rows) if area_rows else 0.0,
        feedback_calls=len(feedback_calls),
    )
    failures = [
        f for f in (
            settlement_failure("summary", art.summary["settlement"]),
            settlement_failure("ledger", settlement_check(args.out)),
        ) if f
    ]
    if not wl.guard(facts):
        failures.append(f"workload property lost: {wl.guard_text}")

    sim_cfg = cfg.simulation
    result = {
        "run_s": run_s,
        "wall_run_s": wall_run_s,
        "probe_s": statistics.median(probes),
        "probes": len(probes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "artifact_bytes": artifact_bytes,
        "house_steps": sum(f.houses for f in cfg.feeders) * (sim_cfg.span_s // sim_cfg.device_tick_s),
        "artifact_sha256": digest,
        "summary_sha256": hashlib.sha256((args.out / "summary.json").read_bytes()).hexdigest(),
        "bids_per_interval": facts.bids_per_interval,
        "failures": failures,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "backend": getattr(tgsim, "BACKEND", None),
        },
    }
    if tracer is not None:
        events = (args.out / "events.jsonl").read_bytes()
        tracer.exclude(in_run)
        layer = layer_metrics(tracer, run_s, state_from_phase_s)
        layer["artifacts.events_bytes"] = len(events)
        layer["artifacts.event_lines_bid"] = events.count(b'"type":"bid"')
        layer["artifacts.frequency_rows"] = len(load_table(args.out / "frequency.csv")["t_s"])
        result["layers"] = layer
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
