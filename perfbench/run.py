"""End-to-end and per-layer benchmark of tgsim runs.

Runs one workload (see workloads.py) repeatedly, each run in a fresh
child interpreter (child.py), for about ``--seconds`` seconds, checks
every run's outputs, and prints the metrics by name with their units.
The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
run_s, house_steps_per_s, setup_s, peak_rss_mb and artifact_mb. Each is
the median over the runs, with times scaled to a reference host speed
that a probe interleaved with each run measures (see end_to_end).
``--trace 1`` alternates untraced and traced runs. It reports the
per-layer metrics from the traced runs and trace_overhead, the ratio of
the median traced to untraced run_s.

Checks on every run, each failure counted in ``failed``:
  * every run of one invocation, traced or not, writes byte-identical
    artifacts (all runs use the same seed);
  * the settlement identity holds to rounding, in the summary and when
    recomputed from the ledger;
  * the run keeps its workload's defining property.
check_fail_frac is failed / attempted. It is printed, not a metric,
because it reads 0 on a correct program.

The per-run record (environment, source digest, summary and artifact
digests, every sample) is written to .perfbench-out/ in the checkout.
A run's summary digest is the same on every commit that leaves the
simulation unchanged.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload fleet_diverse --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
MIN_ROUNDS = {False: 3, True: 2}  # rounds of runs, by whether traced runs are interleaved
DEADLINE_S = 170  # no run outlives this, whatever --seconds says, so the benchmark ends within 180 s
# child.probe() seconds on the reference host (2-core Xeon VM, Python 3.11.7).
PROBE_REF_S = 1.5e-3
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "run_s": "s",
    "house_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "artifact_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name == "trace_overhead" or name.endswith("_ratio"):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    if name == "artifacts.events_bytes":
        return "bytes"
    return "count"


def source_digest() -> str:
    """sha256 of the simulator source and shipped scenarios the runs used."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src" / "tgsim").rglob("*.py")) + sorted((ROOT / "scenarios").glob("*.yaml"))
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or None


def run_child(workload: str, seed: int, traced: bool, work: Path, index: int, timeout: float) -> dict:
    out = work / f"run{index}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--out", str(out)]
    if traced:
        cmd += ["--trace", "--spans", str(OUT / f"{workload}-seed{seed}.spans.npz")]
    env = dict(os.environ, **{k: "1" for k in PINNED_THREADS})
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        res = {"failures": [f"run did not finish in {timeout:.0f} s"]}
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            res = {"failures": [f"run exited with {proc.returncode}: {tail[0]}"]}
        else:
            res = json.loads(lines[-1])
    shutil.rmtree(out, ignore_errors=True)
    res["traced"] = traced
    res["wall_s"] = time.perf_counter() - t0
    return res


def collect(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> list[dict]:
    """Run samples until the time budget is spent, at least MIN_ROUNDS rounds.

    With tracing, untraced and traced runs alternate, and which of the
    two goes first alternates from pair to pair.
    """
    start = time.perf_counter()
    runs: list[dict] = []
    kinds = [False, True] if trace else [False]
    for done in itertools.count(1):
        for traced in (kinds if done % 2 else kinds[::-1]):
            left = DEADLINE_S - (time.perf_counter() - start)
            runs.append(run_child(workload, seed, traced, work, len(runs), left))
        elapsed = time.perf_counter() - start
        next_end = elapsed + elapsed / done
        if (done >= MIN_ROUNDS[trace] and next_end > seconds) or next_end > DEADLINE_S:
            return runs


def check_determinism(runs: list[dict]) -> None:
    ref = next((r["artifact_sha256"] for r in runs if "artifact_sha256" in r), None)
    for r in runs:
        if "artifact_sha256" in r and r["artifact_sha256"] != ref:
            r["failures"].append("artifacts differ from the first run of the same seed")


def end_to_end(runs: list[dict]) -> dict[str, float]:
    """Medians over the runs, times in seconds of the reference host.

    A shared host's speed drifts by tens of percent within a minute. Each
    run's times are scaled by PROBE_REF_S / the median time of the probe
    loop interleaved with that run, which takes that drift out.
    """
    speed = [PROBE_REF_S / r["probe_s"] for r in runs]
    run_s = statistics.median(r["run_s"] * k for r, k in zip(runs, speed))
    return {
        "run_s": run_s,
        "house_steps_per_s": runs[0]["house_steps"] / run_s,
        "setup_s": statistics.median(s * k for r, k in zip(runs, speed) for s in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "artifact_mb": statistics.median(r["artifact_bytes"] for r in runs) / 1e6,
    }


def per_layer(runs: list[dict]) -> dict[str, float]:
    """Medians of the traced runs, times scaled like end_to_end's."""
    traced = [r for r in runs if r["traced"]]
    untraced = [r for r in runs if not r["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        timed = layer_unit(name) == "s"
        metrics[name] = statistics.median(
            r["layers"][name] * (PROBE_REF_S / r["probe_s"] if timed else 1) for r in traced
        )
    run_s = lambda rs: statistics.median(r["run_s"] * PROBE_REF_S / r["probe_s"] for r in rs)  # noqa: E731
    metrics["trace_overhead"] = run_s(traced) / run_s(untraced)
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    wl = WORKLOADS[args.workload]
    needed = [ROOT / "src" / "tgsim" / "engine.py", ROOT / "scenarios" / f"{wl.scenario}.yaml"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"not a tgsim checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        runs = collect(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    check_determinism(runs)
    failed = sum(bool(r["failures"]) for r in runs)
    usable = [r for r in runs if "run_s" in r]
    if not any(not r["traced"] for r in usable) or (args.trace and not any(r["traced"] for r in usable)):
        for r in runs:
            print("\n".join(r["failures"]), file=sys.stderr)
        print("no run completed; no result", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(usable)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(usable)
        units = END_TO_END_UNITS
    first = usable[0]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": dict(
            first["env"],
            nproc=os.cpu_count(),
            blas_threads={k: "1" for k in PINNED_THREADS},
            commit=git_commit(),
            source_sha256=source_digest(),
        ),
        "summary_sha256": first["summary_sha256"],
        "artifact_sha256": first["artifact_sha256"],
        "check_fail_frac": failed / len(runs),
        "metrics": metrics,
        "runs": runs,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    env = record["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {len(runs)} ({sum(r['traced'] for r in runs)} traced)")
    print(f"env python {env['python']}  numpy {env['numpy']}  backend {env['backend']}  "
          f"nproc {env['nproc']}  blas threads 1  commit {env['commit']}  source {env['source_sha256'][:16]}")
    print(f"summary sha256 {record['summary_sha256']}  artifacts sha256 {record['artifact_sha256']}")
    for r in runs:
        for f in r["failures"]:
            print(f"CHECK FAILED: {f}")
    samples = sum(not r["traced"] for r in usable)
    if not args.trace:
        print(f"raw wall run_s median {statistics.median(r['wall_run_s'] for r in usable):.4f} s, "
              f"probe median {statistics.median(r['probe_s'] for r in usable) * 1e3:.4f} ms "
              f"(reference {PROBE_REF_S * 1e3} ms)")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6g} {units[name]}")
    print(f"  {'check_fail_frac':34s} {record['check_fail_frac']:16.6g} ratio  ({failed}/{len(runs)} runs)")
    print(f"medians over {samples} untraced runs" + (f" and {len(usable) - samples} traced runs" if args.trace else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
