"""Post-run analysis over artifact directories.

Everything here reads the CSV artifacts back into plain structures and
computes comparisons; nothing mutates a run directory. The loaders are
deliberately tolerant of column order only, not of missing columns.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .fold import left_sum


def load_table(path) -> dict[str, list]:
    """Read a CSV into {column: list}, floats where they parse."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        cols: dict[str, list] = {name: [] for name in reader.fieldnames}
        for row in reader:
            for name in reader.fieldnames:
                raw = row[name]
                try:
                    cols[name].append(float(raw))
                except ValueError:
                    cols[name].append(raw)
    return cols


def load_summary(run_dir) -> dict:
    return json.loads((Path(run_dir) / "summary.json").read_text())


def price_alternations(
    prices: list[float],
    price_floor: float = 0.0,
    price_cap: float = 1000.0,
    high_frac: float = 0.75,
    low_frac: float = 0.25,
) -> int:
    """Longest run of consecutive rail-to-rail price flips.

    A price counts as high in the top quarter of the floor-to-cap range
    and low in the bottom quarter; anything in between breaks the run.
    The return value is the number of switches in the longest strictly
    alternating high/low stretch, so small fluctuations around a normal
    clearing level score zero.
    """
    if len(prices) < 2 or not price_cap > price_floor:
        return 0
    hi_cut = price_floor + high_frac * (price_cap - price_floor)
    lo_cut = price_floor + low_frac * (price_cap - price_floor)

    def classify(p: float) -> int:
        if p >= hi_cut:
            return 1
        if p <= lo_cut:
            return 0
        return -1

    classes = [classify(p) for p in prices]
    best = run = 0
    for a, b in zip(classes, classes[1:]):
        if a >= 0 and b >= 0 and a != b:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best


def price_duration_curve(prices: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-descending prices against the fraction of intervals at or above."""
    arr = np.sort(np.asarray(prices, dtype=np.float64))[::-1]
    frac = (np.arange(len(arr)) + 1) / len(arr)
    return frac, arr


def summarize_run(run_dir) -> dict:
    """Headline numbers for one run directory."""
    run_dir = Path(run_dir)
    load = load_table(run_dir / "load.csv")
    markets = load_table(run_dir / "markets.csv")
    freq = load_table(run_dir / "frequency.csv")
    summary = load_summary(run_dir)
    feeder_prices = [
        p for p, mid in zip(markets["price"], markets["market_id"]) if mid != "__area"
    ]
    dt_h = 0.0
    if len(load["t_s"]) > 1:
        dt_h = (load["t_s"][1] - load["t_s"][0]) / 3600.0
    return {
        "peak_load_kw": max(load["load_kw"]) if load["load_kw"] else 0.0,
        "energy_kwh": left_sum(v * dt_h for v in load["load_kw"]),
        "mean_price": (left_sum(feeder_prices) / len(feeder_prices)) if feeder_prices else None,
        "max_price": max(feeder_prices) if feeder_prices else None,
        "min_freq_hz": min(freq["freq_hz"]) if freq["freq_hz"] else None,
        "max_abs_delta_f_hz": max(abs(v) for v in freq["delta_f_hz"]) if freq["delta_f_hz"] else None,
        "alternations": max(summary["price_alternations"].values(), default=0)
        if summary.get("price_alternations")
        else 0,
        "settlement_residual": summary["settlement"]["residual"],
    }


def compare_runs(base_dir, other_dir) -> dict:
    """Relative change of the headline numbers, other versus base.

    Runs of different spans are not comparable and are rejected.
    """
    span_a = load_summary(base_dir)["span_s"]
    span_b = load_summary(other_dir)["span_s"]
    if span_a != span_b:
        raise ValueError(f"span mismatch: {span_a} s vs {span_b} s")
    base = summarize_run(base_dir)
    other = summarize_run(other_dir)

    def rel(key: str) -> float | None:
        b, o = base.get(key), other.get(key)
        if b in (None, 0.0) or o is None:
            return None
        return (o - b) / b

    return {
        "base": base,
        "other": other,
        "peak_reduction_pct": None if rel("peak_load_kw") is None else -100.0 * rel("peak_load_kw"),
        "energy_delta_pct": None if rel("energy_kwh") is None else 100.0 * rel("energy_kwh"),
    }


def settlement_check(run_dir) -> dict:
    """Recompute the budget identity from the settlement ledger.

    Buyer payments must equal seller receipts (net of rent) plus the
    reported scarcity rent. Returns the three sums and the residual.
    """
    rows = load_table(Path(run_dir) / "settlement.csv")
    buyers = left_sum(p for p, role in zip(rows["payment"], rows["role"]) if role == "buyer")
    sellers = -left_sum(p for p, role in zip(rows["payment"], rows["role"]) if role == "seller")
    rent = left_sum(rows["scarcity_rent"])
    return {
        "buyer_payments": buyers,
        "seller_receipts": sellers,
        "scarcity_rent": rent,
        "residual": buyers - sellers - rent,
    }
