"""Spectral and convolution tools for load-shift impact studies.

A valuation kernel v (cost, emissions or scarcity weight per unit load
per unit time) applied to a load trace L is the discrete convolution

    U[t] = sum_k v[k] * L[t - k] * dt

computed both by direct summation and by FFT with zero padding; the two
must agree to rounding error and tests hold them to that. The related
bookkeeping identity chains energy, load and ramp: load is the
derivative of cumulative energy and the integral of ramp, discretised
so the round trips are algebraically exact.

The displacement table maps wind penetration to fractional emissions
reduction per species, with linear interpolation between tabulated
penetrations and no extrapolation above the last row. Several species
respond non-monotonically (nitrous oxide peaks near 20 percent and
falls off as cycling duty worsens), which is why the table is data,
not a fitted curve.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Sequence

import numpy as np

EMISSIONS_SPECIES = ("co2", "n2o", "ch4", "co", "nox", "sox", "pm")

# fractional reduction by wind penetration; rows must stay aligned with
# EMISSIONS_SPECIES
_EMISSIONS_TABLE: dict[float, tuple[float, ...]] = {
    0.00: (0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00),
    0.10: (0.12, 0.09, 0.12, 0.10, 0.13, 0.08, 0.11),
    0.20: (0.21, 0.11, 0.17, 0.15, 0.22, 0.17, 0.22),
    0.30: (0.28, 0.10, 0.21, 0.19, 0.29, 0.24, 0.32),
    0.40: (0.33, 0.04, 0.23, 0.20, 0.34, 0.30, 0.40),
}
_PENETRATIONS = sorted(_EMISSIONS_TABLE)


@dataclass
class Series:
    """Uniformly sampled time series."""

    start: datetime
    period_s: float
    values: np.ndarray
    units: str = ""

    def __post_init__(self) -> None:
        if not self.period_s > 0:
            raise ValueError("period must be positive")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("series values must be one-dimensional")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series values must be finite")

    def __len__(self) -> int:
        return len(self.values)

    def times(self) -> list[datetime]:
        return [self.start + timedelta(seconds=self.period_s * k) for k in range(len(self))]


def _check_pair(v: Series, load: Series) -> None:
    if v.period_s != load.period_s:
        raise ValueError("series periods differ")
    if len(v) == 0 or len(load) == 0:
        raise ValueError("empty series")


def convolve_direct(v: Series, load: Series) -> Series:
    """Full discrete convolution scaled by the sample period.

    np.convolve evaluates the summation directly, making this the
    reference path the FFT route is checked against.
    """
    _check_pair(v, load)
    out = np.convolve(v.values, load.values) * (v.period_s / 3600.0)
    return Series(load.start, load.period_s, out, units=f"({v.units})*({load.units})*h")


def convolve_fft(v: Series, load: Series) -> Series:
    """Same convolution through zero-padded FFTs."""
    _check_pair(v, load)
    n = len(v) + len(load) - 1
    nfft = 1 << (n - 1).bit_length()
    spec = np.fft.rfft(v.values, nfft) * np.fft.rfft(load.values, nfft)
    out = np.fft.irfft(spec, nfft)[:n] * (v.period_s / 3600.0)
    return Series(load.start, load.period_s, out, units=f"({v.units})*({load.units})*h")


def shift_impact(v: Series, load: Series, shift_hours: float) -> dict[str, float]:
    """Total valuation change from delaying the load by shift_hours.

    The impact at a shift s is sum_t v[t] * L[t - s] * dt, one sample of
    the convolution of v with the reversed load. Both the direct and the
    FFT route are evaluated and must agree; the shift must fall on the
    sample grid.
    """
    _check_pair(v, load)
    steps = shift_hours * 3600.0 / v.period_s
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError("shift must be a whole number of samples")
    steps = int(round(steps))
    if not 0 <= steps < len(load):
        raise ValueError("shift outside the series span")
    rev = Series(load.start, load.period_s, load.values[::-1].copy(), load.units)
    idx = len(load) - 1 + steps
    direct = convolve_direct(v, rev).values
    viafft = convolve_fft(v, rev).values
    # a shift past the end of a short valuation kernel leaves no overlap
    # at all, which the full convolution does not even store
    shifted = float(direct[idx]) if idx < len(direct) else 0.0
    if idx < len(direct) and abs(direct[idx] - viafft[idx]) > 1e-9 * max(1.0, abs(direct[idx])):
        raise AssertionError("direct and FFT evaluations disagree")
    base = float(direct[len(load) - 1])
    return {
        "impact_at_zero_shift": base,
        "impact_at_shift": shifted,
        "impact_change": shifted - base,
    }


def energy_load_ramp(load: Series) -> tuple[Series, Series]:
    """Cumulative energy (trapezoid) and ramp (first difference) of a load.

    Energy is in unit-hours of the load's unit (kW in gives kWh out)
    with energy[0] = 0; ramp has one fewer sample, in units per hour.
    The discretisation mirrors load_from_energy/load_from_ramp exactly.
    """
    x = load.values
    ph = load.period_s / 3600.0
    steps = (x[1:] + x[:-1]) * (ph / 2.0)
    energy = np.concatenate(([0.0], np.cumsum(steps)))
    ramp = np.diff(x) / ph
    return (
        Series(load.start, load.period_s, energy, units=f"{load.units}h"),
        Series(load.start, load.period_s, ramp, units=f"{load.units}/h"),
    )


def load_from_energy(energy: Series, initial_load: float) -> Series:
    """Exact inverse of the trapezoid energy accumulation."""
    ph = energy.period_s / 3600.0
    out = np.empty(len(energy))
    out[0] = initial_load
    e = energy.values
    for k in range(1, len(e)):
        out[k] = 2.0 * (e[k] - e[k - 1]) / ph - out[k - 1]
    return Series(energy.start, energy.period_s, out)


def load_from_ramp(ramp: Series, initial_load: float) -> Series:
    """Exact inverse of the first-difference ramp."""
    ph = ramp.period_s / 3600.0
    out = np.concatenate(([initial_load], initial_load + np.cumsum(ramp.values) * ph))
    return Series(ramp.start, ramp.period_s, out)


def emissions_reduction(wind_penetration: float, species: str) -> float:
    """Fractional emissions reduction at a wind penetration level.

    Linear interpolation between tabulated penetrations; beyond the
    0.40 row the table is silent and extrapolating would invent data,
    so that is an error.
    """
    sp = species.lower()
    if sp not in EMISSIONS_SPECIES:
        raise KeyError(f"unknown species {species!r}")
    col = EMISSIONS_SPECIES.index(sp)
    w = float(wind_penetration)
    if w < 0.0 or w > _PENETRATIONS[-1]:
        raise ValueError(f"penetration {w} outside the tabulated range [0, {_PENETRATIONS[-1]}]")
    for lo, hi in zip(_PENETRATIONS, _PENETRATIONS[1:]):
        if w <= hi:
            if w == lo:
                return _EMISSIONS_TABLE[lo][col]
            frac = (w - lo) / (hi - lo)
            a = _EMISSIONS_TABLE[lo][col]
            b = _EMISSIONS_TABLE[hi][col]
            return a + frac * (b - a)
    return _EMISSIONS_TABLE[_PENETRATIONS[-1]][col]


def power_spectrum(series: Series) -> tuple[np.ndarray, np.ndarray]:
    """Hann-windowed magnitude spectrum: (frequency_hz, magnitude)."""
    n = len(series)
    if n < 2:
        raise ValueError("need at least two samples")
    window = np.hanning(n)
    spec = np.abs(np.fft.rfft(series.values * window)) / n
    freqs = np.fft.rfftfreq(n, d=series.period_s)
    return freqs, spec


# ----------------------------------------------------------------------
# CSV interchange
# ----------------------------------------------------------------------


def write_series_csv(series: Series, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "value"])
        for t, x in zip(series.times(), series.values):
            w.writerow([t.isoformat(), repr(float(x))])


def read_series_points(path) -> list[tuple[datetime, float]]:
    """Raw (time, value) rows of a series CSV, before regularisation."""
    points = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip().lower() for c in header[:2]] != ["time", "value"]:
            raise ValueError(f"{path}: expected header 'time,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t = datetime.fromisoformat(row[0].strip())
                if t.tzinfo is not None:
                    raise ValueError("timestamps are local time without a UTC offset")
                x = float(row[1])
                if not math.isfinite(x):
                    raise ValueError(f"value {x} is not finite")
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: bad row {row!r}") from exc
            points.append((t, x))
    if not points:
        raise ValueError(f"{path}: no data rows")
    return points


def ingest_series(path, units: str = "", max_gap_samples: int = 4) -> Series:
    """Read a series CSV into a uniform Series, filling modest gaps.

    The sample period is the smallest time difference present; every
    other difference must be a whole multiple of it. Missing interior
    samples up to max_gap_samples long are filled by linear
    interpolation, anything longer or any non-monotonic timestamp is an
    error.
    """
    points = read_series_points(path)
    if len(points) < 2:
        raise ValueError(f"{path}: need at least two samples")
    diffs = []
    for (t0, _), (t1, _) in zip(points, points[1:]):
        d = (t1 - t0).total_seconds()
        if d <= 0:
            raise ValueError(f"{path}: timestamps must strictly increase near {t1.isoformat()}")
        diffs.append(d)
    period = min(diffs)
    values: list[float] = [points[0][1]]
    for (t0, x0), (t1, x1) in zip(points, points[1:]):
        d = (t1 - t0).total_seconds()
        n = d / period
        if abs(n - round(n)) > 1e-6:
            raise ValueError(f"{path}: interval {d}s is not a multiple of the period {period}s")
        n = int(round(n))
        if n - 1 > max_gap_samples:
            raise ValueError(f"{path}: gap of {n - 1} samples before {t1.isoformat()} exceeds {max_gap_samples}")
        for k in range(1, n):
            values.append(x0 + (x1 - x0) * (k / n))
        # append the endpoint itself, not its k == n interpolation image,
        # so samples that are present in the file survive bit for bit
        values.append(x1)
    return Series(points[0][0], period, np.array(values), units=units)
