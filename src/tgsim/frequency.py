"""Interconnection frequency dynamics and balancing-control arithmetic.

The interconnection is a single rotating mass. Frequency deviation
follows the first-order swing relation

    d(delta_f)/dt = M * delta_P + D * delta_f

with M in Hz/s per MW of imbalance and D a damping rate in 1/s that
must be negative (load relief opposes the excursion). Integrated with
forward Euler at the balancing tick h, stable while h * |D| < 1, and
settling at the fixed point delta_f = -M * delta_P / D for a sustained
imbalance. Primary response arrests frequency; it does not restore it.
Restoration is the secondary loop's job: the area control error is
smoothed through a first-order filter and a proportional command is
split between aggregators and generators.

Two control-error conventions are provided. nerc_ace is the reporting
form in MW with the bias in MW per 0.1 Hz; control_error is the raw
feeder/area control form with the bias in MW per Hz. They are kept as
separate functions on purpose and must not be mixed in one loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SwingParams:
    """Aggregate swing response: gain m_hz_per_s_mw, damping d_per_s < 0.

    The defaults are a scenario's area.swing defaults.
    """

    m_hz_per_s_mw: float = 0.01
    d_per_s: float = -0.2

    def __post_init__(self) -> None:
        if not self.m_hz_per_s_mw > 0:
            raise ValueError("M must be positive")
        if not self.d_per_s < 0:
            raise ValueError("D must be negative (damping opposes the excursion)")


def swing_step(delta_f: float, delta_p_mw: float, params: SwingParams, h_s: float) -> float:
    """One forward-Euler step of the interconnection frequency deviation."""
    if not h_s > 0:
        raise ValueError("step must be positive")
    if h_s * abs(params.d_per_s) >= 1.0:
        raise ValueError("unstable step: need h * |D| < 1")
    return delta_f + h_s * (params.m_hz_per_s_mw * delta_p_mw + params.d_per_s * delta_f)


def steady_state_deviation(delta_p_mw: float, params: SwingParams) -> float:
    """Fixed point of the swing relation for a sustained imbalance."""
    return -params.m_hz_per_s_mw * delta_p_mw / params.d_per_s


def nerc_ace(
    interchange_actual_mw: float,
    interchange_sched_mw: float,
    bias_mw_per_01hz: float,
    freq_actual_hz: float,
    freq_sched_hz: float,
    meter_error_mw: float = 0.0,
) -> float:
    """Reporting-form area control error in MW.

    ACE = (Pa - Ps) - 10 B (fa - fs) - Em, with B in MW per 0.1 Hz and
    negative by convention, so under-frequency yields negative ACE.
    """
    return (
        (interchange_actual_mw - interchange_sched_mw)
        - 10.0 * bias_mw_per_01hz * (freq_actual_hz - freq_sched_hz)
        - meter_error_mw
    )


def control_error(
    power_mw: float,
    power_sched_mw: float,
    bias_mw_per_hz: float,
    freq_hz: float,
    freq_sched_hz: float,
) -> float:
    """Control-loop error (Q - Qs) + B (f - fs), bias in MW per Hz."""
    return (power_mw - power_sched_mw) + bias_mw_per_hz * (freq_hz - freq_sched_hz)


def smooth_ace(filtered: float, raw: float, tau_s: float, h_s: float) -> float:
    """First-order low-pass update of the filtered control error.

    tau is the smoothing time constant (tens of seconds); h the update
    interval, which must be well under tau for the discrete filter to
    track the continuous one.
    """
    if not tau_s > 0:
        raise ValueError("tau must be positive")
    if not 0 < h_s <= tau_s:
        raise ValueError("need 0 < h <= tau")
    return filtered + (h_s / tau_s) * (raw - filtered)


@dataclass(frozen=True)
class RegulationSplit:
    """Fractions of each control path carried by responsive resources.

    alpha: share of primary (droop) response assigned to loads, the
    remainder to generators. beta: share of the secondary regulation
    command sent to aggregators, the remainder to generators.
    """

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")


def regulation_command(filtered_ace_mw: float, gain: float, capacity_mw: float) -> float:
    """Proportional secondary command, clipped to the procured capacity."""
    if gain < 0:
        raise ValueError("gain must be nonnegative")
    if capacity_mw < 0:
        raise ValueError("capacity must be nonnegative")
    cmd = -gain * filtered_ace_mw
    return min(max(cmd, -capacity_mw), capacity_mw)


def split_regulation(command_mw: float, split: RegulationSplit) -> tuple[float, float]:
    """(to_aggregators, to_generators) shares of a regulation command."""
    to_agg = split.beta * command_mw
    return to_agg, command_mw - to_agg


def ufls_check(
    freq_hz: float,
    threshold_hz: float,
    probability: float,
    armed_ids: list,
    rng: np.random.Generator,
) -> list:
    """Underfrequency load shedding draw for one balancing tick.

    When frequency sits below the threshold, each armed device sheds
    independently with the given probability; the draw order follows the
    sorted device keys (a run passes house ranks, in fleet order) so a
    fixed seed reproduces the exact set. Above the threshold nothing
    sheds and the stream is not consumed.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must lie in [0, 1]")
    if freq_hz >= threshold_hz:
        return []
    ordered = sorted(armed_ids)
    draws = rng.random(len(ordered))
    # rng.random() never returns 1.0, so probability 1.0 sheds everything
    return [dev for dev, u in zip(ordered, draws) if u < probability]


def time_error_step(time_error_s: float, freq_hz: float, freq_nominal_hz: float, h_s: float) -> float:
    """Accumulate clock error: integral of the relative frequency offset."""
    if not freq_nominal_hz > 0:
        raise ValueError("nominal frequency must be positive")
    return time_error_s + h_s * (freq_hz - freq_nominal_hz) / freq_nominal_hz


def time_correction_offset(time_error_s: float, threshold_s: float, offset_hz: float = 0.02) -> float:
    """Scheduled-frequency offset while a time correction is in force.

    A fast clock (positive accumulated error) schedules below nominal,
    a slow clock above, both by the fixed correction offset.
    """
    if threshold_s < 0 or offset_hz < 0:
        raise ValueError("threshold and offset must be nonnegative")
    if time_error_s > threshold_s:
        return -offset_hz
    if time_error_s < -threshold_s:
        return offset_hz
    return 0.0


def integrate_to_steady_state(
    delta_p_mw: float, params: SwingParams, h_s: float, tol: float = 1e-12, max_steps: int = 10_000_000
) -> float:
    """Run swing_step until successive deviations differ by under tol."""
    f = 0.0
    for _ in range(max_steps):
        nxt = swing_step(f, delta_p_mw, params, h_s)
        if abs(nxt - f) < tol:
            return nxt
        f = nxt
    raise RuntimeError("swing integration did not settle")
