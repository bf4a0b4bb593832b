"""First-order thermal models of houses with switched HVAC.

Each house is a single lumped thermal mass behind a single thermal
resistance to ambient:

    dT_in/dt = (T_out - T_in) / (R * C) + q_hvac / C

with R in degC/kW, C in kWh/degC and q_hvac in thermal kW (negative for
cooling, positive for heating). Over a tick of h hours with q held
constant the update has the exact closed form

    T_eq  = T_out + q * R
    T_in' = T_eq + (T_in - T_eq) * exp(-h / (R * C))

so the integration is step-size independent: two half ticks compose to
one full tick exactly. The scalar functions below (``decide``,
``step_house``, ``aggregate_power``) state the model one house at a
time and are the oracles for the array tick in :class:`Population`,
which must reproduce them bit for bit.

Two thermostat kinds are modelled. The conventional hysteresis
thermostat switches whenever temperature leaves its deadband. The
zero-deadband thermostat has no hysteresis band at all and holds its
relay state between market boundaries, so an entire population of them
changes state only when a clearing price arrives. That synchronisation
is deliberate: it is the failure mode some of the scarcity scenarios
exist to reproduce.

The steady on/off cycle between two band edges (the population-state
view of load diversity) is stated once, in ``_cycle``, for both modes.
``cycle_phase``, ``state_from_phase`` and ``steady_duty`` read their
geometry from it. Two functions restate it as array passes over a fleet,
with libm's logs and exps, and tests pin each to its scalar form bit for
bit: ``cycle_phases`` (a ratio pass and a finishing pass around the
logs) restates ``cycle_phase``, and ``states_from_phases``, which sets
a fleet's initial state, restates ``state_from_phase``. Both take the
test of which houses can cycle, and the band edges of their runs, from
``_cycling``, the one array form of ``_cycle``'s test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .fold import array_sum, left_sum, libm_exp, libm_log, py_max, py_min

MODE_COOLING = "cooling"
MODE_HEATING = "heating"

KIND_HYSTERESIS = "hysteresis"
KIND_ZERO_DEADBAND = "zero_deadband"


@dataclass(frozen=True)
class ThermalParams:
    """Envelope and equipment constants for one house.

    r_thermal : degC per kW of continuous heat flux
    c_thermal : kWh per degC of storage in the lumped mass
    q_hvac    : thermal output of the unit when on, kW (cooling < 0)
    p_rated   : electrical draw of the unit when on, kW (> 0)
    """

    r_thermal: float
    c_thermal: float
    q_hvac: float
    p_rated: float

    def __post_init__(self) -> None:
        if not (self.r_thermal > 0 and self.c_thermal > 0):
            raise ValueError("r_thermal and c_thermal must be positive")
        if not self.p_rated > 0:
            raise ValueError("p_rated must be positive")


@dataclass(frozen=True)
class ThermostatConfig:
    """Switching rule of one house, or of every house in a fleet.

    kind is "hysteresis" or "zero_deadband". Setpoint is the market-
    adjusted target (a fleet starts each house's setpoint here); comfort
    limits t_min/t_max bound how far price response may push it.
    deadband only applies to the hysteresis kind.
    """

    kind: str
    mode: str
    setpoint: float
    deadband: float
    t_min: float
    t_max: float
    t_desired: float

    def __post_init__(self) -> None:
        if self.kind not in (KIND_HYSTERESIS, KIND_ZERO_DEADBAND):
            raise ValueError(f"unknown thermostat kind {self.kind!r}")
        if self.mode not in (MODE_COOLING, MODE_HEATING):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.kind == KIND_HYSTERESIS and not self.deadband > 0:
            raise ValueError("hysteresis thermostat needs deadband > 0")
        if not (self.t_min < self.t_desired < self.t_max):
            raise ValueError("need t_min < t_desired < t_max")


@dataclass(frozen=True)
class HouseState:
    """Instantaneous state: indoor temperature and relay position."""

    t_in: float
    hvac_on: bool


def step_house(state: HouseState, params: ThermalParams, t_out: float, h: float) -> HouseState:
    """Advance one house h hours with its relay state held fixed.

    Uses the exact exponential solution of the first-order model, so
    composing two half steps equals one full step to rounding error.
    """
    if not h > 0:
        raise ValueError("tick length must be positive")
    if not (math.isfinite(state.t_in) and math.isfinite(t_out)):
        raise ValueError("non-finite temperature")
    q = params.q_hvac if state.hvac_on else 0.0
    t_eq = t_out + q * params.r_thermal
    decay = math.exp(-h / (params.r_thermal * params.c_thermal))
    return replace(state, t_in=t_eq + (state.t_in - t_eq) * decay)


def hysteresis_decide(t_in: float, cfg: ThermostatConfig, prior_on: bool) -> bool:
    """Relay decision for a conventional deadband thermostat.

    Cooling: on at or above setpoint + deadband/2, off at or below
    setpoint - deadband/2, otherwise hold. Heating is the mirror image.
    """
    half = cfg.deadband / 2.0
    if cfg.mode == MODE_COOLING:
        if t_in >= cfg.setpoint + half:
            return True
        if t_in <= cfg.setpoint - half:
            return False
    else:
        if t_in <= cfg.setpoint - half:
            return True
        if t_in >= cfg.setpoint + half:
            return False
    return prior_on


def boundary_decide(
    t_in: float, cfg: ThermostatConfig, prior_on: bool, at_market_boundary: bool
) -> bool:
    """Relay decision for the zero-deadband, market-synchronised kind.

    Between market boundaries the relay holds whatever it last was.
    At a boundary it switches purely on which side of the setpoint the
    temperature sits, with no hysteresis band.
    """
    if not at_market_boundary:
        return prior_on
    if cfg.mode == MODE_COOLING:
        return t_in > cfg.setpoint
    return t_in < cfg.setpoint


def decide(
    t_in: float, cfg: ThermostatConfig, prior_on: bool, at_market_boundary: bool
) -> bool:
    if cfg.kind == KIND_HYSTERESIS:
        return hysteresis_decide(t_in, cfg, prior_on)
    return boundary_decide(t_in, cfg, prior_on, at_market_boundary)


# ----------------------------------------------------------------------
# Population container
# ----------------------------------------------------------------------


class Population:
    """Struct-of-arrays container for a fleet of houses.

    The fleet follows one thermostat rule, ``cfg``. Per-house scalars,
    the setpoint among them, live in aligned numpy arrays and ``tick``
    steps the whole fleet at once. The scalar functions above are the
    oracles for that array tick; tests pin it to them bit for bit.

    ``from_arrays`` is the one way in: it takes one array per house
    field and checks them as ``ThermalParams`` checks one house.
    ``Population(params, cfg, states, comfort_k)`` turns per-house rows
    into those arrays, for tests and hand-built fleets. Houses are known
    by their index; the fleet carries no market ids.

    ``houses(lo, hi)`` gives a contiguous run of houses as a Population
    whose arrays are views of this one's, so a part and its whole read
    and write the same houses.
    """

    _ARRAYS = ("r_thermal", "c_thermal", "q_hvac", "p_rated", "setpoint",
               "comfort_k", "t_in", "hvac_on", "latched")

    def __init__(
        self,
        params: Sequence[ThermalParams],
        cfg: ThermostatConfig,
        states: Sequence[HouseState],
        comfort_k: Sequence[float],
    ) -> None:
        self._fill(
            cfg,
            [p.r_thermal for p in params], [p.c_thermal for p in params],
            [p.q_hvac for p in params], [p.p_rated for p in params],
            comfort_k, [s.t_in for s in states], [s.hvac_on for s in states],
        )

    @classmethod
    def from_arrays(cls, cfg: ThermostatConfig, r_thermal, c_thermal, q_hvac, p_rated, comfort_k, t_in,
                    hvac_on) -> Population:
        """A fleet from one array (or sequence) per house field, in house
        order; ``hvac_on`` is truth values."""
        pop = cls.__new__(cls)
        pop._fill(cfg, r_thermal, c_thermal, q_hvac, p_rated, comfort_k, t_in, hvac_on)
        return pop

    def _fill(self, cfg, r_thermal, c_thermal, q_hvac, p_rated, comfort_k, t_in, hvac_on) -> None:
        self.cfg = cfg
        self.r_thermal = np.array(r_thermal, dtype=np.float64)
        self.c_thermal = np.array(c_thermal, dtype=np.float64)
        self.q_hvac = np.array(q_hvac, dtype=np.float64)
        self.p_rated = np.array(p_rated, dtype=np.float64)
        self.comfort_k = np.array(comfort_k, dtype=np.float64)
        self.t_in = np.array(t_in, dtype=np.float64)
        self.hvac_on = np.array(hvac_on, dtype=bool).astype(np.uint8)
        n = len(self.t_in)
        # starts at cfg.setpoint; price response and regulation move it
        self.setpoint = np.full(n, cfg.setpoint, dtype=np.float64)
        # forced-off latch used by underfrequency shedding
        self.latched = np.zeros(n, dtype=np.uint8)
        if any(getattr(self, name).shape != (n,) for name in self._ARRAYS):
            raise ValueError("population arrays must align")
        if not ((self.r_thermal > 0).all() and (self.c_thermal > 0).all()):
            raise ValueError("r_thermal and c_thermal must be positive")
        if not (self.p_rated > 0).all():
            raise ValueError("p_rated must be positive")
        # per-house exp(-h / (R * C)) for the tick length _decay_h;
        # valid because r_thermal and c_thermal never change
        self._decay_h: float | None = None
        self._decay = np.empty(0)

    def __len__(self) -> int:
        return len(self.t_in)

    def houses(self, lo: int, hi: int) -> Population:
        """Houses lo..hi-1; their arrays are views into this fleet's."""
        part = object.__new__(Population)
        part.cfg = self.cfg
        for name in self._ARRAYS:
            setattr(part, name, getattr(self, name)[lo:hi])
        part._decay_h = None
        part._decay = np.empty(0)
        return part

    def tick(self, t_out: float, h: float, at_market_boundary: bool) -> None:
        """Decide every relay, then advance physics h hours.

        aggregate_power() then gives the draw that applied during the
        tick, i.e. after the decisions.
        """
        if not h > 0:
            raise ValueError("tick length must be positive")
        if not math.isfinite(t_out):
            raise ValueError("non-finite outdoor temperature")
        h = float(h)
        t_out = float(t_out)
        t = self.t_in
        prior = self.hvac_on != 0
        cooling = self.cfg.mode == MODE_COOLING
        if self.cfg.kind == KIND_HYSTERESIS:
            # the edge that switches on is tested first
            half = self.cfg.deadband / 2.0
            upper = t >= self.setpoint + half
            lower = t <= self.setpoint - half
            on = (upper | (prior & ~lower)) if cooling else (lower | (prior & ~upper))
        elif at_market_boundary:
            # zero deadband: strict side of the setpoint, at boundaries only
            on = t > self.setpoint if cooling else t < self.setpoint
        else:
            on = prior
        on = (self.latched == 0) & on

        if self._decay_h != h:
            # libm exp, as in step_house: np.exp can differ in the last bit
            rate = -h / (self.r_thermal * self.c_thermal)
            self._decay = libm_exp(rate)
            self._decay_h = h
        # np.where(on, q_hvac, 0.0) as one C call: np.where goes through a
        # Python-level dispatcher
        t_eq = t_out + np.positive(self.q_hvac, out=np.zeros(len(t)), where=on) * self.r_thermal
        t[:] = t_eq + (t - t_eq) * self._decay
        self.hvac_on[:] = on

    def aggregate_power(self) -> float:
        """Current electrical draw of the fleet in kW (sequential sum)."""
        return array_sum(self.p_rated[self.hvac_on != 0])


def aggregate_power(states: Iterable[HouseState], params: Iterable[ThermalParams]) -> float:
    """Electrical draw of a fleet given parallel state/param sequences."""
    return left_sum(p.p_rated for s, p in zip(states, params) if s.hvac_on)


# ----------------------------------------------------------------------
# Duty-cycle phase and load diversity
# ----------------------------------------------------------------------
#
# In steady cycling between the deadband edges the indoor temperature
# trajectory is a deterministic function of where the house sits in its
# on/off cycle, so the phase can be read directly off (t_in, hvac_on)
# without any history. Phase 0 is the start of the on run (cooling: top
# of the band), increasing through the on run then the off run.


def _cycle_band(cfg: ThermostatConfig) -> tuple[bool, float, float]:
    """Whether the unit cools, and the band (lo, hi) it cycles in."""
    cooling = cfg.mode == MODE_COOLING
    if cfg.kind == KIND_HYSTERESIS:
        half = cfg.deadband / 2.0
        return cooling, cfg.setpoint - half, cfg.setpoint + half
    # the zero-deadband kind has no fixed band; use the comfort range
    # around the desired temperature as the nominal excursion
    return cooling, cfg.t_desired - 0.5, cfg.t_desired + 0.5


def _cycle(
    r: float, q: float, cooling: bool, lo: float, hi: float, t_out: float
) -> tuple[float, float, float, float, float] | None:
    """Geometry of steady cycling between lo and hi, or None if impossible.

    Returns (t_eq_on, on_from, off_from, log_on, log_off). The on run
    starts at on_from and relaxes toward t_eq_on until it reaches
    off_from; the off run relaxes from there back toward t_out. Each run
    lasts R*C times its log. Heating is cooling with both operands of
    every ratio negated, which IEEE arithmetic does exactly, so one set
    of formulas gives both modes bit for bit.
    """
    t_eq_on = t_out + q * r
    if cooling:
        if not (t_eq_on < lo and t_out > hi):
            return None
        on_from, off_from = hi, lo
    else:
        if not (t_eq_on > hi and t_out < lo):
            return None
        on_from, off_from = lo, hi
    log_on = math.log((on_from - t_eq_on) / (off_from - t_eq_on))
    log_off = math.log((off_from - t_out) / (on_from - t_out))
    return t_eq_on, on_from, off_from, log_on, log_off


def _cycling(t_eq_on: np.ndarray, cooling: bool, lo, hi, t_out: float) -> tuple:
    """``_cycle``'s test over a fleet: the indices of the houses that can
    cycle, and the band edges their on and off runs start from. The band
    edges lo and hi are scalars or one per house; per-house edges come
    back at those houses only."""
    cycles = (t_eq_on < lo) & (t_out > hi) if cooling else (t_eq_on > hi) & (t_out < lo)
    idx = cycles.nonzero()[0]
    on_from, off_from = (hi, lo) if cooling else (lo, hi)
    if isinstance(on_from, np.ndarray):
        on_from, off_from = on_from[idx], off_from[idx]
    return idx, on_from, off_from


def cycle_phase(
    state: HouseState, params: ThermalParams, cfg: ThermostatConfig, t_out: float
) -> float:
    """Position of one house within its on/off cycle, in [0, 1).

    Exact for steady cycling at constant t_out; clamped when the state
    sits outside the band (for example right after a forced-off spell).
    Returns 0.0 when the operating point cannot cycle at all, e.g. the
    equipment cannot reach the band at this ambient temperature.
    """
    cooling, lo, hi = _cycle_band(cfg)
    r, c = params.r_thermal, params.c_thermal
    cycle = _cycle(r, params.q_hvac, cooling, lo, hi, t_out)
    if cycle is None:
        return 0.0
    t_eq_on, on_from, off_from, log_on, log_off = cycle
    rc = r * c
    tau_on = rc * log_on
    tau_off = rc * log_off
    t = min(max(state.t_in, lo), hi)
    if state.hvac_on:
        prog = rc * math.log((on_from - t_eq_on) / (t - t_eq_on)) / tau_on
    else:
        prog = rc * math.log((off_from - t_out) / (t - t_out)) / tau_off
    prog = min(max(prog, 0.0), 1.0)
    duty = tau_on / (tau_on + tau_off)
    phase = prog * duty if state.hvac_on else duty + prog * (1.0 - duty)
    return phase % 1.0


def state_from_phase(
    phase: float, params: ThermalParams, cfg: ThermostatConfig, t_out: float
) -> HouseState:
    """Inverse of cycle_phase: synthesize the state at a given phase."""
    if not 0.0 <= phase < 1.0:
        phase = phase % 1.0
    cooling, lo, hi = _cycle_band(cfg)
    cycle = _cycle(params.r_thermal, params.q_hvac, cooling, lo, hi, t_out)
    if cycle is None:
        return HouseState(t_in=(lo + hi) / 2.0, hvac_on=False)
    t_eq_on, on_from, off_from, log_on, log_off = cycle
    rc = params.r_thermal * params.c_thermal
    tau_on = rc * log_on
    tau_off = rc * log_off
    duty = tau_on / (tau_on + tau_off)
    if phase < duty:
        elapsed = (phase / duty) * tau_on
        t = t_eq_on + (on_from - t_eq_on) * math.exp(-elapsed / rc)
        return HouseState(t_in=t, hvac_on=True)
    elapsed = ((phase - duty) / (1.0 - duty)) * tau_off
    t = t_out + (off_from - t_out) * math.exp(-elapsed / rc)
    return HouseState(t_in=t, hvac_on=False)


def states_from_phases(
    phases: np.ndarray, r_thermal: np.ndarray, c_thermal: np.ndarray, q_hvac, cfg: ThermostatConfig, t_out: float
) -> tuple[np.ndarray, np.ndarray]:
    """state_from_phase of every house of a fleet, bit for bit, as array passes.

    Takes float64 arrays of each house's phase and thermal constants
    (``q_hvac`` may be one value for all) and returns the (t_in,
    hvac_on) arrays. The same
    operations as ``_cycle`` and ``state_from_phase`` in the same order,
    with libm's logs and exps, restricted to the houses that can cycle;
    the others sit mid-band with the unit off.
    """
    phases = np.where((0.0 <= phases) & (phases < 1.0), phases, phases % 1.0)
    cooling, lo, hi = _cycle_band(cfg)
    t_eq_on = t_out + q_hvac * r_thermal
    idx, on_from, off_from = _cycling(t_eq_on, cooling, lo, hi, t_out)
    t_in = np.full(len(phases), (lo + hi) / 2.0)
    hvac_on = np.zeros(len(phases), dtype=bool)
    if not len(idx):
        return t_in, hvac_on
    t_eq_on, phase = t_eq_on[idx], phases[idx]
    rc = r_thermal[idx] * c_thermal[idx]
    tau_on = rc * libm_log((on_from - t_eq_on) / (off_from - t_eq_on))
    # the off run's log depends on the band and t_out alone
    tau_off = rc * math.log((off_from - t_out) / (on_from - t_out))
    duty = tau_on / (tau_on + tau_off)
    on = phase < duty
    elapsed = np.where(on, phase, phase - duty) / np.where(on, duty, 1.0 - duty) * np.where(on, tau_on, tau_off)
    base = np.where(on, t_eq_on, t_out)
    t_in[idx] = base + (np.where(on, on_from, off_from) - base) * libm_exp(-elapsed / rc)
    hvac_on[idx] = on
    return t_in, hvac_on


def steady_duty(params: ThermalParams, cfg: ThermostatConfig, t_out: float) -> float:
    """Fraction of time the equipment runs in steady cycling.

    0.0 when the house never needs the unit at this ambient temperature,
    1.0 when the unit cannot bring it back into the band.
    """
    cooling, lo, hi = _cycle_band(cfg)
    cycle = _cycle(params.r_thermal, params.q_hvac, cooling, lo, hi, t_out)
    if cycle is None:
        return 0.0 if (t_out <= hi if cooling else t_out >= lo) else 1.0
    _, _, _, log_on, log_off = cycle
    return log_on / (log_on + log_off)


def diversity_from_phases(phases: Iterable[float]) -> float:
    """Load diversity of a set of cycle phases.

    1 minus the magnitude of the mean unit phasor: 0.0 when every house
    sits at the same phase, approaching 1.0 for a uniform spread.
    """
    if not isinstance(phases, np.ndarray):
        phases = np.array(list(phases), dtype=np.float64)
    if not len(phases):
        raise ValueError("no phases given")
    zs = np.exp(2j * np.pi * phases)
    # zs.mean() without its Python-level wrapper, the same bits
    return float(1.0 - abs(np.add.reduce(zs) / len(zs)))


@dataclass(frozen=True)
class PartialPhases:
    """A fleet's cycle phases up to the logs of their on and off times.

    ``state_ratio`` is the log argument of the time into the current
    half-cycle, read from indoor temperatures and relays;
    ``phases_from_logs`` takes that log itself.
    """

    n: int  # houses in the fleet
    idx: np.ndarray  # the houses that can cycle; the others get phase 0.0
    on: np.ndarray  # which of them run
    rc: np.ndarray
    state_ratio: np.ndarray


def cycle_ratios(pop: Population, t_out: float) -> tuple[PartialPhases, np.ndarray, np.ndarray]:
    """The ratio pass of ``cycle_phases``: every operation before a log.

    Returns the partial phases and the log arguments of each cycling
    house's on and off times, which depend only on setpoints and the
    outdoor temperature.
    """
    cooling, lo, hi = _cycle_band(pop.cfg)
    n = len(pop)
    if pop.cfg.kind == KIND_HYSTERESIS:
        # each house cycles around its own, price-moved setpoint
        half = pop.cfg.deadband / 2.0
        lo, hi = pop.setpoint - half, pop.setpoint + half
    else:
        lo, hi = np.full(n, lo), np.full(n, hi)
    t_eq_on = t_out + pop.q_hvac * pop.r_thermal
    idx, on_from, off_from = _cycling(t_eq_on, cooling, lo, hi, t_out)
    t_eq_on, lo, hi = t_eq_on[idx], lo[idx], hi[idx]
    on = pop.hvac_on[idx] != 0
    t = py_min(py_max(pop.t_in[idx], lo), hi)
    partial = PartialPhases(
        n=n,
        idx=idx,
        on=on,
        rc=pop.r_thermal[idx] * pop.c_thermal[idx],
        state_ratio=np.where(on, (on_from - t_eq_on) / (t - t_eq_on), (off_from - t_out) / (t - t_out)),
    )
    return partial, (on_from - t_eq_on) / (off_from - t_eq_on), (off_from - t_out) / (on_from - t_out)


def phases_from_logs(p: PartialPhases, log_on: np.ndarray, log_off: np.ndarray) -> np.ndarray:
    """The finishing pass of ``cycle_phases``, given libm's logs of the
    on and off ratios that ``cycle_ratios`` returned with p."""
    rc, on = p.rc, p.on
    tau_on = rc * log_on
    tau_off = rc * log_off
    prog = rc * libm_log(p.state_ratio) / np.where(on, tau_on, tau_off)
    prog = py_min(py_max(prog, 0.0), 1.0)
    duty = tau_on / (tau_on + tau_off)
    phases = np.zeros(p.n)
    phases[p.idx] = np.where(on, prog * duty, duty + prog * (1.0 - duty)) % 1.0
    return phases


def cycle_phases(pop: Population, t_out: float) -> np.ndarray:
    """cycle_phase of every house of a fleet, bit for bit, as array passes.

    The same operations as ``_cycle`` and ``cycle_phase`` in the same
    order, restricted to the houses that can cycle; the others get 0.0.
    A run takes the same two passes with the setpoint-only logs taken in
    its writer process, the same libm.
    """
    partial, on_ratio, off_ratio = cycle_ratios(pop, t_out)
    return phases_from_logs(partial, libm_log(on_ratio), libm_log(off_ratio))


def diversity_metric(
    pop: Population, t_out: float, bounds: Sequence[tuple[int, int]] | None = None
) -> float | list[float]:
    """Diversity of a population, phases read from current states.

    Given (lo, hi) bounds, returns the diversity of each run of houses
    lo..hi-1 instead, from one phase pass over the whole fleet; each
    equals the diversity of those houses alone, bit for bit.
    """
    phases = cycle_phases(pop, t_out)
    if bounds is None:
        return diversity_from_phases(phases)
    return [diversity_from_phases(phases[lo:hi]) for lo, hi in bounds]


def curtailment_experiment(
    pop: Population,
    t_out: float,
    span_h: float,
    tick_h: float,
    off_start_h: float | None = None,
    off_end_h: float | None = None,
) -> dict[str, np.ndarray]:
    """Run a population open loop, optionally forcing HVAC off for a spell.

    Mutates pop in place and returns per-tick traces of aggregate power,
    diversity and mean indoor temperature. The forced-off window
    [off_start_h, off_end_h) models a curtailment or outage; relays are
    released afterwards and the fleet recovers on its own.
    """
    n_ticks = int(round(span_h / tick_h))
    power = np.zeros(n_ticks)
    diversity = np.zeros(n_ticks)
    mean_t = np.zeros(n_ticks)
    for k in range(n_ticks):
        t_h = k * tick_h
        forced = (
            off_start_h is not None
            and off_end_h is not None
            and off_start_h <= t_h < off_end_h
        )
        pop.latched[:] = 1 if forced else 0
        pop.tick(t_out, tick_h, at_market_boundary=True)
        power[k] = pop.aggregate_power()
        diversity[k] = diversity_metric(pop, t_out)
        mean_t[k] = float(pop.t_in.mean())
    pop.latched[:] = 0
    return {"power_kw": power, "diversity": diversity, "mean_t_in": mean_t}
