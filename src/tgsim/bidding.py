"""Device bidding strategies and the price-to-setpoint response.

A thermostat maps its temperature deviation onto a bid price along the
line through (t_desired, expected price) with slope set by the comfort
slider k and the observed price spread:

    bid = P_exp + k * sigma * (T - t_desired) / |t_max - t_desired|

clamped to the line's endpoints and the market price limits. The same
line run backwards maps a clearing price onto the temperature setpoint,
so bid and setpoint are exact inverses away from the clamps. k scales
willingness to trade comfort for money: small k bids near the expected
price no matter the temperature, k = 0 degenerates to a price-
insensitive device that simply asks for service at the cap whenever it
wants to run.

Price expectations come from a rolling window of past clearings; until
the window has filled the configured prior mean and deviation stand in.

``thermostat_bid`` and ``setpoint_from_price`` state the line for one
house; ``fleet_bids`` and ``fleet_setpoints`` run it over a whole fleet
as array passes, with the same operations in the same order, and tests
pin them to the scalar functions bit for bit. Their price statistics
(and the setpoints' clearing price) are one value for the fleet or one
per house (``HouseStats``), so a run takes a whole area of feeders in
one pass, each feeder's statistics repeated over its houses.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .auction import Order, SIDE_BUY, SIDE_SELL
from .fold import mean_sigma, py_max, py_min
from .thermal import MODE_COOLING, ThermostatConfig


@dataclass
class PriceStats:
    """Rolling clearing-price statistics with a configured prior.

    Population standard deviation convention. The prior applies until
    `window` observations have arrived, after which the statistics are
    computed purely over the observed window. mean and sigma change only
    when a price arrives, so they are computed then, not on every read.
    """

    window: int
    prior_mean: float
    prior_sigma: float
    history: deque = field(default_factory=deque)
    mean: float = field(init=False)
    sigma: float = field(init=False)

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError("window must be at least 2")
        if self.prior_sigma < 0:
            raise ValueError("prior sigma must be nonnegative")
        self.history = deque(self.history, maxlen=self.window)
        self._update()

    def observe(self, price: float) -> None:
        if not math.isfinite(price):
            raise ValueError("price must be finite")
        self.history.append(float(price))
        self._update()

    def _update(self) -> None:
        prior = len(self.history) < self.window
        self.mean, self.sigma = (self.prior_mean, self.prior_sigma) if prior else mean_sigma(self.history)


class HouseStats(NamedTuple):
    """Price statistics with one mean and one sigma per house."""

    mean: np.ndarray
    sigma: np.ndarray


def _at(x, idx):
    """x's entries at idx, or x itself where it is one value for the fleet."""
    return x[idx] if isinstance(x, np.ndarray) else x


def _comfort_span(cfg: ThermostatConfig) -> float:
    if cfg.mode == MODE_COOLING:
        return abs(cfg.t_max - cfg.t_desired)
    return abs(cfg.t_min - cfg.t_desired)


def _needs_service(t_measured: float, cfg: ThermostatConfig) -> bool:
    if cfg.mode == MODE_COOLING:
        return t_measured > cfg.t_desired
    return t_measured < cfg.t_desired


def thermostat_bid(
    device_id: str,
    t_measured: float,
    cfg: ThermostatConfig,
    comfort_k: float,
    stats: PriceStats,
    p_rated: float,
    price_floor: float,
    price_cap: float,
) -> Order | None:
    """Bid for one market interval, or None when the device abstains.

    Cooling devices abstain below t_min (no cooling wanted), bid at the
    cap at or beyond t_max (comfort emergency, must run), and otherwise
    bid along the comfort line. Heating mirrors with the roles of t_min
    and t_max swapped.
    """
    if comfort_k < 0:
        raise ValueError("comfort_k must be nonnegative")
    if cfg.mode == MODE_COOLING:
        if t_measured < cfg.t_min:
            return None
        emergency = t_measured >= cfg.t_max
    else:
        if t_measured > cfg.t_max:
            return None
        emergency = t_measured <= cfg.t_min
    if emergency:
        return Order(device_id, SIDE_BUY, price_cap, p_rated)
    if comfort_k == 0.0:
        # price insensitive: ask for service at the cap whenever wanted
        if _needs_service(t_measured, cfg):
            return Order(device_id, SIDE_BUY, price_cap, p_rated)
        return None
    span = _comfort_span(cfg)
    direction = 1.0 if cfg.mode == MODE_COOLING else -1.0
    slope = direction * comfort_k * stats.sigma / span
    raw = stats.mean + slope * (t_measured - cfg.t_desired)
    # clamp to the line's own endpoints, themselves held inside the caps
    lo_end = stats.mean + slope * (cfg.t_min - cfg.t_desired)
    hi_end = stats.mean + slope * (cfg.t_max - cfg.t_desired)
    lo, hi = min(lo_end, hi_end), max(lo_end, hi_end)
    price = min(max(raw, lo), hi)
    price = min(max(price, price_floor), price_cap)
    return Order(device_id, SIDE_BUY, price, p_rated)


def setpoint_from_price(
    p_clear: float, cfg: ThermostatConfig, comfort_k: float, stats: PriceStats
) -> float:
    """Invert the bid line: clearing price to temperature setpoint.

    The result is clamped to [t_min, t_max]. With k or sigma zero the
    device does not respond to price and the desired temperature is
    returned unchanged.
    """
    if comfort_k < 0:
        raise ValueError("comfort_k must be nonnegative")
    denom = comfort_k * stats.sigma
    if denom == 0.0:
        return cfg.t_desired
    span = _comfort_span(cfg)
    direction = 1.0 if cfg.mode == MODE_COOLING else -1.0
    t_set = cfg.t_desired + direction * (p_clear - stats.mean) * span / denom
    return min(max(t_set, cfg.t_min), cfg.t_max)


def fleet_bids(
    t_measured: np.ndarray,
    cfg: ThermostatConfig,
    comfort_k: np.ndarray,
    stats: PriceStats | HouseStats,
    p_rated: np.ndarray,
    latched: np.ndarray,
    price_floor: float,
    price_cap: float,
) -> tuple[np.ndarray, np.ndarray]:
    """thermostat_bid for every unlatched house of a fleet.

    Returns the indices of the houses that bid, ascending, and their
    prices; house i bids p_rated[i] with stats' mean and sigma, or their
    i-th entries. Raises where thermostat_bid or the Order it builds would.
    """
    free = latched == 0
    if (comfort_k[free] < 0).any():
        raise ValueError("comfort_k must be nonnegative")
    if cfg.mode == MODE_COOLING:
        wanted = t_measured >= cfg.t_min
        emergency = t_measured >= cfg.t_max
        needs = t_measured > cfg.t_desired
        direction = 1.0
    else:
        wanted = t_measured <= cfg.t_max
        emergency = t_measured <= cfg.t_min
        needs = t_measured < cfg.t_desired
        direction = -1.0
    flat = comfort_k == 0.0
    # price insensitive houses bid only when they want service
    idx = (free & wanted & (emergency | needs | ~flat)).nonzero()[0]
    t, k = t_measured[idx], comfort_k[idx]
    mean, sigma = _at(stats.mean, idx), _at(stats.sigma, idx)
    slope = direction * k * sigma / _comfort_span(cfg)
    raw = mean + slope * (t - cfg.t_desired)
    lo_end = mean + slope * (cfg.t_min - cfg.t_desired)
    hi_end = mean + slope * (cfg.t_max - cfg.t_desired)
    lo, hi = py_min(lo_end, hi_end), py_max(lo_end, hi_end)
    price = py_min(py_max(raw, lo), hi)
    price = py_min(py_max(price, price_floor), price_cap)
    price = np.where(emergency[idx] | flat[idx], price_cap, price)
    if not (p_rated[idx] > 0).all():
        raise ValueError("order quantity must be positive")
    if not np.isfinite(price).all():
        raise ValueError("order price must be finite")
    return idx, price


def fleet_setpoints(
    p_clear: float | np.ndarray, cfg: ThermostatConfig, comfort_k: np.ndarray, stats: PriceStats | HouseStats
) -> np.ndarray:
    """setpoint_from_price for every house of a fleet; p_clear and stats
    as one value or one per house, as fleet_bids takes stats."""
    if (comfort_k < 0).any():
        raise ValueError("comfort_k must be nonnegative")
    denom = comfort_k * stats.sigma
    moves = denom != 0.0
    direction = 1.0 if cfg.mode == MODE_COOLING else -1.0
    t_set = cfg.t_desired + direction * _at(p_clear - stats.mean, moves) * _comfort_span(cfg) / denom[moves]
    out = np.full(len(comfort_k), cfg.t_desired)
    out[moves] = py_min(py_max(t_set, cfg.t_min), cfg.t_max)
    return out


@dataclass(frozen=True)
class StorageSpec:
    """Price-band battery: buy cheap, sell dear, respect the state of charge.

    efficiency is the round-trip value; each direction is charged the
    square root so a full cycle loses exactly (1 - efficiency).
    """

    device_id: str
    capacity_kwh: float
    p_charge: float
    p_discharge: float
    buy_below: float
    sell_above: float
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not self.capacity_kwh > 0:
            raise ValueError("capacity must be positive")
        if not (self.p_charge > 0 and self.p_discharge > 0):
            raise ValueError("charge and discharge ratings must be positive")
        if self.buy_below >= self.sell_above:
            raise ValueError("buy_below must sit strictly below sell_above")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")


def storage_legs(spec: StorageSpec, soc_kwh: float) -> tuple[bool, bool]:
    """Which legs bid at this state of charge: (charge, discharge).

    A full battery does not charge and an empty one does not discharge;
    otherwise both legs bid. The legs' orders depend on nothing else.
    """
    if not 0.0 <= soc_kwh <= spec.capacity_kwh:
        raise ValueError("state of charge out of range")
    return soc_kwh < spec.capacity_kwh, soc_kwh > 0.0


def storage_bids(spec: StorageSpec, soc_kwh: float) -> list[Order]:
    """Buy and sell orders for one interval, empty legs omitted
    (``storage_legs``).

    Because buy_below < sell_above the two legs can never both clear in
    the same interval: there is no price at which the device would trade
    with itself.
    """
    charge, discharge = storage_legs(spec, soc_kwh)
    orders = []
    if charge:
        orders.append(Order(f"{spec.device_id}_chg", SIDE_BUY, spec.buy_below, spec.p_charge))
    if discharge:
        orders.append(Order(f"{spec.device_id}_dis", SIDE_SELL, spec.sell_above, spec.p_discharge))
    return orders


def apply_clearing_to_storage(
    spec: StorageSpec,
    soc_kwh: float,
    charge_kw: float,
    discharge_kw: float,
    h: float,
) -> float:
    """The state of charge (kWh) after a clearing, h in hours."""
    if charge_kw > 0.0 and discharge_kw > 0.0:
        raise ValueError("storage cannot charge and discharge in one interval")
    if charge_kw < 0.0 or discharge_kw < 0.0:
        raise ValueError("cleared power must be nonnegative")
    eta = math.sqrt(spec.efficiency)
    soc = soc_kwh + charge_kw * h * eta - discharge_kw * h / eta
    return min(max(soc, 0.0), spec.capacity_kwh)
