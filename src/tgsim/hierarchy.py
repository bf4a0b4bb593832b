"""Multi-level coordination: hourly schedule, dispatch blending, settlement.

Three tiers run at nested cadences. The hourly schedule clears forecast
demand against the day-ahead merit order (cheap limited renewables,
then bulk generation at the day-ahead price) and fixes financially
binding positions, one hour per call from each feeder's forecast
columns. Five-minute retail dispatch re-clears live bids
against feeder supply anchored at the scheduled hourly price. The
real-time tier settles only deviations from the scheduled position, the
classic two-settlement arrangement: the day-ahead leg pays the
day-ahead price, deviations pay the real-time price, and forcing real
time equal to schedule zeroes the second leg exactly.

Feeder operating targets blend the retail clearing with the balancing
request. In normal conditions the market dominates; once the control
error or a recent shed event flags a contingency the weights flip and
balancing dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .auction import SIDE_BUY, Bids, ClearingResult, StepCurve, clear_area
from .fold import array_sum, left_sum

MODE_NORMAL = "normal"
MODE_CONTINGENCY = "contingency"


@dataclass(frozen=True)
class HourEntry:
    """Cleared day-ahead position for one hour."""

    price: float
    area_quantity_kw: float
    feeder_kw: dict[str, float]


def schedule_hourly(
    forecasts: Mapping[str, Bids],
    bulk_price: float,
    renewables_price: float,
    renewables_capacity_kw: float,
    bulk_capacity_kw: float,
    price_floor: float,
    price_cap: float,
) -> HourEntry:
    """Clear one hour's forecasts against the day-ahead merit order.

    forecasts maps each feeder to its forecast demand for the hour, as
    columns in trade order: falling prices, equal prices (in any feeder)
    by ascending rank. The steps merge by one stable sort on (price,
    rank), so full ties keep feeder order. Each feeder's position is the
    left fold of its own steps priced at or above the cleared price.
    Pure function of its inputs.
    """
    merged = StepCurve._from_columns(SIDE_BUY, *map(np.concatenate, zip(*forecasts.values())))
    result = clear_area(merged, renewables_price, renewables_capacity_kw, bulk_price, bulk_capacity_kw,
                        price_floor, price_cap)
    positions = {fid: array_sum(f.quantity[f.price >= result.price]) if result.quantity > 0 else 0.0
                 for fid, f in forecasts.items()}
    return HourEntry(price=result.price, area_quantity_kw=result.quantity, feeder_kw=positions)


def _decimal_string_rank(k: np.ndarray) -> np.ndarray:
    """Integers that order k < 10**17 as decimal strings sort (10 before 2):
    k's digits padded right to 17 places, then its digit count (1 before 10)."""
    digits = np.searchsorted(10 ** np.arange(1, 18), k, "right") + 1
    return k * 10 ** (17 - digits) * 10 + digits


def availability_feedback(spans: Sequence[tuple[np.ndarray, np.ndarray]]) -> Bids:
    """Mean demand curve over a lookback window of cleared intervals.

    Pointwise (quantity) average over the union of step prices: each
    interval contributes its willingness at every price, divided by the
    window length. Feeds the next day's forecast.
    Each interval comes as the ``_price_spans`` pair of its demand curve,
    (cumulative kW, price) in trade order. A demand curve's
    ``quantity_at(p)`` is the cumulative quantity of its price-descending
    prefix priced at or above p, so one search per interval reads it off
    the pair with the same bits.
    Step k of the distinct prices, highest first, ranks as k's decimal string.
    """
    spans = list(spans)
    if not spans:
        raise ValueError("no curves to aggregate")
    # distinct prices, highest first; of prices that compare equal (0.0
    # and -0.0) the first seen stands for them, as in a Python set
    seen = np.concatenate([price for _, price in spans])
    seen = seen[np.argsort(-seen, kind="stable")]
    prices = seen[np.concatenate(([True], seen[1:] != seen[:-1]))] if len(seen) else seen
    total = np.zeros(len(prices))
    for cum, price in spans:
        n_willing = np.searchsorted(-price, -prices, "right")
        total += np.concatenate(([0.0], cum))[n_willing]
    q_here = total / len(spans)
    # a step wherever the mean rises past everything before it, so every
    # step quantity is positive
    prev_q = np.maximum.accumulate(np.concatenate(([0.0], q_here)))[:-1]
    step = np.flatnonzero(q_here > prev_q)
    return Bids(prices[step], q_here[step] - prev_q[step], _decimal_string_rank(step))


def reference_mode(
    filtered_ace_mw: float,
    ace_threshold_mw: float,
    last_shed_age_s: float | None,
    shed_recency_s: float,
) -> str:
    """Normal unless the control error is large or a shed was recent."""
    if abs(filtered_ace_mw) > ace_threshold_mw:
        return MODE_CONTINGENCY
    if last_shed_age_s is not None and last_shed_age_s < shed_recency_s:
        return MODE_CONTINGENCY
    return MODE_NORMAL


def feeder_reference(
    retail_kw: float,
    balance_kw: float,
    weight_normal: float,
    weight_contingency: float,
    mode: str,
) -> float:
    """Blend the retail clearing with the balancing target.

    The weight applies to the retail side; its complement to balancing.
    Contingency mode swaps in the (small) contingency weight so the
    balancing target dominates.
    """
    for wgt in (weight_normal, weight_contingency):
        if not 0.0 <= wgt <= 1.0:
            raise ValueError("weights must lie in [0, 1]")
    if mode == MODE_NORMAL:
        w = weight_normal
    elif mode == MODE_CONTINGENCY:
        w = weight_contingency
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return w * retail_kw + (1.0 - w) * balance_kw


@dataclass(frozen=True)
class SettlementRecord:
    """One participant's cash flow for one interval."""

    participant: str
    interval_index: int
    da_energy_kwh: float
    da_price: float
    rt_deviation_kwh: float
    rt_price: float

    @property
    def da_payment(self) -> float:
        return self.da_energy_kwh * self.da_price

    @property
    def rt_payment(self) -> float:
        return self.rt_deviation_kwh * self.rt_price

    @property
    def payment(self) -> float:
        return self.da_payment + self.rt_payment


def settle(
    participant: str,
    interval_index: int,
    position_kwh: float,
    da_price: float,
    actual_kwh: float,
    rt_price: float,
) -> SettlementRecord:
    """Two-settlement cash flow: position at da price, deviation at rt.

    actual == position makes the real-time leg exactly zero; the
    day-ahead leg is financially binding either way.
    """
    return SettlementRecord(
        participant=participant,
        interval_index=interval_index,
        da_energy_kwh=position_kwh,
        da_price=da_price,
        rt_deviation_kwh=actual_kwh - position_kwh,
        rt_price=rt_price,
    )


def scarcity_rent(result: ClearingResult, supply: StepCurve) -> float:
    """Margin the market maker keeps on its own supply segments.

    Local sellers are paid the clearing price in full; the wholesale and
    scarcity blocks belong to the market maker, which buys at the block
    price and sells at the clearing price. The sum of those margins is
    the scarcity rent. Zero whenever the wholesale block is marginal.

    The margins fold left in ascending order id, which is ascending
    rank, not in trade order, so ``__import_scarcity0`` comes before
    ``__import_wholesale`` and ``__import_scarcity10`` before
    ``__import_scarcity2``.
    """
    n = len(result.sell_fills)
    filled = zip(supply.rank[:n].tolist(), supply.price[:n].tolist(), result.sell_fills.tolist())
    mm = supply.ranks.market_maker
    return left_sum((result.price - price) * fill for rank, price, fill in sorted(filled) if rank in mm)
