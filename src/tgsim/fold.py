"""Float folds and comparisons with one result everywhere.

The builtin ``sum`` of floats is a plain left fold up to Python 3.11,
while 3.12 compensates for rounding, so the same inputs can give
different last bits on different interpreters. Artifacts must not
depend on the interpreter, so every float sum goes through ``left_sum``,
or ``array_sum`` for a float64 array (``np.sum`` adds pairwise), and
``mean_sigma`` states a population's mean and sigma in those folds.

``py_max`` and ``py_min`` are the builtin ``max``/``min`` of two
operands, elementwise, so an array pass over a fleet breaks ties (such
as 0.0 against -0.0) exactly as the scalar formula it restates.
``libm_exp`` and ``libm_log`` are ``math.exp`` and ``math.log``
elementwise: ``np.exp`` and ``np.log`` follow the host's SIMD level and
can differ from libm in the last bit.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np


def left_sum(values: Iterable[float]) -> float:
    """Sum left to right with one rounding per addition."""
    total = 0.0
    for x in values:
        total += x
    return total


def array_sum(x: np.ndarray) -> float:
    """``left_sum`` of an array, bit for bit. The accumulate pass starts
    from x[0], so an all -0.0 input ends at -0.0; + 0.0 gives +0.0 there,
    as ``left_sum`` does, and changes no other result."""
    return float(np.add.accumulate(x)[-1]) + 0.0 if len(x) else 0.0


def mean_sigma(values: Sequence[float]) -> tuple[float, float]:
    """Population mean and standard deviation of a nonempty sequence: a
    left fold for the mean, then one over the squared deviations from it."""
    n = len(values)
    m = left_sum(values) / n
    return m, math.sqrt(left_sum((x - m) ** 2 for x in values) / n)


def py_max(a, b) -> np.ndarray:
    """max(a, b) elementwise: a unless b is strictly greater."""
    return np.where(b > a, b, a)


def py_min(a, b) -> np.ndarray:
    """min(a, b) elementwise: a unless b is strictly smaller."""
    return np.where(b < a, b, a)


def libm_exp(x: np.ndarray) -> np.ndarray:
    """math.exp of each element of a float64 array."""
    return np.fromiter(map(math.exp, x.tolist()), dtype=np.float64, count=len(x))


def libm_log(x: np.ndarray) -> np.ndarray:
    """math.log of each element of a float64 array."""
    return np.fromiter(map(math.log, x.tolist()), dtype=np.float64, count=len(x))
