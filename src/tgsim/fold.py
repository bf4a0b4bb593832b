"""Order-fixed float sums.

The builtin ``sum`` of floats is a plain left fold up to Python 3.11,
while 3.12 compensates for rounding, so the same inputs can give
different last bits on different interpreters. Artifacts must not
depend on the interpreter, so every float sum goes through ``left_sum``.
"""

from __future__ import annotations

from typing import Iterable


def left_sum(values: Iterable[float]) -> float:
    """Sum left to right with one rounding per addition."""
    total = 0.0
    for x in values:
        total += x
    return total
