"""tgsim: transactive grid simulation toolkit.

Deterministic discrete-time simulation of retail double-auction markets
over thermostatic load populations, nested inside area balancing with
swing dynamics, regulation split between generators and aggregators,
and under-frequency load shedding. Includes a spectral toolkit for
load-shift impact analysis and a two-settlement ledger.
"""

__version__ = "0.1.0"
