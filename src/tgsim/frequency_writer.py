"""The frequency.csv row writer, run as its own process beside a run.

A run logs one frequency.csv row per balancing tick, nine numbers whose
``repr`` text (a shortest round-trip conversion, about 1 µs a float)
would cost a long run a third of its time. The engine instead sends
each tick as one record of nine native doubles on this process's
stdin:

    t, freq, delta_f, ace_raw, ace_filtered, to_agg, reg_gen, shed_kw, time_error

with every float already folded by ``+ 0.0`` (no signed zero) and t a
whole number of seconds. This process turns them into rows on a second
core and appends them to the file, whose header the engine wrote.

Usage (stdlib only, so it starts without site packages):
    python -S -I frequency_writer.py PATH < records
"""

from __future__ import annotations

import os
import sys
from array import array

FIELDS = 9
RECORD_BYTES = FIELDS * array("d").itemsize
BATCH_BYTES = 1 << 16  # the engine writes its pipe, and this process reads it, in batches this size


def format_rows(values) -> str:
    """The frequency.csv rows of a flat sequence of whole records."""
    it = iter(values)
    return "".join(
        f"{int(t)},{freq!r},{delta_f!r},{ace_raw!r},{ace_filtered!r},{to_agg!r},{reg_gen!r},{shed!r},{te!r}\n"
        for t, freq, delta_f, ace_raw, ace_filtered, to_agg, reg_gen, shed, te in zip(*[it] * FIELDS)
    )


def main(path: str) -> None:
    """Appends a row to path for each record read from stdin, until EOF."""
    with open(path, "a") as out:
        rest = b""
        while chunk := os.read(0, BATCH_BYTES):
            data = rest + chunk
            whole = len(data) - len(data) % RECORD_BYTES
            out.write(format_rows(array("d", data[:whole])))
            rest = data[whole:]
    if rest:
        sys.exit(f"{path}: input ends inside a record")
    # nothing is left to flush, so skip the interpreter's teardown
    os._exit(0)


if __name__ == "__main__":
    main(sys.argv[1])
