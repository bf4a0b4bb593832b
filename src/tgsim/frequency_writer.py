"""The run's writer process: frequency.csv's rows and diversity's logs.

A run logs one frequency.csv row per balancing tick, nine numbers whose
``repr`` text (a shortest round-trip conversion, about 1 µs a float)
would cost a long run a third of its time. Its diversity sample takes
libm's ``math.log`` of two ratios per cycling house per market interval
that depend only on setpoints and the outdoor temperature. This process
does both on a second core. It is the interpreter of the run itself
(``sys.executable``), so its ``math.log`` is the same libm call, bit for
bit; no array log is (numpy's follows the CPU's SIMD level).

The engine sends frames on this process's stdin. Each is a header of
two native unsigned 32-bit ints, (kind, count), then count native
doubles:

- ``RECORDS``: whole frequency.csv records of nine doubles each,

      t, freq, delta_f, ace_raw, ace_filtered, to_agg, reg_gen, shed_kw, time_error

  with every float already folded by ``+ 0.0`` (no signed zero) and t
  a whole number of seconds. Their rows are appended to the file, which
  holds only its header, ``COLUMNS``, when this process starts.
- ``LOGS``: ratios. The reply, on stdout, is ``math.log`` of each, count
  native doubles with no header; replies come in request order.

Usage (stdlib only, so it starts without site packages):
    python -S -I frequency_writer.py PATH < frames
"""

from __future__ import annotations

import math
import os
import struct
import sys
from array import array

# frequency.csv's header: the names of a record's fields, in order
COLUMNS = ("t_s,freq_hz,delta_f_hz,ace_raw_mw,ace_filtered_mw,reg_to_aggregators_mw,reg_to_generators_mw,"
           "ufls_shed_kw,time_error_s")
FIELDS = 9
DOUBLE_BYTES = array("d").itemsize
HEADER = struct.Struct("=II")  # kind, count of doubles that follow
RECORDS, LOGS = 0, 1
BATCH_BYTES = 1 << 16  # the engine writes its pipe, and this process reads it, in batches this size


def format_rows(values) -> str:
    """The frequency.csv rows of a flat sequence of whole records."""
    it = iter(values)
    return "".join(
        f"{int(t)},{freq!r},{delta_f!r},{ace_raw!r},{ace_filtered!r},{to_agg!r},{reg_gen!r},{shed!r},{te!r}\n"
        for t, freq, delta_f, ace_raw, ace_filtered, to_agg, reg_gen, shed, te in zip(*[it] * FIELDS)
    )


def _reply(values: array) -> None:
    view = memoryview(values).cast("B")
    while view:
        view = view[os.write(1, view):]


def main(path: str) -> None:
    """Serves frames read from stdin until EOF (see the module docstring)."""
    with open(path, "a") as out:
        buf = bytearray()
        while chunk := os.read(0, BATCH_BYTES):
            buf += chunk
            records = array("d")
            pos = 0
            while len(buf) - pos >= HEADER.size:
                kind, count = HEADER.unpack_from(buf, pos)
                start = pos + HEADER.size
                end = start + count * DOUBLE_BYTES
                if end > len(buf):
                    break
                body = array("d", buf[start:end])
                if kind == RECORDS:
                    records += body
                elif kind == LOGS:
                    _reply(array("d", map(math.log, body)))
                else:
                    sys.exit(f"{path}: unknown frame kind {kind}")
                pos = end
            del buf[:pos]
            out.write(format_rows(records))
    if buf:
        sys.exit(f"{path}: input ends inside a frame")
    # nothing is left to flush, so skip the interpreter's teardown
    os._exit(0)


if __name__ == "__main__":
    main(sys.argv[1])
