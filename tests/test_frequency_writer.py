"""frequency.csv's writer process: its row bytes and its lifetime."""

import dataclasses
import os
import signal
import subprocess
import sys
from array import array

import pytest

from conftest import SCENARIO_DIR
from tgsim import engine, frequency_writer
from tgsim.config import load_config
from tgsim.engine import SimulationRun

SPECIALS = (-0.0, 5e-324, 1e-05, 0.0001, 1e16, 1.7976931348623157e308, -2.5e-07, 60.0)


def reference_row(t: int, values) -> str:
    """A row as the engine formatted it in-process, before the writer."""
    return f"{t}," + ",".join(f"{x + 0.0!r}" for x in values) + "\n"


def records_of(rows) -> array:
    """Packs rows as the engine does: t, then each float folded by + 0.0."""
    records = array("d")
    for t, values in rows:
        records.extend((t, *(x + 0.0 for x in values)))
    return records


def special_rows():
    rows = [(t, (x,) * 8) for t in (0, 4, 10**9) for x in SPECIALS]
    rows += [(8 * k, SPECIALS[k:] + SPECIALS[:k]) for k in range(len(SPECIALS))]
    return rows


def test_rows_match_the_in_process_format_byte_for_byte():
    rows = special_rows()
    text = frequency_writer.format_rows(records_of(rows))
    assert text == "".join(reference_row(t, values) for t, values in rows)
    assert "-0.0" not in text


def test_writer_reassembles_records_split_across_reads(tmp_path):
    rows = special_rows()
    data = records_of(rows).tobytes()
    path = tmp_path / "frequency.csv"
    path.write_text("header\n")
    script = [sys.executable, "-S", "-I", frequency_writer.__file__, str(path)]
    # 7-byte writes, so most reads end inside a record
    with subprocess.Popen(script, stdin=subprocess.PIPE, bufsize=0) as writer:
        for i in range(0, len(data), 7):
            writer.stdin.write(data[i:i + 7])
    assert writer.returncode == 0
    assert path.read_text() == "header\n" + "".join(reference_row(t, values) for t, values in rows)
    # a record cut short by the end of the input is an error
    done = subprocess.run(script, input=data[:-1], capture_output=True, timeout=60)
    assert done.returncode == 1 and b"inside a record" in done.stderr


@pytest.fixture
def writers(monkeypatch):
    """Every writer process that run() starts, in start order."""
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(engine.subprocess, "Popen", Recorded)
    return started


def assert_reaped(writer, status):
    assert writer.returncode == status
    with pytest.raises(ChildProcessError):
        os.waitpid(writer.pid, os.WNOHANG)


def null_day():
    cfg = load_config(SCENARIO_DIR / "null.yaml")
    return dataclasses.replace(cfg, simulation=dataclasses.replace(cfg.simulation, span_s=86400))


def test_a_run_waits_for_its_writer(tmp_path, writers):
    cfg = null_day()
    run = SimulationRun(cfg, base_dir=SCENARIO_DIR).run(tmp_path / "run")
    (writer,) = writers
    assert_reaped(writer, 0)
    lines = (run.out_dir / "frequency.csv").read_text().splitlines()
    assert len(lines) == 1 + cfg.simulation.span_s // cfg.simulation.agc_tick_s
    assert lines[-1].startswith(f"{cfg.simulation.span_s - cfg.simulation.agc_tick_s},")


def test_an_error_in_the_run_reaps_the_writer(tmp_path, writers, monkeypatch):
    market_phase = SimulationRun._market_phase

    def failing(self, t, interval_index, *args):
        if interval_index == 3:
            raise RuntimeError("interval 3")
        return market_phase(self, t, interval_index, *args)

    monkeypatch.setattr(SimulationRun, "_market_phase", failing)
    cfg = null_day()
    with pytest.raises(RuntimeError, match="interval 3"):
        SimulationRun(cfg, base_dir=SCENARIO_DIR).run(tmp_path / "run")
    (writer,) = writers
    assert_reaped(writer, 0)
    # every tick before the failing interval's was written
    lines = (tmp_path / "run" / "frequency.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * cfg.simulation.market_interval_s // cfg.simulation.agc_tick_s


def test_a_killed_writer_fails_the_run(tmp_path, writers, monkeypatch):
    block = SimulationRun._balancing_block
    blocks = []

    def killing(self, *args):
        blocks.append(None)
        if len(blocks) == 10:
            writers[0].kill()
        return block(self, *args)

    monkeypatch.setattr(SimulationRun, "_balancing_block", killing)
    with pytest.raises(OSError) as err:
        SimulationRun(null_day(), base_dir=SCENARIO_DIR).run(tmp_path / "run")
    assert "frequency.csv" in str(err.value)
    assert_reaped(writers[0], -signal.SIGKILL)
