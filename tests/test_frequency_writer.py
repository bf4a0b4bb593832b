"""The run's writer process: its row bytes, its log replies and its lifetime."""

import dataclasses
import gc
import math
import os
import shutil
import signal
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
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


def test_the_header_names_each_field_of_a_row():
    names = frequency_writer.COLUMNS.split(",")
    assert len(set(names)) == len(names) == frequency_writer.FIELDS
    (row,) = frequency_writer.format_rows(records_of([(4, (0.5,) * 8)])).splitlines()
    assert len(row.split(",")) == len(names)


def frame(kind: int, values) -> bytes:
    values = array("d", values)
    return frequency_writer.HEADER.pack(kind, len(values)) + values.tobytes()


def test_writer_reassembles_records_split_across_reads(tmp_path):
    rows = special_rows()
    ratios = [[1.5, 2.0], [], [0.25, 3.0, 1e300]]
    # frames of a few records each, an empty one, and log requests between them
    frames = [frame(frequency_writer.RECORDS, records_of(rows[k:k + 5])) for k in range(0, len(rows), 5)]
    frames.insert(0, frame(frequency_writer.RECORDS, []))
    for k, r in enumerate(ratios):
        frames.insert(2 + 3 * k, frame(frequency_writer.LOGS, r))
    data = b"".join(frames)
    path = tmp_path / "frequency.csv"
    path.write_text("header\n")
    script = [sys.executable, "-S", "-I", frequency_writer.__file__, str(path)]
    # 7-byte writes, so most reads end inside a frame; the replies are a
    # few doubles, so they fit the pipe unread
    with subprocess.Popen(script, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0) as writer:
        for i in range(0, len(data), 7):
            writer.stdin.write(data[i:i + 7])
        writer.stdin.close()
        replies = writer.stdout.read()
        writer.wait(timeout=60)
    assert writer.returncode == 0
    assert path.read_text() == "header\n" + "".join(reference_row(t, values) for t, values in rows)
    assert replies == array("d", [math.log(x) for r in ratios for x in r]).tobytes()
    # a frame cut short by the end of the input is an error
    done = subprocess.run(script, input=data[:-1], capture_output=True, timeout=60)
    assert done.returncode == 1 and b"inside a frame" in done.stderr


def test_log_replies_are_this_process_math_log_bit_for_bit(tmp_path):
    ulp = 2.0 ** -52
    near_one = [1.0 + k * ulp for k in range(-40, 41)] + [1.0 + 1e-12, 1.0 - 1e-9, 1.0 + 1e-6, 0.999]
    large = [1e16, 3.3e150, 5e307, 1.7976931348623157e308, 12345.678]
    # values where np.log differs from math.log on some hosts, and those
    # where it differs on this one
    x = np.random.default_rng(0).uniform(1.01, 3.0, 10_000)
    numpy_differs = [float.fromhex(h) for h in ("0x1.298047bff9642p+0", "0x1.3aba23eb81a8dp+0",
                                                 "0x1.2be06176c2d3bp+0", "0x1.695f7ae4eb97ep+0")]
    numpy_differs += x[np.log(x) != np.array([math.log(v) for v in x])].tolist()
    a = np.array(near_one + numpy_differs)
    b = np.array(large + [1.0 / v for v in numpy_differs])
    got = []
    with engine._WriterProcess(tmp_path / "frequency.csv") as writer:
        writer.request_logs(a, b, got.append)
        writer.request_logs(a[:0], b[:0], got.append)
        writer.finish()
    want = array("d", map(math.log, a.tolist() + b.tolist()))
    assert [g.tobytes() for g in got] == [want.tobytes(), b""]


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


def test_a_table_that_cannot_be_opened_unwinds_what_the_run_opened(tmp_path, writers):
    out = tmp_path / "run"
    (out / "load.csv").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        SimulationRun(null_day(), base_dir=SCENARIO_DIR).run(out)
    # opened before load.csv: events.jsonl, frequency.csv, its writer and markets.csv
    (writer,) = writers
    assert_reaped(writer, 0)
    assert writer.stdin.closed and writer.stdout.closed
    assert (out / "frequency.csv").read_text() == frequency_writer.COLUMNS + "\n"
    assert (out / "events.jsonl").read_text() == ""
    assert not (out / "manifest.json").exists()
    # a file left open would warn as it is collected, and the suite makes that an error
    gc.collect()


def recorded_stream(tmp_path, monkeypatch) -> bytes:
    """The frames a shipped run sends its writer: baseline_200's first two
    hours (1800 records and 10,000 log ratios), then the special rows."""
    frames = []
    queue = engine._WriterProcess._queue

    def recorded(self, kind, count, *parts):
        frames.append(frequency_writer.HEADER.pack(kind, count) + b"".join(bytes(part) for part in parts))
        queue(self, kind, count, *parts)

    monkeypatch.setattr(engine._WriterProcess, "_queue", recorded)
    cfg = load_config(SCENARIO_DIR / "baseline_200.yaml")
    cfg = dataclasses.replace(cfg, simulation=dataclasses.replace(cfg.simulation, span_s=7200))
    SimulationRun(cfg, base_dir=SCENARIO_DIR).run(tmp_path / "recorded")
    frames.append(frame(frequency_writer.RECORDS, records_of(special_rows())))
    return b"".join(frames)


def other_interpreters() -> dict[str, str]:
    """Executables of the accepted Pythons (3.10 and later, as
    pyproject.toml says) that this host can start besides the running
    one, by label: ``python3.1x`` on the PATH, and each pyenv version."""
    candidates = [([f"python3.{minor}"], None) for minor in range(10, 15)]
    if shutil.which("pyenv"):
        listed = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True, text=True, timeout=60)
        pyenv = ["pyenv", "exec", "python3"]
        candidates += [(pyenv, dict(os.environ, PYENV_VERSION=v)) for v in listed.stdout.split()]
    probe = "import sys; print(sys.executable); print(*sys.version_info[:3], sep='.')"
    seen = {os.path.realpath(sys.executable)}
    found = {}
    for command, env in candidates:
        if not shutil.which(command[0]):
            continue
        try:
            done = subprocess.run(command + ["-S", "-I", "-c", probe], capture_output=True, text=True,
                                  env=env, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if done.returncode != 0 or len(done.stdout.split()) != 2:
            continue
        executable, version = done.stdout.split()
        if tuple(map(int, version.split("."))) < (3, 10) or os.path.realpath(executable) in seen:
            continue
        seen.add(os.path.realpath(executable))
        found[f"{version} ({executable})"] = executable
    return found


def write_under(executable: str, stream: bytes, path: Path) -> tuple[bytes, bytes]:
    """frequency.csv's bytes and the reply bytes of the writer run by executable."""
    path.write_text(frequency_writer.COLUMNS + "\n")
    done = subprocess.run([executable, "-S", "-I", frequency_writer.__file__, str(path)], input=stream,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return path.read_bytes(), done.stdout


def test_the_writer_gives_the_same_bytes_under_every_accepted_interpreter_found(tmp_path, monkeypatch):
    others = other_interpreters()
    if not others:
        pytest.skip(f"found no accepted Python to compare besides the running {sys.version.split()[0]}")
    stream = recorded_stream(tmp_path, monkeypatch)
    csv, replies = write_under(sys.executable, stream, tmp_path / "here.csv")
    records = frequency_writer.format_rows(records_of(special_rows()))
    assert csv.endswith(records.encode()) and len(replies) == 10_000 * 8
    print(f"compared with {sys.version.split()[0]} ({sys.executable}):", *others, sep="\n  ")
    for k, (label, executable) in enumerate(others.items()):
        assert write_under(executable, stream, tmp_path / f"other{k}.csv") == (csv, replies), label


# The lifecycle cases below run in a fresh interpreter with a timeout, so
# a pipe deadlock fails the test instead of hanging the suite.
PRELUDE = '''
import fcntl, os, signal, subprocess, warnings
import yaml
from tgsim import engine
from tgsim.config import parse_config
from tgsim.engine import SimulationRun
from tgsim.frequency_writer import BATCH_BYTES
from tgsim.thermal import diversity_metric

warnings.simplefilter("error")
started = []

class Recorded(subprocess.Popen):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        started.append(self)

engine.subprocess.Popen = Recorded
# one page, so that every log request and reply overflows the pipes
engine.PIPE_BYTES = 4096

def assert_reaped(status):
    (writer,) = started
    assert writer.returncode == status, writer.returncode
    assert writer.stdin.closed and writer.stdout.closed
    try:
        os.waitpid(writer.pid, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        raise AssertionError("the writer was not reaped")

def north_star_hour():
    # baseline_200 at 2 x 5000 houses for 1 h, scaled as perfbench derives it
    doc = yaml.safe_load(open(SCENARIO))
    doc["simulation"]["span_s"] = 3600
    for feeder in doc["feeders"]:
        k = 5000 / feeder["houses"]
        feeder["houses"] = 5000
        for key in ("capacity_kw", "base_load_kw"):
            if key in feeder:
                feeder[key] *= k
        if "scarcity_steps" in feeder:
            feeder["scarcity_steps"] = [[p, kw * k] for p, kw in feeder["scarcity_steps"]]
    return parse_config(yaml.safe_dump(doc))

def market_phase_at(interval, action):
    """Calls action(writer) at the end of that interval's market phase,
    when the interval's log request has just been queued."""
    market_phase = SimulationRun._market_phase

    def wrapped(self, t, interval_index, *args):
        market_phase(self, t, interval_index, *args)
        if interval_index == interval:
            writer = args[-1].writer
            assert writer._waiting, "no reply is outstanding"
            action(writer)

    SimulationRun._market_phase = wrapped
'''


def run_isolated(tmp_path, body: str) -> None:
    paths = f"SCENARIO = {str(SCENARIO_DIR / 'baseline_200.yaml')!r}\nOUT = {str(tmp_path / 'run')!r}\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(engine.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", paths + PRELUDE + body], capture_output=True, text=True,
                          timeout=120, env=env)
    assert done.returncode == 0, done.stderr


def test_a_north_star_run_with_replies_past_the_pipe_buffer_completes(tmp_path):
    run_isolated(tmp_path, '''
requests, pipes = [], set()
request_logs = engine._WriterProcess.request_logs

def recorded(self, a, b, then):
    requests.append(8 * (len(a) + len(b)))
    if hasattr(fcntl, "F_GETPIPE_SZ"):
        pipes.update(fcntl.fcntl(fd, fcntl.F_GETPIPE_SZ) for fd in (self._in, self._out))
    return request_logs(self, a, b, then)

engine._WriterProcess.request_logs = recorded
cfg = north_star_hour()
sim = SimulationRun(cfg)
run = sim.run(OUT)
assert_reaped(0)
assert max(requests) > max(BATCH_BYTES, *pipes), (requests, pipes)  # a reply larger than the pipes
want = diversity_metric(sim.fleet, sim.t_out(cfg.simulation.span_s), sim.house_bounds)
assert list(run.summary["final_diversity"].values()) == want
rows = open(os.path.join(OUT, "markets.csv")).read().splitlines()
assert len(rows) == 1 + 3 * 3600 // cfg.simulation.market_interval_s
''')


def test_an_error_with_a_reply_outstanding_reaps_the_writer(tmp_path):
    run_isolated(tmp_path, '''
def fail(writer):
    raise RuntimeError("interval 3")

market_phase_at(3, fail)
try:
    SimulationRun(north_star_hour()).run(OUT)
except RuntimeError as exc:
    assert str(exc) == "interval 3", exc
else:
    raise AssertionError("the run did not fail")
assert_reaped(0)
rows = open(os.path.join(OUT, "frequency.csv")).read().splitlines()
assert len(rows) == 1 + 3 * 300 // 4
''')


def test_a_writer_killed_with_a_reply_outstanding_fails_the_run(tmp_path):
    run_isolated(tmp_path, '''
market_phase_at(3, lambda writer: started[0].kill())
try:
    SimulationRun(north_star_hour()).run(OUT)
except OSError as exc:
    assert "frequency.csv" in str(exc), exc
else:
    raise AssertionError("the run did not fail")
assert_reaped(-signal.SIGKILL)
''')
