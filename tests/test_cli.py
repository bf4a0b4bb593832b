"""Command line surface: exit codes, output formats, artifact side effects."""

import json
import os
import shutil
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from conftest import REPO_ROOT, SCENARIO_DIR
from tgsim import config
from tgsim.cli import main
from tgsim.spectral import Series, write_series_csv

T0 = datetime(2026, 7, 1)
NULL_YAML = (SCENARIO_DIR / "null.yaml").read_text()


def null_variant(path, old, new):
    """Write null.yaml with one line replaced; the bundled file stays untouched."""
    assert old in NULL_YAML
    path.write_text(NULL_YAML.replace(old, new))
    return str(path)


def bad_steps_yaml(tmp_path):
    return null_variant(
        tmp_path / "steps.yaml", "capacity_kw: 100.0",
        "capacity_kw: 100.0\n    scarcity_steps: [[x, 5]]",
    )


def missing_csv_yaml(path):
    return null_variant(path, "outdoor_temp_c: 30.0", "outdoor_temp_c: missing.csv")


def regular_file(tmp_path):
    """A plain file, so any --out under it cannot be created."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return blocker


# ------------------------------------------------------------- validate


def test_validate_ok_is_quiet(capsys):
    rc = main(["validate", "--config", str(SCENARIO_DIR / "null.yaml")])
    out, err = capsys.readouterr()
    assert rc == 0
    assert out == ""
    assert err == ""


def test_validate_verbose_confirms(capsys):
    path = SCENARIO_DIR / "null.yaml"
    rc = main(["validate", "--config", str(path), "--verbose"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert out.strip() == f"{path}: ok"


def test_validate_json_contract(capsys, tmp_path):
    rc = main(["validate", "--config", str(SCENARIO_DIR / "null.yaml"), "--json"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert json.loads(out) == {"schema": 1, "valid": True, "problems": []}

    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\nsimulation:\n  span_s: 3600\n")
    rc = main(["validate", "--config", str(bad), "--json"])
    out, _ = capsys.readouterr()
    assert rc == 1
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["valid"] is False
    assert "feeders: at least one feeder is required" in payload["problems"]


def test_validate_problems_go_to_stderr(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("schema_version: 1\nsimulation:\n  span_s: 3600\n")
    rc = main(["validate", "--config", str(bad)])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert "error: feeders: at least one feeder is required" in err


def test_validate_missing_file(capsys, tmp_path):
    rc = main(["validate", "--config", str(tmp_path / "nope.yaml")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error:")


def test_validate_names_a_non_numeric_scarcity_step(capsys, tmp_path):
    path = bad_steps_yaml(tmp_path)
    rc = main(["validate", "--config", path])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert "error: feeders[0].scarcity_steps[0].price: expected a number, got 'x'" in err
    rc = main(["validate", "--config", path, "--json"])
    out, _ = capsys.readouterr()
    assert rc == 1
    assert json.loads(out)["problems"] == [
        "feeders[0].scarcity_steps[0].price: expected a number, got 'x'"
    ]


def offset_series_yaml(tmp_path):
    """null.yaml reading a two-row series whose timestamps carry a UTC offset."""
    (tmp_path / "temps.csv").write_text(
        "time,value\n2026-07-15T00:00:00+00:00,30.0\n2026-07-15T01:00:00+00:00,31.0\n"
    )
    return null_variant(tmp_path / "tz.yaml", "outdoor_temp_c: 30.0", "outdoor_temp_c: temps.csv")


def test_validate_reads_the_outdoor_series(capsys, tmp_path, monkeypatch):
    # the series used to be read only by run and golden
    config = offset_series_yaml(tmp_path)
    monkeypatch.chdir(REPO_ROOT)  # the path is relative to the config's directory
    rc = main(["validate", "--config", config])
    out, err = capsys.readouterr()
    assert rc == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: inputs.outdoor_temp_c: ") and "temps.csv:2: bad row" in err
    rc = main(["validate", "--config", config, "--json"])
    out, _ = capsys.readouterr()
    assert rc == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    [problem] = payload["problems"]
    assert problem.startswith("inputs.outdoor_temp_c: ") and "temps.csv:2: bad row" in problem
    (tmp_path / "temps.csv").write_text(
        "time,value\n2026-07-15T00:00:00,30.0\n2026-07-15T01:00:00,31.0\n"
    )
    assert main(["validate", "--config", config]) == 0
    assert capsys.readouterr() == ("", "")


def test_validate_missing_series_csv_is_an_io_error(capsys, tmp_path):
    rc = main(["validate", "--config", missing_csv_yaml(tmp_path / "csv.yaml")])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "missing.csv" in err


# ------------------------------------------------------------------ run


def test_run_writes_artifacts_and_reports(capsys, tmp_path):
    out_dir = tmp_path / "nullrun"
    rc = main(["run", "--config", str(SCENARIO_DIR / "null.yaml"), "--out", str(out_dir)])
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "peak load: 0.000 kW"
    assert lines[1] == "energy: 0.000 kWh"
    assert lines[2] == "price mean/sigma: 0.0 / 0.0"
    assert lines[3] == "ufls events: 0"
    assert lines[4] == "oscillation detected: no"
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "manifest.json").exists()


def test_run_reports_oscillation(capsys, tmp_path):
    rc = main([
        "run", "--config", str(SCENARIO_DIR / "scarcity_sync.yaml"),
        "--out", str(tmp_path / "sync"),
    ])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "oscillation detected: yes" in out.splitlines()


def test_run_json_payload(capsys, tmp_path):
    rc = main([
        "run", "--config", str(SCENARIO_DIR / "null.yaml"),
        "--out", str(tmp_path / "nulljson"), "--json",
    ])
    out, _ = capsys.readouterr()
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["oscillation"] is False
    assert payload["summary"]["peak_load_kw"] == 0.0
    assert payload["manifest"]["seed"] == 1
    assert payload["out_dir"].endswith("nulljson")


def test_manifest_lists_only_the_files_of_its_own_run(capsys, tmp_path):
    # a second run into the same directory used to list the first run's
    # houses.csv and any other file it found there
    out_dir = tmp_path / "runX"
    assert main(["run", "--config", str(SCENARIO_DIR / "single_house.yaml"), "--out", str(out_dir)]) == 0
    (out_dir / "notes.txt").write_text("kept\n")
    assert main(["run", "--config", str(SCENARIO_DIR / "null.yaml"), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["files"] == ["events.jsonl", "frequency.csv", "load.csv", "markets.csv",
                                 "settlement.csv", "summary.json"]
    # files the run did not write stay on disk
    assert (out_dir / "houses.csv").exists() and (out_dir / "notes.txt").read_text() == "kept\n"


def test_run_seed_override_lands_in_the_manifest(capsys, tmp_path):
    rc = main([
        "run", "--config", str(SCENARIO_DIR / "null.yaml"),
        "--out", str(tmp_path / "seeded"), "--seed", "123",
    ])
    capsys.readouterr()
    assert rc == 0
    manifest = json.loads((tmp_path / "seeded" / "manifest.json").read_text())
    assert manifest["seed"] == 123


def test_run_negative_seed_is_a_usage_error(capsys, tmp_path):
    # numpy used to reject it mid-run with a bare "expected non-negative integer"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(SCENARIO_DIR / "null.yaml"), "--out", str(tmp_path / "run"),
              "--seed", "-1"])
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert "--seed must be >= 0, got -1" in err
    assert not (tmp_path / "run").exists()


def test_run_honours_the_out_env_root(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TGSIM_OUT", str(tmp_path / "envroot"))
    rc = main(["run", "--config", str(SCENARIO_DIR / "null.yaml")])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "envroot" / "null" / "summary.json").exists()


def test_run_error_codes(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("feeders: [unclosed")
    assert main(["run", "--config", str(bad)]) == 1
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2
    capsys.readouterr()


def test_run_missing_series_csv_is_an_io_error(capsys, tmp_path):
    rc = main(["run", "--config", missing_csv_yaml(tmp_path / "csv.yaml"),
               "--out", str(tmp_path / "run")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error:")
    assert "missing.csv" in err


def test_run_names_a_non_numeric_scarcity_step(capsys, tmp_path):
    rc = main(["run", "--config", bad_steps_yaml(tmp_path), "--out", str(tmp_path / "run")])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "error: feeders[0].scarcity_steps[0]" in err
    assert not (tmp_path / "run").exists()


def test_run_rejects_a_schedule_interval_that_does_not_divide_a_day(capsys, tmp_path):
    config = null_variant(
        tmp_path / "sched.yaml", "span_s: 3600",
        "span_s: 100000\n  schedule_interval_s: 50000\n  market_interval_s: 500\n  device_tick_s: 100",
    )
    rc = main(["run", "--config", config, "--out", str(tmp_path / "run")])
    _, err = capsys.readouterr()
    assert rc == 1
    assert err == "error: simulation.schedule_interval_s: must divide one day (86400 s), got 50000\n"
    assert not (tmp_path / "run").exists()


def test_run_rejects_a_utc_offset_in_a_series_timestamp(capsys, tmp_path):
    # the offset used to pass validate and crash the run with a TypeError
    # once the naive start met the aware series start
    (tmp_path / "temps.csv").write_text(
        "time,value\n2026-07-15T00:00:00+00:00,30.0\n2026-07-15T01:00:00+00:00,31.0\n"
    )
    config = null_variant(tmp_path / "tz.yaml", "outdoor_temp_c: 30.0", "outdoor_temp_c: temps.csv")
    rc = main(["run", "--config", config, "--out", str(tmp_path / "run")])
    _, err = capsys.readouterr()
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "temps.csv:2: bad row" in err
    # golden reads the series before any run, so it writes nothing
    scen = tmp_path / "scen"
    scen.mkdir()
    shutil.copy(SCENARIO_DIR / "null.yaml", scen / "a.yaml")
    shutil.copy(config, scen / "b.yaml")
    shutil.copy(tmp_path / "temps.csv", scen / "temps.csv")
    rc = main(["golden", "--scenarios", str(scen), "--out", str(tmp_path / "runs")])
    _, err = capsys.readouterr()
    assert rc == 1
    assert len(err.splitlines()) == 1 and "bad row" in err
    assert not (scen / "golden" / "a.summary.json").exists()


def test_run_rejects_a_utc_offset_in_the_start(capsys, tmp_path):
    # a quoted start is a string; YAML reads an unquoted one as a datetime
    for start, echo in (('"2026-07-15T00:00:00+02:00"', "2026-07-15T00:00:00+02:00"),
                        ("2026-07-15T00:00:00Z", "2026-07-15 00:00:00+00:00")):
        config = null_variant(tmp_path / "tz.yaml", '"2026-07-15T00:00:00"', start)
        rc = main(["run", "--config", config, "--out", str(tmp_path / "run")])
        _, err = capsys.readouterr()
        assert rc == 1
        assert err == f"error: simulation.start: must be local time without a UTC offset, got {echo!r}\n"
        assert not (tmp_path / "run").exists()


def test_run_out_under_a_regular_file_is_an_io_error(capsys, tmp_path):
    out_dir = regular_file(tmp_path) / "run"
    rc = main(["run", "--config", str(SCENARIO_DIR / "null.yaml"), "--out", str(out_dir)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error:")


def series_yaml(path, csv_name):
    """null.yaml reading an hourly series, csv_name beside it, that covers its hour."""
    write_series_csv(Series(datetime(2026, 7, 15), 3600.0, np.array([30.0, 31.0])), path.parent / csv_name)
    return null_variant(path, "outdoor_temp_c: 30.0", f"outdoor_temp_c: {csv_name}")


def test_each_command_reads_the_outdoor_series_once(capsys, tmp_path, monkeypatch):
    # load_config used to read the series as well as the run
    reads = []
    real = config.ingest_series

    def counted(path, *args, **kwargs):
        reads.append(Path(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(config, "ingest_series", counted)
    scen = tmp_path / "scen"
    scen.mkdir()
    configs = [series_yaml(scen / f"{stem}.yaml", f"{stem}.csv") for stem in ("a", "b")]
    assert main(["run", "--config", configs[0], "--out", str(tmp_path / "run")]) == 0
    assert reads == [scen / "a.csv"]
    reads.clear()
    assert main(["validate", "--config", configs[0]]) == 0
    assert reads == [scen / "a.csv"]
    reads.clear()
    assert main(["golden", "--scenarios", str(scen), "--out", str(tmp_path / "runs")]) == 0
    assert reads == [scen / "a.csv", scen / "b.csv"]
    capsys.readouterr()


# --------------------------------------------------------------- report


def test_report_summarizes_a_run_dir(capsys, scenario_runs):
    run, _ = scenario_runs["storage_arb"]
    rc = main(["report", str(run.out_dir)])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "peak_load_kw: 160.0" in out
    assert "settlement_residual: 0.0" in out


def test_report_json_payload(capsys, scenario_runs):
    run, _ = scenario_runs["two_settlement"]
    rc = main(["report", str(run.out_dir), "--json"])
    out, _ = capsys.readouterr()
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["mean_price"] == 32.0
    assert payload["settlement"]["residual"] == 0.0


def test_report_writes_the_duration_curve(capsys, scenario_runs, tmp_path):
    run, _ = scenario_runs["storage_arb"]
    rc = main(["report", str(run.out_dir), "--out", str(tmp_path / "plots")])
    out, _ = capsys.readouterr()
    assert rc == 0
    curve = (tmp_path / "plots" / "price_duration.csv").read_text().splitlines()
    assert curve[0] == "fraction_at_or_above,price"
    # eight feeder intervals; prices descend and fractions climb to one
    rows = [tuple(map(float, line.split(","))) for line in curve[1:]]
    assert len(rows) == 8
    assert [p for _, p in rows] == sorted((p for _, p in rows), reverse=True)
    assert rows[-1][0] == 1.0
    assert f"wrote {tmp_path / 'plots' / 'price_duration.csv'}" in out


def test_report_compare_mode(capsys, scenario_runs):
    first, second = scenario_runs["storage_arb"]
    rc = main(["report", str(second.out_dir), "--against", str(first.out_dir)])
    out, _ = capsys.readouterr()
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("base: peak 160.000 kW, energy ")
    assert lines[1].startswith("other: peak 160.000 kW, energy ")
    assert any(line.startswith("peak reduction: ") for line in lines)
    assert any(line.startswith("energy delta: ") for line in lines)


def test_report_compare_span_mismatch(capsys, scenario_runs):
    null_run, _ = scenario_runs["null"]
    arb_run, _ = scenario_runs["storage_arb"]
    rc = main(["report", str(arb_run.out_dir), "--against", str(null_run.out_dir)])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "span mismatch" in err


def test_report_missing_summary(capsys, tmp_path):
    rc = main(["report", str(tmp_path)])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "no summary.json" in err


def test_report_corrupt_artifacts(capsys, tmp_path):
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "summary.json").write_text("{}")
    (broken / "load.csv").write_text("")
    rc = main(["report", str(broken)])
    _, err = capsys.readouterr()
    assert rc == 1
    assert "empty file" in err
    # same directory without the csv at all is an I/O failure instead
    (broken / "load.csv").unlink()
    rc = main(["report", str(broken)])
    capsys.readouterr()
    assert rc == 2


def test_report_out_under_a_regular_file_is_an_io_error(capsys, scenario_runs, tmp_path):
    run, _ = scenario_runs["null"]
    rc = main(["report", str(run.out_dir), "--out", str(regular_file(tmp_path) / "plots")])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


# -------------------------------------------------------------- spectra


def series_csv(path, values, period_s=900.0):
    write_series_csv(Series(T0, period_s, np.asarray(values, dtype=float)), path)
    return str(path)


def test_spectra_writes_psd(capsys, tmp_path):
    t = np.arange(8)
    load_path = series_csv(tmp_path / "load.csv", 10.0 + np.sin(2 * np.pi * t / 8))
    rc = main(["spectra", "--load", load_path, "--out", str(tmp_path / "spec")])
    out, _ = capsys.readouterr()
    assert rc == 0
    psd = (tmp_path / "spec" / "psd.csv").read_text().splitlines()
    assert psd[0] == "frequency_hz,amplitude"
    assert len(psd) == 1 + 8 // 2 + 1  # header + rfft bins
    assert "wrote" in out


def test_spectra_convolution_and_shift(capsys, tmp_path):
    load_path = series_csv(tmp_path / "load.csv", [5.0, 6.0, 7.0, 8.0, 7.0, 6.0, 5.0, 4.0])
    impact_path = series_csv(tmp_path / "impact.csv", [0.1, 0.2, 0.1])
    rc = main([
        "spectra", "--load", load_path, "--impact", impact_path,
        "--shift", "0.5", "--out", str(tmp_path / "spec"), "--json",
    ])
    out, _ = capsys.readouterr()
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["samples"] == 8
    assert (tmp_path / "spec" / "convolution.csv").exists()
    shift = payload["shift"]
    assert set(shift) == {"impact_at_zero_shift", "impact_at_shift", "impact_change"}
    assert shift["impact_change"] == shift["impact_at_shift"] - shift["impact_at_zero_shift"]


def test_spectra_shift_without_impact_is_a_usage_error(capsys, tmp_path):
    # the shift used to be dropped without a word
    load_path = series_csv(tmp_path / "load.csv", [5.0, 6.0, 7.0, 8.0])
    with pytest.raises(SystemExit) as exc:
        main(["spectra", "--load", load_path, "--shift", "1", "--out", str(tmp_path / "spec")])
    _, err = capsys.readouterr()
    assert exc.value.code == 2
    assert "--shift needs --impact" in err
    assert not (tmp_path / "spec").exists()


def test_spectra_off_grid_shift_fails_cleanly(capsys, tmp_path):
    load_path = series_csv(tmp_path / "load.csv", [5.0, 6.0, 7.0, 8.0])
    impact_path = series_csv(tmp_path / "impact.csv", [0.1, 0.2])
    rc = main([
        "spectra", "--load", load_path, "--impact", impact_path,
        "--shift", "0.3", "--out", str(tmp_path / "spec"),
    ])
    _, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith("error:")


def test_spectra_input_errors(capsys, tmp_path):
    rc = main(["spectra", "--load", str(tmp_path / "nope.csv")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error:")
    irregular = tmp_path / "irregular.csv"
    irregular.write_text(
        "time,value\n"
        "2026-07-01T00:00:00,1.0\n"
        "2026-07-01T00:15:00,2.0\n"
        "2026-07-01T00:33:00,3.0\n"
    )
    rc = main(["spectra", "--load", str(irregular)])
    _, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith("error:")


def test_spectra_out_under_a_regular_file_is_an_io_error(capsys, tmp_path):
    load_path = series_csv(tmp_path / "load.csv", [5.0, 6.0, 7.0, 8.0])
    rc = main(["spectra", "--load", load_path, "--out", str(regular_file(tmp_path) / "spec")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error:")


# --------------------------------------------------------------- golden


def test_golden_regenerates_pinned_summaries(capsys, tmp_path):
    scen = tmp_path / "scenarios"
    scen.mkdir()
    for stem in ("null", "two_settlement"):
        shutil.copy(SCENARIO_DIR / f"{stem}.yaml", scen / f"{stem}.yaml")
    rc = main(["golden", "--scenarios", str(scen), "--out", str(tmp_path / "runs"), "--verbose"])
    out, _ = capsys.readouterr()
    assert rc == 0
    assert "null: regenerated" in out
    for stem in ("null", "two_settlement"):
        fresh = (scen / "golden" / f"{stem}.summary.json").read_bytes()
        pinned = (SCENARIO_DIR / "golden" / f"{stem}.summary.json").read_bytes()
        assert fresh == pinned, f"{stem} golden is stale"


def test_golden_error_codes(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["golden", "--scenarios", str(empty), "--out", str(tmp_path / "runs")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert "no scenario configs" in err
    # every config is validated before the first runs, so a valid a.yaml
    # sorted ahead of the broken one leaves no golden written
    scen = tmp_path / "scen"
    scen.mkdir()
    shutil.copy(SCENARIO_DIR / "null.yaml", scen / "a.yaml")
    (scen / "broken.yaml").write_text(NULL_YAML.replace("schema_version: 1", "schema_version: 99"))
    rc = main(["golden", "--scenarios", str(scen), "--out", str(tmp_path / "runs")])
    _, err = capsys.readouterr()
    assert rc == 1
    assert err == "error: broken.yaml: schema_version: expected 1, got 99\n"
    assert not (scen / "golden" / "a.summary.json").exists()
    assert not (tmp_path / "runs").exists()


def test_golden_missing_series_csv_is_an_io_error(capsys, tmp_path):
    scen = tmp_path / "scen"
    scen.mkdir()
    missing_csv_yaml(scen / "csv.yaml")
    rc = main(["golden", "--scenarios", str(scen), "--out", str(tmp_path / "runs")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("error:")
    assert "missing.csv" in err


def test_golden_reads_every_series_before_the_first_run(capsys, tmp_path):
    # a.yaml is valid and sorts first; b.yaml names a series that is not
    # there, which only reading the series finds
    scen = tmp_path / "scen"
    scen.mkdir()
    shutil.copy(SCENARIO_DIR / "null.yaml", scen / "a.yaml")
    missing_csv_yaml(scen / "b.yaml")
    rc = main(["golden", "--scenarios", str(scen), "--out", str(tmp_path / "runs")])
    _, err = capsys.readouterr()
    assert rc == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")
    assert "missing.csv" in err
    assert not (scen / "golden" / "a.summary.json").exists()
    assert not (tmp_path / "runs").exists()


def test_golden_reports_every_broken_config_by_name(capsys, tmp_path):
    # a.yaml is valid, b.yaml names a series that is not there and c.yaml
    # has a bad schema version: each problem is one line naming its file,
    # the unread series makes it an I/O failure, and nothing is written
    scen = tmp_path / "scen"
    scen.mkdir()
    shutil.copy(SCENARIO_DIR / "null.yaml", scen / "a.yaml")
    missing_csv_yaml(scen / "b.yaml")
    (scen / "c.yaml").write_text(NULL_YAML.replace("schema_version: 1", "schema_version: 9"))
    rc = main(["golden", "--scenarios", str(scen), "--out", str(tmp_path / "runs")])
    _, err = capsys.readouterr()
    assert rc == 2
    lines = err.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("error: b.yaml: ") and "missing.csv" in lines[0]
    assert lines[1] == "error: c.yaml: schema_version: expected 1, got 9"
    assert not (scen / "golden").exists()
    assert not (tmp_path / "runs").exists()


# ------------------------------------------------------ process boundary


def cli_process(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "tgsim.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_module_entry_point_exit_statuses(tmp_path):
    done = cli_process("validate", "--config", "nope.yaml", cwd=tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    done = cli_process("run", "--config", str(SCENARIO_DIR / "null.yaml"),
                       "--out", "nullrun", cwd=tmp_path)
    assert done.returncode == 0
    assert done.stdout.splitlines()[0] == "peak load: 0.000 kW"
    # a bad value deep in the config ends as a message, never a traceback
    done = cli_process("validate", "--config", bad_steps_yaml(tmp_path), cwd=tmp_path)
    assert done.returncode == 1
    assert done.stderr.startswith("error: feeders[0].scarcity_steps[0]")
    assert "Traceback" not in done.stderr
