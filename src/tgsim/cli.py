"""Command line interface.

Subcommands: validate, run, report, spectra, golden. Batch only; every
invocation reads inputs, writes artifacts, and exits. The commands raise;
main() alone turns an exception into an exit code: 0 success, 1 a domain
error (ConfigError, printed one problem per line, or any other ValueError
or KeyError), 2 an I/O failure (any OSError, printed one line per line of
its message: a missing or unreadable file, an output path under a regular
file). Usage errors caught by argparse also exit 2. JSON output carries a
schema field so downstream tooling can detect format changes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .engine import SimulationRun
from .report import compare_runs, load_table, price_duration_curve, settlement_check, summarize_run
from .spectral import convolve_fft, ingest_series, power_spectrum, shift_impact, write_series_csv

JSON_SCHEMA = 1


def _out_root(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get("TGSIM_OUT")
    if env:
        return Path(env)
    return Path("runs")


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        payload = {"schema": JSON_SCHEMA, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _write_pairs(path: Path, header: str, xs, ys) -> None:
    """A two-column CSV: the header line, then each pair's floats by repr."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for x, y in zip(xs, ys):
            fh.write(f"{float(x)!r},{float(y)!r}\n")


def _build_run(config: Path, seed: int | None = None) -> SimulationRun:
    """The scenario file's run, built but not run: construction checks
    the config and reads its outdoor series, relative to the file."""
    cfg = load_config(config)
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return SimulationRun(cfg, config.parent)


def cmd_validate(args) -> int:
    try:
        _build_run(Path(args.config))
    except ConfigError as exc:
        if not args.json:
            raise
        _emit({"valid": False, "problems": exc.problems}, True, [])
        return 1
    _emit({"valid": True, "problems": []}, args.json,
          [f"{args.config}: ok"] if args.verbose else [])
    return 0


def cmd_run(args) -> int:
    sim = _build_run(Path(args.config), args.seed)
    out_dir = _out_root(args.out)
    if args.out is None:
        out_dir = out_dir / Path(args.config).stem
    artifacts = sim.run(out_dir)
    s = artifacts.summary
    alternations = max(s["price_alternations"].values(), default=0)
    oscillation = "yes" if alternations >= 3 else "no"
    lines = [
        f"peak load: {s['peak_load_kw']:.3f} kW",
        f"energy: {s['energy_kwh']:.3f} kWh",
        f"price mean/sigma: {s['price_mean']} / {s['price_sigma']}",
        f"ufls events: {s['ufls_events']}",
        f"oscillation detected: {oscillation}",
    ]
    if args.verbose:
        lines.append(f"artifacts: {artifacts.out_dir}")
    _emit({"summary": s, "out_dir": str(artifacts.out_dir),
           "manifest": artifacts.manifest, "oscillation": alternations >= 3},
          args.json, lines)
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    if not (run_dir / "summary.json").exists():
        raise FileNotFoundError(f"no summary.json under {run_dir}")
    if args.against:
        payload = compare_runs(args.against, run_dir)
        lines = []
        for name, summ in (("base", payload["base"]), ("other", payload["other"])):
            lines.append(f"{name}: peak {summ['peak_load_kw']:.3f} kW, "
                         f"energy {summ['energy_kwh']:.3f} kWh")
        pk = payload["peak_reduction_pct"]
        en = payload["energy_delta_pct"]
        lines.append(f"peak reduction: {pk if pk is None else f'{pk:.2f}'} %")
        lines.append(f"energy delta: {en if en is None else f'{en:.2f}'} %")
    else:
        payload = summarize_run(run_dir)
        payload["settlement"] = settlement_check(run_dir)
        lines = [f"{k}: {v}" for k, v in payload.items()]
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        markets = load_table(run_dir / "markets.csv")
        prices = [p for p, m in zip(markets["price"], markets["market_id"]) if m != "__area"]
        frac, arr = price_duration_curve(prices)
        _write_pairs(out / "price_duration.csv", "fraction_at_or_above,price", frac, arr)
        lines.append(f"wrote {out / 'price_duration.csv'}")
    _emit(payload, args.json, lines)
    return 0


def cmd_spectra(args) -> int:
    load = ingest_series(args.load, units="kW")
    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    freqs, amps = power_spectrum(load)
    psd_path = out / "psd.csv"
    _write_pairs(psd_path, "frequency_hz,amplitude", freqs, amps)
    payload: dict = {"psd": str(psd_path), "samples": len(load)}
    lines = [f"wrote {psd_path} ({len(freqs)} bins)"]
    if args.impact:
        impact = ingest_series(args.impact, units="")
        conv = convolve_fft(impact, load)
        conv_path = out / "convolution.csv"
        write_series_csv(conv, conv_path)
        payload["convolution"] = str(conv_path)
        lines.append(f"wrote {conv_path}")
        if args.shift is not None:
            result = shift_impact(impact, load, args.shift)
            payload["shift"] = result
            lines.extend(f"{k}: {v}" for k, v in result.items())
    _emit(payload, args.json, lines)
    return 0


def cmd_golden(args) -> int:
    scen_dir = Path(args.scenarios)
    configs = sorted(scen_dir.glob("*.yaml"))
    if not configs:
        raise FileNotFoundError(f"no scenario configs under {scen_dir}")
    # every run is built, its config and outdoor series checked, before
    # the first runs, so a bad one leaves the goldens untouched; a series
    # that cannot be read makes the whole report an I/O failure
    runs, problems, unread = [], [], False
    for path in configs:
        try:
            runs.append((path, _build_run(path)))
        except ConfigError as exc:
            problems += [f"{path.name}: {p}" for p in exc.problems]
        except OSError as exc:
            problems.append(f"{path.name}: {exc}")
            unread = True
    if problems:
        raise OSError("\n".join(problems)) if unread else ConfigError(problems)
    out_root = _out_root(args.out)
    golden_dir = scen_dir / "golden"
    golden_dir.mkdir(parents=True, exist_ok=True)
    for path, sim in runs:
        artifacts = sim.run(out_root / path.stem)
        summary_path = golden_dir / f"{path.stem}.summary.json"
        summary_path.write_text(json.dumps(artifacts.summary, indent=2, sort_keys=True) + "\n")
        if args.verbose:
            print(f"{path.stem}: regenerated {summary_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tgsim", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_val = sub.add_parser("validate", help="check a scenario config")
    p_val.add_argument("--config", required=True)
    p_val.add_argument("--json", action="store_true")
    p_val.add_argument("--verbose", action="store_true")
    p_val.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None,
                       help="artifact directory (default: $TGSIM_OUT/<config stem>)")
    p_run.add_argument("--json", action="store_true")
    p_run.add_argument("--verbose", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("report", help="summarize or compare run artifacts")
    p_rep.add_argument("run_dir")
    p_rep.add_argument("--against", default=None, help="baseline run directory")
    p_rep.add_argument("--out", default=None, help="directory for plot-ready CSVs")
    p_rep.add_argument("--json", action="store_true")
    p_rep.set_defaults(func=cmd_report)

    p_spec = sub.add_parser("spectra", help="PSD and convolution analysis of a load series")
    p_spec.add_argument("--load", required=True, help="load series CSV (time,value)")
    p_spec.add_argument("--impact", default=None, help="unit impact series CSV")
    p_spec.add_argument("--shift", type=float, default=None, help="shift in hours (needs --impact)")
    p_spec.add_argument("--out", default=None)
    p_spec.add_argument("--json", action="store_true")
    p_spec.set_defaults(func=cmd_spectra)

    p_gold = sub.add_parser("golden", help="regenerate golden scenario summaries")
    p_gold.add_argument("--scenarios", default="scenarios")
    p_gold.add_argument("--out", default=None)
    p_gold.add_argument("--verbose", action="store_true")
    p_gold.set_defaults(func=cmd_golden)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "spectra" and args.shift is not None and args.impact is None:
        parser.error("spectra: --shift needs --impact")
    if args.subcommand == "run" and args.seed is not None and args.seed < 0:
        parser.error(f"run: --seed must be >= 0, got {args.seed}")
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        for line in str(exc).split("\n"):
            print(f"error: {line}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
