"""Convolution valuation, energy/ramp identities, emissions table, CSV ingest."""

from datetime import datetime, timedelta

import numpy as np
import pytest

from tgsim.spectral import (
    EMISSIONS_SPECIES,
    Series,
    convolve_direct,
    convolve_fft,
    emissions_reduction,
    energy_load_ramp,
    ingest_series,
    load_from_energy,
    load_from_ramp,
    power_spectrum,
    read_series_points,
    shift_impact,
    write_series_csv,
)

T0 = datetime(2026, 7, 1, 0, 0, 0)


def series(values, period_s=3600.0, units=""):
    return Series(T0, period_s, np.asarray(values, dtype=float), units)


# ----------------------------------------------------------------------
# series container
# ----------------------------------------------------------------------


def test_series_validation():
    with pytest.raises(ValueError):
        Series(T0, 0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        Series(T0, 60.0, np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        Series(T0, 60.0, np.array([1.0, float("nan")]))


def test_series_times_are_uniform():
    s = series([1.0, 2.0, 3.0], period_s=900.0)
    assert s.times() == [T0, T0 + timedelta(seconds=900), T0 + timedelta(seconds=1800)]
    assert len(s) == 3


# ----------------------------------------------------------------------
# convolution
# ----------------------------------------------------------------------


def test_convolve_impulse_reproduces_load():
    v = series([1.0])  # unit valuation, one hour wide
    load = series([3.0, 1.0, 4.0], units="kW")
    out = convolve_direct(v, load)
    assert np.array_equal(out.values, [3.0, 1.0, 4.0])


def test_convolve_small_example_exact():
    # [1,1] * [1,2,3] = [1,3,5,3], scaled by the one-hour sample period
    out = convolve_direct(series([1.0, 1.0]), series([1.0, 2.0, 3.0]))
    assert np.array_equal(out.values, [1.0, 3.0, 5.0, 3.0])
    # a half-hour period halves the riemann weight
    half = convolve_direct(
        series([1.0, 1.0], period_s=1800.0), series([1.0, 2.0, 3.0], period_s=1800.0)
    )
    assert np.array_equal(half.values, [0.5, 1.5, 2.5, 1.5])


def test_convolve_zero_valuation_gives_zero_impact():
    out = convolve_direct(series([0.0, 0.0]), series([5.0, 6.0, 7.0]))
    assert out.values.shape == (4,)
    assert not out.values.any()


def test_convolve_fft_matches_direct():
    rng = np.random.default_rng(11)
    v = series(rng.normal(size=17))
    load = series(rng.normal(size=33))
    d = convolve_direct(v, load).values
    f = convolve_fft(v, load).values
    assert np.allclose(d, f, rtol=1e-9, atol=1e-12)


def test_convolve_is_commutative():
    rng = np.random.default_rng(4)
    a = series(rng.normal(size=9))
    b = series(rng.normal(size=13))
    assert np.allclose(convolve_direct(a, b).values, convolve_direct(b, a).values, rtol=1e-12)


def test_convolve_input_validation():
    with pytest.raises(ValueError):
        convolve_direct(series([1.0], period_s=3600.0), series([1.0], period_s=1800.0))
    with pytest.raises(ValueError):
        convolve_direct(series([]), series([1.0]))
    with pytest.raises(ValueError):
        convolve_fft(series([1.0]), series([]))


def test_convolution_units_compose():
    v = series([1.0], units="$/kWh")
    load = series([1.0], units="kW")
    assert convolve_direct(v, load).units == "($/kWh)*(kW)*h"


# ----------------------------------------------------------------------
# load shifting
# ----------------------------------------------------------------------


def test_shift_impact_zero_shift_changes_nothing():
    v = series([2.0, 1.0, 0.5, 0.25])
    load = series([5.0, 3.0, 4.0, 6.0])
    out = shift_impact(v, load, 0.0)
    assert out["impact_change"] == 0.0
    assert out["impact_at_shift"] == out["impact_at_zero_shift"]


def test_shift_impact_flat_valuation_sees_no_change():
    # a valuation flat over every shifted position of the load windowed
    # inside it prices all shifts identically
    load = series([5.0, 3.0, 4.0])
    v = series(np.ones(8))
    for hours in (0.0, 1.0, 2.0):
        out = shift_impact(v, load, hours)
        assert out["impact_change"] == pytest.approx(0.0, abs=1e-12)


def test_shift_impact_matches_elementwise_sum():
    """Cross-check against the definition written as a plain double loop."""
    rng = np.random.default_rng(21)
    v = series(rng.uniform(0.5, 2.0, size=6))
    load = series(rng.uniform(1.0, 9.0, size=9))

    def brute(steps):
        total = 0.0
        for k in range(len(v)):
            j = k - steps
            if 0 <= j < len(load):
                total += v.values[k] * load.values[j]
        return total * (v.period_s / 3600.0)

    for steps in range(len(load)):
        out = shift_impact(v, load, float(steps))
        assert out["impact_at_shift"] == pytest.approx(brute(steps), rel=1e-12)
        assert out["impact_at_zero_shift"] == pytest.approx(brute(0), rel=1e-12)
        assert out["impact_change"] == pytest.approx(brute(steps) - brute(0), rel=1e-9, abs=1e-12)


def test_shift_impact_reads_the_direct_convolution_bit_for_bit():
    # the impacts are samples of convolve_direct of the reversed load: at
    # len(load) - 1 for no shift, and that index plus the shift; a shift
    # past the end of the short kernel overlaps nothing and is exactly 0.0
    rng = np.random.default_rng(33)
    v = series(rng.normal(0.0, 10.0, size=5), period_s=900.0)
    load = series(rng.normal(0.0, 50.0, size=12), period_s=900.0)
    direct = convolve_direct(v, series(load.values[::-1].copy(), period_s=900.0)).values.tolist()
    base = direct[len(load) - 1]
    seen_past_kernel = False
    for steps in range(len(load)):
        out = shift_impact(v, load, steps / 4.0)
        idx = len(load) - 1 + steps
        shifted = direct[idx] if idx < len(direct) else 0.0
        seen_past_kernel |= idx >= len(direct)
        got = (out["impact_at_zero_shift"], out["impact_at_shift"], out["impact_change"])
        assert [x.hex() for x in got] == [base.hex(), shifted.hex(), (shifted - base).hex()]
        if steps == 0:
            assert out["impact_at_shift"].hex() == base.hex() and out["impact_change"] == 0.0
    assert seen_past_kernel and out["impact_at_shift"] == 0.0


def test_shift_impact_rejects_off_grid_and_out_of_span():
    v = series([1.0, 2.0])
    load = series([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        shift_impact(v, load, 0.3)  # not a whole number of hours
    with pytest.raises(ValueError):
        shift_impact(v, load, 3.0)  # beyond the last sample
    with pytest.raises(ValueError):
        shift_impact(v, load, -1.0)


# ----------------------------------------------------------------------
# energy / load / ramp identities
# ----------------------------------------------------------------------


def test_energy_and_ramp_small_example():
    load = series([0.0, 0.5, 2.0], units="kW")
    energy, ramp = energy_load_ramp(load)
    assert np.array_equal(energy.values, [0.0, 0.25, 1.5])  # trapezoids
    assert np.array_equal(ramp.values, [0.5, 1.5])
    assert energy.units == "kWh" and ramp.units == "kW/h"


def test_energy_and_ramp_round_trip_exactly_on_dyadics():
    load = series([0.0, 0.5, 2.0, 1.0])
    energy, ramp = energy_load_ramp(load)
    assert np.array_equal(load_from_energy(energy, load.values[0]).values, load.values)
    assert np.array_equal(load_from_ramp(ramp, load.values[0]).values, load.values)


def test_round_trips_on_random_loads():
    rng = np.random.default_rng(17)
    load = series(rng.uniform(0.0, 100.0, size=50), period_s=900.0)
    energy, ramp = energy_load_ramp(load)
    back_e = load_from_energy(energy, float(load.values[0]))
    back_r = load_from_ramp(ramp, float(load.values[0]))
    assert np.allclose(back_e.values, load.values, rtol=0, atol=1e-10)
    assert np.allclose(back_r.values, load.values, rtol=0, atol=1e-10)


# ----------------------------------------------------------------------
# emissions displacement table
# ----------------------------------------------------------------------


def test_emissions_tabulated_rows_are_exact():
    # the displacement table, stated independently here species by species
    expected = {
        0.00: dict(zip(EMISSIONS_SPECIES, (0.00, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00))),
        0.10: dict(zip(EMISSIONS_SPECIES, (0.12, 0.09, 0.12, 0.10, 0.13, 0.08, 0.11))),
        0.20: dict(zip(EMISSIONS_SPECIES, (0.21, 0.11, 0.17, 0.15, 0.22, 0.17, 0.22))),
        0.30: dict(zip(EMISSIONS_SPECIES, (0.28, 0.10, 0.21, 0.19, 0.29, 0.24, 0.32))),
        0.40: dict(zip(EMISSIONS_SPECIES, (0.33, 0.04, 0.23, 0.20, 0.34, 0.30, 0.40))),
    }
    for pen, row in expected.items():
        for species, value in row.items():
            assert emissions_reduction(pen, species) == value


def test_emissions_midpoints_interpolate_linearly():
    assert emissions_reduction(0.15, "pm") == pytest.approx(0.165, rel=1e-12)
    assert emissions_reduction(0.25, "nox") == pytest.approx(0.255, rel=1e-12)
    assert emissions_reduction(0.35, "n2o") == pytest.approx(0.07, rel=1e-12)
    assert emissions_reduction(0.05, "nox") == pytest.approx(0.065, rel=1e-12)
    # off-midpoint: co2 at 0.12 is 0.12 + 0.2*(0.21-0.12)
    assert emissions_reduction(0.12, "co2") == pytest.approx(0.138, rel=1e-12)


def test_emissions_nitrous_oxide_is_non_monotonic():
    # cycling duty erodes the n2o benefit at high penetration
    assert emissions_reduction(0.40, "n2o") < emissions_reduction(0.20, "n2o")


def test_emissions_input_handling():
    assert emissions_reduction(0.20, "CO2") == emissions_reduction(0.20, "co2")
    with pytest.raises(KeyError):
        emissions_reduction(0.20, "unobtainium")
    with pytest.raises(ValueError):
        emissions_reduction(-0.01, "co2")
    with pytest.raises(ValueError):
        emissions_reduction(0.41, "co2")
    assert emissions_reduction(0.40, "sox") == 0.30  # the last row itself is fine


# ----------------------------------------------------------------------
# spectrum
# ----------------------------------------------------------------------


def test_power_spectrum_finds_the_driving_frequency():
    n = 256
    t = np.arange(n)
    s = series(np.sin(2 * np.pi * 10 * t / n), period_s=1.0)
    freqs, mag = power_spectrum(s)
    peak = int(np.argmax(mag[1:])) + 1  # skip the windowed DC leakage
    assert peak == 10
    assert freqs[peak] == pytest.approx(10.0 / n)


def test_power_spectrum_needs_two_samples():
    with pytest.raises(ValueError):
        power_spectrum(series([1.0]))


# ----------------------------------------------------------------------
# CSV interchange
# ----------------------------------------------------------------------


def test_write_read_round_trip(tmp_path):
    src = series([1.0, 2.5, 1.0 / 3.0, 7.25], period_s=60.0, units="kW")
    path = tmp_path / "load.csv"
    write_series_csv(src, path)
    back = ingest_series(path, units="kW")
    assert back.period_s == 60.0
    assert back.start == T0
    assert np.array_equal(back.values, src.values)  # repr round trips floats
    assert back.units == "kW"


def test_ingest_fills_modest_gaps_by_interpolation(tmp_path):
    p = tmp_path / "gappy.csv"
    p.write_text(
        "time,value\n"
        "2026-07-01T00:00:00,3\n"
        "2026-07-01T00:01:00,6\n"
        "2026-07-01T00:03:00,10\n"
    )
    s = ingest_series(p)
    assert s.period_s == 60.0
    assert np.array_equal(s.values, [3.0, 6.0, 8.0, 10.0])


def test_ingest_rejects_long_gaps_unless_allowed(tmp_path):
    p = tmp_path / "gappy.csv"
    p.write_text(
        "time,value\n"
        "2026-07-01T00:00:00,1\n"
        "2026-07-01T00:01:00,2\n"
        "2026-07-01T00:05:00,3\n"
    )
    with pytest.raises(ValueError):
        ingest_series(p, max_gap_samples=2)
    s = ingest_series(p, max_gap_samples=4)
    assert len(s) == 6


def test_ingest_rejects_irregular_and_backward_times(tmp_path):
    p = tmp_path / "odd.csv"
    p.write_text(
        "time,value\n"
        "2026-07-01T00:00:00,1\n"
        "2026-07-01T00:01:00,2\n"
        "2026-07-01T00:02:30,3\n"
    )
    with pytest.raises(ValueError):
        ingest_series(p)  # 90 s is not a multiple of the 60 s period
    p.write_text(
        "time,value\n"
        "2026-07-01T00:01:00,1\n"
        "2026-07-01T00:00:00,2\n"
    )
    with pytest.raises(ValueError):
        ingest_series(p)


def test_ingest_header_and_row_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("stamp,reading\n2026-07-01T00:00:00,1\n")
    with pytest.raises(ValueError):
        read_series_points(p)
    p.write_text("time,value\n")
    with pytest.raises(ValueError):
        read_series_points(p)
    p.write_text("time,value\n2026-07-01T00:00:00,abc\n")
    with pytest.raises(ValueError, match=":2:"):
        read_series_points(p)
    # a non-finite value is a bad row of its file, not a bare Series error
    for value in ("nan", "inf", "-inf"):
        p.write_text(f"time,value\n2026-07-01T00:00:00,1\n2026-07-01T00:01:00,{value}\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: bad row"):
            ingest_series(p)
    p.write_text("time,value\n2026-07-01T00:00:00,1\n")
    with pytest.raises(ValueError):
        ingest_series(p)  # a single sample has no period


def test_read_series_points_skips_blank_lines(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text("time,value\n2026-07-01T00:00:00,1\n\n2026-07-01T00:01:00,2\n")
    pts = read_series_points(p)
    assert [x for _, x in pts] == [1.0, 2.0]