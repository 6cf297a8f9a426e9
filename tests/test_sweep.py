"""Sweep harness: power-law fitting, report assembly, verdicts, and the CSV
contract (byte-deterministic, lossless round trip)."""

import dataclasses
import math

import numpy as np
import pytest

from crossing_kit.errors import DegenerateFit, ValidationError
from crossing_kit.normalform import model_corpus
from crossing_kit.profiles import Bump
from crossing_kit.schrodinger import schrodinger_corpus
from crossing_kit.sweep import (
    CSV_COLUMNS,
    SweepReport,
    SweepRow,
    attach_fits,
    check_exponent,
    check_prefactor,
    fit_power_law,
    read_csv,
    run_sweep,
    write_csv,
)

HS = np.geomspace(1e-1, 1e-3, 5)


def test_fit_recovers_exact_power_law():
    pts = [(h, 3.0 * h**0.5) for h in HS]
    fit = fit_power_law(pts)
    assert abs(fit.exponent - 0.5) < 1e-12
    assert abs(fit.amplitude - 3.0) < 1e-12
    assert fit.residual_rms < 1e-13


def test_fit_recovers_logarithmic_envelope():
    pts = [(h, h ** (2.0 / 3.0) * math.log(1.0 / h)) for h in HS]
    fit = fit_power_law(pts, with_log=True)
    assert abs(fit.exponent - 2.0 / 3.0) < 1e-6
    assert abs(fit.amplitude - 1.0) < 1e-6
    # without the log factor the same data reads as a shallower slope
    assert fit_power_law(pts).exponent < 2.0 / 3.0 - 0.05


def test_fit_recovers_planted_exponents():
    rng = np.random.default_rng(3)
    for _ in range(20):
        e = float(rng.uniform(0.2, 2.0))
        a = float(rng.uniform(0.1, 10.0))
        pts = [(h, a * h**e) for h in HS]
        fit = fit_power_law(pts)
        assert abs(fit.exponent - e) < 1e-6
        assert abs(fit.amplitude - a) / a < 1e-6


def test_fit_rejects_degenerate_data():
    with pytest.raises(ValidationError):
        fit_power_law([(1e-1, 1.0), (1e-2, 0.5)])
    with pytest.raises(DegenerateFit):
        fit_power_law([(h, 0.0) for h in HS])
    with pytest.raises(DegenerateFit):
        fit_power_law([(1e-1, 1.0), (1e-2, -0.5), (1e-3, 0.2)])


def test_run_sweep_preconditions():
    prob = model_corpus(1e-2)[0]
    with pytest.raises(ValidationError):
        run_sweep(prob, [1e-1, 1e-2, 1e-3])
    with pytest.raises(ValidationError):
        run_sweep(prob, [1e-1, 8e-2, 5e-2, 2e-2])
    with pytest.raises(ValidationError):
        run_sweep(prob, [1e-1, 1e-2, 1e-3, -1e-4])
    with pytest.raises(ValidationError):
        run_sweep(object(), [1e-1, 1e-2, 1e-3, 1e-4])


def test_report_rows_sorted_and_parallel_deterministic(tmp_path):
    prob = model_corpus(1e-2)[0]
    hs = np.geomspace(1e-3, 1e-1, 4)  # deliberately increasing
    serial = run_sweep(prob, hs, jobs=1)
    parallel = run_sweep(prob, hs, jobs=4)
    assert [r.h for r in serial.rows] == sorted((float(h) for h in hs), reverse=True)
    p1, p2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_csv(serial, p1)
    write_csv(parallel, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_rows_carry_small_errors_and_fits():
    prob = model_corpus(1e-2)[0]
    report = run_sweep(prob, np.geomspace(1e-1, 1e-3, 5), jobs=4)
    assert all(r.status == "ok" for r in report.rows)
    for r in report.rows:
        assert r.extracted.h == r.predicted.h == r.h
        assert max(r.rel_errors()) < 0.5
    attach_fits(report)
    assert abs(report.fits["t21"].exponent - 0.5) < 0.05


def test_zero_coupling_sweep_skips_fits():
    prob = dataclasses.replace(
        model_corpus(1e-2)[0], r1=Bump(1.0, 0.0), r2=Bump(1.0, 0.0)
    )
    report = run_sweep(prob, np.geomspace(1e-1, 1e-3, 4))
    assert all(max(r.abs_errors()) < 1e-8 for r in report.rows)
    attach_fits(report)
    assert "t12" not in report.fits and "t21" not in report.fits


def test_failed_rows_recorded_not_raised(tmp_path):
    # an extraction window overlapping the coupling support fails every row
    prob = model_corpus(1e-2)[0]
    report = run_sweep(prob, np.geomspace(1e-1, 1e-3, 4), eps=0.35)
    assert all(r.status == "failed:WindowInsideSupport" for r in report.rows)
    assert report.ok_rows() == []
    assert all(math.isnan(e) for r in report.rows for e in r.abs_errors())
    path = tmp_path / "failed.csv"
    write_csv(report, path)
    back = read_csv(path)
    assert [r.status for r in back.rows] == [r.status for r in report.rows]


def test_verdicts_and_monotonicity():
    pts = [(h, 2.0 * h**0.52) for h in HS]
    report = SweepReport(rows=[])
    report.fits["t21"] = fit_power_law(pts)
    tight = check_exponent(report, "t21", 0.5, 0.01)
    loose = check_exponent(report, "t21", 0.5, 0.05)
    assert not tight.passed and loose.passed
    # loosening a tolerance can only keep or gain passes
    for tol in (0.02, 0.03, 0.1, 0.5):
        again = check_exponent(report, "t21", 0.5, tol)
        assert again.passed >= tight.passed
    good = check_prefactor(report, "t21", 2.0, 0.10)
    bad = check_prefactor(report, "t21", 2.5, 0.10)
    assert good.passed and not bad.passed
    assert report.verdicts["t21:prefactor"] is bad


def test_csv_round_trip_bit_exact(tmp_path):
    prob = model_corpus(1e-2)[0]
    report = run_sweep(prob, np.geomspace(1e-1, 1e-3, 4))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(report, p1)
    write_csv(read_csv(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_csv_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("h,nope\n1,2\n")
    with pytest.raises(ValidationError):
        read_csv(path)
    good_header = ",".join(CSV_COLUMNS)
    path.write_text(good_header + "\n1.0,2.0\n")
    with pytest.raises(ValidationError):
        read_csv(path)


def test_schrodinger_sweep_reaches_small_h():
    # the coupled pair down to h = 1e-5 (2.1M grid nodes at the last row)
    report = run_sweep(schrodinger_corpus(1e-3)[0], np.geomspace(1e-3, 1e-5, 5))
    assert [r.status for r in report.rows] == ["ok"] * 5
    attach_fits(report)
    assert abs(report.fits["t12"].exponent - 0.5) <= 0.03
