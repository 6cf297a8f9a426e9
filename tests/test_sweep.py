"""Sweep harness: power-law fitting, report assembly, verdicts, and the CSV
contract (byte-deterministic, lossless round trip)."""

import collections
import dataclasses
import math

import numpy as np
import pytest

from crossing_kit import normalform, schrodinger
from crossing_kit.errors import DegenerateFit, ValidationError
from crossing_kit.normalform import NormalFormProblem, model_corpus
from crossing_kit.profiles import Bump
from crossing_kit.schrodinger import SchrodingerProblem, WkbBasis, schrodinger_corpus
from crossing_kit.sweep import (
    CSV_COLUMNS,
    SweepReport,
    SweepRow,
    attach_fits,
    fit_power_law,
    read_csv,
    run_sweep,
    verify,
    write_csv,
)
from crossing_kit.transfer import TransferMatrix

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


@pytest.mark.parametrize(
    "corpus, expected",
    [
        (model_corpus, {"__post_init__": 1, "crossing_data": 1}),
        (
            schrodinger_corpus,
            {"__post_init__": 1, "build_crossing_data": 1, "__init__": 1},
        ),
    ],
    ids=["model", "schrodinger"],
)
def test_a_sweep_sets_its_problem_up_once(monkeypatch, corpus, expected):
    # the rows are with_h copies of the problem: it is validated once, and
    # its crossing data and the pair's WKB basis are built once, not per row
    base = corpus(1e-2)[0]
    calls = collections.Counter()
    for owner, name in (
        (NormalFormProblem, "__post_init__"),
        (SchrodingerProblem, "__post_init__"),
        (WkbBasis, "__init__"),
        (normalform, "crossing_data"),
        (schrodinger, "build_crossing_data"),
    ):

        def counted(*args, _run=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _run(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    prob = dataclasses.replace(base)
    report = run_sweep(prob, [1e-2, 5e-3, 2.5e-3, 1e-4])
    assert [r.status for r in report.rows] == ["ok"] * 4
    assert calls == expected


def test_report_rows_sorted_and_parallel_deterministic(tmp_path):
    # rows run serially; two runs of one grid write the same CSV bytes
    prob = model_corpus(1e-2)[0]
    hs = np.geomspace(1e-3, 1e-1, 4)  # deliberately increasing
    first = run_sweep(prob, hs)
    second = run_sweep(prob, hs)
    assert [r.h for r in first.rows] == sorted((float(h) for h in hs), reverse=True)
    p1, p2 = tmp_path / "first.csv", tmp_path / "second.csv"
    write_csv(first, p1)
    write_csv(second, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_rows_carry_small_errors_and_fits():
    prob = model_corpus(1e-2)[0]
    report = run_sweep(prob, np.geomspace(1e-1, 1e-3, 5))
    assert all(r.status == "ok" for r in report.rows)
    for r in report.rows:
        assert r.extracted.h == r.predicted.h == r.h
        ex, pr = r.extracted.entries, r.predicted.entries
        assert np.all(np.abs(ex - pr) < 0.5 * np.abs(pr))
    attach_fits(report, prob.order)
    assert abs(report.fits["t21"].exponent - 0.5) < 0.05


def test_deficit_envelope_follows_contact_order():
    # the remainder is O(h^(2/(m+1)) log(1/h)^[m=1]): the diagonal deficits
    # carry the log envelope at m = 1 only
    for index, m in ((0, 1), (1, 2)):
        prob = model_corpus(1e-2)[index]
        assert prob.order == m
        report = run_sweep(prob, np.geomspace(1e-1, 1e-3, 4))
        attach_fits(report, prob.order)
        for q in ("t11_deficit", "t22_deficit"):
            assert report.fits[q].with_log is (m == 1), (index, q)
        assert not report.fits["t12"].with_log and not report.fits["t21"].with_log


def test_zero_coupling_sweep_skips_fits():
    prob = dataclasses.replace(
        model_corpus(1e-2)[0], r1=Bump(1.0, 0.0), r2=Bump(1.0, 0.0)
    )
    report = run_sweep(prob, np.geomspace(1e-1, 1e-3, 4))
    assert all(max(r.abs_errors()) < 1e-8 for r in report.rows)
    attach_fits(report, prob.order)
    assert "t12" not in report.fits and "t21" not in report.fits


def test_failed_rows_recorded_not_raised(tmp_path):
    # every row's grid would exceed the node budget N_MAX: each extraction
    # is refused, and the sweep records it
    prob = model_corpus(1e-2)[0]
    report = run_sweep(prob, np.geomspace(1e-8, 1e-10, 4))
    assert all(r.status == "failed:ValidationError" for r in report.rows)
    assert all("n_max" in r.detail for r in report.rows)
    assert report.ok_rows() == []
    assert all(math.isnan(e) for r in report.rows for e in r.abs_errors())
    path = tmp_path / "failed.csv"
    write_csv(report, path)
    back = read_csv(path)
    assert [r.status for r in back.rows] == [r.status for r in report.rows]
    assert all(r.detail == "" for r in back.rows)


def test_verdicts_and_monotonicity():
    pts = [(h, 2.0 * h**0.52) for h in HS]
    report = SweepReport(rows=[])
    report.fits["t21"] = fit_power_law(pts)

    def reference(prefactor):
        # order 1: expected exponent 0.5, prefactor |t21| / h^0.5; t12 = 0
        # carries no signal and gets no verdict
        h = float(HS[0])
        return TransferMatrix([[1.0, 0.0], [prefactor * h**0.5, 1.0]], h=h)

    def exponent_passes(tol):
        verify(report, reference(2.0), 1, {"exponent": tol, "prefactor": 0.10})
        assert set(report.verdicts) == {"t21:exponent", "t21:prefactor"}
        return report.verdicts["t21:exponent"].passed

    tight, loose = exponent_passes(0.01), exponent_passes(0.05)
    assert not tight and loose
    # loosening a tolerance can only keep or gain passes
    for tol in (0.02, 0.03, 0.1, 0.5):
        assert exponent_passes(tol) >= tight
    tols = {"exponent": 0.05, "prefactor": 0.10}
    assert verify(report, reference(2.0), 1, tols)
    assert report.verdicts["t21:prefactor"].expected == pytest.approx(2.0)
    assert not verify(report, reference(2.5), 1, tols)
    assert not report.verdicts["t21:prefactor"].passed
    assert report.verdicts["t21:exponent"].passed


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
    # a non-numeric cell, named by its 1-based line
    row = ["abc"] + ["0.0"] * (len(CSV_COLUMNS) - 2) + ["ok"]
    path.write_text(good_header + "\n" + ",".join(row) + "\n")
    with pytest.raises(ValidationError, match="line 2"):
        read_csv(path)


def test_schrodinger_sweep_reaches_small_h():
    # the coupled pair down to h = 1e-5 (2.1M grid nodes at the last row)
    prob = schrodinger_corpus(1e-3)[0]
    report = run_sweep(prob, np.geomspace(1e-3, 1e-5, 5))
    assert [r.status for r in report.rows] == ["ok"] * 5
    attach_fits(report, prob.order)
    assert abs(report.fits["t12"].exponent - 0.5) <= 0.03
