"""Sweep harness: power-law fitting, report assembly, verdicts, and the CSV
contract (byte-deterministic, lossless round trip)."""

import collections
import dataclasses
import math

import numpy as np
import pytest

from crossing_kit import normalform, schrodinger, sweep
from crossing_kit.cli import _DEFAULT_GRIDS, _DEFAULT_TOLERANCES, _random_model_problem
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
    # data with a log(1/h) envelope: divided out of the magnitudes, the fit
    # recovers the exponent; left in, it reads a shallower slope
    pts = [(h, h ** (2.0 / 3.0) * math.log(1.0 / h)) for h in HS]
    fit = fit_power_law([(h, y / math.log(1.0 / h)) for h, y in pts])
    assert abs(fit.exponent - 2.0 / 3.0) < 1e-6
    assert abs(fit.amplitude - 1.0) < 1e-6
    assert fit_power_law(pts).exponent < 2.0 / 3.0 - 0.05
    # h beyond 1 is a valid point of the plain fit
    assert math.isfinite(fit_power_law([(2.0, 1.0), (0.5, 0.7), (0.1, 0.3)]).exponent)


def test_fit_refuses_h_that_is_not_finite_and_positive(capfd):
    # log(h) of such an h is -inf or NaN, which numpy's least squares met
    # with "SVD did not converge" and LAPACK lines on stderr: the fit
    # refuses the h before the logarithm, quietly
    for bad in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite and positive"):
            fit_power_law([(bad, 1.0), (0.5, 0.7), (0.1, 0.3)])
    assert capfd.readouterr() == ("", "")


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
    # one h has no slope through it
    with pytest.raises(DegenerateFit, match="two distinct h"):
        fit_power_law([(1e-2, 1.0), (1e-2, 0.5), (1e-2, 0.2)])


@pytest.mark.parametrize("envelope", [False, True])
def test_closed_form_fit_matches_least_squares(envelope):
    # the centred closed form against numpy's least squares on noisy data
    # over the default grids' h range, with or without a log(1/h) envelope
    # divided out of it: within 1e-12 (relative for the amplitude)
    rng = np.random.default_rng(11)
    for count in (3, 4, 12):
        h = np.geomspace(1e-1, 1e-5, count)
        y = 0.7 * h**0.5 * np.exp(rng.normal(0.0, 0.05, count))
        if envelope:
            y = y / np.log(1.0 / h)
        fit = fit_power_law(list(zip(h, y)))
        ly = np.log(y)
        design = np.vstack([np.log(h), np.ones(count)]).T
        (exponent, c), *_ = np.linalg.lstsq(design, ly, rcond=None)
        rms = np.sqrt(np.mean((ly - design @ (exponent, c)) ** 2))
        assert abs(fit.exponent - exponent) <= 1e-12
        assert abs(fit.amplitude / np.exp(c) - 1.0) <= 1e-12
        assert abs(fit.residual_rms - rms) <= 1e-12


def test_run_sweep_preconditions():
    prob = model_corpus()[0]
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
        (model_corpus, {"NormalFormProblem": 1, "crossing_data": 1}),
        (
            schrodinger_corpus,
            {
                "SchrodingerProblem": 1,
                "build_crossing_data": 1,
                "_NormalForm": 1,
                "WkbBasis": 1,
            },
        ),
    ],
    ids=["model", "schrodinger"],
)
def test_a_sweep_sets_its_problem_up_once(monkeypatch, corpus, expected):
    # the problem is h-free: it is validated once, and its crossing data,
    # and the pair's normal form with its WKB basis, are built once over a
    # 12-row sweep, not per row; the pair builds the crossing data of
    # branch 1 only
    base = corpus()[0]
    calls, crossings = collections.Counter(), []
    for owner, name, key in (
        (NormalFormProblem, "__post_init__", "NormalFormProblem"),
        (SchrodingerProblem, "__post_init__", "SchrodingerProblem"),
        (schrodinger._NormalForm, "__init__", "_NormalForm"),
        (WkbBasis, "__init__", "WkbBasis"),
        (normalform, "crossing_data", "crossing_data"),
        (schrodinger, "build_crossing_data", "build_crossing_data"),
    ):

        def counted(*args, _run=getattr(owner, name), _key=key, **kwargs):
            calls[_key] += 1
            if _key == "build_crossing_data":
                crossings.append(args[1])
            return _run(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    prob = dataclasses.replace(base)
    report = run_sweep(prob, np.geomspace(1e-2, 1e-4, 12))
    assert [r.status for r in report.rows] == ["ok"] * 12
    assert calls == expected
    assert crossings == ([1] if corpus is schrodinger_corpus else [])


@pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1e-3])
@pytest.mark.parametrize(
    "prob",
    [model_corpus()[0], schrodinger_corpus()[0]],
    ids=["model", "schrodinger"],
)
def test_an_h_that_is_not_finite_and_positive_is_refused(prob, h):
    # predict and extract of both families refuse it with ValidationError
    # before any work at that h: an infinite h reached the march's split
    # as a raw ValueError (math domain error), and predicted NaN entries.
    # No numpy warning is raised on the way (an error under this suite's
    # filter); a sweep row's solve refuses it the same way
    branches = (1, -1) if isinstance(prob, SchrodingerProblem) else (1,)
    for run in (prob.predict, prob.extract):
        for branch in branches:
            with pytest.raises(ValidationError, match="h must be finite and positive"):
                run(h, branch)
    with pytest.raises(ValidationError, match="h must be finite and positive"):
        sweep._solve_pair(prob, h)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_random_models_pass_on_the_default_grid(m):
    # seeded draws of the random-model family, seeds 0-9, on the default
    # model grid (12 h, 1e-3 .. 1e-5): every row is ok and both exponent
    # verdicts pass (m = 3 reads 0.237-0.245 against 0.25), and at m = 1
    # and 2 every verdict passes (largest relative prefactor miss 0.040).
    # At m = 3 the prefactor verdict is not asserted: the free fit's
    # amplitude extrapolates a small exponent misfit to h = 1, and seeds 2,
    # 3, 4 and 7 miss by 0.12-0.14, the defect that fails model-corpus 2
    # (ROADMAP, the prefactor check that uses the paper's remainder)
    start, stop, count = _DEFAULT_GRIDS["model"]
    for seed in range(10):
        prob = _random_model_problem(m, seed)
        report = run_sweep(prob, np.geomspace(start, stop, count))
        assert [r.status for r in report.rows] == ["ok"] * count, seed
        attach_fits(report)
        passed = verify(report, prob.order, _DEFAULT_TOLERANCES)
        verdicts = report.verdicts
        assert sorted(verdicts) == [
            f"{q}:{kind}" for q in ("t12", "t21") for kind in ("exponent", "prefactor")
        ]
        assert verdicts["t12:exponent"].passed and verdicts["t21:exponent"].passed, seed
        if m < 3:
            assert passed, (seed, verdicts)


def test_report_rows_sorted_and_parallel_deterministic(tmp_path):
    # rows run serially; two runs of one grid write the same CSV bytes
    prob = model_corpus()[0]
    hs = np.geomspace(1e-3, 1e-1, 4)  # deliberately increasing
    first = run_sweep(prob, hs)
    second = run_sweep(prob, hs)
    assert [r.h for r in first.rows] == sorted((float(h) for h in hs), reverse=True)
    p1, p2 = tmp_path / "first.csv", tmp_path / "second.csv"
    write_csv(first, p1)
    write_csv(second, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_rows_carry_small_errors_and_fits():
    prob = model_corpus()[0]
    report = run_sweep(prob, np.geomspace(1e-1, 1e-3, 5))
    assert all(r.status == "ok" for r in report.rows)
    for r in report.rows:
        assert r.extracted.h == r.predicted.h == r.h
        ex, pr = r.extracted.entries, r.predicted.entries
        assert np.all(np.abs(ex - pr) < 0.5 * np.abs(pr))
    attach_fits(report)
    assert abs(report.fits["t21"].exponent - 0.5) < 0.05


@pytest.mark.parametrize(
    "corpus, family",
    [(model_corpus, "model"), (schrodinger_corpus, "schrodinger")],
    ids=["model", "schrodinger"],
)
def test_deficit_fits_read_the_remainder_order(corpus, family):
    # on the default verify grid of corpus 0 (m = 1), the plain fit of
    # |T_jj - 1| reads the remainder's order 2/(m+1) = 1; no sweep fit
    # carries the log(1/h) envelope, which would read 1.11 and 1.15
    start, stop, count = _DEFAULT_GRIDS[family]
    report = run_sweep(corpus()[0], np.geomspace(start, stop, count))
    attach_fits(report)
    assert set(report.fits) == {"t12", "t21", "t11_deficit", "t22_deficit"}
    for q in ("t11_deficit", "t22_deficit"):
        assert abs(report.fits[q].exponent - 1.0) <= 0.01, q


def test_zero_coupling_sweep_skips_fits():
    prob = dataclasses.replace(
        model_corpus()[0], r1=Bump(1.0, 0.0), r2=Bump(1.0, 0.0)
    )
    report = run_sweep(prob, np.geomspace(1e-1, 1e-3, 4))
    assert all(max(r.abs_errors()) < 1e-8 for r in report.rows)
    attach_fits(report)
    assert "t12" not in report.fits and "t21" not in report.fits


def test_failed_rows_recorded_not_raised(tmp_path):
    # every row's split would exceed the level budget MAX_LEVELS (h near
    # the underflow limit): each extraction is refused, and the sweep
    # records it
    prob = model_corpus()[0]
    report = run_sweep(prob, np.geomspace(1e-200, 1e-300, 4))
    assert all(r.status == "failed:ValidationError" for r in report.rows)
    assert all("max_levels" in r.detail for r in report.rows)
    assert report.ok_rows() == []
    assert all(math.isnan(e) for r in report.rows for e in r.abs_errors())
    path = tmp_path / "failed.csv"
    write_csv(report, path)
    back = read_csv(path)
    assert [r.status for r in back.rows] == [r.status for r in report.rows]
    assert all(r.detail == "" for r in back.rows)


def _reference_row(h, prefactor, status="ok"):
    # order 1: expected exponent 0.5, prefactor |t21| / h^0.5; t12 = 0
    # carries no signal and gets no verdict. A failed row carries the
    # matrix too, so that only its status keeps it from being the reference
    t = TransferMatrix([[1.0, 0.0], [prefactor * h**0.5, 1.0]], h=h)
    return SweepRow(h=h, extracted=t, predicted=t, status=status)


def _fitted_report(rows):
    report = SweepReport(rows=rows)
    report.fits["t21"] = fit_power_law([(h, 2.0 * h**0.52) for h in HS])
    return report


def test_verdicts_and_monotonicity():
    # one row, whose prediction is the reference
    report = _fitted_report([_reference_row(float(HS[0]), 2.0)])

    def exponent_passes(tol):
        verify(report, 1, {"exponent": tol, "prefactor": 0.10})
        assert set(report.verdicts) == {"t21:exponent", "t21:prefactor"}
        return report.verdicts["t21:exponent"].passed

    tight, loose = exponent_passes(0.01), exponent_passes(0.05)
    assert not tight and loose
    # loosening a tolerance can only keep or gain passes
    for tol in (0.02, 0.03, 0.1, 0.5):
        assert exponent_passes(tol) >= tight
    tols = {"exponent": 0.05, "prefactor": 0.10}
    assert verify(report, 1, tols)
    assert report.verdicts["t21:prefactor"].expected == pytest.approx(2.0)
    report = _fitted_report([_reference_row(float(HS[0]), 2.5)])
    assert not verify(report, 1, tols)
    assert not report.verdicts["t21:prefactor"].passed
    assert report.verdicts["t21:exponent"].passed


def test_verify_reads_the_largest_h_ok_row():
    tols = {"exponent": 0.05, "prefactor": 0.10}
    # the largest-h row failed: the next ok row's prediction is the
    # reference, whatever the smaller-h rows predict
    rows = [
        _reference_row(0.2, 9.0, status="failed:StepFailure"),
        _reference_row(0.1, 2.0),
        _reference_row(0.01, 9.0),
    ]
    report = _fitted_report(rows)
    assert verify(report, 1, tols)
    assert report.verdicts["t21:prefactor"].expected == pytest.approx(2.0)
    # with no ok row there is no reference, so no verdict and no pass
    report = _fitted_report([_reference_row(h, 2.0, "failed:StepFailure") for h in HS])
    assert not verify(report, 1, tols)
    assert report.verdicts == {}


def test_csv_round_trip_bit_exact(tmp_path):
    prob = model_corpus()[0]
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
    prob = schrodinger_corpus()[0]
    report = run_sweep(prob, np.geomspace(1e-3, 1e-5, 5))
    assert [r.status for r in report.rows] == ["ok"] * 5
    attach_fits(report)
    assert abs(report.fits["t12"].exponent - 0.5) <= 0.03
