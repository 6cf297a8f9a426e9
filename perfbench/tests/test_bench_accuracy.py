"""Accuracy metrics and row checks parsed from a small verify fixture."""

import math

import pytest

from accuracy import accuracy_metrics, failed_rows, parse_csv

TRACKED = ("t11", "t12", "t21", "t22")
HEADER = ",".join(
    ["h"]
    + [f"ex_{e}_{p}" for e in TRACKED for p in ("re", "im")]
    + [f"pr_{e}_{p}" for e in TRACKED for p in ("re", "im")]
    + [f"abserr_{e}" for e in TRACKED]
    + ["status"]
)


def _row(h, ex12, ex21, pr12, pr21, status="ok"):
    ex = [1.0, 0.0, ex12.real, ex12.imag, ex21.real, ex21.imag, 1.0, 0.0]
    pr = [1.0, 0.0, pr12.real, pr12.imag, pr21.real, pr21.imag, 1.0, 0.0]
    err = [0.0, abs(ex12 - pr12), abs(ex21 - pr21), 0.0]
    return ",".join(f"{x:.16e}" for x in [h] + ex + pr + err) + "," + status


CSV = "\n".join(
    [
        HEADER,
        _row(1e-2, 0.11j, -0.1j, 0.1j, -0.1j),
        # smallest h: t12 misses by 3 %, t21 by 4 % (0.0004 of 0.01)
        _row(1e-4, 0.0103j, -0.0096j, 0.01j, -0.01j),
        _row(1e-3, 0.03j, -0.03j, 0.03j, -0.03j),
    ]
) + "\n"

SUMMARY = {
    "verdicts": {
        "t12:exponent": {"quantity": "t12", "kind": "exponent", "expected": 0.5, "observed": 0.49},
        "t21:exponent": {"quantity": "t21", "kind": "exponent", "expected": 0.5, "observed": 0.53},
        "t12:prefactor": {"quantity": "t12", "kind": "prefactor", "expected": 2.0, "observed": 1.9},
        "t21:prefactor": {"quantity": "t21", "kind": "prefactor", "expected": 2.0, "observed": 2.02},
        # diagonal deficits are not off-diagonal verdicts and must be ignored
        "t11_deficit:exponent": {
            "quantity": "t11_deficit", "kind": "exponent", "expected": 1.0, "observed": 0.1,
        },
    }
}


def test_accuracy_metrics_from_fixture():
    m = accuracy_metrics(parse_csv(CSV), SUMMARY)
    assert m["exponent_abserr"] == pytest.approx(0.03)
    assert m["prefactor_relerr"] == pytest.approx(0.05)
    assert m["offdiag_relerr_hmin"] == pytest.approx(0.04)


def test_failed_rows_and_malformed_csv():
    bad = CSV.replace(",ok\n", ",failed:NotContractive\n", 1)
    assert failed_rows(parse_csv(CSV)) == []
    assert len(failed_rows(parse_csv(bad))) == 1
    with pytest.raises(ValueError):
        parse_csv(HEADER + "\n1.0,2.0,ok\n")


def test_missing_verdicts_are_an_error():
    with pytest.raises(ValueError):
        accuracy_metrics(parse_csv(CSV), {"verdicts": {}})
    assert math.isfinite(accuracy_metrics(parse_csv(CSV), SUMMARY)["offdiag_relerr_hmin"])
