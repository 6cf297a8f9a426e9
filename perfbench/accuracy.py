"""Correctness gate and accuracy metrics of one ``verify`` run.

Both read only the artifacts ``verify`` writes: the sweep CSV (one header
line, one row per h, ``status`` last) and the JSON summary with its
``verdicts``. Columns are looked up by header name.
"""

from __future__ import annotations

import math

OFFDIAG = ("t12", "t21")


def parse_csv(text: str) -> list[dict[str, str]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty sweep CSV")
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"malformed sweep CSV row: {ln[:60]}")
        rows.append(dict(zip(header, cells)))
    return rows


def failed_rows(rows) -> list[str]:
    """h cells of the rows whose status is not ``ok``."""
    return [r["h"] for r in rows if r["status"] != "ok"]


def _entry(row, side: str, name: str) -> complex:
    return complex(float(row[f"{side}_{name}_re"]), float(row[f"{side}_{name}_im"]))


def accuracy_metrics(rows, summary: dict) -> dict[str, float]:
    """exponent_abserr, prefactor_relerr and offdiag_relerr_hmin.

    The first two are the largest misses of the fitted t12/t21 exponents
    (absolute) and prefactors (relative) in the summary's verdicts; the
    last is the largest |extracted - predicted| / |predicted| of t12/t21
    in the row with the smallest h.
    """
    exp_err = []
    pre_err = []
    for v in summary["verdicts"].values():
        if v["quantity"] not in OFFDIAG:
            continue
        if v["kind"] == "exponent":
            exp_err.append(abs(v["observed"] - v["expected"]))
        elif v["kind"] == "prefactor":
            pre_err.append(abs(v["observed"] - v["expected"]) / abs(v["expected"]))
    if not exp_err or not pre_err:
        raise ValueError("summary has no t12/t21 exponent and prefactor verdicts")
    hmin = min(rows, key=lambda r: float(r["h"]))
    rel = []
    for q in OFFDIAG:
        ex, pr = _entry(hmin, "ex", q), _entry(hmin, "pr", q)
        rel.append(abs(ex - pr) / abs(pr) if pr != 0 else math.inf)
    return {
        "exponent_abserr": max(exp_err),
        "prefactor_relerr": max(pre_err),
        "offdiag_relerr_hmin": max(rel),
    }
