"""Asymptotic verification harness.

Runs a geometric h-sweep of extracted-vs-predicted transfer matrices,
fits power laws to the tracked entry magnitudes, and renders verdicts
against requested exponent/prefactor tolerances. Reports serialize to a
fixed-format CSV that round-trips bit-exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import CrossingKitError, DegenerateFit, ValidationError
from .transfer import Problem, TransferMatrix

TRACKED = ("t11", "t12", "t21", "t22")
CSV_COLUMNS = (
    ["h"]
    + [f"ex_{e}_{p}" for e in TRACKED for p in ("re", "im")]
    + [f"pr_{e}_{p}" for e in TRACKED for p in ("re", "im")]
    + [f"abserr_{e}" for e in TRACKED]
    + ["status"]
)
# zero-signal floor: entries at or below it carry no fittable asymptotics
SIGNAL_FLOOR = 1e-13


@dataclass(frozen=True)
class SweepRow:
    h: float
    extracted: TransferMatrix | None
    predicted: TransferMatrix | None
    status: str = "ok"

    def abs_errors(self) -> tuple[float, float, float, float]:
        if self.extracted is None or self.predicted is None:
            return (math.nan,) * 4
        d = self.extracted.entrywise_abs_diff(self.predicted)
        return (d[0][0], d[0][1], d[1][0], d[1][1])

    def rel_errors(self) -> tuple[float, float, float, float]:
        if self.extracted is None or self.predicted is None:
            return (math.nan,) * 4
        out = []
        for j in range(2):
            for k in range(2):
                p = abs(self.predicted.entries[j][k])
                d = abs(self.extracted.entries[j][k] - self.predicted.entries[j][k])
                out.append(d / p if p > 0 else math.inf)
        return tuple(out)


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    amplitude: float
    residual_rms: float
    with_log: bool
    npoints: int


@dataclass(frozen=True)
class Verdict:
    quantity: str
    kind: str
    expected: float
    tolerance: float
    observed: float
    passed: bool


@dataclass
class SweepReport:
    rows: list[SweepRow]
    fits: dict[str, PowerLawFit] = field(default_factory=dict)
    verdicts: dict[str, Verdict] = field(default_factory=dict)

    def __post_init__(self):
        self.rows = sorted(self.rows, key=lambda r: -r.h)

    def ok_rows(self) -> list[SweepRow]:
        return [r for r in self.rows if r.status == "ok"]

    def magnitudes(self, quantity: str) -> list[tuple[float, float]]:
        """(h, magnitude) pairs for a tracked quantity.

        Quantity is one of t12/t21 (entry magnitude) or t11_deficit /
        t22_deficit (distance of a diagonal entry from 1).
        """
        out = []
        for r in self.ok_rows():
            t = r.extracted
            if quantity == "t12":
                v = abs(t.t12)
            elif quantity == "t21":
                v = abs(t.t21)
            elif quantity == "t11_deficit":
                v = abs(t.t11 - 1.0)
            elif quantity == "t22_deficit":
                v = abs(t.t22 - 1.0)
            else:
                raise ValidationError(f"unknown sweep quantity {quantity!r}")
            out.append((r.h, v))
        return out


def fit_power_law(
    points: list[tuple[float, float]], with_log: bool = False
) -> PowerLawFit:
    """Least-squares fit of magnitude = amplitude * h^exponent.

    With ``with_log`` the model carries an extra fixed log(1/h) factor,
    matching remainder envelopes of the form h^e * log(1/h).
    """
    if len(points) < 3:
        raise ValidationError("power-law fit needs at least 3 points")
    h = np.array([p[0] for p in points], dtype=float)
    y = np.array([p[1] for p in points], dtype=float)
    if np.any(y <= 0.0) or not np.all(np.isfinite(y)):
        raise DegenerateFit("magnitudes must be positive and finite")
    lh = np.log(h)
    ly = np.log(y)
    if with_log:
        ly = ly - np.log(np.log(1.0 / h))
    design = np.vstack([lh, np.ones_like(lh)]).T
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ coef
    return PowerLawFit(
        exponent=float(coef[0]),
        amplitude=float(np.exp(coef[1])),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        with_log=with_log,
        npoints=len(points),
    )


def _solve_pair(problem: Problem, h: float):
    """(extracted, predicted) transfer matrices for one h."""
    prob_h = problem.with_h(h)
    predicted = prob_h.predict(1)
    extracted = prob_h.extract(1)
    return extracted, predicted


def run_sweep(problem: Problem, h_values, jobs: int = 1) -> SweepReport:
    """Extract and predict the transfer matrix at each h.

    Per-row numerical failures are recorded in the row status rather than
    raised, so one bad h cannot take down a whole sweep. Rows are assembled
    in decreasing-h order regardless of execution order.
    """
    if not isinstance(problem, Problem):
        raise ValidationError(f"{problem!r} does not implement the Problem interface")
    hs = [float(h) for h in h_values]
    if len(hs) < 4:
        raise ValidationError("sweep needs at least 4 h values")
    if max(hs) <= 0 or min(hs) <= 0:
        raise ValidationError("h values must be positive")
    if math.log10(max(hs) / min(hs)) < 2.0 - 1e-9:
        raise ValidationError("sweep must span at least 2 decades in h")

    def one(h: float) -> SweepRow:
        try:
            extracted, predicted = _solve_pair(problem, h)
            return SweepRow(h=h, extracted=extracted, predicted=predicted)
        except CrossingKitError as exc:
            return SweepRow(
                h=h,
                extracted=None,
                predicted=None,
                status=f"failed:{type(exc).__name__}",
            )

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(one, hs))
    else:
        rows = [one(h) for h in hs]
    return SweepReport(rows=rows)


def attach_fits(report: SweepReport, with_log_diag: bool = False) -> None:
    """Fit every tracked quantity that carries signal.

    Off-diagonal magnitudes are fitted plain; diagonal deficits optionally
    carry the log(1/h) envelope factor. Zero-signal quantities are skipped.
    """
    for q in ("t12", "t21", "t11_deficit", "t22_deficit"):
        pts = report.magnitudes(q)
        if not pts or max(v for _, v in pts) <= SIGNAL_FLOOR:
            continue
        wl = with_log_diag and q.endswith("_deficit")
        report.fits[q] = fit_power_law(pts, with_log=wl)


def check_exponent(
    report: SweepReport, quantity: str, expected: float, tolerance: float
) -> Verdict:
    fit = report.fits[quantity]
    v = Verdict(
        quantity=quantity,
        kind="exponent",
        expected=expected,
        tolerance=tolerance,
        observed=fit.exponent,
        passed=abs(fit.exponent - expected) <= tolerance,
    )
    report.verdicts[f"{quantity}:exponent"] = v
    return v


def check_prefactor(
    report: SweepReport, quantity: str, expected: float, rel_tolerance: float
) -> Verdict:
    fit = report.fits[quantity]
    v = Verdict(
        quantity=quantity,
        kind="prefactor",
        expected=expected,
        tolerance=rel_tolerance,
        observed=fit.amplitude,
        passed=abs(fit.amplitude - expected) <= rel_tolerance * abs(expected),
    )
    report.verdicts[f"{quantity}:prefactor"] = v
    return v


def _fmt(x: float) -> str:
    # fixed 17-significant-digit scientific notation: byte deterministic
    # and lossless for binary64 round trips
    return f"{x:.16e}"


def write_csv(report: SweepReport, path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for r in report.rows:
        cells = [_fmt(r.h)]
        for t in (r.extracted, r.predicted):
            for j in range(2):
                for k in range(2):
                    z = t.entries[j][k] if t is not None else complex("nan+nanj")
                    cells.append(_fmt(z.real))
                    cells.append(_fmt(z.imag))
        cells.extend(_fmt(e) for e in r.abs_errors())
        cells.append(r.status)
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> SweepReport:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValidationError("unrecognized sweep CSV header")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValidationError("malformed sweep CSV row")
        h = float(cells[0])
        status = cells[-1]
        vals = [float(c) for c in cells[1:9]]
        pred = [float(c) for c in cells[9:17]]
        if status == "ok":
            ex = TransferMatrix(
                [
                    [complex(vals[0], vals[1]), complex(vals[2], vals[3])],
                    [complex(vals[4], vals[5]), complex(vals[6], vals[7])],
                ],
                h=h,
                kind="extracted",
            )
            pr = TransferMatrix(
                [
                    [complex(pred[0], pred[1]), complex(pred[2], pred[3])],
                    [complex(pred[4], pred[5]), complex(pred[6], pred[7])],
                ],
                h=h,
                kind="predicted",
            )
        else:
            ex = pr = None
        rows.append(SweepRow(h=h, extracted=ex, predicted=pr, status=status))
    return SweepReport(rows=rows)
