"""Asymptotic verification harness.

Runs an h-sweep of extracted-vs-predicted transfer matrices, fits power
laws to the tracked entry magnitudes, and renders verdicts on the
off-diagonal exponents and prefactors. Reports serialize to a
fixed-format CSV that round-trips bit-exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import CrossingKitError, DegenerateFit, ValidationError
from .transfer import Problem, TransferMatrix

ENTRIES = TransferMatrix.ENTRIES
CSV_COLUMNS = (
    ["h"]
    + [f"ex_{e}_{p}" for e in ENTRIES for p in ("re", "im")]
    + [f"pr_{e}_{p}" for e in ENTRIES for p in ("re", "im")]
    + [f"abserr_{e}" for e in ENTRIES]
    + ["status"]
)
# the fitted quantities: off-diagonal magnitudes and diagonal deficits |T_jj - 1|
FITTED = ("t12", "t21", "t11_deficit", "t22_deficit")
# zero-signal floor: entries at or below it carry no fittable asymptotics
SIGNAL_FLOOR = 1e-13
# most points of an h grid: bounds a sweep's rows and threads
MAX_GRID_POINTS = 1000


@dataclass(frozen=True)
class SweepRow:
    h: float
    extracted: TransferMatrix | None
    predicted: TransferMatrix | None
    status: str = "ok"

    def abs_errors(self) -> tuple[float, ...]:
        """|extracted - predicted| per entry, in ``ENTRIES`` order."""
        if self.extracted is None or self.predicted is None:
            return (math.nan,) * 4
        return tuple(self.extracted.entrywise_abs_diff(self.predicted).flat)


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
        """(h, magnitude) pairs of one of ``FITTED`` over the ok rows.

        t12/t21 are entry magnitudes; t11_deficit/t22_deficit are the
        distances of a diagonal entry from 1.
        """
        if quantity not in FITTED:
            raise ValidationError(f"unknown sweep quantity {quantity!r}")
        shift = 1.0 if quantity.endswith("_deficit") else 0.0
        name = quantity.removesuffix("_deficit")
        return [(r.h, abs(getattr(r.extracted, name) - shift)) for r in self.ok_rows()]


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


def check_grid(h_values) -> tuple[float, ...]:
    """The h values as floats, if they make a sweep grid.

    A grid has 4 to ``MAX_GRID_POINTS`` values, each in (0, 1) (the
    log(1/h) envelope needs log(1/h) > 0), spanning at least 2 decades.
    """
    hs = tuple(float(h) for h in h_values)
    if not 4 <= len(hs) <= MAX_GRID_POINTS:
        raise ValidationError(
            f"needs 4 to {MAX_GRID_POINTS} grid points, got {len(hs)}"
        )
    if not all(0.0 < h < 1.0 for h in hs):
        raise ValidationError("h values must lie in (0, 1)")
    if math.log10(max(hs) / min(hs)) < 2.0 - 1e-9:
        raise ValidationError("grid must span at least 2 decades in h")
    return hs


def run_sweep(problem: Problem, h_values, jobs: int = 1) -> SweepReport:
    """Extract and predict the transfer matrix at each h of a grid.

    Per-row numerical failures are recorded in the row status rather than
    raised, so one bad h cannot take down a whole sweep. Rows are assembled
    in decreasing-h order regardless of execution order.
    """
    if not isinstance(problem, Problem):
        raise ValidationError(f"{problem!r} does not implement the Problem interface")
    hs = check_grid(h_values)

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


def attach_fits(report: SweepReport, order: int) -> None:
    """Fit every tracked quantity that carries signal.

    Off-diagonal magnitudes are fitted plain. The diagonal deficits follow
    the remainder O(h^(2/(m+1)) log(1/h)^[m=1]), so at contact order
    ``order`` = 1 they carry the log(1/h) envelope. Zero-signal quantities
    are skipped.
    """
    for q in FITTED:
        pts = report.magnitudes(q)
        if not pts or max(v for _, v in pts) <= SIGNAL_FLOOR:
            continue
        wl = order == 1 and q.endswith("_deficit")
        report.fits[q] = fit_power_law(pts, with_log=wl)


def verify(
    report: SweepReport, reference: TransferMatrix, order: int, tolerances: dict
) -> bool:
    """Check the off-diagonal fits against a prediction; True if all pass.

    ``reference`` is the predicted T at its own h, normally the largest h
    of the sweep. Each off-diagonal entry with signal in both the fit and
    the reference must grow like h^(1/(order+1)): the fitted exponent
    within ``tolerances["exponent"]`` (absolute), and the fitted amplitude
    within ``tolerances["prefactor"]`` (relative) of the h-independent
    prefactor |T_jk| / h^(1/(order+1)). The verdicts replace
    ``report.verdicts``.
    """
    expected = 1.0 / (order + 1)
    tol_e, tol_p = tolerances["exponent"], tolerances["prefactor"]
    verdicts = {}
    for q in ("t12", "t21"):
        magnitude = abs(getattr(reference, q))
        fit = report.fits.get(q)
        if fit is None or magnitude <= SIGNAL_FLOOR:
            continue
        prefactor = magnitude / reference.h**expected
        verdicts[f"{q}:exponent"] = Verdict(
            q, "exponent", expected, tol_e, fit.exponent,
            abs(fit.exponent - expected) <= tol_e,
        )
        verdicts[f"{q}:prefactor"] = Verdict(
            q, "prefactor", prefactor, tol_p, fit.amplitude,
            abs(fit.amplitude - prefactor) <= tol_p * abs(prefactor),
        )
    report.verdicts = verdicts
    return all(v.passed for v in verdicts.values())


def _fmt(x: float) -> str:
    # fixed 17-significant-digit scientific notation: byte deterministic
    # and lossless for binary64 round trips
    return f"{x:.16e}"


def write_csv(report: SweepReport, path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    missing = (complex("nan+nanj"),) * len(ENTRIES)
    for r in report.rows:
        cells = [_fmt(r.h)]
        for t in (r.extracted, r.predicted):
            for z in t.named().values() if t is not None else missing:
                cells.append(_fmt(z.real))
                cells.append(_fmt(z.imag))
        cells.extend(_fmt(e) for e in r.abs_errors())
        cells.append(r.status)
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> SweepReport:
    with open(path, encoding="utf-8") as fh:
        lines = [(k, ln.rstrip("\n")) for k, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or lines[0][1] != ",".join(CSV_COLUMNS):
        raise ValidationError("unrecognized sweep CSV header")
    rows = []
    for k, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValidationError(f"malformed sweep CSV row on line {k}")
        # h, then re/im of the extracted and the predicted entries
        try:
            h, *vals = (float(c) for c in cells[:17])
        except ValueError as exc:
            raise ValidationError(f"sweep CSV line {k}: {exc}") from None
        status = cells[-1]
        ex = pr = None
        if status == "ok":
            z = [complex(re, im) for re, im in zip(vals[::2], vals[1::2])]
            ex = TransferMatrix(np.reshape(z[:4], (2, 2)), h=h)
            pr = TransferMatrix(np.reshape(z[4:], (2, 2)), h=h)
        rows.append(SweepRow(h=h, extracted=ex, predicted=pr, status=status))
    return SweepReport(rows=rows)
