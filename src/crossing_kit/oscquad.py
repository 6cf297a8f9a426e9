"""Oscillatory integrals with one interior stationary point of finite order.

Central objects: integrals of the form

    I(h) = integral a(y) exp(i F(y) / h) dy,   x0 < 0 < x1,

where F' vanishes at 0 to exact order m (F^(k)(0) = 0 for 1 <= k <= m,
F^(m+1)(0) != 0) and nowhere else on the range. The module provides the
closed-form leading term of I(h) as h -> 0, an adaptive panel integrator
that evaluates I(h) numerically with an error estimate, and the Gaussian
pairing used to normalize WKB data.

The leading term is

    2 mu_m(sgn(F^(m+1)(0)) pi / (2(m+1))) Gamma((m+2)/(m+1))
      ((m+1)! / |F^(m+1)(0)|)^(1/(m+1)) a(0) h^(1/(m+1)),

with mu_m the average of e^{i theta} and e^{i (-1)^{m+1} theta}: for odd m
the stationary point contributes a one-sided phase e^{i theta}, for even m
the two tails interfere to cos(theta). Checks: m=1, F = y^2/2 gives
sqrt(2 pi h) e^{i pi/4} (Fresnel); m=2, F = y^3/3 gives 2 pi Ai(0) h^{1/3}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._kernels import cum_quad6
from .errors import BudgetExceeded, GridTooCoarse, ValidationError
from .grids import GridFunction
from .profiles import Bump, Poly1

__all__ = [
    "PhaseSpec",
    "AmplitudeSpec",
    "OscResult",
    "mu_m",
    "osc_leading_term",
    "osc_integral_numeric",
    "gaussian_pairing",
]


def mu_m(m: int, theta: float) -> complex:
    """Average of e^{i theta} and e^{i (-1)^{m+1} theta}.

    Equals e^{i theta} for odd m and cos(theta) for even m.
    """
    if m < 1 or m != int(m):
        raise ValidationError("mu_m needs an integer order m >= 1")
    return 0.5 * (np.exp(1j * theta) + np.exp(1j * ((-1) ** (m + 1)) * theta))


@dataclass(frozen=True)
class PhaseSpec:
    """Phase F with a single stationary point of exact order m at 0.

    ``func`` evaluates F (vectorized), ``deriv(k, y)`` its k-th derivative.
    ``validate`` enforces F(0) = 0, the vanishing pattern at 0, and F' != 0
    on a sample of the working range away from 0.
    """

    func: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[int, float], float]
    m: int

    @staticmethod
    def from_poly(poly: Poly1) -> "PhaseSpec":
        """Phase from a polynomial F; m is read off the coefficients."""
        coeffs = np.asarray(poly.coeffs, dtype=float)
        if coeffs[0] != 0.0:
            raise ValidationError("phase polynomial must satisfy F(0) = 0")
        lead = next((k for k in range(1, len(poly.coeffs)) if poly.coeffs[k] != 0.0), None)
        if lead is None or lead < 2:
            raise ValidationError("phase polynomial must vanish to order >= 2 at 0")
        return PhaseSpec(func=poly, deriv=poly.deriv_at, m=lead - 1)

    @staticmethod
    def from_rate(rate: Poly1) -> "PhaseSpec":
        """Phase F(x) = integral_0^x rate, for a polynomial rate."""
        return PhaseSpec.from_poly(rate.antideriv())

    def validate(self, x0: float, x1: float, samples: int = 257) -> None:
        if not (x0 < 0.0 < x1):
            raise ValidationError("phase range must straddle the stationary point 0")
        c = self.deriv(self.m + 1, 0.0)
        scale = max(abs(c), 1.0)
        if abs(float(self.func(np.array(0.0)))) > 1e-10 * scale:
            raise ValidationError("F(0) must be 0")
        for k in range(1, self.m + 1):
            if abs(self.deriv(k, 0.0)) > 1e-10 * scale:
                raise ValidationError(f"F^({k})(0) must vanish for order m={self.m}")
        if abs(c) <= 1e-10 * scale:
            raise ValidationError(f"F^({self.m + 1})(0) must not vanish")
        ys = np.linspace(x0, x1, samples)
        ys = ys[np.abs(ys) > 1e-3 * max(-x0, x1)]
        dF = np.array([self.deriv(1, float(y)) for y in ys])
        if np.any(dF == 0.0):
            raise ValidationError("F' vanishes away from 0 on the working range")
        for side in (ys < 0, ys > 0):
            s = np.sign(dF[side])
            if s.size and np.any(s != s[0]):
                raise ValidationError("F' changes sign away from 0 on the working range")


@dataclass(frozen=True)
class AmplitudeSpec:
    """Amplitude profile: a vectorised function of x."""

    func: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def from_bump(bump: Bump) -> "AmplitudeSpec":
        return AmplitudeSpec(func=bump)

    @property
    def a0(self) -> complex:
        return complex(np.asarray(self.func(np.array(0.0))).item())


class OscResult(NamedTuple):
    value: complex
    error: float
    evals: int


def stationary_prefactor(m: int, curvature: float) -> complex:
    """h-free coefficient of the degenerate stationary point contribution.

    ``curvature`` is F^(m+1)(0), the first nonvanishing derivative of the
    phase at the stationary point. The full leading term is this value
    times a(0) * h^(1/(m+1)).
    """
    if curvature == 0.0:
        raise ValidationError("F^(m+1)(0) must not vanish")
    theta = math.copysign(math.pi / (2 * (m + 1)), curvature)
    amp = (math.factorial(m + 1) / abs(curvature)) ** (1.0 / (m + 1))
    return 2.0 * mu_m(m, theta) * math.gamma((m + 2) / (m + 1)) * amp


def osc_leading_term(phase: PhaseSpec, a0: complex, h: float) -> complex:
    """Closed-form leading term of the oscillatory integral as h -> 0."""
    if not (h > 0):
        raise ValidationError("h must be positive")
    m = phase.m
    c = phase.deriv(m + 1, 0.0)
    return stationary_prefactor(m, c) * a0 * h ** (1.0 / (m + 1))


_GL15_NODES, _GL15_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _panel_values(phase, amp, h, lo, hi, evals_box):
    """GL15 value of the integral on each [lo_i, hi_i] panel (vectorized)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _GL15_NODES[None, :]
    flat = nodes.ravel()
    fa = np.asarray(amp.func(flat), dtype=complex) * np.exp(
        1j * np.asarray(phase.func(flat), dtype=float) / h
    )
    evals_box[0] += flat.size
    return (fa.reshape(nodes.shape) @ _GL15_WEIGHTS) * half, np.abs(fa).reshape(
        nodes.shape
    ).max(axis=1)


def osc_integral_numeric(
    phase: PhaseSpec,
    amp: AmplitudeSpec,
    h: float,
    interval: tuple[float, float],
    abs_tol: float | None = None,
    max_evals: int = 20_000_000,
) -> OscResult:
    """Adaptive panel evaluation of the oscillatory integral.

    The interval is first split at the stationary point, then bisected until
    each panel spans at most pi of phase (F is monotone on each side, so the
    endpoint values bound the span exactly); a 15-node panel thus carries
    ~30 samples per local period. Panels are then recursively halved until
    the parent/children discrepancy meets a width-proportional share of the
    tolerance. Raises BudgetExceeded when the total number of integrand
    evaluations would pass ``max_evals``.
    """
    x0, x1 = float(interval[0]), float(interval[1])
    phase.validate(x0, x1)
    if not (h > 0):
        raise ValidationError("h must be positive")
    width_total = x1 - x0
    if abs_tol is None:
        probe = np.abs(np.asarray(amp.func(np.linspace(x0, x1, 513)), dtype=complex))
        abs_tol = max(1e-10, 1e-8 * float(probe.max()) * width_total)
    evals_box = [0]

    # initial partition: split at 0, then bisect to <= pi phase per panel
    lo = np.array([x0, 0.0])
    hi = np.array([0.0, x1])
    flo = np.asarray(phase.func(lo), dtype=float)
    fhi = np.asarray(phase.func(hi), dtype=float)
    done_lo, done_hi = [], []
    while lo.size:
        span = np.abs(fhi - flo) / h
        ok = span <= np.pi
        done_lo.append(lo[ok])
        done_hi.append(hi[ok])
        lo, hi, flo, fhi = lo[~ok], hi[~ok], flo[~ok], fhi[~ok]
        if not lo.size:
            break
        mid = 0.5 * (lo + hi)
        fmid = np.asarray(phase.func(mid), dtype=float)
        evals_box[0] += mid.size
        lo = np.concatenate([lo, mid])
        hi = np.concatenate([mid, hi])
        flo = np.concatenate([flo, fmid])
        fhi = np.concatenate([fmid, fhi])
        if evals_box[0] + 45 * (lo.size + sum(a.size for a in done_lo)) > max_evals:
            raise BudgetExceeded(
                f"oscillatory panel partition needs more than {max_evals} evaluations"
            )
    lo = np.concatenate(done_lo)
    hi = np.concatenate(done_hi)

    vals, _ = _panel_values(phase, amp, h, lo, hi, evals_box)
    total = 0.0 + 0.0j
    err_total = 0.0
    for _ in range(60):
        if not lo.size:
            break
        if evals_box[0] + 30 * lo.size > max_evals:
            raise BudgetExceeded(
                f"oscillatory refinement needs more than {max_evals} evaluations"
            )
        mid = 0.5 * (lo + hi)
        lv, lmax = _panel_values(phase, amp, h, lo, mid, evals_box)
        rv, rmax = _panel_values(phase, amp, h, mid, hi, evals_box)
        child_sum = lv + rv
        err = np.abs(vals - child_sum)
        ptol = abs_tol * (hi - lo) / width_total
        floor = 4e-16 * (hi - lo) * np.maximum(lmax, rmax)
        acc = err <= np.maximum(0.5 * ptol, floor)
        total += child_sum[acc].sum()
        err_total += err[acc].sum()
        keep = ~acc
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        vals = np.concatenate([lv[keep], rv[keep]])
    else:
        raise BudgetExceeded("oscillatory refinement did not settle in 60 rounds")
    return OscResult(complex(total), float(err_total), evals_box[0])


def gaussian_pairing(v: GridFunction, h: float) -> complex:
    """(2 pi h)^{-1/2} integral e^{-x^2/(2h)} v(x) dx from grid samples.

    The Gaussian weight confines the integral to [-8 sqrt(h), 8 sqrt(h)]
    (tails below e^{-32}); the grid must cover that window, resolve the
    Gaussian scale, and resolve v's own oscillation. For v = e^{i lambda
    x^2/(2h)} the exact value is (1 - i lambda)^(-1/2).
    """
    if not (h > 0):
        raise ValidationError("h must be positive")
    half = 8.0 * math.sqrt(h)
    if v.x0 > -half or v.x1 < half:
        raise GridTooCoarse(
            f"grid [{v.x0:g}, {v.x1:g}] does not cover [-{half:g}, {half:g}]"
        )
    if v.dx > math.sqrt(h) / 6.0:
        raise GridTooCoarse(
            f"dx={v.dx:g} does not resolve the Gaussian scale sqrt(h)={math.sqrt(h):g}"
        )
    sl = slice(v.index_of(-half), v.index_of(half) + 1)
    vals = v.values[sl]
    mag = np.abs(vals)
    big = mag > 0.1 * mag.max()
    if big.sum() > 2:
        w = vals[big]
        dphi = np.abs(np.angle(w[1:] * np.conj(w[:-1])))
        if dphi.max() > 2.0 * np.pi / 16.0:
            raise GridTooCoarse(
                "sampled data oscillates faster than 16 points per period"
            )
    x = v.x[sl]
    integrand = np.exp(-(x**2) / (2.0 * h)) * vals
    total = cum_quad6(integrand, v.dx)[-1]
    return complex(total / math.sqrt(2.0 * math.pi * h))
