"""Oscillatory integrals with one interior stationary point of finite order.

Central objects: integrals of the form

    I(h) = integral a(y) exp(i F(y) / h) dy,   x0 < 0 < x1,

where F' vanishes at 0 to exact order m (F^(k)(0) = 0 for 1 <= k <= m,
F^(m+1)(0) != 0) and nowhere else on the range. The module provides the
closed-form leading term of I(h) as h -> 0, its numerical value marched
by ``march`` (with no error estimate), and the Gaussian pairing of grid
samples (a GridFunction) used to normalize WKB data.

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
from typing import Callable

import numpy as np

from . import march
from ._kernels import cum_quad6
from .errors import GridTooCoarse, ValidationError
from .profiles import Bump, Poly1

__all__ = [
    "PhaseSpec",
    "AmplitudeSpec",
    "mu_m",
    "osc_leading_term",
    "osc_integral_numeric",
    "GridFunction",
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

    ``func`` is the polynomial F, ``deriv(k, y)`` its k-th derivative at y.
    ``validate`` enforces F(0) = 0, the vanishing pattern at 0, and F' != 0
    on a sample of the working range away from 0.
    """

    func: Poly1
    m: int

    def deriv(self, k: int, y: float) -> float:
        return self.func.deriv_at(k, y)

    @staticmethod
    def from_poly(poly: Poly1) -> "PhaseSpec":
        """Phase from a polynomial F; m is read off the coefficients."""
        coeffs = np.asarray(poly.coeffs, dtype=float)
        if coeffs[0] != 0.0:
            raise ValidationError("phase polynomial must satisfy F(0) = 0")
        lead = next((k for k in range(1, len(poly.coeffs)) if poly.coeffs[k] != 0.0), None)
        if lead is None or lead < 2:
            raise ValidationError("phase polynomial must vanish to order >= 2 at 0")
        return PhaseSpec(func=poly, m=lead - 1)

    @staticmethod
    def from_rate(rate: Poly1) -> "PhaseSpec":
        """Phase F(x) = integral_0^x rate, for a polynomial rate."""
        return PhaseSpec.from_poly(rate.antideriv())

    def validate(self, x0: float, x1: float) -> None:
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
        ys = np.linspace(x0, x1, 257)
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
    """Amplitude profile: a vectorised function of x, and the hull of the
    points where it may be nonzero (None: anywhere)."""

    func: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float] | None = None

    @staticmethod
    def from_bump(bump: Bump) -> "AmplitudeSpec":
        return AmplitudeSpec(func=bump, support=bump.support)

    @property
    def a0(self) -> complex:
        return complex(np.asarray(self.func(np.array(0.0))).item())


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


def osc_integral_numeric(
    phase: PhaseSpec, amp: AmplitudeSpec, h: float, interval: tuple[float, float]
) -> complex:
    """The oscillatory integral over ``interval``, marched.

    I(x) = integral_x0^x amp e^{iF/h} solves a' = M a for a = (I, 1) and
    M = [[0, amp e^{iF/h}], [0, 0]], so ``march`` computes it on its graded
    mesh (POINTS_PER_PERIOD nodes per local period of F') over the
    amplitude's support, with its node budget checked before any work and
    its memory bounded by CHUNK_BYTES. M is nilpotent: Picard settles in
    two sweeps per chunk.
    """
    x0, x1 = float(interval[0]), float(interval[1])
    phase.validate(x0, x1)
    if not (h > 0):
        raise ValidationError("h must be positive")
    rate = phase.func.deriv(1)

    def local(x):
        return rate(x)[None, :], np.asarray(amp.func(x), dtype=complex)

    def apply(coeffs, osc, back, a, out):
        np.multiply(coeffs, osc[0], out=out[:, 0])
        out[:, 0] *= a[:, 1]
        out[:, 1] = 0.0

    system = march.System(
        h=h,
        interval=(x0, x1),
        support=amp.support or (x0, x1),
        phases=lambda x: np.array([phase.func(x)]),
        rate_on=rate.abs_max_on,
        coupling=float(np.abs(amp.func(np.linspace(x0, x1, 513))).max()),
        local=local,
        apply=apply,
    )
    end = march.march(system, np.array([[0.0, 1.0]], dtype=complex), x0, x1)
    return complex(end[0, 0])


@dataclass
class GridFunction:
    """Complex samples ``values[k]`` at ``x0 + k*dx``, k = 0..n-1."""

    values: np.ndarray
    x0: float
    dx: float
    n: int

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.n,):
            raise ValidationError(
                f"values shape {self.values.shape} != (n,) = ({self.n},)"
            )
        if not (self.dx > 0):
            raise ValidationError("dx must be positive")

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def x1(self) -> float:
        return self.x0 + self.dx * (self.n - 1)

    def index_of(self, x: float) -> int:
        """Nearest grid index to x (clipped to the grid)."""
        k = int(round((x - self.x0) / self.dx))
        return min(max(k, 0), self.n - 1)


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
