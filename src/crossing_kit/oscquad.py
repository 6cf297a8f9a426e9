"""Oscillatory integrals with one interior stationary point of finite order.

Central objects: integrals of the form

    I(h) = integral a(y) exp(i F(y) / h) dy,   x0 < 0 < x1,

where F' vanishes at 0 to exact order m (F^(k)(0) = 0 for 1 <= k <= m,
F^(m+1)(0) != 0) and nowhere else on the range. The module provides the
closed-form leading term of I(h) as h -> 0, its numerical value (with no
error estimate), and the Gaussian pairing of grid samples (a GridFunction)
with e^{-x^2/(2h)}.

The leading term is

    2 mu_m(sgn(F^(m+1)(0)) pi / (2(m+1))) Gamma((m+2)/(m+1))
      ((m+1)! / |F^(m+1)(0)|)^(1/(m+1)) a(0) h^(1/(m+1)),

with mu_m the average of e^{i theta} and e^{i (-1)^{m+1} theta}: for odd m
the stationary point contributes a one-sided phase e^{i theta}, for even m
the two tails interfere to cos(theta). Checks: m=1, F = y^2/2 gives
sqrt(2 pi h) e^{i pi/4} (Fresnel); m=2, F = y^3/3 gives 2 pi Ai(0) h^{1/3}.

The numerical value is the reduced model of ``normalform`` with f = F',
r1 = a and r2 = 0. In the model's frame (u1, e^{-iF/h} u2) the column
that starts at (0, 1) keeps its second entry 1 and ends with first entry
-i I(h), so I(h) = i t12 of the model's extracted transfer matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, ValidationError
from .normalform import NormalFormProblem, transfer_numeric
from .profiles import ZERO_BUMP, Bump, Poly1
from .symbolcalc import stationary_prefactor
from .transfer import check_h, check_order

# The name of a removed kernel, which perfbench/tracer.py wraps on this
# module and accepts None for; nothing calls it.
cum_quad6 = None

__all__ = [
    "PhaseSpec",
    "osc_leading_term",
    "osc_integral_numeric",
    "GridFunction",
    "gaussian_pairing",
]


@dataclass(frozen=True)
class PhaseSpec:
    """Phase F with a single stationary point of exact order m at 0.

    ``func`` is the polynomial F, ``deriv(k, y)`` its k-th derivative at y.
    ``validate`` enforces F(0) = 0, that F' vanishes at 0 to the exact order
    m (``Poly1.zero_order``) and nowhere else on the working range
    (``Poly1.vanishes_off_zero``), as the model's f must.
    """

    func: Poly1
    m: int

    def __post_init__(self):
        check_order("m", self.m)

    def deriv(self, k: int, y: float) -> float:
        return self.func.deriv_at(k, y)

    @staticmethod
    def from_poly(poly: Poly1) -> "PhaseSpec":
        """Phase from a polynomial F; m is read off the coefficients."""
        if poly.coeffs[0] != 0.0:
            raise ValidationError("phase polynomial must satisfy F(0) = 0")
        lead = poly.zero_order
        if lead is None or lead < 2:
            raise ValidationError("phase polynomial must vanish to order >= 2 at 0")
        return PhaseSpec(func=poly, m=lead - 1)

    def validate(self, x0: float, x1: float) -> None:
        if not (x0 < 0.0 < x1):
            raise ValidationError("phase range must straddle the stationary point 0")
        # exact zeros, as from_poly and the model problem demand
        if float(self.func(np.array(0.0))) != 0.0:
            raise ValidationError("F(0) must be 0")
        rate = self.func.deriv(1)
        order = rate.zero_order
        if order is not None and order < self.m:
            raise ValidationError(f"F^({order + 1})(0) must vanish for order m={self.m}")
        if order != self.m:
            raise ValidationError(f"F^({self.m + 1})(0) must not vanish")
        if rate.vanishes_off_zero(x0, x1):
            raise ValidationError("F' vanishes away from 0 on the working range")


def osc_leading_term(phase: PhaseSpec, a0: complex, h: float) -> complex:
    """Closed-form leading term of the oscillatory integral as h -> 0."""
    check_h(h)
    m = phase.m
    c = phase.deriv(m + 1, 0.0)
    return stationary_prefactor(m, c) * a0 * h ** (1.0 / (m + 1))


def osc_integral_numeric(
    phase: PhaseSpec, amp: Bump, h: float, interval: tuple[float, float]
) -> complex:
    """The integral of amp e^{iF/h} over ``interval``, marched.

    The reduced model with f = F', r1 = amp and r2 = 0 carries the column
    (0, 1) to (-i I, 1), so I = i t12 of its ``transfer_numeric``: the
    panel march over the amplitude's support. An h or an amplitude whose
    panel split would need more than ``march.MAX_LEVELS`` levels, or more
    than ``march.MAX_PANELS`` panels within the Picard reach, is refused
    with ValidationError before any panel is judged, and the march's
    memory is bounded by ``march.CHUNK_BYTES``. As r1 of the model,
    ``amp`` must be supported strictly inside ``interval``, and h must be
    finite and positive (ValidationError otherwise).
    """
    x0, x1 = float(interval[0]), float(interval[1])
    phase.validate(x0, x1)
    prob = NormalFormProblem(
        f=phase.func.deriv(1), r1=amp, r2=ZERO_BUMP, x0=x0, x1=x1, m=phase.m
    )
    return complex(1j * transfer_numeric(prob, h).t12)


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
    check_h(h)
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
    # the trapezoid rule: the integrand is smooth and its ends are below
    # e^{-32} of its peak, so the rule is exact to rounding
    total = v.dx * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
    return complex(total / math.sqrt(2.0 * math.pi * h))
