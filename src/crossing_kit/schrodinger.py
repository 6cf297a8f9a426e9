"""Coupled semiclassical Schrodinger pair: prediction and numerical extraction
of the transfer matrices across the crossings of its characteristic curves.

The system on [x_in, x_out] is

    -h^2 u1'' + (V1 - E0) u1 + h W u2 = 0
    -h^2 u2'' + (V2 - E0) u2 + h W u1 = 0

with polynomial potentials satisfying (V2 - V1)^(j)(0) = 0 for j < n and
!= 0 at j = n. Two regimes are supported:

* case "i" (E0 > 0, no classical turning point on the interval): the
  characteristic curves xi^2 + V_j = E0 cross at (0, +-xi0), xi0 = sqrt(E0),
  with contact order n. Solutions are tracked in the oscillatory basis
  sigma_j e^{+-i phi_j / h} and the transfer matrix is both predicted from
  the crossing invariants and extracted by marching the normal form of the
  branch coefficients (below).
* case "ii" (E0 = 0, V_j(0) = 0, V_j'(0) != 0): the curves meet at the
  phase-space origin with contact order 2n. The origin is a turning point,
  so only the prediction and its symbol-level cross-checks are available;
  the oscillatory basis and the extraction refuse it with CaseMismatch.

The normal form. With p_j = phi_j', kappa_j = sigma_j''/sigma_j and
e_j = e^{i phi_j/h}, the four branch coefficients satisfy exactly

    a_j+' = r_j / e_j,   a_j-' = -e_j r_j,   r_j = C_j S_k - D_j S_j,

with S_j = a_j+ e_j + a_j- / e_j, C_j = W sigma_k / (2i sigma_j p_j) and
D_j = h kappa_j / (2i p_j) (k the other index). At the crossing (0, +xi0)
only the two + branches meet; the - branches oscillate against them at
the sum phase phi_j + phi_k. Averaging those out to first order (the
Bloch-Siegert step) leaves a_j+' = -D_j' a_j+ + C_j e^{i(phi_k - phi_j)/h}
a_k+ with D_j' = D_j + h C_j C_k / (i (p_j + p_k)), imaginary since
C_1 C_2 = -W^2 / (4 p_1 p_2). Writing a_j+ = c_j e^{i Theta_j/h} absorbs
the diagonal into the phase

    Theta_j = h^2 int_0^x (kappa_j / (2 p_j) - W^2 / (4 p_1 p_2 (p_1 + p_2))),

the second-order WKB phase Phi_j - phi_j plus the averaged coupling G,
common to both branches. With the constant flux scale s_j = sigma_j
sqrt(p_j), b_j = s_j c_j then solves the model's form

    b' = [[0, -i r e^{iF/h}], [-i r e^{-iF/h}, 0]] b,

with r = W / (2 sqrt(p_1 p_2)) and F = Phi_2 - Phi_1, so G never enters F:
F' = p_2 - p_1 + h^2 (kappa_2/p_2 - kappa_1/p_1) / 2, and F is its integral
from 0, which the march works out (phi_j and Theta_j are integrals from 0
by the same rule, ``march.integral``); p_2 - p_1 is formed as (V_1 - V_2)
/ (p_1 + p_2), the gap one polynomial, so that F' keeps its relative
accuracy near the crossing. This M is
skew-Hermitian, traceless and vanishes outside supp W, and the march's
panels resolve |F'| = |p_2 - p_1| + O(h^2) instead of the sum phase.
So its propagator U is in SU(2), and the - branches at (0, -xi0), the
conjugate system from x_out to x_in, need no march: theirs is U^T. The
extraction undoes s_j and Theta_j at the ends, so T stays in the
first-order WKB frame of the branch coefficients, the frame of the
prediction. The averaging costs O(h^{5/2}): T is within 6 h^{5/2} of the exact
four-coefficient march on both case-i corpus problems, both branches, at
h = 1e-2 .. 1e-3 (tests/pair_oracle.py holds that march).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import march
from .errors import CaseMismatch, ValidationError
from .profiles import Bump, Poly1
from .symbolcalc import (
    CrossingData,
    Poly2,
    crossing_data_from_symbols,
    transfer_predicted_general,
)
from .transfer import TransferMatrix, check_h

# Names perfbench/tracer.py wraps on this module and accepts None for:
# grid_for is removed, and the DOP853 reference solve with its right-hand
# side and branch decomposition lives in tests/ode_oracles.py.
grid_for = solve_ivp = branch_decompose = schrod_rhs = None

@dataclass(frozen=True)
class SchrodingerProblem:
    """Problem data for the coupled pair on [x_in, x_out], for every h.

    n is the exact vanishing order of V2 - V1 at 0 (``Poly1.zero_order``),
    and V2 - V1 must not vanish anywhere else on supp W, its ends included
    (``Poly1.vanishes_off_zero``): there the characteristic curves would
    meet a second time under the coupling, in either case. The coupling W
    must be supported strictly inside the interval so that branch
    coefficients can be read off in coupling-free zones near both ends.
    What does not depend on h, the normal form of case i and the crossing
    invariants of each crossing, is built once, when first asked for.
    """

    v1: Poly1
    v2: Poly1
    w: Bump
    e0: float
    n: int
    x_in: float
    x_out: float

    def __post_init__(self):
        if not (self.x_in < 0.0 < self.x_out):
            raise ValidationError("interval must satisfy x_in < 0 < x_out")
        if self.n < 1:
            raise ValidationError("n must be a positive integer")
        diff = self.v2 - self.v1
        if diff.zero_order != self.n:
            raise ValidationError(
                f"V2 - V1 must vanish at 0 to order exactly n={self.n}"
            )
        if self.w.amplitude != 0.0:
            lo, hi = self.w.support
            if not (self.x_in < lo and hi < self.x_out):
                raise ValidationError(
                    "support of W must lie strictly inside the interval"
                )
            if diff.vanishes_off_zero(lo, hi):
                raise ValidationError(
                    "V2 - V1 vanishes away from 0 on the support of W"
                )
        if self.e0 > 0.0:
            for name, v in (("V1", self.v1), ("V2", self.v2)):
                gap = (Poly1((self.e0,)) - v).range_on(self.x_in, self.x_out)[0]
                if gap <= 0.0:
                    raise ValidationError(
                        f"E0 - {name} must stay positive on the interval "
                        f"(classical turning point, min gap {gap:g})"
                    )
        elif self.e0 == 0.0:
            if self.v1(0.0) != 0.0:
                raise ValidationError("the zero-energy case needs V1(0) = 0")
            for name, v in (("V1", self.v1), ("V2", self.v2)):
                if v.deriv_at(1, 0.0) == 0.0:
                    raise ValidationError(
                        f"the zero-energy case needs {name}'(0) != 0"
                    )
        else:
            raise ValidationError("E0 must be nonnegative")

    @property
    def case(self) -> str:
        """"i" for E0 > 0 (crossings at +-xi0), "ii" for E0 = 0 (origin)."""
        return "i" if self.e0 > 0.0 else "ii"

    @property
    def xi0(self) -> float:
        return math.sqrt(self.e0)

    @property
    def interval(self) -> tuple[float, float]:
        return (self.x_in, self.x_out)

    def delta_n(self) -> float:
        """(V2 - V1)^(n)(0), the first nonvanishing difference derivative."""
        return math.factorial(self.n) * (self.v2 - self.v1).coeffs[self.n]

    @functools.cached_property
    def _form(self) -> "_NormalForm":
        return _NormalForm(self)

    @functools.cached_property
    def _crossing_data(self):
        """``build_crossing_data`` of this problem, once per crossing."""
        return functools.cache(lambda which: build_crossing_data(self, which))

    # -- the Problem interface used by the sweep and the CLI

    @property
    def order(self) -> int:
        """Contact order: n at the crossings +-xi0, 2n at the origin."""
        return self.n if self.case == "i" else 2 * self.n

    def predict(self, h: float, branch: int = 1) -> TransferMatrix:
        """T at h and (0, branch * xi0); the origin crossing ignores ``branch``."""
        if self.case == "ii":
            return predict_transfer_case_ii(self, h)
        return predict_transfer_case_i(self, h, branch)

    def extract(self, h: float, branch: int = 1) -> TransferMatrix:
        return numeric_transfer_case_i(self, h, branch)


class WkbBasis:
    """Oscillatory basis sigma_j e^{+-i phi_j / h} of the decoupled equations,
    evaluated for both branches at once: each method returns arrays of shape
    (2, *x.shape), row j - 1 for branch j. It holds V_1, V_2 and E0, not h.

    phi_j(x) = int_0^x sqrt(E0 - V_j), sigma_j = c_j (1 - V_j/E0)^(-1/4).
    The normalization c_j = (1 + V_j'(0)^2 / (4 E0))^(1/4) makes the
    conserved flux sigma_j^2 phi_j' equal to half the phase-space gradient
    norm of the symbol at the crossing, which is the convention under which
    the predicted transfer matrices apply to the branch coefficients.

    Branch coefficients are exact variation-of-parameters coefficients:
    u_j = a_j+ w_j+ + a_j- w_j- with w_j+- = sigma_j e^{+-i phi_j / h} and
    the gauge a_j+' w_j+ + a_j-' w_j- = 0, so that
    u_j' = a_j+ w_j+' + a_j- w_j-'.
    """

    def __init__(self, prob: SchrodingerProblem):
        if prob.case != "i":
            raise CaseMismatch(
                "the oscillatory basis needs E0 > 0 with no turning point"
            )
        self.v1, self.v2, self.e0 = prob.v1, prob.v2, prob.e0
        self.c = tuple(
            (1.0 + v.deriv_at(1, 0.0) ** 2 / (4.0 * prob.e0)) ** 0.25
            for v in (prob.v1, prob.v2)
        )
        # V_j, V_j' and V_j'' as the columns of one coefficient table, built
        # once: rates evaluates all six in one Horner pass
        v = (prob.v1, prob.v2)
        polys = [*v, *(vj.deriv(k) for k in (1, 2) for vj in v)]
        self.table = np.zeros((max(len(p.coeffs) for p in polys), len(polys)))
        for column, p in enumerate(polys):
            self.table[: len(p.coeffs), column] = p.coeffs

    def rates(self, x):
        """(q, p, sigma'/sigma, sigma''/sigma) at the points x: q_j = E0 - V_j
        and p_j = phi_j' = sqrt(q_j)."""
        x = np.asarray(x, dtype=float)
        table = self.table.reshape(self.table.shape + (1,) * x.ndim)
        # Horner's rule in the order of np.polynomial.polynomial.polyval
        values = table[-1] + x * 0.0
        for coeffs in table[-2::-1]:
            values = coeffs + values * x
        q = self.e0 - values[:2]
        dlog, kappa = _sigma_ratios(q, values[2:4], values[4:])
        return q, np.sqrt(q), dlog, kappa

    def amplitude(self, x):
        """(sigma_1, sigma_2) at x; sigma_j^2 phi_j' is constant on the interval."""
        ratio = np.array([self.v1(x), self.v2(x)]) / self.e0
        return np.reshape(self.c, (2,) + (1,) * np.ndim(x)) * (1.0 - ratio) ** -0.25

    def phase(self, x: float) -> np.ndarray:
        """(phi_1, phi_2) at the point x, by ``march.integral``. The
        integrand is analytic on the interval (no turning point), so a
        handful of panels per unit length reaches machine accuracy."""
        return march.integral(lambda y: self.rates(y)[1], 0.0, x)


def _sigma_ratios(q, slope, curvature):
    """(sigma'/sigma, sigma''/sigma) from q = E0 - V and V', V'' at x: as
    sigma ~ q^(-1/4), they are V'/(4q) and V''/(4q) + 5 V'^2/(16 q^2)."""
    slope = slope / q
    return 0.25 * slope, 0.25 * curvature / q + 0.3125 * slope * slope


class _NormalForm:
    """The h-free part of the pair's normal form (case i): the basis, the
    gap V_1 - V_2, the bounds of ``_system`` and ``theta``, the integrals
    at x_in and x_out whose h^2 multiples are the phases Theta_j (module
    docstring). A problem builds it once, at its first extraction."""

    def __init__(self, prob: SchrodingerProblem):
        self.basis = basis = WkbBasis(prob)

        def integrand(y):
            _, p, _, kappa = basis.rates(y)
            w2 = prob.w(y) ** 2
            return 0.5 * kappa / p - w2 / (4.0 * p[0] * p[1] * (p[0] + p[1]))

        self.theta = [march.integral(integrand, 0.0, x) for x in prob.interval]
        self.gap = prob.v1 - prob.v2
        q_low = [prob.e0 - v.range_on(*prob.interval)[1] for v in (prob.v1, prob.v2)]
        self.coupling = abs(prob.w.amplitude) / (2.0 * (q_low[0] * q_low[1]) ** 0.25)
        # |F^(n+1)(0)|: F' = (V_1 - V_2) / (p_1 + p_2) + O(h^2)
        p_zero = basis.rates(0.0)[1]
        self.stationary = abs(prob.delta_n()) / float(p_zero[0] + p_zero[1])


def _system(prob: SchrodingerProblem, h: float) -> march.System:
    """The normal form of the + branches at h for the march: rate F' and
    m1 = m2 = -i r, supported on supp W. The march takes the phase F as
    the integral of that same F' from 0, and finds M skew-Hermitian.

    F' is (V_1 - V_2) / (p_1 + p_2) plus h^2 (kappa_2/p_2 - kappa_1/p_1)
    / 2, the gap evaluated as one polynomial: p_2 - p_1 from q_2 - q_1, two
    numbers near E0, would lose its relative accuracy near the crossing.
    The coupling bound is max |W| over 2 sqrt(p_1 p_2) at the least p_j on
    the interval, and the stationary zone's width (h / |F^(n+1)(0)|)^(1/(n+1)).
    """
    check_h(h)
    form = prob._form
    basis = form.basis

    def local(x):
        _, p, _, kappa = basis.rates(x)
        rate = form.gap(x) / (p[0] + p[1]) + h * h * 0.5 * (
            kappa[1] / p[1] - kappa[0] / p[0]
        )
        m = -1j * prob.w(x) / (2.0 * np.sqrt(p[0] * p[1]))
        return rate, (m, m)

    return march.System(
        h=h,
        support=prob.w.support if prob.w.amplitude != 0.0 else None,
        zone=(h / form.stationary) ** (1.0 / (prob.n + 1)),
        coupling=form.coupling,
        local=local,
    )


def numeric_transfer_case_i(
    prob: SchrodingerProblem, h: float, which_sign: int = 1
) -> TransferMatrix:
    """Transfer matrix at h and (0, which_sign * xi0), extracted by one march.

    Unit data on the + branches marches from x_in to x_out in the normal
    form (module docstring) over supp W; with U its propagator,

        T_jk = e^{i Theta_j(x_out)/h} (s_k / s_j) U_jk e^{-i Theta_k(x_in)/h}.

    The - branches' propagator is U^T: (T_-)_jk = (T_+)_kj c_k^2 / c_j^2.
    """
    form = prob._form
    if which_sign not in (1, -1):
        raise ValidationError("which_sign must be +1 or -1")
    u = march.march(_system(prob, h), np.eye(2, dtype=complex), prob.x_in, prob.x_out).T
    # s_j = sigma_j sqrt(p_j) = c_j E0^{1/4}: the ratios are those of c_j
    scale = np.array(form.basis.c)
    out = np.exp(1j / h * (h**2 * form.theta[1])) / scale
    into = np.exp(-1j / h * (h**2 * form.theta[0])) * scale
    t = out[:, None] * u * into[None, :]
    if which_sign == -1:
        t = t.T * scale**2 / scale[:, None] ** 2
    return TransferMatrix(t, h=h)


def build_crossing_data(prob: SchrodingerProblem, which: int) -> CrossingData:
    """Crossing invariants at (0, which * xi0); which=0 is the origin case.

    The symbols xi^2 + V_j - E0 are recentred at the crossing exactly
    (binomial shift); the constant term, zero in exact arithmetic, is
    removed explicitly so a floating-point sqrt(E0) cannot break the
    vanishing precondition of the bracket analysis.
    """
    if which in (1, -1):
        if prob.case != "i":
            raise CaseMismatch("momentum +-xi0 crossings need E0 > 0")
        xi_c = which * prob.xi0
    elif which == 0:
        if prob.case != "ii":
            raise CaseMismatch("the origin crossing needs E0 = 0")
        xi_c = 0.0
    else:
        raise ValidationError("which must be +1, -1 or 0")
    symbols = []
    for v in (prob.v1, prob.v2):
        p = Poly2({(0, 2): 1.0}) + Poly2.from_x_poly(v.coeffs)
        p = (p - Poly2.const(prob.e0)).shift(0.0, xi_c)
        c00 = p.at_origin()
        if abs(c00) > 1e-9 * max(1.0, p.max_abs_coeff()):
            raise ValidationError(
                f"symbol does not vanish at the requested crossing ({c00:g})"
            )
        symbols.append(p - Poly2.const(c00))
    w0 = complex(prob.w(0.0))
    data = crossing_data_from_symbols(
        symbols[0], symbols[1], w0, w0, max_m=2 * prob.n + 2
    )
    expected = prob.n if which != 0 else 2 * prob.n
    if data.m != expected:
        raise ValidationError(
            f"contact order {data.m} does not match the expected {expected}"
        )
    return data


def predict_transfer_case_i(
    prob: SchrodingerProblem, h: float, which_sign: int = 1
) -> TransferMatrix:
    """Leading transfer matrix at (0, which_sign * xi0), from the invariants.

    With equal slopes |V1'(0)| = |V2'(0)| the off-diagonals are
    -i h^{1/(n+1)} W(0) (omega, conj(omega)), and at -xi0 the two amplitudes
    trade places; unequal slopes add the gradient-norm factor of the general
    formula. Diagonal entries are 1 up to a higher-order remainder.
    """
    if which_sign not in (1, -1):
        raise ValidationError("which_sign must be +1 or -1")
    return transfer_predicted_general(prob._crossing_data(which_sign), h)


def predict_transfer_case_ii(prob: SchrodingerProblem, h: float) -> TransferMatrix:
    """Leading transfer matrix at the zero-energy crossing, from the invariants.

    The off-diagonal amplitudes come out real and positive:

        omega_j = 2 (|V_k'(0)|/|V_j'(0)|
                     * (2n+1) n! / (|V_j'(0)|^n |delta_n|))^{1/(2n+1)}
                  * Gamma((2n+2)/(2n+1)) * cos(pi / (2(2n+1)))

    with k the other index and delta_n the first nonvanishing derivative
    of V2 - V1 at 0.
    """
    return transfer_predicted_general(prob._crossing_data(0), h)


# Reference problems: two positive-energy cases on [-1.2, 1.2]
# and one zero-energy case on [-0.9, 0.9]. The positive-energy entries use
# E0 = 1 and equal potential slopes at 0, where the invariant route reduces
# to the textbook closed-form amplitudes; the coupling width keeps its
# curvature at the crossing small so next-order corrections stay out of
# the asymptotic fits.
SCHRODINGER_CORPUS = tuple(
    dict(v1=Poly1(v1), v2=Poly1(v2), w=w, e0=e0, n=n, x_in=-x, x_out=x)
    for v1, v2, w, e0, n, x in (
        ((0.0, -0.25), (0.0, 0.25), Bump(0.8, 1.0), 1.0, 1, 1.2),
        ((0.0, 0.25), (0.0, 0.25, 0.4), Bump(0.8, 1.0), 1.0, 2, 1.2),
        ((0.0, -1.0), (0.0, -2.0), Bump(0.5, 1.0), 0.0, 1, 0.9),
    )
)


def schrodinger_corpus() -> list[SchrodingerProblem]:
    """The problems of ``SCHRODINGER_CORPUS``."""
    return [SchrodingerProblem(**fields) for fields in SCHRODINGER_CORPUS]
