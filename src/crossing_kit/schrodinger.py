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

with r = W / (2 sqrt(p_1 p_2)) and F = Phi_2 - Phi_1, so G never enters F.
This M is skew-Hermitian, traceless and vanishes outside supp W, and
its mesh resolves |F'| = |p_2 - p_1| + O(h^2) instead of the sum phase.
So its propagator U is in SU(2), and the - branches at (0, -xi0), the
conjugate system from x_out to x_in, need no march: theirs is U^T. The
extraction undoes s_j and Theta_j at the ends, so T stays in the
first-order WKB frame of the branch coefficients, the frame of the
prediction. The averaging costs O(h^{5/2}): T is within 6 h^{5/2} of the exact
four-coefficient march on both case-i corpus problems, both branches, at
h = 1e-2 .. 1e-3 (tests/pair_oracle.py holds that march).
"""

from __future__ import annotations

import dataclasses
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
from .transfer import TransferMatrix

# Names perfbench/tracer.py wraps on this module and accepts None for:
# grid_for is removed, and the DOP853 reference solve with its right-hand
# side and branch decomposition lives in tests/ode_oracles.py.
grid_for = solve_ivp = branch_decompose = schrod_rhs = None

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


@dataclass(frozen=True)
class SchrodingerProblem:
    """Problem data for the coupled pair on [x_in, x_out].

    n is the exact vanishing order of V2 - V1 at 0. The coupling W must be
    supported strictly inside the interval so that branch coefficients can
    be read off in coupling-free zones near both ends.
    """

    v1: Poly1
    v2: Poly1
    w: Bump
    e0: float
    n: int
    h: float
    x_in: float
    x_out: float

    def __post_init__(self):
        if not (self.x_in < 0.0 < self.x_out):
            raise ValidationError("interval must satisfy x_in < 0 < x_out")
        if not (self.h > 0):
            raise ValidationError("h must be positive")
        if self.n < 1:
            raise ValidationError("n must be a positive integer")
        diff = self.v2 - self.v1
        low = next((k for k, c in enumerate(diff.coeffs) if c != 0.0), None)
        if low != self.n:
            raise ValidationError(
                f"V2 - V1 must vanish at 0 to order exactly n={self.n}"
            )
        if self.w.amplitude != 0.0:
            lo, hi = self.w.support
            if not (self.x_in < lo and hi < self.x_out):
                raise ValidationError(
                    "support of W must lie strictly inside the interval"
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

    # -- the Problem interface used by the sweep and the CLI

    @property
    def order(self) -> int:
        """Contact order: n at the crossings +-xi0, 2n at the origin."""
        return self.n if self.case == "i" else 2 * self.n

    def with_h(self, h: float) -> "SchrodingerProblem":
        return dataclasses.replace(self, h=h)

    def predict(self, branch: int = 1) -> TransferMatrix:
        """T at (0, branch * xi0); the origin crossing ignores ``branch``."""
        if self.case == "ii":
            return predict_transfer_case_ii(self)
        return predict_transfer_case_i(self, branch)

    def extract(self, branch: int = 1) -> TransferMatrix:
        return numeric_transfer_case_i(self, branch)


class WkbBasis:
    """Oscillatory basis sigma_j e^{+-i phi_j / h} of the decoupled equations.

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
        self.prob = prob
        self.c = tuple(
            (1.0 + v.deriv_at(1, 0.0) ** 2 / (4.0 * prob.e0)) ** 0.25
            for v in (prob.v1, prob.v2)
        )
        # V_j' and V_j'', built once: the march evaluates them per chunk
        self.slopes = (prob.v1.deriv(1), prob.v2.deriv(1))
        self.curvatures = (prob.v1.deriv(2), prob.v2.deriv(2))

    def _potential(self, j: int) -> Poly1:
        if j not in (1, 2):
            raise ValidationError("equation index j must be 1 or 2")
        return self.prob.v1 if j == 1 else self.prob.v2

    def momentum(self, j: int, x):
        """phi_j'(x) = sqrt(E0 - V_j(x))."""
        return np.sqrt(self.prob.e0 - self._potential(j)(x))

    def phase(self, j: int, x):
        """phi_j(x), by composite 15-node Gauss-Legendre panels from 0.

        The integrand is analytic on the interval (no turning point), so a
        handful of panels per unit length reaches machine accuracy.
        """

        def one(xx: float) -> float:
            return float(_from_zero(lambda y: self.momentum(j, y), xx))

        arr = np.asarray(x, dtype=float)
        if arr.ndim == 0:
            return one(float(arr))
        return np.array([one(float(xx)) for xx in arr])

    def amplitude(self, j: int, x):
        """sigma_j(x); sigma_j^2 phi_j' is constant on the interval."""
        return self.c[j - 1] * (1.0 - self._potential(j)(x) / self.prob.e0) ** -0.25

    def amplitude_ratios(self, j: int, x):
        """(sigma_j'/sigma_j, sigma_j''/sigma_j) at x.

        With q = E0 - V_j, sigma_j is proportional to q^(-1/4), so
        sigma'/sigma = V'/(4q) and sigma''/sigma = V''/(4q) + 5 V'^2/(16 q^2).
        """
        q = self.prob.e0 - self._potential(j)(x)
        return _sigma_ratios(q, self.slopes[j - 1](x), self.curvatures[j - 1](x))


def _sigma_ratios(q, slope, curvature):
    """(sigma'/sigma, sigma''/sigma) from q = E0 - V and V', V'' at x."""
    slope = slope / q
    return 0.25 * slope, 0.25 * curvature / q + 0.3125 * slope * slope


def _from_zero(integrand, x: float):
    """int_0^x of ``integrand`` by composite 15-node Gauss-Legendre panels,
    at least four and eight per unit length. ``integrand`` maps an array
    of points to values whose last axes have its shape."""
    npan = max(4, math.ceil(abs(x) * 8))
    edges = np.linspace(0.0, x, npan + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    return (integrand(pts) @ _GL_WEIGHTS) @ half


def _rates(basis: WkbBasis, x):
    """q_j = E0 - V_j, p_j = phi_j' = sqrt(q_j) and kappa_j =
    sigma_j''/sigma_j at the points x, each of shape (2, *x.shape)."""
    prob = basis.prob
    q = prob.e0 - np.array([prob.v1(x), prob.v2(x)])
    _, kappa = _sigma_ratios(
        q,
        np.array([p(x) for p in basis.slopes]),
        np.array([p(x) for p in basis.curvatures]),
    )
    return q, np.sqrt(q), kappa


def _theta(basis: WkbBasis, x: float) -> np.ndarray:
    """(Theta_1, Theta_2) at x: the phases the normal form takes out of the
    branches beside phi_j (see the module docstring)."""
    prob = basis.prob

    def integrand(y):
        _, p, kappa = _rates(basis, y)
        return 0.5 * kappa / p - prob.w(y) ** 2 / (4.0 * p[0] * p[1] * (p[0] + p[1]))

    return prob.h**2 * _from_zero(integrand, x)


def _system(basis: WkbBasis) -> march.System:
    """The normal form of the + branches for the march: rate F',
    m1 = m2 = -i r, skew-Hermitian, supported on supp W.

    The rate bound on a piece is |V_1 - V_2| / (p_1 + p_2) with each p_j at
    its least on the piece, plus h^2 times a bound of |kappa_j| / (2 p_j)
    summed over j on the interval; the coupling bound is max |W| over
    2 sqrt(p_1 p_2) at the least p_j on the interval.
    """
    prob = basis.prob
    h, ends = prob.h, ([prob.x_in], [prob.x_out])
    low = [v.range_on(prob.x_in, prob.x_out) for v in (prob.v1, prob.v2)]
    # V_j - min V_j is nonnegative, so its largest modulus is its maximum
    rise = [v - Poly1((vmin,)) for v, (vmin, _) in zip((prob.v1, prob.v2), low)]
    q_low = [prob.e0 - vmax for _, vmax in low]
    drift = sum(
        _sigma_ratios(q, dv.abs_max_on(*ends)[0], ddv.abs_max_on(*ends)[0])[1]
        / (2.0 * math.sqrt(q))
        for dv, ddv, q in zip(basis.slopes, basis.curvatures, q_low)
    )
    gap = prob.v1 - prob.v2

    def rate_on(lo, hi):
        p_low = [
            np.sqrt(prob.e0 - vmin - d.abs_max_on(lo, hi))
            for (vmin, _), d in zip(low, rise)
        ]
        return gap.abs_max_on(lo, hi) / (p_low[0] + p_low[1]) + h * h * drift

    def local(x):
        q, p, kappa = _rates(basis, x)
        rate = (q[1] - q[0]) / (p[0] + p[1]) + h * h * 0.5 * (
            kappa[1] / p[1] - kappa[0] / p[0]
        )
        m = -1j * prob.w(x) / (2.0 * np.sqrt(p[0] * p[1]))
        return rate, (m, m)

    def phase(x):
        phi = np.array([basis.phase(j, x) for j in (1, 2)]) + _theta(basis, x)
        return float(phi[1] - phi[0])

    return march.System(
        h=h,
        interval=prob.interval,
        support=prob.w.support if prob.w.amplitude != 0.0 else None,
        phase=phase,
        rate_on=rate_on,
        coupling=abs(prob.w.amplitude) / (2.0 * (q_low[0] * q_low[1]) ** 0.25),
        local=local,
        skew_hermitian=True,
    )


def numeric_transfer_case_i(
    prob: SchrodingerProblem, which_sign: int = 1
) -> TransferMatrix:
    """Transfer matrix at (0, which_sign * xi0), extracted by one march.

    Unit data on the + branches marches from x_in to x_out in the normal
    form (module docstring) over supp W; with U its propagator,

        T_jk = e^{i Theta_j(x_out)/h} (s_k / s_j) U_jk e^{-i Theta_k(x_in)/h}.

    The - branches' propagator is U^T: (T_-)_jk = (T_+)_kj c_k^2 / c_j^2.
    """
    if prob.case != "i":
        raise CaseMismatch("numeric transfer extraction needs case i")
    if which_sign not in (1, -1):
        raise ValidationError("which_sign must be +1 or -1")
    basis = WkbBasis(prob)
    u = march.march(_system(basis), np.eye(2, dtype=complex), prob.x_in, prob.x_out).T
    # s_j = sigma_j sqrt(p_j) = c_j E0^{1/4}: the ratios are those of c_j
    scale = np.array(basis.c)
    out = np.exp(1j / prob.h * _theta(basis, prob.x_out)) / scale
    into = np.exp(-1j / prob.h * _theta(basis, prob.x_in)) * scale
    t = out[:, None] * u * into[None, :]
    if which_sign == -1:
        t = t.T * scale**2 / scale[:, None] ** 2
    return TransferMatrix(t, h=prob.h)


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
    prob: SchrodingerProblem, which_sign: int = 1
) -> TransferMatrix:
    """Leading transfer matrix at (0, which_sign * xi0), from the invariants.

    With equal slopes |V1'(0)| = |V2'(0)| the off-diagonals are
    -i h^{1/(n+1)} W(0) (omega, conj(omega)), and at -xi0 the two amplitudes
    trade places; unequal slopes add the gradient-norm factor of the general
    formula. Diagonal entries are 1 up to a higher-order remainder.
    """
    if which_sign not in (1, -1):
        raise ValidationError("which_sign must be +1 or -1")
    return transfer_predicted_general(build_crossing_data(prob, which_sign), prob.h)


def predict_transfer_case_ii(prob: SchrodingerProblem) -> TransferMatrix:
    """Leading transfer matrix at the zero-energy crossing, from the invariants.

    The off-diagonal amplitudes come out real and positive:

        omega_j = 2 (|V_k'(0)|/|V_j'(0)|
                     * (2n+1) n! / (|V_j'(0)|^n |delta_n|))^{1/(2n+1)}
                  * Gamma((2n+2)/(2n+1)) * cos(pi / (2(2n+1)))

    with k the other index and delta_n the first nonvanishing derivative
    of V2 - V1 at 0.
    """
    return transfer_predicted_general(build_crossing_data(prob, 0), prob.h)


def schrodinger_corpus(h: float) -> list[SchrodingerProblem]:
    """Reference problems: two positive-energy cases and one zero-energy case.

    The positive-energy entries use E0 = 1 and equal potential slopes at 0,
    where the invariant route reduces to the textbook closed-form
    amplitudes; the coupling width keeps its curvature at the crossing
    small so next-order corrections stay out of the asymptotic fits.
    """
    wide = Bump(width=0.8, amplitude=1.0)
    return [
        SchrodingerProblem(
            v1=Poly1((0.0, -0.25)),
            v2=Poly1((0.0, 0.25)),
            w=wide,
            e0=1.0,
            n=1,
            h=h,
            x_in=-1.2,
            x_out=1.2,
        ),
        SchrodingerProblem(
            v1=Poly1((0.0, 0.25)),
            v2=Poly1((0.0, 0.25, 0.4)),
            w=wide,
            e0=1.0,
            n=2,
            h=h,
            x_in=-1.2,
            x_out=1.2,
        ),
        SchrodingerProblem(
            v1=Poly1((0.0, -1.0)),
            v2=Poly1((0.0, -2.0)),
            w=Bump(width=0.5, amplitude=1.0),
            e0=0.0,
            n=1,
            h=h,
            x_in=-0.9,
            x_out=0.9,
        ),
    ]
