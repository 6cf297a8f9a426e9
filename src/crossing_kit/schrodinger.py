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
  the crossing invariants and extracted by marching the branch
  coefficients through the first-order system they satisfy exactly.
* case "ii" (E0 = 0, V_j(0) = 0, V_j'(0) != 0): the curves meet at the
  phase-space origin with contact order 2n. The origin is a turning point,
  so only the prediction and its symbol-level cross-checks are available;
  the oscillatory basis and the extraction refuse it with CaseMismatch.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import march
from ._kernels import schrod_rhs
from .errors import CaseMismatch, IllConditioned, StepFailure, ValidationError
from .profiles import Bump, Poly1
from .symbolcalc import (
    CrossingData,
    Poly2,
    crossing_data_from_symbols,
    transfer_predicted_general,
)
from .transfer import TransferMatrix

# Names perfbench/tracer.py wraps on this module and accepts None for:
# grid_for is removed, and solve_ivp is imported where it is called, by
# _integrate, so that importing this module does not load scipy.integrate.
grid_for = solve_ivp = None

ODE_TOL = 1e-11  # DOP853 tolerance of the reference solve `_integrate`

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
        v = self._potential(j)
        e0 = self.prob.e0

        def one(xx: float) -> float:
            if xx == 0.0:
                return 0.0
            npan = max(4, math.ceil(abs(xx) * 8))
            edges = np.linspace(0.0, xx, npan + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1:] - edges[:-1])
            pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
            vals = np.sqrt(e0 - v(pts))
            return float((vals @ _GL_WEIGHTS) @ half)

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
        v = self._potential(j)
        q = self.prob.e0 - v(x)
        slope = v.deriv(1)(x) / q
        return 0.25 * slope, 0.25 * v.deriv(2)(x) / q + 0.3125 * slope * slope

    def synthesize(self, coeffs, x: float) -> np.ndarray:
        """State vector (u1, u1', u2, u2') with branch coefficients ``coeffs``.

        coeffs = (a1_plus, a1_minus, a2_plus, a2_minus), in the exact
        convention: u_j' = a_j+ w_j+' + a_j- w_j-'.
        """
        a = [complex(c) for c in coeffs]
        h = self.prob.h
        out = np.empty(4, dtype=complex)
        for j in (1, 2):
            ap, am = a[2 * j - 2], a[2 * j - 1]
            sig = float(self.amplitude(j, x))
            rate = float(self.momentum(j, x))
            dlog = float(self.amplitude_ratios(j, x)[0])
            osc = np.exp(1j * self.phase(j, x) / h)
            out[2 * j - 2] = sig * (ap * osc + am * np.conj(osc))
            out[2 * j - 1] = dlog * out[2 * j - 2] + (1j * rate / h) * sig * (
                ap * osc - am * np.conj(osc)
            )
        return out


def branch_decompose(basis: WkbBasis, j: int, x, u, hdu):
    """Branch coefficients (a_plus, a_minus) of equation j at points x.

    Inverts ``synthesize``: solves [u; h u'] = B(x) [a_plus; a_minus] with
    the exact basis and its derivative. The determinant of B is the
    x-independent flux 2 sigma_j^2 phi_j', so conditioning is uniform.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=complex)
    hdu = np.asarray(hdu, dtype=complex)
    rate = np.asarray(basis.momentum(j, x), dtype=float)
    sig = np.asarray(basis.amplitude(j, x), dtype=float)
    if np.min(2.0 * sig**2 * rate) < 1e-8:
        raise IllConditioned(
            "branch matrix nearly singular (turning point too close)"
        )
    # h u' less its amplitude part is the phase part i phi' sigma (a+ e - a- e*)
    hdu = hdu - basis.prob.h * basis.amplitude_ratios(j, x)[0] * u
    osc = np.exp(1j * np.asarray(basis.phase(j, x)) / basis.prob.h)
    a_plus = (u - 1j * hdu / rate) / (2.0 * sig * osc)
    a_minus = (u + 1j * hdu / rate) / (2.0 * sig * np.conj(osc))
    return a_plus, a_minus


def _rhs_args(prob: SchrodingerProblem):
    return (
        np.asarray(prob.v1.coeffs, dtype=float),
        np.asarray(prob.v2.coeffs, dtype=float),
        prob.w.kernel_params(),
        prob.e0,
        prob.h,
    )


def _integrate(
    basis: WkbBasis, coeffs, x_from: float, x_to: float, t_eval, tol=ODE_TOL
) -> np.ndarray:
    """DOP853 reference solve, kept as the test oracle of the march.

    ``coeffs`` = (a1_plus, a1_minus, a2_plus, a2_minus) is synthesized into
    the state (u1, u1', u2, u2') at x_from, which DOP853 carries to x_to.
    Returns the state sampled at ``t_eval``, ordered from x_from.
    """
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        schrod_rhs,
        (x_from, x_to),
        basis.synthesize(coeffs, x_from),
        method="DOP853",
        t_eval=t_eval,
        rtol=tol,
        atol=tol,
        args=_rhs_args(basis.prob),
    )
    if not sol.success:
        raise StepFailure(f"adaptive integrator failed: {sol.message}")
    return sol.y


def _max_rate(prob: SchrodingerProblem) -> float:
    """max phi_j' = sqrt(E0 - V_j) over the interval: the fastest phase rate."""
    lowest = min(v.range_on(prob.x_in, prob.x_out)[0] for v in (prob.v1, prob.v2))
    return math.sqrt(prob.e0 - lowest)


def _coefficients(basis: WkbBasis, x: np.ndarray, w):
    """Rates p_j and the coefficients C_j, D_j of a' = M a at the nodes x.

    Per equation j (k the other one), with S_j = a_j+ e_j + a_j- / e_j and
    e_j = e^{i phi_j / h}:  a_j+' = r_j / e_j,  a_j-' = -e_j r_j,  where
    r_j = C_j S_k - D_j S_j,  C_j = W sigma_k / (2i sigma_j p_j)  and
    D_j = h (sigma_j'' / sigma_j) / (2i p_j). ``w`` is W at the nodes.
    Arrays have shape (2, len(x)).
    """
    rate = np.array([basis.momentum(j, x) for j in (1, 2)])
    sig = np.array([basis.amplitude(j, x) for j in (1, 2)])
    curv = np.array([basis.amplitude_ratios(j, x)[1] for j in (1, 2)])
    cross = w * sig[::-1] / (2j * sig * rate)
    self_ = basis.prob.h * curv / (2j * rate)
    return rate, cross, self_


def _apply(coeffs, osc, back, a, out):
    """M a into ``out`` for the branch coefficients a = (a1+, a1-, a2+, a2-)
    per column.

    Per column, the + and - halves of ``out`` hold s_j = u_j / sigma_j and
    r_j until they are overwritten by a_j+' = r_j / e_j and
    a_j-' = -e_j r_j. The loop over columns keeps every operand two-
    dimensional, which numpy runs without buffers.
    """
    cross, self_ = coeffs
    for col, da in zip(a, out):
        s, r = da[0::2], da[1::2]
        np.multiply(col[0::2], osc, out=s)
        np.multiply(col[1::2], back, out=r)
        s += r
        np.multiply(cross, s[::-1], out=r)
        np.multiply(self_, s, out=s)
        r -= s
        np.multiply(back, r, out=s)
        np.negative(r, out=r)
        np.multiply(osc, r, out=r)  # osc (-r) is (-osc) r, bit for bit


def _system(basis: WkbBasis) -> march.System:
    """The pair's a' = M a for the march.

    M carries e^{+-i (phi_j +- phi_k)/h}, so the mesh resolves 2 max p_j.
    The row sums of |M| are 2 (|C_j| + |D_j|), bounded with |W| at its
    peak everywhere.
    """
    prob = basis.prob
    x = np.linspace(prob.x_in, prob.x_out, 1025)
    _, peak_cross, peak_self = _coefficients(basis, x, abs(prob.w.amplitude))

    def local(nodes):
        rate, cross, self_ = _coefficients(basis, nodes, prob.w(nodes))
        return rate, (cross, self_)

    return march.System(
        h=prob.h,
        interval=prob.interval,
        fastest=2.0 * _max_rate(prob),
        coupling=2.0 * float(np.max(np.abs(peak_cross) + np.abs(peak_self))),
        local=local,
        apply=_apply,
    )


def numeric_transfer_case_i(
    prob: SchrodingerProblem, which_sign: int = 1
) -> TransferMatrix:
    """Transfer matrix at (0, which_sign * xi0), extracted by one march.

    which_sign=+1: the + branches move rightward, so unit data on them at
    x_in is marched to x_out, where the + coefficients are read.
    which_sign=-1: unit data on the - branches at x_out is marched to x_in,
    where the - coefficients are read. Both input columns march together.
    """
    if prob.case != "i":
        raise CaseMismatch("numeric transfer extraction needs case i")
    if which_sign not in (1, -1):
        raise ValidationError("which_sign must be +1 or -1")
    start, end = (prob.x_in, prob.x_out)[::which_sign]
    slot = (1 - which_sign) // 2  # coefficient index: 0 a_plus, 1 a_minus
    a = np.zeros((2, 4), dtype=complex)
    a[0, slot] = a[1, 2 + slot] = 1.0
    basis = WkbBasis(prob)
    phi = np.array([basis.phase(j, start) for j in (1, 2)])
    a = march.march(_system(basis), a, phi, start, end)
    return TransferMatrix(a[:, slot::2].T, h=prob.h)


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
