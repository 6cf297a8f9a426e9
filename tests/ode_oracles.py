"""DOP853 solves of both families, kept as test oracles of the march.

The package extracts every T by one march (``march.march``). These are the
independent routes the tests compare it against: direct adaptive
integration of the model system in its differential form, and of the
second-order Schrodinger pair in the state (u1, u1', u2, u2'), with the
branch coefficients synthesized into and decomposed out of that state in
the exact WKB basis. The right-hand sides are plain Python, evaluated ~1e6
times per solve at the smallest mesh sizes.
"""

import numpy as np
from scipy.integrate import solve_ivp

from crossing_kit.errors import NumericalError, StepFailure
from crossing_kit.normalform import NormalFormProblem
from crossing_kit.profiles import Bump
from crossing_kit.schrodinger import SchrodingerProblem, WkbBasis
from uniform_plan import abs_max_on

ODE_TOL = 1e-11  # DOP853 tolerance of both oracles


class IllConditioned(NumericalError):
    """A local linear solve (branch decomposition) is too close to singular."""


def _bump_val(x, center, width, amplitude):
    # smooth compactly supported profile, value `amplitude` at its center
    t = (x - center) / width
    t2 = t * t
    if t2 >= 1.0:
        return 0.0
    return amplitude * np.exp(1.0 - 1.0 / (1.0 - t2))


def _polyval_asc(coeffs, x):
    # Horner evaluation, coefficients in ascending order
    acc = 0.0
    for k in range(coeffs.shape[0] - 1, -1, -1):
        acc = acc * x + coeffs[k]
    return acc


def kernel_params(bump: Bump) -> tuple[float, float, float]:
    """(center, width, amplitude) triple for the right-hand sides."""
    return (bump.center, bump.width, bump.amplitude)


def model_rhs(x, y, f_coeffs, r1p, r2p, h):
    """Right-hand side of the 2x2 reduced system, first-order form.

    y = (u1, u2) with u1' = -i r1 u2, u2' = (i/h) f u2 - i r2 u1.
    r1p/r2p pack (center, width, amplitude) of the coupling bumps.
    """
    f = _polyval_asc(f_coeffs, x)
    r1 = _bump_val(x, r1p[0], r1p[1], r1p[2])
    r2 = _bump_val(x, r2p[0], r2p[1], r2p[2])
    out = np.empty(2, dtype=np.complex128)
    out[0] = -1j * r1 * y[1]
    out[1] = (1j / h) * f * y[1] - 1j * r2 * y[0]
    return out


def schrod_rhs(x, y, v1_coeffs, v2_coeffs, wp, e0, h):
    """Right-hand side of the coupled Schrodinger pair, first-order form.

    y = (u1, u1', u2, u2'); u_j'' = ((V_j - E0) u_j + h W u_other) / h^2.
    """
    v1 = _polyval_asc(v1_coeffs, x)
    v2 = _polyval_asc(v2_coeffs, x)
    w = _bump_val(x, wp[0], wp[1], wp[2])
    out = np.empty(4, dtype=np.complex128)
    out[0] = y[1]
    out[1] = ((v1 - e0) * y[0] + h * w * y[2]) / (h * h)
    out[2] = y[3]
    out[3] = ((v2 - e0) * y[2] + h * w * y[0]) / (h * h)
    return out


def ode_oracle(
    prob: NormalFormProblem, h: float, alpha_in: tuple[complex, complex], x
) -> np.ndarray:
    """Direct adaptive integration of the model system at h: the march's
    oracle.

    Starts from the frame coefficients a(x0) = alpha_in, that is
    u1(x0) = a1 and u2(x0) = a2 e^{iF(x0)/h}, and returns the frame
    coefficients (u1, e^{-iF/h} u2) at the increasing points x, shape
    (2, len(x)).
    """
    x = np.asarray(x, dtype=float)
    a1, a2 = complex(alpha_in[0]), complex(alpha_in[1])
    F = prob.f.antideriv()
    y0 = np.array([a1, a2 * np.exp(1j * F(prob.x0) / h)], dtype=complex)
    args = (
        np.asarray(prob.f.coeffs, dtype=float),
        kernel_params(prob.r1),
        kernel_params(prob.r2),
        h,
    )
    # Where a component is identically zero the controller would take steps
    # spanning thousands of fast periods; the step itself is fine but the
    # dense-output interpolant amplifies stage noise by the stiff factor
    # f/h. Capping the step at one local period keeps it conditioned.
    rate = float(abs_max_on(prob.f, [prob.x0], [prob.x1])[0])
    max_step = 2.0 * np.pi * h / rate if rate > 0 else np.inf
    sol = solve_ivp(
        model_rhs,
        (prob.x0, float(x[-1])),
        y0,
        method="DOP853",
        t_eval=x,
        rtol=ODE_TOL,
        atol=ODE_TOL,
        max_step=max_step,
        args=args,
    )
    if not sol.success:
        raise StepFailure(f"adaptive integrator failed: {sol.message}")
    return np.array([sol.y[0], np.exp(-1j * F(x) / h) * sol.y[1]])


def synthesize(prob: SchrodingerProblem, h: float, coeffs, x: float) -> np.ndarray:
    """State vector (u1, u1', u2, u2') with branch coefficients ``coeffs``.

    coeffs = (a1_plus, a1_minus, a2_plus, a2_minus), in the exact
    convention: u_j' = a_j+ w_j+' + a_j- w_j-'.
    """
    a = np.asarray(coeffs, dtype=complex)
    basis = WkbBasis(prob)
    _, rate, dlog, _ = basis.rates(x)
    sig = basis.amplitude(x)
    osc = np.exp(1j * basis.phase(x) / h)
    plus, minus = a[0::2] * osc, a[1::2] * np.conj(osc)
    out = np.empty(4, dtype=complex)
    out[0::2] = sig * (plus + minus)
    out[1::2] = dlog * out[0::2] + (1j * rate / h) * sig * (plus - minus)
    return out


def branch_decompose(prob: SchrodingerProblem, h: float, x: float, u, hdu):
    """Branch coefficients (a_plus, a_minus) of both equations at the point
    x, each of shape (2,), from u = (u1, u2) and hdu = (h u1', h u2').

    Inverts ``synthesize``: solves [u_j; h u_j'] = B_j(x) [a_j+; a_j-] with
    the exact basis and its derivative. The determinant of B_j is the
    x-independent flux 2 sigma_j^2 phi_j', so conditioning is uniform.
    """
    u = np.asarray(u, dtype=complex)
    hdu = np.asarray(hdu, dtype=complex)
    basis = WkbBasis(prob)
    _, rate, dlog, _ = basis.rates(x)
    sig = basis.amplitude(x)
    if np.min(2.0 * sig**2 * rate) < 1e-8:
        raise IllConditioned(
            "branch matrix nearly singular (turning point too close)"
        )
    # h u' less its amplitude part is the phase part i phi' sigma (a+ e - a- e*)
    hdu = hdu - h * dlog * u
    osc = np.exp(1j * basis.phase(x) / h)
    a_plus = (u - 1j * hdu / rate) / (2.0 * sig * osc)
    a_minus = (u + 1j * hdu / rate) / (2.0 * sig * np.conj(osc))
    return a_plus, a_minus


def _rhs_args(prob: SchrodingerProblem, h: float):
    return (
        np.asarray(prob.v1.coeffs, dtype=float),
        np.asarray(prob.v2.coeffs, dtype=float),
        kernel_params(prob.w),
        prob.e0,
        h,
    )


def integrate(
    prob: SchrodingerProblem,
    h: float,
    coeffs,
    x_from: float,
    x_to: float,
    t_eval,
    tol=ODE_TOL,
) -> np.ndarray:
    """DOP853 reference solve of the coupled pair at h.

    ``coeffs`` = (a1_plus, a1_minus, a2_plus, a2_minus) is synthesized into
    the state (u1, u1', u2, u2') at x_from, which DOP853 carries to x_to.
    Returns the state sampled at ``t_eval``, ordered from x_from.
    """
    sol = solve_ivp(
        schrod_rhs,
        (x_from, x_to),
        synthesize(prob, h, coeffs, x_from),
        method="DOP853",
        t_eval=t_eval,
        rtol=tol,
        atol=tol,
        args=_rhs_args(prob, h),
    )
    if not sol.success:
        raise StepFailure(f"adaptive integrator failed: {sol.message}")
    return sol.y
