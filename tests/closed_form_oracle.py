"""Closed-form transfer predictions, kept as a test oracle.

The package predicts every T through its crossing invariants
(``CrossingData`` -> ``transfer_predicted_general``). These are the
textbook closed forms for the reduced model and for the two regimes of the
coupled Schrodinger pair; tests compare the production route against them.
The Schrodinger case-i form assumes equal slopes |V1'(0)| = |V2'(0)| and
omits the gradient-norm factor otherwise.
"""

import math

import numpy as np

from crossing_kit.errors import CaseMismatch, ValidationError
from crossing_kit.normalform import NormalFormProblem
from crossing_kit.oscquad import mu_m, stationary_prefactor
from crossing_kit.schrodinger import SchrodingerProblem
from crossing_kit.transfer import TransferMatrix


def predict_transfer(prob: NormalFormProblem) -> TransferMatrix:
    """Leading-order transfer matrix for the model problem.

    Off-diagonal entries are -i h^{1/(m+1)} r_j(0) times the stationary
    prefactor of the corresponding phase sign; diagonal entries are 1 up to
    a higher-order remainder.
    """
    lam = prob.h ** (1.0 / (prob.m + 1))
    fm0 = prob.f_order_coeff()
    t12 = -1j * lam * prob.r1(0.0) * stationary_prefactor(prob.m, fm0)
    t21 = -1j * lam * prob.r2(0.0) * stationary_prefactor(prob.m, -fm0)
    return TransferMatrix([[1.0, t12], [t21, 1.0]], h=prob.h)


def _omega_case_i(prob: SchrodingerProblem) -> complex:
    delta = prob.delta_n()
    n = prob.n
    theta = -math.copysign(math.pi / (2 * (n + 1)), delta)
    mag = (2.0 * math.factorial(n + 1) / abs(delta)) ** (1.0 / (n + 1))
    return mu_m(n, theta) * math.gamma((n + 2) / (n + 1)) * mag


def predict_transfer_case_i(
    prob: SchrodingerProblem, which_sign: int = 1
) -> TransferMatrix:
    """Closed-form leading transfer matrix at (0, which_sign * xi0).

    At +xi0 the off-diagonals are -i h^{1/(n+1)} W(0) (omega, conj(omega));
    at -xi0 the two amplitudes trade places. Diagonal entries are 1 up to a
    higher-order remainder.
    """
    if prob.case != "i":
        raise CaseMismatch("the +-xi0 prediction needs case i")
    if which_sign not in (1, -1):
        raise ValidationError("which_sign must be +1 or -1")
    omega = _omega_case_i(prob)
    if which_sign == -1:
        omega = np.conj(omega)
    lam = prob.h ** (1.0 / (prob.n + 1))
    w0 = prob.w(0.0)
    entries = [
        [1.0, -1j * lam * omega * w0],
        [-1j * lam * np.conj(omega) * w0, 1.0],
    ]
    return TransferMatrix(entries, h=prob.h)


def predict_transfer_case_ii(prob: SchrodingerProblem) -> TransferMatrix:
    """Closed-form leading transfer matrix at the zero-energy crossing.

    Both off-diagonal amplitudes are real and positive:

        omega_j = 2 (|V_k'(0)|/|V_j'(0)|
                     * (2n+1) n! / (|V_j'(0)|^n |delta_n|))^{1/(2n+1)}
                  * Gamma((2n+2)/(2n+1)) * cos(pi / (2(2n+1)))

    with k the other index and delta_n the first nonvanishing derivative
    of V2 - V1 at 0.
    """
    if prob.case != "ii":
        raise CaseMismatch("the zero-energy prediction needs case ii")
    n = prob.n
    delta = abs(prob.delta_n())
    g = [abs(v.deriv_at(1, 0.0)) for v in (prob.v1, prob.v2)]
    root = 1.0 / (2 * n + 1)
    shared = math.gamma((2 * n + 2) / (2 * n + 1)) * math.cos(
        math.pi / (2 * (2 * n + 1))
    )
    omega = [
        2.0
        * (g[1 - j] / g[j] * (2 * n + 1) * math.factorial(n) / (g[j] ** n * delta))
        ** root
        * shared
        for j in (0, 1)
    ]
    lam = prob.h ** root
    w0 = prob.w(0.0)
    entries = [
        [1.0, -1j * lam * omega[0] * w0],
        [-1j * lam * omega[1] * w0, 1.0],
    ]
    return TransferMatrix(entries, h=prob.h)
