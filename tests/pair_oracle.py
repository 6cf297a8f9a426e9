"""The coupled pair's exact four-coefficient system, marched: the oracle of
the pair's normal form.

Each u_j is written exactly as u_j = a_j+ w_j+ + a_j- w_j-, with
w_j+- = sigma_j e^{+-i phi_j/h} and the gauge a_j+' w_j+ + a_j-' w_j- = 0.
Per equation j (k the other one), with e_j = e^{i phi_j/h} and
S_j = a_j+ e_j + a_j- / e_j, the four branch coefficients solve

    a_j+' = r_j / e_j,   a_j-' = -e_j r_j,   r_j = C_j S_k - D_j S_j,

C_j = W sigma_k / (2i sigma_j p_j) and D_j = h (sigma_j''/sigma_j) / (2i p_j).
M carries e^{i(+-phi_k +- phi_j)/h}, so the grid resolves 2 max p_j, one
bound for the whole interval, and as D_j does not vanish outside supp W the
whole interval is marched. ``transfer`` marches it on the package's plan
of Picard chunks with the general Picard sweep D_0 = a(x_0),
D_{k+1} = int M D_k over the data's columns: on the + branches the
package's extraction before the pair moved to its normal form. Its T
equals that extraction's bit for bit on schrodinger-corpus 0 and within
4.3e-14 on corpus 1 (h = 1e-2 .. 1e-3), as its starting phases now come
from the both-branch ``WkbBasis.phase``. The - branches are marched on
their own, from x_out to x_in over the same chunks in reverse, so the
oracle does not lean on the transpose identity the package uses for them.
It agrees with the DOP853 solve of ``ode_oracles`` to 1e-8, and the
normal form differs from it by the averaging's O(h^{5/2}).
"""

import math

import numpy as np

from crossing_kit import march
from crossing_kit.errors import StepFailure
from crossing_kit.schrodinger import SchrodingerProblem, WkbBasis

import uniform_plan
from quad10 import cum_quad10

# At 14 points per period the four-coefficient march is converged only
# down to about this h: on schrodinger-corpus 1 at h = 1e-5 its T moves by
# 1.08e-10 against the same march at 96 points per period, five times the
# 2e-11 the package's own march is held to.
H_MIN = 1e-3


def coefficients(basis: WkbBasis, h: float, x: np.ndarray, w):
    """Rates p_j and the coefficients C_j, D_j at the nodes x, shape
    (2, len(x)); ``w`` is W at the nodes."""
    _, p, _, kappa = basis.rates(x)
    sig = basis.amplitude(x)
    return p, w * sig[::-1] / (2j * sig * p), h * kappa / (2j * p)


def apply(cross, self_, osc, back, a):
    """M a for the branch coefficients a = (a1+, a1-, a2+, a2-) per column;
    a may have one node, a constant."""
    s = a[:, 0::2] * osc + a[:, 1::2] * back  # u_j / sigma_j
    r = cross * s[:, ::-1] - self_ * s
    da = np.empty(np.broadcast_shapes(a.shape, (1, 4, osc.shape[-1])), dtype=complex)
    da[:, 0::2] = back * r
    da[:, 1::2] = -osc * r
    return da


def _plan(prob: SchrodingerProblem, basis: WkbBasis):
    """The uniform plan's Picard chunks over [x_in, x_out] for the
    four-coefficient system: rate bound 2 max p_j everywhere, coupling the
    largest row sum of |M|."""
    x = np.linspace(prob.x_in, prob.x_out, 1025)
    _, peak_cross, peak_self = coefficients(basis, prob.h, x, abs(prob.w.amplitude))
    lowest = min(v.range_on(prob.x_in, prob.x_out)[0] for v in (prob.v1, prob.v2))
    fastest = 2.0 * math.sqrt(prob.e0 - lowest)
    system = uniform_plan.System(
        h=prob.h,
        interval=prob.interval,
        support=prob.interval,
        phase=None,
        zone=None,
        coupling=2.0 * float(np.max(np.abs(peak_cross) + np.abs(peak_self))),
        local=None,
        rate_on=lambda lo, hi: np.full(np.shape(lo), fastest),
    )
    return uniform_plan._plan(system, prob.x_in, prob.x_out)


def transfer(prob: SchrodingerProblem, sign: int = 1) -> np.ndarray:
    """T at (0, sign * xi0) from the four-coefficient march: unit data on
    the incoming branches at one end, read on the outgoing ones at the
    other. Refuses h < H_MIN, where the march is not converged."""
    if prob.h < H_MIN:
        raise ValueError(
            f"h={prob.h:g} < {H_MIN:g}: the four-coefficient march is not "
            "converged there at 14 points per period (at h = 1e-5 on "
            "schrodinger-corpus 1 its T moves by 1.08e-10 against 96)"
        )
    basis = WkbBasis(prob)
    start = prob.x_in if sign == 1 else prob.x_out
    slot = (1 - sign) // 2  # coefficient index: 0 a_plus, 1 a_minus
    a = np.zeros((2, 4), dtype=complex)
    a[0, slot] = a[1, 2 + slot] = 1.0
    step = float(sign)
    x, phi = start, basis.phase(start)
    for dx, cells in _plan(prob, basis)[::sign]:
        nodes = x + step * dx * np.arange(cells + 1)
        rate, cross, self_ = coefficients(basis, prob.h, nodes, prob.w(nodes))
        phase = cum_quad10(rate, step * dx, initial=phi)
        osc = np.exp(1j * phase / prob.h)
        back = np.conj(osc)
        m_d, total = apply(cross, self_, osc, back, a[:, :, None]), a.copy()
        for _ in range(march.PICARD_MAX_ITER):
            term = cum_quad10(m_d, step * dx)
            total += term[:, :, -1]
            parts = term.view(np.float64)
            if max(parts.max(), -parts.min()) <= march.PICARD_TOL / math.sqrt(2.0):
                break
            m_d = apply(cross, self_, osc, back, term)
        else:
            raise StepFailure(f"no Picard convergence on [{nodes[0]:g}, {nodes[-1]:g}]")
        a, phi, x = total, phase[:, -1], nodes[-1]
    return a[:, slot::2].T
