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
whole interval is marched. ``transfer`` marches it on the uniform grid of
``uniform_plan.grids`` with the Picard sum ``uniform_plan.picard`` over
the data's columns, from the both-branch ``WkbBasis.phase`` at its start:
on the + branches this was the package's extraction before the pair
moved to its normal form. The - branches are marched on their own, from
x_out to x_in over the same chunks in reverse, so the oracle does not
lean on the transpose identity the package uses for them.
It agrees with the DOP853 solve of ``ode_oracles`` to 1e-8, and the
normal form differs from it by the averaging's O(h^{5/2}).
"""

import math

import numpy as np

from crossing_kit.schrodinger import SchrodingerProblem, WkbBasis

import uniform_plan
from quad10 import cum_quad10

# At 14 points per period the four-coefficient march is converged only
# down to about this h: on schrodinger-corpus 1 its T moves by 5.9e-12
# against the same march at 96 points per period at h = 1e-5, and by
# 9.0e-11 at h = 1e-6, over four times the 2e-11 the package's own march
# is held to.
H_MIN = 1e-5


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


def transfer(prob: SchrodingerProblem, h: float, sign: int = 1) -> np.ndarray:
    """T at h and (0, sign * xi0) from the four-coefficient march: unit data on
    the incoming branches at one end, read on the outgoing ones at the
    other. The grid's rate bound is 2 max p_j everywhere and its coupling
    the largest row sum of |M|. Refuses h < H_MIN, where the march is not
    converged."""
    if h < H_MIN:
        raise ValueError(
            f"h={h:g} < {H_MIN:g}: the four-coefficient march is not "
            "converged there at 14 points per period (at h = 1e-6 on "
            "schrodinger-corpus 1 its T moves by 9.0e-11 against 96)"
        )
    basis = WkbBasis(prob)
    x = np.linspace(prob.x_in, prob.x_out, 1025)
    _, peak_cross, peak_self = coefficients(basis, h, x, abs(prob.w.amplitude))
    lowest = min(v.range_on(prob.x_in, prob.x_out)[0] for v in (prob.v1, prob.v2))
    coupling = 2.0 * float(np.max(np.abs(peak_cross) + np.abs(peak_self)))
    fastest = 2.0 * math.sqrt(prob.e0 - lowest)
    grids = uniform_plan.grids(prob.interval, *prob.interval, fastest, coupling, h)
    slot = (1 - sign) // 2  # coefficient index: 0 a_plus, 1 a_minus
    a = np.zeros((2, 4), dtype=complex)
    a[0, slot] = a[1, 2 + slot] = 1.0
    phi = basis.phase(prob.x_in if sign == 1 else prob.x_out)
    for nodes, dx in list(grids)[::sign]:
        nodes, dx = nodes[::sign], sign * dx
        rate, cross, self_ = coefficients(basis, h, nodes, prob.w(nodes))
        phase = phi[:, None] + cum_quad10(rate, dx)
        osc = np.exp(1j * phase / h)
        a = uniform_plan.picard(
            a, dx, lambda v: apply(cross, self_, osc, np.conj(osc), v)
        )
        phi = phase[:, -1]
    return a[:, slot::2].T
