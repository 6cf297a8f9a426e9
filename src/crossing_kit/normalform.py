"""Reduced 2x2 model on an interval: transfer extraction by the shared
march, and the prediction from crossing invariants.

The model system is

    u1'(x) = -i r1(x) u2(x)
    u2'(x) = (i/h) f(x) u2(x) - i r2(x) u1(x)

with f vanishing to finite order m at 0 and smooth compactly supported
couplings r1, r2. Writing F for the antiderivative of f with F(0) = 0, the
frame a = (u1, e^{-iF/h} u2) is the first-order system

    a' = M a,   M = [[0, -i r1 e^{iF/h}], [-i r2 e^{-iF/h}, 0]],

whose integral form is driven by the oscillatory integrals

    gamma_plus(v)(x)  = int_{x0}^x e^{+iF(y)/h} r1(y) v(y) dy
    gamma_minus(v)(x) = int_{x0}^x e^{-iF(y)/h} r2(y) v(y) dy.

Their compositions shrink like h^{1/(m+1)} as h -> 0. The march
(``march.march``) solves a' = M a panel by panel, each by Picard
iteration, which is the Neumann series of these operators on the panel.
As M is off-diagonal, the series alternates them: its odd terms are
anti-diagonal, gamma+ (gamma- gamma+)^k and gamma- (gamma+ gamma-)^k, its
even terms diagonal, (gamma+ gamma-)^k and (gamma- gamma+)^k, so the
march sums them as two chains per panel, one starting with each
operator, and applies the panels' propagators to the data. When r2 =
conj(r1) (for the real bumps here, r1 == r2) the model is self-adjoint:
the terms that start with gamma- are the conjugates of those that start
with gamma+, the propagator is in SU(2), and the march, which reads this
off the couplings' values, sweeps one chain, one row per sweep. a is
constant once the couplings have switched off, so marching the two
basis inputs from x0 to x1 and reading a at x1 yields the transfer
matrix, whose off-diagonal entries carry the h^{1/(m+1)}
stationary-point contribution predicted by predict_transfer.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import march
from .errors import ValidationError
from .profiles import Bump, Poly1
from .symbolcalc import (
    CrossingData,
    Poly2,
    crossing_data_from_symbols,
    transfer_predicted_general,
)
from .transfer import TransferMatrix, check_h

# Names of removed functions, which perfbench/tracer.py wraps on this module
# by name and accepts None for; nothing calls them. ode_oracle lives in
# tests/ode_oracles.py.
ModelWorkspace = build_workspace = neumann_solve = extract_transfer = None
grid_for = ode_oracle = cum_quad6 = None


@dataclass(frozen=True)
class NormalFormProblem:
    """Problem data for the reduced model on [x0, x1], for every h.

    f must vanish at 0 to the exact order m (``Poly1.zero_order``), and
    nowhere else on the support of an active coupling, its ends included
    (``Poly1.vanishes_off_zero``): a second zero there, even a double one,
    would be a second crossing. Both couplings must be supported strictly
    inside the interval. The crossing invariants, which do not depend on
    h, are built once, when a prediction first asks for them.
    """

    f: Poly1
    r1: Bump
    r2: Bump
    x0: float
    x1: float
    m: int

    def __post_init__(self):
        if not (self.x0 < 0.0 < self.x1):
            raise ValidationError("interval must satisfy x0 < 0 < x1")
        if self.m < 1:
            raise ValidationError("m must be a positive integer")
        if self.f.zero_order != self.m:
            raise ValidationError(
                f"f must vanish at 0 to order exactly m={self.m}"
            )
        for name, r in (("r1", self.r1), ("r2", self.r2)):
            if r.amplitude == 0.0:
                continue
            lo, hi = r.support
            if not (self.x0 < lo and hi < self.x1):
                raise ValidationError(
                    f"support of {name} must lie strictly inside the interval"
                )
            if self.f.vanishes_off_zero(lo, hi):
                raise ValidationError(
                    f"f vanishes away from 0 on the support of {name}"
                )

    @property
    def interval(self) -> tuple[float, float]:
        return (self.x0, self.x1)

    def coupling_support(self) -> tuple[float, float] | None:
        """Hull of the supports of the active couplings, None if decoupled."""
        spans = [r.support for r in (self.r1, self.r2) if r.amplitude != 0.0]
        if not spans:
            return None
        return (min(s[0] for s in spans), max(s[1] for s in spans))

    def f_order_coeff(self) -> float:
        """f^(m)(0), the first nonvanishing derivative at the crossing."""
        return math.factorial(self.m) * self.f.coeffs[self.m]

    @functools.cached_property
    def _data(self) -> CrossingData:
        return crossing_data(self)

    # -- the Problem interface used by the sweep and the CLI

    @property
    def order(self) -> int:
        return self.m

    def predict(self, h: float, branch: int = 1) -> TransferMatrix:
        _check_single_crossing(branch)
        return predict_transfer(self, h)

    def extract(self, h: float, branch: int = 1) -> TransferMatrix:
        _check_single_crossing(branch)
        return transfer_numeric(self, h)


def _check_single_crossing(branch: int) -> None:
    if branch != 1:
        raise ValidationError("the reduced model has one crossing; branch must be 1")


def _system(prob: NormalFormProblem, h: float) -> march.System:
    """The model's a' = M a at h for the march: rate f, and (m1, m2) = (-i r1,
    -i r2), with r2's values those of r1 where r1 == r2; the march takes
    its phase F from f, and one Neumann chain where they make M
    skew-Hermitian (real bumps: r1 == r2).

    M vanishes outside the hull of the coupling supports. |m1| and |m2|
    are at most the larger amplitude. The stationary zone's width is (h /
    |f^(m)(0)|)^(1/(m+1)), as F^(m+1) = f^(m).
    """

    def local(x):
        m1 = -1j * prob.r1(x)
        m2 = m1 if prob.r2 == prob.r1 else -1j * prob.r2(x)
        return np.asarray(prob.f(x), dtype=float), (m1, m2)

    check_h(h)
    return march.System(
        h=h,
        support=prob.coupling_support(),
        zone=(h / abs(prob.f_order_coeff())) ** (1.0 / (prob.m + 1)),
        coupling=max(abs(prob.r1.amplitude), abs(prob.r2.amplitude)),
        local=local,
    )


def crossing_data(prob: NormalFormProblem) -> CrossingData:
    """Crossing invariants of the symbols p1 = xi, p2 = xi - f(x) at 0.

    The general amplitudes carry a factor (|grad p_k| / |grad p_j|)^(1/(m+1))
    that belongs to branch amplitudes normalised by the symbol gradients.
    The model's components u1, u2 are not normalised that way, so the
    couplings enter flux-normalised, q_j = r_j(0) sqrt(|grad p_j| /
    |grad p_k|). The norms differ only for m = 1, where |grad p2| =
    sqrt(1 + f'(0)^2).
    """
    p1 = Poly2.xi()
    p2 = p1 - Poly2.from_x_poly(prob.f.coeffs)
    ratio = math.hypot(*p1.gradient_at_origin()) / math.hypot(
        *p2.gradient_at_origin()
    )
    q1 = complex(prob.r1(0.0)) * math.sqrt(ratio)
    q2 = complex(prob.r2(0.0)) / math.sqrt(ratio)
    return crossing_data_from_symbols(p1, p2, q1, q2, max_m=prob.m + 1)


def predict_transfer(prob: NormalFormProblem, h: float) -> TransferMatrix:
    """Leading-order transfer matrix for the model problem at h.

    Off-diagonal entries are -i h^{1/(m+1)} r_j(0) times the stationary
    prefactor of the corresponding phase sign; diagonal entries are 1 up to
    a higher-order remainder.
    """
    return transfer_predicted_general(prob._data, h)


def transfer_numeric(prob: NormalFormProblem, h: float) -> TransferMatrix:
    """Extracted transfer matrix at h: both basis inputs marched from x0 to x1.

    Column j of T is a(x1) for a(x0) = e_j, in the frame
    a = (u1, e^{-iF/h} u2) with F(0) = 0.
    """
    a = march.march(_system(prob, h), np.eye(2, dtype=complex), prob.x0, prob.x1)
    return TransferMatrix(a.T, h=h)


_WIDE = Bump(width=0.8, amplitude=1.0)

# The six reference problems of the verification suite, all on
# [-1, 1]. The first three share a wide unit-amplitude coupling: the width
# keeps the amplitude's curvature at the crossing small, which keeps the
# next-order corrections out of the asymptotic fits.
MODEL_CORPUS = tuple(
    dict(f=Poly1(f), r1=r1, r2=r2, x0=-1.0, x1=1.0, m=m)
    for f, r1, r2, m in (
        ((0.0, 1.0), _WIDE, _WIDE, 1),
        ((0.0, 0.0, 1.0), _WIDE, _WIDE, 2),
        ((0.0, 0.0, 0.0, 1.0), _WIDE, _WIDE, 3),
        ((0.0, -1.0), _WIDE, Bump(0.4, 0.7), 1),
        ((0.0, 0.0, -1.0), Bump(0.35, 0.8), Bump(0.5, 1.2), 2),
        ((0.0, 1.0, 0.5), Bump(0.45, 1.0), Bump(0.45, 1.0), 1),
    )
)


def model_corpus() -> list[NormalFormProblem]:
    """The problems of ``MODEL_CORPUS``."""
    return [NormalFormProblem(**fields) for fields in MODEL_CORPUS]
