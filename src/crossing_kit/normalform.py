"""Reduced 2x2 model on an interval: coupling operators, Neumann solver,
a direct ODE oracle, and transfer-matrix extraction.

The model system is

    u1'(x) = -i r1(x) u2(x)
    u2'(x) = (i/h) f(x) u2(x) - i r2(x) u1(x)

with f vanishing to finite order m at 0 and smooth compactly supported
couplings r1, r2. Writing F for the antiderivative of f with F(0) = 0 and
factoring u2 = e^{iF/h} w turns the system into Volterra integral
equations driven by the cumulative oscillatory integrals

    gamma_plus(v)(x)  = int_{x0}^x e^{+iF(y)/h} r1(y) v(y) dy
    gamma_minus(v)(x) = int_{x0}^x e^{-iF(y)/h} r2(y) v(y) dy

whose compositions K1 = -gamma_plus o gamma_minus and
K2 = -gamma_minus o gamma_plus shrink like h^{1/(m+1)} as h -> 0, so both
components come out of rapidly converging geometric (Neumann) series:

    u1 = (I - K1)^{-1} (a1 - i a2 gamma_plus(1))
    u2 = e^{iF/h} (I - K2)^{-1} (a2 - i a1 gamma_minus(1))

for incoming data u1(x0) = a1, e^{-iF(x0)/h} u2(x0) = a2. The outgoing
pair (u1, e^{-iF/h} u2) at the right end is constant once the couplings
have switched off; reading it off for the two basis inputs yields the
transfer matrix, whose off-diagonal entries carry the h^{1/(m+1)}
stationary-point contribution predicted by predict_transfer.

The grid, F and the oscillatory weights of one (problem, h) form a
ModelWorkspace; the solvers and the read-off take it as their first
argument, and transfer_numeric builds one per extraction.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from ._kernels import cum_quad6, model_rhs
from .errors import (
    NotContractive,
    StepFailure,
    ValidationError,
    WindowInsideSupport,
)
from .grids import GridFunction, grid_for
from .oscquad import stationary_prefactor
from .profiles import Bump, Poly1
from .symbolcalc import (
    CrossingData,
    Poly2,
    crossing_data_from_symbols,
    transfer_predicted_general,
)
from .transfer import TransferMatrix

ODE_TOL = 1e-11
EXTRACT_WINDOW = 65
POINTS_PER_PERIOD = 96

logger = logging.getLogger("crossing_kit")


def _max_rate(prob: NormalFormProblem) -> float:
    """max |f| over the interval: the fastest local phase rate."""
    lo, hi = prob.f.range_on(prob.x0, prob.x1)
    return max(abs(lo), abs(hi))


def _poly_real_roots(f: Poly1) -> list[float]:
    coeffs = np.asarray(f.coeffs)
    if not coeffs.any():
        return []
    roots = np.polynomial.polynomial.polyroots(coeffs)
    return [float(r.real) for r in roots if abs(r.imag) < 1e-9]


@dataclass(frozen=True)
class NormalFormProblem:
    """Problem data for the reduced model on [x0, x1].

    f must vanish at 0 to the exact order m, and must not vanish anywhere
    else inside the coupling supports; both couplings must be supported
    strictly inside the interval.
    """

    f: Poly1
    r1: Bump
    r2: Bump
    x0: float
    x1: float
    h: float
    m: int

    def __post_init__(self):
        if not (self.x0 < 0.0 < self.x1):
            raise ValidationError("interval must satisfy x0 < 0 < x1")
        if not (self.h > 0):
            raise ValidationError("h must be positive")
        if self.m < 1:
            raise ValidationError("m must be a positive integer")
        coeffs = self.f.coeffs
        low = next((k for k, c in enumerate(coeffs) if c != 0.0), None)
        if low != self.m:
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
            for root in _poly_real_roots(self.f):
                if abs(root) > 1e-12 and lo < root < hi:
                    raise ValidationError(
                        f"f vanishes at x={root:g} inside the support of {name}"
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

    # -- the Problem interface used by the sweep and the CLI

    @property
    def order(self) -> int:
        return self.m

    def with_h(self, h: float) -> "NormalFormProblem":
        return dataclasses.replace(self, h=h)

    def predict(self, branch: int = 1) -> TransferMatrix:
        _check_single_crossing(branch)
        return predict_transfer(self)

    def extract(self, branch: int = 1, eps: float | None = None) -> TransferMatrix:
        _check_single_crossing(branch)
        return transfer_numeric(self, eps)


def _check_single_crossing(branch: int) -> None:
    if branch != 1:
        raise ValidationError("the reduced model has one crossing; branch must be 1")


class ModelWorkspace:
    """Grid plus precomputed oscillatory weights for one (problem, h).

    One extraction builds one workspace (``build_workspace``) and passes it
    to both basis solves and the read-off; nothing keeps it afterwards.
    """

    def __init__(self, prob: NormalFormProblem):
        self.prob = prob
        self.rate = _max_rate(prob)
        x, dx, n, k0 = grid_for(
            prob.x0, prob.x1, self.rate, prob.h, POINTS_PER_PERIOD
        )
        self.x, self.dx, self.n, self.k0 = x, dx, n, k0
        fvals = np.asarray(prob.f(x), dtype=float)
        cum = cum_quad6(fvals, dx).real
        self.F = cum - cum[k0]
        self.osc_plus = np.exp(1j * self.F / prob.h)
        # conjugated couplings: multiplication operators commute with the
        # phase factor, so the weights are just r_j times the oscillation
        self.w_plus = prob.r1(x) * self.osc_plus
        self.w_minus = prob.r2(x) * np.conj(self.osc_plus)

    def grid_fn(self, values: np.ndarray) -> GridFunction:
        return GridFunction(values, float(self.x[0]), self.dx, self.n)

    def cumulative(self, weights: np.ndarray, v: np.ndarray) -> np.ndarray:
        return cum_quad6(weights * v, self.dx)

    def _on_grid(self, v: GridFunction) -> np.ndarray:
        if v.n != self.n or v.dx != self.dx:
            raise ValidationError("input is not sampled on the problem grid")
        return np.asarray(v.values, dtype=complex)

    def gamma_plus(self, v: GridFunction) -> GridFunction:
        return self.grid_fn(self.cumulative(self.w_plus, self._on_grid(v)))

    def gamma_minus(self, v: GridFunction) -> GridFunction:
        return self.grid_fn(self.cumulative(self.w_minus, self._on_grid(v)))


def build_workspace(prob: NormalFormProblem) -> ModelWorkspace:
    # a separate name so that perfbench/tracer.py can count workspace
    # requests apart from ModelWorkspace constructions
    return ModelWorkspace(prob)


@dataclass(frozen=True)
class ModelSolution:
    """Neumann-series solution with its truncation diagnostics."""

    u1: GridFunction
    u2: GridFunction
    k_norm_est: float
    residual_bound: float
    terms: int


def neumann_solve(
    ws: ModelWorkspace,
    alpha_in: tuple[complex, complex],
    terms: int = 8,
) -> ModelSolution:
    """Truncated geometric series for both components.

    ``terms`` counts the operator powers applied on top of the data term.
    Raises NotContractive when the measured size of K1 applied to the
    constant 1 reaches 1/2, where the series can no longer be trusted.
    """
    if terms < 1:
        raise ValidationError("terms must be >= 1")
    a1, a2 = complex(alpha_in[0]), complex(alpha_in[1])
    ones = np.ones(ws.n, dtype=complex)
    gp1 = ws.cumulative(ws.w_plus, ones)
    gm1 = ws.cumulative(ws.w_minus, ones)

    k_norm = float(np.max(np.abs(ws.cumulative(ws.w_plus, gm1))))
    if k_norm >= 0.5:
        raise NotContractive(
            f"coupling operator size estimate {k_norm:.3g} >= 1/2; "
            "decrease h or the coupling strength"
        )

    rhs1 = a1 * ones - 1j * a2 * gp1
    rhs2 = a2 * ones - 1j * a1 * gm1
    u1 = rhs1.copy()
    w2 = rhs2.copy()
    t1, t2 = rhs1, rhs2
    for _ in range(terms):
        t1 = -ws.cumulative(ws.w_plus, ws.cumulative(ws.w_minus, t1))
        t2 = -ws.cumulative(ws.w_minus, ws.cumulative(ws.w_plus, t2))
        u1 += t1
        w2 += t2

    data_norm = max(float(np.max(np.abs(rhs1))), float(np.max(np.abs(rhs2))))
    residual = k_norm ** (terms + 1) / (1.0 - k_norm) * data_norm
    return ModelSolution(
        u1=ws.grid_fn(u1),
        u2=ws.grid_fn(ws.osc_plus * w2),
        k_norm_est=k_norm,
        residual_bound=residual,
        terms=terms,
    )


def ode_oracle(
    ws: ModelWorkspace, alpha_in: tuple[complex, complex]
) -> tuple[GridFunction, GridFunction]:
    """Direct adaptive integration of the model system on the grid.

    Same incoming convention as neumann_solve: u2(x0) = a2 e^{iF(x0)/h}.
    """
    prob = ws.prob
    a1, a2 = complex(alpha_in[0]), complex(alpha_in[1])
    y0 = np.array([a1, a2 * np.exp(1j * ws.F[0] / prob.h)], dtype=complex)
    args = (
        np.asarray(prob.f.coeffs, dtype=float),
        prob.r1.kernel_params(),
        prob.r2.kernel_params(),
        prob.h,
    )
    # Where a component is identically zero the controller would take steps
    # spanning thousands of fast periods; the step itself is fine but the
    # dense-output interpolant amplifies stage noise by the stiff factor
    # f/h. Capping the step at one local period keeps it conditioned.
    max_step = 2.0 * np.pi * prob.h / ws.rate if ws.rate > 0 else np.inf
    sol = solve_ivp(
        model_rhs,
        (float(ws.x[0]), float(ws.x[-1])),
        y0,
        method="DOP853",
        t_eval=ws.x,
        rtol=ODE_TOL,
        atol=ODE_TOL,
        max_step=max_step,
        args=args,
    )
    if not sol.success:
        raise StepFailure(f"adaptive integrator failed: {sol.message}")
    return ws.grid_fn(sol.y[0]), ws.grid_fn(sol.y[1])


def extract_transfer(
    ws: ModelWorkspace,
    pair_e1: tuple[GridFunction, GridFunction],
    pair_e2: tuple[GridFunction, GridFunction],
    eps: float | None = None,
    window_points: int = EXTRACT_WINDOW,
) -> TransferMatrix:
    """Read the outgoing coefficients off two basis solves, each a (u1, u2)
    pair on the workspace grid.

    The outgoing pair (u1, e^{-iF/h} u2) is constant to the right of the
    coupling supports; it is averaged over a window of grid points centered
    at x1 - eps to suppress residual quadrature ripple. Raises
    WindowInsideSupport when that window touches a coupling support.
    """
    support = ws.prob.coupling_support()
    if eps is None:
        margin = ws.x[-1] - (support[1] if support else 0.0)
        eps = 0.5 * margin
    x_read = float(ws.x[-1]) - eps
    sl = ws.grid_fn(np.zeros(ws.n, complex)).window(x_read, window_points)
    if support is not None and ws.x[sl.start] <= support[1]:
        raise WindowInsideSupport(
            f"extraction window starting at x={ws.x[sl.start]:g} overlaps "
            f"the coupling support (ending at {support[1]:g})"
        )
    cols = []
    for u1, u2 in (pair_e1, pair_e2):
        v1 = np.asarray(u1.values)[sl]
        v2 = np.conj(ws.osc_plus[sl]) * np.asarray(u2.values)[sl]
        cols.append((complex(v1.mean()), complex(v2.mean())))
    entries = [[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]]
    return TransferMatrix(entries, h=ws.prob.h, kind="extracted")


def model_omega(prob: NormalFormProblem) -> complex:
    """Stationary-point coefficient of the plus-phase coupling integral."""
    return stationary_prefactor(prob.m, prob.f_order_coeff())


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


def predict_transfer(prob: NormalFormProblem) -> TransferMatrix:
    """Leading-order transfer matrix for the model problem.

    Off-diagonal entries are -i h^{1/(m+1)} r_j(0) times the stationary
    prefactor of the corresponding phase sign; diagonal entries are 1 up to
    a higher-order remainder.
    """
    return transfer_predicted_general(crossing_data(prob), prob.h)


def transfer_numeric(
    prob: NormalFormProblem, eps: float | None = None
) -> TransferMatrix:
    """Extracted transfer matrix from two basis solves on one workspace.

    The solves are Neumann series; where the series is not contractive
    (it needs a smaller h, the direct integration does not) they fall back
    to the ODE oracle on the same workspace, and say so at INFO.
    """
    ws = build_workspace(prob)
    basis = ((1, 0), (0, 1))
    try:
        sols = [neumann_solve(ws, a) for a in basis]
        pairs = [(sol.u1, sol.u2) for sol in sols]
    except NotContractive as exc:
        logger.info("h=%.6e: %s; falling back to the ODE solver", prob.h, exc)
        pairs = [ode_oracle(ws, a) for a in basis]
    return extract_transfer(ws, pairs[0], pairs[1], eps)


def model_corpus(h: float) -> list[NormalFormProblem]:
    """The six reference problems used by the verification suite.

    The first three share a wide unit-amplitude coupling: the width keeps
    the amplitude's curvature at the crossing small, which keeps the
    next-order corrections out of the asymptotic fits.
    """
    wide = Bump(width=0.8, amplitude=1.0)
    return [
        NormalFormProblem(
            f=Poly1((0.0, 1.0)), r1=wide, r2=wide, x0=-1.0, x1=1.0, h=h, m=1
        ),
        NormalFormProblem(
            f=Poly1((0.0, 0.0, 1.0)),
            r1=wide,
            r2=wide,
            x0=-1.0,
            x1=1.0,
            h=h,
            m=2,
        ),
        NormalFormProblem(
            f=Poly1((0.0, 0.0, 0.0, 1.0)),
            r1=wide,
            r2=wide,
            x0=-1.0,
            x1=1.0,
            h=h,
            m=3,
        ),
        NormalFormProblem(
            f=Poly1((0.0, -1.0)),
            r1=wide,
            r2=Bump(width=0.4, amplitude=0.7),
            x0=-1.0,
            x1=1.0,
            h=h,
            m=1,
        ),
        NormalFormProblem(
            f=Poly1((0.0, 0.0, -1.0)),
            r1=Bump(width=0.35, amplitude=0.8),
            r2=Bump(width=0.5, amplitude=1.2),
            x0=-1.0,
            x1=1.0,
            h=h,
            m=2,
        ),
        NormalFormProblem(
            f=Poly1((0.0, 1.0, 0.5)),
            r1=Bump(width=0.45, amplitude=1.0),
            r2=Bump(width=0.45, amplitude=1.0),
            x0=-1.0,
            x1=1.0,
            h=h,
            m=1,
        ),
    ]
