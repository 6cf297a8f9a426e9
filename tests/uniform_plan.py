"""A plain uniform Picard march: the oracle of the march's panels.

``march.march`` solves every span on panels of Chebyshev points. This
module marches the same system a' = M a on a uniform grid instead: one dx
for the marched span, POINTS_PER_PERIOD nodes per period of the span's
bound on the phase rate |F'| (``rate_on``), cut into equal chunks
(``grids``). Each chunk is solved by the Picard sum a + int M a + ...
from its first node (``picard``), every integral, the phase's included,
by ``cum_quad10``, a tenth-order rule. Its cost grows like 1/h, so the
tests run it at moderate h, as an independent route to the same
propagators.

The march needs facts about the problem that the march's ``System`` does
not carry, as the march works them out from ``local``: the interval, the
exact phase F and the rate bound. ``system(prob, h)`` adds them for
either problem family at h, and ``march(system, a, x_from, x_to)``
marches such a system from the exact phase at the start of its support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from crossing_kit import march as panels
from crossing_kit import normalform, schrodinger
from crossing_kit.errors import StepFailure, ValidationError
from crossing_kit.march import PICARD_MAX_ITER, PICARD_REACH, PICARD_TOL
from crossing_kit.profiles import Poly1

from quad10 import cum_quad10

# The grid: POINTS_PER_PERIOD nodes per period of the span's rate bound,
# and no dx wider than the one that puts N_MIN nodes on the system's
# interval. With cum_quad10's tenth-order rule, 14 points per period keep
# the propagator of the support within 2.2e-12 of the same march at 96 on
# both corpora at h = 1e-3 .. 1e-5. A chunk has at most CHUNK_CELLS cells,
# which bounds the march's memory.
POINTS_PER_PERIOD = 14
N_MIN = 2001
CHUNK_CELLS = 8192


@dataclass(frozen=True)
class System(panels.System):
    """A march's system with the problem's ``interval``, its exact
    ``phase(x)`` with F(0) = 0, and ``rate_on(lo, hi)``, which bounds |F'|
    on each [lo[k], hi[k]] of the arrays lo <= hi; it sets the grid."""

    interval: tuple[float, float] | None = None
    phase: Callable | None = None
    rate_on: Callable | None = None


def abs_max_on(poly: Poly1, lo, hi) -> np.ndarray:
    """max |p| over each [lo_k, hi_k], for arrays lo <= hi."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    bound = np.maximum(np.abs(poly(lo)), np.abs(poly(hi)))
    for c in poly.critical_points:
        inside = (lo <= c) & (c <= hi)
        bound[inside] = np.maximum(bound[inside], abs(float(poly(c))))
    return bound


def rate_on(prob, h: float) -> Callable:
    """The rate bound of ``prob`` at h: max |f| on each piece for the model, and
    for the pair |V_1 - V_2| / (p_1 + p_2) with each p_j at its least on
    the piece, plus h^2 times a bound of |kappa_j| / (2 p_j) summed over j
    on the interval."""
    if isinstance(prob, normalform.NormalFormProblem):
        return lambda lo, hi: abs_max_on(prob.f, lo, hi)
    ends, v = ([prob.x_in], [prob.x_out]), (prob.v1, prob.v2)
    low = [vj.range_on(prob.x_in, prob.x_out) for vj in v]
    # V_j - min V_j is nonnegative, so its largest modulus is its maximum
    rise = [vj - Poly1((vmin,)) for vj, (vmin, _) in zip(v, low)]
    q_low = [prob.e0 - vmax for _, vmax in low]
    drift = sum(
        schrodinger._sigma_ratios(
            q,
            abs_max_on(vj.deriv(1), *ends)[0],
            abs_max_on(vj.deriv(2), *ends)[0],
        )[1]
        / (2.0 * math.sqrt(q))
        for vj, q in zip(v, q_low)
    )
    gap = prob.v1 - prob.v2

    def bound(lo, hi):
        p_low = [
            np.sqrt(prob.e0 - vmin - abs_max_on(d, lo, hi))
            for (vmin, _), d in zip(low, rise)
        ]
        return abs_max_on(gap, lo, hi) / (p_low[0] + p_low[1]) + h * h * drift

    return bound


def system(prob, h: float) -> System:
    """The family's march system of ``prob`` at h with the facts the
    uniform march needs. The model's exact phase is the antiderivative of
    f; the pair's is the integral of its F' from 0 by ``march.integral``."""
    if isinstance(prob, normalform.NormalFormProblem):
        base = normalform._system(prob, h)
        phase = prob.f.antideriv()
    else:
        base = schrodinger._system(prob, h)
        rate = lambda y: base.local(y)[0]  # noqa: E731
        phase = lambda x: float(panels.integral(rate, 0.0, x))  # noqa: E731
    own = {f.name: getattr(base, f.name) for f in fields(panels.System)}
    bound = rate_on(prob, h)
    return System(**own, interval=prob.interval, phase=phase, rate_on=bound)


def grids(interval, lo: float, hi: float, rate: float, coupling: float, h: float):
    """The uniform grid of [lo, hi] as chunks, left to right: yields each
    chunk's nodes and its dx. The dx is one for the span: POINTS_PER_PERIOD
    nodes per period 2 pi h / rate of the span's rate bound, at most the dx
    that puts N_MIN nodes on ``interval``, and short enough that 9 cells,
    the fewest cum_quad10 takes, keep int |M| <= coupling * their length
    within PICARD_REACH. The span is cut into equal chunks of at least 9
    and at most CHUNK_CELLS cells, each within PICARD_REACH."""
    with np.errstate(divide="ignore"):
        period = 2.0 * math.pi * h / np.float64(rate)
        reach = PICARD_REACH / np.float64(coupling)
    cap = (interval[1] - interval[0]) / (N_MIN - 1)
    dx = min(cap, period / POINTS_PER_PERIOD, reach / 9)
    cells = math.ceil((hi - lo) / dx)
    chunks = math.ceil(cells / max(9, int(min(CHUNK_CELLS, reach / dx))))
    cells = max(9, math.ceil(cells / chunks))
    edges = np.linspace(lo, hi, chunks + 1)
    for start, end in zip(edges[:-1], edges[1:]):
        yield np.linspace(start, end, cells + 1), (end - start) / cells


def picard(a: np.ndarray, dx: float, apply: Callable) -> np.ndarray:
    """a at the last node of a chunk from a at its first, for a' = M a: the
    Picard sum a + int M a + int M int M a + ... over the data's columns,
    a of shape (columns, k), each integral by cum_quad10 from the first
    node. ``apply(v)`` is M v at the chunk's nodes, for v of shape
    (columns, k, nodes), or (columns, k, 1) for the constant first term.
    Stops once max |term| <= PICARD_TOL * max |a|. A term that is not
    finite (an overflow) raises StepFailure at once, and so does the sweep
    cap PICARD_MAX_ITER reached without the stop, both without a numpy
    warning."""
    bound = PICARD_TOL * float(np.abs(a).max())
    total, term = a.copy(), a[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        for sweep in range(1, PICARD_MAX_ITER + 1):
            term = cum_quad10(apply(term), dx)
            total += term[..., -1]
            moved = float(np.abs(term).max())
            if not math.isfinite(moved):
                raise StepFailure(f"Picard sweep {sweep} overflowed")
            if moved <= bound:
                return total
    raise StepFailure(
        f"Picard iteration moved by {moved:.3g} after {PICARD_MAX_ITER} sweeps"
    )


def march(system: System, a: np.ndarray, x_from: float, x_to: float) -> np.ndarray:
    """Carry coefficients a (shape (columns, 2)) from x_from to x_to on the
    uniform grid, as ``march.march`` does on panels: only the span's
    overlap with ``system.support`` is marched, from the exact phase at its
    start, and a is constant on the rest. Zero data are returned as they
    are."""
    if x_to < x_from:
        raise ValidationError(f"marches left to right only, not {x_from:g} -> {x_to:g}")
    lo, hi = x_from, x_to
    if system.support is not None:
        lo, hi = max(lo, system.support[0]), min(hi, system.support[1])
    if system.support is None or not lo < hi or not a.any():
        return a
    rate = float(system.rate_on(np.array([lo]), np.array([hi]))[0])
    phi = system.phase(lo)
    for x, dx in grids(system.interval, lo, hi, rate, system.coupling, system.h):
        f, (m1, m2) = system.local(x)
        phase = phi + cum_quad10(f, dx)
        osc = np.exp(1j * phase / system.h)
        mu1, mu2 = m1 * osc, m2 * np.conj(osc)
        a = picard(a, dx, lambda v: np.stack((mu1 * v[:, 1], mu2 * v[:, 0]), axis=1))
        phi = phase[-1]
    return a
