"""The march: the one solve engine behind every extracted transfer matrix.

Both problem families reduce to a linear first-order system

    a'(x) = M(x) a(x)

for slowly varying coefficients a, where M is built from smooth
coefficients and the fast oscillations e^{+-i phi_p(x)/h} of the family's
phases phi_p. The reduced model has one phase, F, and a = (u1, e^{-iF/h} u2);
the coupled pair has the two WKB phases and a its four exact branch
coefficients. Outside the coupling supports M vanishes and a is constant,
so the transfer matrix is read off a at the end of the interval. The
oscillatory integral of ``oscquad`` is the reduced model with r2 = 0,
marched on the model's system for the one column (0, 1).

The march carries a unchanged across the part of its span where M
vanishes, and marches only the rest, the span's overlap with the system's
``support``; the phases at the start of the marched span come from the
system's exact phases. The marched span is cut into chunks in one pass,
each a uniform grid that takes the widest dx resolving the fastest phase
rate on its own span and one chunk's length on each side with
POINTS_PER_PERIOD nodes per period, so the mesh is coarse where the phases
are stationary and fine where they turn fast; the last chunk is
shortened to end at the span's end. The grid is never built whole.
Chunks are solved in turn, each from the coefficients and phases at the
last node of the one before: per chunk the phases come from cum_quad6 of
their rates, and a from Picard iteration a <- a(x_0) + int M a, both
integrals started at the chunk's first node by cum_quad6's ``initial``.

The Picard sweeps allocate no array of a chunk's size: the iterate, the
next iterate, M a and |change| live in work arrays allocated once per
march and sized for its longest chunk, and ``apply`` and ``cum_quad6``
write into them.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import cum_quad6
from .errors import StepFailure, ValidationError

# The mesh rule: each chunk resolves the fastest phase rate on and near its
# own span with POINTS_PER_PERIOD nodes per period, and no dx is wider than
# the one that puts N_MIN nodes on the system's interval. A march has fewer
# than N_MAX nodes (it walks its grid in chunks, so the limit bounds its
# run time, not its memory). The rate bound is read on RATE_PIECES equal
# pieces of the marched span: a chunk's dx is at most the dx of every piece
# it resolves, and the pieces' node count is checked before any planning.
POINTS_PER_PERIOD = 24
N_MIN = 2001
N_MAX = 40_000_000
RATE_PIECES = 128
# The march's working memory: a chunk takes about _BYTES_PER_NODE bytes of
# work arrays per grid node (measured with tracemalloc), so no chunk has
# more than CHUNK_BYTES // _BYTES_PER_NODE nodes, whatever h is.
CHUNK_BYTES = 2**21
_BYTES_PER_NODE = 1024
# Picard on a chunk contracts like (int |M|)^k / k!: chunks are cut so that
# int |M| stays near CHUNK_COUPLING. A chunk has at least _MIN_CHUNK_CELLS
# cells (cum_quad6 needs 6 nodes).
CHUNK_COUPLING = 0.25
_MIN_CHUNK_CELLS = 10
PICARD_TOL = 1e-14
PICARD_MAX_ITER = 40

logger = logging.getLogger("crossing_kit")


@dataclass(frozen=True)
class System:
    """a' = M a on ``interval``, as a problem family supplies it.

    ``local(x)`` gives the phase rates phi_p' at the nodes x, shape
    (phases, len(x)), and the smooth coefficients of M there, in whatever
    form ``apply`` takes. ``apply(coeffs, osc, back, a, out)`` writes M a
    at the nodes into ``out``, with a and out of shape (columns,
    components, nodes) and osc = e^{i phi_p/h}, back = e^{-i phi_p/h} of
    shape (phases, nodes); it may use ``out`` as scratch on the way.

    ``support`` is the hull of the points where M may be nonzero, or None
    where M vanishes on the whole interval; a is constant outside it.
    ``phases(x)`` gives the exact phases phi_p at the point x, shape
    (phases,). ``rate_on(lo, hi)`` bounds max_p |phi_p'| on each
    [lo[k], hi[k]] of the arrays lo <= hi; it sets the mesh and the node
    budget. ``coupling`` bounds the largest row sum of |M|; it sets the
    chunk length.
    """

    h: float
    interval: tuple[float, float]
    support: tuple[float, float] | None
    phases: Callable
    rate_on: Callable
    coupling: float
    local: Callable
    apply: Callable


def _chunk_cells(system: System, dx: float) -> int:
    """Cells per chunk: within CHUNK_BYTES, and short enough for Picard.

    Picard iteration on one chunk contracts like (int |M|)^k / k!. The
    chunk length keeps int |M| near CHUNK_COUPLING, whatever the coupling
    strength.
    """
    cells = CHUNK_BYTES // _BYTES_PER_NODE - 1
    reach = system.coupling * abs(dx)
    # compared before int(): near the underflow limit the ratio is infinite
    if reach > 0.0 and CHUNK_COUPLING / reach < cells:
        cells = int(CHUNK_COUPLING / reach)
    return max(_MIN_CHUNK_CELLS, cells)


def _piece_spacing(system: System, start: float, end: float) -> list[float]:
    """Own |dx| of each of RATE_PIECES equal pieces of [start, end], in
    march order: POINTS_PER_PERIOD nodes per period 2*pi*h/rate of the
    piece's rate bound, and at least N_MIN nodes on the system's interval.
    Their node count, a lower bound on the plan's, is checked against N_MAX
    before any loop, so an h near the underflow limit is refused at once.
    """
    x_left, x_right = system.interval
    edges = start + (end - start) * np.linspace(0.0, 1.0, RATE_PIECES + 1)
    rate = system.rate_on(
        np.minimum(edges[:-1], edges[1:]), np.maximum(edges[:-1], edges[1:])
    )
    # a zero rate, or an h near the underflow limit, makes the ratios
    # infinite: the first leaves the N_MIN cap, the second fails the budget
    with np.errstate(divide="ignore", over="ignore"):
        own = np.minimum(
            (x_right - x_left) / (N_MIN - 1),
            2.0 * np.pi * system.h / (rate * POINTS_PER_PERIOD),
        )
        _check_budget(float(np.sum(abs(end - start) / RATE_PIECES / own)))
    return own.tolist()


def _check_budget(nodes: float) -> None:
    if not nodes < N_MAX:
        raise ValidationError(
            f"grid would need about {nodes:.3g} nodes (> n_max={N_MAX}); "
            "raise h or shrink the interval"
        )


def _plan(system: System, start: float, end: float) -> list[tuple[float, int]]:
    """Chunks (|dx|, cells) that grid [start, end] in march order.

    A chunk at distance u from start takes the widest piece dx that is at
    most the dx of every piece on [u - L, u + 2L], L = _chunk_cells(dx) * dx
    being its length. Where dx steps between chunks, both are then finer
    than their own rates need: a chunk's end cells use one-sided quadrature
    weights, whose error does not cancel along the oscillation as it does
    inside the chunk. A wider dx reaches further, so bisection finds the
    widest. The last chunk ends at ``end``. Raises ValidationError once the
    plan reaches N_MAX nodes, before any work.
    """
    own = _piece_spacing(system, start, end)
    widths = sorted(set(own))
    span = abs(end - start)
    piece = span / RATE_PIECES
    chunks, u, total = [], 0.0, 0

    def too_wide(d: float) -> bool:
        reach = _chunk_cells(system, d) * d
        first = max(0, int((u - reach) / piece))
        return d > min(own[first : int((u + 2.0 * reach) / piece) + 1])

    while True:
        # widths[0] is never too wide: it is the narrowest piece's own dx
        d = widths[bisect.bisect(widths, False, key=too_wide) - 1]
        cells = _chunk_cells(system, d)
        # the running u drifts by rounding: it must not add a cell
        rest = math.ceil((span - u) / d * (1.0 - 1e-9))
        if rest <= cells:
            cells = max(_MIN_CHUNK_CELLS, rest)
            _check_budget(total + cells + 1)
            return chunks + [((span - u) / cells, cells)]
        # leave the last chunk its _MIN_CHUNK_CELLS: then a constant rate
        # marches max(_MIN_CHUNK_CELLS, ceil(span / dx)) cells in all
        cells = min(cells, max(_MIN_CHUNK_CELLS, rest - _MIN_CHUNK_CELLS))
        chunks.append((d, cells))
        u += cells * d
        total += cells
        _check_budget(total + 1)


def _work(shape: tuple[int, int], nodes: int) -> tuple[np.ndarray, ...]:
    """_picard's work arrays, flat, for coefficients of ``shape`` on up to
    ``nodes`` nodes: the iterate, the next one and M a (complex), and
    |change| (float)."""
    size = math.prod(shape) * nodes
    return (*(np.empty(size, dtype=complex) for _ in range(3)), np.empty(size))


def _picard(system: System, a0: np.ndarray, phi0: np.ndarray, x, dx: float, work):
    """Coefficients at the last of the nodes x from their values a0 at x[0].

    a0 has shape (columns, components); phi0 holds the phases at x[0];
    ``work`` comes from _work for at least len(x) nodes. Iterates
    a <- a0 + int M a (cum_quad6) on all the nodes until no entry moves by
    more than PICARD_TOL. Returns (a and the phases at the last node,
    iterations); a is a copy, not a view of ``work``.
    """
    rate, coeffs = system.local(x)
    phase = cum_quad6(rate, dx, initial=phi0)
    osc = np.exp(1j * phase / system.h)
    back = np.conj(osc)
    shape = a0.shape + (len(x),)
    a, new, m_a, change = (buf[: a0.size * len(x)].reshape(shape) for buf in work)
    a[...] = a0[:, :, None]
    for it in range(1, PICARD_MAX_ITER + 1):
        system.apply(coeffs, osc, back, a, m_a)
        cum_quad6(m_a, dx, out=new, initial=a0)
        np.subtract(new, a, out=a)  # the old iterate is spent: a = new - a
        moved = float(np.abs(a, out=change).max())
        a, new = new, a
        if moved <= PICARD_TOL:
            return a[:, :, -1].copy(), phase[:, -1], it
    raise StepFailure(
        f"Picard iteration on [{x[0]:g}, {x[-1]:g}] moved by {moved:.3g} "
        f"after {PICARD_MAX_ITER} iterations (coupling too strong for the "
        "mesh)"
    )


def march(system: System, a: np.ndarray, x_from: float, x_to: float) -> np.ndarray:
    """Carry coefficients a (shape (columns, components)) from x_from to x_to.

    Only the span's overlap with ``system.support`` is marched, from the
    exact phases at its start; a is constant on the rest. The node budget
    is checked before any work (see _plan for the grid), and a span where M
    vanishes returns a as it is. One DEBUG line on the ``crossing_kit``
    logger reports nodes, the marched span, chunks, the smallest and
    largest dx and the most Picard iterations. Returns the coefficients at
    x_to.
    """
    lo, hi = sorted((x_from, x_to))
    if system.support is not None:
        lo, hi = max(lo, system.support[0]), min(hi, system.support[1])
    if system.support is None or not lo < hi:
        logger.debug(
            "h=%.6e: M vanishes from x=%g to %g, nothing marched",
            system.h,
            x_from,
            x_to,
        )
        return a
    start, end = (lo, hi) if x_to > x_from else (hi, lo)
    plan = _plan(system, start, end)
    work = _work(a.shape, max(cells for _, cells in plan) + 1)
    direction = 1.0 if end > start else -1.0
    x, phi, worst = start, system.phases(start), 0
    for dx, cells in plan:
        nodes = x + direction * dx * np.arange(cells + 1)
        a, phi, iters = _picard(system, a, phi, nodes, direction * dx, work)
        worst = max(worst, iters)
        x = nodes[-1]
    logger.debug(
        "h=%.6e: marched %d nodes on [%g, %g] (from x=%g to %g) in %d chunks, "
        "dx %.3g to %.3g, at most %d Picard iterations",
        system.h,
        sum(cells for _, cells in plan) + 1,
        lo,
        hi,
        x_from,
        x_to,
        len(plan),
        min(dx for dx, _ in plan),
        max(dx for dx, _ in plan),
        worst,
    )
    return a
