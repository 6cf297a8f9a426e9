"""The march: the one solve engine behind every extracted transfer matrix.

Both problem families reduce to a linear first-order system

    a'(x) = M(x) a(x)

for slowly varying coefficients a, where M is built from smooth
coefficients and the fast oscillations e^{+-i phi_p(x)/h} of the family's
phases phi_p. The reduced model has one phase, F, and a = (u1, e^{-iF/h} u2);
the coupled pair has the two WKB phases and a its four exact branch
coefficients. Outside the coupling supports M vanishes and a is constant,
so the transfer matrix is read off a at the end of the interval. A third
system is the oscillatory integral of ``oscquad``: a = (I, 1) with
I' = amp e^{iF/h}.

The march walks a uniform grid that resolves the fastest phase of M with
POINTS_PER_PERIOD nodes; it is never built whole. Chunks of it are solved
in turn, each from the coefficients and phases at the last node of the one
before: per chunk the phases come from cum_quad6 of their rates, and a from
Picard iteration a <- a(x_0) + int M a.

The Picard sweeps allocate no array of a chunk's size: the iterate, the
next iterate, M a and |change| live in work arrays allocated once per
march and sized for its longest chunk, and ``apply`` and ``cum_quad6``
write into them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import cum_quad6
from .errors import StepFailure, ValidationError

# The mesh rule: the grid resolves the fastest phase with POINTS_PER_PERIOD
# nodes per period, has at least N_MIN nodes and fewer than N_MAX (the
# march walks a grid in chunks, so the limit bounds its run time, not its
# memory).
POINTS_PER_PERIOD = 24
N_MIN = 2001
N_MAX = 40_000_000
# The march's working memory: a chunk takes about _BYTES_PER_NODE bytes of
# work arrays per grid node (measured with tracemalloc), so no chunk has
# more than CHUNK_BYTES // _BYTES_PER_NODE nodes, whatever h is.
CHUNK_BYTES = 2**21
_BYTES_PER_NODE = 1024
# Picard on a chunk contracts like (int |M|)^k / k!: chunks are cut so that
# int |M| stays near CHUNK_COUPLING. A chunk has at least _MIN_CHUNK_CELLS
# cells (cum_quad6 needs 6 nodes, and the even split may halve a chunk).
CHUNK_COUPLING = 0.25
_MIN_CHUNK_CELLS = 10
PICARD_TOL = 1e-14
PICARD_MAX_ITER = 40

logger = logging.getLogger("crossing_kit")


def grid_spacing(x_left: float, x_right: float, max_rate: float, h: float) -> float:
    """Mesh width on [x_left, x_right], checked against ``N_MAX``.

    The mesh resolves the local period 2*pi*h/max_rate with at least
    POINTS_PER_PERIOD nodes and has at least ``N_MIN`` nodes. Raises
    ValidationError when it would need ``N_MAX`` nodes or more, before any
    work starts.
    """
    dx_target = (x_right - x_left) / (N_MIN - 1)
    if max_rate > 0:
        dx_osc = 2.0 * np.pi * h / (max_rate * POINTS_PER_PERIOD)
        dx_target = min(dx_target, dx_osc)
    # compare in floats before any int(): for h near the underflow limit the
    # node count is infinite; the estimate never exceeds the exact count
    estimate = (x_right - x_left) / dx_target if dx_target > 0 else np.inf
    if not estimate < N_MAX:
        raise ValidationError(
            f"grid would need about {estimate:.3g} nodes (> n_max={N_MAX}); "
            "raise h or shrink the interval"
        )
    return dx_target


@dataclass(frozen=True)
class System:
    """a' = M a on ``interval``, as a problem family supplies it.

    ``local(x)`` gives the phase rates phi_p' at the nodes x, shape
    (phases, len(x)), and the smooth coefficients of M there, in whatever
    form ``apply`` takes. ``apply(coeffs, osc, back, a, out)`` writes M a
    at the nodes into ``out``, with a and out of shape (columns,
    components, nodes) and osc = e^{i phi_p/h}, back = e^{-i phi_p/h} of
    shape (phases, nodes); it may use ``out`` as scratch on the way.

    ``fastest`` bounds the fastest phase rate of M on the interval; it sets
    the mesh and the node budget. ``coupling`` bounds the largest row sum
    of |M|; it sets the chunk length.
    """

    h: float
    interval: tuple[float, float]
    fastest: float
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
    if reach > 0.0:
        cells = min(cells, int(CHUNK_COUPLING / reach))
    return max(_MIN_CHUNK_CELLS, cells)


def _work(shape: tuple[int, int], nodes: int) -> tuple[np.ndarray, ...]:
    """_picard's work arrays, flat, for coefficients of ``shape`` on up to
    ``nodes`` nodes: the iterate, the next one and M a (complex), and
    |change| (float)."""
    size = math.prod(shape) * nodes
    return (*(np.empty(size, dtype=complex) for _ in range(3)), np.empty(size))


def _picard(
    system: System, a0: np.ndarray, phi0: np.ndarray, x, dx: float, work
):
    """Coefficients at the last of the nodes x from their values a0 at x[0].

    a0 has shape (columns, components); phi0 holds the phases at x[0];
    ``work`` comes from _work for at least len(x) nodes. Iterates
    a <- a0 + int M a (cum_quad6) on all the nodes until no entry moves by
    more than PICARD_TOL. Returns (a and the phases at the last node,
    iterations); a is a copy, not a view of ``work``.
    """
    rate, coeffs = system.local(x)
    phase = phi0[:, None] + cum_quad6(rate, dx).real
    osc = np.exp(1j * phase / system.h)
    back = np.conj(osc)
    shape = a0.shape + (len(x),)
    a, new, m_a, change = (buf[: a0.size * len(x)].reshape(shape) for buf in work)
    a[...] = a0[:, :, None]
    for it in range(1, PICARD_MAX_ITER + 1):
        system.apply(coeffs, osc, back, a, m_a)
        cum_quad6(m_a, dx, out=new)
        # row by row: adding a0[:, :, None] at once would take ufunc buffers
        # as large as the chunk
        for row, start in zip(new.reshape(-1, len(x)), a0.flat):
            row += start
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


def march(
    system: System, a: np.ndarray, phi: np.ndarray, x_from: float, x_to: float
) -> np.ndarray:
    """Carry coefficients a (shape (columns, components)) from x_from to x_to.

    ``phi`` holds the phases at x_from. The node budget of the grid is
    checked before any work; a span shorter than _MIN_CHUNK_CELLS cells of
    the grid is marched on _MIN_CHUNK_CELLS finer cells, and an empty span
    returns a as it is. One DEBUG line on the ``crossing_kit`` logger
    reports nodes, chunks and the most Picard iterations. Returns the
    coefficients at x_to.
    """
    if x_to == x_from:
        return a
    dx = grid_spacing(*system.interval, system.fastest, system.h)
    cells = max(_MIN_CHUNK_CELLS, math.ceil(abs(x_to - x_from) / dx))
    dx = (x_to - x_from) / cells
    chunks = math.ceil(cells / _chunk_cells(system, dx))
    # even split: every chunk has at least _MIN_CHUNK_CELLS // 2 cells and
    # at most ceil(cells / chunks)
    work = _work(a.shape, math.ceil(cells / chunks) + 1)
    worst = 0
    for c in range(chunks):
        k = np.arange(c * cells // chunks, (c + 1) * cells // chunks + 1)
        a, phi, iters = _picard(system, a, phi, x_from + dx * k, dx, work)
        worst = max(worst, iters)
    logger.debug(
        "h=%.6e: marched %d nodes from x=%g in %d chunks, at most %d Picard "
        "iterations",
        system.h,
        cells + 1,
        x_from,
        chunks,
        worst,
    )
    return a
