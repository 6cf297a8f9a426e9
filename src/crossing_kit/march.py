"""The march: the one solve engine behind every extracted transfer matrix.

Both problem families are marched in the paper's normal form, the
first-order system

    a'(x) = M(x) a(x),   M = [[0, m1 e^{iF/h}], [m2 e^{-iF/h}, 0]],

for two slowly varying coefficients a, with smooth m1, m2 and one real
phase F. The reduced model is this system with F the antiderivative of f
and (m1, m2) = (-i r1, -i r2). The coupled pair reaches it by keeping its
two co-propagating branches and averaging out the other two (see
``schrodinger``); there F is the difference of the corrected WKB phases,
and the crossing at -xi0 is the transpose of the march for +xi0.
Outside the coupling supports M vanishes and a is constant, so the
transfer matrix is read off a at the end of the interval. The oscillatory
integral of ``oscquad`` is an entry of the reduced model's transfer
matrix with r2 = 0.

The march runs left to right only. It carries a unchanged across the
part of its span where M vanishes, and marches only the rest, the span's
overlap with the system's ``support``; the phase at the start of the
marched span comes from the system's exact phase. The mesh is planned in
one pass as Picard chunks, each a uniform grid within CHUNK_BYTES and
int |M| <= PICARD_REACH that takes the widest dx resolving the fastest
phase rate on its own span and one chunk's length on each side with
POINTS_PER_PERIOD nodes per period, so the mesh is coarse where the phase
is stationary and fine where it turns fast; the last chunk is shortened
to end at the span's end. The grid is never built whole.

Chunks are solved in turn, each from the coefficients and phase at the
last node of the one before: per chunk the phase comes from cum_quad10, a
tenth-order rule, of its rate, mu1 = m1 e^{iF/h} and mu2 = m2 e^{-iF/h}
are formed once, and the chunk's propagator U, a(end) = U a(x_0), is the
Neumann series U = I + U_1 + U_2 + ..., U_{k+1} = int M U_k, the
increments of Picard iteration; all integrals start at the chunk's first
node. As M is off-diagonal, the terms U_k are diagonal at even k and
anti-diagonal at odd k, and their nonzero entries form two Neumann chains:
chain 0 is w_0 = 1, w_{k+1} = int mu1 w_k at even k and int mu2 w_k at
odd k, chain 1 the same with mu1 and mu2 swapped. Chain 0's odd terms are
those of U's (0, 1) entry and its even terms those of the (1, 1) entry;
chain 1 gives the (1, 0) and (0, 0) entries. The march sums the even and
odd terms at the chunk's last node apart, U = [[1 + E_0, O_0], [O_1,
1 + E_1]], and sets a <- U a. Where M is skew-Hermitian, mu2 =
-conj(mu1) (a self-adjoint coupling: the pair always, the model when
r1 == r2), chain 1 is (-1)^k times the conjugate of chain 0 and U is in
SU(2), [[1 + conj(E_1), O_0], [-conj(O_0), 1 + E_1]]: each sweep
integrates one row, else two.

The sweeps allocate no array of a chunk's size: the latest term, M times
it and the chains' multipliers live in work arrays allocated once per
march and sized for its longest chunk, numpy and ``cum_quad10`` write
into them, and a is kept only at the chunk's last node.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import cum_quad10
from .errors import StepFailure, ValidationError

# The mesh rule: each chunk resolves the fastest phase rate on and near its
# own span with POINTS_PER_PERIOD nodes per period, and no dx is wider than
# the one that puts N_MIN nodes on the system's interval. With cum_quad10's
# tenth-order rule, 14 points per period keep T within 2.5e-11 of the same
# march at 96 on both corpora. A march has fewer than N_MAX nodes (it walks
# its grid in chunks, so the limit bounds its run time, not its memory).
# The rate bound is read on RATE_PIECES equal pieces of the marched span: a
# chunk's dx is at most the dx of every piece it resolves, and the pieces'
# node count is checked before any planning.
POINTS_PER_PERIOD = 14
N_MIN = 2001
N_MAX = 40_000_000
RATE_PIECES = 128
# The march's working memory: no chunk has more than
# CHUNK_BYTES // _BYTES_PER_NODE nodes, whatever h is. _BYTES_PER_NODE bounds
# the traced peak of a march per node of its longest chunk from above:
# tracemalloc reads about 210 bytes for two chains and 150 for one. It sets
# the chunk length, and so the peak memory, so it is kept above what the
# work arrays take.
CHUNK_BYTES = 2**21
_BYTES_PER_NODE = 1024
# A chunk has at least _MIN_CHUNK_CELLS cells (cum_quad10 needs 10 nodes).
_MIN_CHUNK_CELLS = 10
PICARD_TOL = 1e-14
PICARD_MAX_ITER = 40
# Picard on a chunk contracts at worst like (int |M|)^k / k!. A chunk keeps
# int |M| within PICARD_REACH, the c at which that worst case meets
# PICARD_TOL within half the sweep cap: c^20 / 20! = 1e-14 gives c = 1.657;
# its length is also the reach its dx must resolve (see _plan). On an
# oscillating M it contracts far faster.
PICARD_REACH = (PICARD_TOL * math.factorial(PICARD_MAX_ITER // 2)) ** (
    1.0 / (PICARD_MAX_ITER // 2)
)

logger = logging.getLogger("crossing_kit")


@dataclass(frozen=True)
class System:
    """a' = M a on ``interval``, M = [[0, m1 e^{iF/h}], [m2 e^{-iF/h}, 0]],
    as a problem family supplies it, marched from left to right.

    ``local(x)`` gives the phase rate F' at the nodes x and the smooth
    coefficients (m1, m2) there, each of shape (len(x),).

    ``support`` is the hull of the points where M may be nonzero, or None
    where M vanishes on the whole interval; a is constant outside it.
    ``phase(x)`` gives the exact phase F at the point x. ``rate_on(lo,
    hi)`` bounds |F'| on each [lo[k], hi[k]] of the arrays lo <= hi; it
    sets the mesh and the node budget. ``coupling`` bounds max(|m1|, |m2|);
    it sets the chunk lengths.

    ``skew_hermitian`` states that mu2 = -conj(mu1), so M^H = -M: a fact
    about the equations, set by the family that builds them. The march then
    sums the Neumann terms of each chunk's propagator as one chain instead
    of two (see _picard).
    """

    h: float
    interval: tuple[float, float]
    support: tuple[float, float] | None
    phase: Callable
    rate_on: Callable
    coupling: float
    local: Callable
    skew_hermitian: bool = False


def _chunk_cells(system: System, dx: float) -> int:
    """Cells per Picard chunk of the plan: within CHUNK_BYTES, and with
    int |M| within PICARD_REACH unless that leaves under _MIN_CHUNK_CELLS,
    whatever the coupling strength."""
    cells = CHUNK_BYTES // _BYTES_PER_NODE - 1
    reach = system.coupling * abs(dx)
    # compared before int(): near the underflow limit the ratio is infinite
    if reach > 0.0 and PICARD_REACH / reach < cells:
        cells = int(PICARD_REACH / reach)
    return max(_MIN_CHUNK_CELLS, cells)


def _piece_spacing(system: System, start: float, end: float) -> list[float]:
    """Own dx of each of RATE_PIECES equal pieces of [start, end], left to
    right: POINTS_PER_PERIOD nodes per period 2*pi*h/rate of the piece's
    rate bound, and at least N_MIN nodes on the system's interval. Their
    node count, a lower bound on the plan's, is checked against N_MAX
    before any loop, so an h near the underflow limit is refused at once.
    """
    x_left, x_right = system.interval
    edges = start + (end - start) * np.linspace(0.0, 1.0, RATE_PIECES + 1)
    rate = system.rate_on(edges[:-1], edges[1:])
    # a zero rate, or an h near the underflow limit, makes the ratios
    # infinite: the first leaves the N_MIN cap, the second fails the budget
    with np.errstate(divide="ignore", over="ignore"):
        own = np.minimum(
            (x_right - x_left) / (N_MIN - 1),
            2.0 * np.pi * system.h / (rate * POINTS_PER_PERIOD),
        )
        _check_budget(float(np.sum((end - start) / RATE_PIECES / own)))
    return own.tolist()


def _check_budget(nodes: float) -> None:
    if not nodes < N_MAX:
        raise ValidationError(
            f"grid would need about {nodes:.3g} nodes (> n_max={N_MAX}); "
            "raise h or shrink the interval"
        )


def _plan(system: System, start: float, end: float) -> list[tuple[float, int]]:
    """Picard chunks (dx, cells) that grid [start, end] from left to right.

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
    span = end - start
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


def _chains(system: System) -> int:
    """Neumann chains, the rows one sweep integrates: one where M is
    skew-Hermitian, else two."""
    return 1 if system.skew_hermitian else 2


def _work(system: System, nodes: int) -> tuple[np.ndarray, ...]:
    """_picard's work arrays, flat and complex, for a march on up to
    ``nodes`` nodes: the latest term and M times it, one row per chain,
    and the chains' multipliers, (mu1, mu2) and for a second chain mu1
    again."""
    chains = _chains(system)
    return tuple(
        np.empty(rows * nodes, dtype=complex) for rows in (chains, chains, chains + 1)
    )


def _picard(system: System, a0: np.ndarray, phi0: float, x, dx: float, work):
    """Coefficients at the last of the nodes x from their values a0 at x[0].

    a0 has shape (columns, 2); phi0 is the phase at x[0]; ``work`` comes
    from _work for at least len(x) nodes. Sums the Neumann series of the
    chunk's propagator at the last node (cum_quad10 from x[0]) until its
    term is negligible. Returns (a and the phase at the last node, sweeps).

    Each chain is a fixed row whose multiplier alternates by parity: w_0 =
    1, w_{k+1} = int mu_{(k)} w_k, with mu_{(k)} = mu1, mu2, mu1, ... on
    chain 0 and mu2, mu1, ... on chain 1. For the model chain 0's odd terms
    are gamma+ (gamma- gamma+)^k and its even terms (gamma- gamma+)^k. A
    skew-Hermitian M sweeps chain 0 alone: chain 1 is (-1)^k times its
    conjugate. The sweeps stop once no real or imaginary part of the
    chains' term times max(|Re a0| + |Im a0|) exceeds PICARD_TOL / sqrt(2):
    that bounds every part of the data's own term, the change of the
    Picard iterate a <- a0 + int M a, the same way, so each modulus is
    within PICARD_TOL (both chains' parts are equal up to sign where one
    is swept). Returns U a0 per column; a zero a0 is returned at once. A
    sweep whose change is not finite (an overflow) raises StepFailure at
    once.
    """
    rate, (m1, m2) = system.local(x)
    phase = cum_quad10(rate, dx, initial=phi0)
    scale = float(np.max(np.abs(a0.real) + np.abs(a0.imag)))
    if scale == 0.0:
        return a0, phase[-1], 0
    osc = np.exp(1j * phase / system.h)
    chains, nodes = _chains(system), len(x)
    term, m_term, mu = (
        buf[: rows * nodes].reshape(rows, nodes)
        for buf, rows in zip(work, (chains, chains, chains + 1))
    )
    # mu holds (mu1, mu2), and mu1 again for a second chain: chain c's
    # multiplier at term k is row c + k % 2, so mult[k % 2] holds the
    # chains' multipliers as one contiguous block (numpy would copy a
    # reversed view). The first integrand is mult[0] itself; even and odd
    # terms are summed apart.
    np.multiply(m1, osc, out=mu[0])
    np.multiply(m2, np.conj(osc), out=mu[1])
    if chains == 2:
        mu[2] = mu[0]
    mult = (mu[:chains], mu[1:])
    integrand, sums = mult[0], np.zeros((2, chains), dtype=complex)
    for it in range(1, PICARD_MAX_ITER + 1):
        cum_quad10(integrand, dx, out=term)
        sums[it % 2] += term[:, -1]
        parts = term.view(np.float64)
        moved = max(float(parts.max()), -float(parts.min()))
        change = moved * scale
        if not math.isfinite(change):
            raise StepFailure(
                f"Picard iteration on [{x[0]:g}, {x[-1]:g}] overflowed: sweep "
                f"{it} moved by {change:.3g} (coupling too strong for the mesh)"
            )
        if change <= PICARD_TOL / math.sqrt(2.0):
            break
        np.multiply(mult[it % 2], term, out=m_term)
        integrand = m_term
    else:
        raise StepFailure(
            f"Picard iteration on [{x[0]:g}, {x[-1]:g}] moved by {moved:.3g} "
            f"after {PICARD_MAX_ITER} iterations (coupling too strong for the "
            "mesh)"
        )
    # chain 0 sums O_0 at odd k and E_1 at even k, chain 1 O_1 and E_0
    even, odd = sums
    e1, o0 = even[0], odd[0]
    if system.skew_hermitian:
        e0, o1 = np.conj(e1), -np.conj(o0)
    else:
        e0, o1 = even[1], odd[1]
    u = np.array([[1.0 + e0, o0], [o1, 1.0 + e1]])
    return a0 @ u.T, phase[-1], it


def march(system: System, a: np.ndarray, x_from: float, x_to: float) -> np.ndarray:
    """Carry coefficients a (shape (columns, 2)) from x_from to x_to; the
    march runs left to right only, x_to < x_from raises ValidationError.

    Only the span's overlap with ``system.support`` is marched, from the
    exact phase at its start; a is constant on the rest. The node budget
    is checked before any work, and a span where M vanishes returns a as it
    is. The march solves _plan's Picard chunks in turn. One DEBUG line on
    the ``crossing_kit`` logger reports nodes, the marched span, the
    smallest and largest dx, Picard chunks, the sweeps of all chunks, the
    most any chunk needed and the Neumann rows each sweep integrates
    (_chains). An overflow in a sweep raises StepFailure, without a numpy
    warning.
    Returns the coefficients at x_to.
    """
    if x_to < x_from:
        raise ValidationError(f"marches left to right only, not {x_from:g} -> {x_to:g}")
    lo, hi = x_from, x_to
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
    chunks = _plan(system, lo, hi)
    work = _work(system, max(cells for _, cells in chunks) + 1)
    x, phi, sweeps, worst = lo, system.phase(lo), 0, 0
    # an overflow shows as a non-finite Picard change, which _picard raises
    with np.errstate(over="ignore", invalid="ignore"):
        for dx, cells in chunks:
            nodes = x + dx * np.arange(cells + 1)
            a, phi, iters = _picard(system, a, phi, nodes, dx, work)
            sweeps, worst = sweeps + iters, max(worst, iters)
            x = nodes[-1]
    logger.debug(
        "h=%.6e: marched %d nodes on [%g, %g] (from x=%g to %g), dx %.3g "
        "to %.3g, as %d Picard chunks of %d sweeps, at most %d in a chunk, "
        "%d Neumann rows per sweep",
        system.h,
        sum(cells for _, cells in chunks) + 1,
        lo,
        hi,
        x_from,
        x_to,
        min(dx for dx, _ in chunks),
        max(dx for dx, _ in chunks),
        len(chunks),
        sweeps,
        worst,
        _chains(system),
    )
    return a
