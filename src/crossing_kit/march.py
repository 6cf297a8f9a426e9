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
system's exact phases. The mesh is planned in one pass as segments, each
a uniform grid that takes the widest dx resolving the fastest phase rate
on its own span and one segment's length on each side with
POINTS_PER_PERIOD nodes per period, so the mesh is coarse where the phases
are stationary and fine where they turn fast; the last segment is
shortened to end at the span's end, and takes the dx of the one before
where the two differ by rounding alone. The grid is never built whole.

The solve is cut apart from the mesh: each run of consecutive segments of
one dx is solved as one Picard chunk, cut only where it would outgrow
CHUNK_BYTES or PICARD_REACH. Chunks are solved in turn, each from the
coefficients and phases at the last node of the one before: per chunk
the phases come from cum_quad10, a tenth-order rule, of their rates, and a from the Neumann
series a = D_0 + D_1 + ..., D_0 = a(x_0) and D_{k+1} = int M D_k, the
increments of Picard iteration a <- a(x_0) + int M a; all integrals start
at the chunk's first node.

Where M is off-diagonal, M = [[0, mu1], [mu2, 0]] (the reduced model),
the terms of the chunk's propagator U, a(end) = U a(x_0), are diagonal at
even order and anti-diagonal at odd order, and their nonzero entries form
two Neumann chains, whatever the columns of a: chain 0 is w_0 = 1,
w_{k+1} = int mu1 w_k at even k and int mu2 w_k at odd k, chain 1 the
same with mu1 and mu2 swapped. Chain 0's odd terms are those of U's
(0, 1) entry and its even terms those of the (1, 1) entry; chain 1 gives
the (1, 0) and (0, 0) entries. The march sums the even and odd terms at
the chunk's last node apart, U = [[1 + E_0, O_0], [O_1, 1 + E_1]], and
sets a <- U a. Where M is also skew-Hermitian, mu2 = -conj(mu1) (a
self-adjoint coupling), chain 1 is (-1)^k times the conjugate of chain 0
and U is in SU(2), [[1 + conj(E_1), O_0], [-conj(O_0), 1 + E_1]]: each
sweep integrates one row, else two. A general M (the coupled pair)
sweeps the columns of a themselves, columns x components rows.

The sweeps allocate no array of a chunk's size: the latest increment,
M D and the chains' multipliers live in work arrays allocated once per
march and sized for its longest chunk, ``apply`` and ``cum_quad10`` write
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
# The march's working memory: no segment or chunk has more than
# CHUNK_BYTES // _BYTES_PER_NODE nodes, whatever h is. _BYTES_PER_NODE bounds
# the traced peak of a march per node of its longest chunk from above:
# tracemalloc reads about 530 bytes for the pair's columns, 210 for the
# model's two chains and 150 for its one. It sets the chunk length, and so
# the peak memory, so it is kept above what the work arrays take.
CHUNK_BYTES = 2**21
_BYTES_PER_NODE = 1024
# The plan's segment length keeps int |M| near CHUNK_COUPLING, which sets
# the reach a segment's dx must resolve (see _plan). A segment has at least
# _MIN_CHUNK_CELLS cells (cum_quad10 needs 10 nodes).
CHUNK_COUPLING = 0.25
_MIN_CHUNK_CELLS = 10
PICARD_TOL = 1e-14
PICARD_MAX_ITER = 40
# Picard on a chunk contracts at worst like (int |M|)^k / k!. A chunk of
# several segments keeps int |M| within PICARD_REACH, the c at which that
# worst case meets PICARD_TOL within half the sweep cap: c^20 / 20! = 1e-14
# gives c = 1.657. On an oscillating M it contracts far faster.
PICARD_REACH = (PICARD_TOL * math.factorial(PICARD_MAX_ITER // 2)) ** (
    1.0 / (PICARD_MAX_ITER // 2)
)

logger = logging.getLogger("crossing_kit")


@dataclass(frozen=True)
class System:
    """a' = M a on ``interval``, as a problem family supplies it.

    ``local(x)`` gives the phase rates phi_p' at the nodes x, shape
    (phases, len(x)), and the smooth coefficients of M there, in whatever
    form ``apply`` takes. ``apply(coeffs, osc, back, a, out)`` writes M a
    at the nodes into ``out``, with out of shape (columns, components,
    nodes), a of that shape or with one node (a constant, broadcast), and
    osc = e^{i phi_p/h}, back = e^{-i phi_p/h} of shape (phases, nodes); it
    may use ``out`` as scratch on the way.

    ``support`` is the hull of the points where M may be nonzero, or None
    where M vanishes on the whole interval; a is constant outside it.
    ``phases(x)`` gives the exact phases phi_p at the point x, shape
    (phases,). ``rate_on(lo, hi)`` bounds max_p |phi_p'| on each
    [lo[k], hi[k]] of the arrays lo <= hi; it sets the mesh and the node
    budget. ``coupling`` bounds the largest row sum of |M|; it sets the
    segment and chunk lengths.

    ``off_diagonal`` states that M = [[0, mu1], [mu2, 0]] everywhere, with
    two components, and ``skew_hermitian`` that M is off-diagonal with
    mu2 = -conj(mu1), so M^H = -M: facts about the equations, set by the
    family that builds them. The march then sums the Neumann terms of
    each chunk's propagator as two chains, or as one chain where M is
    skew-Hermitian (see _picard), and calls ``apply`` once per chunk, on
    the constant column (1, 1), for (mu1, mu2).
    """

    h: float
    interval: tuple[float, float]
    support: tuple[float, float] | None
    phases: Callable
    rate_on: Callable
    coupling: float
    local: Callable
    apply: Callable
    off_diagonal: bool = False
    skew_hermitian: bool = False

    def __post_init__(self):
        if self.skew_hermitian and not self.off_diagonal:
            raise ValueError("a skew-Hermitian System must be off-diagonal")


def _chunk_cells(system: System, dx: float) -> int:
    """Cells per segment of the plan: within CHUNK_BYTES, and with int |M|
    near CHUNK_COUPLING, whatever the coupling strength."""
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
    """Segments (|dx|, cells) that grid [start, end] in march order.

    A segment at distance u from start takes the widest piece dx that is at
    most the dx of every piece on [u - L, u + 2L], L = _chunk_cells(dx) * dx
    being its length. Where dx steps between segments, both are then finer
    than their own rates need: a chunk's end cells use one-sided quadrature
    weights, whose error does not cancel along the oscillation as it does
    inside the chunk. A wider dx reaches further, so bisection finds the
    widest. The last segment ends at ``end``; where its dx differs from the
    one before by rounding alone (1e-12 relative), it takes that dx, so a
    run of equal dx is one Picard chunk and the plan still tiles the span
    to 1e-12. Raises ValidationError once the plan reaches N_MAX nodes,
    before any work.
    """
    own = _piece_spacing(system, start, end)
    widths = sorted(set(own))
    span = abs(end - start)
    piece = span / RATE_PIECES
    segments, u, total = [], 0.0, 0

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
            last = (span - u) / cells
            if segments and abs(last - segments[-1][0]) <= 1e-12 * last:
                last = segments[-1][0]
            return segments + [(last, cells)]
        # leave the last segment its _MIN_CHUNK_CELLS: then a constant rate
        # marches max(_MIN_CHUNK_CELLS, ceil(span / dx)) cells in all
        cells = min(cells, max(_MIN_CHUNK_CELLS, rest - _MIN_CHUNK_CELLS))
        segments.append((d, cells))
        u += cells * d
        total += cells
        _check_budget(total + 1)


def _chunks(system: System, plan: list[tuple[float, int]]) -> list[tuple[float, int]]:
    """Picard chunks (|dx|, cells) in march order: each a run of consecutive
    segments of the plan with one dx, cut before a segment that would take
    it past CHUNK_BYTES or past int |M| = PICARD_REACH. A segment that is
    past PICARD_REACH on its own is a chunk of its own."""
    most = CHUNK_BYTES // _BYTES_PER_NODE - 1
    chunks = []
    for dx, cells in plan:
        if chunks and chunks[-1][0] == dx:
            merged = chunks[-1][1] + cells
            if merged <= most and system.coupling * merged * dx <= PICARD_REACH:
                chunks[-1] = (dx, merged)
                continue
        chunks.append((dx, cells))
    return chunks


def _rows(system: System, a: np.ndarray) -> tuple[int, ...]:
    """Shape of the Neumann rows one sweep integrates: the chains of the
    propagator's terms where M is off-diagonal, one where it is also
    skew-Hermitian, else the columns of a."""
    if system.off_diagonal:
        return (1, 1 if system.skew_hermitian else 2)
    return a.shape


def _work(system: System, a: np.ndarray, nodes: int) -> tuple[np.ndarray, ...]:
    """_picard's work arrays, flat and complex, for the march of a on up to
    ``nodes`` nodes: the latest increment and M D of _rows(system, a), and
    where M is off-diagonal the chains' multipliers, (mu1, mu2) and for a
    second chain mu1 again."""
    rows = _rows(system, a)
    work = [np.empty(math.prod(rows) * nodes, dtype=complex) for _ in range(2)]
    if system.off_diagonal:
        work.append(np.empty((rows[1] + 1) * nodes, dtype=complex))
    return tuple(work)


def _picard(system: System, a0: np.ndarray, phi0: np.ndarray, x, dx: float, work):
    """Coefficients at the last of the nodes x from their values a0 at x[0].

    a0 has shape (columns, components); phi0 holds the phases at x[0];
    ``work`` comes from _work for a0 on at least len(x) nodes. Sums a
    Neumann series at the last node (cum_quad10 from x[0]) until its term
    is negligible. Returns (a and the phases at the last node, sweeps).

    A general M sweeps D_0 = a0, D_{k+1} = int M D_k, the changes of the
    Picard iterates a <- a0 + int M a, until no real or imaginary part of
    D_k exceeds PICARD_TOL / sqrt(2), so each modulus is within
    PICARD_TOL. An off-diagonal M sweeps the chains of its propagator's
    terms, each a fixed row whose multiplier alternates by parity: w_0 =
    1, w_{k+1} = int mu_{(k)} w_k, with mu_{(k)} = mu1, mu2, mu1, ... on
    chain 0 and mu2, mu1, ... on chain 1. For the model chain 0's odd
    terms are gamma+ (gamma- gamma+)^k and its even terms (gamma-
    gamma+)^k. A skew-Hermitian M sweeps chain 0 alone: chain 1 is (-1)^k
    times its conjugate. The sweeps stop once the largest part of the
    chains' term times max(|Re a0| + |Im a0|) is within PICARD_TOL /
    sqrt(2), which bounds the parts of D_k(a0) as above (both chains'
    parts are equal up to sign where one is swept), and return U a0 per
    column; a zero a0 is returned at once. A sweep whose change is not
    finite (an overflow) raises StepFailure at once.
    """
    rate, coeffs = system.local(x)
    phase = cum_quad10(rate, dx, initial=phi0)
    off = system.off_diagonal
    scale = float(np.max(np.abs(a0.real) + np.abs(a0.imag))) if off else 1.0
    if scale == 0.0:
        return a0, phase[:, -1], 0
    osc = np.exp(1j * phase / system.h)
    back = np.conj(osc)
    shape = _rows(system, a0) + (len(x),)
    term, m_d = (buf[: math.prod(shape)].reshape(shape) for buf in work[:2])
    if off:
        # mu holds M (1, 1) = (mu1, mu2), and mu1 again for a second chain:
        # chain c's multiplier at term k is row c + k % 2, so mult[k % 2]
        # holds the chains' multipliers as one contiguous block (numpy would
        # copy a reversed view). The first integrand is mult[0] itself; even
        # and odd terms are summed apart.
        chains = shape[1]
        mu = work[2][: (chains + 1) * len(x)].reshape(1, chains + 1, len(x))
        ones = np.ones((1, 2, 1), dtype=complex)
        system.apply(coeffs, osc, back, ones, mu[:, :2])
        if chains == 2:
            mu[:, 2] = mu[:, 0]
        mult = (mu[:, :chains], mu[:, 1:])
        integrand, sums = mult[0], np.zeros((2, 1, chains), dtype=complex)
    else:
        system.apply(coeffs, osc, back, a0[:, :, None], m_d)
        integrand, sums = m_d, a0.astype(complex)[None]
    for it in range(1, PICARD_MAX_ITER + 1):
        cum_quad10(integrand, dx, out=term)
        sums[it % len(sums)] += term[:, :, -1]
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
        if off:
            np.multiply(mult[it % 2], term, out=m_d)
        else:
            system.apply(coeffs, osc, back, term, m_d)
        integrand = m_d
    else:
        raise StepFailure(
            f"Picard iteration on [{x[0]:g}, {x[-1]:g}] moved by {moved:.3g} "
            f"after {PICARD_MAX_ITER} iterations (coupling too strong for the "
            "mesh)"
        )
    if not off:
        return sums[0], phase[:, -1], it
    # chain 0 sums O_0 at odd k and E_1 at even k, chain 1 O_1 and E_0
    (even,), (odd,) = sums
    e1, o0 = even[0], odd[0]
    if system.skew_hermitian:
        e0, o1 = np.conj(e1), -np.conj(o0)
    else:
        e0, o1 = even[1], odd[1]
    u = np.array([[1.0 + e0, o0], [o1, 1.0 + e1]])
    return a0 @ u.T, phase[:, -1], it


def march(system: System, a: np.ndarray, x_from: float, x_to: float) -> np.ndarray:
    """Carry coefficients a (shape (columns, components)) from x_from to x_to.

    Only the span's overlap with ``system.support`` is marched, from the
    exact phases at its start; a is constant on the rest. The node budget
    is checked before any work, and a span where M vanishes returns a as it
    is. The mesh is _plan's segments; each run of segments of one dx is
    solved as one Picard chunk, within CHUNK_BYTES and int |M| <=
    PICARD_REACH (_chunks). One DEBUG line on the ``crossing_kit`` logger
    reports nodes, the marched span, segments, the smallest and largest
    dx, Picard chunks, the sweeps of all chunks, the most any chunk
    needed and the Neumann rows each sweep integrates (_rows). An
    overflow in a sweep raises StepFailure, without a numpy warning.
    Returns the coefficients at x_to.
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
    chunks = _chunks(system, plan)
    work = _work(system, a, max(cells for _, cells in chunks) + 1)
    direction = 1.0 if end > start else -1.0
    x, phi, sweeps, worst = start, system.phases(start), 0, 0
    # an overflow shows as a non-finite Picard change, which _picard raises
    with np.errstate(over="ignore", invalid="ignore"):
        for dx, cells in chunks:
            nodes = x + direction * dx * np.arange(cells + 1)
            a, phi, iters = _picard(system, a, phi, nodes, direction * dx, work)
            sweeps, worst = sweeps + iters, max(worst, iters)
            x = nodes[-1]
    logger.debug(
        "h=%.6e: marched %d nodes on [%g, %g] (from x=%g to %g) in %d "
        "segments, dx %.3g to %.3g, as %d Picard chunks of %d sweeps, at "
        "most %d in a chunk, %d Neumann rows per sweep",
        system.h,
        sum(cells for _, cells in plan) + 1,
        lo,
        hi,
        x_from,
        x_to,
        len(plan),
        min(dx for dx, _ in plan),
        max(dx for dx, _ in plan),
        len(chunks),
        sweeps,
        worst,
        math.prod(_rows(system, a)),
    )
    return a
