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

The march runs left to right only. It carries a unchanged where M
vanishes and marches the rest, the span's overlap with the system's
``support``, on panels of PANEL_POINTS Chebyshev points, cut from the
System's ``local`` alone (_segments): a candidate within PICARD_REACH is
a direct panel where mu1 = m1 e^{iF/h} and mu2 = m2 e^{-iF/h}, the phase
taken from its left edge, are resolved by its points, else a Levin panel
where F', 1/F', m1 and m2 are resolved, F' keeps its sign and e^{iF/h}
is not; the rest split in halves, _MAX_DEPTH levels deep at most. Direct
panels cover the stationary zone, where the phase turns slowly, and Levin
panels the outer pieces, where it turns fast (the split of Agocs &
Barnett, arXiv:2212.06924); their count is set by the smoothness of m1,
m2 and F', not by h. Each segment starts from the system's exact phase.

The propagator U of a chunk or a panel, a(end) = U a(x_0), is the
Neumann series U = I + U_1 + U_2 + ..., U_{k+1} = int M U_k, the
increments of Picard iteration, all integrals from its start. As M is off-diagonal,
the terms U_k are diagonal at even k and anti-diagonal at odd k, and
their nonzero entries form two Neumann chains: chain 0 is w_0 = 1,
w_{k+1} = int mu1 w_k at even k and int mu2 w_k at odd k, chain 1 the
same with mu1 and mu2 swapped. Chain 0's odd terms are those of U's
(0, 1) entry and its even terms those of the (1, 1) entry; chain 1 gives
the (1, 0) and (0, 0) entries. The march sums the even and odd terms at
the end apart, U = [[1 + E_0, O_0], [O_1, 1 + E_1]], and sets a <- U a. Where M is skew-Hermitian, mu2 = -conj(mu1) (a self-adjoint
coupling: the pair always, the model when r1 == r2), chain 1 is (-1)^k
times the conjugate of chain 0 and U is in SU(2), [[1 + conj(E_1), O_0],
[-conj(O_0), 1 + E_1]]: each sweep integrates one row, else two.

Each panel's propagator is solved from its own left edge by _levin (the
judge keeps every panel within PICARD_REACH), the panels of a segment in
batches that bound the memory, at most CHUNK_BYTES // _BYTES_PER_PANEL,
each swept at once; the segment's propagator is the ordered product of
its panels'. On a panel a chain's term is S + e^{+-iF/h} B, with the
sign of its multiplier, and B = 0 on a direct panel. The next term's S
is int mu S on a direct panel and int m B on a Levin one, by the panel's
Clenshaw-Curtis cumulative matrix (Greengard, SIAM J. Numer. Anal. 28
(1991)); on a Levin panel its B solves the Levin collocation (D +- i
F'/h) B = m S (Levin, Math. Comp. 38 (1982); Olver, IMA J. Numer. Anal.
26 (2006)), whose matrix is inverted once per panel. e^{iF/h} at the
panel edges is chained from the segment's first phase by the panels'
integrals of F'.

The uniform plan marches what the split leaves unresolved on its last
level (near the crossing at h below about 1e-8), so that an h near the
underflow limit is refused by N_MAX, and, alone and from the exact phase
at its start, a Levin panel whose first Levin solution is not resolved.
It is one pass of Picard chunks (_plan), each
a uniform grid within CHUNK_BYTES and PICARD_REACH whose dx resolves the
fastest phase rate on its own span and one chunk's length on each side
with POINTS_PER_PERIOD nodes per period, or ZONE_POINTS_PER_PERIOD next
to panels, where the end cells' one-sided rules do not cancel along the
oscillation. Its chunks are solved in turn (_picard), the phase by
cum_quad10, a tenth-order rule, in work arrays allocated once per march.
"""

from __future__ import annotations

import bisect
import functools
import logging
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._kernels import cum_quad10
from .errors import StepFailure, ValidationError

# The mesh rule: each chunk resolves the fastest phase rate on and near its
# own span with POINTS_PER_PERIOD nodes per period, and no dx is wider than
# the one that puts N_MIN nodes on the system's interval. With cum_quad10's
# tenth-order rule, 14 points per period keep T within 2.5e-11 of the same
# march at 96 on both corpora. A march steps fewer than N_MAX nodes
# uniformly (it walks its grid in chunks, so the limit bounds its run time,
# not its memory).
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

# A panel's data are resolved when their last _TAIL Chebyshev coefficients
# are within _TAIL_TOL of their scales (the coupling bound, max |F'| and
# max |1/F'|), and so is a Levin panel's first solution, against the
# largest of its batch. The pair's F' is a difference of numbers near E0: on
# schrodinger-corpus 1 at h = 1e-8 its tail reads 5.7e-14 of max |F'| on
# [0.0125, 0.025] from rounding alone. Where e^{iF/h} is nearly resolved,
# so is the Levin matrix's homogeneous solution e^{-iF/h}, and the matrix
# nears singular (condition number about 1e3 over the tail of e^{iF/h}): a
# Levin panel's e^{iF/h} has a tail of _UNRESOLVED at least, about 50
# radians of phase (no first Levin solution on the corpora and the random
# models failed its check from h = 1e-1 to 1e-8; with a bound of 1e-2, one
# did). The split starts from _FIRST_PIECES equal pieces and goes
# _MAX_DEPTH levels deep, so no panel is shorter than 2^-12 of the span.
# The first _judge call takes _LEVELS[0] levels, each later one _LEVELS[1]:
# a call costs about as much as 40 candidates, and the pieces left after
# the first call mostly settle on their first level. _BYTES_PER_PANEL
# bounds the traced peak of a panel batch per panel from above:
# tracemalloc reads about 50 kB.
PANEL_POINTS = 32
ZONE_POINTS_PER_PERIOD = 40
_BYTES_PER_PANEL = 2**16
_TAIL = 4
_TAIL_TOL = 1e-12
_UNRESOLVED = 0.1
_FIRST_PIECES = 8
_MAX_DEPTH = 9
_LEVELS = (3, 2)

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


def _spacing(system: System, lo, hi, points: int) -> np.ndarray:
    """The uniform march's own dx on each [lo[k], hi[k]]: ``points`` nodes
    per period 2*pi*h/rate of its rate bound, and at least N_MIN nodes on
    the system's interval. A zero rate gives the N_MIN cap, an h near the
    underflow limit a dx of 0."""
    x_left, x_right = system.interval
    rate = system.rate_on(lo, hi)
    with np.errstate(divide="ignore", over="ignore"):
        return np.minimum(
            (x_right - x_left) / (N_MIN - 1),
            2.0 * np.pi * system.h / (rate * points),
        )


def _piece_spacing(system: System, start: float, end: float) -> list[float]:
    """_spacing of each of RATE_PIECES equal pieces of [start, end], left
    to right. Their node count, a lower bound on the plan's, is checked
    against N_MAX before any loop, so an h near the underflow limit is
    refused at once.
    """
    edges = start + (end - start) * np.linspace(0.0, 1.0, RATE_PIECES + 1)
    own = _spacing(system, edges[:-1], edges[1:], POINTS_PER_PERIOD)
    # an h near the underflow limit makes the ratios infinite
    with np.errstate(divide="ignore", over="ignore"):
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
        if _stops(moved, scale, it, x[0], x[-1]):
            break
        np.multiply(mult[it % 2], term, out=m_term)
        integrand = m_term
    return a0 @ _propagator(system, sums).T, phase[-1], it


def _stops(moved: float, scale: float, it: int, start: float, end: float) -> bool:
    """Whether Picard iteration on [start, end] stops after sweep ``it``,
    whose term moved by ``moved`` per unit of the data's ``scale``: once
    the change is within PICARD_TOL / sqrt(2). A change that is not finite
    (an overflow) raises StepFailure at once, and so does a sweep cap of
    PICARD_MAX_ITER reached without the stop."""
    change = moved * scale
    if not math.isfinite(change):
        raise StepFailure(
            f"Picard iteration on [{start:g}, {end:g}] overflowed: sweep "
            f"{it} moved by {change:.3g} (coupling too strong for the mesh)"
        )
    if change <= PICARD_TOL / math.sqrt(2.0):
        return True
    if it == PICARD_MAX_ITER:
        raise StepFailure(
            f"Picard iteration on [{start:g}, {end:g}] moved by {moved:.3g} "
            f"after {PICARD_MAX_ITER} iterations (coupling too strong for the "
            "mesh)"
        )
    return False


def _propagator(system: System, sums: np.ndarray) -> np.ndarray:
    """Propagators U, of shape (..., 2, 2), from the chains' even and odd
    terms summed at their ends, ``sums`` of shape (2, chains, ...)."""
    # chain 0 sums O_0 at odd k and E_1 at even k, chain 1 O_1 and E_0
    even, odd = sums
    e1, o0 = even[0], odd[0]
    if system.skew_hermitian:
        e0, o1 = np.conj(e1), -np.conj(o0)
    else:
        e0, o1 = even[1], odd[1]
    return np.moveaxis(np.array([[1.0 + e0, o0], [o1, 1.0 + e1]]), (0, 1), (-2, -1))


def _cheb() -> tuple[np.ndarray, ...]:
    """PANEL_POINTS Chebyshev points of the second kind on [-1, 1],
    increasing, and four matrices that act on values there: the
    cumulative integral from -1 (Clenshaw-Curtis), the derivative and,
    for rows of complex values seen as (re, im) pairs, the map to the last
    _TAIL Chebyshev coefficients and the transposed cumulative integral:
    real products, whatever the row count, where a complex one of 64 rows
    or more can stall in a threaded BLAS. Built at first use and kept
    read-only in _CHEB; threads that build them at once all get the one
    tuple stored first."""
    key = (PANEL_POINTS, _TAIL)
    matrices = _CHEB.get(key)
    if matrices is None:
        n = PANEL_POINTS
        k = np.arange(n)
        angle = np.pi * k[::-1] / (n - 1)
        # values to coefficients: the discrete cosine transform of the
        # second-kind points; T_j at the points is cos(j angle)
        ends = np.where((k == 0) | (k == n - 1), 0.5, 1.0)
        coeffs = np.cos(k[:, None] * angle) * (2.0 / (n - 1))
        coeffs *= ends[:, None] * ends
        # the integral of T_0 is T_1, of T_j is T_{j+1} / (2j + 2) -
        # T_{j-1} / (2j - 2) (no T_0 for j = 1), less its value at -1
        integral = np.zeros((n + 1, n))
        integral[1, 0] = 1.0
        integral[k[1:] + 1, k[1:]] = 0.5 / (k[1:] + 1)
        integral[k[2:] - 1, k[2:]] -= 0.5 / (k[2:] - 1)
        integral[0] = -((-1.0) ** np.arange(n + 1)) @ integral
        cum = np.cos(angle[:, None] * np.arange(n + 1)) @ integral @ coeffs
        # T_j' = 2j (T_{j-1} + T_{j-3} + ...), with half the T_0 term
        slope = np.where((k > k[:, None]) & ((k - k[:, None]) % 2 == 1), 2.0 * k, 0.0)
        slope[0] /= 2.0
        deriv = np.cos(angle[:, None] * k) @ slope @ coeffs
        tail, pairs = np.zeros((2 * n, 2 * _TAIL)), np.zeros((2 * n, 2 * n))
        for part in (0, 1):
            tail[part::2, part::2], pairs[part::2, part::2] = coeffs[-_TAIL:].T, cum.T
        matrices = (np.cos(angle), cum, deriv, tail, pairs)
        for matrix in matrices:
            matrix.setflags(write=False)
        matrices = _CHEB.setdefault(key, matrices)
    return matrices


_CHEB: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}


def _tail(values: np.ndarray) -> np.ndarray:
    """The largest modulus of the last _TAIL Chebyshev coefficients of each
    row of complex values at the panel points."""
    pairs = values.reshape(-1, PANEL_POINTS).view(float) @ _cheb()[3]
    moduli = np.abs(pairs.view(complex)).T
    return functools.reduce(np.maximum, moduli).reshape(values.shape[:-1])


def _panel_data(system: System, lo: np.ndarray, hi: np.ndarray):
    """Half-lengths and local(x) at the Chebyshev points, (rate, m1, m2),
    each of shape (panels, PANEL_POINTS), of the panels [lo[k], hi[k]]."""
    half = 0.5 * (hi - lo)
    x = (lo + half)[:, None] + half[:, None] * _cheb()[0]
    rate, (m1, m2) = system.local(x.ravel())
    return half, tuple(np.reshape(v, x.shape) for v in (rate, m1, m2))


def _judge(system: System, lo: np.ndarray, hi: np.ndarray, last):
    """Verdicts on the candidate panels [lo[k], hi[k]] and their data.

    A verdict is 2 for a direct panel, 1 for a Levin panel (see the module
    docstring), -1 for a split in halves and 0 for the uniform plan, where
    ``last`` (a flag per candidate, or one for all) is set; a judge that
    returns 0 for every candidate marches the whole span on the uniform
    plan. The data are the half-lengths and, at the points, m1, m2,
    e^{iF/h} with the phase taken from the left edge, and F'.
    """
    half, (rate, m1, m2) = _panel_data(system, lo, hi)
    # near the underflow limit the phases overflow: such candidates split
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        phase = half[:, None] * (rate @ _cheb()[1].T) / system.h
        osc = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=osc.real)
        np.sin(phase, out=osc.imag)
        values = np.stack((m1 * osc, m2 * osc.conj(), m1, m2, osc, rate, 1 / rate), 1)
        tails = _tail(values)
        fine = tails[:, :4] <= _TAIL_TOL * system.coupling
        # F' keeps its sign, and its least modulus is 1 / max |1/F'|
        low, high = rate.min(axis=1), rate.max(axis=1)
        least = np.where(low > 0.0, low, -high)
        levin = (least > 0.0) & (tails[:, 4] >= _UNRESOLVED) & fine[:, 2:].all(axis=1)
        levin &= tails[:, 5] <= _TAIL_TOL * np.maximum(high, -low)
        levin &= tails[:, 6] <= _TAIL_TOL / least
    near = system.coupling * 2.0 * half <= PICARD_REACH
    verdict = np.where(near & levin, 1, np.where(last, 0, -1))
    verdict[near & fine[:, :2].all(axis=1)] = 2
    return verdict, (half, values[:, 2:6])


def _segments(system: System, lo: float, hi: float) -> list[tuple]:
    """[lo, hi] cut into segments (start, end, panels), left to right:
    panels is None where the uniform plan takes the segment, else (edges,
    data): the panel edges and per panel whether it is direct, then
    _judge's data.

    The candidates start as _FIRST_PIECES equal pieces of [lo, hi] and
    split in halves, _MAX_DEPTH levels at most. One _judge call takes the
    candidates and the levels of halves below them that _LEVELS allows; a
    piece is kept where it has a verdict and no piece above it has one,
    and the halves of the last level's other pieces are the next
    candidates.
    """
    cuts = lo + (hi - lo) * np.linspace(0.0, 1.0, _FIRST_PIECES + 1)
    left, right, found, depth = cuts[:-1], cuts[1:], [], 0
    while left.size:
        levels = [(left, right)]
        for _ in range(min(_LEVELS[depth > 0], _MAX_DEPTH + 1 - depth) - 1):
            left, right = levels[-1]
            mid = 0.5 * (left + right)
            levels.append((np.concatenate((left, mid)), np.concatenate((mid, right))))
        left, right = (np.concatenate(ends) for ends in zip(*levels))
        depth += len(levels)
        deepest = levels[-1][0].size
        last = depth > _MAX_DEPTH and np.arange(left.size) >= left.size - deepest
        verdict, (half, values) = _judge(system, left, right, last)
        keep, start = np.zeros(left.size, bool), 0
        free = np.ones(len(levels[0][0]), bool)
        for piece, _ in levels:
            judged = verdict[start : start + piece.size] >= 0
            keep[start : start + piece.size] = free & judged
            free, start = free & ~judged, start + piece.size
            if piece.size < deepest:
                free = np.concatenate((free, free))
        found.append([f[keep] for f in (left, right, verdict, half, values)])
        left, right = piece[free], levels[-1][1][free]
        mid = 0.5 * (left + right)
        left, right = np.concatenate((left, mid)), np.concatenate((mid, right))
    found = [np.concatenate(f) for f in zip(*found)]
    left, right, verdict, half, values = (f[np.argsort(found[0])] for f in found)
    runs = np.flatnonzero(np.diff(verdict == 0)) + 1
    segments = []
    for a, b in zip([0, *runs], [*runs, len(left)]):
        panels = None
        if verdict[a]:
            edges = np.append(left[a:b], right[b - 1])
            panels = (edges, (verdict[a:b] == 2, half[a:b], values[a:b]))
        segments.append((left[a], right[b - 1], panels))
    return segments


def _levin(system: System, phi0: float, edges: np.ndarray, data):
    """The propagators of the panels between ``edges``, each from its own
    left edge, with their ``data`` as _segments gives them: returns U of
    shape (panels, 2, 2), a(edges[k + 1]) = U[k] a(edges[k]), the phase at
    the edges chained from phi0, the sweeps and a flag per panel whose
    first Levin solution is not resolved (its U is not computed).

    Each panel sums the Neumann series of its own propagator (see the
    module docstring), all panels in one sweep. A chain's term is S +
    e^{+-iF/h} B at the panels' points, e^{+-iF/h} that at the panel's
    left edge, chained from phi0, times the data's. The panels' integrals
    are one real product on (re, im) pairs, the Levin panels' B' complex
    products batched per panel. The stop rule, cap and overflow check are
    _stops on the bound |S| + |B| of the term, with scale 1: the data are
    the identity.
    """
    _, cum, deriv, _, pairs = _cheb()
    direct, half, values = data
    m1, m2, local, rate = values.transpose(1, 0, 2)
    rate = rate.real
    phase = np.concatenate(([phi0], phi0 + np.cumsum(half * (rate @ cum[-1]))))
    chains, levin, inverse = _chains(system), np.flatnonzero(~direct), None
    refused = np.zeros(len(half), dtype=bool)
    if levin.size:
        diag = np.arange(PANEL_POINTS)
        matrix = deriv / half[levin, None, None] + 0j
        matrix[:, diag, diag] += (1j / system.h) * rate[levin]
        # the minus sign's matrix is the conjugate: B' = conj(inv conj(m S))
        inverse = np.linalg.inv(matrix).transpose(0, 2, 1)
        del matrix
    # as in _picard, chain c's multiplier at term k is row c + k % 2 and row
    # 1 carries the minus sign; S' integrates mu S (mu = 0 on Levin panels)
    # and m B, both times the half-lengths. Each is kept by parity.
    inside = np.exp(1j * phase[:-1, None] / system.h) * local
    signs = np.stack((inside, np.conj(inside), inside))
    m = np.stack((m1, m2, m1))
    mu = np.where(direct[:, None], m * half[:, None] * signs, 0.0)
    mu, m, m_levin, signs = (
        (x[:chains], x[1 : chains + 1])
        for x in (mu, m * half[:, None], m[:, levin], signs)
    )
    s_part = np.ones((chains,) + rate.shape, dtype=complex)
    b_part = np.zeros_like(s_part)
    ends = np.zeros((PICARD_MAX_ITER + 1, chains, len(half)), dtype=complex)
    for it in range(1, PICARD_MAX_ITER + 1):
        parity = (it - 1) % 2
        minus = 1 - parity
        g = mu[parity] * s_part
        if inverse is not None:
            g += m[parity] * b_part
            solved = m_levin[parity] * s_part[:, levin]
            if minus < chains:
                np.conjugate(solved[minus], out=solved[minus])
            solved = np.matmul(solved[..., None, :], inverse)[..., 0, :]
            if minus < chains:
                np.conjugate(solved[minus], out=solved[minus])
            if it == 1:
                scale = _TAIL_TOL * np.abs(solved).max()
                refused[levin] = ~(_tail(solved) <= scale).all(axis=0)
            b_part[:, levin] = solved
            term = signs[parity] * b_part
        s_part = g.reshape(-1, PANEL_POINTS).view(float) @ pairs
        s_part = s_part.view(complex).reshape(g.shape)
        if inverse is not None:
            # the term is continuous: 0 at the panel's left edge
            s_part -= term[..., :1]
            ends[it] = s_part[..., -1] + term[..., -1]
            if it == 1 and refused.any():
                # a refused panel's terms are 0 from here on
                s_part[:, refused] = b_part[:, refused] = 0.0
        else:
            ends[it] = s_part[..., -1]
        moved = np.abs(s_part)
        if inverse is not None:
            moved += np.abs(b_part)
        if _stops(float(moved.max()), 1.0, it, edges[0], edges[-1]):
            break
    sums = np.stack([ends[k : it + 1 : 2].sum(axis=0) for k in (2, 1)])  # by parity
    return _propagator(system, sums), phase, it, refused


def _product(u: np.ndarray) -> np.ndarray:
    """The ordered product u[-1] @ ... @ u[0] of a stack of 2x2 matrices,
    as pairwise batched products."""
    while len(u) > 1:
        even = len(u) - len(u) % 2
        u = np.concatenate((u[1:even:2] @ u[0:even:2], u[even:]))
    return u[0]


def _nodes(plans: list[list[tuple[float, int]]]) -> int:
    """Nodes of uniform plans, each a run of chunks that share their ends."""
    return sum(sum(cells for _, cells in plan) + 1 for plan in plans)


def _uniform(system: System, a, phi: float, x: float, plan, work):
    """a and the phase carried from x over the chunks of ``plan`` by
    _picard; returns them, the sweeps and the most in a chunk."""
    sweeps, worst = 0, 0
    for dx, cells in plan:
        grid = x + dx * np.arange(cells + 1)
        a, phi, iters = _picard(system, a, phi, grid, dx, work)
        sweeps, worst = sweeps + iters, max(worst, iters)
        x = grid[-1]
    return a, phi, sweeps, worst


def _alone(zone: System, lo: float, hi: float, uniform: list) -> tuple:
    """The propagator of the panel [lo, hi] on the uniform plan, from the
    exact phase at lo, with its sweeps and the most in a chunk. The plan
    joins ``uniform``, whose node budget is checked before any work."""
    plan = _plan(zone, lo, hi)
    uniform.append(plan)
    _check_budget(_nodes(uniform))
    work = _work(zone, max(cells for _, cells in plan) + 1)
    eye = np.eye(2, dtype=complex)
    ut, _, sweeps, most = _uniform(zone, eye, zone.phase(lo), lo, plan, work)
    return ut.T, sweeps, most


def march(system: System, a: np.ndarray, x_from: float, x_to: float) -> np.ndarray:
    """Carry coefficients a (shape (columns, 2)) from x_from to x_to; the
    march runs left to right only, x_to < x_from raises ValidationError.

    Only the span's overlap with ``system.support`` is marched; a is
    constant on the rest. The span is cut into _segments, each solved from
    the exact phase at its start: its panels by _levin, in batches of at
    most CHUNK_BYTES // _BYTES_PER_PANEL, and a = U a with U the ordered
    product of their propagators; the rest by _plan's Picard chunks. A
    Levin panel the check refuses is marched alone on the uniform plan,
    from the exact phase at its start. Every plan and the node budget are
    checked before any work, and a span where M vanishes returns a as it
    is. One DEBUG line on the ``crossing_kit`` logger reports the
    uniformly marched nodes, the marched span, the smallest and largest
    dx, Picard chunks, the sweeps of all chunks, the most any chunk needed
    and the Neumann rows each sweep integrates (_chains), then the Levin
    panels and the direct panels, each with their nodes and the panel
    batches that hold them (a batch with both kinds counts for both) and
    their sweeps, and the panels the Levin check refused. An overflow in a
    sweep raises StepFailure, without a numpy warning.
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
    segments = _segments(system, lo, hi)
    zone = system
    if any(panels is not None for *_, panels in segments):
        ratio = max(ZONE_POINTS_PER_PERIOD, POINTS_PER_PERIOD) / POINTS_PER_PERIOD
        zone = replace(system, rate_on=lambda lo, hi: ratio * system.rate_on(lo, hi))
    plans = [_plan(zone, s, e) if p is None else p for s, e, p in segments]
    uniform = [plan for (*_, p), plan in zip(segments, plans) if p is None]
    _check_budget(_nodes(uniform))
    work = _work(system, max((c for p in uniform for _, c in p), default=0) + 1)
    sweeps, worst, refused = 0, 0, 0
    per_batch = max(1, CHUNK_BYTES // _BYTES_PER_PANEL)
    # per kind, Levin then direct: panels, panel batches and their sweeps
    counts = np.zeros((2, 3), dtype=int)
    # an overflow shows as a non-finite Picard change, which the solvers raise
    with np.errstate(over="ignore", invalid="ignore"):
        for (x, _, panels), plan in zip(segments, plans):
            phi = system.phase(x)
            if panels is None:
                a, phi, iters, most = _uniform(zone, a, phi, x, plan, work)
                sweeps, worst = sweeps + iters, max(worst, most)
                continue
            edges, (direct, half, values) = panels
            props = []
            for first in range(0, len(half), per_batch):
                cut = slice(first, first + per_batch)
                batch = edges[first : first + per_batch + 1]
                u, phase, iters, bad = _levin(
                    system, phi, batch, (direct[cut], half[cut], values[cut])
                )
                phi = phase[-1]
                for k in np.flatnonzero(bad):
                    # the Levin solution failed its check: march uniformly
                    u[k], fell, most = _alone(zone, batch[k], batch[k + 1], uniform)
                    sweeps, worst = sweeps + fell, max(worst, most)
                refused += np.count_nonzero(bad)
                kinds = (np.sum(~direct[cut] & ~bad), np.sum(direct[cut]))
                for row, kind in zip(counts, kinds):
                    row += (kind, 1, iters) if kind else 0
                props.append(u)
            a = a @ _product(np.concatenate(props)).T
    picard = [chunk for plan in uniform for chunk in plan]
    dx = [dx for dx, _ in picard] or [math.nan]
    logger.debug(
        "h=%.6e: marched %d nodes on [%g, %g] (from x=%g to %g), dx %.3g "
        "to %.3g, as %d Picard chunks of %d sweeps, at most %d in a chunk, "
        "%d Neumann rows per sweep; %d Levin panels of %d nodes as %d panel "
        "batches of %d sweeps, %d direct panels of %d nodes as %d panel "
        "batches of %d sweeps, %d panels refused by the Levin check",
        *(system.h, _nodes(uniform), lo, hi, x_from, x_to, min(dx), max(dx)),
        *(len(picard), sweeps, worst, _chains(system)),
        *(n for p, c, s in counts for n in (p, p * PANEL_POINTS, c, s)),
        refused,
    )
    return a
