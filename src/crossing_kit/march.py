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
overlap with the system's ``support``. That span is cut into segments of
two kinds (_segments): the stationary zone, where F' is small or
vanishes, keeps the uniform Picard chunks below, and each outer piece,
where the phase turns fast, is solved on Levin panels. The cut is read
off the System alone, its ``rate_on`` and ``local``, by splitting the
span into halves: a candidate that the uniform march would cover with
at most _PANEL_COST nodes at ZONE_POINTS_PER_PERIOD goes to the zone, one
whose F', 1/F', m1 and m2 are resolved by its Chebyshev points, whose F'
keeps its sign and turns the phase by at least _ADVANCE radians is a
panel, and the rest split, _MAX_DEPTH levels deep at most. No panel is
tried on a span whose uniform node estimate is at most _CROSSOVER, so
such a span (every row of the corpora at h >= 1e-3) keeps the uniform
march bit for bit. Each segment starts from the system's exact phase at
its start.

The zone's mesh is planned in one pass as Picard chunks, each a uniform
grid within CHUNK_BYTES and int |M| <= PICARD_REACH that takes the widest
dx resolving the fastest phase rate on its own span and one chunk's
length on each side with POINTS_PER_PERIOD nodes per period, so the mesh
is coarse where the phase is stationary and fine where it turns fast; the
last chunk is shortened to end at the span's end. The grid is never built
whole. Next to panels the zone ends inside the support, where the end
cells' one-sided rules do not cancel along the oscillation (up to 1.5e-9
on the corpora at 14 points per period), so there it resolves
ZONE_POINTS_PER_PERIOD (or POINTS_PER_PERIOD, if that is more).
N_MAX bounds the uniformly marched nodes only; the panels' count is set
by the smoothness of m1, m2 and F', not by h.

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

An outer piece is one Picard chunk of Levin panels, or a run of them
within PICARD_REACH, each chunk of at most CHUNK_BYTES // _BYTES_PER_PANEL
panels (_levin). A panel holds PANEL_POINTS Chebyshev points; each
chain's term is held there as S + e^{+-iF/h} B, with the sign of its
multiplier. The next term's S is int m B, by the panel's Clenshaw-Curtis
cumulative matrix, and its B solves the Levin collocation (D +- i F'/h) B
= m S (Levin, Math. Comp. 38 (1982); Olver, IMA J. Numer. Anal. 26
(2006)), whose matrix is inverted once per panel, so that each sweep is
one batched matrix-vector product. The constants that keep a term
continuous from panel to panel need e^{iF/h} only at the panel edges,
chained from the chunk's first phase by the panels' integrals of F'.
The Picard stop rule, its cap and the overflow check are those of the
uniform chunks. A chunk whose first Levin solution is not resolved on its
panels is marched by the zone's uniform plan instead.
"""

from __future__ import annotations

import bisect
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

# The Levin panels of the outer pieces (see the module docstring). A panel
# holds PANEL_POINTS Chebyshev points. Its data are resolved when the last
# _TAIL Chebyshev coefficients of F', 1/F', m1 and m2 are within _TAIL_TOL
# of their scales (max |F'|, max |1/F'| and the coupling bound), and so is
# a chunk's first Levin solution, against its largest value. The pair's F'
# is a difference of numbers near E0: on schrodinger-corpus 1 at h = 1e-8
# its tail reads 5.7e-14 of max |F'| on [0.0125, 0.025] from rounding
# alone. Below about one period per panel the Levin matrix nears the
# singular D: a panel turns the phase by _ADVANCE radians at least. A
# panel is worth _PANEL_COST uniform nodes of the zone, which is marched
# at ZONE_POINTS_PER_PERIOD. The split starts from _FIRST_PIECES equal
# pieces and goes _MAX_DEPTH levels deep, so no panel is shorter than
# 2^-12 of the span, and near the underflow limit the zone alone exceeds
# N_MAX. No panel is tried on a span whose uniform node estimate, the
# count _piece_spacing checks, is below _CROSSOVER: there the planning
# would cost more than it saves. _BYTES_PER_PANEL bounds the traced peak
# of a panel chunk per panel from above: tracemalloc reads about 50 kB.
PANEL_POINTS = 32
ZONE_POINTS_PER_PERIOD = 40
_PANEL_COST = 300
_CROSSOVER = 6000
_BYTES_PER_PANEL = 2**16
_TAIL = 4
_TAIL_TOL = 1e-12
_ADVANCE = 8.0
_FIRST_PIECES = 8
_MAX_DEPTH = 9

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


def _uniform_nodes(system: System, lo, hi, points: int) -> np.ndarray:
    """Nodes of the uniform march on each [lo[k], hi[k]] at _spacing;
    infinite for an h near the underflow limit."""
    with np.errstate(divide="ignore", over="ignore"):
        return (hi - lo) / _spacing(system, lo, hi, points)


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
    """A chunk's propagator U from the chains' even and odd terms summed at
    its end, ``sums`` of shape (2, chains)."""
    # chain 0 sums O_0 at odd k and E_1 at even k, chain 1 O_1 and E_0
    even, odd = sums
    e1, o0 = even[0], odd[0]
    if system.skew_hermitian:
        e0, o1 = np.conj(e1), -np.conj(o0)
    else:
        e0, o1 = even[1], odd[1]
    return np.array([[1.0 + e0, o0], [o1, 1.0 + e1]])


def _cheb() -> tuple[np.ndarray, ...]:
    """PANEL_POINTS Chebyshev points of the second kind on [-1, 1],
    increasing, and three matrices that act on values there: the
    cumulative integral from -1 (Clenshaw-Curtis), the derivative and,
    transposed, the map to the last _TAIL Chebyshev coefficients. Built at
    first use and kept read-only in _CHEB; threads that build them at once
    all get the one tuple stored first."""
    key = (PANEL_POINTS, _TAIL)
    matrices = _CHEB.get(key)
    if matrices is None:
        n, cheb = PANEL_POINTS, np.polynomial.chebyshev
        angle = np.pi * np.arange(n - 1, -1, -1) / (n - 1)
        t = np.cos(angle)
        eye = np.eye(n)
        # values to coefficients: the discrete cosine transform of the
        # second-kind points
        ends = np.where((np.arange(n) == 0) | (np.arange(n) == n - 1), 0.5, 1.0)
        coeffs = np.cos(np.arange(n)[:, None] * angle) * (2.0 / (n - 1))
        coeffs *= ends[:, None] * ends
        cum = cheb.chebvander(t, n) @ cheb.chebint(eye, lbnd=-1.0) @ coeffs
        deriv = cheb.chebvander(t, n - 2) @ cheb.chebder(eye) @ coeffs
        matrices = (t, cum, deriv, coeffs[-_TAIL:].T.copy())
        for matrix in matrices:
            matrix.setflags(write=False)
        matrices = _CHEB.setdefault(key, matrices)
    return matrices


_CHEB: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}


def _zone_points() -> int:
    """Nodes per period of the zone next to panels: ZONE_POINTS_PER_PERIOD,
    or POINTS_PER_PERIOD where that is more."""
    return max(ZONE_POINTS_PER_PERIOD, POINTS_PER_PERIOD)


def _resolved(values: np.ndarray, scale) -> np.ndarray:
    """Whether each row of values at the panel points has its last _TAIL
    Chebyshev coefficients within _TAIL_TOL of ``scale`` (broadcast over
    the rows)."""
    tails = np.abs(values @ _cheb()[3]).max(axis=-1)
    return tails <= _TAIL_TOL * scale


def _panel_data(system: System, lo: np.ndarray, hi: np.ndarray):
    """Half-lengths, Chebyshev points and local(x) there, (rate, m1, m2),
    each of shape (panels, PANEL_POINTS), of the panels [lo[k], hi[k]]."""
    half = 0.5 * (hi - lo)
    x = (lo + half)[:, None] + half[:, None] * _cheb()[0]
    rate, (m1, m2) = system.local(x.ravel())
    return half, x, tuple(np.reshape(v, x.shape) for v in (rate, m1, m2))


def _judge(system: System, lo: np.ndarray, hi: np.ndarray, last: bool) -> np.ndarray:
    """Verdicts on the candidate panels [lo[k], hi[k]]: 1 for a Levin
    panel, 0 for the uniform zone, -1 for a split in halves.

    A candidate the zone would march on _PANEL_COST nodes or fewer, or on
    a count that is not finite, goes to the zone; so does one that is not
    resolved on the ``last`` split level. A resolved candidate, within
    PICARD_REACH, is a panel; the rest split.
    """
    nodes = _uniform_nodes(system, lo, hi, _zone_points())
    verdict = np.where((nodes > _PANEL_COST) & np.isfinite(nodes), -1, 0)
    ask = verdict == -1
    if not ask.any():
        return verdict
    half, _, (rate, m1, m2) = _panel_data(system, lo[ask], hi[ask])
    low, high = rate.min(axis=1), rate.max(axis=1)
    least = np.where(low > 0.0, low, -high)
    coupling = np.full_like(least, system.coupling)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        resolved = (
            (least > 0.0)
            & (least * 2.0 * half >= _ADVANCE * system.h)
            & _resolved(
                np.stack((rate, 1.0 / rate, m1, m2)),
                np.stack((np.maximum(high, -low), 1.0 / least, coupling, coupling)),
            ).all(axis=0)
            & (system.coupling * 2.0 * half <= PICARD_REACH)
        )
    verdict[ask] = np.where(resolved, 1, 0 if last else -1)
    return verdict


def _segments(
    system: System, lo: float, hi: float
) -> list[tuple[float, float, np.ndarray | None]]:
    """[lo, hi] cut into segments (start, end, edges), left to right: edges
    is None where the zone's uniform march takes the segment, else the
    edges of its Levin panels. One uniform segment unless the span's
    uniform estimate exceeds _CROSSOVER nodes.

    The candidates start as _FIRST_PIECES equal pieces of [lo, hi] and
    split in halves, _MAX_DEPTH levels at most, by _judge's verdicts, one
    call per level.
    """
    edges = lo + (hi - lo) * np.linspace(0.0, 1.0, RATE_PIECES + 1)
    estimate = _uniform_nodes(system, edges[:-1], edges[1:], POINTS_PER_PERIOD).sum()
    if not (estimate > _CROSSOVER and math.isfinite(estimate)):
        return [(lo, hi, None)]
    first = lo + (hi - lo) * np.linspace(0.0, 1.0, _FIRST_PIECES + 1)
    items = [(s, e, -1) for s, e in zip(first[:-1].tolist(), first[1:].tolist())]
    for depth in range(_MAX_DEPTH + 1):
        todo = [k for k, (_, _, v) in enumerate(items) if v == -1]
        if not todo:
            break
        verdict = _judge(
            system,
            np.array([items[k][0] for k in todo]),
            np.array([items[k][1] for k in todo]),
            depth == _MAX_DEPTH,
        )
        found, new = dict(zip(todo, verdict.tolist())), []
        for k, (s, e, v) in enumerate(items):
            v = found.get(k, v)
            mid = 0.5 * (s + e)
            new += [(s, mid, -1), (mid, e, -1)] if v == -1 else [(s, e, v)]
        items = new
    segments = []  # [start, end, panel edges or None for the zone]
    for s, e, v in items:
        if segments and (segments[-1][2] is None) == (v == 0):
            segments[-1][1] = e  # the same kind as the last: extend it
            if v:
                segments[-1][2].append(e)
        else:
            segments.append([s, e, [s, e] if v else None])
    return [(s, e, None if p is None else np.array(p)) for s, e, p in segments]


def _panel_chunks(system: System, edges: np.ndarray) -> list[np.ndarray]:
    """The panels between ``edges`` as Picard chunks, left to right: each
    chunk has at most CHUNK_BYTES // _BYTES_PER_PANEL panels and, unless it
    has one, int |M| within PICARD_REACH."""
    most = max(1, CHUNK_BYTES // _BYTES_PER_PANEL)
    chunks, first = [], 0
    for k in range(1, len(edges)):
        reach = system.coupling * (edges[k] - edges[first])
        if k - first > 1 and (k - first > most or reach > PICARD_REACH):
            chunks.append(edges[first:k])
            first = k - 1
    return chunks + [edges[first:]]


def _levin(system: System, a0: np.ndarray, phi0: float, edges: np.ndarray):
    """Coefficients at edges[-1] from their values a0 at edges[0], by
    Picard iteration on the Levin panels between the edges; as _picard,
    returns (a and the phase at edges[-1], sweeps), or None where the first
    sweep's Levin solution is not resolved on its panels (_resolved).

    Each chain's term k is S + e^{+-iF/h} B, the sign that of its
    multiplier, with S and B held at the panels' Chebyshev points: the
    next term takes S' = int m B by the panels' cumulative matrix and B'
    from the Levin collocation (D +- i F'/h) B' = m S, whose matrix is
    inverted once per panel; the constants that keep the term continuous
    and zero at edges[0] need e^{iF/h} only at the panel edges, where the
    phase is chained from phi0 by the panels' integrals of F'. The Picard
    stop rule, its cap and the overflow check are _stops, on the bound
    |S| + |B| of the term.
    """
    _, cum, deriv, _ = _cheb()
    half, _, (rate, m1, m2) = _panel_data(system, edges[:-1], edges[1:])
    phase = np.concatenate(([phi0], phi0 + np.cumsum(half * (rate @ cum[-1]))))
    scale = float(np.max(np.abs(a0.real) + np.abs(a0.imag)))
    if scale == 0.0:
        return a0, phase[-1], 0
    diag = np.arange(PANEL_POINTS)
    levin = deriv / half[:, None, None] + 0j
    levin[:, diag, diag] += (1j / system.h) * rate
    # the minus sign's matrix is the conjugate: B' = conj(inv conj(m S))
    inverse = np.linalg.inv(levin).transpose(0, 2, 1)
    del levin
    osc = np.exp(1j * phase / system.h)
    chains = _chains(system)
    # as in _picard: chain c's multiplier at term k is row c + k % 2 of mu,
    # and row 1, mu2, carries the minus sign
    mu = np.stack((m1, m2, m1))
    ends = np.stack((osc, np.conj(osc), osc))
    weights = (cum.T * half[:, None, None]).astype(complex)
    s_part = np.ones((chains,) + rate.shape, dtype=complex)
    b_part = np.zeros_like(s_part)
    sums = np.zeros((2, chains), dtype=complex)
    for it in range(1, PICARD_MAX_ITER + 1):
        parity = (it - 1) % 2
        mult, end = mu[parity : parity + chains], ends[parity : parity + chains]
        minus = 1 - parity
        g = mult * s_part
        if minus < chains:
            np.conjugate(g[minus], out=g[minus])
        new_b = np.matmul(g[..., None, :], inverse)[..., 0, :]
        if minus < chains:
            np.conjugate(new_b[minus], out=new_b[minus])
        if it == 1 and not _resolved(new_b, np.abs(new_b).max()).all():
            return None
        s_part = np.matmul((mult * b_part)[..., None, :], weights)[..., 0, :]
        start = end[:, :-1] * new_b[..., 0]
        step = s_part[..., -1] + end[:, 1:] * new_b[..., -1] - start
        total = np.cumsum(step, axis=-1)
        s_part += (total - step - start)[..., None]
        b_part = new_b
        sums[it % 2] += total[:, -1]
        moved = float((np.abs(s_part) + np.abs(b_part)).max())
        if _stops(moved, scale, it, edges[0], edges[-1]):
            break
    return a0 @ _propagator(system, sums).T, phase[-1], it


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


def march(system: System, a: np.ndarray, x_from: float, x_to: float) -> np.ndarray:
    """Carry coefficients a (shape (columns, 2)) from x_from to x_to; the
    march runs left to right only, x_to < x_from raises ValidationError.

    Only the span's overlap with ``system.support`` is marched; a is
    constant on the rest. The span is cut into _segments, each solved from
    the exact phase at its start: the zone's as _plan's Picard chunks, the
    outer pieces' as _panel_chunks. Every plan and the node budget are
    checked before any work, and a span where M vanishes returns a as it
    is. One DEBUG line on the ``crossing_kit`` logger reports the
    uniformly marched nodes, the marched span, the smallest and largest
    dx, Picard chunks, the sweeps of all chunks, the most any chunk needed
    and the Neumann rows each sweep integrates (_chains), then the Levin
    panels, their nodes, their chunks and sweeps, and the panel chunks the
    Levin check refused. An overflow in a sweep raises StepFailure,
    without a numpy warning.
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
    if any(edges is not None for *_, edges in segments):
        ratio = _zone_points() / POINTS_PER_PERIOD
        zone = replace(system, rate_on=lambda lo, hi: ratio * system.rate_on(lo, hi))
    plans = [
        _plan(zone, start, end) if edges is None else _panel_chunks(system, edges)
        for start, end, edges in segments
    ]
    uniform = [p for (*_, e), p in zip(segments, plans) if e is None]
    _check_budget(_nodes(uniform))
    work = _work(system, max((c for p in uniform for _, c in p), default=0) + 1)
    sweeps, worst, panels, panel_chunks, panel_sweeps, refused = 0, 0, 0, 0, 0, 0
    # an overflow shows as a non-finite Picard change, which the solvers raise
    with np.errstate(over="ignore", invalid="ignore"):
        for (x, _, edges), plan in zip(segments, plans):
            phi = system.phase(x)
            if edges is None:
                a, phi, iters, most = _uniform(zone, a, phi, x, plan, work)
                sweeps, worst = sweeps + iters, max(worst, most)
                continue
            for part in plan:
                solved = _levin(system, a, phi, part)
                if solved is None:
                    # the Levin solution failed its check: march uniformly
                    fallback = _plan(zone, part[0], part[-1])
                    uniform.append(fallback)
                    _check_budget(_nodes(uniform))
                    cells = max(cells for _, cells in fallback) + 1
                    a, phi, iters, most = _uniform(
                        zone, a, phi, part[0], fallback, _work(system, cells)
                    )
                    sweeps, worst = sweeps + iters, max(worst, most)
                    refused += 1
                    continue
                a, phi, iters = solved
                panels, panel_chunks = panels + len(part) - 1, panel_chunks + 1
                panel_sweeps += iters
    chunks = [c for plan in uniform for c in plan]
    logger.debug(
        "h=%.6e: marched %d nodes on [%g, %g] (from x=%g to %g), dx %.3g "
        "to %.3g, as %d Picard chunks of %d sweeps, at most %d in a chunk, "
        "%d Neumann rows per sweep; %d Levin panels of %d nodes as %d panel "
        "chunks of %d sweeps, %d panel chunks refused by the Levin check",
        system.h,
        _nodes(uniform),
        lo,
        hi,
        x_from,
        x_to,
        min((dx for dx, _ in chunks), default=math.nan),
        max((dx for dx, _ in chunks), default=math.nan),
        len(chunks),
        sweeps,
        worst,
        _chains(system),
        panels,
        panels * PANEL_POINTS,
        panel_chunks,
        panel_sweeps,
        refused,
    )
    return a
