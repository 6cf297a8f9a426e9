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
System's ``local`` alone (_split): a candidate within PICARD_REACH is
a direct panel where mu1 = m1 e^{iF/h} and mu2 = m2 e^{-iF/h}, the phase
taken from its left edge, are resolved by its points, else a Levin panel
where F', 1/F', m1 and m2 are resolved, F' keeps its sign and e^{iF/h}
is not; the rest split in halves. Direct panels cover the stationary
zone, where the phase turns slowly, and Levin panels the outer pieces,
where it turns fast (the split of Agocs & Barnett, arXiv:2212.06924).
Their count is set by the smoothness of m1, m2 and F' and by the levels
of halves that reach the zone, whose width is about (h /
|F^{(m+1)}(0)|)^{1/(m+1)} at a crossing of order m: it grows like
log(1/h). The split's levels (_levels) are decided before any candidate
is judged: it starts at the first level whose pieces can be within
PICARD_REACH of the System's ``coupling``, as a longer piece can only
split, and goes _SPARE_LEVELS levels below the level whose pieces are
as narrow as its ``zone`` or within that reach; an h or a coupling that
needs more than MAX_LEVELS levels or MAX_PANELS panels is refused with
ValidationError.

The propagator U of a panel, a(end) = U a(start), is the Neumann series
U = I + U_1 + U_2 + ..., U_{k+1} = int M U_k, the increments of Picard
iteration, all integrals from its start. As M is off-diagonal, the terms
U_k are diagonal at even k and anti-diagonal at odd k, and their nonzero
entries form two Neumann chains: chain 0 is w_0 = 1, w_{k+1} = int mu1
w_k at even k and int mu2 w_k at odd k, chain 1 the same with mu1 and
mu2 swapped. Chain 0's odd terms are those of U's (0, 1) entry and its
even terms those of the (1, 1) entry; chain 1 gives the (1, 0) and (0,
0) entries. The march sums the even and odd terms at the end apart, U =
[[1 + E_0, O_0], [O_1, 1 + E_1]]. Where M is skew-Hermitian, mu2 =
-conj(mu1) (a self-adjoint coupling: the pair always, the model when r1
== r2), chain 1 is (-1)^k times the conjugate of chain 0 and U is in
SU(2), [[1 + conj(E_1), O_0], [-conj(O_0), 1 + E_1]]: each sweep
integrates one row, else two. The march reads that off m1 and m2 at the
panels' points, once per span (_solve, _one_chain).

Each panel's propagator is solved from its own left edge by _levin (the
judge keeps every panel within PICARD_REACH), in batches that bound the
memory, at most CHUNK_BYTES // _BYTES_PER_PANEL panels, each swept at
once; the span's propagator is the ordered product of its panels', and a
<- U a. On a panel a chain's term is S + e^{+-iF/h} B, with the sign of
its multiplier, and B = 0 on a direct panel. The next term's S is int mu
S on a direct panel and int m B on a Levin one, by the panel's
Clenshaw-Curtis cumulative matrix (Greengard, SIAM J. Numer. Anal. 28
(1991)); on a Levin panel its B solves the Levin collocation (D +- i
F'/h) B = m S (Levin, Math. Comp. 38 (1982); Olver, IMA J. Numer. Anal.
26 (2006)), whose matrix is inverted once per panel. A Levin panel whose
first Levin solution is not resolved is split in halves, which are
judged and solved in its place, from the phase at its left edge.
e^{iF/h} is needed at the panel edges: the phase there is F at the edge
nearest x = 0, the integral of F' from 0 (``integral``, on the panels'
rule; 0 without a call where that edge is 0, as F(0) = 0), plus the
panels' integrals of F' summed outward from it (_edge_phases), so that
its rounding at an edge is relative to |F| there.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StepFailure, ValidationError

# The march's working memory: no panel batch holds more than CHUNK_BYTES,
# and no _judge call more than CHUNK_BYTES of candidate data, whatever h
# is; ``integral`` takes _PER_CALL panels at a time, of _INTEGRAL_PANELS at
# most (their edges take 64 MB). _BYTES_PER_PANEL bounds the traced peak
# of a panel batch per panel from above (tracemalloc reads at most 41 kB),
# _BYTES_PER_CANDIDATE that of a _judge call per candidate (at most 6.7 kB).
CHUNK_BYTES = 2**21
_BYTES_PER_PANEL = 2**16
_BYTES_PER_CANDIDATE = 2**13
_PER_CALL = CHUNK_BYTES // _BYTES_PER_CANDIDATE
_INTEGRAL_PANELS = 2**23
PICARD_TOL = 1e-14
PICARD_MAX_ITER = 40
# Picard on a panel contracts at worst like (int |M|)^k / k!. A panel
# keeps int |M| within PICARD_REACH, the c at which that worst case meets
# PICARD_TOL within half the sweep cap: c^20 / 20! = 1e-14 gives c = 1.657.
# On an oscillating M it contracts far faster.
PICARD_REACH = (PICARD_TOL * math.factorial(PICARD_MAX_ITER // 2)) ** (
    1.0 / (PICARD_MAX_ITER // 2)
)

# A panel's data are resolved when their last _TAIL Chebyshev coefficients
# are within _TAIL_TOL of their scales (the coupling bound, max |F'| and
# max |1/F'|), and so is a Levin panel's first solution, against the bound
# coupling * h / min |F'| of its B. Where e^{iF/h} is nearly resolved,
# so is the Levin matrix's homogeneous solution e^{-iF/h}, and the matrix
# nears singular (condition number about 1e3 over the tail of e^{iF/h}): a
# Levin panel's e^{iF/h} has a tail of _UNRESOLVED at least, about 50
# radians of phase (no first Levin solution on the corpora and the random
# models fails its check from h = 1e-1 to 1e-16; with a bound of 1e-2, one
# did). The split starts from _FIRST_PIECES equal pieces. The first _judge
# call takes _LEVELS[0] levels, each later one _LEVELS[1]: a call costs
# about as much as 40 candidates, and the pieces left after the first call
# mostly settle on their first level.
PANEL_POINTS = 32
_TAIL = 4
_TAIL_TOL = 1e-12
_UNRESOLVED = 0.1
_FIRST_PIECES = 8
_LEVELS = (3, 2)
# The split's budget: _SPARE_LEVELS levels below the zone's or the
# coupling's level (the bump edges of the corpora settle within 5 levels
# of the first pieces, the zone's panels within 1 of its own level), at most
# MAX_LEVELS levels (m = 1 on a unit span down to h of about 1e-35) and
# MAX_PANELS pieces within PICARD_REACH of the coupling (an amplitude of
# about 4e3 on a unit span), with as many again for the split's other
# panels and candidates; a panel's data take 2 kB. The split starts at the
# least level within _REACH_SLACK levels of the coupling's: the pieces of
# the level above are then longer than PICARD_REACH / coupling by a factor
# 1 + 7e-10 at least, far beyond the rounding of their ends.
_SPARE_LEVELS = 9
_REACH_SLACK = 1e-9
MAX_LEVELS = 64
MAX_PANELS = 2**12

logger = logging.getLogger("crossing_kit")


@dataclass
class SolveStats:
    """The work of one march, which its DEBUG line (str) reports: the span
    [lo, hi] marched of x_from -> x_to, the deepest level of its panels and
    the one the budget allows, and per kind the panels, the batches that
    hold them (one of both kinds counts for both) and their sweeps."""

    h: float
    lo: float
    hi: float
    x_from: float
    x_to: float
    level: int
    allowed_level: int
    rows_per_sweep: int = 0  # Neumann rows each sweep integrates (_one_chain)
    levin_panels: int = 0
    levin_batches: int = 0
    levin_sweeps: int = 0
    direct_panels: int = 0
    direct_batches: int = 0
    direct_sweeps: int = 0
    levin_split: int = 0  # Levin panels the check split in halves

    def __str__(self) -> str:
        return (
            "h=%(h).6e: marched [%(lo)g, %(hi)g] (from x=%(x_from)g to %(x_to)g) on "
            "panels down to level %(level)d of %(allowed_level)d, %(rows_per_sweep)d "
            "Neumann rows per sweep; %(levin_panels)d Levin panels of %(levin_nodes)d "
            "nodes as %(levin_batches)d panel batches of %(levin_sweeps)d sweeps, "
            "%(direct_panels)d direct panels of %(direct_nodes)d nodes as "
            "%(direct_batches)d panel batches of %(direct_sweeps)d sweeps, "
            "%(levin_split)d panels split by the Levin check"
        ) % dict(
            vars(self),
            levin_nodes=self.levin_panels * PANEL_POINTS,
            direct_nodes=self.direct_panels * PANEL_POINTS,
        )


@dataclass(frozen=True)
class System:
    """a' = M a, M = [[0, m1 e^{iF/h}], [m2 e^{-iF/h}, 0]], as a problem
    family supplies it, marched from left to right: the facts only the
    family knows. F(0) = 0, and the march works out the rest from
    ``local``: the phase F as the integral of F' from 0 (_span), and
    whether M is skew-Hermitian from m1 and m2 at the panel points.

    ``local(x)`` gives the phase rate F' at the nodes x and the smooth
    coefficients (m1, m2) there, each of shape (len(x),).

    ``support`` is the hull of the points where M may be nonzero, or None
    where M vanishes everywhere; a is constant outside it. ``zone`` is the
    width of the stationary zone, about (h / |F^{(m+1)}(0)|)^{1/(m+1)}
    for a crossing of order m at 0, where F/h turns by about a radian; it
    sets how deep the split may go. ``coupling`` bounds max(|m1|, |m2|);
    it sets the panel lengths.
    """

    h: float
    support: tuple[float, float] | None
    zone: float
    coupling: float
    local: Callable


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


def _propagator(one: bool, sums: np.ndarray) -> np.ndarray:
    """Propagators U, of shape (..., 2, 2), from the chains' even and odd
    terms summed at their ends, ``sums`` of shape (2, chains, ...): of one
    chain where M is skew-Hermitian (``one``), else of two."""
    # chain 0 sums O_0 at odd k and E_1 at even k, chain 1 O_1 and E_0
    even, odd = sums
    e1, o0 = even[0], odd[0]
    if one:
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


def integral(func, a: float, b: float):
    """int_a^b of ``func`` by the panels' Clenshaw-Curtis rule on max(4,
    ceil(8 |b - a|)) equal panels, at most _INTEGRAL_PANELS (more raise
    ValidationError): enough for an integrand analytic near [a, b], as F'
    is. ``func`` maps a 1-d array of points to values whose last axis runs
    over them. It is called on at most _PER_CALL panels' points at a time,
    so beyond the panels' edges (8 bytes a panel) the memory does not grow
    with |b - a|."""
    points, cum = _cheb()[:2]
    if not 8.0 * abs(b - a) <= _INTEGRAL_PANELS:
        raise ValidationError(
            f"[{a:g}, {b:g}] is too wide to integrate: over {_INTEGRAL_PANELS} panels"
        )
    edges = np.linspace(a, b, max(4, math.ceil(8.0 * abs(b - a))) + 1)
    left, right, total = edges[:-1], edges[1:], 0.0
    for k in range(0, left.size, _PER_CALL):
        lo, hi = left[k : k + _PER_CALL], right[k : k + _PER_CALL]
        half = 0.5 * (hi - lo)
        x = (lo + half)[:, None] + half[:, None] * points
        values = np.asarray(func(x.ravel()))
        values = values.reshape(values.shape[:-1] + x.shape)
        total = total + (values @ cum[-1]) @ half
    return total


def _one_chain(values: np.ndarray) -> bool:
    """Whether M is skew-Hermitian, m2 == -conj(m1), at every point of the
    panels' _judge ``values``, the points the solve uses: its propagators
    then take one Neumann chain, else two."""
    return bool((values[:, 1] == -np.conj(values[:, 0])).all())


def _panel_data(system: System, lo: np.ndarray, hi: np.ndarray):
    """Half-lengths and local(x) at the Chebyshev points, (rate, m1, m2),
    each of shape (panels, PANEL_POINTS), of the panels [lo[k], hi[k]]."""
    half = 0.5 * (hi - lo)
    x = (lo + half)[:, None] + half[:, None] * _cheb()[0]
    rate, (m1, m2) = system.local(x.ravel())
    return half, tuple(np.reshape(v, x.shape) for v in (rate, m1, m2))


def _levels(system: System, lo: float, hi: float) -> tuple[int, int]:
    """The levels of halves below the first pieces of [lo, hi] where the
    split starts and the deepest it may reach. It starts at the first
    level whose pieces can be within PICARD_REACH of the system's
    ``coupling`` (within _REACH_SLACK), and goes _SPARE_LEVELS below the
    level whose pieces are as narrow as its ``zone`` or within that reach.
    Raises ValidationError, before any candidate is judged, where the
    pieces within PICARD_REACH number more than MAX_PANELS or the split
    needs more than MAX_LEVELS levels."""
    piece = (hi - lo) / _FIRST_PIECES
    reach = max(0.0, math.log2(piece * system.coupling / PICARD_REACH))
    if not reach <= math.log2(MAX_PANELS / _FIRST_PIECES):
        raise ValidationError(
            f"the coupling would need more than max_panels={MAX_PANELS} panels "
            "within PICARD_REACH; weaken it or shrink its support"
        )
    # an h near the underflow limit can make the zone 0
    zone = max(0.0, math.log2(piece / system.zone)) if system.zone > 0.0 else math.inf
    levels = _SPARE_LEVELS + max(reach, zone)
    if not levels <= MAX_LEVELS:
        raise ValidationError(
            f"the panel split would need about {levels:.3g} levels (> max_levels="
            f"{MAX_LEVELS}); raise h or shrink the interval"
        )
    return math.ceil(reach - _REACH_SLACK), math.ceil(levels)


def _judge(system: System, lo: np.ndarray, hi: np.ndarray):
    """Verdicts on the candidate panels [lo[k], hi[k]] and their data.

    A verdict is 2 for a direct panel, 1 for a Levin panel (see the module
    docstring) and -1 for a split in halves. The data are the half-lengths
    and, at the points, m1, m2, e^{iF/h} with the phase taken from the
    left edge, and F'.
    """
    half, (rate, m1, m2) = _panel_data(system, lo, hi)
    # where the phases overflow, such candidates split
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
    verdict = np.where(near & levin, 1, -1)
    verdict[near & fine[:, :2].all(axis=1)] = 2
    return verdict, (half, values[:, 2:6])


def _judged(system: System, lo: np.ndarray, hi: np.ndarray):
    """_judge's verdicts on all the candidates, at most _PER_CALL =
    CHUNK_BYTES // _BYTES_PER_CANDIDATE per call, and its data on those
    with a verdict other than a split."""
    calls = []
    for first in range(0, lo.size, _PER_CALL):
        cut = slice(first, first + _PER_CALL)
        verdict, (half, data) = _judge(system, lo[cut], hi[cut])
        calls.append((verdict, half[verdict > 0], data[verdict > 0]))
    return calls[0] if len(calls) == 1 else tuple(map(np.concatenate, zip(*calls)))


def _split(system: System, left, right, depth: int, deepest: int):
    """The candidates [left[k], right[k]], all ``depth`` levels below the
    first pieces, cut into panels: returns the panel edges, left to right,
    each panel's level and, per panel, whether it is direct, then _judge's
    data.

    Each candidate splits in halves until it has a verdict, down to level
    ``deepest``. One _judge call takes the candidates and the levels of
    halves below them that _LEVELS allows, as far as they fit in one call
    (_judged); a piece is kept where it has a verdict and no piece above it
    has one, and the halves of the last level's other pieces are the next
    candidates. A piece of level ``deepest`` without a verdict, or more
    than 2 * MAX_PANELS panels and candidates, raise StepFailure.
    """
    found, kept = [], 0
    while left.size:
        if kept + left.size > 2 * MAX_PANELS:
            raise StepFailure(
                f"the panel split of [{left[0]:g}, {right[-1]:g}] needs more than "
                f"{2 * MAX_PANELS} panels and candidates"
            )
        if depth > deepest:
            raise StepFailure(
                f"the panel split left [{left[0]:g}, {right[0]:g}] unresolved "
                f"{deepest} levels deep"
            )
        count = min(_LEVELS[bool(found)], deepest + 1 - depth)
        # the levels below the candidates join them only within one call
        while count > 1 and left.size * (2**count - 1) > _PER_CALL:
            count -= 1
        levels = [(left, right)]
        for _ in range(count - 1):
            left, right = levels[-1]
            mid = 0.5 * (left + right)
            levels.append((np.concatenate((left, mid)), np.concatenate((mid, right))))
        left, right = (np.concatenate(ends) for ends in zip(*levels))
        level = np.repeat(depth + np.arange(len(levels)), [p.size for p, _ in levels])
        depth += len(levels)
        verdict, half, values = _judged(system, left, right)
        keep, start = np.zeros(left.size, bool), 0
        free, last_size = np.ones(len(levels[0][0]), bool), levels[-1][0].size
        for piece, _ in levels:
            judged = verdict[start : start + piece.size] > 0
            keep[start : start + piece.size] = free & judged
            free, start = free & ~judged, start + piece.size
            if piece.size < last_size:
                free = np.concatenate((free, free))
        chosen = keep[verdict > 0]
        found.append([f[keep] for f in (left, right, level, verdict)])
        found[-1] += [half[chosen], values[chosen]]
        kept += np.count_nonzero(keep)
        left, right = piece[free], levels[-1][1][free]
        mid = 0.5 * (left + right)
        left, right = np.concatenate((left, mid)), np.concatenate((mid, right))
    # one copy at a time: the pieces, then their concatenation
    found = [np.concatenate(f) for f in zip(*found)]
    order = np.argsort(found[0])
    left, right, level, verdict, half, values = (f[order] for f in found)
    return np.append(left, right[-1]), level, (verdict == 2, half, values)


def _edge_phases(edges: np.ndarray, data, anchor: int, phi: float) -> np.ndarray:
    """The phase at the panel ``edges``: ``phi`` at edges[anchor], and the
    panels' own integrals of F' (_judge's ``data``) summed outward from
    there, so that the rounding at an edge is relative to the phase's
    change from the anchor."""
    _, half, values = data
    steps = half * (values[:, 3].real @ _cheb()[1][-1])
    phase = np.empty(len(edges))
    phase[anchor] = phi
    phase[anchor + 1 :] = phi + np.cumsum(steps[anchor:])
    phase[:anchor] = phi - np.cumsum(steps[:anchor][::-1])[::-1]
    return phase


def _levin(system: System, phase: np.ndarray, edges: np.ndarray, data, one: bool):
    """The propagators of the panels between ``edges``, each from its own
    left edge, with their ``data`` as _split gives them and the phase at
    their left edges, of one Neumann chain where ``one`` (_one_chain), else
    of two: returns U of shape (panels, 2, 2), a(edges[k + 1]) =
    U[k] a(edges[k]), the sweeps and a flag per panel whose first Levin
    solution is not resolved (its U is not computed).

    Each panel sums the Neumann series of its own propagator (see the
    module docstring), all panels in one sweep. A chain's term is S +
    e^{+-iF/h} B at the panels' points, e^{+-iF/h} that at the panel's
    left edge times the data's. The panels' integrals are one real product
    on (re, im) pairs, the Levin panels' B' complex products batched per
    panel. A first Levin solution is resolved where its tail is within
    _TAIL_TOL of coupling * h / min |F'|, the bound of its B on the panel.
    The stop rule, cap and overflow check are _stops on the bound |S| +
    |B| of the term, with scale 1: the data are the identity.
    """
    _, cum, deriv, _, pairs = _cheb()
    direct, half, values = data
    m1, m2, local, rate = values.transpose(1, 0, 2)
    rate = rate.real
    chains, levin, inverse = 1 if one else 2, np.flatnonzero(~direct), None
    refused = np.zeros(len(half), dtype=bool)
    if levin.size:
        diag = np.arange(PANEL_POINTS)
        matrix = deriv / half[levin, None, None] + 0j
        matrix[:, diag, diag] += (1j / system.h) * rate[levin]
        # the minus sign's matrix is the conjugate: B' = conj(inv conj(m S))
        inverse = np.linalg.inv(matrix).transpose(0, 2, 1)
        del matrix
        bound = system.coupling * system.h / np.abs(rate[levin]).min(axis=1)
    # chain c's multiplier at term k is row c + k % 2 and row 1 carries the
    # minus sign; S' integrates mu S (mu = 0 on Levin panels) and m B, both
    # times the half-lengths. Each is kept by parity.
    inside = np.exp(1j * phase[:, None] / system.h) * local
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
                refused[levin] = ~(_tail(solved) <= _TAIL_TOL * bound).all(axis=0)
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
    return _propagator(one, sums), it, refused


def _product(u: np.ndarray) -> np.ndarray:
    """The ordered product u[-1] @ ... @ u[0] of a stack of 2x2 matrices,
    as pairwise batched products."""
    while len(u) > 1:
        even = len(u) - len(u) % 2
        u = np.concatenate((u[1:even:2] @ u[0:even:2], u[even:]))
    return u[0]


def _solve(system: System, edges, phase, level, data, deepest: int, stats):
    """The propagators of the panels between ``edges``, with the phase at
    their left edges, their levels and their data as _split gives them, in
    batches of at most CHUNK_BYTES // _BYTES_PER_PANEL panels: of one
    Neumann chain where _one_chain finds M skew-Hermitian on them, else of
    two. A Levin panel the check refuses takes that of its halves (_span,
    down to level ``deepest``), from the phase at its left edge. Adds its
    work to ``stats``, a SolveStats."""
    direct, half, values = data
    one = _one_chain(values)
    stats.rows_per_sweep = max(stats.rows_per_sweep, 1 if one else 2)
    per_batch = max(1, CHUNK_BYTES // _BYTES_PER_PANEL)
    props = []
    for first in range(0, len(half), per_batch):
        cut = slice(first, first + per_batch)
        batch = edges[first : first + per_batch + 1]
        u, sweeps, bad = _levin(
            system, phase[cut], batch, (direct[cut], half[cut], values[cut]), one
        )
        levin = int(np.count_nonzero(~direct[cut] & ~bad))
        plain = int(np.count_nonzero(direct[cut]))
        stats.levin_panels += levin
        stats.levin_batches += levin > 0
        stats.levin_sweeps += sweeps if levin else 0
        stats.direct_panels += plain
        stats.direct_batches += plain > 0
        stats.direct_sweeps += sweeps if plain else 0
        stats.levin_split += int(np.count_nonzero(bad))
        stats.level = max(stats.level, int(level[cut].max()))
        for k in np.flatnonzero(bad):
            lo, hi = batch[k : k + 2]
            cuts = np.array([lo, 0.5 * (lo + hi), hi])
            depth = level[first + k] + 1
            u[k] = _span(system, cuts, depth, deepest, stats, phase[first + k])
        props.append(u)
    return np.concatenate(props)


def _halves(cuts: np.ndarray, levels: int) -> np.ndarray:
    """The ends of the pieces ``levels`` levels of halves below those
    between ``cuts``, each midpoint taken as _split takes it."""
    for _ in range(levels):
        halved = np.empty(2 * len(cuts) - 1)
        halved[::2], halved[1::2] = cuts, 0.5 * (cuts[:-1] + cuts[1:])
        cuts = halved
    return cuts


def _span(system: System, cuts, depth: int, deepest: int, stats, start=None):
    """The propagator of [cuts[0], cuts[-1]] on panels: _split cuts them
    from the pieces between ``cuts``, ``depth`` levels below the first
    pieces, and _solve solves them. The phase at their edges is ``start``
    at the left edge where given, else, as F(0) = 0, the integral of F'
    from 0 at the edge nearest x = 0 (0 without a call where that edge is
    0); the panels' integrals of F' are summed outward from there
    (_edge_phases)."""
    edges, level, data = _split(system, cuts[:-1], cuts[1:], depth, deepest)
    anchor, phi = 0, start
    if start is None:
        anchor, phi = int(np.argmin(np.abs(edges))), 0.0
        if edges[anchor] != 0.0:
            phi = float(integral(lambda x: system.local(x)[0], 0.0, edges[anchor]))
    phase = _edge_phases(edges, data, anchor, phi)
    return _product(_solve(system, edges, phase[:-1], level, data, deepest, stats))


def march(system: System, a: np.ndarray, x_from: float, x_to: float) -> np.ndarray:
    """Carry coefficients a (shape (columns, 2)) from x_from to x_to; the
    march runs left to right only, x_to < x_from raises ValidationError.

    Only the span's overlap with ``system.support`` is marched; a is
    constant on the rest. The split's budget (_levels) is checked before
    any work, then the span's propagator U is that of its panels (_span),
    cut from the pieces of the split's first level, and a = U a; a span
    where M vanishes returns a as it is. One DEBUG line on the
    ``crossing_kit`` logger reports the march's SolveStats, which the log
    record carries as ``stats``. An overflow in a sweep raises
    StepFailure, without a numpy warning. Returns the coefficients at
    x_to.
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
    first, deepest = _levels(system, lo, hi)
    cuts = lo + (hi - lo) * np.linspace(0.0, 1.0, _FIRST_PIECES + 1)
    stats = SolveStats(system.h, lo, hi, x_from, x_to, level=0, allowed_level=deepest)
    # an overflow shows as a non-finite Picard change, which _stops raises
    with np.errstate(over="ignore", invalid="ignore"):
        u = _span(system, _halves(cuts, first), first, deepest, stats)
    logger.debug("%s", stats, extra={"stats": stats})
    return a @ u.T
