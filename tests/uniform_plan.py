"""The uniform plan of Picard chunks: the oracle of the march's panels.

``march.march`` solves every span on panels of Chebyshev points. This
module keeps the solver the march used before its panels reached every
h, as it stood: one pass of Picard chunks (``_plan``), each a uniform grid
within CHUNK_BYTES and PICARD_REACH whose dx resolves the fastest phase
rate on its own span and one chunk's length on each side with
POINTS_PER_PERIOD nodes per period, solved in turn (``_picard``) with the
phase by ``cum_quad10``, a tenth-order rule, in work arrays allocated
once per march. Its cost grows like 1/h, so the tests run it at moderate
h, as an independent route to the same transfer matrices.

The plan needs a bound on |F'| over any sub-interval, which the march's
``System`` does not carry: ``system(prob)`` adds it (``rate_on``) for
either problem family, and ``march(system, a, x_from, x_to)`` marches
such a system from the exact phase at the start of its support.
``march_uniformly(monkeypatch)`` routes every extraction through it.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from crossing_kit import march as panels
from crossing_kit import normalform, schrodinger
from crossing_kit.errors import ValidationError
from crossing_kit.march import (
    CHUNK_BYTES,
    PICARD_MAX_ITER,
    PICARD_REACH,
    _chains,
    _propagator,
    _stops,
)
from crossing_kit.profiles import Poly1

from quad10 import cum_quad10

# The mesh rule: each chunk resolves the fastest phase rate on and near its
# own span with POINTS_PER_PERIOD nodes per period, and no dx is wider than
# the one that puts N_MIN nodes on the system's interval. With cum_quad10's
# tenth-order rule, 14 points per period keep T within 2.5e-11 of the same
# march at 96 on both corpora. A march steps fewer than N_MAX nodes (it
# walks its grid in chunks, so the limit bounds its run time, not its
# memory). The rate bound is read on RATE_PIECES equal pieces of the
# marched span: a chunk's dx is at most the dx of every piece it resolves,
# and the pieces' node count is checked before any planning.
POINTS_PER_PERIOD = 14
N_MIN = 2001
N_MAX = 40_000_000
RATE_PIECES = 128
# No chunk has more than CHUNK_BYTES // _BYTES_PER_NODE nodes, whatever h
# is. _BYTES_PER_NODE bounds the traced peak of a march per node of its
# longest chunk from above: tracemalloc reads about 210 bytes for two
# chains and 150 for one.
_BYTES_PER_NODE = 1024
# A chunk has at least _MIN_CHUNK_CELLS cells (cum_quad10 needs 10 nodes).
_MIN_CHUNK_CELLS = 10

logger = logging.getLogger("crossing_kit")


@dataclass(frozen=True)
class System(panels.System):
    """A march's system with ``rate_on(lo, hi)``, which bounds |F'| on each
    [lo[k], hi[k]] of the arrays lo <= hi; it sets the plan's mesh and its
    node budget."""

    rate_on: Callable | None = None


def abs_max_on(poly: Poly1, lo, hi) -> np.ndarray:
    """max |p| over each [lo_k, hi_k], for arrays lo <= hi."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    bound = np.maximum(np.abs(poly(lo)), np.abs(poly(hi)))
    for c in poly.critical_points:
        inside = (lo <= c) & (c <= hi)
        bound[inside] = np.maximum(bound[inside], abs(float(poly(c))))
    return bound


def rate_on(prob) -> Callable:
    """The rate bound of ``prob``: max |f| on each piece for the model, and
    for the pair |V_1 - V_2| / (p_1 + p_2) with each p_j at its least on
    the piece, plus h^2 times a bound of |kappa_j| / (2 p_j) summed over j
    on the interval."""
    if isinstance(prob, normalform.NormalFormProblem):
        return lambda lo, hi: abs_max_on(prob.f, lo, hi)
    h, ends, v = prob.h, ([prob.x_in], [prob.x_out]), (prob.v1, prob.v2)
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


def _with_rate(base: panels.System, prob) -> System:
    own = {f.name: getattr(base, f.name) for f in fields(base)}
    return System(**own, rate_on=rate_on(prob))


def system(prob) -> System:
    """The family's march system of ``prob`` with its rate bound."""
    if isinstance(prob, normalform.NormalFormProblem):
        base = normalform._system(prob)
    else:
        base = schrodinger._system(prob)
    return base if isinstance(base, System) else _with_rate(base, prob)


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
    """Carry coefficients a (shape (columns, 2)) from x_from to x_to on the
    uniform plan, as ``march.march`` does on panels: only the span's
    overlap with ``system.support`` is marched, from the exact phase at its
    start, and a is constant on the rest. The plan and its node budget are
    checked before any work. One DEBUG line on the ``crossing_kit`` logger
    reports the marched nodes, the marched span, the smallest and largest
    dx, Picard chunks, the sweeps of all chunks, the most any chunk needed
    and the Neumann rows each sweep integrates."""
    if x_to < x_from:
        raise ValidationError(f"marches left to right only, not {x_from:g} -> {x_to:g}")
    lo, hi = x_from, x_to
    if system.support is not None:
        lo, hi = max(lo, system.support[0]), min(hi, system.support[1])
    if system.support is None or not lo < hi:
        return a
    plan = _plan(system, lo, hi)
    work = _work(system, max(cells for _, cells in plan) + 1)
    # an overflow shows as a non-finite Picard change, which _stops raises
    with np.errstate(over="ignore", invalid="ignore"):
        a, _, sweeps, worst = _uniform(system, a, system.phase(lo), lo, plan, work)
    dx = [dx for dx, _ in plan]
    logger.debug(
        "h=%.6e: marched %d nodes on [%g, %g] (from x=%g to %g), dx %.3g "
        "to %.3g, as %d Picard chunks of %d sweeps, at most %d in a chunk, "
        "%d Neumann rows per sweep",
        *(system.h, sum(cells for _, cells in plan) + 1, lo, hi, x_from, x_to),
        *(min(dx), max(dx), len(plan), sweeps, worst, _chains(system)),
    )
    return a


def march_uniformly(monkeypatch) -> None:
    """Make every extraction march on the uniform plan while
    ``monkeypatch`` (a pytest MonkeyPatch, or one of its contexts) holds:
    both families' systems carry their rate bound and ``march.march`` is
    ``march``."""
    for module in (normalform, schrodinger):
        build = module._system
        monkeypatch.setattr(
            module, "_system", lambda prob, build=build: _with_rate(build(prob), prob)
        )
    monkeypatch.setattr(panels, "march", march)
