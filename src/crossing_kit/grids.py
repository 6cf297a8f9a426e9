"""Uniform grids and sampled functions.

A GridFunction is the package's exchange format for solutions and operator
outputs: complex samples on a uniform grid, dense enough to resolve the
fastest oscillation present (the builders enforce a points-per-period
floor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class GridFunction:
    """Complex samples ``values[k]`` at ``x0 + k*dx``, k = 0..n-1."""

    values: np.ndarray
    x0: float
    dx: float
    n: int

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != (self.n,):
            raise ValidationError(
                f"values shape {self.values.shape} != (n,) = ({self.n},)"
            )
        if not (self.dx > 0):
            raise ValidationError("dx must be positive")

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n)

    @property
    def x1(self) -> float:
        return self.x0 + self.dx * (self.n - 1)

    def index_of(self, x: float) -> int:
        """Nearest grid index to x (clipped to the grid)."""
        k = int(round((x - self.x0) / self.dx))
        return min(max(k, 0), self.n - 1)

    def window(self, center: float, npoints: int) -> slice:
        """Slice of ``npoints`` indices centered at the node nearest center.

        Raises ValidationError when the window does not fit in the grid.
        """
        k = self.index_of(center)
        half = npoints // 2
        lo, hi = k - half, k - half + npoints
        if lo < 0 or hi > self.n:
            raise ValidationError(
                f"window of {npoints} points at x={center:g} leaves the grid"
            )
        return slice(lo, hi)


# every grid has at least N_MIN nodes and fewer than N_MAX (several GB of
# work arrays per grid at the limit)
N_MIN = 2001
N_MAX = 40_000_000


def grid_spacing(
    x_left: float, x_right: float, max_rate: float, h: float, points_per_period: int
) -> float:
    """Target mesh width for ``grid_for``, checked against ``N_MAX``.

    Raises ValidationError when the grid would need ``N_MAX`` nodes or
    more; callers that walk a grid without building it whole use it as
    their spacing and node budget before any work starts.
    """
    dx_target = (x_right - x_left) / (N_MIN - 1)
    if max_rate > 0:
        dx_osc = 2.0 * np.pi * h / (max_rate * points_per_period)
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


def grid_for(
    x_left: float, x_right: float, max_rate: float, h: float, points_per_period: int
) -> tuple[np.ndarray, float, int, int]:
    """Uniform grid on [x_left, x_right'] containing 0 as an exact node.

    ``max_rate`` bounds the local phase rate |F'| = |f|; the mesh resolves
    the local period 2*pi*h/|F'| with at least ``points_per_period`` nodes.
    The right endpoint is extended by less than one cell so that both
    endpoints are integer multiples of dx. Returns (x, dx, n, k0) with
    x[k0] = 0.

    Raises ValidationError when the requested resolution needs more than
    ``N_MAX`` nodes.
    """
    if not (x_left < 0.0 < x_right):
        raise ValidationError("grid must straddle 0")
    dx_target = grid_spacing(x_left, x_right, max_rate, h, points_per_period)
    n_left = int(np.ceil(-x_left / dx_target))
    dx = -x_left / n_left
    n_right = int(np.ceil(x_right / dx - 1e-12))
    n = n_left + n_right + 1
    if n > N_MAX:
        raise ValidationError(
            f"grid would need {n} nodes (> n_max={N_MAX}); "
            "raise h or shrink the interval"
        )
    x = (np.arange(n) - n_left) * dx
    return x, dx, n, n_left
