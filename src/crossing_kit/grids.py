"""Uniform grids and sampled functions.

A GridFunction holds complex samples on a uniform grid (the Gaussian
pairing of ``oscquad`` takes one). ``grid_spacing`` sizes the mesh that
resolves a phase rate with a points-per-period floor and checks its node
budget.
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


# every grid has at least N_MIN nodes and fewer than N_MAX (the march walks
# a grid in chunks, so the limit bounds its run time, not its memory)
N_MIN = 2001
N_MAX = 40_000_000


def grid_spacing(
    x_left: float, x_right: float, max_rate: float, h: float, points_per_period: int
) -> float:
    """Mesh width on [x_left, x_right], checked against ``N_MAX``.

    The mesh resolves the local period 2*pi*h/max_rate with at least
    ``points_per_period`` nodes and has at least ``N_MIN`` nodes. Raises
    ValidationError when it would need ``N_MAX`` nodes or more, before any
    work starts.
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

