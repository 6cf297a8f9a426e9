"""Numerical inner-loop kernel: the march's quadrature.

The cumulative quadrature powers the march (phases and Picard sweeps, in
``march``) and is called inside its hot loops. There is one
implementation, vectorized numpy.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# Weights of the order-6 cumulative rule: the integral over one mesh cell of
# the quintic through six consecutive samples. Row d integrates [t_d, t_{d+1}]
# with nodes at t_0..t_5; d=2 is the centered (interior) row, d=0,1 / d=3,4
# serve the first / last two cells where the stencil cannot be centered.
# Exact rationals, derived from the 6x6 Vandermonde moment system.
_W6 = np.array(
    [
        [95 / 288, 1427 / 1440, -133 / 240, 241 / 720, -173 / 1440, 3 / 160],
        [-3 / 160, 637 / 1440, 511 / 720, -43 / 240, 77 / 1440, -11 / 1440],
        [11 / 1440, -31 / 480, 401 / 720, 401 / 720, -31 / 480, 11 / 1440],
        [-11 / 1440, 77 / 1440, -43 / 240, 511 / 720, 637 / 1440, -3 / 160],
        [3 / 160, -173 / 1440, 241 / 720, -133 / 240, 1427 / 1440, 95 / 288],
    ]
)


def cum_quad6(
    values: np.ndarray, dx: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Cumulative integral of uniformly sampled values, sixth order.

    Integrates along the last axis, so a stack of rows is one call. Returns
    an array of the same shape whose entry k approximates the integral from
    the first node to node k (entry 0 is exactly 0). Each mesh cell
    integrates the quintic through the six nearest samples. ``out``, a
    C-contiguous complex array of the same shape, receives the result
    instead of a new array: the cell integrals are written into it and
    summed in place, so the call allocates nothing of the input's size.
    """
    values = np.ascontiguousarray(values, dtype=np.complex128)
    n = values.shape[-1]
    if n < 6:
        raise ValueError("cum_quad6 needs at least 6 samples")
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    # the integral over cell k goes to out[..., k + 1]; interior cells
    # k = 2 .. n-4 all use the centered row
    windows = np.lib.stride_tricks.sliding_window_view(values, 6, axis=-1)
    np.matmul(windows[..., : n - 5, :], _W6[2], out=out[..., 3 : n - 2])
    out[..., 1] = values[..., :6] @ _W6[0]
    out[..., 2] = values[..., :6] @ _W6[1]
    out[..., n - 2] = values[..., n - 6 :] @ _W6[3]
    out[..., n - 1] = values[..., n - 6 :] @ _W6[4]
    out[..., 0] = 0.0
    np.cumsum(out[..., 1:], axis=-1, out=out[..., 1:])
    # scaling the whole array, not the strided out[..., 1:], takes no ufunc
    # buffers; entry 0 is reset after, as 0 * dx is -0 for dx < 0
    out *= float(dx)
    out[..., 0] = 0.0
    return out
