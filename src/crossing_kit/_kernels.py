"""Numerical inner-loop kernels.

Everything here is called inside the hot loops of the package: the
cumulative quadrature that powers the Volterra coupling operators and the
coupled pair's march, and the right-hand sides handed to the ODE
integrators (~1e6 evaluations per solve at the smallest mesh sizes). There
is one implementation of each: the quadrature is vectorized numpy, the
right-hand sides are plain Python.
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


def _bump_val(x, center, width, amplitude):
    # smooth compactly supported profile, value `amplitude` at its center
    t = (x - center) / width
    t2 = t * t
    if t2 >= 1.0:
        return 0.0
    return amplitude * np.exp(1.0 - 1.0 / (1.0 - t2))


def _polyval_asc(coeffs, x):
    # Horner evaluation, coefficients in ascending order
    acc = 0.0
    for k in range(coeffs.shape[0] - 1, -1, -1):
        acc = acc * x + coeffs[k]
    return acc


def model_rhs(x, y, f_coeffs, r1p, r2p, h):
    """Right-hand side of the 2x2 reduced system, first-order form.

    y = (u1, u2) with u1' = -i r1 u2, u2' = (i/h) f u2 - i r2 u1.
    r1p/r2p pack (center, width, amplitude) of the coupling bumps.
    """
    f = _polyval_asc(f_coeffs, x)
    r1 = _bump_val(x, r1p[0], r1p[1], r1p[2])
    r2 = _bump_val(x, r2p[0], r2p[1], r2p[2])
    out = np.empty(2, dtype=np.complex128)
    out[0] = -1j * r1 * y[1]
    out[1] = (1j / h) * f * y[1] - 1j * r2 * y[0]
    return out


def schrod_rhs(x, y, v1_coeffs, v2_coeffs, wp, e0, h):
    """Right-hand side of the coupled Schrodinger pair, first-order form.

    y = (u1, u1', u2, u2'); u_j'' = ((V_j - E0) u_j + h W u_other) / h^2.
    """
    v1 = _polyval_asc(v1_coeffs, x)
    v2 = _polyval_asc(v2_coeffs, x)
    w = _bump_val(x, wp[0], wp[1], wp[2])
    out = np.empty(4, dtype=np.complex128)
    out[0] = y[1]
    out[1] = ((v1 - e0) * y[0] + h * w * y[2]) / (h * h)
    out[2] = y[3]
    out[3] = ((v2 - e0) * y[2] + h * w * y[0]) / (h * h)
    return out


def cum_quad6(values: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled values, sixth order.

    Integrates along the last axis, so a stack of rows is one call. Returns
    an array of the same shape whose entry k approximates the integral from
    the first node to node k (entry 0 is exactly 0). Each mesh cell
    integrates the quintic through the six nearest samples.
    """
    values = np.ascontiguousarray(values, dtype=np.complex128)
    n = values.shape[-1]
    if n < 6:
        raise ValueError("cum_quad6 needs at least 6 samples")
    out = np.empty(values.shape, dtype=np.complex128)
    out[..., 0] = 0.0
    # interior cells k = 2 .. n-4 all use the centered row
    windows = np.lib.stride_tricks.sliding_window_view(values, 6, axis=-1)
    cells = np.empty(values.shape[:-1] + (n - 1,), dtype=np.complex128)
    cells[..., 2 : n - 3] = windows[..., : n - 5, :] @ _W6[2]
    cells[..., 0] = values[..., :6] @ _W6[0]
    cells[..., 1] = values[..., :6] @ _W6[1]
    cells[..., n - 3] = values[..., n - 6 :] @ _W6[3]
    cells[..., n - 2] = values[..., n - 6 :] @ _W6[4]
    np.cumsum(cells, axis=-1, out=out[..., 1:])
    out[..., 1:] *= float(dx)
    return out
