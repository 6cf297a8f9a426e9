"""Numerical inner-loop kernel: the march's quadrature.

The cumulative quadrature powers the march (phases and Picard sweeps, in
``march``) and is called inside its hot loops. There is one
implementation, vectorized numpy: every pass over a chunk is one
contiguous 1-D operation. A stack of rows is treated as one flat array
for the centered rule, whose few entries that straddle two rows are then
overwritten by the one-sided edge rules; dx is folded into the weights,
and the cumulative sum starts each row at its ``initial`` value.
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
# The centered row as Horner factors of its symmetric pair sums, and the
# edge rows as the columns of one matrix product per row end.
_C2_C1, _C1_C0, _C0 = _W6[2, 2] / _W6[2, 1], _W6[2, 1] / _W6[2, 0], _W6[2, 0]
_HEAD, _TAIL = _W6[:2].T.copy(), _W6[3:].T.copy()


def cum_quad6(
    values: np.ndarray,
    dx: float,
    out: np.ndarray | None = None,
    initial: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Cumulative integral of uniformly sampled values, sixth order.

    Integrates along the last axis, so a stack of rows is one call. Returns
    an array of the same shape whose entry k is ``initial`` plus the
    integral from the first node to node k; ``initial`` broadcasts against
    the rows (shape ``values.shape[:-1]``). Each mesh cell integrates the
    quintic through the six nearest samples. Real input gives float64,
    complex input complex128. ``out``, a C-contiguous array of that shape
    and dtype that shares no memory with ``values``, receives the result
    instead of a new array: the cell integrals are written into it and
    summed in place, so the call allocates nothing of the input's size.
    """
    values = np.asarray(values)
    dtype = np.complex128 if np.iscomplexobj(values) else np.float64
    values = np.ascontiguousarray(values, dtype=dtype)
    n = values.shape[-1]
    if n < 6:
        raise ValueError("cum_quad6 needs at least 6 samples")
    if out is None:
        out = np.empty(values.shape, dtype=dtype)
    elif (
        out.shape != values.shape
        or out.dtype != dtype
        or not out.flags.c_contiguous
    ):
        raise ValueError(
            f"out must be a C-contiguous {np.dtype(dtype)} array of shape "
            f"{values.shape}"
        )
    elif np.shares_memory(out, values):
        raise ValueError("out must not share memory with values")
    dx = float(dx)
    v, o = values.reshape(-1), out.reshape(-1)
    size = v.size
    # the centered rule on the flat arrays: the integral over cell k goes to
    # entry k + 1, c2 (v[k] + v[k+1]) + c1 (v[k-1] + v[k+2]) + c0 (v[k-2] +
    # v[k+3]) in Horner form. Entries whose stencil straddles two rows are
    # a row's first three and last two, which the edge rows overwrite.
    mid = o[3 : size - 2]
    np.add(v[2 : size - 3], v[3 : size - 2], out=mid)
    mid *= _C2_C1
    mid += v[1 : size - 4]
    mid += v[4 : size - 1]
    mid *= _C1_C0
    mid += v[: size - 5]
    mid += v[5:]
    mid *= _C0 * dx
    rows, o2 = values.reshape(-1, n), out.reshape(-1, n)
    np.matmul(rows[:, :6], _HEAD * dx, out=o2[:, 1:3])
    np.matmul(rows[:, n - 6 :], _TAIL * dx, out=o2[:, n - 2 :])
    out[..., 0] = initial
    np.add.accumulate(o2, axis=-1, out=o2)
    return out
