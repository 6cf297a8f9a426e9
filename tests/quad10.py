"""The tenth-order cumulative quadrature of uniform samples, for the
tests' oracles.

The uniform plan of Picard chunks (uniform_plan.py) integrates its phases
and sweeps with it, and the pair's four-coefficient march
(pair_oracle.py) its phases and terms; the package's own march solves on
Chebyshev panels instead. Each mesh cell integrates the degree-9
polynomial through the ten nearest samples. The rule is vectorized numpy:
every pass over a row is one contiguous 1-D operation. A stack of rows is
treated as one flat array for the centered rule (14 passes), whose
entries that straddle two rows, a row's first five and last four, are
then overwritten by the one-sided edge rules; dx is folded into the
weights, and the cumulative sum starts each row at its ``initial`` value.
"""

from __future__ import annotations

import numpy as np

# Weights of the order-10 cumulative rule: the integral over one mesh cell of
# the degree-9 polynomial through ten consecutive samples. Row d integrates
# [t_d, t_{d+1}] with nodes at t_0..t_9; d=4 is the centered (interior) row,
# d=0..3 / d=5..8 serve the first / last four cells where the stencil cannot
# be centered. Exact rationals, derived from the 10x10 Vandermonde moment
# system.
_W10 = np.array(
    [
        [
            25713 / 89600, 9449717 / 7257600, -1408913 / 907200,
            200029 / 90720, -8641823 / 3628800, 6755041 / 3628800,
            -462127 / 453600, 335983 / 907200, -116687 / 1451520,
            8183 / 1036800,
        ],
        [
            -8183 / 1036800, 2655563 / 7257600, 859009 / 907200,
            -274849 / 453600, 397331 / 725760, -1424417 / 3628800,
            92567 / 453600, -65039 / 907200, 110219 / 7257600, -425 / 290304,
        ],
        [
            425 / 290304, -163531 / 7257600, 391711 / 907200, 349817 / 453600,
            -1083167 / 3628800, 129581 / 725760, -38599 / 453600,
            25759 / 907200, -42187 / 7257600, 7 / 12800,
        ],
        [
            -7 / 12800, 10063 / 1451520, -42767 / 907200, 225623 / 453600,
            2381791 / 3628800, -583073 / 3628800, 5779 / 90720,
            -17663 / 907200, 27467 / 7257600, -2497 / 7257600,
        ],
        [
            2497 / 7257600, -28939 / 7257600, 581 / 25920, -40111 / 453600,
            2067169 / 3628800, 2067169 / 3628800, -40111 / 453600, 581 / 25920,
            -28939 / 7257600, 2497 / 7257600,
        ],
        [
            -2497 / 7257600, 27467 / 7257600, -17663 / 907200, 5779 / 90720,
            -583073 / 3628800, 2381791 / 3628800, 225623 / 453600,
            -42767 / 907200, 10063 / 1451520, -7 / 12800,
        ],
        [
            7 / 12800, -42187 / 7257600, 25759 / 907200, -38599 / 453600,
            129581 / 725760, -1083167 / 3628800, 349817 / 453600,
            391711 / 907200, -163531 / 7257600, 425 / 290304,
        ],
        [
            -425 / 290304, 110219 / 7257600, -65039 / 907200, 92567 / 453600,
            -1424417 / 3628800, 397331 / 725760, -274849 / 453600,
            859009 / 907200, 2655563 / 7257600, -8183 / 1036800,
        ],
        [
            8183 / 1036800, -116687 / 1451520, 335983 / 907200,
            -462127 / 453600, 6755041 / 3628800, -8641823 / 3628800,
            200029 / 90720, -1408913 / 907200, 9449717 / 7257600,
            25713 / 89600,
        ],
    ]
)
# The centered row as Horner factors of its symmetric pair sums, c4 (v[k] +
# v[k+1]) + c3 (v[k-1] + v[k+2]) + ... + c0 (v[k-4] + v[k+5]), and the edge
# rows as the columns of one matrix product per row end.
_C4_C3, _C3_C2, _C2_C1, _C1_C0 = (_W10[4, k + 1] / _W10[4, k] for k in (3, 2, 1, 0))
_C0 = _W10[4, 0]
_HEAD, _TAIL = _W10[:4].T.copy(), _W10[5:].T.copy()


def cum_quad10(
    values: np.ndarray,
    dx: float,
    out: np.ndarray | None = None,
    initial: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Cumulative integral of uniformly sampled values, tenth order.

    Integrates along the last axis, so a stack of rows is one call. Returns
    an array of the same shape whose entry k is ``initial`` plus the
    integral from the first node to node k; ``initial`` broadcasts against
    the rows (shape ``values.shape[:-1]``). Each mesh cell integrates the
    degree-9 polynomial through the ten nearest samples; a row needs at
    least ten. Real input gives float64, complex input complex128.
    ``out``, a C-contiguous array of that shape and dtype that shares no
    memory with ``values``, receives the result instead of a new array: the
    cell integrals are written into it and summed in place, so the call
    allocates nothing of the input's size.
    """
    values = np.asarray(values)
    dtype = np.complex128 if np.iscomplexobj(values) else np.float64
    values = np.ascontiguousarray(values, dtype=dtype)
    n = values.shape[-1]
    if n < 10:
        raise ValueError("cum_quad10 needs at least 10 samples")
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
    # the centered rule on the flat arrays, 14 passes: the integral over
    # cell k goes to entry k + 1, the pair sums around the cell in Horner
    # form. Entries whose stencil straddles two rows are a row's first five
    # and last four, which the edge rows overwrite.
    mid = o[5 : size - 4]
    np.add(v[4 : size - 5], v[5 : size - 4], out=mid)
    for ratio, lo in ((_C4_C3, 3), (_C3_C2, 2), (_C2_C1, 1), (_C1_C0, 0)):
        mid *= ratio
        mid += v[lo : size - 9 + lo]
        mid += v[9 - lo : size - lo]
    mid *= _C0 * dx
    rows, o2 = values.reshape(-1, n), out.reshape(-1, n)
    np.matmul(rows[:, :10], _HEAD * dx, out=o2[:, 1:5])
    np.matmul(rows[:, n - 10 :], _TAIL * dx, out=o2[:, n - 4 :])
    out[..., 0] = initial
    np.add.accumulate(o2, axis=-1, out=o2)
    return out
