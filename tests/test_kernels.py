"""Exactness, convergence and a scalar-loop reference for the inner-loop
kernels."""

import numpy as np
import pytest

from crossing_kit import _kernels
from crossing_kit._kernels import cum_quad6


def _cum_quad6_loop(values, dx, w6):
    # cumulative integral from the first grid point, one output per node
    n = values.shape[0]
    out = np.empty(n, dtype=np.complex128)
    out[0] = 0.0 + 0.0j
    acc = 0.0 + 0.0j
    for k in range(n - 1):
        s = k - 2
        if s < 0:
            s = 0
        if s > n - 6:
            s = n - 6
        d = k - s
        cell = 0.0 + 0.0j
        for j in range(6):
            cell += w6[d, j] * values[s + j]
        acc += dx * cell
        out[k + 1] = acc
    return out


def test_cum_quad6_polynomial_exactness():
    # the rule integrates quintics exactly (up to roundoff)
    x = np.linspace(-1.0, 2.0, 301)
    vals = (x**5 - 2 * x**3 + x - 4).astype(complex)
    exact = (x**6 / 6 - x**4 / 2 + x**2 / 2 - 4 * x) - (
        (-1.0) ** 6 / 6 - (-1.0) ** 4 / 2 + (-1.0) ** 2 / 2 - 4 * (-1.0)
    )
    got = cum_quad6(vals, x[1] - x[0])
    assert np.max(np.abs(got - exact)) <= 1e-12


def test_cum_quad6_order_six():
    # halving dx must shrink the error by ~2^6
    errs = []
    for n in (201, 401):
        x = np.linspace(0.0, 3.0, n)
        got = cum_quad6(np.exp(1j * 4.0 * x), x[1] - x[0])[-1]
        exact = (np.exp(1j * 12.0) - 1.0) / (4.0j)
        errs.append(abs(got - exact))
    order = np.log2(errs[0] / errs[1])
    assert order > 5.5


def test_cum_quad6_short_input_rejected():
    with pytest.raises(ValueError):
        cum_quad6(np.ones(5, dtype=complex), 0.1)


def test_backends_agree():
    rng = np.random.default_rng(7)
    x = np.linspace(-1.0, 1.0, 1001)
    vals = rng.normal(size=x.size) + 1j * rng.normal(size=x.size)
    dx = x[1] - x[0]
    # the vectorized kernel against the scalar-loop reference above
    a = _cum_quad6_loop(vals.astype(complex), dx, _kernels._W6)
    b = cum_quad6(vals, dx)
    scale = np.max(np.abs(a)) + 1.0
    assert np.max(np.abs(a - b)) <= 1e-13 * scale
