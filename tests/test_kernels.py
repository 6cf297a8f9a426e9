"""The kernel of the tests' oracles: exactness, convergence and a
scalar-loop reference for the tenth-order rule of quad10.py.

The rule was the package's kernel cum_quad6 before its tenth order, and
moved to the tests with the uniform plan; the tests of its call contract,
which it kept, still carry that name."""

from fractions import Fraction

import numpy as np
import pytest

import quad10
from quad10 import cum_quad10


def _cum_quad10_loop(values, dx, w10):
    # cumulative integral from the first grid point, one output per node
    n = values.shape[0]
    out = np.empty(n, dtype=np.complex128)
    out[0] = 0.0 + 0.0j
    acc = 0.0 + 0.0j
    for k in range(n - 1):
        s = k - 4
        if s < 0:
            s = 0
        if s > n - 10:
            s = n - 10
        d = k - s
        cell = 0.0 + 0.0j
        for j in range(10):
            cell += w10[d, j] * values[s + j]
        acc += dx * cell
        out[k + 1] = acc
    return out


def _moment_weights(points):
    # row d: the weights w_j with sum_j w_j j^p = int_d^{d+1} t^p dt for
    # p < points, by Gauss-Jordan elimination in exact rationals
    rows = []
    for d in range(points - 1):
        system = [
            [Fraction(j) ** p for j in range(points)]
            + [Fraction((d + 1) ** (p + 1) - d ** (p + 1), p + 1)]
            for p in range(points)
        ]
        for c in range(points):
            pivot = next(r for r in range(c, points) if system[r][c] != 0)
            system[c], system[pivot] = system[pivot], system[c]
            for r in range(points):
                if r != c and system[r][c] != 0:
                    f = system[r][c] / system[c][c]
                    system[r] = [a - f * b for a, b in zip(system[r], system[c])]
        rows.append([system[j][points] / system[j][j] for j in range(points)])
    return rows


def test_cum_quad10_weights_are_the_moment_solution():
    # the literal table is the exact rational solution, rounded once
    exact = _moment_weights(10)
    assert quad10._W10.shape == (9, 10)
    for row, want in zip(quad10._W10, exact):
        assert row.tolist() == [float(w) for w in want]
        assert sum(want) == 1


def test_cum_quad10_polynomial_exactness():
    # the rule integrates degree-9 polynomials exactly (up to roundoff), on
    # rows as short as the stencil
    for n in (10, 11, 301):
        x = np.linspace(-1.0, 2.0, n)
        vals = (x**9 - 2 * x**3 + x - 4).astype(complex)
        exact = (x**10 / 10 - x**4 / 2 + x**2 / 2 - 4 * x) - (
            (-1.0) ** 10 / 10 - (-1.0) ** 4 / 2 + (-1.0) ** 2 / 2 - 4 * (-1.0)
        )
        got = cum_quad10(vals, x[1] - x[0])
        assert np.max(np.abs(got - exact)) <= 1e-13 * (1.0 + np.max(np.abs(exact)))


def test_cum_quad10_order_ten():
    # halving dx must shrink the error by ~2^10; e^{4x} on [0, 2] keeps the
    # error thousands of times above rounding at both resolutions
    exact = (np.exp(8.0) - 1.0) / 4.0
    errs = []
    for n in (31, 61):
        x = np.linspace(0.0, 2.0, n)
        errs.append(abs(cum_quad10(np.exp(4.0 * x), x[1] - x[0])[-1] - exact))
    assert errs[1] > 1e3 * np.finfo(float).eps * exact
    order = np.log2(errs[0] / errs[1])
    assert 9.5 < order < 10.5, order


def test_cum_quad10_short_input_rejected():
    for shape in ((9,), (3, 9), (1,)):
        with pytest.raises(ValueError, match="at least 10"):
            cum_quad10(np.ones(shape, dtype=complex), 0.1)


def test_flat_stencil_matches_the_scalar_loop():
    rng = np.random.default_rng(7)
    x = np.linspace(-1.0, 1.0, 1001)
    vals = rng.normal(size=x.size) + 1j * rng.normal(size=x.size)
    dx = x[1] - x[0]
    # the vectorized kernel against the scalar-loop reference above
    a = _cum_quad10_loop(vals.astype(complex), dx, quad10._W10)
    b = cum_quad10(vals, dx)
    scale = np.max(np.abs(a)) + 1.0
    assert np.max(np.abs(a - b)) <= 1e-13 * scale
    # stacked rows share one flat stencil: each row must still match its
    # own scalar loop, in either direction
    for shape in ((3, 40), (2, 4, 10), (2, 4, 11), (2, 4, 19), (2, 4, 1001)):
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for dx in (2e-3, -7e-4):
            got = cum_quad10(vals, dx)
            for row, out in zip(vals.reshape(-1, shape[-1]), got.reshape(-1, shape[-1])):
                want = _cum_quad10_loop(row, dx, quad10._W10)
                scale = np.max(np.abs(want)) + 1.0
                assert np.max(np.abs(out - want)) <= 1e-13 * scale


def test_cum_quad10_rows_stay_isolated():
    # a row of zeros between rows of scale 1e150: nothing of its neighbours
    # may leak into it through the flat stencil
    rng = np.random.default_rng(2)
    for n in (10, 11, 19, 50):
        vals = 1e150 * (rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)))
        vals[1] = 0.0
        got = cum_quad10(vals, 0.01)
        assert (got[1] == 0.0).all()
        assert np.isfinite(got).all()


def test_cum_quad10_real_input_stays_real():
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(2, 301))
    got = cum_quad10(vals, 3e-3)
    assert got.dtype == np.float64
    want = cum_quad10(vals.astype(complex), 3e-3)
    assert want.dtype == np.complex128
    np.testing.assert_allclose(got, want.real, rtol=0.0, atol=1e-15)
    assert (want.imag == 0.0).all()
