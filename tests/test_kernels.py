"""The kernels of the tests' oracles: exactness, convergence and a
scalar-loop reference for the tenth-order rule of quad10.py, and the
uniform plan's in-place kernels against the allocating formulas they
replaced.

The rule was the package's kernel cum_quad6 before its tenth order, and
moved to the tests with the uniform plan; the tests of its call contract,
which it kept, still carry that name."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from crossing_kit import march, normalform
from crossing_kit.normalform import model_corpus

import quad10
import uniform_plan
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


def test_cum_quad6_short_input_rejected():
    for shape in ((9,), (3, 9), (1,)):
        with pytest.raises(ValueError, match="at least 10"):
            cum_quad10(np.ones(shape, dtype=complex), 0.1)


def test_backends_agree():
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


def test_cum_quad6_rows_stay_isolated():
    # a row of zeros between rows of scale 1e150: nothing of its neighbours
    # may leak into it through the flat stencil
    rng = np.random.default_rng(2)
    for n in (10, 11, 19, 50):
        vals = 1e150 * (rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)))
        vals[1] = 0.0
        got = cum_quad10(vals, 0.01)
        assert (got[1] == 0.0).all()
        assert np.isfinite(got).all()


def test_cum_quad6_real_input_stays_real():
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(2, 301))
    got = cum_quad10(vals, 3e-3)
    assert got.dtype == np.float64
    want = cum_quad10(vals.astype(complex), 3e-3)
    assert want.dtype == np.complex128
    np.testing.assert_allclose(got, want.real, rtol=0.0, atol=1e-15)
    assert (want.imag == 0.0).all()


def test_cum_quad6_initial_offsets_each_row():
    rng = np.random.default_rng(6)
    vals = _random_complex(rng, (2, 3, 200))
    start = _random_complex(rng, (2, 3))
    for initial in (2.5, start):
        got = cum_quad10(vals, -4e-3, initial=initial)
        want = np.asarray(initial)[..., None] + cum_quad10(vals, -4e-3)
        assert (got[..., 0] == initial).all()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def test_cum_quad6_refuses_an_aliased_out():
    # writing the stencil into the input would integrate overwritten samples
    w = np.exp(1j * np.linspace(0.0, 3.0, 101))
    with pytest.raises(ValueError, match="share memory"):
        cum_quad10(w, 0.03, out=w)
    buf = np.zeros(202, dtype=complex)
    buf[:101] = w
    with pytest.raises(ValueError, match="share memory"):
        cum_quad10(buf[:101], 0.03, out=buf[50:151])
    assert (buf[:101] == w).all()


def test_cum_quad6_refuses_an_out_it_cannot_fill():
    vals = np.ones((2, 50), dtype=complex)
    for out in (
        np.empty((2, 50)),  # real, for complex values
        np.empty((2, 49), dtype=complex),
        np.empty((50, 2), dtype=complex).T,  # not C-contiguous
    ):
        with pytest.raises(ValueError, match="C-contiguous"):
            cum_quad10(vals, 0.1, out=out)


# -- the in-place kernels of the march, against the allocating formulas they
# replaced, kept verbatim: equal bit for bit, whatever ``out`` held before


def _model_apply_allocating(coeffs, osc, back, a):
    """M a for the frame coefficients a = (u1, e^{-iF/h} u2) per column,
    or for the column v of the propagator's terms."""
    r1, r2 = coeffs
    da = np.empty_like(a)
    da[:, 0] = -1j * r1 * osc[0] * a[:, 1]
    da[:, 1] = -1j * r2 * back[0] * a[:, 0]
    return da


def _model_sweep(coeffs, osc, back, v, out):
    """The march's step: mu = (m1 e^{iF/h}, m2 e^{-iF/h}) into a work
    array once per chunk, then each sweep multiplies each chain's row by
    its multiplier, into ``out``. M v = (mu1 v_1, mu2 v_0) is that step at
    an even term on the chains (v_1, v_0)."""
    m1, m2 = coeffs
    mu = np.empty((1,) + out.shape[1:], dtype=complex)
    np.multiply(m1, osc[0], out=mu[0, 0])
    np.multiply(m2, back[0], out=mu[0, 1])
    np.multiply(mu, v[:, ::-1], out=out)


def _random_complex(rng, shape, scale=1.0):
    return scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _oscillations(rng, phases, n, h):
    phase = np.cumsum(rng.uniform(0.0, 1.0, size=(phases, n)), axis=1)
    osc = np.exp(1j * phase / h)
    return osc, np.conj(osc)


def _model_case(rng, n):
    prob = model_corpus(1e-3)[4]  # unequal couplings r1 != r2
    x = np.sort(rng.uniform(-0.5, 0.5, n))
    _, coeffs = normalform._system(prob).local(x)
    return (prob.r1(x), prob.r2(x)), coeffs, _oscillations(rng, 1, n, prob.h), 2


@pytest.mark.parametrize(
    "case, allocating, inplace",
    [(_model_case, _model_apply_allocating, _model_sweep)],
    ids=["model"],
)
def test_apply_into_out_equals_the_allocating_formula(case, allocating, inplace):
    rng = np.random.default_rng(11)
    for n in (6, 257):
        old_coeffs, coeffs, (osc, back), components = case(rng, n)
        for columns in (1, 2):
            a = _random_complex(rng, (columns, components, n))
            out = _random_complex(rng, a.shape, scale=1e300)  # garbage
            out[0, 0, 0] = np.nan
            inplace(coeffs, osc, back, a, out)
            want = allocating(old_coeffs, osc, back, a)
            assert (out == want).all()


def test_cum_quad6_into_out_equals_a_fresh_result():
    rng = np.random.default_rng(5)
    for shape in ((10,), (11,), (1001,), (3, 40), (2, 4, 333)):
        values = _random_complex(rng, shape)
        for dx in (1e-3, -2.5e-4):
            for initial in (0.0, _random_complex(rng, shape[:-1])):
                buf = _random_complex(rng, shape, scale=1e300)  # garbage
                buf.flat[0] = np.nan
                got = cum_quad10(values, dx, out=buf, initial=initial)
                want = cum_quad10(values, dx, initial=initial)
                assert got is buf
                assert (buf == want).all()
            assert not np.signbit(cum_quad10(values, dx, out=buf)[..., 0].real).any()


def test_march_kernels_allocate_nothing_of_the_chunk_size():
    # the uniform plan's Picard sweep kernels write into their ``out``:
    # numpy takes no temporaries or ufunc buffers as large as the chunk
    # (tracemalloc sees numpy's data allocations). It forms mu = (m1 e^{iF/h},
    # m2 e^{-iF/h}) once per chunk, copies mu1 after it and multiplies its
    # two chains by (mu2, mu1) at an odd term
    rng = np.random.default_rng(3)
    n = march.CHUNK_BYTES // uniform_plan._BYTES_PER_NODE  # the longest chunk
    calls = []
    _, (m1, m2), (osc, back), _ = _model_case(rng, n)
    v = _random_complex(rng, (1, 2, n))
    mu, out = np.empty((1, 3, n), dtype=complex), np.empty_like(v)
    calls.append((v.nbytes, np.multiply, (m1, osc[0]), {"out": mu[0, 0]}))
    calls.append((v.nbytes, np.multiply, (m2, back[0]), {"out": mu[0, 1]}))
    calls.append((v.nbytes, np.copyto, (mu[:, 2], mu[:, 0]), {}))
    calls.append((v.nbytes, np.multiply, (mu[:, 1:], v), {"out": out}))
    calls.append((v.nbytes, cum_quad10, (v, 1e-3), {"out": out}))
    for nbytes, call, args, kwargs in calls:
        call(*args, **kwargs)  # first-call caches
        tracemalloc.start()
        try:
            call(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nbytes / 16, (call.__module__, peak, nbytes)
