"""Exactness, convergence and a scalar-loop reference for the inner-loop
kernels, and the march's in-place kernels against the allocating formulas
they replaced."""

import tracemalloc

import numpy as np
import pytest

from crossing_kit import _kernels, march, normalform, schrodinger
from crossing_kit._kernels import cum_quad6
from crossing_kit.normalform import model_corpus
from crossing_kit.schrodinger import schrodinger_corpus


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
    # stacked rows share one flat stencil: each row must still match its
    # own scalar loop, in either direction
    for shape in ((3, 40), (2, 4, 6), (2, 4, 7), (2, 4, 1001)):
        vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for dx in (2e-3, -7e-4):
            got = cum_quad6(vals, dx)
            for row, out in zip(vals.reshape(-1, shape[-1]), got.reshape(-1, shape[-1])):
                want = _cum_quad6_loop(row, dx, _kernels._W6)
                scale = np.max(np.abs(want)) + 1.0
                assert np.max(np.abs(out - want)) <= 1e-13 * scale


def test_cum_quad6_rows_stay_isolated():
    # a row of zeros between rows of scale 1e150: nothing of its neighbours
    # may leak into it through the flat stencil
    rng = np.random.default_rng(2)
    for n in (6, 7, 50):
        vals = 1e150 * (rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n)))
        vals[1] = 0.0
        got = cum_quad6(vals, 0.01)
        assert (got[1] == 0.0).all()
        assert np.isfinite(got).all()


def test_cum_quad6_real_input_stays_real():
    rng = np.random.default_rng(4)
    vals = rng.normal(size=(2, 301))
    got = cum_quad6(vals, 3e-3)
    assert got.dtype == np.float64
    want = cum_quad6(vals.astype(complex), 3e-3)
    assert want.dtype == np.complex128
    np.testing.assert_allclose(got, want.real, rtol=0.0, atol=1e-15)
    assert (want.imag == 0.0).all()


def test_cum_quad6_initial_offsets_each_row():
    rng = np.random.default_rng(6)
    vals = _random_complex(rng, (2, 3, 200))
    start = _random_complex(rng, (2, 3))
    for initial in (2.5, start):
        got = cum_quad6(vals, -4e-3, initial=initial)
        want = np.asarray(initial)[..., None] + cum_quad6(vals, -4e-3)
        assert (got[..., 0] == initial).all()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def test_cum_quad6_refuses_an_aliased_out():
    # writing the stencil into the input would integrate overwritten samples
    w = np.exp(1j * np.linspace(0.0, 3.0, 101))
    with pytest.raises(ValueError, match="share memory"):
        cum_quad6(w, 0.03, out=w)
    buf = np.zeros(202, dtype=complex)
    buf[:101] = w
    with pytest.raises(ValueError, match="share memory"):
        cum_quad6(buf[:101], 0.03, out=buf[50:151])
    assert (buf[:101] == w).all()


def test_cum_quad6_refuses_an_out_it_cannot_fill():
    vals = np.ones((2, 50), dtype=complex)
    for out in (
        np.empty((2, 50)),  # real, for complex values
        np.empty((2, 49), dtype=complex),
        np.empty((50, 2), dtype=complex).T,  # not C-contiguous
    ):
        with pytest.raises(ValueError, match="C-contiguous"):
            cum_quad6(vals, 0.1, out=out)


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


def _pair_apply_allocating(coeffs, osc, back, a):
    """M a for the branch coefficients a = (a1+, a1-, a2+, a2-) per column."""
    cross, self_ = coeffs
    s = a[:, 0::2] * osc + a[:, 1::2] * back  # u_j / sigma_j
    r = cross * s[:, ::-1] - self_ * s
    da = np.empty_like(a)
    da[:, 0::2] = back * r
    da[:, 1::2] = -osc * r
    return da


def _model_sweep(coeffs, osc, back, v, out):
    """The model's step: mu = M (1, 1) into a work array once per chunk,
    then each sweep multiplies each chain's row by its multiplier, into
    ``out``. M v = (mu1 v_1, mu2 v_0) is that step at an even term on the
    chains (v_1, v_0)."""
    mu = np.empty((1,) + out.shape[1:], dtype=complex)
    normalform._apply(coeffs, osc, back, np.ones((1, 2, 1), dtype=complex), mu)
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


def _pair_case(rng, n):
    prob = schrodinger_corpus(1e-3)[1]  # unequal potentials, n = 2
    x = np.sort(rng.uniform(-0.7, 0.7, n))
    _, coeffs = schrodinger._system(schrodinger.WkbBasis(prob)).local(x)
    return coeffs, coeffs, _oscillations(rng, 2, n, prob.h), 4


@pytest.mark.parametrize(
    "case, allocating, inplace",
    [
        (_model_case, _model_apply_allocating, _model_sweep),
        (_pair_case, _pair_apply_allocating, schrodinger._apply),
    ],
    ids=["model", "pair"],
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
    for shape in ((6,), (7,), (1001,), (3, 40), (2, 4, 333)):
        values = _random_complex(rng, shape)
        for dx in (1e-3, -2.5e-4):
            for initial in (0.0, _random_complex(rng, shape[:-1])):
                buf = _random_complex(rng, shape, scale=1e300)  # garbage
                buf.flat[0] = np.nan
                got = cum_quad6(values, dx, out=buf, initial=initial)
                want = cum_quad6(values, dx, initial=initial)
                assert got is buf
                assert (buf == want).all()
            assert not np.signbit(cum_quad6(values, dx, out=buf)[..., 0].real).any()


def test_march_kernels_allocate_nothing_of_the_chunk_size():
    # the Picard sweep's kernels write into their ``out``: numpy takes no
    # temporaries or ufunc buffers as large as the chunk (tracemalloc sees
    # numpy's data allocations). The model forms mu = M (1, 1) once per
    # chunk, copies mu1 after it and multiplies its two chains by (mu2,
    # mu1) at an odd term; the pair sweeps M a on its two columns
    rng = np.random.default_rng(3)
    n = march.CHUNK_BYTES // march._BYTES_PER_NODE  # the longest chunk
    calls = []
    _, coeffs, (osc, back), _ = _model_case(rng, n)
    v = _random_complex(rng, (1, 2, n))
    mu, out = np.empty((1, 3, n), dtype=complex), np.empty_like(v)
    ones = np.ones((1, 2, 1), dtype=complex)
    calls.append((v.nbytes, normalform._apply, (coeffs, osc, back, ones, mu[:, :2]), {}))
    calls.append((v.nbytes, np.copyto, (mu[:, 2], mu[:, 0]), {}))
    calls.append((v.nbytes, np.multiply, (mu[:, 1:], v), {"out": out}))
    calls.append((v.nbytes, cum_quad6, (v, 1e-3), {"out": out}))
    _, coeffs, (osc, back), components = _pair_case(rng, n)
    a = _random_complex(rng, (2, components, n))
    out = np.empty_like(a)
    calls.append((a.nbytes, schrodinger._apply, (coeffs, osc, back, a, out), {}))
    calls.append((a.nbytes, cum_quad6, (a, 1e-3), {"out": out}))
    for nbytes, call, args, kwargs in calls:
        call(*args, **kwargs)  # first-call caches
        tracemalloc.start()
        try:
            call(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < nbytes / 16, (call.__module__, peak, nbytes)
