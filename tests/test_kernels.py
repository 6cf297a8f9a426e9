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


# -- the in-place kernels of the march, against the allocating formulas they
# replaced, kept verbatim: equal bit for bit, whatever ``out`` held before


def _model_apply_allocating(coeffs, osc, back, a):
    """M a for the frame coefficients a = (u1, e^{-iF/h} u2) per column."""
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
        (_model_case, _model_apply_allocating, normalform._apply),
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
            buf = _random_complex(rng, shape, scale=1e300)  # garbage
            buf.flat[0] = np.nan
            got = cum_quad6(values, dx, out=buf)
            want = cum_quad6(values, dx)
            assert got is buf
            assert (buf == want).all()
            assert not np.signbit(buf[..., 0].real).any()


def test_march_kernels_allocate_nothing_of_the_chunk_size():
    # the Picard sweep's kernels write into their ``out``: numpy takes no
    # temporaries or ufunc buffers as large as the chunk (tracemalloc sees
    # numpy's data allocations)
    rng = np.random.default_rng(3)
    n = march.CHUNK_BYTES // march._BYTES_PER_NODE  # the longest chunk
    calls = []
    for case, inplace in ((_model_case, normalform._apply), (_pair_case, schrodinger._apply)):
        _, coeffs, (osc, back), components = case(rng, n)
        a = _random_complex(rng, (2, components, n))
        out = np.empty_like(a)
        calls.append((a.nbytes, inplace, (coeffs, osc, back, a, out), {}))
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
