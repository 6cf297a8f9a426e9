"""Poly1 against numpy.polynomial: the package evaluates, differentiates,
integrates and finds the critical points of its polynomials on its own, in
numpy.polynomial's operation order, so every result equals that package's
bit for bit (signed zeros included) on drawn coefficient tuples."""

import numpy as np
import numpy.polynomial.polynomial as npp
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from crossing_kit.profiles import Poly1  # noqa: E402

# Coefficients as the corpora and the CLI give them: small integers, exact
# zeros (trailing ones too, which the root finder trims) and floats whose
# ratios stay finite in the companion matrix.
_COEFF = st.one_of(
    st.just(0.0),
    st.integers(-9, 9).map(float),
    st.floats(-10.0, 10.0).filter(lambda c: c == 0.0 or abs(c) > 1e-6),
)
_COEFFS = st.lists(_COEFF, min_size=1, max_size=8).map(tuple)
_POINTS = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(coeffs=_COEFFS, points=_POINTS)
def test_poly1_equals_numpy_polynomial_bit_for_bit(coeffs, points):
    p = Poly1(coeffs)
    c = np.asarray(coeffs)
    for x in (points[0], np.float64(points[0]), np.array(points), points):
        assert _bits(p(x)) == _bits(npp.polyval(x, c)), x
    for order in range(len(coeffs) + 2):
        want = npp.polyder(c, order)
        assert _bits(p.deriv(order).coeffs) == _bits(want if want.size else [0.0])
    assert _bits(p.antideriv().coeffs) == _bits(npp.polyint(c))
    roots = npp.polyroots(np.asarray(p.deriv().coeffs))
    want = [float(r.real) for r in roots if abs(r.imag) < 1e-12]
    assert _bits(p.critical_points) == _bits(want)
