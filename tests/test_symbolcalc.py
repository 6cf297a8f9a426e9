"""Exact bracket algebra, crossing invariants, and the general transfer
prediction.

Random-polynomial identities use integer coefficients so dictionary
equality is exact; nothing here is tolerance-tuned except explicitly
derived float identities.
"""

import math

import numpy as np
import pytest

from crossing_kit.errors import (
    NoFiniteContact,
    TransversalUnsupported,
    ValidationError,
    ZeroGradient,
)
from crossing_kit.symbolcalc import (
    CrossingData,
    Poly2,
    contact_order,
    crossing_data_from_symbols,
    iterated_bracket,
    normal_form_constants,
    omega_general,
    poisson_bracket,
    sign_s,
    theta_of,
    transfer_predicted_general,
)

SQRT_2PI = 2.506628274631000502415765284811045253007


def random_poly(rng, max_deg=3, span=5) -> Poly2:
    coeffs = {}
    for i in range(max_deg + 1):
        for j in range(max_deg + 1 - i):
            c = rng.integers(-span, span + 1)
            if c:
                coeffs[(i, j)] = float(c)
    return Poly2(coeffs)


def test_poly2_arithmetic_and_eval():
    p = Poly2.xi() ** 2 + Poly2.from_x_poly([0.0, 2.0, 1.0]) - Poly2.const(1.0)
    # p = xi^2 + 2x + x^2 - 1
    assert p(1.0, 2.0) == 4.0 + 2.0 + 1.0 - 1.0
    assert p.dx()(0.0, 0.0) == 2.0
    assert p.dxi()(0.0, 3.0) == 6.0


def test_poly2_shift_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = random_poly(rng)
        a, b = float(rng.integers(-3, 4)), float(rng.integers(-3, 4))
        q = p.shift(a, b)
        for x, xi in [(-1.0, 2.0), (0.0, 0.0), (3.0, -2.0)]:
            assert q(x, xi) == pytest.approx(p(x + a, xi + b), rel=1e-13, abs=1e-10)


def test_bracket_antisymmetry_exact():
    rng = np.random.default_rng(42)
    for _ in range(100):
        a, b = random_poly(rng), random_poly(rng)
        assert poisson_bracket(a, b) == -poisson_bracket(b, a)


def test_bracket_leibniz_exact():
    rng = np.random.default_rng(43)
    for _ in range(100):
        a, b, c = random_poly(rng, 2), random_poly(rng, 2), random_poly(rng, 2)
        lhs = poisson_bracket(a, b * c)
        rhs = poisson_bracket(a, b) * c + b * poisson_bracket(a, c)
        assert lhs == rhs


def schrodinger_symbol(v_coeffs, e0: float) -> Poly2:
    return Poly2.xi() ** 2 + Poly2.from_x_poly(v_coeffs) - Poly2.const(e0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("xi0", [1.0, 2.0])
def test_momentum_bracket_identity_exact(n, xi0):
    # H_{p1}^n p2 at (0, xi0) = 2^n xi0^n (V2-V1)^(n)(0) for p_j = xi^2+V_j-E0
    rng = np.random.default_rng(100 + n)
    e0 = xi0 * xi0
    for _ in range(25):
        v1 = [0.0] + [float(c) for c in rng.integers(-4, 5, size=4)]
        diff = [0.0] * n + [float(rng.integers(1, 5))] + [
            float(c) for c in rng.integers(-3, 4, size=2)
        ]
        v2 = [a + b for a, b in zip(v1 + [0.0] * 8, diff + [0.0] * 8)][:8]
        p1 = schrodinger_symbol(v1, e0)
        p2 = schrodinger_symbol(v2, e0)
        got = iterated_bracket(p1, p2, n)(0.0, xi0)
        want = 2.0**n * xi0**n * math.factorial(n) * diff[n]
        assert got == want


def test_contact_order_and_preconditions():
    p1 = Poly2.xi()
    p2 = Poly2.xi() - Poly2.from_x_poly([0, 0, 1.0])  # f = x^2
    m, val = contact_order(p1, p2)
    assert (m, val) == (2, -2.0)
    with pytest.raises(ValidationError):
        contact_order(Poly2.xi() + Poly2.const(1.0), p2)
    with pytest.raises(NoFiniteContact):
        contact_order(p1, 3.0 * p1)


def test_theta_of_ranges_and_goldens():
    assert theta_of(Poly2.xi()) == 0.0
    assert theta_of(Poly2.x()) == -math.pi / 2
    assert theta_of(Poly2.x() + Poly2.xi()) == pytest.approx(-math.pi / 4)
    rng = np.random.default_rng(7)
    for _ in range(50):
        gx, gxi = rng.normal(size=2)
        p = Poly2({(1, 0): gx, (0, 1): gxi})
        th = theta_of(p)
        assert -math.pi / 2 <= th < math.pi / 2
    with pytest.raises(ZeroGradient):
        theta_of(Poly2.from_x_poly([0, 0, 1.0]))


def pairing_sign(data) -> int:
    """Product over both symbols of sgn(gxi cos(theta) - gx sin(theta))."""
    out = 1.0
    for (gx, gxi), theta in ((data.grad1, data.theta1), (data.grad2, data.theta2)):
        out *= math.copysign(1.0, gxi * math.cos(theta) - gx * math.sin(theta))
    return int(out)


def tangential_pair(
    c_inv: float, m: int, a: float = 1.0, lam: float = 1.0, vertical: bool = False
):
    """p1 = xi + a x^2, p2 = c_inv * p1 + lam x^m: contact order exactly m.

    ``vertical`` swaps x and xi, so that d_xi p vanishes at the crossing.
    """
    u, v = (Poly2.x(), Poly2.xi()) if vertical else (Poly2.xi(), Poly2.x())
    p1 = u + a * v**2
    p2 = c_inv * p1 + lam * v**m
    return p1, p2


@pytest.mark.parametrize("c_inv", [3.0, 2.0, 1.0, 0.5, -1.0, -2.0, -1.0 / 3.0])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_mirror_bracket_symmetry_and_sign(c_inv, m):
    # bracket(p2 -> p1) = -bracket(p1 -> p2) / c^(m-1) with c = s|g1|/|g2|,
    # and sign_s equals sgn(c) and the flow/direction pairing; exercised
    # across signs and magnitudes of c (d_xi p2 < 0 for c < 0), and with
    # vertical directions (d_xi p = 0)
    for vertical in (False, True):
        p1, p2 = tangential_pair(c_inv, m, a=2.0, lam=3.0, vertical=vertical)
        data = crossing_data_from_symbols(p1, p2, 1.0, 1.0, max_m=max(6, m + 1))
        assert data.m == m
        assert data.theta1 == data.theta2 == (-math.pi / 2 if vertical else 0.0)
        c = 1.0 / c_inv
        assert data.s == int(math.copysign(1.0, c))
        assert sign_s(data) == data.s == pairing_sign(data)
        assert data.s * data.c_prime == pytest.approx(c, rel=1e-12)
        direct = data.bracket_m_rev
        derived = -data.bracket_m / c ** (m - 1)
        assert direct == pytest.approx(derived, rel=1e-10)


@pytest.mark.parametrize(
    "g1, g2",
    [
        ((1.0, 0.0), (0.0, 1.0)),  # d_xi p1 = 0
        ((-1.0, 0.0), (0.0, 1.0)),
        ((0.0, -1.0), (1.0, 1.0)),  # d_xi p1 < 0
        ((2.0, -3.0), (-1.0, 0.0)),
        ((-2.0, -1.0), (1.0, -3.0)),
        ((1e-300, -1.0), (-1.0, 1e-300)),
    ],
    ids=["vertical", "vertical-flipped", "reversed", "vertical-2", "both-reversed", "tiny"],
)
def test_sign_follows_the_flow_direction_pairing(g1, g2):
    # transversal pairs of linear symbols, with vertical and reversed
    # directions: s from the gradients equals the pairing of each flow
    # vector with its direction (cos theta, sin theta)
    p1 = Poly2({(1, 0): g1[0], (0, 1): g1[1]})
    p2 = Poly2({(1, 0): g2[0], (0, 1): g2[1]})
    data = crossing_data_from_symbols(p1, p2, 1.0, 1.0)
    assert data.m == 1
    assert (data.theta1, data.theta2) == (theta_of(p1), theta_of(p2))
    assert sign_s(data) == data.s == pairing_sign(data)


def test_crossing_data_from_symbols_model_case():
    # p1 = xi, p2 = xi - x^2: the reduced-model pair with f = x^2
    p1 = Poly2.xi()
    p2 = Poly2.xi() - Poly2.from_x_poly([0, 0, 1.0])
    data = crossing_data_from_symbols(p1, p2, 1.0, 0.5)
    assert data.m == 2
    assert data.bracket_m == -2.0
    assert data.bracket_m_rev == 2.0
    assert data.s == 1
    assert data.c_prime == 1.0
    assert data.theta1 == data.theta2 == 0.0
    c, f_m_0 = normal_form_constants(p1, p2, data)
    assert c == 1.0
    assert f_m_0 == 2.0  # f^(2)(0) for f = x^2


def test_normal_form_constants_reject_transversal():
    p1 = Poly2.xi()
    p2 = Poly2.xi() - Poly2.from_x_poly([0, 1.0])
    data = crossing_data_from_symbols(p1, p2, 1.0, 1.0)
    assert data.m == 1
    with pytest.raises(TransversalUnsupported):
        normal_form_constants(p1, p2, data)


def test_normal_form_constants_scaled_pair():
    for c_inv in (2.0, -2.0, 0.5):
        p1, p2 = tangential_pair(c_inv, 3, a=1.0, lam=2.0)
        data = crossing_data_from_symbols(p1, p2, 1.0, 1.0)
        c, f_m_0 = normal_form_constants(p1, p2, data)
        assert c == pytest.approx(1.0 / c_inv, rel=1e-12)
        # bracket(p1 -> p2) = lam * m! here, so f_m_0 = -c * lam * m!
        assert f_m_0 == pytest.approx(-(1.0 / c_inv) * 2.0 * 6.0, rel=1e-12)


def test_omega_general_model_golden_m1():
    # reduced-model data with f'(0) = 1: omega1 = sqrt(2 pi) e^{i pi/4}
    data = CrossingData(
        m=1,
        bracket_m=-1.0,
        bracket_m_rev=1.0,
        grad1=(0.0, 1.0),
        grad2=(0.0, 1.0),
        q1_0=1.0,
        q2_0=1.0,
    )
    w = omega_general(data)
    want = SQRT_2PI * np.exp(1j * np.pi / 4)
    assert abs(w[0] - want) <= 1e-12
    assert abs(w[1] - np.conj(want)) <= 1e-12


def test_omega_general_model_golden_m2():
    # f = x^2: omega = 2 cos(pi/6) Gamma(4/3) 3^(1/3), real for even order
    data = CrossingData(
        m=2,
        bracket_m=-2.0,
        bracket_m_rev=2.0,
        grad1=(0.0, 1.0),
        grad2=(0.0, 1.0),
        q1_0=1.0,
        q2_0=1.0,
    )
    w = omega_general(data)
    want = 2.230707051824495741427486519543450239771
    assert abs(w[0] - want) <= 1e-12
    assert abs(w[1] - want) <= 1e-12


def test_omega_general_row_scaling_invariance():
    # scaling (p2, q2) by lam > 0 leaves the predicted entries unchanged
    p1, p2 = tangential_pair(1.0, 2, a=1.0, lam=1.0)
    lam = 3.0
    base = crossing_data_from_symbols(p1, p2, 1.0, 0.7)
    scaled = crossing_data_from_symbols(p1, lam * p2, 1.0, lam * 0.7)
    t0 = transfer_predicted_general(base, 1e-3)
    t1 = transfer_predicted_general(scaled, 1e-3)
    assert t0.max_abs_diff(t1) <= 1e-12


def test_transfer_predicted_general_entries():
    data = CrossingData(
        m=1,
        bracket_m=-1.0,
        bracket_m_rev=1.0,
        grad1=(0.0, 1.0),
        grad2=(0.0, 1.0),
        q1_0=1.0,
        q2_0=1.0,
    )
    h = 1e-4
    t = transfer_predicted_general(data, h)
    assert t.t11 == 1.0 and t.t22 == 1.0
    want12 = -1j * math.sqrt(h) * SQRT_2PI * np.exp(1j * np.pi / 4)
    assert abs(t.t12 - want12) <= 1e-12
    # t21 carries the conjugate amplitude: arg = -3 pi/4
    assert np.angle(t.t21) == pytest.approx(-3 * np.pi / 4, abs=1e-12)


def test_crossing_data_validation():
    fields = dict(
        m=1, bracket_m=1.0, bracket_m_rev=-1.0, grad1=(0.0, 1.0), grad2=(0.0, 2.0),
        q1_0=1.0, q2_0=1.0,
    )
    assert CrossingData(**fields).c_prime == 0.5
    with pytest.raises(ValidationError):  # tangential data with unequal angles
        CrossingData(**{**fields, "m": 2, "grad2": (0.3, 1.0)})
    with pytest.raises(ValidationError):
        CrossingData(**{**fields, "m": 0})
    for key in ("bracket_m", "bracket_m_rev"):
        with pytest.raises(ValidationError):
            CrossingData(**{**fields, key: 0.0})
    with pytest.raises(ZeroGradient):
        CrossingData(**{**fields, "grad2": (0.0, 0.0)})
