"""Stationary-phase constants, the marched oscillatory integral, and the
Gaussian pairing.

Frozen reference values were generated once with mpmath at 40 digits
(sqrt(2*pi), 2*pi*Ai(0), Gamma(5/4)); envelope constants C were measured
once on this deterministic corpus and are asserted with a +-20% stability
margin.
"""

import logging
import math
import tracemalloc

import numpy as np
import pytest

from crossing_kit import march
from crossing_kit.errors import GridTooCoarse, ValidationError
from crossing_kit.normalform import NormalFormProblem, transfer_numeric
from crossing_kit.oscquad import (
    GridFunction,
    PhaseSpec,
    gaussian_pairing,
    osc_integral_numeric,
    osc_leading_term,
)
from crossing_kit.profiles import ZERO_BUMP, Bump, Poly1
from crossing_kit.symbolcalc import mu_m

SQRT_2PI = 2.506628274631000502415765284811045253007
AIRY_2PI_AI0 = 2.230707051824495741427486519543450239771  # 2*pi*Ai(0)

def test_mu_m_odd_even():
    for theta in (-1.1, -0.3, 0.0, 0.7, 1.4):
        for m in (1, 3, 5):
            assert mu_m(m, theta) == pytest.approx(np.exp(1j * theta), abs=1e-15)
        for m in (2, 4, 6):
            assert mu_m(m, theta) == pytest.approx(np.cos(theta), abs=1e-15)
    with pytest.raises(ValidationError):
        mu_m(0, 0.3)


def test_phase_spec_order_detection():
    assert PhaseSpec.from_poly(Poly1((0, 0, 0.5))).m == 1
    assert PhaseSpec.from_poly(Poly1((0, 0, 0, -1 / 3))).m == 2
    assert PhaseSpec.from_poly(Poly1((0, 0, 0, 0, 0.25))).m == 3
    with pytest.raises(ValidationError):
        PhaseSpec.from_poly(Poly1((1.0, 0, 0.5)))  # F(0) != 0
    with pytest.raises(ValidationError):
        PhaseSpec.from_poly(Poly1((0, 1.0, 0.5)))  # F'(0) != 0
    # validate holds the order-m zeros exact, as from_poly does
    with pytest.raises(ValidationError, match=r"F\^\(1\)\(0\)"):
        PhaseSpec(Poly1((0, 1e-12, 0.5)), 1).validate(-0.5, 0.8)


def test_phase_spec_rejects_far_stationary_point():
    # F' = y(1-y) vanishes at y=1
    ph = PhaseSpec.from_poly(Poly1((0, 0, 0.5, -1 / 3)))
    ph.validate(-0.5, 0.8)
    with pytest.raises(ValidationError):
        ph.validate(-0.5, 1.2)


def test_phase_spec_rejects_a_second_zero_of_f_prime_anywhere():
    # F' = y^2 - 1e-4 y vanishes at y = 1e-4, next to the stationary point
    with pytest.raises(ValidationError, match="F' vanishes"):
        PhaseSpec(Poly1((0.0, 0.0, -0.5e-4, 1 / 3)), 1).validate(-0.6, 0.8)
    # F' = y (y - 0.45)^2, a double zero under the amplitude; F is built by
    # integration, so F' is that f up to rounding
    f = Poly1(tuple(np.polynomial.polynomial.polyfromroots([0.0, 0.45, 0.45])))
    ph = PhaseSpec.from_poly(f.antideriv())
    with pytest.raises(ValidationError, match="F' vanishes"):
        osc_integral_numeric(ph, Bump(0.5), 1e-3, (-0.6, 0.8))


def test_leading_term_fresnel_golden():
    # m=1, F''(0)=1, a0=1: sqrt(2 pi h) e^{i pi/4}
    ph = PhaseSpec.from_poly(Poly1((0, 0, 0.5)))
    for h in (1.0, 1e-3):
        got = osc_leading_term(ph, 1.0, h)
        want = SQRT_2PI * math.sqrt(h) * np.exp(1j * np.pi / 4)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_leading_term_airy_golden():
    # m=2, F'''(0)=2: 2 pi Ai(0) h^{1/3}, and the closed forms agree:
    # sqrt(3) Gamma(4/3) 3^(1/3) = 2 pi / (3^(2/3) Gamma(2/3))
    ph = PhaseSpec.from_poly(Poly1((0, 0, 0, 1 / 3)))
    got = osc_leading_term(ph, 1.0, 1.0)
    assert abs(got.imag) == 0.0
    assert abs(got.real - AIRY_2PI_AI0) <= 1e-10
    alt = math.sqrt(3) * math.gamma(4 / 3) * 3 ** (1 / 3)
    assert abs(alt - AIRY_2PI_AI0) <= 1e-12


def test_leading_term_m3_golden():
    # m=3, F = -y^4/4: 2 e^{-i pi/8} Gamma(5/4) 4^{1/4} h^{1/4}
    ph = PhaseSpec.from_poly(Poly1((0, 0, 0, 0, -0.25)))
    got = osc_leading_term(ph, 1.0, 1.0)
    want = 2 * np.exp(-1j * np.pi / 8) * 0.9064024770554770779826712889669180007488 * 4**0.25
    assert abs(got - want) <= 1e-12 * abs(want)


def test_leading_term_linearity_and_scaling():
    ph = PhaseSpec.from_poly(Poly1((0, 0, 0, 1 / 3)))
    base = osc_leading_term(ph, 1.0, 1e-4)
    assert osc_leading_term(ph, 2.5 - 1j, 1e-4) == pytest.approx((2.5 - 1j) * base, rel=1e-14)
    assert osc_leading_term(ph, 1.0, 1e-8) == pytest.approx(base * (1e-4) ** (1 / 3), rel=1e-14)


def test_leading_term_sign_flip_conjugates():
    for coeffs in [(0, 0, 0.5), (0, 0, 0, 1 / 3), (0, 0, 0, 0, 0.25)]:
        plus = osc_leading_term(PhaseSpec.from_poly(Poly1(coeffs)), 1.0, 1e-3)
        neg = tuple(-c for c in coeffs)
        minus = osc_leading_term(PhaseSpec.from_poly(Poly1(neg)), 1.0, 1e-3)
        assert minus == pytest.approx(np.conj(plus), rel=1e-14)


# Envelope constants measured once on this corpus (see module docstring):
# max over h in {1e-2..1e-6} of |numeric - leading| / (h^{2/(m+1)} log(1/h)^{[m=1]}).
ENVELOPE_CORPUS = {
    (1, +1): (Poly1((0, 0, 0.5)), Bump(width=0.5), (-0.6, 0.6), 0.2691),
    (1, -1): (Poly1((0, 0, -0.5)), Bump(width=0.5), (-0.6, 0.6), 0.2691),
    (2, +1): (Poly1((0, 0, 0, 1 / 3)), Bump(width=0.5, center=0.1), (-0.6, 0.8), 2.1511),
    (2, -1): (Poly1((0, 0, 0, -1 / 3)), Bump(width=0.5, center=0.1), (-0.6, 0.8), 2.1511),
    (3, +1): (Poly1((0, 0, 0, 0, 0.25)), Bump(width=0.5, center=0.1), (-0.6, 0.8), 2.6354),
    (3, -1): (Poly1((0, 0, 0, 0, -0.25)), Bump(width=0.5, center=0.1), (-0.6, 0.8), 2.6354),
    (4, +1): (Poly1((0, 0, 0, 0, 0, 0.2)), Bump(width=0.5, center=0.1), (-0.6, 0.8), 2.0299),
    (4, -1): (Poly1((0, 0, 0, 0, 0, -0.2)), Bump(width=0.5, center=0.1), (-0.6, 0.8), 2.0299),
}


@pytest.mark.parametrize("key", sorted(ENVELOPE_CORPUS, key=str))
def test_numeric_matches_leading_within_envelope(key):
    m, _sign = key
    poly, bump, interval, c_frozen = ENVELOPE_CORPUS[key]
    ph = PhaseSpec.from_poly(poly)
    assert ph.m == m
    ratios = []
    for h in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        value = osc_integral_numeric(ph, bump, h, interval)
        lead = osc_leading_term(ph, bump(0.0), h)
        envelope = h ** (2 / (m + 1)) * (math.log(1 / h) if m == 1 else 1.0)
        ratios.append(abs(value - lead) / envelope)
    # bound holds with the frozen constant, and the constant is sharp
    assert max(ratios) <= 1.2 * c_frozen
    assert max(ratios) >= 0.8 * c_frozen


def test_numeric_conjugation_symmetry():
    amp = Bump(width=0.5, center=0.1)
    plus = osc_integral_numeric(
        PhaseSpec.from_poly(Poly1((0, 0, 0, 1 / 3))), amp, 1e-3, (-0.6, 0.8)
    )
    minus = osc_integral_numeric(
        PhaseSpec.from_poly(Poly1((0, 0, 0, -1 / 3))), amp, 1e-3, (-0.6, 0.8)
    )
    assert minus == pytest.approx(np.conj(plus), abs=1e-13)


def test_numeric_error_estimate_quiet_regime():
    # at h=1 the integrand barely oscillates; the marched value must match
    # a dense reference to the contract floor
    ph = PhaseSpec.from_poly(Poly1((0, 0, 0.5)))
    amp = Bump(width=0.5)
    value = osc_integral_numeric(ph, amp, 1.0, (-0.6, 0.6))
    xs = np.linspace(-0.6, 0.6, 20001)
    integrand = amp(xs) * np.exp(1j * ph.func(xs))
    from quad10 import cum_quad10

    ref = cum_quad10(integrand.astype(complex), xs[1] - xs[0])[-1]
    assert abs(value - ref) <= 1e-10


def test_numeric_budget_exceeded():
    # near the underflow limit the stationary zone is so narrow that the
    # panel split would need far more than march.MAX_LEVELS levels of
    # halves to reach it: refused before any panel is judged
    ph = PhaseSpec.from_poly(Poly1((0, 0, 0.5)))
    amp = Bump(width=0.5)
    for h in (1e-200, 1e-320):
        with pytest.raises(ValidationError, match="max_levels"):
            osc_integral_numeric(ph, amp, h, (-0.6, 0.6))


def test_numeric_memory_is_bounded():
    # at h = 1e-6 the grid has 2.7M nodes; the march holds one chunk
    poly, bump, interval, _ = ENVELOPE_CORPUS[(1, +1)]
    tracemalloc.start()
    try:
        ph = PhaseSpec.from_poly(poly)
        osc_integral_numeric(ph, bump, 1e-6, interval)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * march.CHUNK_BYTES


def test_numeric_marches_a_tenth_of_24_points_per_period(caplog):
    # (4, +1) at h = 1e-6: 24 points per period of max |F'| on the whole
    # interval are 2190381 nodes; the panels cover only the bump's support,
    # and coarsely near the stationary point
    poly, bump, interval, _ = ENVELOPE_CORPUS[(4, +1)]
    ph = PhaseSpec.from_poly(poly)
    with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
        osc_integral_numeric(ph, bump, 1e-6, interval)
    stats = caplog.records[0].stats
    assert (stats.lo, stats.hi) == (-0.4, 0.6), stats
    nodes = (stats.levin_panels + stats.direct_panels) * march.PANEL_POINTS
    assert 0 < nodes <= 2190381 // 10, stats


@pytest.mark.parametrize("key", sorted(ENVELOPE_CORPUS, key=str))
def test_numeric_is_the_model_with_r2_zero(key):
    # the integral is the model's column started at (0, 1), read as i t12
    poly, bump, interval, _ = ENVELOPE_CORPUS[key]
    ph = PhaseSpec.from_poly(poly)
    prob = NormalFormProblem(
        f=poly.deriv(1), r1=bump, r2=ZERO_BUMP, x0=interval[0], x1=interval[1],
        m=ph.m,
    )
    value = osc_integral_numeric(ph, bump, 1e-3, interval)
    assert value == 1j * transfer_numeric(prob, 1e-3).t12


def test_numeric_rejects_amplitude_past_interval():
    # as r1 of the model, the amplitude must vanish near the interval's ends
    ph = PhaseSpec.from_poly(Poly1((0, 0, 0.5)))
    with pytest.raises(ValidationError, match="strictly inside"):
        osc_integral_numeric(ph, Bump(width=0.5), 1e-3, (-0.6, 0.45))


def test_numeric_requires_straddling_interval():
    ph = PhaseSpec.from_poly(Poly1((0, 0, 0.5)))
    amp = Bump(width=0.5)
    with pytest.raises(ValidationError):
        osc_integral_numeric(ph, amp, 1e-3, (0.1, 0.6))


def _quadratic_chirp(lam: float, h: float, halfwidth_factor: float = 1.05, n: int = 4097):
    half = 8.0 * math.sqrt(h) * halfwidth_factor
    x = np.linspace(-half, half, n)
    vals = np.exp(1j * lam * x**2 / (2 * h))
    return GridFunction(vals, x[0], x[1] - x[0], n)


@pytest.mark.parametrize("lam", [-2.0, 0.0, 1.0])
def test_gaussian_pairing_closed_form(lam):
    h = 1e-3
    got = gaussian_pairing(_quadratic_chirp(lam, h), h)
    exact = (1 - 1j * lam) ** (-0.5)
    assert abs(got - exact) <= 1e-6


@pytest.mark.parametrize("lam", [-2.0, 0.0, 1.0])
def test_gaussian_pairing_is_exact_to_rounding(lam):
    # the trapezoid rule on the Gaussian window converges geometrically:
    # on the chirp grid it is within 1e-12 of (1 - i lam)^(-1/2)
    h = 1e-3
    got = gaussian_pairing(_quadratic_chirp(lam, h), h)
    assert abs(got - (1 - 1j * lam) ** (-0.5)) <= 1e-12


def test_gaussian_pairing_angle_matches_half_arctan():
    # arg((1-i lam)^(-1/2)) = arctan(lam)/2
    h = 1e-3
    for lam in (-2.0, 1.0):
        got = gaussian_pairing(_quadratic_chirp(lam, h), h)
        assert np.angle(got) == pytest.approx(math.atan(lam) / 2, abs=1e-7)


def test_gaussian_pairing_grid_checks():
    h = 1e-3
    short = _quadratic_chirp(0.0, h, halfwidth_factor=0.5)
    with pytest.raises(GridTooCoarse):
        gaussian_pairing(short, h)
    coarse = _quadratic_chirp(0.0, h, n=41)
    with pytest.raises(GridTooCoarse):
        gaussian_pairing(coarse, h)
    wiggly = _quadratic_chirp(40.0, h, n=257)
    with pytest.raises(GridTooCoarse):
        gaussian_pairing(wiggly, h)
