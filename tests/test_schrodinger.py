"""Coupled-pair front end: crossing data from potentials, closed-form
transfer predictions for both energy regimes, and numeric extraction in the
oscillatory basis, checked against a DOP853 reference solve. The checks of
the march itself (resolution, memory, the split's budget, small h) run on
the reduced model too, which it extracts the same way, and so do its
comparisons with its oracle, the plain uniform Picard march of
tests/uniform_plan.py.

Numeric tolerances were measured once with margin and frozen; the tight
h=1e-3 comparison lives in the acceptance suite, module tests run at a
cheaper h.
"""

import concurrent.futures
import dataclasses
import functools
import logging
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from crossing_kit import march, normalform, schrodinger
from crossing_kit.errors import CaseMismatch, StepFailure, ValidationError
from crossing_kit.march import CHUNK_BYTES
from crossing_kit.normalform import model_corpus, random_model
from crossing_kit.oscquad import PhaseSpec, osc_integral_numeric
from crossing_kit.profiles import Bump, Poly1, ZERO_BUMP
from crossing_kit.schrodinger import (
    SchrodingerProblem,
    WkbBasis,
    build_crossing_data,
    numeric_transfer_case_i,
    predict_transfer_case_i,
    predict_transfer_case_ii,
    schrodinger_corpus,
)

import closed_form_oracle
import pair_oracle
from ode_oracles import (
    ODE_TOL,
    IllConditioned,
    branch_decompose,
    integrate,
    synthesize,
)
import uniform_plan

SQRT_2PI = 2.506628274631000502415765284811045253007


# ---------------------------------------------------------------- validation


def test_problem_validation():
    v1 = Poly1((0.0, -0.25))
    v2 = Poly1((0.0, 0.25))
    w = Bump(width=0.5)
    with pytest.raises(ValidationError):
        SchrodingerProblem(v1=v1, v2=v2, w=w, e0=1.0, n=1, x_in=0.1, x_out=1.0)
    with pytest.raises(ValidationError):
        SchrodingerProblem(v1=v1, v2=v2, w=w, e0=1.0, n=2, x_in=-1.0, x_out=1.0)
    with pytest.raises(ValidationError):  # identical potentials: no declared order fits
        SchrodingerProblem(v1=v1, v2=v1, w=w, e0=1.0, n=1, x_in=-1.0, x_out=1.0)
    with pytest.raises(ValidationError):  # negative energy
        SchrodingerProblem(v1=v1, v2=v2, w=w, e0=-1.0, n=1, x_in=-1.0, x_out=1.0)
    with pytest.raises(ValidationError):  # turning point inside the interval
        SchrodingerProblem(
            v1=Poly1((0.0, 2.0)), v2=Poly1((0.0, 2.0, 1.0)), w=Bump(width=0.2),
            e0=1.0, n=2, x_in=-1.0, x_out=1.0,
        )
    with pytest.raises(ValidationError):  # coupling support reaches the boundary
        SchrodingerProblem(v1=v1, v2=v2, w=Bump(width=1.0), e0=1.0, n=1,
                           x_in=-1.0, x_out=1.0)
    with pytest.raises(ValidationError):  # zero-energy case needs V1(0) = 0
        SchrodingerProblem(v1=Poly1((0.5, -1.0)), v2=Poly1((0.5, -2.0)), w=w,
                           e0=0.0, n=1, x_in=-0.9, x_out=0.9)
    with pytest.raises(ValidationError):  # zero-energy case needs V_j'(0) != 0
        SchrodingerProblem(v1=Poly1((0.0, 0.0, 1.0)), v2=Poly1((0.0, 0.0, 2.0)), w=w,
                           e0=0.0, n=2, x_in=-0.9, x_out=0.9)


@pytest.mark.parametrize(
    "v1, v2, e0",
    [
        ((0.0, 0.25), (0.0, 0.45, -1.0), 1.0),  # V2 - V1 also vanishes at 0.2
        ((0.0, -1.0), (0.0, -0.8, -1.0), 0.0),  # and at -0.2, at zero energy
    ],
    ids=["case-i", "case-ii"],
)
def test_a_second_crossing_under_the_coupling_is_refused(v1, v2, e0):
    # case i was accepted, and its |t12| extracted as 0.194 against a
    # predicted 0.126 at h = 1e-3
    with pytest.raises(ValidationError, match="V2 - V1 vanishes away from 0"):
        SchrodingerProblem(v1=Poly1(v1), v2=Poly1(v2), w=Bump(0.8), e0=e0, n=1,
                           x_in=-1.2, x_out=1.2)
    # outside supp W the second zero is no crossing of the coupled pair
    SchrodingerProblem(v1=Poly1(v1), v2=Poly1(v2), w=Bump(0.15), e0=e0, n=1,
                       x_in=-1.2, x_out=1.2)


@pytest.mark.parametrize("index", [0, 1, 2])
def test_a_problem_that_ran_other_h_reproduces_a_fresh_problem(index):
    # a problem keeps its h-free setup (crossing data, and for case i the
    # normal form: WKB basis, bounds, Theta integrals) once built; each h
    # still reads as on a problem built afresh, bit for bit on both
    # branches, so a cached part that kept the h of the first call it
    # served would show here. A copy by dataclasses.replace is an equal
    # problem that sets itself up anew
    prob = schrodinger_corpus()[index]
    prob.predict(1e-1)
    for h in (1e-2, 2.5e-3, 1e-4):
        fresh = schrodinger_corpus()[index]
        if prob.case == "ii":
            got, want = prob.predict(h), fresh.predict(h)
            assert np.array_equal(got.entries, want.entries), h
            with pytest.raises(CaseMismatch):
                prob.extract(h)
            continue
        for branch in (1, -1):
            got, want = prob.extract(h, branch), fresh.extract(h, branch)
            assert np.array_equal(got.entries, want.entries), (h, branch)
            got, want = prob.predict(h, branch), fresh.predict(h, branch)
            assert np.array_equal(got.entries, want.entries), (h, branch)
    copy = dataclasses.replace(prob, n=prob.n)
    assert copy == prob
    assert vars(copy).keys() == {f.name for f in dataclasses.fields(copy)}


def test_corpus_shape_and_cases():
    corpus = schrodinger_corpus()
    assert [p.case for p in corpus] == ["i", "i", "ii"]
    assert [p.n for p in corpus] == [1, 2, 1]
    assert [p.order for p in corpus] == [1, 2, 2]  # the origin has order 2n
    assert corpus[0].xi0 == 1.0
    assert corpus[0].delta_n() == 0.5
    assert corpus[1].delta_n() == 0.8  # (V2-V1)''(0) with V2-V1 = 0.4 x^2


# -------------------------------------------------------------- crossing data


def test_crossing_data_tangential_example():
    # E0=1, V1=2x, V2=2x+x^2: order-2 contact at (0, 1) with bracket 8
    prob = SchrodingerProblem(
        v1=Poly1((0.0, 2.0)), v2=Poly1((0.0, 2.0, 1.0)), w=Bump(width=0.2),
        e0=1.0, n=2, x_in=-0.3, x_out=0.3,
    )
    data = build_crossing_data(prob, 1)
    assert data.m == 2
    assert data.bracket_m == 8.0
    assert data.grad1 == (2.0, 2.0)
    assert data.grad2 == (2.0, 2.0)
    assert data.s == 1
    assert data.theta1 == data.theta2 == -math.atan(1.0)
    assert data.q1_0 == data.q2_0 == complex(prob.w(0.0))


def test_minus_crossing_bracket_parity():
    # the n-fold bracket picks up (-1)^n between the two crossing momenta
    corpus = schrodinger_corpus()
    odd = build_crossing_data(corpus[0], 1), build_crossing_data(corpus[0], -1)
    assert odd[0].bracket_m == 1.0
    assert odd[1].bracket_m == -1.0
    even = build_crossing_data(corpus[1], 1), build_crossing_data(corpus[1], -1)
    assert even[0].bracket_m == even[1].bracket_m == pytest.approx(3.2, abs=1e-12)


def test_crossing_data_case_mismatch():
    corpus = schrodinger_corpus()
    with pytest.raises(CaseMismatch):
        build_crossing_data(corpus[0], 0)
    with pytest.raises(CaseMismatch):
        build_crossing_data(corpus[2], 1)
    with pytest.raises(ValidationError):
        build_crossing_data(corpus[0], 2)


def test_zero_energy_bracket_identity():
    # 2n-fold bracket at the origin equals ((-1)^n (2n)!/n!) V1'(0)^n delta_n
    p1 = schrodinger_corpus()[2]  # V1 = -x, V2 = -2x
    assert build_crossing_data(p1, 0).bracket_m == -2.0
    p2 = SchrodingerProblem(
        v1=Poly1((0.0, -1.0)), v2=Poly1((0.0, -1.0, 1.0)), w=Bump(width=0.5),
        e0=0.0, n=2, x_in=-0.9, x_out=0.9,
    )
    assert build_crossing_data(p2, 0).bracket_m == 24.0


@pytest.mark.parametrize("n", [*range(3, 14), 14, 20])
def test_high_contact_order_bracket(n):
    # V1 = -x/4, V2 = V1 + x^n at E0 = 1: the n-fold bracket at (0, 1) is
    # 2^n n!, while the bracket polynomial's largest coefficient grows far
    # faster; the zero test must not mistake it for rounding
    prob = SchrodingerProblem(
        v1=Poly1((0.0, -0.25)), v2=Poly1((0.0, -0.25) + (0.0,) * (n - 2) + (1.0,)),
        w=Bump(width=0.5), e0=1.0, n=n, x_in=-0.9, x_out=0.9,
    )
    data = build_crossing_data(prob, 1)
    assert data.m == n
    assert data.bracket_m == pytest.approx(2.0**n * math.factorial(n), rel=1e-15)


# ------------------------------------------------------------ the predictions


def test_predicted_amplitude_goldens():
    corpus = schrodinger_corpus()
    T = predict_transfer_case_i(corpus[0], 1e-3, 1)
    lam = math.sqrt(1e-3)
    omega = T.t12 / (-1j * lam * corpus[0].w(0.0))
    assert abs(abs(omega) - SQRT_2PI) < 1e-12
    assert abs(np.angle(omega) + math.pi / 4.0) < 1e-12
    # unit difference slope: amplitude reduces to sqrt(pi) e^{-i pi/4}
    unit = SchrodingerProblem(
        v1=Poly1((0.0, -0.5)), v2=Poly1((0.0, 0.5)), w=Bump(width=0.3),
        e0=1.0, n=1, x_in=-1.0, x_out=1.0,
    )
    Tu = predict_transfer_case_i(unit, 1e-3, 1)
    omega_u = Tu.t12 / (-1j * math.sqrt(1e-3) * unit.w(0.0))
    assert abs(omega_u - math.sqrt(math.pi) * np.exp(-1j * math.pi / 4.0)) < 1e-12


def test_prediction_matches_general_route_both_signs():
    for prob in schrodinger_corpus()[:2]:
        for sign in (1, -1):
            display = closed_form_oracle.predict_transfer_case_i(prob, 1e-3, sign)
            general = predict_transfer_case_i(prob, 1e-3, sign)
            assert display.max_abs_diff(general) < 1e-12


def test_minus_crossing_swaps_the_amplitudes():
    prob = schrodinger_corpus()[0]
    plus = predict_transfer_case_i(prob, 1e-3, 1)
    minus = predict_transfer_case_i(prob, 1e-3, -1)
    assert abs(plus.t12 - minus.t21) < 1e-15
    assert abs(plus.t21 - minus.t12) < 1e-15


def test_zero_coupling_prediction_is_identity():
    prob = dataclasses.replace(
        schrodinger_corpus()[0], w=Bump(width=0.2, center=0.5)
    )
    assert prob.w(0.0) == 0.0
    T = predict_transfer_case_i(prob, 1e-3, 1)
    assert np.abs(T.entries - np.eye(2)).max() == 0.0


def test_case_ii_goldens_and_ratio():
    prob = schrodinger_corpus()[2]  # V1 = -x, V2 = -2x
    T = predict_transfer_case_ii(prob, 1e-3)
    lam = 1e-3 ** (1.0 / 3.0)
    w0 = prob.w(0.0)
    omega1 = T.t12 / (-1j * lam * w0)
    omega2 = T.t21 / (-1j * lam * w0)
    assert abs(omega1 - 2.8105147707426159) < 1e-12
    assert abs(omega2 - 1.4052573853713080) < 1e-12
    # exact algebraic ratio (|V2'|/|V1'|)^{(n+2)/(2n+1)} = 2
    assert abs(omega1 / omega2 - 2.0) < 1e-12
    closed = closed_form_oracle.predict_transfer_case_ii(prob, 1e-3)
    assert T.max_abs_diff(closed) < 1e-12


def test_case_mismatch_between_predictors():
    corpus = schrodinger_corpus()
    with pytest.raises(CaseMismatch):
        predict_transfer_case_i(corpus[2], 1e-3, 1)
    with pytest.raises(CaseMismatch):
        predict_transfer_case_ii(corpus[0], 1e-3)
    with pytest.raises(ValidationError):
        predict_transfer_case_i(corpus[0], 1e-3, 3)


# ------------------------------------------------------------------ the basis


def test_basis_normalization_and_flux():
    prob = schrodinger_corpus()[0]
    basis = WkbBasis(prob)
    c = [(1.0 + v.deriv_at(1, 0.0) ** 2 / 4.0) ** 0.25 for v in (prob.v1, prob.v2)]
    assert basis.amplitude(0.0) == pytest.approx(c, rel=1e-14)
    xs = np.linspace(prob.x_in, prob.x_out, 17)
    flux = basis.amplitude(xs) ** 2 * basis.rates(xs)[1]
    assert flux.shape == (2, 17)
    assert np.abs(flux - flux[:, :1]).max() < 1e-13


def test_rates_are_the_derivatives_of_the_basis():
    # p_j = phi_j', sigma_j'/sigma_j and sigma_j''/sigma_j against central
    # differences of phase and amplitude, both branches at once
    prob = schrodinger_corpus()[1]
    basis = WkbBasis(prob)
    xs, d = np.linspace(-1.0, 1.0, 9), 1e-4
    q, p, dlog, kappa = basis.rates(xs)
    assert q.shape == p.shape == dlog.shape == kappa.shape == (2, 9)
    assert (p == np.sqrt(q)).all()
    lo, hi = (np.array([basis.phase(x) for x in xs + s]).T for s in (-d, d))
    assert np.abs((hi - lo) / (2 * d) - p).max() < 1e-8
    sig = np.moveaxis(basis.amplitude(np.array([xs - d, xs, xs + d])), 1, 0)
    assert np.abs((sig[2] - sig[0]) / (2 * d * sig[1]) - dlog).max() < 1e-7
    second = (sig[2] - 2 * sig[1] + sig[0]) / (d * d * sig[1])
    assert np.abs(second - kappa).max() < 1e-6


def test_phase_closed_form_for_constant_potential():
    prob = SchrodingerProblem(
        v1=Poly1((0.36,)), v2=Poly1((0.36, 0.5)), w=Bump(width=0.3),
        e0=1.0, n=1, x_in=-0.8, x_out=0.8,
    )
    basis = WkbBasis(prob)
    for x in (-0.7, 0.3, 0.8):
        want = (0.8 * x, 4.0 / 3.0 * (0.512 - (0.64 - 0.5 * x) ** 1.5))
        assert basis.phase(x) == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_basis_requires_positive_energy():
    with pytest.raises(CaseMismatch):
        WkbBasis(schrodinger_corpus()[2])


def test_decompose_round_trip_and_conjugation():
    prob = schrodinger_corpus()[0]
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x = 0.95
    y = synthesize(prob, 1e-3, coeffs, x)
    ap, am = branch_decompose(prob, 1e-3, x, y[0::2], 1e-3 * y[1::2])
    got = np.array([ap, am]).T.ravel()  # (a1+, a1-, a2+, a2-)
    assert np.abs(got - coeffs).max() < 1e-12
    # conjugating the state swaps the branches with conjugated coefficients
    swapped = np.conj(coeffs[[1, 0, 3, 2]])
    assert np.abs(np.conj(y) - synthesize(prob, 1e-3, swapped, x)).max() < 1e-12


def test_decompose_ill_conditioned_near_flux_collapse():
    tiny = SchrodingerProblem(
        v1=Poly1((0.0,)), v2=Poly1((0.0, 1e-20)), w=Bump(width=0.2),
        e0=1e-18, n=1, x_in=-0.5, x_out=0.5,
    )
    with pytest.raises(IllConditioned):
        u, hdu = np.array([1.0 + 0j, 0j]), np.zeros(2, complex)
        branch_decompose(tiny, 1e-3, 0.4, u, hdu)


# ------------------------------------------------------------------ the solves


def _propagate(prob, h, xs, tol=ODE_TOL):
    """The basis, and (u1, u2) at xs and h for unit data on the + branch
    of equation 1 entering at x_in."""
    y = integrate(prob, h, (1.0, 0.0, 0.0, 0.0), prob.x_in, prob.x_out, xs, tol)
    return WkbBasis(prob), y[0], y[2]


def test_decoupled_solution_tracks_its_branch():
    h = 2.5e-3
    prob = dataclasses.replace(schrodinger_corpus()[0], w=ZERO_BUMP)
    probes = (-1.2, 0.0, 0.9)
    xs = np.union1d(np.linspace(prob.x_in, prob.x_out, 2001), probes)
    basis, u1, u2 = _propagate(prob, h, xs)
    assert np.abs(u2).max() < 1e-9
    for x in probes:
        k = int(np.searchsorted(xs, x))
        wkb = basis.amplitude(x)[0] * np.exp(1j * basis.phase(x)[0] / h)
        assert abs(u1[k] - wkb) < 0.5 * h


def test_tolerance_refinement_is_converged():
    prob = schrodinger_corpus()[0]
    xs = np.linspace(prob.x_in, prob.x_out, 2001)
    _, a1, a2 = _propagate(prob, 2.5e-3, xs, tol=1e-11)
    _, b1, b2 = _propagate(prob, 2.5e-3, xs, tol=5e-12)
    diff = max(np.abs(a1 - b1).max(), np.abs(a2 - b2).max())
    assert diff < 1e-8


def _reference_transfer(prob, h, sign):
    """T at h and (0, sign * xi0) by DOP853: unit data synthesized in the exact
    basis at the input end, decomposed in it at the read-off end."""
    start, end = (prob.x_in, prob.x_out)[::sign]
    slot = (1 - sign) // 2
    cols = []
    for c in (0, 1):
        coeffs = np.zeros(4)
        coeffs[2 * c + slot] = 1.0
        y = integrate(prob, h, coeffs, start, end, [end])[:, -1]
        cols.append(branch_decompose(prob, h, end, y[0::2], h * y[1::2])[slot])
    return np.array(cols).T


@pytest.mark.parametrize("h", [1e-2, 2.5e-3])
@pytest.mark.parametrize("index", [0, 1])
def test_march_matches_the_reference_solve(index, h):
    # the exact four-coefficient system, marched, against DOP853
    prob = schrodinger_corpus()[index]
    for sign in (1, -1):
        got = pair_oracle.transfer(prob, h, sign)
        want = _reference_transfer(prob, h, sign)
        assert np.abs(got - want).max() <= 1e-8, sign


@pytest.mark.parametrize("h", [1e-2, 5e-3, 2.5e-3, 1e-3])
@pytest.mark.parametrize("index", [0, 1])
def test_normal_form_is_within_6_h_5_2_of_the_exact_system(index, h):
    # averaging out the counter-propagating branches costs O(h^{5/2}): the
    # largest measured ratio is 5.24, on corpus 1 at h = 1e-2
    prob = schrodinger_corpus()[index]
    for sign in (1, -1):
        got = numeric_transfer_case_i(prob, h, sign).entries
        want = pair_oracle.transfer(prob, h, sign)
        assert np.abs(got - want).max() <= 6 * h**2.5, sign


def _unequal_slopes():
    return SchrodingerProblem(
        v1=Poly1((0.0, -0.5)), v2=Poly1((0.0, 0.25)), w=Bump(width=0.8),
        e0=1.0, n=1, x_in=-1.2, x_out=1.2,
    )


_TRANSPOSED = {
    **{
        f"{k}-{h:g}": (schrodinger_corpus()[k], h)
        for k in (0, 1)
        for h in (1e-2, 1e-4)
    },
    **{f"unequal-slopes-{h:g}": (_unequal_slopes(), h) for h in (1e-2, 1e-4)},
}


@pytest.mark.parametrize("prob, h", _TRANSPOSED.values(), ids=_TRANSPOSED.keys())
def test_minus_prediction_is_the_flux_scaled_transpose(prob, h):
    # the extraction reads T at -xi0 as C^{-2} T^T C^2 of T at +xi0, C =
    # diag(c_j); the invariant route obeys the same identity (measured
    # 7.9e-17), so both use one flux convention at -xi0. The plain
    # transpose misses by 4.6e-3 at h = 1e-2 where the slopes differ
    c2 = np.array(WkbBasis(prob).c) ** 2
    plus = predict_transfer_case_i(prob, h, 1).entries
    minus = predict_transfer_case_i(prob, h, -1).entries
    assert np.abs(minus - plus.T * c2[None, :] / c2[:, None]).max() <= 1e-15


def test_minus_crossing_is_read_off_the_plus_march(caplog):
    # the - branches' propagator from x_out to x_in is the transpose of the
    # + one from x_in to x_out: the - extraction marches once, the + march
    prob = _unequal_slopes()
    with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
        for sign in (1, -1):
            numeric_transfer_case_i(prob, 1e-3, sign)
    plus, minus = [r.stats for r in caplog.records]
    assert minus == plus, (plus, minus)


def test_pair_oracle_refuses_h_below_its_converged_range():
    prob = schrodinger_corpus()[1]
    with pytest.raises(ValueError, match="not converged"):
        pair_oracle.transfer(prob, pair_oracle.H_MIN / 2)


_FLUX = {
    **{
        f"{k}-{h:g}": (schrodinger_corpus()[k], h, 1.0)
        for k in (0, 1)
        for h in (1e-2, 1e-3, 1e-4)
    },
    **{
        f"unequal-slopes-{h:g}": (_unequal_slopes(), h, 1.0113)
        for h in (1e-2, 1e-3, 1e-4)
    },
}


@pytest.mark.parametrize("prob, h, ratio", _FLUX.values(), ids=_FLUX.keys())
def test_flux_scaled_transfer_is_unitary(prob, h, ratio):
    # the flux sigma_j^2 p_j is conserved, so diag(s) T diag(s)^{-1} with
    # s_j = sigma_j sqrt(p_j) is unitary. A wrong flux scale fails it where
    # the slopes differ (s_1 / s_2 = 1.0113); the four-coefficient march
    # missed it by up to 2.6e-5 (corpus 1, h = 1e-2)
    basis = WkbBasis(prob)
    s = basis.amplitude(0.3) * np.sqrt(basis.rates(0.3)[1])
    assert s[0] / s[1] == pytest.approx(ratio, abs=1e-4)
    for sign in (1, -1):
        T = numeric_transfer_case_i(prob, h, sign).entries
        scaled = s[:, None] * T / s[None, :]
        assert np.abs(scaled.conj().T @ scaled - np.eye(2)).max() <= 1e-12, sign


@pytest.mark.parametrize(
    "prob, h",
    [
        (schrodinger_corpus()[1], 1e-2),
        (schrodinger_corpus()[1], 2.5e-3),
        (model_corpus()[0], 1e-3),
        (model_corpus()[2], 1e-4),
        (model_corpus()[1], 1e-5),
        *((random_model(m, s), 1e-4) for m in (1, 2, 3) for s in (0, 1, 2)),
    ],
    ids=[
        "0.01",
        "0.0025",
        "model-0.001",
        "model-m3-0.0001",
        "model-m2-1e-05",
        *(f"random-m{m}-seed{s}-0.0001" for m in (1, 2, 3) for s in (0, 1, 2)),
    ],
)
def test_march_resolution_is_converged(monkeypatch, prob, h):
    # the panels at 32 Chebyshev points against those at 48
    coarse = prob.extract(h)
    monkeypatch.setattr(march, "PANEL_POINTS", 48)
    fine = prob.extract(h)
    assert coarse.max_abs_diff(fine) <= 1e-9


_DENSE = {
    **{f"model-{h:g}": (model_corpus, range(6), h) for h in (1e-2, 3e-3, 1e-3)},
    **{
        f"pair-{h:g}": (schrodinger_corpus, range(2), h)
        for h in (1e-2, 2.5e-3, 1e-4, 1e-5)
    },
}


@pytest.mark.parametrize("corpus, indices, h", _DENSE.values(), ids=_DENSE.keys())
def test_march_is_within_2e_11_of_a_dense_march(monkeypatch, corpus, indices, h):
    # the march on panels of 32 Chebyshev points against the same march on
    # panels of 64, on every problem of both corpora that runs case i
    coarse = [corpus()[k].extract(h) for k in indices]
    monkeypatch.setattr(march, "PANEL_POINTS", 64)
    for k, got in zip(indices, coarse):
        err = got.max_abs_diff(corpus()[k].extract(h))
        assert err <= 2e-11, (k, err)


def _march_stats(caplog, run):
    """run(), the panels, Levin and direct, of the last march and its
    SolveStats."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
        out = run()
    stats = caplog.records[-1].stats
    return out, stats.levin_panels + stats.direct_panels, stats


def _panels_against_uniform(monkeypatch, caplog, prob, h, pieces=16, points=40):
    """|U - U_uniform| for the propagator U at h of prob's coupling support, and
    the SolveStats of the march that gave U. U_uniform, the oracle of the
    panel path, is the uniform Picard march (tests/uniform_plan.py) at
    ``points`` points per period, cut into ``pieces`` equal parts that
    each start from the exact phase and take the one dx of their own rate
    bound, where the whole span would take the dx of its fastest rate."""
    system = uniform_plan.system(prob, h)
    lo, hi = system.support
    eye = np.eye(2, dtype=complex)
    got, panels, stats = _march_stats(caplog, lambda: march.march(system, eye, lo, hi))
    with monkeypatch.context() as patch:
        patch.setattr(uniform_plan, "POINTS_PER_PERIOD", points)
        want, cuts = eye, np.linspace(lo, hi, pieces + 1)
        for start, end in zip(cuts[:-1], cuts[1:]):
            want = uniform_plan.march(system, want, start, end)
    return float(np.abs(got - want).max()), panels, stats


_CORPORA = {
    f"{name}-{k}-{h:g}": (corpus, k, h)
    for h in (1e-4, 1e-5, 1e-6)
    for name, corpus, count in (
        ("model", model_corpus, 6),
        ("pair", schrodinger_corpus, 2),
    )
    for k in range(count)
}


@pytest.mark.parametrize("corpus, index, h", _CORPORA.values(), ids=_CORPORA.keys())
def test_levin_panels_match_the_uniform_march(monkeypatch, caplog, corpus, index, h):
    # the march on Levin and direct panels against the uniform march at 40
    # points per period, on every case-i corpus problem: within 2e-11 at
    # h = 1e-4 and 1e-5 and 1e-10 at 1e-6 (measured at most 2.2e-13 and
    # 1.9e-14)
    prob = corpus()[index]
    err, panels, stats = _panels_against_uniform(monkeypatch, caplog, prob, h)
    assert panels > 0, stats
    assert err <= (1e-10 if h == 1e-6 else 2e-11), err


@pytest.mark.parametrize("m", [1, 2, 3])
def test_levin_panels_match_the_uniform_march_on_random_models(monkeypatch, caplog, m):
    # seeded draws of the random-model family at h = 1e-5, r1 != r2 (two
    # chains): the panel path against the uniform march at 40 points per
    # period (measured at most 1.3e-12, m = 3, seed 1, where that oracle is
    # 1.3e-12 from itself at 96 points per period and the panels 1.3e-15)
    for seed in (0, 1, 2):
        prob = random_model(m, seed)
        err, panels, stats = _panels_against_uniform(monkeypatch, caplog, prob, 1e-5)
        assert panels > 0, stats
        assert err <= 2e-11, (seed, err)


@pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_panels_match_the_uniform_plan_on_random_draws(monkeypatch, caplog, m, h):
    # seeded draws of the random-model family (r1 != r2, two chains): the
    # march, on panels alone, against the uniform march at 40 points per
    # period, within 1e-9 (measured at most 4.9e-13, m = 3, seed 1,
    # h = 1e-4); the same draws with r2 = r1, where M is skew-Hermitian,
    # give a propagator unitary to 1e-12 (measured at most 4.4e-16)
    for seed in (0, 1, 2):
        prob = random_model(m, seed)
        err, panels, stats = _panels_against_uniform(monkeypatch, caplog, prob, h)
        assert panels > 0, stats
        assert err <= 1e-9, (seed, err)
        system = normalform._system(dataclasses.replace(prob, r2=prob.r1), h)
        eye = np.eye(2, dtype=complex)
        run = lambda: march.march(system, eye, *system.support)  # noqa: E731
        u, _, stats = _march_stats(caplog, run)
        assert stats.rows_per_sweep == 1, stats
        assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-12, seed


def test_panels_keep_the_exact_phase_of_model_corpus_2(monkeypatch, caplog):
    # model-corpus 2 at h = 1e-4 on panels, whose edges take their phase
    # from the exact phase at the edge nearest 0 and the panels' integrals
    # of F', against the uniform march at 96 points per period cut into 16
    # pieces that each start from the exact phase: measured 8.9e-16, where
    # the uniform march of the whole span at 14 points per period read
    # 9.5e-13
    prob = model_corpus()[2]
    err, panels, stats = _panels_against_uniform(
        monkeypatch, caplog, prob, 1e-4, points=96
    )
    assert panels > 0, stats
    assert err <= 1e-13, err


_SELF_ADJOINT = {
    **{f"model-{k}": (model_corpus, normalform._system, k) for k in (0, 1, 2, 5)},
    **{f"pair-{k}": (schrodinger_corpus, schrodinger._system, k) for k in (0, 1)},
}


@pytest.mark.parametrize(
    "corpus, system, index", _SELF_ADJOINT.values(), ids=_SELF_ADJOINT.keys()
)
def test_levin_propagator_is_unitary_at_1e_8(corpus, system, index):
    # where M is skew-Hermitian the propagator U of the whole support is
    # unitary; at h = 1e-8 the march solves it on panels, and U stays
    # unitary to 1e-12 (measured 3e-15)
    prob = corpus()[index]
    u = march.march(system(prob, 1e-8), np.eye(2, dtype=complex), *prob.interval)
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-12


_CASE_I = {
    **{f"model-{k}": (model_corpus, k) for k in range(6)},
    **{f"pair-{k}": (schrodinger_corpus, k) for k in range(2)},
}


@pytest.mark.parametrize("corpus, index", _CASE_I.values(), ids=_CASE_I.keys())
def test_small_h_extracts_in_milliseconds(caplog, corpus, index):
    # h = 1e-12 and 1e-16: the split follows h into the stationary zone,
    # its deepest panels within 2 levels of the zone's own level (measured
    # within 1), the Levin check splits no panel and an extraction
    # takes under 20 ms (best of 3; measured 4-12 ms, where the uniform
    # plan took 0.26 s at 1e-12 on model-corpus 0 and refused 1e-14). At
    # 1e-16, t12 and t21 are within 1e-6 of the prediction (measured at
    # most 3.6e-7, on pair-1)
    for h in (1e-12, 1e-16):
        prob = corpus()[index]
        seconds = []
        for _ in range(3):
            start = time.perf_counter()
            got, _, stats = _march_stats(caplog, lambda: prob.extract(h))
            seconds.append(time.perf_counter() - start)
        assert stats.levin_split == 0, stats
        assert min(seconds) < 0.02, seconds
        zone_level = stats.allowed_level - march._SPARE_LEVELS
        assert abs(stats.level - zone_level) <= 2, stats
    want = prob.predict(h)
    for entry in ("t12", "t21"):
        assert abs(getattr(got, entry) / getattr(want, entry) - 1.0) <= 1e-6, entry


@pytest.mark.parametrize("corpus, index", _CASE_I.values(), ids=_CASE_I.keys())
def test_t12_does_not_depend_on_the_cut_at_small_h(monkeypatch, corpus, index):
    # each panel edge takes its phase from the exact phase at the edge
    # nearest 0 and the panels' integrals of F' summed outward, so the
    # rounding of F/h does not reach T: t12 moves by at most 1e-14 when the
    # split starts from 6 or 10 pieces or the panels have 48 points
    # (measured at most 3.7e-16 at h = 1e-8 .. 1e-16, where chaining the
    # phase from one end moved it by up to 4.2e-11, 1.2e-9 and 7.2e-8 at
    # 1e-8, 1e-10 and 1e-12)
    for h in (1e-8, 1e-10, 1e-12):
        prob = corpus()[index]
        t12 = prob.extract(h).t12
        for name, value in (
            ("_FIRST_PIECES", 6),
            ("_FIRST_PIECES", 10),
            ("PANEL_POINTS", 48),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(march, name, value)
                assert abs(prob.extract(h).t12 - t12) <= 1e-14, (h, name, value)


def test_pair_rate_keeps_its_relative_accuracy_near_the_crossing():
    # F' of schrodinger-corpus 1 near the crossing, from the gap polynomial:
    # its last 4 Chebyshev coefficients on [a, 2a] stay within _TAIL_TOL of
    # max |F'| (measured at most 6.6e-16), where p_2 - p_1, a difference of
    # two numbers near E0, read 8.5e-12, 9.9e-10 and 8.8e-6 at a = 1e-3,
    # 1e-4 and 1e-6
    system = schrodinger._system(schrodinger_corpus()[1], 1e-8)
    for a in (1e-3, 1e-4, 1e-6):
        _, (rate, _, _) = march._panel_data(system, np.array([a]), np.array([2 * a]))
        assert march._tail(rate + 0j)[0] <= march._TAIL_TOL * np.abs(rate).max(), a


@pytest.mark.parametrize("corpus, index", _CASE_I.values(), ids=_CASE_I.keys())
def test_levin_work_barely_grows_below_1e_6(caplog, corpus, index):
    # the cost of an extraction stops growing with 1/h: from h = 1e-6 to
    # 1e-8 the panels the march evaluates stay within 2x (counts, not
    # timings; 26 to 32 panels on model-corpus 0), where the uniform
    # march's nodes grew 100x
    counts = []
    for h in (1e-6, 1e-8):
        _, panels, _ = _march_stats(caplog, lambda: corpus()[index].extract(h))
        counts.append(panels)
    assert 0.5 <= counts[1] / counts[0] <= 2.0, counts


def test_panel_matrices_are_built_once_under_threads(monkeypatch):
    # sweep rows run in threads (--jobs): threads that build the Chebyshev
    # matrices at once must all get one complete set, never a mix
    monkeypatch.setattr(march, "_CHEB", {})
    start = threading.Barrier(6)

    def build():
        start.wait(timeout=60)
        return march._cheb()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(build) for _ in range(6)]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    assert all(g is got[0] for g in got)
    assert len(got[0]) == 5 and [m.shape for m in got[0]] == [
        (march.PANEL_POINTS,),
        (march.PANEL_POINTS, march.PANEL_POINTS),
        (march.PANEL_POINTS, march.PANEL_POINTS),
        (2 * march.PANEL_POINTS, 2 * march._TAIL),
        (2 * march.PANEL_POINTS, 2 * march.PANEL_POINTS),
    ]


def _perturb_first_levin_panel(monkeypatch):
    """Make the first _levin call with a Levin panel see m1 perturbed by
    1e-6 on its first Levin panel, after the judge saw it smooth."""
    levin, calls = march._levin, []

    def noisy(system, phase, edges, data, one):
        direct, half, values = data
        first = np.flatnonzero(~direct)[:1]
        if first.size and not calls:
            calls.append(edges[first[0]])
            values = values.copy()
            noise = np.random.default_rng(5).standard_normal(values[first, 0].shape)
            values[first, 0] += 1e-6 * noise
        return levin(system, phase, edges, (direct, half, values), one)

    monkeypatch.setattr(march, "_levin", noisy)
    return calls


def test_refused_panel_is_split_in_halves(monkeypatch, caplog):
    # a Levin panel whose first Levin solution is not resolved to _TAIL_TOL
    # of its own bound (here: m1 perturbed by 1e-6 on the first Levin panel
    # the solve gets, after the judge saw it smooth) is split in halves,
    # which are judged and solved in its place, from the exact phase at
    # their edge nearest 0; the other panels keep theirs. The march reports
    # it and still matches the uniform march at 40 points per period
    prob = model_corpus()[1]
    _, clean, stats = _march_stats(caplog, lambda: prob.extract(1e-5))
    assert stats.levin_split == 0, stats
    perturbed = _perturb_first_levin_panel(monkeypatch)
    err, panels, stats = _panels_against_uniform(monkeypatch, caplog, prob, 1e-5)
    assert perturbed and stats.levin_split == 1, stats
    assert panels >= clean + 1, stats
    assert err <= 2e-11, err


def test_pair_1_at_1e_9_splits_a_refused_panel(monkeypatch, caplog):
    # schrodinger-corpus 1 at h = 1e-9: no first Levin solution fails its
    # check now that F' is formed from the gap polynomial (it lost its
    # relative accuracy near the crossing as p_2 - p_1, and one panel,
    # [-0.0125, -0.00625], was refused). A perturbed Levin panel is split
    # in halves, and the propagator stays unitary to 1e-12, the bound
    # test_levin_propagator_is_unitary_at_1e_8 holds
    prob = schrodinger_corpus()[1]
    system = schrodinger._system(prob, 1e-9)
    eye = np.eye(2, dtype=complex)
    run = lambda: march.march(system, eye, *system.support)  # noqa: E731
    clean, _, stats = _march_stats(caplog, run)
    assert stats.levin_split == 0, stats
    perturbed = _perturb_first_levin_panel(monkeypatch)
    u, _, stats = _march_stats(caplog, run)
    assert perturbed and stats.levin_split == 1, stats
    assert np.abs(u.conj().T @ u - eye).max() <= 1e-12
    assert np.abs(u - clean).max() <= 1e-10
    assert np.isfinite(prob.extract(1e-9).entries).all()


def test_levin_verdicts_do_not_depend_on_the_batch(monkeypatch):
    # the Levin check reads each panel's first solution against its own
    # bound coupling * h / min |F'|, so batches of 3 panels refuse what
    # batches of 32 do: nothing, on both corpora at h = 1e-1 .. 1e-9
    seen = {}
    levin = march._levin

    def recording(system, phase, edges, data, one):
        u, sweeps, refused = levin(system, phase, edges, data, one)
        for k in np.flatnonzero(~data[0]):
            seen.setdefault(size, []).append((edges[k], bool(refused[k])))
        return u, sweeps, refused

    monkeypatch.setattr(march, "_levin", recording)
    for size in (march.CHUNK_BYTES // march._BYTES_PER_PANEL, 3):
        monkeypatch.setattr(march, "_BYTES_PER_PANEL", march.CHUNK_BYTES // size)
        for h in 10.0 ** -np.arange(1, 10):
            for prob in model_corpus() + schrodinger_corpus()[:2]:
                prob.extract(h)
    big, small = seen.values()
    assert len(big) == len(small) > 500
    assert big == small and not any(refused for _, refused in big)


_BATCHED = {
    "model-3-1e-05": (model_corpus()[3], 1e-5, normalform._system),
    "model-1-0.001": (model_corpus()[1], 1e-3, normalform._system),
    "pair-1-0.0001": (schrodinger_corpus()[1], 1e-4, schrodinger._system),
}


def _cut(system):
    """The march's panels of the system's support, symmetric about 0:
    their edges, the phase there and their data."""
    lo, hi = system.support
    cuts = lo + (hi - lo) * np.linspace(0.0, 1.0, march._FIRST_PIECES + 1)
    _, deepest = march._levels(system, lo, hi)
    judge = functools.partial(march._judge, system)
    edges, _, data = march._split(judge, cuts[:-1], cuts[1:], 0, deepest)
    anchor = int(np.argmin(np.abs(edges)))
    assert edges[anchor] == 0.0
    return edges, march._edge_phases(edges, data, anchor, 0.0), data


@pytest.mark.parametrize("prob, h, build", _BATCHED.values(), ids=_BATCHED.keys())
def test_a_panels_propagator_does_not_depend_on_its_batch(prob, h, build):
    # each panel's propagator is solved from its own left edge: solved
    # alone, from the phase at its left edge, it is that of the whole batch
    # within PICARD_TOL (measured at most 6.2e-17), one chain (the pair,
    # model-corpus 1) or two (model-corpus 3)
    system = build(prob, h)
    edges, phase, (direct, half, values) = _cut(system)
    one = march._one_chain(values)
    assert one == (build is schrodinger._system or prob.r1 == prob.r2)
    data = (direct, half, values)
    whole, _, refused = march._levin(system, phase[:-1], edges, data, one)
    assert not refused.any()
    for k in range(len(half)):
        cut = slice(k, k + 1)
        data = (direct[cut], half[cut], values[cut])
        alone, _, _ = march._levin(system, phase[cut], edges[k : k + 2], data, one)
        assert np.abs(alone[0] - whole[k]).max() <= march.PICARD_TOL, k
    assert len(half) >= 12


def test_march_refuses_an_out_of_reach_coupling(monkeypatch):
    # a coupling so strong that its support needs more than MAX_PANELS
    # panels within PICARD_REACH (amplitude 1e4: about 5.8k panels on the
    # pair, 9.7k on the model): the march refuses it before it judges a
    # panel
    strong = Bump(width=0.8, amplitude=1e4)
    monkeypatch.setattr(march, "_judge", None)
    for prob in (
        dataclasses.replace(schrodinger_corpus()[0], w=strong),
        dataclasses.replace(model_corpus()[0], r1=strong, r2=strong),
    ):
        with pytest.raises(ValidationError, match="max_panels"):
            prob.extract(1e-2)


_FAMILIES = {
    "pair": (schrodinger_corpus, "w", schrodinger._system),
    "model": (model_corpus, ("r1", "r2"), normalform._system),
}


def _with_coupling(family, h, amplitude):
    """The family's corpus problem 0 at h, its coupling's amplitude set, and
    its march system."""
    corpus, names, build = _FAMILIES[family]
    strong = Bump(width=0.8, amplitude=amplitude)
    prob = corpus()[0]
    fields = dict.fromkeys([names] if isinstance(names, str) else names, strong)
    return build(dataclasses.replace(prob, **fields), h)


@pytest.mark.parametrize("family", _FAMILIES)
def test_a_strong_coupling_starts_the_split_at_its_reach(monkeypatch, family):
    # a piece longer than PICARD_REACH / coupling can only split, so the
    # split starts at the first level whose pieces can be kept: at an
    # amplitude of 1e3 it judges no longer piece, and the panels and T are
    # those of the split started from the first pieces, bit for bit
    system = _with_coupling(family, 1e-2, 1e3)
    judge, reach = march._judge, []

    def judging(system, lo, hi):
        reach.append(float(np.max(hi - lo)) * system.coupling)
        return judge(system, lo, hi)

    monkeypatch.setattr(march, "_judge", judging)
    u = march.march(system, np.eye(2, dtype=complex), *system.support).T
    assert 0.0 < max(reach) <= march.PICARD_REACH
    lo, hi = system.support
    first, deepest = march._levels(system, lo, hi)
    cuts = lo + (hi - lo) * np.linspace(0.0, 1.0, march._FIRST_PIECES + 1)
    stats = march.SolveStats(system.h, lo, hi, lo, hi, level=0, allowed_level=deepest)
    reach.clear()
    assert (march._span(system, cuts, 0, deepest, stats) == u).all()
    assert first > 0 and max(reach) > march.PICARD_REACH


@pytest.mark.parametrize("family", _FAMILIES)
def test_the_march_takes_the_phase_at_0_without_a_call(monkeypatch, family):
    # F(0) = 0: where the panel edge nearest 0 is 0 itself, as on every
    # corpus problem (symmetric supports), the march integrates no F'; a
    # support whose edges miss 0 takes one march.integral call, from 0 to
    # the edge nearest it
    system = _with_coupling(family, 1e-2, 1.0)
    integral, calls = march.integral, []

    def counting(func, a, b):
        calls.append((a, b))
        return integral(func, a, b)

    monkeypatch.setattr(march, "integral", counting)
    eye = np.eye(2, dtype=complex)
    lo, hi = system.support
    march.march(system, eye, lo, hi)
    assert calls == []
    march.march(dataclasses.replace(system, support=(lo, 0.7 * hi)), eye, lo, hi)
    assert len(calls) == 1 and calls[0][0] == 0.0 and calls[0][1] != 0.0


def test_integral_is_exact_on_polynomials():
    # march.integral, the panels' Clenshaw-Curtis rule, against the exact
    # antiderivative of polynomials of degree up to 12, over spans of
    # either sign, each resolved on one panel: within rounding of the
    # integrand's scale
    rng = np.random.default_rng(7)
    for degree in range(13):
        p = Poly1(tuple(rng.uniform(-1.0, 1.0, degree + 1)))
        for a, b in ((0.0, 0.3), (0.0, -1.1), (-0.7, 2.0), (1.2, -0.4)):
            want = p.antideriv()(b) - p.antideriv()(a)
            scale = abs(b - a) * sum(abs(c) for c in p.coeffs) * 2.0**degree
            assert abs(march.integral(p, a, b) - want) <= 1e-15 * scale, (degree, a)
    # values whose last axis runs over the points: both WKB branches at once
    two = march.integral(lambda x: np.array([x, x * x]), 0.0, -0.6)
    assert two.shape == (2,) and np.abs(two - (0.18, -0.072)).max() <= 1e-16


def test_split_fails_below_its_deepest_level():
    # a judge that accepts every piece but those holding 1/3, never a
    # midpoint: one piece a level is left, down to the deepest level, and
    # the split raises StepFailure there
    def judge(lo, hi):
        verdict = np.where((lo <= 1.0 / 3.0) & (1.0 / 3.0 <= hi), -1, 1)
        return verdict, (0.5 * (hi - lo), np.zeros((lo.size, 1)))

    with pytest.raises(StepFailure, match="unresolved 20 levels deep"):
        march._split(judge, np.array([0.0]), np.array([1.0]), 0, 20)


def test_split_fails_past_its_panel_budget():
    # a judge that accepts nothing doubles the candidates each level, and
    # the split raises StepFailure once they pass 2 * MAX_PANELS, long
    # before MAX_LEVELS
    def judge(lo, hi):
        return np.full(lo.size, -1), (0.5 * (hi - lo), np.zeros((lo.size, 1)))

    with pytest.raises(StepFailure, match=f"more than {2 * march.MAX_PANELS} panels"):
        march._split(judge, np.array([0.0]), np.array([1.0]), 0, march.MAX_LEVELS)


def test_integral_of_an_unresolvable_integrand_fails_fast():
    # cos(1e6 x) over [0, 1e4] needs billions of panels: the split's budget
    # ends it in StepFailure within a second, with no numpy warning
    start = time.perf_counter()
    with pytest.raises(StepFailure, match="panels and candidates"):
        march.integral(lambda x: np.cos(1e6 * x), 0.0, 1e4)
    assert time.perf_counter() - start < 1.0


def test_integral_panels_do_not_grow_with_the_span(monkeypatch):
    # the split sizes the panels by the integrand, not by the span: the
    # pair's WKB phase rate sqrt(1 + 1e-7 y) takes as many panels over
    # [0, L] for every L from 1 to 1e6, and each integral is accurate
    split, panels = march._split, []

    def counting(*args):
        out = split(*args)
        panels.append(len(out[0]) - 1)
        return out

    monkeypatch.setattr(march, "_split", counting)
    for length in 10.0 ** np.arange(7):
        got = march.integral(lambda y: np.sqrt(1.0 + 1e-7 * y), 0.0, length)
        u = 1e-7 * length  # 2 ((1 + u)^1.5 - 1) / (3e-7), without cancellation
        want = 2.0 * length * (3.0 + 3.0 * u + u * u) / (3.0 * ((1.0 + u) ** 1.5 + 1.0))
        assert abs(got - want) <= 1e-15 * length, length
    assert len(set(panels)) == 1, panels


def _fixed_rule(func, a, b, per_unit=8, chunk=4096):
    """int_a^b of ``func`` on equal panels, ``per_unit`` of them per unit
    length, of 32 Gauss-Legendre points each, ``chunk`` panels at a time."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(a, b, max(1, math.ceil(per_unit * abs(b - a))) + 1)
    total = 0.0
    for k in range(0, edges.size - 1, chunk):
        ends = edges[k : k + chunk + 1]
        lo, hi = ends[:-1], ends[1:]
        half = 0.5 * (hi - lo)
        x = (lo + half)[:, None] + half[:, None] * nodes
        total += np.sum(func(x.ravel()).reshape(-1, *x.shape) @ weights * half, -1)
    return total


@pytest.mark.parametrize("centre, end", [(5.0, 1e4), (37.0, 1e3)])
def test_theta_is_cut_at_the_support_of_w(monkeypatch, centre, end):
    # W^2 is not analytic at the edges of supp W, so _NormalForm passes them
    # to march.integral as cuts: without them the first call's points can
    # all miss a narrow bump far from 0, and Theta_j came out near 0. With
    # them Theta_j equals a fine fixed rule within 1e-12 (measured at most
    # 6.2e-17)
    prob = SchrodingerProblem(
        v1=Poly1((0.0, -1e-7)), v2=Poly1((0.0, 1e-7)), w=Bump(0.5, 1.0, centre),
        e0=1.0, n=1, x_in=-end, x_out=end,
    )
    integral, calls = march.integral, []

    def recording(func, a, b, *cuts):
        calls.append(func)
        return integral(func, a, b, *cuts)

    monkeypatch.setattr(march, "integral", recording)
    form = schrodinger._NormalForm(prob)
    func, _ = calls
    for theta, x in zip(form.theta, prob.interval):
        want = _fixed_rule(func, 0.0, x)
        assert np.abs(theta - want).max() <= 1e-12, (x, theta, want)
    assert np.abs(form.theta[1]).min() > 1e-2


def _extract(corpus, index, *h):
    """extract of the corpus problem at ``index``, as a function of h, or
    of nothing where h is given."""
    return functools.partial(corpus()[index].extract, *h)


_ROWS = {
    **{f"model-{k}": (_extract(model_corpus, k), 1) for k in (0, 1, 2, 5)},
    **{f"model-{k}": (_extract(model_corpus, k), 2) for k in (3, 4)},
    **{f"pair-{k}": (_extract(schrodinger_corpus, k), 1) for k in (0, 1)},
    "osc-integral": (
        lambda h: osc_integral_numeric(
            PhaseSpec.from_poly(Poly1((0.0, 0.0, 0.5))), Bump(0.8), h, (-1.0, 1.0)
        ),
        2,
    ),
}


@pytest.mark.parametrize("run, rows", _ROWS.values(), ids=_ROWS.keys())
def test_the_march_finds_the_chain_count(caplog, run, rows):
    # one Neumann row per sweep where m2 == -conj(m1) at every panel point
    # (r1 == r2, and the pair), two where the couplings differ, as in the
    # oscillatory integral, the model with r2 = 0
    for h in (1e-2, 1e-4):
        _, _, stats = _march_stats(caplog, lambda: run(h))
        assert stats.rows_per_sweep == rows, stats


_OFF_CENTRE = {
    "model": normalform.NormalFormProblem(
        f=Poly1((0.0, 1.0, 0.3)), r1=Bump(0.6, 1.0, 0.13), r2=Bump(0.5, 0.8, 0.1),
        x0=-1.0, x1=1.0, m=1,
    ),
    "pair": dataclasses.replace(schrodinger_corpus()[0], w=Bump(0.6, 1.0, 0.17)),
}


@pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("family", _OFF_CENTRE)
def test_off_centre_couplings_match_the_uniform_plan(monkeypatch, caplog, family, h):
    # a support whose panel edges miss 0: the march takes the phase at the
    # edge nearest 0 from march.integral of F', and its propagator matches
    # the uniform march, which starts from the exact phase, within 2e-11
    # (measured at most 1.2e-13, the pair at h = 1e-4)
    prob = _OFF_CENTRE[family]
    system = uniform_plan.system(prob, h)
    integral, calls = march.integral, []

    def counting(func, a, b):
        calls.append(b)
        return integral(func, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(march, "integral", counting)
        march.march(system, np.eye(2, dtype=complex), *system.support)
    assert len(calls) == 1 and calls[0] != 0.0, calls
    err, panels, stats = _panels_against_uniform(monkeypatch, caplog, prob, h)
    assert panels > 0, stats
    assert err <= 2e-11, err


def test_integral_holds_at_most_chunk_bytes():
    # march.integral of cos and sin over a length of 1e4 splits it into
    # 1024 panels, judged _PER_CALL candidates at a time, so its traced
    # peak stays within CHUNK_BYTES (measured 0.62 MB), and the sum keeps
    # its accuracy
    def func(y):
        return np.array([np.cos(y), np.sin(y)])

    march.integral(func, 0.0, 1.0)  # first-call caches
    tracemalloc.start()
    try:
        got = march.integral(func, 0.0, 1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CHUNK_BYTES, peak
    assert np.abs(got - [math.sin(1e4), 1.0 - math.cos(1e4)]).max() <= 1e-12


def test_march_memory_is_bounded():
    # the march never holds the whole grid: its peak is set by CHUNK_BYTES,
    # not by the 10x larger node count at the smaller h. At larger h the
    # chunks are shorter than CHUNK_BYTES allows (the model's cut by its
    # coupling, the pair's whole span one chunk down to h = 5e-4), so both
    # families are compared from h = 1e-4, where the chunks have their
    # CHUNK_BYTES length.
    for corpus, (h_big, h_small) in (
        (schrodinger_corpus, (1e-4, 1e-5)),
        (model_corpus, (1e-4, 1e-5)),
    ):
        peaks = {}
        for h in (h_big, h_small):
            prob = corpus()[0]
            tracemalloc.start()
            try:
                prob.extract(h)
                peaks[h] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[h_small] < 2 * CHUNK_BYTES, corpus
        assert peaks[h_small] < 1.25 * peaks[h_big], corpus


_PEAKS = {
    "pair-0-0.01": (schrodinger_corpus()[0], 1e-2),
    "pair-1-0.001": (schrodinger_corpus()[1], 1e-3),
    "pair-0-0.0001": (schrodinger_corpus()[0], 1e-4),
    "model-0-0.01": (model_corpus()[0], 1e-2),
    "model-3-0.0001": (model_corpus()[3], 1e-4),
    "model-1-1e-05": (model_corpus()[1], 1e-5),
}


@pytest.mark.parametrize("prob, h", _PEAKS.values(), ids=_PEAKS.keys())
def test_march_peak_is_within_bytes_per_node(monkeypatch, prob, h):
    # _BYTES_PER_PANEL sets the largest panel batch and _BYTES_PER_CANDIDATE
    # the largest _judge call: the traced peak of an extraction stays within
    # them, per panel of that batch (at most 41 kB a panel) and
    # per candidate of that call (6.7 kB), plus _BYTES_PER_CANDIDATE per
    # panel kept (two copies of its 2 kB of data, at most)
    batches, calls = [0], [0]
    judge, levin = march._judge, march._levin

    def judging(system, lo, hi):
        calls.append(lo.size)
        return judge(system, lo, hi)

    def solving(system, phase, edges, data, one):
        batches.append(len(phase))
        return levin(system, phase, edges, data, one)

    monkeypatch.setattr(march, "_judge", judging)
    monkeypatch.setattr(march, "_levin", solving)
    prob.extract(h)  # first-call caches
    tracemalloc.start()
    try:
        prob.extract(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    panels = sum(batches) // 2  # both extractions
    bound = max(batches) * march._BYTES_PER_PANEL
    bound += (panels + max(calls)) * march._BYTES_PER_CANDIDATE
    assert peak <= bound, (peak, batches, calls)


def test_a_judge_call_holds_at_most_chunk_bytes(monkeypatch):
    # an amplitude of 3e3 at h = 1e-6 cuts the model's support into 4096
    # direct panels: the judge takes them at most _PER_CALL at a time, and
    # no call holds more than CHUNK_BYTES (measured at most 1.7 MB)
    strong = Bump(0.8, 3e3)
    prob = dataclasses.replace(model_corpus()[0], r1=strong, r2=strong)
    peaks, judge = [], march._judge

    def judging(system, lo, hi):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = judge(system, lo, hi)
        peaks.append((lo.size, tracemalloc.get_traced_memory()[1] - held))
        return out

    monkeypatch.setattr(march, "_judge", judging)
    tracemalloc.start()
    try:
        T = prob.extract(1e-6).entries
    finally:
        tracemalloc.stop()
    assert np.abs(T.conj().T @ T - np.eye(2)).max() <= 1e-12
    assert max(n for n, _ in peaks) == march._PER_CALL
    assert max(b for _, b in peaks) <= march.CHUNK_BYTES, peaks


def test_max_levels_is_checked_before_any_judge(monkeypatch, caplog):
    # the split's budget is decided before any candidate is judged: with
    # MAX_LEVELS at the level a row may reach (_levels), the march runs; one
    # below, it is refused before the first _judge call. Near the underflow
    # limit the zone needs hundreds of levels, and both families refuse
    # every h from 1e-200 to 1e-320 the same way
    for prob in (schrodinger_corpus()[0], model_corpus()[0]):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
            prob.extract(1e-12)
        deepest = caplog.records[-1].stats.allowed_level
        monkeypatch.setattr(march, "MAX_LEVELS", deepest)
        prob.extract(1e-12)
        monkeypatch.setattr(march, "MAX_LEVELS", deepest - 1)
        monkeypatch.setattr(march, "_judge", None)
        with pytest.raises(ValidationError, match="max_levels"):
            prob.extract(1e-12)
        monkeypatch.undo()
    for h in (1e-200, 1e-250, 1e-300, 1e-320):
        for prob in (schrodinger_corpus()[0], model_corpus()[0]):
            with pytest.raises(ValidationError, match="max_levels"):
                prob.extract(h)


@pytest.mark.parametrize("h", [1e-2, 2.5e-3, 1e-4, 1e-5])
@pytest.mark.parametrize("index", [0, 1])
def test_marched_phase_is_the_phase_at_every_chunk_end(monkeypatch, index, h):
    # F' is written once, in the pair's local(): the march integrates it
    # panel by panel by Clenshaw-Curtis from its integral from 0 at the
    # edge nearest 0, and the exact phase of the uniform march integrates
    # it from 0 by march.integral. The two agree at every panel edge
    # (measured at most 1.4e-17, corpus 0)
    prob = schrodinger_corpus()[index]
    system = uniform_plan.system(prob, h)
    ends, levin = [], march._levin

    def panels(system, phase, edges, data, one):
        ends.extend(zip(edges, phase))
        return levin(system, phase, edges, data, one)

    monkeypatch.setattr(march, "_levin", panels)
    march.march(system, np.eye(2, dtype=complex), prob.x_in, prob.x_out)
    assert ends
    assert max(abs(phi - system.phase(x)) for x, phi in ends) <= 1e-14


def test_numeric_transfer_both_crossings():
    prob = schrodinger_corpus()[0]
    for sign in (1, -1):
        ext = numeric_transfer_case_i(prob, 2.5e-3, sign)
        pred = predict_transfer_case_i(prob, 2.5e-3, sign)
        for entry in ("t12", "t21"):
            e, p = getattr(ext, entry), getattr(pred, entry)
            assert abs(e - p) / abs(p) < 0.08, (sign, entry)
        assert abs(ext.t11 - 1.0) < 0.03
        assert abs(ext.t22 - 1.0) < 0.03


def test_unequal_slopes_prediction_matches_numerics():
    # |V1'(0)| != |V2'(0)|: the gradient-norm factor of the general route
    # matters here; the equal-slope closed form stays about 1.3% off
    prob = SchrodingerProblem(
        v1=Poly1((0.0, -0.5)), v2=Poly1((0.0, 0.25)), w=Bump(width=0.8),
        e0=1.0, n=1, x_in=-1.2, x_out=1.2,
    )
    pred = predict_transfer_case_i(prob, 1e-3, 1)
    ext = numeric_transfer_case_i(prob, 1e-3, 1)
    for entry in ("t12", "t21"):
        e, p = getattr(ext, entry), getattr(pred, entry)
        assert abs(e - p) / abs(p) < 0.01, entry


def test_numeric_transfer_decoupled_is_identity():
    prob = dataclasses.replace(schrodinger_corpus()[0], w=ZERO_BUMP)
    ext = numeric_transfer_case_i(prob, 2.5e-3, 1)
    assert np.abs(ext.entries - np.eye(2)).max() < 1e-4


def test_numeric_transfer_case_and_sign_guards():
    # the coefficients are read at the interval end, so no read-off window
    # is left to guard; the crossing regime and the sign still are
    prob = schrodinger_corpus()[0]
    with pytest.raises(CaseMismatch):
        numeric_transfer_case_i(schrodinger_corpus()[2], 1e-3, 1)
    with pytest.raises(ValidationError):
        numeric_transfer_case_i(prob, 2.5e-3, 0)
