"""Coupled-pair front end: crossing data from potentials, closed-form
transfer predictions for both energy regimes, and numeric extraction in the
oscillatory basis, checked against a DOP853 reference solve. The checks of
the march itself (resolution, memory, Picard cap, node budget) run on the
reduced model too, which it extracts the same way.

Numeric tolerances were measured once with margin and frozen; the tight
h=1e-3 comparison lives in the acceptance suite, module tests run at a
cheaper h.
"""

import concurrent.futures
import dataclasses
import logging
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from crossing_kit import march, normalform, schrodinger
from crossing_kit.cli import _random_model_problem
from crossing_kit.errors import CaseMismatch, StepFailure, ValidationError
from crossing_kit.march import CHUNK_BYTES
from crossing_kit.normalform import model_corpus
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
from uniform_plan import march_uniformly

SQRT_2PI = 2.506628274631000502415765284811045253007


# ---------------------------------------------------------------- validation


def test_problem_validation():
    v1 = Poly1((0.0, -0.25))
    v2 = Poly1((0.0, 0.25))
    w = Bump(width=0.5)
    with pytest.raises(ValidationError):
        SchrodingerProblem(v1=v1, v2=v2, w=w, e0=1.0, n=1, h=1e-3, x_in=0.1, x_out=1.0)
    with pytest.raises(ValidationError):
        SchrodingerProblem(v1=v1, v2=v2, w=w, e0=1.0, n=2, h=1e-3, x_in=-1.0, x_out=1.0)
    with pytest.raises(ValidationError):  # identical potentials: no declared order fits
        SchrodingerProblem(v1=v1, v2=v1, w=w, e0=1.0, n=1, h=1e-3, x_in=-1.0, x_out=1.0)
    with pytest.raises(ValidationError):  # negative energy
        SchrodingerProblem(v1=v1, v2=v2, w=w, e0=-1.0, n=1, h=1e-3, x_in=-1.0, x_out=1.0)
    with pytest.raises(ValidationError):  # turning point inside the interval
        SchrodingerProblem(
            v1=Poly1((0.0, 2.0)), v2=Poly1((0.0, 2.0, 1.0)), w=Bump(width=0.2),
            e0=1.0, n=2, h=1e-3, x_in=-1.0, x_out=1.0,
        )
    with pytest.raises(ValidationError):  # coupling support reaches the boundary
        SchrodingerProblem(v1=v1, v2=v2, w=Bump(width=1.0), e0=1.0, n=1, h=1e-3,
                           x_in=-1.0, x_out=1.0)
    with pytest.raises(ValidationError):  # zero-energy case needs V1(0) = 0
        SchrodingerProblem(v1=Poly1((0.5, -1.0)), v2=Poly1((0.5, -2.0)), w=w,
                           e0=0.0, n=1, h=1e-3, x_in=-0.9, x_out=0.9)
    with pytest.raises(ValidationError):  # zero-energy case needs V_j'(0) != 0
        SchrodingerProblem(v1=Poly1((0.0, 0.0, 1.0)), v2=Poly1((0.0, 0.0, 2.0)), w=w,
                           e0=0.0, n=2, h=1e-3, x_in=-0.9, x_out=0.9)


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
                           h=1e-3, x_in=-1.2, x_out=1.2)
    # outside supp W the second zero is no crossing of the coupled pair
    SchrodingerProblem(v1=Poly1(v1), v2=Poly1(v2), w=Bump(0.15), e0=e0, n=1,
                       h=1e-3, x_in=-1.2, x_out=1.2)


@pytest.mark.parametrize("index", [0, 1, 2])
def test_with_h_shares_the_setup_and_reproduces_a_fresh_problem(index):
    # every with_h of a problem holds its one h-free setup record (crossing
    # data, WKB basis, normal-form bounds, Theta integrals); each h still
    # reads as a problem built afresh at that h, bit for bit on both
    # branches, so a cached part that kept the h of the first row it served
    # (a WkbBasis holding its problem, say) would show here
    prob = schrodinger_corpus(1e-1)[index]
    rows = [prob.with_h(h) for h in (1e-2, 2.5e-3, 1e-4)]
    assert all(row.setup is prob.setup for row in rows)
    for row in rows:
        fresh = schrodinger_corpus(row.h)[index]
        if prob.case == "ii":
            got, want = row.predict(), fresh.predict()
            assert np.array_equal(got.entries, want.entries), row.h
            with pytest.raises(CaseMismatch):
                row.extract()
            continue
        for branch in (1, -1):
            got, want = row.extract(branch), fresh.extract(branch)
            assert np.array_equal(got.entries, want.entries), (row.h, branch)
            got, want = row.predict(branch), fresh.predict(branch)
            assert np.array_equal(got.entries, want.entries), (row.h, branch)
    assert dataclasses.replace(prob, n=prob.n).setup is not prob.setup
    for h in (0.0, -1e-3, float("nan")):
        with pytest.raises(ValidationError, match="h must be positive"):
            prob.with_h(h)


def test_corpus_shape_and_cases():
    corpus = schrodinger_corpus(1e-3)
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
        e0=1.0, n=2, h=1e-3, x_in=-0.3, x_out=0.3,
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
    corpus = schrodinger_corpus(1e-3)
    odd = build_crossing_data(corpus[0], 1), build_crossing_data(corpus[0], -1)
    assert odd[0].bracket_m == 1.0
    assert odd[1].bracket_m == -1.0
    even = build_crossing_data(corpus[1], 1), build_crossing_data(corpus[1], -1)
    assert even[0].bracket_m == even[1].bracket_m == pytest.approx(3.2, abs=1e-12)


def test_crossing_data_case_mismatch():
    corpus = schrodinger_corpus(1e-3)
    with pytest.raises(CaseMismatch):
        build_crossing_data(corpus[0], 0)
    with pytest.raises(CaseMismatch):
        build_crossing_data(corpus[2], 1)
    with pytest.raises(ValidationError):
        build_crossing_data(corpus[0], 2)


def test_zero_energy_bracket_identity():
    # 2n-fold bracket at the origin equals ((-1)^n (2n)!/n!) V1'(0)^n delta_n
    p1 = schrodinger_corpus(1e-3)[2]  # V1 = -x, V2 = -2x
    assert build_crossing_data(p1, 0).bracket_m == -2.0
    p2 = SchrodingerProblem(
        v1=Poly1((0.0, -1.0)), v2=Poly1((0.0, -1.0, 1.0)), w=Bump(width=0.5),
        e0=0.0, n=2, h=1e-3, x_in=-0.9, x_out=0.9,
    )
    assert build_crossing_data(p2, 0).bracket_m == 24.0


@pytest.mark.parametrize("n", [*range(3, 14), 14, 20])
def test_high_contact_order_bracket(n):
    # V1 = -x/4, V2 = V1 + x^n at E0 = 1: the n-fold bracket at (0, 1) is
    # 2^n n!, while the bracket polynomial's largest coefficient grows far
    # faster; the zero test must not mistake it for rounding
    prob = SchrodingerProblem(
        v1=Poly1((0.0, -0.25)), v2=Poly1((0.0, -0.25) + (0.0,) * (n - 2) + (1.0,)),
        w=Bump(width=0.5), e0=1.0, n=n, h=1e-3, x_in=-0.9, x_out=0.9,
    )
    data = build_crossing_data(prob, 1)
    assert data.m == n
    assert data.bracket_m == pytest.approx(2.0**n * math.factorial(n), rel=1e-15)


# ------------------------------------------------------------ the predictions


def test_predicted_amplitude_goldens():
    corpus = schrodinger_corpus(1e-3)
    T = predict_transfer_case_i(corpus[0], 1)
    lam = math.sqrt(corpus[0].h)
    omega = T.t12 / (-1j * lam * corpus[0].w(0.0))
    assert abs(abs(omega) - SQRT_2PI) < 1e-12
    assert abs(np.angle(omega) + math.pi / 4.0) < 1e-12
    # unit difference slope: amplitude reduces to sqrt(pi) e^{-i pi/4}
    unit = SchrodingerProblem(
        v1=Poly1((0.0, -0.5)), v2=Poly1((0.0, 0.5)), w=Bump(width=0.3),
        e0=1.0, n=1, h=1e-3, x_in=-1.0, x_out=1.0,
    )
    Tu = predict_transfer_case_i(unit, 1)
    omega_u = Tu.t12 / (-1j * math.sqrt(unit.h) * unit.w(0.0))
    assert abs(omega_u - math.sqrt(math.pi) * np.exp(-1j * math.pi / 4.0)) < 1e-12


def test_prediction_matches_general_route_both_signs():
    for prob in schrodinger_corpus(1e-3)[:2]:
        for sign in (1, -1):
            display = closed_form_oracle.predict_transfer_case_i(prob, sign)
            general = predict_transfer_case_i(prob, sign)
            assert display.max_abs_diff(general) < 1e-12


def test_minus_crossing_swaps_the_amplitudes():
    prob = schrodinger_corpus(1e-3)[0]
    plus = predict_transfer_case_i(prob, 1)
    minus = predict_transfer_case_i(prob, -1)
    assert abs(plus.t12 - minus.t21) < 1e-15
    assert abs(plus.t21 - minus.t12) < 1e-15


def test_zero_coupling_prediction_is_identity():
    prob = dataclasses.replace(
        schrodinger_corpus(1e-3)[0], w=Bump(width=0.2, center=0.5)
    )
    assert prob.w(0.0) == 0.0
    T = predict_transfer_case_i(prob, 1)
    assert np.abs(T.entries - np.eye(2)).max() == 0.0


def test_case_ii_goldens_and_ratio():
    prob = schrodinger_corpus(1e-3)[2]  # V1 = -x, V2 = -2x
    T = predict_transfer_case_ii(prob)
    lam = prob.h ** (1.0 / 3.0)
    w0 = prob.w(0.0)
    omega1 = T.t12 / (-1j * lam * w0)
    omega2 = T.t21 / (-1j * lam * w0)
    assert abs(omega1 - 2.8105147707426159) < 1e-12
    assert abs(omega2 - 1.4052573853713080) < 1e-12
    # exact algebraic ratio (|V2'|/|V1'|)^{(n+2)/(2n+1)} = 2
    assert abs(omega1 / omega2 - 2.0) < 1e-12
    closed = closed_form_oracle.predict_transfer_case_ii(prob)
    assert T.max_abs_diff(closed) < 1e-12


def test_case_mismatch_between_predictors():
    corpus = schrodinger_corpus(1e-3)
    with pytest.raises(CaseMismatch):
        predict_transfer_case_i(corpus[2], 1)
    with pytest.raises(CaseMismatch):
        predict_transfer_case_ii(corpus[0])
    with pytest.raises(ValidationError):
        predict_transfer_case_i(corpus[0], 3)


# ------------------------------------------------------------------ the basis


def test_basis_normalization_and_flux():
    prob = schrodinger_corpus(1e-3)[0]
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
    prob = schrodinger_corpus(1e-3)[1]
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
        e0=1.0, n=1, h=1e-3, x_in=-0.8, x_out=0.8,
    )
    basis = WkbBasis(prob)
    for x in (-0.7, 0.3, 0.8):
        want = (0.8 * x, 4.0 / 3.0 * (0.512 - (0.64 - 0.5 * x) ** 1.5))
        assert basis.phase(x) == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_basis_requires_positive_energy():
    with pytest.raises(CaseMismatch):
        WkbBasis(schrodinger_corpus(1e-3)[2])


def test_decompose_round_trip_and_conjugation():
    prob = schrodinger_corpus(1e-3)[0]
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x = 0.95
    y = synthesize(prob, coeffs, x)
    ap, am = branch_decompose(prob, x, y[0::2], prob.h * y[1::2])
    got = np.array([ap, am]).T.ravel()  # (a1+, a1-, a2+, a2-)
    assert np.abs(got - coeffs).max() < 1e-12
    # conjugating the state swaps the branches with conjugated coefficients
    swapped = np.conj(coeffs[[1, 0, 3, 2]])
    assert np.abs(np.conj(y) - synthesize(prob, swapped, x)).max() < 1e-12


def test_decompose_ill_conditioned_near_flux_collapse():
    tiny = SchrodingerProblem(
        v1=Poly1((0.0,)), v2=Poly1((0.0, 1e-20)), w=Bump(width=0.2),
        e0=1e-18, n=1, h=1e-3, x_in=-0.5, x_out=0.5,
    )
    with pytest.raises(IllConditioned):
        branch_decompose(tiny, 0.4, np.array([1.0 + 0j, 0j]), np.zeros(2, complex))


# ------------------------------------------------------------------ the solves


def _propagate(prob, xs, tol=ODE_TOL):
    """The basis, and (u1, u2) at xs for unit data on the + branch of
    equation 1 entering at x_in."""
    y = integrate(prob, (1.0, 0.0, 0.0, 0.0), prob.x_in, prob.x_out, xs, tol)
    return WkbBasis(prob), y[0], y[2]


def test_decoupled_solution_tracks_its_branch():
    prob = dataclasses.replace(schrodinger_corpus(2.5e-3)[0], w=ZERO_BUMP)
    probes = (-1.2, 0.0, 0.9)
    xs = np.union1d(np.linspace(prob.x_in, prob.x_out, 2001), probes)
    basis, u1, u2 = _propagate(prob, xs)
    assert np.abs(u2).max() < 1e-9
    for x in probes:
        k = int(np.searchsorted(xs, x))
        wkb = basis.amplitude(x)[0] * np.exp(1j * basis.phase(x)[0] / prob.h)
        assert abs(u1[k] - wkb) < 0.5 * prob.h


def test_tolerance_refinement_is_converged():
    prob = schrodinger_corpus(2.5e-3)[0]
    xs = np.linspace(prob.x_in, prob.x_out, 2001)
    _, a1, a2 = _propagate(prob, xs, tol=1e-11)
    _, b1, b2 = _propagate(prob, xs, tol=5e-12)
    diff = max(np.abs(a1 - b1).max(), np.abs(a2 - b2).max())
    assert diff < 1e-8


def _reference_transfer(prob, sign):
    """T at (0, sign * xi0) by DOP853: unit data synthesized in the exact
    basis at the input end, decomposed in it at the read-off end."""
    start, end = (prob.x_in, prob.x_out)[::sign]
    slot = (1 - sign) // 2
    cols = []
    for c in (0, 1):
        coeffs = np.zeros(4)
        coeffs[2 * c + slot] = 1.0
        y = integrate(prob, coeffs, start, end, [end])[:, -1]
        cols.append(branch_decompose(prob, end, y[0::2], prob.h * y[1::2])[slot])
    return np.array(cols).T


@pytest.mark.parametrize("h", [1e-2, 2.5e-3])
@pytest.mark.parametrize("index", [0, 1])
def test_march_matches_the_reference_solve(index, h):
    # the exact four-coefficient system, marched, against DOP853
    prob = schrodinger_corpus(h)[index]
    for sign in (1, -1):
        got = pair_oracle.transfer(prob, sign)
        want = _reference_transfer(prob, sign)
        assert np.abs(got - want).max() <= 1e-8, sign


@pytest.mark.parametrize("h", [1e-2, 5e-3, 2.5e-3, 1e-3])
@pytest.mark.parametrize("index", [0, 1])
def test_normal_form_is_within_6_h_5_2_of_the_exact_system(index, h):
    # averaging out the counter-propagating branches costs O(h^{5/2}): the
    # largest measured ratio is 5.24, on corpus 1 at h = 1e-2
    prob = schrodinger_corpus(h)[index]
    for sign in (1, -1):
        got = numeric_transfer_case_i(prob, sign).entries
        want = pair_oracle.transfer(prob, sign)
        assert np.abs(got - want).max() <= 6 * h**2.5, sign


def _unequal_slopes(h):
    return SchrodingerProblem(
        v1=Poly1((0.0, -0.5)), v2=Poly1((0.0, 0.25)), w=Bump(width=0.8),
        e0=1.0, n=1, h=h, x_in=-1.2, x_out=1.2,
    )


_TRANSPOSED = {
    **{f"{k}-{h:g}": schrodinger_corpus(h)[k] for k in (0, 1) for h in (1e-2, 1e-4)},
    **{f"unequal-slopes-{h:g}": _unequal_slopes(h) for h in (1e-2, 1e-4)},
}


@pytest.mark.parametrize("prob", _TRANSPOSED.values(), ids=_TRANSPOSED.keys())
def test_minus_prediction_is_the_flux_scaled_transpose(prob):
    # the extraction reads T at -xi0 as C^{-2} T^T C^2 of T at +xi0, C =
    # diag(c_j); the invariant route obeys the same identity (measured
    # 7.9e-17), so both use one flux convention at -xi0. The plain
    # transpose misses by 4.6e-3 at h = 1e-2 where the slopes differ
    c2 = np.array(WkbBasis(prob).c) ** 2
    plus = predict_transfer_case_i(prob, 1).entries
    minus = predict_transfer_case_i(prob, -1).entries
    assert np.abs(minus - plus.T * c2[None, :] / c2[:, None]).max() <= 1e-15


def test_minus_crossing_is_read_off_the_plus_march(caplog):
    # the - branches' propagator from x_out to x_in is the transpose of the
    # + one from x_in to x_out: the - extraction marches once, the + march
    prob = _unequal_slopes(1e-3)
    with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
        for sign in (1, -1):
            numeric_transfer_case_i(prob, sign)
    plus, minus = [r.getMessage() for r in caplog.records]
    assert minus == plus and " marched " in plus


def test_pair_oracle_refuses_h_below_its_converged_range():
    prob = schrodinger_corpus(pair_oracle.H_MIN / 2)[1]
    with pytest.raises(ValueError, match="not converged"):
        pair_oracle.transfer(prob)


_FLUX = {
    **{
        f"{k}-{h:g}": (schrodinger_corpus(h)[k], 1.0)
        for k in (0, 1)
        for h in (1e-2, 1e-3, 1e-4)
    },
    **{
        f"unequal-slopes-{h:g}": (_unequal_slopes(h), 1.0113)
        for h in (1e-2, 1e-3, 1e-4)
    },
}


@pytest.mark.parametrize("prob, ratio", _FLUX.values(), ids=_FLUX.keys())
def test_flux_scaled_transfer_is_unitary(prob, ratio):
    # the flux sigma_j^2 p_j is conserved, so diag(s) T diag(s)^{-1} with
    # s_j = sigma_j sqrt(p_j) is unitary. A wrong flux scale fails it where
    # the slopes differ (s_1 / s_2 = 1.0113); the four-coefficient march
    # missed it by up to 2.6e-5 (corpus 1, h = 1e-2)
    basis = WkbBasis(prob)
    s = basis.amplitude(0.3) * np.sqrt(basis.rates(0.3)[1])
    assert s[0] / s[1] == pytest.approx(ratio, abs=1e-4)
    for sign in (1, -1):
        T = numeric_transfer_case_i(prob, sign).entries
        scaled = s[:, None] * T / s[None, :]
        assert np.abs(scaled.conj().T @ scaled - np.eye(2)).max() <= 1e-12, sign


@pytest.mark.parametrize(
    "prob",
    [
        schrodinger_corpus(1e-2)[1],
        schrodinger_corpus(2.5e-3)[1],
        model_corpus(1e-3)[0],
        model_corpus(1e-4)[2],
        model_corpus(1e-5)[1],
        *(_random_model_problem(m, 1e-4, s) for m in (1, 2, 3) for s in (0, 1, 2)),
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
def test_march_resolution_is_converged(monkeypatch, prob):
    coarse = prob.extract()
    monkeypatch.setattr(march, "POINTS_PER_PERIOD", 48)
    fine = prob.extract()
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
    # the march at its default density against the same march at 96 points
    # per period, on every problem of both corpora that runs case i
    coarse = [corpus(h)[k].extract() for k in indices]
    monkeypatch.setattr(march, "POINTS_PER_PERIOD", 96)
    for k, got in zip(indices, coarse):
        err = got.max_abs_diff(corpus(h)[k].extract())
        assert err <= 2e-11, (k, err)


def _march_line(caplog, run):
    """run() and the uniformly marched nodes and the panels, Levin and
    direct, of the last march's DEBUG line."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
        out = run()
    msg = caplog.records[-1].getMessage()
    nodes = int(re.search(r"marched (\d+) nodes", msg).group(1))
    panels = sum(int(n) for n in re.findall(r"(\d+) (?:Levin|direct) panels", msg))
    return out, nodes, panels, msg


def _panels_against_uniform(monkeypatch, caplog, prob, pieces=16, points=40):
    """|U - U_uniform| for the propagator U of prob's coupling support, and
    the DEBUG line of the march that gave U. U_uniform, the oracle of the
    panel path, is the uniform plan (march_uniformly) at ``points`` points
    per period, cut into ``pieces`` equal parts that each start from the
    exact phase: marched whole, it chains its phase over the span, whose
    rounding reaches 1.8e-11 on a random model at h = 1e-5 and 1.3e-10 on
    model-corpus 2 at h = 1e-6."""
    if isinstance(prob, normalform.NormalFormProblem):
        system = normalform._system(prob)
    else:
        system = schrodinger._system(prob)
    lo, hi = system.support
    eye = np.eye(2, dtype=complex)
    got, _, panels, msg = _march_line(caplog, lambda: march.march(system, eye, lo, hi))
    with monkeypatch.context() as patch:
        march_uniformly(patch)
        patch.setattr(march, "POINTS_PER_PERIOD", points)
        want, cuts = eye, np.linspace(lo, hi, pieces + 1)
        for start, end in zip(cuts[:-1], cuts[1:]):
            want = march.march(system, want, start, end)
    return float(np.abs(got - want).max()), panels, msg


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
    # the march on Levin and direct panels against the uniform plan at 40
    # points per period, on every case-i corpus problem: within 2e-11 at
    # h = 1e-4 and 1e-5 and 1e-10 at 1e-6 (measured at most 2.3e-13 and
    # 9.7e-13), and no node marched uniformly
    err, panels, msg = _panels_against_uniform(monkeypatch, caplog, corpus(h)[index])
    assert panels > 0 and "marched 0 nodes" in msg, msg
    assert err <= (1e-10 if h == 1e-6 else 2e-11), err


@pytest.mark.parametrize("m", [1, 2, 3])
def test_levin_panels_match_the_uniform_march_on_random_models(monkeypatch, caplog, m):
    # seeded draws of the random-model family at h = 1e-5, r1 != r2 (two
    # chains): the panel path against the uniform march at 40 points per
    # period (measured at most 9.7e-13, m = 3, seed 1, where that oracle is
    # 1.3e-12 from itself at 96 points per period and the panels 3.6e-13)
    for seed in (0, 1, 2):
        prob = _random_model_problem(m, 1e-5, seed)
        err, panels, msg = _panels_against_uniform(monkeypatch, caplog, prob)
        assert panels > 0, msg
        assert err <= 2e-11, (seed, err)


@pytest.mark.parametrize("h", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_panels_match_the_uniform_plan_on_random_draws(monkeypatch, caplog, m, h):
    # seeded draws of the random-model family (r1 != r2, two chains): the
    # march, on panels alone, against the uniform plan at 40 points per
    # period, within 1e-9 (measured at most 5.6e-13, m = 3, seed 1,
    # h = 1e-4); the same draws with r2 = r1, where M is skew-Hermitian,
    # give a propagator unitary to 1e-12 (measured at most 4.4e-16)
    for seed in (0, 1, 2):
        prob = _random_model_problem(m, h, seed)
        err, panels, msg = _panels_against_uniform(monkeypatch, caplog, prob)
        assert panels > 0 and "marched 0 nodes" in msg, msg
        assert err <= 1e-9, (seed, err)
        system = normalform._system(dataclasses.replace(prob, r2=prob.r1))
        assert system.skew_hermitian
        u = march.march(system, np.eye(2, dtype=complex), *system.support)
        assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-12, seed


def test_panels_keep_the_exact_phase_of_model_corpus_2(monkeypatch, caplog):
    # model-corpus 2 at h = 1e-4 on panels, whose edges take their phase
    # from the exact phase at the segment's start by the panels' integrals
    # of F', against the uniform plan at 96 points per period cut into 16
    # pieces that each start from the exact phase: measured 3.0e-14, where
    # the uniform march of the whole span, 14k nodes at 14 points per
    # period that chain their phase over it, read 2.5e-13
    prob = model_corpus(1e-4)[2]
    err, panels, msg = _panels_against_uniform(monkeypatch, caplog, prob, points=96)
    assert panels > 0 and "marched 0 nodes" in msg, msg
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
    # unitary; at h = 1e-8 the march solves it on panels and a zone of a
    # few hundred nodes, and U stays unitary to 1e-12 (measured 3e-15)
    prob = corpus(1e-8)[index]
    sys_ = system(prob)
    assert sys_.skew_hermitian
    u = march.march(sys_, np.eye(2, dtype=complex), *sys_.interval)
    assert np.abs(u.conj().T @ u - np.eye(2)).max() <= 1e-12


@pytest.mark.parametrize(
    "corpus, index",
    [(model_corpus, k) for k in range(6)] + [(schrodinger_corpus, k) for k in range(2)],
    ids=[f"model-{k}" for k in range(6)] + [f"pair-{k}" for k in range(2)],
)
def test_levin_work_barely_grows_below_1e_6(caplog, corpus, index):
    # the cost of an extraction stops growing with 1/h: from h = 1e-6 to
    # 1e-8 the nodes the march evaluates, uniform and on panels, and the
    # panels stay within 2x (counts, not timings; 1.1k to 1.6k nodes and
    # 20 to 26 panels on model-corpus 0), where the uniform march's nodes
    # grew 100x
    counts = []
    for h in (1e-6, 1e-8):
        _, nodes, panels, msg = _march_line(caplog, corpus(h)[index].extract)
        counts.append((nodes + panels * march.PANEL_POINTS, panels))
    (work_6, panels_6), (work_8, panels_8) = counts
    assert 0.5 <= work_8 / work_6 <= 2.0, counts
    assert 0.5 <= panels_8 / panels_6 <= 2.0, counts


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


def test_refused_panel_is_marched_uniformly(monkeypatch, caplog):
    # a Levin panel whose first Levin solution is not resolved to _TAIL_TOL
    # (here: m1 perturbed by 1e-6 on the first Levin panel of the data the
    # solve gets, after the judge saw it smooth) is marched alone on the
    # uniform plan, from the exact phase at its start, and the other panels
    # keep theirs; the march reports it and still matches the uniform march
    # at 40 points per period
    prob = model_corpus(1e-5)[1]
    levin = march._levin

    def noisy(system, phi0, edges, data):
        direct, half, values = data
        values = values.copy()
        first = np.flatnonzero(~direct)[:1]
        noise = np.random.default_rng(5).standard_normal(values[first, 0].shape)
        values[first, 0] += 1e-6 * noise
        return levin(system, phi0, edges, (direct, half, values))

    _, _, clean, _ = _march_line(caplog, prob.extract)
    monkeypatch.setattr(march, "_levin", noisy)
    err, panels, msg = _panels_against_uniform(monkeypatch, caplog, prob)
    nodes = int(re.search(r"marched (\d+) nodes", msg).group(1))
    assert "1 panels refused" in msg and panels == clean - 1 and nodes > 0, msg
    assert err <= 2e-11, err


def test_pair_1_at_1e_9_marches_one_panel_uniformly(caplog):
    # schrodinger-corpus 1 at h = 1e-9: the first Levin solution of one
    # panel, [-0.0125, -0.00625], fails its check, and that panel alone is
    # marched on the uniform plan (1243 nodes), where a fallback over the
    # whole run of panels around it would need 4.7e8 nodes and N_MAX
    # refused the row. The propagator stays unitary to 1e-12, the bound
    # test_levin_propagator_is_unitary_at_1e_8 holds (measured 4.4e-16)
    prob = schrodinger_corpus(1e-9)[1]
    system = schrodinger._system(prob)
    eye = np.eye(2, dtype=complex)
    u, nodes, panels, msg = _march_line(
        caplog, lambda: march.march(system, eye, prob.x_in, prob.x_out)
    )
    assert "1 panels refused by the Levin check" in msg, msg
    assert 0 < nodes < 2000 and panels > 0, msg
    assert np.abs(u.conj().T @ u - eye).max() <= 1e-12
    assert np.isfinite(prob.extract().entries).all()


_BATCHED = {
    "model-3-1e-05": (model_corpus(1e-5)[3], normalform._system),
    "model-1-0.001": (model_corpus(1e-3)[1], normalform._system),
    "pair-1-0.0001": (schrodinger_corpus(1e-4)[1], schrodinger._system),
}


@pytest.mark.parametrize("prob, build", _BATCHED.values(), ids=_BATCHED.keys())
def test_a_panels_propagator_does_not_depend_on_its_batch(prob, build):
    # each panel's propagator is solved from its own left edge: solved
    # alone, from the phase its segment's batch gives its left edge, it
    # is that of the whole batch within PICARD_TOL (measured at most
    # 6.2e-17), one chain (pair) or two (model-corpus 3)
    system = build(prob)
    solved = 0
    for start, _, panels in march._segments(system, *system.support):
        if panels is None:
            continue
        edges, (direct, half, values) = panels
        whole, phase, _, refused = march._levin(
            system, system.phase(start), edges, panels[1]
        )
        for k in np.flatnonzero(~refused):
            cut = slice(k, k + 1)
            data = (direct[cut], half[cut], values[cut])
            alone, _, _, bad = march._levin(system, phase[k], edges[k : k + 2], data)
            if not bad[0]:
                assert np.abs(alone[0] - whole[k]).max() <= march.PICARD_TOL, k
                solved += 1
    assert solved >= 12


def test_march_fails_loudly_at_the_picard_cap():
    # a coupling so strong that even the shortest chunk spans many
    # e-foldings: Picard cannot converge in PICARD_MAX_ITER sweeps
    strong = Bump(width=0.8, amplitude=1e4)
    for prob in (
        dataclasses.replace(schrodinger_corpus(1e-2)[0], w=strong),
        dataclasses.replace(model_corpus(1e-2)[0], r1=strong, r2=strong),
    ):
        with pytest.raises(StepFailure, match="Picard"):
            prob.extract()


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
            prob = corpus(h)[0]
            tracemalloc.start()
            try:
                prob.extract()
                peaks[h] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[h_small] < 2 * CHUNK_BYTES, corpus
        assert peaks[h_small] < 1.25 * peaks[h_big], corpus


_PEAKS = {
    "pair-0-0.01": schrodinger_corpus(1e-2)[0],
    "pair-1-0.001": schrodinger_corpus(1e-3)[1],
    "pair-0-0.0001": schrodinger_corpus(1e-4)[0],
    "model-0-0.01": model_corpus(1e-2)[0],
    "model-3-0.0001": model_corpus(1e-4)[3],
    "model-1-1e-05": model_corpus(1e-5)[1],
}


@pytest.mark.parametrize("prob", _PEAKS.values(), ids=_PEAKS.keys())
def test_march_peak_is_within_bytes_per_node(monkeypatch, prob):
    # _BYTES_PER_NODE sets the longest chunk and _BYTES_PER_PANEL the
    # largest panel batch: the traced peak of an extraction stays within
    # them, per node of that chunk (about 150 and 210 bytes a node for one
    # chain and two) plus per panel of that panel batch (about 50 kB), as
    # the uniform chunks' work arrays live through the panel batches
    longest, panels = [0], [0]
    plan, levin = march._plan, march._levin

    def recording(system, start, end):
        chunks = plan(system, start, end)
        longest.append(max(cells for _, cells in chunks))
        return chunks

    def recording_panels(system, phi0, edges, data):
        panels.append(len(edges) - 1)
        return levin(system, phi0, edges, data)

    monkeypatch.setattr(march, "_plan", recording)
    monkeypatch.setattr(march, "_levin", recording_panels)
    prob.extract()  # first-call caches
    tracemalloc.start()
    try:
        prob.extract()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = (max(longest) + 1) * march._BYTES_PER_NODE
    assert peak <= bound + max(panels) * march._BYTES_PER_PANEL, (peak, longest, panels)


def test_node_budget_counts_the_marched_grid(monkeypatch, caplog):
    # N_MAX bounds the nodes the march steps uniformly, those of the zone
    # that the DEBUG line reports as marched, not the Levin panels': with
    # N_MAX one above that count the march runs, with N_MAX at it the march
    # is refused before any work. Near the underflow limit even the zone,
    # at least 2^-12 of the support wide, is far above N_MAX. Both
    # families, at h = 1e-6 where the outer pieces are panels.
    for prob in (schrodinger_corpus(1e-6)[0], model_corpus(1e-6)[0]):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
            prob.extract()
        msg = caplog.records[-1].getMessage()
        nodes = int(re.search(r"marched (\d+) nodes", msg).group(1))
        assert int(re.search(r"(\d+) Levin panels", msg).group(1)) > 0, msg
        monkeypatch.setattr(march, "N_MAX", nodes + 1)
        prob.extract()
        monkeypatch.setattr(march, "N_MAX", nodes)

        def allocating(*args):
            raise AssertionError("work arrays allocated over the budget")

        with monkeypatch.context() as inner:
            inner.setattr(march, "_work", allocating)
            with pytest.raises(ValidationError, match="n_max"):
                prob.extract()
        monkeypatch.undo()
    for prob in (schrodinger_corpus(1e-200)[0], model_corpus(1e-200)[0]):
        with pytest.raises(ValidationError, match="nodes"):
            prob.extract()


def test_plan_refuses_what_only_the_estimate_admits(monkeypatch):
    # the pieces' node count is a lower bound on the plan's (8.5k against
    # 19.3k here): with N_MAX between the two the estimate passes, and the
    # plan refuses the march before any work array is allocated
    march_uniformly(monkeypatch)
    prob = model_corpus(1e-4)[2]
    system = normalform._system(prob)
    lo, hi = prob.coupling_support()
    width = (hi - lo) / march.RATE_PIECES
    estimate = sum(width / dx for dx in march._piece_spacing(system, lo, hi))
    planned = sum(cells for _, cells in march._plan(system, lo, hi)) + 1
    assert estimate < planned
    monkeypatch.setattr(march, "N_MAX", int(estimate + planned) // 2)
    march._piece_spacing(system, lo, hi)  # the estimate passes

    def allocating(*args):
        raise AssertionError("work arrays allocated over the budget")

    monkeypatch.setattr(march, "_work", allocating)
    with pytest.raises(ValidationError, match="n_max"):
        prob.extract()


def _window_rate(system, start, end, near, far):
    """rate_on over the pieces of the plan of [start, end] that the
    distances [near, far] from start touch, clipped to [start, end]: the
    window as the plan reads it."""
    width = (end - start) / march.RATE_PIECES
    first = max(0, int(near / width))
    last = min(march.RATE_PIECES, int(far / width) + 1)
    a, b = start + first * width, start + last * width
    return float(system.rate_on(np.array([a]), np.array([b]))[0])


def _envelope_integral():
    # ENVELOPE_CORPUS (4, +1) of test_oscquad at h = 1e-6
    phase = PhaseSpec.from_poly(Poly1((0, 0, 0, 0, 0, 0.2)))
    amp = Bump(width=0.5, center=0.1)
    return osc_integral_numeric(phase, amp, 1e-6, (-0.6, 0.8))


_MARCHES = {
    **{
        f"model-{k}-{h:g}": model_corpus(h)[k].extract
        for h in (1e-4, 1e-5)
        for k in (0, 1, 2)
    },
    "pair-0.001": schrodinger_corpus(1e-3)[0].extract,
    "envelope-4-1e-06": _envelope_integral,
}


@pytest.mark.parametrize("run", _MARCHES.values(), ids=_MARCHES.keys())
def test_each_chunk_takes_the_widest_dx_that_resolves_its_reach(monkeypatch, run):
    # on the uniform plan, a chunk of length L at distance u from the start
    # resolves the rates on [u - L, u + 2L] with POINTS_PER_PERIOD nodes per
    # period, within the N_MIN cap, and the next wider piece dx would not;
    # the chunks tile the marched span
    march_uniformly(monkeypatch)
    plans = []
    plan = march._plan

    def recording(system, start, end):
        chunks = plan(system, start, end)
        plans.append((system, start, end, chunks))
        return chunks

    monkeypatch.setattr(march, "_plan", recording)
    run()
    assert plans
    for system, start, end, chunks in plans:
        cap = (system.interval[1] - system.interval[0]) / (march.N_MIN - 1)
        widths = sorted(set(march._piece_spacing(system, start, end)))

        def bound(near, far):
            rate = _window_rate(system, start, end, near, far)
            period = 2.0 * math.pi * system.h / rate
            return min(cap, period / march.POINTS_PER_PERIOD)

        u = 0.0
        for k, (dx, cells) in enumerate(chunks):
            assert cells >= march._MIN_CHUNK_CELLS
            reach = march._chunk_cells(system, dx) * dx
            assert dx <= bound(u - reach, u + cells * dx + reach) * (1 + 1e-9)
            wider = [d for d in widths if d > dx * (1 + 1e-9)]
            if k < len(chunks) - 1 and wider:
                reach = march._chunk_cells(system, wider[0]) * wider[0]
                assert wider[0] > bound(u - reach, u + 2 * reach) * (1 - 1e-9)
            u += cells * dx
        assert u == pytest.approx(end - start, rel=1e-12)


# where the coupling, not CHUNK_BYTES, sets the chunk length: at h = 1e-2
# and 1e-3 on the model, and at three times its coupling
_SHORT_CHUNKS = {
    "model-0-0.01": model_corpus(1e-2)[0].extract,
    "model-0-0.001": model_corpus(1e-3)[0].extract,
    "model-0-0.01-strong": dataclasses.replace(
        model_corpus(1e-2)[0], r1=Bump(0.8, 3.0), r2=Bump(0.8, 3.0)
    ).extract,
}


@pytest.mark.parametrize(
    "run",
    [*_MARCHES.values(), *_SHORT_CHUNKS.values()],
    ids=[*_MARCHES, *_SHORT_CHUNKS],
)
def test_each_picard_chunk_is_a_run_of_equal_dx_segments(monkeypatch, run):
    # every entry of the uniform plan is one Picard chunk, a run of cells of
    # one dx, within CHUNK_BYTES and, unless it has the fewest cells, within
    # int |M| <= PICARD_REACH; the chunks tile the marched span, and the
    # march solves each as planned
    march_uniformly(monkeypatch)
    marches = []
    plan, picard = march._plan, march._picard

    def planning(system, start, end):
        chunks = plan(system, start, end)
        marches.append((system, end - start, chunks, []))
        return chunks

    def solving(system, a0, phi0, x, dx, work):
        marches[-1][3].append((dx, len(x) - 1))
        return picard(system, a0, phi0, x, dx, work)

    monkeypatch.setattr(march, "_plan", planning)
    monkeypatch.setattr(march, "_picard", solving)
    run()
    assert marches
    most = march.CHUNK_BYTES // march._BYTES_PER_NODE
    for system, span, chunks, solved in marches:
        assert solved == chunks
        for dx, cells in chunks:
            assert cells + 1 <= most
            assert (
                cells == march._MIN_CHUNK_CELLS
                or system.coupling * cells * dx <= march.PICARD_REACH
            )
        assert sum(c * dx for dx, c in chunks) == pytest.approx(span, rel=1e-12)


@pytest.mark.parametrize("h", [1e-2, 2.5e-3, 1e-4, 1e-5])
@pytest.mark.parametrize("index", [0, 1])
def test_marched_phase_is_the_phase_at_every_chunk_end(monkeypatch, index, h):
    # F' is written once, in the pair's local(): the march integrates it
    # panel by panel by Clenshaw-Curtis, or chunk by chunk with cum_quad10
    # on the uniform plan, and the system's phase integrates it from 0 by
    # Gauss-Legendre. The two agree at every panel edge and every Picard
    # chunk end (measured at most 3.1e-16 on the uniform plan, corpus 0 at
    # h = 1e-5)
    prob = schrodinger_corpus(h)[index]
    system = schrodinger._system(prob)
    ends, picard, levin = [], march._picard, march._levin

    def solving(system, a0, phi0, x, dx, work):
        a, phi, iters = picard(system, a0, phi0, x, dx, work)
        ends.append((x[-1], phi))
        return a, phi, iters

    def panels(system, phi0, edges, data):
        solved = levin(system, phi0, edges, data)
        ends.extend(zip(edges, solved[1]))
        return solved

    monkeypatch.setattr(march, "_picard", solving)
    monkeypatch.setattr(march, "_levin", panels)
    for uniform in (False, True):
        if uniform:
            march_uniformly(monkeypatch)
        ends.clear()
        march.march(system, np.eye(2, dtype=complex), prob.x_in, prob.x_out)
        assert ends
        assert max(abs(phi - system.phase(x)) for x, phi in ends) <= 1e-14


def test_numeric_transfer_both_crossings():
    prob = schrodinger_corpus(2.5e-3)[0]
    for sign in (1, -1):
        ext = numeric_transfer_case_i(prob, sign)
        pred = predict_transfer_case_i(prob, sign)
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
        e0=1.0, n=1, h=1e-3, x_in=-1.2, x_out=1.2,
    )
    pred = predict_transfer_case_i(prob, 1)
    ext = numeric_transfer_case_i(prob, 1)
    for entry in ("t12", "t21"):
        e, p = getattr(ext, entry), getattr(pred, entry)
        assert abs(e - p) / abs(p) < 0.01, entry


def test_numeric_transfer_decoupled_is_identity():
    prob = dataclasses.replace(schrodinger_corpus(2.5e-3)[0], w=ZERO_BUMP)
    ext = numeric_transfer_case_i(prob, 1)
    assert np.abs(ext.entries - np.eye(2)).max() < 1e-4


def test_numeric_transfer_case_and_sign_guards():
    # the coefficients are read at the interval end, so no read-off window
    # is left to guard; the crossing regime and the sign still are
    prob = schrodinger_corpus(2.5e-3)[0]
    with pytest.raises(CaseMismatch):
        numeric_transfer_case_i(schrodinger_corpus(1e-3)[2], 1)
    with pytest.raises(ValidationError):
        numeric_transfer_case_i(prob, 0)
