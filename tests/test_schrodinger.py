"""Coupled-pair front end: crossing data from potentials, closed-form
transfer predictions for both energy regimes, and numeric extraction in the
oscillatory basis, checked against a DOP853 reference solve. The checks of
the march itself (resolution, memory, Picard cap, node budget) run on the
reduced model too, which it extracts the same way.

Numeric tolerances were measured once with margin and frozen; the tight
h=1e-3 comparison lives in the acceptance suite, module tests run at a
cheaper h.
"""

import dataclasses
import logging
import math
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
    for j, v in ((1, prob.v1), (2, prob.v2)):
        c = (1.0 + v.deriv_at(1, 0.0) ** 2 / 4.0) ** 0.25
        assert basis.amplitude(j, 0.0) == pytest.approx(c, rel=1e-14)
        xs = np.linspace(prob.x_in, prob.x_out, 17)
        flux = basis.amplitude(j, xs) ** 2 * basis.momentum(j, xs)
        assert np.abs(flux - flux[0]).max() < 1e-13


def test_march_coefficients_match_the_basis_methods():
    # the march evaluates each potential once per chunk; its momenta and
    # sigma''/sigma must equal the basis methods' bit for bit
    prob = schrodinger_corpus(1e-3)[1]
    basis = WkbBasis(prob)
    xs = np.linspace(prob.x_in, prob.x_out, 301)
    _, p, kappa = schrodinger._rates(basis, xs)
    assert (p == np.array([basis.momentum(j, xs) for j in (1, 2)])).all()
    for j in (1, 2):
        assert (kappa[j - 1] == basis.amplitude_ratios(j, xs)[1]).all()


def test_phase_closed_form_for_constant_potential():
    prob = SchrodingerProblem(
        v1=Poly1((0.36,)), v2=Poly1((0.36, 0.5)), w=Bump(width=0.3),
        e0=1.0, n=1, h=1e-3, x_in=-0.8, x_out=0.8,
    )
    basis = WkbBasis(prob)
    for x in (-0.7, 0.3, 0.8):
        assert basis.phase(1, x) == pytest.approx(0.8 * x, rel=1e-13, abs=1e-15)


def test_basis_requires_positive_energy():
    with pytest.raises(CaseMismatch):
        WkbBasis(schrodinger_corpus(1e-3)[2])


def test_decompose_round_trip_and_conjugation():
    prob = schrodinger_corpus(1e-3)[0]
    basis = WkbBasis(prob)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    x = 0.95
    y = synthesize(basis, coeffs, x)
    got = []
    for j in (1, 2):
        ap, am = branch_decompose(
            basis, j, x, y[2 * j - 2], prob.h * y[2 * j - 1]
        )
        got.extend([complex(ap), complex(am)])
    assert np.abs(np.array(got) - coeffs).max() < 1e-12
    # conjugating the state swaps the branches with conjugated coefficients
    swapped = np.conj(coeffs[[1, 0, 3, 2]])
    assert np.abs(np.conj(y) - synthesize(basis, swapped, x)).max() < 1e-12


def test_decompose_ill_conditioned_near_flux_collapse():
    tiny = SchrodingerProblem(
        v1=Poly1((0.0,)), v2=Poly1((0.0, 1e-20)), w=Bump(width=0.2),
        e0=1e-18, n=1, h=1e-3, x_in=-0.5, x_out=0.5,
    )
    basis = WkbBasis(tiny)
    with pytest.raises(IllConditioned):
        branch_decompose(
            basis, 1, np.array([0.4]), np.array([1.0 + 0j]), np.array([0.0j])
        )


# ------------------------------------------------------------------ the solves


def _propagate(prob, xs, tol=ODE_TOL):
    """The basis, and (u1, u2) at xs for unit data on the + branch of
    equation 1 entering at x_in."""
    basis = WkbBasis(prob)
    y = integrate(basis, (1.0, 0.0, 0.0, 0.0), prob.x_in, prob.x_out, xs, tol)
    return basis, y[0], y[2]


def test_decoupled_solution_tracks_its_branch():
    prob = dataclasses.replace(schrodinger_corpus(2.5e-3)[0], w=ZERO_BUMP)
    probes = (-1.2, 0.0, 0.9)
    xs = np.union1d(np.linspace(prob.x_in, prob.x_out, 2001), probes)
    basis, u1, u2 = _propagate(prob, xs)
    assert np.abs(u2).max() < 1e-9
    for x in probes:
        k = int(np.searchsorted(xs, x))
        wkb = basis.amplitude(1, x) * np.exp(1j * basis.phase(1, x) / prob.h)
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
    basis = WkbBasis(prob)
    start, end = (prob.x_in, prob.x_out)[::sign]
    slot = (1 - sign) // 2
    cols = []
    for c in (0, 1):
        coeffs = np.zeros(4)
        coeffs[2 * c + slot] = 1.0
        y = integrate(basis, coeffs, start, end, [end])[:, -1]
        cols.append(
            [
                branch_decompose(basis, j, end, y[2 * j - 2], prob.h * y[2 * j - 1])[slot]
                for j in (1, 2)
            ]
        )
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
    s = np.array([basis.amplitude(j, 0.3) for j in (1, 2)])
    s *= np.sqrt([basis.momentum(j, 0.3) for j in (1, 2)])
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
    # _BYTES_PER_NODE sets the longest chunk: the traced peak of an
    # extraction stays within it per node of that chunk, for one chain and
    # two (about 150 and 210 bytes a node)
    longest = []
    plan = march._plan

    def recording(system, start, end):
        chunks = plan(system, start, end)
        longest.append(max(cells for _, cells in chunks))
        return chunks

    monkeypatch.setattr(march, "_plan", recording)
    prob.extract()  # first-call caches
    tracemalloc.start()
    try:
        prob.extract()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (max(longest) + 1) * march._BYTES_PER_NODE, (peak, longest)


def test_node_budget_counts_the_marched_grid():
    # the pair's graded grid follows |phi_2' - phi_1'| <= 0.2 on supp W =
    # [-0.8, 0.8]: its plan has about 3.66M nodes at h = 1e-7, which fits,
    # and the pieces' estimate alone reads about 45.4M at h = 8e-9. The
    # model's follows |f| = |x| on the coupling support [-0.8, 0.8]: its
    # plan has about 14.5M nodes at h = 1e-7, which fits, and the pieces'
    # estimate alone reads about 41.4M at h = 3.5e-8 and 48.3M at h = 3e-8.
    # Both refused before any work.
    for prob in (schrodinger_corpus(8e-9)[0], model_corpus(3e-8)[0]):
        with pytest.raises(ValidationError, match="nodes"):
            prob.extract()


def test_plan_refuses_what_only_the_estimate_admits(monkeypatch):
    # the pieces' node count is a lower bound on the plan's (8.5k against
    # 19.3k here): with N_MAX between the two the estimate passes, and the
    # plan refuses the march before any work array is allocated
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
    # a chunk of length L at distance u from the start resolves the rates
    # on [u - L, u + 2L] with POINTS_PER_PERIOD nodes per period, within the
    # N_MIN cap, and the next wider piece dx would not; the chunks tile the
    # marched span
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
    # every entry of the plan is one Picard chunk, a run of cells of one dx,
    # within CHUNK_BYTES and, unless it has the fewest cells, within
    # int |M| <= PICARD_REACH; the chunks tile the marched span, and the
    # march solves each as planned
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
