"""Reduced-model checks: the march against the direct ODE oracle, transfer
extraction, the prediction, and the reference corpus.

Tolerances on oracle agreement and invariances were measured once with
margin and then frozen; loosening them should be treated as a regression.
"""

import dataclasses
import gc
import logging
import math
import re
import weakref

import numpy as np
import pytest

from crossing_kit import march, normalform
from crossing_kit.errors import StepFailure, ValidationError
from crossing_kit.normalform import (
    NormalFormProblem,
    _system,
    model_corpus,
    predict_transfer,
    transfer_numeric,
)
from crossing_kit.profiles import Bump, Poly1, ZERO_BUMP
from crossing_kit.schrodinger import schrodinger_corpus
from crossing_kit.symbolcalc import stationary_prefactor
from crossing_kit.transfer import Problem

import closed_form_oracle
from ode_oracles import ode_oracle

SQRT_2PI = 2.506628274631000502415765284811045253007


def marched(prob, alpha, x_to):
    """Frame coefficients (u1, e^{-iF/h} u2) at x_to, marched from
    a(x0) = alpha."""
    a = np.array([alpha], dtype=complex)
    return march.march(_system(prob), a, prob.x0, x_to)[0]


def probe_points(prob):
    """Five points spread across the coupling support, and x1."""
    lo, hi = prob.coupling_support()
    return [*np.linspace(lo, hi, 7)[1:-1], prob.x1]


def oracle_gap(prob, alpha):
    """Largest |march - ODE oracle| over the probe points."""
    xs = probe_points(prob)
    want = ode_oracle(prob, alpha, xs)
    return max(
        float(np.abs(marched(prob, alpha, x) - want[:, k]).max())
        for k, x in enumerate(xs)
    )


def ode_reference(prob):
    """T read off two direct ODE solves at x1."""
    cols = [ode_oracle(prob, a, [prob.x1])[:, -1] for a in ((1, 0), (0, 1))]
    return np.array(cols).T


def strong_coupling_problem():
    """A model problem whose coupling integrals over the whole interval are
    far from small: one Neumann series on the interval would not be
    contractive, so only the march's short chunks converge."""
    return NormalFormProblem(
        f=Poly1((0.0, 1.0)),
        r1=Bump(1.5, 3.0),
        r2=Bump(1.5, 3.0),
        x0=-2.0,
        x1=2.0,
        h=1e-1,
        m=1,
    )


# ---------------------------------------------------------------- validation


def test_problem_validation():
    f = Poly1((0.0, 1.0))
    r = Bump(width=0.5)
    with pytest.raises(ValidationError):
        NormalFormProblem(f=f, r1=r, r2=r, x0=0.1, x1=1.0, h=1e-2, m=1)
    with pytest.raises(ValidationError):
        NormalFormProblem(f=f, r1=r, r2=r, x0=-1.0, x1=1.0, h=-1e-2, m=1)
    # declared order must match the actual vanishing order of f
    with pytest.raises(ValidationError):
        NormalFormProblem(f=f, r1=r, r2=r, x0=-1.0, x1=1.0, h=1e-2, m=2)
    # coupling support must stay strictly inside the interval
    with pytest.raises(ValidationError):
        NormalFormProblem(
            f=f, r1=Bump(width=1.0), r2=r, x0=-1.0, x1=1.0, h=1e-2, m=1
        )
    # f must not vanish inside a coupling support except at 0
    with pytest.raises(ValidationError):
        NormalFormProblem(
            f=Poly1((0.0, -0.25, 1.0)),  # roots at 0 and 0.25
            r1=r,
            r2=r,
            x0=-1.0,
            x1=1.0,
            h=1e-2,
            m=1,
        )


def test_problem_accessors():
    prob = model_corpus(1e-2)[1]
    assert prob.interval == (-1.0, 1.0)
    assert prob.coupling_support() == (-0.8, 0.8)
    assert prob.f_order_coeff() == 2.0  # f = x^2, f''(0) = 2
    decoupled = NormalFormProblem(
        f=Poly1((0.0, 1.0)),
        r1=Bump(1.0, 0.0),
        r2=Bump(1.0, 0.0),
        x0=-1.0,
        x1=1.0,
        h=1e-2,
        m=1,
    )
    assert decoupled.coupling_support() is None
    assert isinstance(prob, Problem)
    assert prob.order == 2
    assert prob.with_h(1e-3) == dataclasses.replace(prob, h=1e-3)
    with pytest.raises(ValidationError):
        prob.predict(-1)  # the model has a single crossing


def test_corpus_shape():
    corpus = model_corpus(1e-2)
    assert [p.m for p in corpus] == [1, 2, 3, 1, 2, 1]
    assert all(p.r1(0.0) > 0 or p.r2(0.0) > 0 for p in corpus)


# ------------------------------------------------------------- the system


def test_antiderivative_exact_for_linear_rate():
    # f = x: the march carries F from F(x0) by cum_quad10 of the rate, which
    # is exact for a linear rate, so F = x^2/2 at every chunk end
    prob = dataclasses.replace(model_corpus(1e-2)[0], r1=ZERO_BUMP, r2=ZERO_BUMP)
    system = _system(prob)
    phi0 = prob.f.antideriv()(prob.x0)
    assert phi0 == 0.5
    for end in (-0.3, 0.0, 1.0):
        x = np.linspace(prob.x0, end, 101)
        a0 = np.eye(2, dtype=complex)
        work = march._work(system, len(x))
        _, phi, _ = march._picard(system, a0, phi0, x, x[1] - x[0], work)
        assert abs(phi - end**2 / 2.0) < 1e-13


def test_gamma_vanishes_before_the_coupling_switches_on():
    # M, and with it every coupling integral gamma_plus/gamma_minus, is
    # exactly zero left of the supports: the march returns the data as is,
    # also over an empty span and over a span shorter than one chunk
    prob = model_corpus(1e-3)[0]
    lo = prob.coupling_support()[0]
    for alpha in ((1.0, 0.0), (0.3 - 0.4j, 0.8 + 0.1j)):
        for x_to in (prob.x0, prob.x0 + 1e-4, lo):
            assert (marched(prob, alpha, x_to) == np.array(alpha)).all()


def test_skipping_where_m_vanishes_is_exact():
    # a is constant outside the coupling support and the phases at its edges
    # are exact: marching x0 -> x1 equals marching the support alone, bit
    # for bit, and a march that walks the whole interval agrees to the mesh
    # error
    prob = model_corpus(1e-3)[1]
    lo, hi = prob.coupling_support()
    system = _system(prob)
    whole = dataclasses.replace(system, support=prob.interval)
    a = np.eye(2, dtype=complex)
    skipped = march.march(system, a, prob.x0, prob.x1)
    assert (skipped == march.march(system, a, lo, hi)).all()
    walked = march.march(whole, a, prob.x0, prob.x1)
    assert np.abs(walked - skipped).max() <= 1e-9


def test_march_runs_left_to_right_only():
    # a leftward span is refused before any work, also where M vanishes on
    # it; an empty span returns the data as is
    prob = model_corpus(1e-3)[1]
    lo, _ = prob.coupling_support()
    system = _system(prob)
    a = np.eye(2, dtype=complex)
    for x_from, x_to in ((prob.x1, prob.x0), (lo, prob.x0), (0.0, -1e-12)):
        with pytest.raises(ValidationError, match="left to right"):
            march.march(system, a, x_from, x_to)
    assert march.march(system, a, 0.0, 0.0) is a


def test_graded_mesh_marches_a_third_of_the_uniform_grid(caplog):
    # model-corpus 1 (f = x^2) at h = 1e-5: the uniform grid at 24 points
    # per period of max |f| on [-1, 1] had 763945 nodes. Model-corpus 2
    # (f = x^3) there: a plan that refined each piece by the fastest rate
    # within one chunk's reach, before cutting chunks, marched 124486 nodes
    for index, most in ((1, 763945 // 3), (2, 112_000)):
        prob = model_corpus(1e-5)[index]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
            transfer_numeric(prob)
        msg = caplog.records[0].getMessage()
        nodes = int(re.search(r"marched (\d+) nodes", msg).group(1))
        assert nodes <= most, msg


def test_gamma_minus_fresnel_value():
    # with r1 switched off, a1 stays 1 and t21 = -i gamma_minus(1)(x1); for
    # f = x the full integral of the unit coupling is the stationary value
    # sqrt(2 pi h) e^{-i pi/4} up to O(h)
    prob = dataclasses.replace(model_corpus(1e-4)[0], r1=ZERO_BUMP)
    T = transfer_numeric(prob)
    got = 1j * T.t21
    want = math.sqrt(2.0 * math.pi * prob.h) * np.exp(-1j * math.pi / 4.0)
    assert T.t11 == 1.0
    assert abs(got - want) / abs(want) < 1e-3


# ----------------------------------------------------- solver cross-checking


def test_march_matches_ode_oracle():
    # independent routes: Picard iteration on the integral form, chunk by
    # chunk (the Neumann series of each chunk), vs direct adaptive
    # integration of the differential form, inside the supports and at x1
    for k in range(3):
        for h in (1e-1, 1e-2, 1e-3):
            prob = model_corpus(h)[k]
            for alpha in ((1.0, 0.0), (0.3 - 0.4j, 0.8 + 0.1j)):
                diff = oracle_gap(prob, alpha)
                assert diff < 1e-8, (prob.m, h, alpha, diff)


def test_march_matches_ode_oracle_small_h_spot():
    prob = model_corpus(1e-4)[0]
    assert oracle_gap(prob, (1.0, 0.0)) < 1e-7


def test_march_is_linear_in_the_data():
    prob = model_corpus(1e-2)[0]
    a = (0.5 - 0.2j, 0.1 + 0.9j)
    b = (-0.7 + 0.3j, 0.4 + 0.0j)
    sa = marched(prob, a, prob.x1)
    sb = marched(prob, b, prob.x1)
    sab = marched(prob, (a[0] + b[0], a[1] + b[1]), prob.x1)
    assert np.abs(sab - sa - sb).max() < 1e-12


def test_equal_couplings_conserve_the_two_component_norm():
    # with r1 = r2 real the system is self-adjoint up to the phase factor:
    # |u1|^2 + |u2|^2 is a constant of the motion, so T is unitary
    prob = model_corpus(1e-2)[0]
    xs = np.linspace(prob.x0, prob.x1, 2001)
    a = ode_oracle(prob, (0.6 + 0.2j, -0.3 + 0.7j), xs)
    norm = np.abs(a[0]) ** 2 + np.abs(a[1]) ** 2
    assert norm.max() - norm.min() < 1e-8
    T = transfer_numeric(prob).entries
    assert np.abs(T.conj().T @ T - np.eye(2)).max() < 1e-8


def test_decoupled_problem_is_exact():
    prob = NormalFormProblem(
        f=Poly1((0.0, 1.0)),
        r1=Bump(1.0, 0.0),
        r2=Bump(1.0, 0.0),
        x0=-1.0,
        x1=1.0,
        h=1e-2,
        m=1,
    )
    T = transfer_numeric(prob)
    assert (T.entries == np.eye(2)).all()


def test_picard_stop_bounds_the_truncation(monkeypatch):
    # a chunk's Picard iteration stops once no entry moves by more than
    # PICARD_TOL; it contracts far faster than by half per sweep, so what
    # the stop leaves out is below PICARD_TOL per chunk, and T stops
    # within chunks * PICARD_TOL of the converged value (1 Picard chunk
    # here; the bound allows 7)
    prob = model_corpus(1e-2)[1]
    converged = transfer_numeric(prob)
    monkeypatch.setattr(march, "PICARD_TOL", 1e-8)
    stopped = transfer_numeric(prob)
    observed = stopped.max_abs_diff(converged)
    assert 0.0 < observed <= 7 * 1e-8


def test_picard_stop_scales_with_the_data(monkeypatch):
    # the model's march sums its propagator's terms and stops on them times
    # the data's size, so data of modulus about 10 keeps the bounds of unit
    # data scaled by 10: T applied to the data within roundoff, the direct
    # integration within 1e-9 * 10, and the truncation at a looser
    # PICARD_TOL within the bound of the test above, in absolute terms
    prob = model_corpus(1e-2)[1]
    rng = np.random.default_rng(17)
    a0 = 10.0 * rng.uniform(0.8, 1.2, (2, 2)) * np.exp(2j * np.pi * rng.uniform(size=(2, 2)))
    T = transfer_numeric(prob).entries
    converged = march.march(_system(prob), a0, prob.x0, prob.x1)
    assert np.abs(converged - a0 @ T.T).max() <= 1e-13 * 10
    for got, alpha in zip(converged, a0):
        want = ode_oracle(prob, alpha, [prob.x1])[:, -1]
        assert np.abs(got - want).max() <= 1e-9 * 10
    monkeypatch.setattr(march, "PICARD_TOL", 1e-8)
    stopped = march.march(_system(prob), a0, prob.x0, prob.x1)
    observed = float(np.abs(stopped - converged).max())
    assert 0.0 < observed <= 7 * 1e-8


def test_a_zero_column_is_carried_without_sweeps(caplog):
    # nothing to sum: the model's march returns zero data at once, with no
    # sweep and no division by the data's size
    prob = model_corpus(1e-2)[0]
    with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
        a = march.march(_system(prob), np.zeros((1, 2), dtype=complex), prob.x0, prob.x1)
    assert (a == 0.0).all()
    assert "of 0 sweeps" in caplog.records[0].getMessage()


@pytest.mark.parametrize(
    "build, rows",
    [
        (lambda: model_corpus(1e-2)[0], 1),
        (strong_coupling_problem, 1),
        (lambda: model_corpus(1e-2)[3], 2),
        (lambda: schrodinger_corpus(1e-2)[0], 1),
    ],
    ids=["model", "strong-model", "model-corpus-3", "pair"],
)
def test_each_sweep_integrates_only_the_rows_it_needs(monkeypatch, caplog, build, rows):
    # M is off-diagonal, so its propagator's terms are two chains: each
    # sweep integrates 2 rows, whatever the data's columns, and 1 where M is
    # skew-Hermitian (one chain is the other's conjugate up to sign), as on
    # the model with r1 == r2 and on the pair's normal form. Phases are
    # real and integrated apart.
    samples = []
    integrate = march.cum_quad10

    def counting(values, dx, out=None, initial=0.0):
        if np.iscomplexobj(values):
            samples.append((values.size, values.shape[-1]))
        return integrate(values, dx, out=out, initial=initial)

    monkeypatch.setattr(march, "cum_quad10", counting)
    with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
        build().extract()
    assert samples and all(size == rows * nodes for size, nodes in samples), samples
    msg = caplog.records[-1].getMessage()
    assert len(samples) == int(re.search(r"of (\d+) sweeps", msg).group(1))
    assert f"{rows} Neumann rows per sweep" in msg, msg


def _sweeps_and_transfer(system, prob, caplog):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
        a = march.march(system, np.eye(2, dtype=complex), prob.x0, prob.x1)
    msg = caplog.records[-1].getMessage()
    return int(re.search(r"of (\d+) sweeps", msg).group(1)), a.T


@pytest.mark.parametrize(
    "build",
    [
        *(
            lambda h=h, k=k: model_corpus(h)[k]
            for h in (1e-2, 1e-4)
            for k in (0, 1, 2, 5)
        ),
        strong_coupling_problem,
    ],
    ids=[f"corpus-{k}-h{h:g}" for h in (1e-2, 1e-4) for k in (0, 1, 2, 5)]
    + ["strong-model"],
)
def test_one_chain_equals_two_chains(caplog, build):
    # r1 == r2: M is skew-Hermitian, and the march sweeps one chain of the
    # propagator's terms and takes the other as its conjugate up to sign.
    # Sweeping both chains gives the same T to rounding, in as many sweeps
    prob = build()
    system = _system(prob)
    assert system.skew_hermitian
    one = _sweeps_and_transfer(system, prob, caplog)
    two = _sweeps_and_transfer(
        dataclasses.replace(system, skew_hermitian=False), prob, caplog
    )
    assert one[0] == two[0]
    assert np.abs(one[1] - two[1]).max() <= 1e-15


# T at h = 1e-3 of the march that swept the one column v_0 = (1, 1),
# v_{k+1} = int M v_k, before the chains, run with the tenth-order rule at
# POINTS_PER_PERIOD = 14 on the plan of Picard chunks: the two chains hold
# the same numbers in swapped rows, so r1 != r2 keeps every bit
_COLUMN_SWEEP_T = {
    3: [
        [(0.9978031247275067+1.0280174314837534e-05j), (-0.055730040706441615-0.056248503761520435j)],
        [(0.0388279757019009-0.039557313963581885j), (0.9978031247275205+1.0280174313978794e-05j)],
    ],
    4: [
        [(0.9759290515502345+0.02766518455758154j), (-3.988783003807481e-15-0.17711882183302546j)],
        [(5.919251249862073e-15-0.26421316164677144j), (0.9759290515502343-0.027665184557581563j)],
    ],
}


@pytest.mark.parametrize("index", sorted(_COLUMN_SWEEP_T))
def test_two_chains_keep_the_column_sweep_bits(index):
    prob = model_corpus(1e-3)[index]
    assert prob.r1 != prob.r2 and not _system(prob).skew_hermitian
    assert (transfer_numeric(prob).entries == np.array(_COLUMN_SWEEP_T[index])).all()


def test_overflow_stops_picard_at_once():
    # a coupling near the float limit overflows the second sweep's product:
    # the march raises StepFailure on that sweep's non-finite change, with
    # no numpy RuntimeWarning (an error under this suite's filter)
    prob = dataclasses.replace(
        model_corpus(1e-2)[0], r1=Bump(0.5, 1e300), r2=Bump(0.5, 1e300)
    )
    with pytest.raises(StepFailure, match=r"overflowed: sweep 2 moved by nan"):
        prob.extract()


def test_strong_coupling_needs_no_fallback(caplog):
    # chunks short enough for Picard at any coupling strength: the march
    # matches the direct integration, in its one DEBUG line and no other;
    # it marches the couplings' support [-1.5, 1.5], not [-2, 2], in 6
    # Picard chunks of one dx, each within PICARD_REACH
    prob = strong_coupling_problem()
    with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
        T = prob.extract()
    assert np.abs(T.entries - ode_reference(prob)).max() <= 1e-9
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    msg = caplog.records[0].getMessage()
    assert "6 Picard chunks" in msg, msg


def test_picard_fails_loudly_on_an_uncut_strong_coupling(monkeypatch):
    # at four times the strong coupling, Picard on one chunk spanning the
    # couplings' support does not contract within PICARD_MAX_ITER sweeps:
    # the march raises instead of returning a T. Chunks cut by the coupling
    # rule converge and match the direct integration. Without the
    # PICARD_REACH cut one chunk, within CHUNK_BYTES, spans the support.
    strong = strong_coupling_problem()
    prob = dataclasses.replace(strong, r1=Bump(1.5, 12.0), r2=Bump(1.5, 12.0))
    T = prob.extract()
    assert np.abs(T.entries - ode_reference(prob)).max() <= 1e-9
    monkeypatch.setattr(march, "PICARD_REACH", 1e9)  # one chunk
    with pytest.raises(StepFailure, match=r"Picard iteration on \[-1.5, 1.5\]"):
        prob.extract()


def test_march_system_does_not_outlive_its_extraction(monkeypatch):
    # the march's workspace is its System and the arrays of one chunk: one
    # extraction builds one System for both basis inputs, also at strong
    # coupling, and nothing holds it after
    built = []
    construct = normalform._system

    def recording(prob):
        system = construct(prob)
        built.append(weakref.ref(system))
        return system

    monkeypatch.setattr(normalform, "_system", recording)
    for prob in (model_corpus(1e-2)[0], strong_coupling_problem()):
        built.clear()
        T = prob.extract()
        gc.collect()
        assert np.isfinite(T.entries).all()
        assert len(built) == 1, (prob, len(built))
        assert built[0]() is None


def test_one_debug_line_per_march(caplog):
    # at h = 1e-2 the N_MIN cap (2 / 2000) sets dx on the whole support,
    # which is one Picard chunk
    prob = model_corpus(1e-2)[0]
    with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
        transfer_numeric(prob)
    assert len(caplog.records) == 1
    record = caplog.records[0]
    assert record.name == "crossing_kit" and record.levelno == logging.DEBUG
    msg = record.getMessage()
    for word in (
        "h=1.000000e-02",
        "1601 nodes on [-0.8, 0.8] (from x=-1 to 1)",
        "dx 0.001 to 0.001",
        "1 Picard chunks of 14 sweeps, at most 14 in a chunk",
    ):
        assert word in msg, msg


# ----------------------------------------------------------------- extraction


def test_extraction_invariant_under_read_point():
    # a is constant right of the supports, so T read at x1 equals a read
    # anywhere there: no read-off window is needed. Each read point sets
    # its own mesh, so this runs where the mesh error is below the bound
    # (at h = 1e-3 the reads differ by the mesh error, about 2e-11)
    prob = model_corpus(1e-2)[0]  # support ends at 0.8, x1 = 1
    T = transfer_numeric(prob).entries
    for x in (0.81, 0.9, 0.95):
        cols = [marched(prob, a, x) for a in ((1, 0), (0, 1))]
        assert np.abs(np.array(cols).T - T).max() < 1e-12


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_landau_zener_transition_probability(R):
    # f = x with r1 = r2 = Bump(0.8, R / sqrt(h)): in the variable
    # x / sqrt(h) the coupling at the crossing is R for every h, and
    # |t21|^2 -> 1 - e^{-2 pi R^2} as h -> 0 (Zener, Proc. R. Soc. A 137
    # (1932) 696), the non-perturbative regime; the bump's curvature leaves
    # an O(h) gap, 0.514 h at most (R = 0.5, h = 1e-3)
    for h in (1e-3, 1e-4, 1e-5):
        coupling = Bump(0.8, R / math.sqrt(h))
        prob = NormalFormProblem(
            f=Poly1((0.0, 1.0)), r1=coupling, r2=coupling, x0=-1.0, x1=1.0, h=h, m=1
        )
        p_lz = 1.0 - math.exp(-2.0 * math.pi * R**2)
        gap = abs(transfer_numeric(prob).t21) ** 2 - p_lz
        assert abs(gap) <= 0.6 * h, (h, gap)


def test_predicted_entries_m1():
    prob = model_corpus(1e-3)[0]  # f = x, r1(0) = r2(0) = 1
    T = predict_transfer(prob)
    lam = math.sqrt(prob.h)
    want12 = -1j * lam * SQRT_2PI * np.exp(1j * math.pi / 4.0)
    want21 = -1j * lam * SQRT_2PI * np.exp(-1j * math.pi / 4.0)
    assert abs(T.t12 - want12) < 1e-12
    assert abs(T.t21 - want21) < 1e-12
    assert T.t11 == 1.0 and T.t22 == 1.0
    # the stationary coefficient of the plus-phase coupling integral
    omega = stationary_prefactor(prob.m, prob.f_order_coeff())
    assert abs(omega - SQRT_2PI * np.exp(1j * math.pi / 4.0)) < 1e-12


def test_prediction_matches_closed_form_oracle():
    # the invariant route with flux-normalised couplings against the
    # closed form, on the corpus and on random draws of order 1..3
    rng = np.random.default_rng(11)
    probs = [p for h in (1e-1, 1e-3, 1e-5) for p in model_corpus(h)]
    for _ in range(30):
        m = int(rng.integers(1, 4))
        lead = float(rng.uniform(-2.0, 2.0))
        f = Poly1((0.0,) * m + (lead, 0.2 * lead * float(rng.uniform(-1.0, 1.0))))
        probs.append(
            NormalFormProblem(
                f=f,
                r1=Bump(width=0.8, amplitude=float(rng.uniform(0.3, 1.2))),
                r2=Bump(width=0.8, amplitude=float(rng.uniform(0.3, 1.2))),
                x0=-1.0,
                x1=1.0,
                h=float(10.0 ** rng.uniform(-5.0, -1.0)),
                m=m,
            )
        )
    for prob in probs:
        closed = closed_form_oracle.predict_transfer(prob)
        general = predict_transfer(prob)
        assert general.max_abs_diff(closed) <= 1e-14


def test_transfer_numeric_matches_ode_reference():
    prob = model_corpus(1e-2)[4]
    a = transfer_numeric(prob)
    assert np.abs(a.entries - ode_reference(prob)).max() < 1e-8
