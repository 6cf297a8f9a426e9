"""Reduced-model checks: the march against the direct ODE oracle, transfer
extraction, the prediction, and the reference corpus.

Tolerances on oracle agreement and invariances were measured once with
margin and then frozen; loosening them should be treated as a regression.
"""

import dataclasses
import gc
import logging
import math
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
from crossing_kit.symbolcalc import stationary_prefactor
from crossing_kit.transfer import Problem

import closed_form_oracle
from ode_oracles import ode_oracle

SQRT_2PI = 2.506628274631000502415765284811045253007


def marched(prob, h, alpha, x_to):
    """Frame coefficients (u1, e^{-iF/h} u2) at x_to and h, marched from
    a(x0) = alpha."""
    a = np.array([alpha], dtype=complex)
    return march.march(_system(prob, h), a, prob.x0, x_to)[0]


def probe_points(prob):
    """Five points spread across the coupling support, and x1."""
    lo, hi = prob.coupling_support()
    return [*np.linspace(lo, hi, 7)[1:-1], prob.x1]


def oracle_gap(prob, h, alpha):
    """Largest |march - ODE oracle| at h over the probe points."""
    xs = probe_points(prob)
    want = ode_oracle(prob, h, alpha, xs)
    return max(
        float(np.abs(marched(prob, h, alpha, x) - want[:, k]).max())
        for k, x in enumerate(xs)
    )


def ode_reference(prob, h):
    """T at h read off two direct ODE solves at x1."""
    cols = [ode_oracle(prob, h, a, [prob.x1])[:, -1] for a in ((1, 0), (0, 1))]
    return np.array(cols).T


def strong_coupling_problem():
    """A model problem whose coupling integrals over the whole interval are
    far from small: one Neumann series on the interval would not be
    contractive, so only the march's short chunks converge. The tests run
    it at STRONG_H."""
    return NormalFormProblem(
        f=Poly1((0.0, 1.0)),
        r1=Bump(1.5, 3.0),
        r2=Bump(1.5, 3.0),
        x0=-2.0,
        x1=2.0,
        m=1,
    )


STRONG_H = 1e-1


# ---------------------------------------------------------------- validation


def test_problem_validation():
    f = Poly1((0.0, 1.0))
    r = Bump(width=0.5)
    with pytest.raises(ValidationError):
        NormalFormProblem(f=f, r1=r, r2=r, x0=0.1, x1=1.0, m=1)
    # declared order must match the actual vanishing order of f
    with pytest.raises(ValidationError):
        NormalFormProblem(f=f, r1=r, r2=r, x0=-1.0, x1=1.0, m=2)
    # coupling support must stay strictly inside the interval
    with pytest.raises(ValidationError):
        NormalFormProblem(
            f=f, r1=Bump(width=1.0), r2=r, x0=-1.0, x1=1.0, m=1
        )
    # f must not vanish inside a coupling support except at 0
    with pytest.raises(ValidationError):
        NormalFormProblem(
            f=Poly1((0.0, -0.25, 1.0)),  # roots at 0 and 0.25
            r1=r,
            r2=r,
            x0=-1.0,
            x1=1.0,
            m=1,
        )


def test_a_double_zero_under_the_coupling_is_refused():
    # f = x (x - 0.45)^2: the double zero at 0.45 is a second crossing
    # (there |t12| extracts as 0.091 against a predicted 0.056 at h =
    # 1e-4), though polyroots puts it off the axis, at 0.45 +- 5.0e-9 i
    f = Poly1(tuple(np.polynomial.polynomial.polyfromroots([0.0, 0.45, 0.45])))
    with pytest.raises(ValidationError, match="vanishes away from 0"):
        NormalFormProblem(
            f=f, r1=Bump(0.8), r2=Bump(0.8), x0=-1.0, x1=1.0, m=1
        )
    # outside the supports the second zero is harmless
    NormalFormProblem(f=f, r1=Bump(0.4), r2=Bump(0.4), x0=-1.0, x1=1.0, m=1)


def test_problem_accessors():
    prob = model_corpus()[1]
    assert prob.interval == (-1.0, 1.0)
    assert prob.coupling_support() == (-0.8, 0.8)
    assert prob.f_order_coeff() == 2.0  # f = x^2, f''(0) = 2
    decoupled = NormalFormProblem(
        f=Poly1((0.0, 1.0)),
        r1=Bump(1.0, 0.0),
        r2=Bump(1.0, 0.0),
        x0=-1.0,
        x1=1.0,
        m=1,
    )
    assert decoupled.coupling_support() is None
    assert isinstance(prob, Problem)
    assert prob.order == 2
    with pytest.raises(ValidationError):
        prob.predict(1e-3, -1)  # the model has a single crossing


def test_a_problem_that_ran_other_h_reproduces_a_fresh_problem():
    # a problem keeps its h-free setup, the crossing data, once built; each
    # h still reads as on a problem built afresh, bit for bit, so a setup
    # that kept the h of the first call it served would show here. A copy
    # by dataclasses.replace is an equal problem that sets itself up anew
    for i, prob in enumerate(model_corpus()):
        prob.predict(1e-1)
        data = prob._data
        for h in (1e-2, 2.5e-3, 1e-4):
            fresh = model_corpus()[i]
            assert np.array_equal(prob.extract(h).entries, fresh.extract(h).entries)
            assert np.array_equal(prob.predict(h).entries, fresh.predict(h).entries)
        assert prob._data is data
        copy = dataclasses.replace(prob, m=prob.m)
        assert copy == prob
        assert vars(copy).keys() == {f.name for f in dataclasses.fields(copy)}


def test_corpus_shape():
    corpus = model_corpus()
    assert [p.m for p in corpus] == [1, 2, 3, 1, 2, 1]
    assert all(p.r1(0.0) > 0 or p.r2(0.0) > 0 for p in corpus)


# ------------------------------------------------------------- the system


def test_gamma_vanishes_before_the_coupling_switches_on():
    # M, and with it every coupling integral gamma_plus/gamma_minus, is
    # exactly zero left of the supports: the march returns the data as is,
    # also over an empty span and over a span shorter than one chunk
    prob = model_corpus()[0]
    lo = prob.coupling_support()[0]
    for alpha in ((1.0, 0.0), (0.3 - 0.4j, 0.8 + 0.1j)):
        for x_to in (prob.x0, prob.x0 + 1e-4, lo):
            assert (marched(prob, 1e-3, alpha, x_to) == np.array(alpha)).all()


def test_skipping_where_m_vanishes_is_exact():
    # a is constant outside the coupling support and the phases at its edges
    # are exact: marching x0 -> x1 equals marching the support alone, bit
    # for bit, and a march that walks the whole interval agrees to the mesh
    # error
    prob = model_corpus()[1]
    lo, hi = prob.coupling_support()
    system = _system(prob, 1e-3)
    whole = dataclasses.replace(system, support=prob.interval)
    a = np.eye(2, dtype=complex)
    skipped = march.march(system, a, prob.x0, prob.x1)
    assert (skipped == march.march(system, a, lo, hi)).all()
    walked = march.march(whole, a, prob.x0, prob.x1)
    assert np.abs(walked - skipped).max() <= 1e-9


def test_march_runs_left_to_right_only():
    # a leftward span is refused before any work, also where M vanishes on
    # it; an empty span returns the data as is
    prob = model_corpus()[1]
    lo, _ = prob.coupling_support()
    system = _system(prob, 1e-3)
    a = np.eye(2, dtype=complex)
    for x_from, x_to in ((prob.x1, prob.x0), (lo, prob.x0), (0.0, -1e-12)):
        with pytest.raises(ValidationError, match="left to right"):
            march.march(system, a, x_from, x_to)
    assert march.march(system, a, 0.0, 0.0) is a


def test_gamma_minus_fresnel_value():
    # with r1 switched off, a1 stays 1 and t21 = -i gamma_minus(1)(x1); for
    # f = x the full integral of the unit coupling is the stationary value
    # sqrt(2 pi h) e^{-i pi/4} up to O(h)
    h = 1e-4
    prob = dataclasses.replace(model_corpus()[0], r1=ZERO_BUMP)
    T = transfer_numeric(prob, h)
    got = 1j * T.t21
    want = math.sqrt(2.0 * math.pi * h) * np.exp(-1j * math.pi / 4.0)
    assert T.t11 == 1.0
    assert abs(got - want) / abs(want) < 1e-3


# ----------------------------------------------------- solver cross-checking


def test_march_matches_ode_oracle():
    # independent routes: Picard iteration on the integral form, chunk by
    # chunk (the Neumann series of each chunk), vs direct adaptive
    # integration of the differential form, inside the supports and at x1
    for k in range(3):
        for h in (1e-1, 1e-2, 1e-3):
            prob = model_corpus()[k]
            for alpha in ((1.0, 0.0), (0.3 - 0.4j, 0.8 + 0.1j)):
                diff = oracle_gap(prob, h, alpha)
                assert diff < 1e-8, (prob.m, h, alpha, diff)


def test_march_matches_ode_oracle_small_h_spot():
    prob = model_corpus()[0]
    assert oracle_gap(prob, 1e-4, (1.0, 0.0)) < 1e-7


def test_march_is_linear_in_the_data():
    prob = model_corpus()[0]
    a = (0.5 - 0.2j, 0.1 + 0.9j)
    b = (-0.7 + 0.3j, 0.4 + 0.0j)
    sa = marched(prob, 1e-2, a, prob.x1)
    sb = marched(prob, 1e-2, b, prob.x1)
    sab = marched(prob, 1e-2, (a[0] + b[0], a[1] + b[1]), prob.x1)
    assert np.abs(sab - sa - sb).max() < 1e-12


def test_equal_couplings_conserve_the_two_component_norm():
    # with r1 = r2 real the system is self-adjoint up to the phase factor:
    # |u1|^2 + |u2|^2 is a constant of the motion, so T is unitary
    prob = model_corpus()[0]
    xs = np.linspace(prob.x0, prob.x1, 2001)
    a = ode_oracle(prob, 1e-2, (0.6 + 0.2j, -0.3 + 0.7j), xs)
    norm = np.abs(a[0]) ** 2 + np.abs(a[1]) ** 2
    assert norm.max() - norm.min() < 1e-8
    T = transfer_numeric(prob, 1e-2).entries
    assert np.abs(T.conj().T @ T - np.eye(2)).max() < 1e-8


def test_decoupled_problem_is_exact():
    prob = NormalFormProblem(
        f=Poly1((0.0, 1.0)),
        r1=Bump(1.0, 0.0),
        r2=Bump(1.0, 0.0),
        x0=-1.0,
        x1=1.0,
        m=1,
    )
    T = transfer_numeric(prob, 1e-2)
    assert (T.entries == np.eye(2)).all()


def test_picard_stop_bounds_the_truncation(monkeypatch):
    # a chunk's Picard iteration stops once no entry moves by more than
    # PICARD_TOL; it contracts far faster than by half per sweep, so what
    # the stop leaves out is below PICARD_TOL per chunk, and T stops
    # within chunks * PICARD_TOL of the converged value (1 Picard chunk
    # here; the bound allows 7)
    prob = model_corpus()[1]
    converged = transfer_numeric(prob, 1e-2)
    monkeypatch.setattr(march, "PICARD_TOL", 1e-8)
    stopped = transfer_numeric(prob, 1e-2)
    observed = stopped.max_abs_diff(converged)
    assert 0.0 < observed <= 7 * 1e-8


def test_picard_stop_scales_with_the_data(monkeypatch):
    # the model's march sums its propagator's terms and stops on them times
    # the data's size, so data of modulus about 10 keeps the bounds of unit
    # data scaled by 10: T applied to the data within roundoff, the direct
    # integration within 1e-9 * 10, and the truncation at a looser
    # PICARD_TOL within the bound of the test above, in absolute terms
    prob, h = model_corpus()[1], 1e-2
    rng = np.random.default_rng(17)
    a0 = 10.0 * rng.uniform(0.8, 1.2, (2, 2)) * np.exp(2j * np.pi * rng.uniform(size=(2, 2)))
    T = transfer_numeric(prob, h).entries
    converged = march.march(_system(prob, h), a0, prob.x0, prob.x1)
    assert np.abs(converged - a0 @ T.T).max() <= 1e-13 * 10
    for got, alpha in zip(converged, a0):
        want = ode_oracle(prob, h, alpha, [prob.x1])[:, -1]
        assert np.abs(got - want).max() <= 1e-9 * 10
    monkeypatch.setattr(march, "PICARD_TOL", 1e-8)
    stopped = march.march(_system(prob, h), a0, prob.x0, prob.x1)
    observed = float(np.abs(stopped - converged).max())
    assert 0.0 < observed <= 7 * 1e-8


def test_a_zero_column_is_carried_without_sweeps():
    # nothing to sum: the panels carry zero data as U 0 = 0, exactly
    prob = model_corpus()[0]
    zero = np.zeros((1, 2), dtype=complex)
    assert (march.march(_system(prob, 1e-2), zero, prob.x0, prob.x1) == 0.0).all()


def _stats_and_transfer(system, prob, caplog):
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
        a = march.march(system, np.eye(2, dtype=complex), prob.x0, prob.x1)
    return caplog.records[-1].stats, a.T


@pytest.mark.parametrize(
    "build, h",
    [
        *(
            (lambda k=k: model_corpus()[k], h)
            for h in (1e-2, 1e-4)
            for k in (0, 1, 2, 5)
        ),
        (strong_coupling_problem, STRONG_H),
    ],
    ids=[f"corpus-{k}-h{h:g}" for h in (1e-2, 1e-4) for k in (0, 1, 2, 5)]
    + ["strong-model"],
)
def test_one_chain_equals_two_chains(monkeypatch, caplog, build, h):
    # r1 == r2: M is skew-Hermitian, and the march sweeps one chain of the
    # propagator's terms and takes the other as its conjugate up to sign.
    # Sweeping both chains, forced by the chain check, gives the same T to
    # rounding, in as many sweeps
    prob = build()
    system = _system(prob, h)
    one = _stats_and_transfer(system, prob, caplog)
    monkeypatch.setattr(march, "_one_chain", lambda values: False)
    two = _stats_and_transfer(system, prob, caplog)
    assert (one[0].rows_per_sweep, two[0].rows_per_sweep) == (1, 2)
    sweeps = [(s.levin_sweeps, s.direct_sweeps) for s, _ in (one, two)]
    assert sweeps[0] == sweeps[1], sweeps
    assert np.abs(one[1] - two[1]).max() <= 1e-15


def test_overflow_stops_picard_at_once(monkeypatch):
    # a coupling near the float limit: the panel march refuses it by its
    # panel budget before judging a panel
    prob = dataclasses.replace(
        model_corpus()[0], r1=Bump(0.5, 1e300), r2=Bump(0.5, 1e300)
    )
    monkeypatch.setattr(march, "_judge", None)
    with pytest.raises(ValidationError, match="max_panels"):
        prob.extract(1e-2)


def test_picard_stop_raises_on_an_overflow_and_at_the_sweep_cap():
    # _stops ends a panel batch's Picard sweeps: within PICARD_TOL /
    # sqrt(2) of the data's scale it stops; a change that is not finite
    # (an overflow) raises at once, and so does the sweep cap reached
    # without the stop, with no numpy RuntimeWarning (an error under this
    # suite's filter). The panel march cannot reach the overflow: a
    # coupling that large is refused by the panel budget (the test above)
    stops = march._stops
    assert stops(1e-15, 1.0, 1, -1.0, 1.0) is True
    assert stops(1e-15, 10.0, 1, -1.0, 1.0) is False
    for moved, scale in ((math.nan, 1.0), (math.inf, 1.0), (1e300, 1e300)):
        with pytest.raises(StepFailure, match=r"\[-1, 1\] overflowed: sweep 2"):
            stops(moved, scale, 2, -1.0, 1.0)
    cap = march.PICARD_MAX_ITER
    assert stops(1.0, 1.0, cap - 1, -1.0, 1.0) is False
    with pytest.raises(StepFailure, match=f"after {cap} iterations"):
        stops(1.0, 1.0, cap, -1.0, 1.0)


def test_strong_coupling_needs_no_fallback(caplog):
    # panels short enough for Picard at any coupling strength: the march
    # matches the direct integration, in its one DEBUG line and no other;
    # it marches the couplings' support [-1.5, 1.5], not [-2, 2], on 12
    # direct panels, each within PICARD_REACH and solved from its own left
    # edge, in one panel batch of 18 sweeps
    prob = strong_coupling_problem()
    with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
        T = prob.extract(STRONG_H)
    assert np.abs(T.entries - ode_reference(prob, STRONG_H)).max() <= 1e-9
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    stats = caplog.records[0].stats
    assert (stats.lo, stats.hi) == (-1.5, 1.5), stats
    direct = (stats.direct_panels, stats.direct_batches, stats.direct_sweeps)
    assert direct == (12, 1, 18), stats


def test_panels_resolve_a_strong_coupling_at_a_large_h():
    # amplitude 380 on the model of model-corpus 0 at h = 1e-1: the direct
    # panels, each within PICARD_REACH and solved from its own left edge,
    # converge and match the direct integration (measured 4.3e-10)
    coupling = Bump(0.8, 380.0)
    prob = dataclasses.replace(model_corpus()[0], r1=coupling, r2=coupling)
    T = prob.extract(1e-1)
    assert np.abs(T.entries - ode_reference(prob, 1e-1)).max() <= 1e-9


def test_picard_fails_loudly_on_an_uncut_strong_coupling(monkeypatch):
    # at four times the strong coupling, the panels cut by the coupling
    # rule converge in 18 sweeps and match the direct integration. Where
    # Picard does not reach its stop within PICARD_MAX_ITER sweeps, here a
    # cap of 10, the march raises instead of returning a T.
    strong = strong_coupling_problem()
    prob = dataclasses.replace(strong, r1=Bump(1.5, 12.0), r2=Bump(1.5, 12.0))
    T = prob.extract(STRONG_H)
    assert np.abs(T.entries - ode_reference(prob, STRONG_H)).max() <= 1e-9
    monkeypatch.setattr(march, "PICARD_MAX_ITER", 10)
    with pytest.raises(StepFailure, match=r"Picard iteration on \[-1.5, 1.5\]"):
        prob.extract(STRONG_H)


def test_march_system_does_not_outlive_its_extraction(monkeypatch):
    # the march's workspace is its System and the arrays of one chunk: one
    # extraction builds one System for both basis inputs, also at strong
    # coupling, and nothing holds it after
    built = []
    construct = normalform._system

    def recording(prob, h):
        system = construct(prob, h)
        built.append(weakref.ref(system))
        return system

    monkeypatch.setattr(normalform, "_system", recording)
    for prob, h in ((model_corpus()[0], 1e-2), (strong_coupling_problem(), STRONG_H)):
        built.clear()
        T = prob.extract(h)
        gc.collect()
        assert np.isfinite(T.entries).all()
        assert len(built) == 1, (prob, len(built))
        assert built[0]() is None


def test_one_debug_line_per_march(caplog):
    # at h = 1e-2 the phase turns slowly on the whole support: 12 direct
    # panels two levels below the first pieces, in one panel batch
    prob = model_corpus()[0]
    with caplog.at_level(logging.DEBUG, logger="crossing_kit"):
        transfer_numeric(prob, 1e-2)
    assert len(caplog.records) == 1
    record = caplog.records[0]
    assert record.name == "crossing_kit" and record.levelno == logging.DEBUG
    assert record.getMessage() == str(record.stats) == (
        "h=1.000000e-02: marched [-0.8, 0.8] (from x=-1 to 1) on panels down to "
        "level 2 of 10, 1 Neumann rows per sweep; 0 Levin panels of 0 nodes as 0 "
        "panel batches of 0 sweeps, 12 direct panels of 384 nodes as 1 panel "
        "batches of 11 sweeps, 0 panels split by the Levin check"
    )


# ----------------------------------------------------------------- extraction


def test_extraction_invariant_under_read_point():
    # a is constant right of the supports, so T read at x1 equals a read
    # anywhere there: no read-off window is needed. Each read point sets
    # its own mesh, so this runs where the mesh error is below the bound
    # (at h = 1e-3 the reads differ by the mesh error, about 2e-11)
    prob = model_corpus()[0]  # support ends at 0.8, x1 = 1
    T = transfer_numeric(prob, 1e-2).entries
    for x in (0.81, 0.9, 0.95):
        cols = [marched(prob, 1e-2, a, x) for a in ((1, 0), (0, 1))]
        assert np.abs(np.array(cols).T - T).max() < 1e-12


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0, 3.0])
def test_landau_zener_transition_probability(R):
    # f = x with r1 = r2 = Bump(0.8, R / sqrt(h)): in the variable
    # x / sqrt(h) the coupling at the crossing is R for every h, and
    # |t21|^2 -> 1 - e^{-2 pi R^2} as h -> 0 (Zener, Proc. R. Soc. A 137
    # (1932) 696), the non-perturbative regime; the bump's curvature leaves
    # an O(h) gap, 0.514 h at most (R = 0.5, h = 1e-3). M is skew-Hermitian,
    # so the march sweeps one chain, at amplitudes up to 949 (R = 3, h =
    # 1e-5), and T stays unitary to 1e-12 (measured at most 3.2e-14 there)
    for h in (1e-3, 1e-4, 1e-5):
        coupling = Bump(0.8, R / math.sqrt(h))
        prob = NormalFormProblem(
            f=Poly1((0.0, 1.0)), r1=coupling, r2=coupling, x0=-1.0, x1=1.0, m=1
        )
        p_lz = 1.0 - math.exp(-2.0 * math.pi * R**2)
        T = transfer_numeric(prob, h).entries
        gap = abs(T[1, 0]) ** 2 - p_lz
        assert abs(gap) <= 0.6 * h, (h, gap)
        assert np.abs(T.conj().T @ T - np.eye(2)).max() <= 1e-12, h


def test_predicted_entries_m1():
    prob = model_corpus()[0]  # f = x, r1(0) = r2(0) = 1
    T = predict_transfer(prob, 1e-3)
    lam = math.sqrt(1e-3)
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
    probs = [(p, h) for h in (1e-1, 1e-3, 1e-5) for p in model_corpus()]
    for _ in range(30):
        m = int(rng.integers(1, 4))
        lead = float(rng.uniform(-2.0, 2.0))
        f = Poly1((0.0,) * m + (lead, 0.2 * lead * float(rng.uniform(-1.0, 1.0))))
        prob = NormalFormProblem(
            f=f,
            r1=Bump(width=0.8, amplitude=float(rng.uniform(0.3, 1.2))),
            r2=Bump(width=0.8, amplitude=float(rng.uniform(0.3, 1.2))),
            x0=-1.0,
            x1=1.0,
            m=m,
        )
        probs.append((prob, float(10.0 ** rng.uniform(-5.0, -1.0))))
    for prob, h in probs:
        closed = closed_form_oracle.predict_transfer(prob, h)
        general = predict_transfer(prob, h)
        assert general.max_abs_diff(closed) <= 1e-14


def test_transfer_numeric_matches_ode_reference():
    prob = model_corpus()[4]
    a = transfer_numeric(prob, 1e-2)
    assert np.abs(a.entries - ode_reference(prob, 1e-2)).max() < 1e-8
