"""Reduced-model solver checks: Volterra operators, Neumann series vs the
direct ODE oracle, transfer extraction, and the reference corpus.

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

from crossing_kit import normalform
from crossing_kit.errors import (
    NotContractive,
    ValidationError,
    WindowInsideSupport,
)
from crossing_kit.grids import GridFunction
from crossing_kit.normalform import (
    NormalFormProblem,
    build_workspace,
    extract_transfer,
    model_corpus,
    model_omega,
    neumann_solve,
    ode_oracle,
    predict_transfer,
    transfer_numeric,
)
from crossing_kit.profiles import Bump, Poly1
from crossing_kit.transfer import Problem

import closed_form_oracle

SQRT_2PI = 2.506628274631000502415765284811045253007


def ones_on_grid(ws) -> GridFunction:
    return ws.grid_fn(np.ones(ws.n, dtype=complex))


def basis_pairs(ws):
    """(u1, u2) of the Neumann solves for the two basis inputs."""
    sols = [neumann_solve(ws, a) for a in ((1.0, 0.0), (0.0, 1.0))]
    return [(sol.u1, sol.u2) for sol in sols]


def ode_reference(prob):
    """T read off two direct ODE solves on one workspace."""
    ws = build_workspace(prob)
    return extract_transfer(ws, ode_oracle(ws, (1, 0)), ode_oracle(ws, (0, 1)))


def strong_coupling_problem():
    """A model problem whose Neumann series is not contractive."""
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


# ------------------------------------------------------------- the operators


def test_antiderivative_exact_for_linear_rate():
    ws = build_workspace(model_corpus(1e-2)[0])  # f = x, F = x^2/2
    assert np.abs(ws.F - ws.x**2 / 2.0).max() < 1e-13


def test_gamma_vanishes_before_the_coupling_switches_on():
    prob = model_corpus(1e-3)[0]
    ws = build_workspace(prob)
    v = ones_on_grid(ws)
    lo = prob.coupling_support()[0]
    idx = np.searchsorted(ws.x, lo) - 2
    assert idx > 100
    for g in (ws.gamma_plus(v), ws.gamma_minus(v)):
        assert np.abs(g.values[:idx]).max() == 0.0


def test_gamma_minus_fresnel_value():
    # f = x gives the pure quadratic phase; the full integral of the unit
    # coupling is the stationary value sqrt(2 pi h) e^{-i pi/4} up to O(h)
    prob = model_corpus(1e-4)[0]
    ws = build_workspace(prob)
    got = ws.gamma_minus(ones_on_grid(ws)).values[-1]
    want = math.sqrt(2.0 * math.pi * prob.h) * np.exp(-1j * math.pi / 4.0)
    assert abs(got - want) / abs(want) < 1e-3


def test_k_operators_zero_input_and_composition():
    # one series term on top of the data applies K1 = -gamma_plus o
    # gamma_minus to u1 and K2 = -gamma_minus o gamma_plus to e^{-iF/h} u2
    ws = build_workspace(model_corpus(1e-2)[0])
    zero = neumann_solve(ws, (0.0, 0.0), terms=1)
    assert np.abs(zero.u1.values).max() == 0.0
    assert np.abs(zero.u2.values).max() == 0.0
    ones = ones_on_grid(ws)
    sol = neumann_solve(ws, (1.0, 0.0), terms=1)
    want1 = ones.values - ws.gamma_plus(ws.gamma_minus(ones)).values
    d2 = ws.grid_fn(-1j * ws.gamma_minus(ones).values)
    want2 = ws.osc_plus * (d2.values - ws.gamma_minus(ws.gamma_plus(d2)).values)
    assert np.abs(sol.u1.values - want1).max() < 1e-15
    assert np.abs(sol.u2.values - want2).max() < 1e-15


def test_k_norm_envelope_follows_the_squared_coupling_scale():
    # the composed operator inherits h^{1/(m+1)} from each factor; the
    # bracketing constants were measured once on the corpus and frozen
    for k in range(3):
        for h in (1e-2, 1e-3):
            prob = model_corpus(h)[k]
            sol = neumann_solve(build_workspace(prob), (1.0, 0.0))
            scaled = sol.k_norm_est / h ** (2.0 / (prob.m + 1))
            assert 2.0 < scaled < 6.0, (prob.m, h, scaled)


def test_grid_mismatch_rejected():
    ws = build_workspace(model_corpus(1e-2)[0])
    other = GridFunction(np.ones(100, dtype=complex), -1.0, 0.01, 100)
    for gamma in (ws.gamma_plus, ws.gamma_minus):
        with pytest.raises(ValidationError):
            gamma(other)


# ----------------------------------------------------- solver cross-checking


def test_neumann_matches_ode_oracle():
    # independent routes: geometric series on the integral form vs direct
    # adaptive integration of the differential form
    for k in range(3):
        for h in (1e-1, 1e-2, 1e-3):
            prob = model_corpus(h)[k]
            ws = build_workspace(prob)
            for alpha in ((1.0, 0.0), (0.3 - 0.4j, 0.8 + 0.1j)):
                sol = neumann_solve(ws, alpha)
                o1, o2 = ode_oracle(ws, alpha)
                diff = max(
                    np.abs(sol.u1.values - o1.values).max(),
                    np.abs(sol.u2.values - o2.values).max(),
                )
                assert diff < 1e-8, (prob.m, h, alpha, diff)


def test_neumann_matches_ode_oracle_small_h_spot():
    ws = build_workspace(model_corpus(1e-4)[0])
    sol = neumann_solve(ws, (1.0, 0.0))
    o1, o2 = ode_oracle(ws, (1.0, 0.0))
    diff = max(
        np.abs(sol.u1.values - o1.values).max(),
        np.abs(sol.u2.values - o2.values).max(),
    )
    assert diff < 1e-7


def test_neumann_is_linear_in_the_data():
    ws = build_workspace(model_corpus(1e-2)[0])
    a = (0.5 - 0.2j, 0.1 + 0.9j)
    b = (-0.7 + 0.3j, 0.4 + 0.0j)
    sa = neumann_solve(ws, a)
    sb = neumann_solve(ws, b)
    sab = neumann_solve(ws, (a[0] + b[0], a[1] + b[1]))
    assert np.abs(sab.u1.values - sa.u1.values - sb.u1.values).max() < 1e-12
    assert np.abs(sab.u2.values - sa.u2.values - sb.u2.values).max() < 1e-12


def test_equal_couplings_conserve_the_two_component_norm():
    # with r1 = r2 real the system is self-adjoint up to the phase factor:
    # |u1|^2 + |u2|^2 is a constant of the motion
    ws = build_workspace(model_corpus(1e-2)[0])
    o1, o2 = ode_oracle(ws, (0.6 + 0.2j, -0.3 + 0.7j))
    norm = np.abs(o1.values) ** 2 + np.abs(o2.values) ** 2
    assert norm.max() - norm.min() < 1e-8


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
    a = (0.3 + 1.0j, -2.0 + 0.0j)
    ws = build_workspace(prob)
    sol = neumann_solve(ws, a)
    assert np.abs(sol.u1.values - a[0]).max() == 0.0
    assert np.abs(sol.u2.values - a[1] * ws.osc_plus).max() == 0.0
    T = extract_transfer(ws, *basis_pairs(ws))
    assert np.abs(T.entries - np.eye(2)).max() < 1e-14


def test_residual_bound_dominates_truncation():
    ws = build_workspace(model_corpus(1e-2)[1])
    lo = neumann_solve(ws, (1.0, 0.0), terms=3)
    hi = neumann_solve(ws, (1.0, 0.0), terms=12)
    observed = max(
        np.abs(lo.u1.values - hi.u1.values).max(),
        np.abs(lo.u2.values - hi.u2.values).max(),
    )
    assert observed <= lo.residual_bound
    assert hi.residual_bound < 1e-8


def test_not_contractive_raised_for_strong_coupling(caplog):
    prob = strong_coupling_problem()
    with pytest.raises(NotContractive):
        neumann_solve(build_workspace(prob), (1.0, 0.0))
    # the direct integration has no contraction requirement
    T = ode_reference(prob)
    assert np.isfinite(T.entries).all()
    # extract() switches to it, and says so on the package logger
    with caplog.at_level(logging.INFO, logger="crossing_kit"):
        assert prob.extract().max_abs_diff(T) == 0.0
    assert any("falling back" in r.getMessage() for r in caplog.records)


# ----------------------------------------------------------------- extraction


def test_extraction_invariant_under_window_choice():
    ws = build_workspace(model_corpus(1e-3)[0])
    pairs = basis_pairs(ws)
    base = extract_transfer(ws, *pairs)
    assert base.max_abs_diff(extract_transfer(ws, *pairs, window_points=130)) < 1e-12
    assert base.max_abs_diff(extract_transfer(ws, *pairs, eps=0.05)) < 1e-12
    assert base.max_abs_diff(extract_transfer(ws, *pairs, eps=0.15)) < 1e-12


def test_window_inside_support_rejected():
    ws = build_workspace(model_corpus(1e-3)[0])  # support ends at 0.8, x1 = 1
    with pytest.raises(WindowInsideSupport):
        extract_transfer(ws, *basis_pairs(ws), eps=0.35)


def test_predicted_entries_m1():
    prob = model_corpus(1e-3)[0]  # f = x, r1(0) = r2(0) = 1
    T = predict_transfer(prob)
    lam = math.sqrt(prob.h)
    want12 = -1j * lam * SQRT_2PI * np.exp(1j * math.pi / 4.0)
    want21 = -1j * lam * SQRT_2PI * np.exp(-1j * math.pi / 4.0)
    assert abs(T.t12 - want12) < 1e-12
    assert abs(T.t21 - want21) < 1e-12
    assert T.t11 == 1.0 and T.t22 == 1.0
    assert abs(model_omega(prob) - SQRT_2PI * np.exp(1j * math.pi / 4.0)) < 1e-12


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


def test_transfer_numeric_routes_agree():
    prob = model_corpus(1e-2)[4]
    a = transfer_numeric(prob)  # the Neumann series: no fallback here
    b = ode_reference(prob)
    assert a.max_abs_diff(b) < 1e-8


def test_workspace_does_not_outlive_its_extraction(monkeypatch):
    # one extraction builds one workspace, also when it falls back to the
    # ODE solve, and nothing holds it after
    built = []
    construct = normalform.ModelWorkspace

    def recording(prob):
        ws = construct(prob)
        built.append(weakref.ref(ws))
        return ws

    monkeypatch.setattr(normalform, "ModelWorkspace", recording)
    for prob in (model_corpus(1e-2)[0], strong_coupling_problem()):
        built.clear()
        T = prob.extract()
        gc.collect()
        assert np.isfinite(T.entries).all()
        assert len(built) == 1, (prob, len(built))
        assert built[0]() is None
