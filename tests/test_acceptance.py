"""End-to-end acceptance gate: ten numbered checks, one PASS line each.

Run with -s to see the lines; under plain pytest each check is one test.
Frozen constants below were measured once on this deterministic corpus
and are asserted inside the stated tolerance bands; the sharpness side
(measured value must stay within +-20% of the frozen one) guards against
silent regressions that would make a bound vacuously loose.
"""

import cmath
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from crossing_kit import march
from crossing_kit.normalform import _system, model_corpus
from crossing_kit.oscquad import (
    GridFunction,
    PhaseSpec,
    gaussian_pairing,
    osc_integral_numeric,
    osc_leading_term,
)
from crossing_kit.profiles import Bump, Poly1
from crossing_kit.schrodinger import (
    build_crossing_data,
    numeric_transfer_case_i,
    predict_transfer_case_i,
    schrodinger_corpus,
)
from crossing_kit.sweep import fit_power_law, run_sweep
from crossing_kit.symbolcalc import (
    Poly2,
    iterated_bracket,
    normal_form_constants,
    poisson_bracket,
    sign_s,
)

import closed_form_oracle
from ode_oracles import ode_oracle

SQRT_2PI = 2.506628274631000502415765284811045253007
AIRY_2PI_AI0 = 2.230707051824495741427486519543450239771  # 2*pi*Ai(0)


def report(k: int, label: str) -> None:
    print(f"[{k:>2}/10] PASS  {label}")


def test_01_stationary_constant_and_quadrature_envelope_m1():
    # closed form: F''(0)=1, a0=1 gives sqrt(2 pi) e^{i pi/4} h^{1/2}
    phase = PhaseSpec.from_poly(Poly1((0.0, 0.0, 0.5)))
    for h in (1e-2, 1e-4):
        exact = SQRT_2PI * cmath.exp(1j * math.pi / 4) * math.sqrt(h)
        assert abs(osc_leading_term(phase, 1.0, h) - exact) <= 1e-12

    # numeric agreement: rel error <= C sqrt(h); C frozen 0.4944, attained
    # at the largest h (the error itself decays one full order faster)
    c_frozen = 0.4944
    amp = Bump(width=0.5)
    ratios = []
    for h in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        value = osc_integral_numeric(phase, amp, h, (-0.6, 0.6))
        lead = osc_leading_term(phase, 1.0, h)
        rel = abs(value - lead) / abs(lead)
        assert rel <= 1.2 * c_frozen * math.sqrt(h)
        ratios.append(rel / math.sqrt(h))
    assert 0.8 * c_frozen <= max(ratios) <= 1.2 * c_frozen
    report(1, "stationary-phase constant and quadrature envelope, order 1")


def test_02_airy_cross_check_m2():
    # the two closed forms of 2 pi Ai(0), through the gamma function that
    # stationary_prefactor uses
    lhs = math.sqrt(3.0) * math.gamma(4.0 / 3.0) * 3.0 ** (1.0 / 3.0)
    rhs = 2.0 * math.pi / (3.0 ** (2.0 / 3.0) * math.gamma(2.0 / 3.0))
    assert abs(lhs - rhs) <= 1e-10

    h = 1e-5
    phase = PhaseSpec.from_poly(Poly1((0.0, 0.0, 0.0, 1.0 / 3.0)))
    amp = Bump(width=0.5)
    value = osc_integral_numeric(phase, amp, h, (-0.6, 0.6))
    target = AIRY_2PI_AI0 * h ** (1.0 / 3.0)
    assert abs(abs(value) - target) / target <= 3e-2
    report(2, "Airy cross-check, order 2")


def test_03_model_transfer_m1_sweep():
    # frozen: exponent 0.4927, amplitude ratio 0.9453, arg -2.3553
    rep = run_sweep(model_corpus()[0], np.geomspace(1e-1, 1e-4, 12))
    assert len(rep.ok_rows()) == 12
    fit = fit_power_law(rep.magnitudes("t21"))
    assert abs(fit.exponent - 0.5) <= 0.02
    assert abs(fit.amplitude / SQRT_2PI - 1.0) <= 0.10
    smallest = rep.ok_rows()[-1]
    arg = cmath.phase(complex(smallest.extracted.t21))
    assert abs(arg - (-3.0 * math.pi / 4.0)) <= 0.1
    report(3, "model transfer sweep, order 1: exponent, prefactor, angle")


def test_04_model_transfer_m2_sweep():
    # frozen: exponent 0.3303, amplitude ratio 0.9675
    rep = run_sweep(model_corpus()[1], np.geomspace(1e-3, 1e-5, 12))
    assert len(rep.ok_rows()) == 12
    fit = fit_power_law(rep.magnitudes("t21"))
    assert abs(fit.exponent - 1.0 / 3.0) <= 0.02
    assert abs(fit.amplitude / AIRY_2PI_AI0 - 1.0) <= 0.10
    smallest = rep.ok_rows()[-1]
    # even-order prefactor is real, so i * t is real-positive up to noise
    for entry in (smallest.extracted.t12, smallest.extracted.t21):
        assert abs(cmath.phase(1j * complex(entry))) <= 0.05
    report(4, "model transfer sweep, order 2: exponent, prefactor, realness")


def test_05_series_vs_direct_integration():
    # the production march (chunked Picard iteration, the Neumann series of
    # each chunk) against DOP853, at points across the coupling support and
    # at x1, where T is read
    worst = 0.0
    for prob in model_corpus():
        lo, hi = prob.coupling_support()
        xs = [*np.linspace(lo, hi, 9)[1:-1], prob.x1]
        for alpha in ((1.0, 0.0), (0.0, 1.0)):
            direct = ode_oracle(prob, 1e-2, alpha, xs)
            for k, x in enumerate(xs):
                a = march.march(
                    _system(prob, 1e-2), np.array([alpha], dtype=complex), prob.x0, x
                )
                worst = max(worst, float(np.abs(a[0] - direct[:, k]).max()))
    assert worst <= 1e-7
    report(5, f"march vs direct integration on all 6 problems (sup {worst:.1e})")


def test_06_diagonal_deficit_envelope():
    # frozen exponents: 1.1101 (order 1, log envelope), 0.6441 (order 2)
    for idx, m in ((0, 1), (1, 2)):
        rep = run_sweep(model_corpus()[idx], np.geomspace(1e-3, 1e-5, 8))
        assert len(rep.ok_rows()) == 8
        # order 1 carries the log(1/h) envelope, divided out of the data
        pts = rep.magnitudes("t11_deficit")
        if m == 1:
            pts = [(h, y / math.log(1.0 / h)) for h, y in pts]
        fit = fit_power_law(pts)
        lo = 2.0 / (m + 1) - 0.1
        hi = 2.0 / (m + 1) + 0.15
        assert lo <= fit.exponent <= hi
    report(6, "diagonal deficit envelope, orders 1 and 2")


def _random_poly(rng, deg: int = 3) -> Poly2:
    coeffs = {}
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            c = int(rng.integers(-4, 5))
            if c:
                coeffs[(i, j)] = float(c)
    return Poly2(coeffs)


def _momentum_symbol(v_coeffs, e0: float) -> Poly2:
    return Poly2.xi() ** 2 + Poly2.from_x_poly(v_coeffs) - Poly2.const(e0)


def _tangential_corpus():
    """(data, p1, p2) for every tangential crossing in the two corpora."""
    out = []
    for prob, which_list in (
        (schrodinger_corpus()[1], (1, -1)),
        (schrodinger_corpus()[2], (0,)),
    ):
        for which in which_list:
            data = build_crossing_data(prob, which)
            p1 = _momentum_symbol(prob.v1.coeffs, prob.e0)
            p2 = _momentum_symbol(prob.v2.coeffs, prob.e0)
            shift = which * prob.xi0
            out.append((data, p1.shift(0.0, shift), p2.shift(0.0, shift)))
    # steeper tangential pair, not energy-symmetric
    p1 = _momentum_symbol((0.0, 2.0), 1.0)
    p2 = _momentum_symbol((0.0, 2.0, 1.0), 1.0)
    for which in (1, -1):
        data = crossing_data_from_shifted(p1, p2, which)
        out.append((data, p1.shift(0.0, float(which)), p2.shift(0.0, float(which))))
    return out


def crossing_data_from_shifted(p1: Poly2, p2: Poly2, which: int):
    from crossing_kit.symbolcalc import crossing_data_from_symbols

    return crossing_data_from_symbols(
        p1.shift(0.0, float(which)), p2.shift(0.0, float(which)), 1.0, 1.0
    )


def test_07_bracket_identities():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        a, b, c = (_random_poly(rng, 2) for _ in range(3))
        assert poisson_bracket(a, b) == -poisson_bracket(b, a)
        lhs = poisson_bracket(a, b * c)
        assert lhs == poisson_bracket(a, b) * c + b * poisson_bracket(a, c)

    # iterated bracket at the crossing reads off the potential difference
    for n in (1, 2, 3):
        for xi0 in (1.0, 2.0):
            diff = [0.0] * n + [3.0, -1.0]
            v1 = [0.0, 1.0, -2.0]
            v2 = [a + b for a, b in zip(v1 + [0.0] * 4, diff + [0.0] * 4)]
            p1 = _momentum_symbol(v1, xi0 * xi0)
            p2 = _momentum_symbol(v2, xi0 * xi0)
            got = iterated_bracket(p1, p2, n)(0.0, xi0)
            assert got == 2.0**n * xi0**n * math.factorial(n) * 3.0

    # mirror symmetry and orientation sign on every tangential case
    for data, p1s, p2s in _tangential_corpus():
        assert data.m >= 2
        c, _fm0 = normal_form_constants(p1s, p2s, data)
        rev = -data.bracket_m / c ** (data.m - 1)
        assert data.bracket_m_rev is not None
        assert abs(data.bracket_m_rev - rev) <= 1e-10 * abs(rev)
        assert sign_s(data) == data.s
        assert math.copysign(1.0, c) == data.s
    report(7, "bracket identities: antisymmetry, Leibniz, momentum, mirror, sign")


def test_08_closed_form_matches_general_route():
    worst = 0.0
    for h in (1e-2, 1e-3):
        for prob in schrodinger_corpus()[:2]:
            for which in (1, -1):
                display = closed_form_oracle.predict_transfer_case_i(prob, h, which)
                general = predict_transfer_case_i(prob, h, which)
                worst = max(worst, display.max_abs_diff(general))
    assert worst <= 1e-10
    report(8, f"closed form equals invariant route at both crossings ({worst:.1e})")


def test_09_schrodinger_numeric_verification():
    # frozen: exponent 0.4958; off-diagonal rel errors ~1.1% at h=1e-3
    base = schrodinger_corpus()[0]

    def magnitude(h: float) -> tuple[float, float]:
        return float(h), abs(complex(numeric_transfer_case_i(base, float(h), 1).t12))

    with ThreadPoolExecutor(3) as pool:
        points = list(pool.map(magnitude, np.geomspace(1e-2, 10.0**-3.5, 6)))
    fit = fit_power_law(points)
    assert abs(fit.exponent - 0.5) <= 0.03

    for branch in (1, -1):
        predicted = predict_transfer_case_i(base, 1e-3, branch)
        extracted = numeric_transfer_case_i(base, 1e-3, branch)
        scale = abs(complex(predicted.t12))
        diff = extracted.entrywise_abs_diff(predicted)
        assert diff[0][1] / scale <= 0.15
        assert diff[1][0] / scale <= 0.15
    report(9, "coupled-pair numerics: exponent and both-branch placement")


def test_10_gaussian_pairing_closed_form():
    h = 1e-3
    half = 8.0 * math.sqrt(h) * 1.05
    x = np.linspace(-half, half, 4097)
    for lam in (-2.0, 0.0, 1.0):
        v = GridFunction(np.exp(1j * lam * x**2 / (2.0 * h)), x[0], x[1] - x[0], 4097)
        exact = (1.0 - 1j * lam) ** -0.5
        assert abs(gaussian_pairing(v, h) - exact) <= 1e-3
    report(10, "Gaussian pairing closed form at three chirp rates")
