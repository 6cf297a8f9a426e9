"""Exact symbol calculus at a crossing of two characteristic curves.

Symbols are real polynomials in (x, xi) stored as coefficient maps, so
Poisson brackets, gradients and recenterings are exact for integer inputs.
From a pair of symbols vanishing at the origin the module computes the
crossing invariants (contact order m, iterated bracket, gradient angles,
orientation sign s), the tangential normal-form constants, and the
leading-order transfer matrix

    T = I - i h^(1/(m+1)) [[0, omega1 q1(0,0)], [omega2 q2(0,0), 0]],

    omega_j = 2 mu_m(-sgn(s B_j) pi/(2(m+1))) Gamma((m+2)/(m+1))
              (|grad p_other| / |grad p_j| * (m+1)! / |B_j|)^(1/(m+1)),

where B_1 is the m-fold bracket of p1 applied to p2 at the crossing, B_2
its mirror image, and mu_m the average of e^{i theta} and
e^{i (-1)^{m+1} theta}. Each omega_j is the constant of a degenerate
stationary point (``stationary_prefactor``), which also gives the leading
term of the oscillatory integrals in ``oscquad``. Both brackets are
computed directly by iteration; the algebraic relation B_1 = -c^(m-1) B_2
(c the tangential normal-form constant) is kept as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    NoFiniteContact,
    TransversalUnsupported,
    ValidationError,
    ZeroGradient,
)
from .transfer import TransferMatrix, check_h

__all__ = [
    "Poly2",
    "CrossingData",
    "mu_m",
    "stationary_prefactor",
    "poisson_bracket",
    "iterated_bracket",
    "contact_order",
    "theta_of",
    "sign_s",
    "normal_form_constants",
    "omega_general",
    "transfer_predicted_general",
    "crossing_data_from_symbols",
]


class Poly2:
    """Real polynomial in (x, xi) as a map (i, j) -> coefficient of x^i xi^j.

    Arithmetic never introduces rounding beyond float multiplication of the
    inputs, so integer-coefficient identities hold exactly.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], float] | None = None):
        self.coeffs = {
            k: float(v) for k, v in (coeffs or {}).items() if float(v) != 0.0
        }

    @staticmethod
    def const(c: float) -> "Poly2":
        return Poly2({(0, 0): c})

    @staticmethod
    def x() -> "Poly2":
        return Poly2({(1, 0): 1.0})

    @staticmethod
    def xi() -> "Poly2":
        return Poly2({(0, 1): 1.0})

    @staticmethod
    def from_x_poly(coeffs_ascending) -> "Poly2":
        """Polynomial in x alone from ascending 1d coefficients."""
        return Poly2({(i, 0): c for i, c in enumerate(coeffs_ascending)})

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly2(0)"
        terms = [
            f"{c:g}*x^{i}*xi^{j}" for (i, j), c in sorted(self.coeffs.items())
        ]
        return "Poly2(" + " + ".join(terms) + ")"

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0.0) + v
        return Poly2(out)

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __neg__(self) -> "Poly2":
        return Poly2({k: -v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Poly2):
            out: dict[tuple[int, int], float] = {}
            for (i1, j1), v1 in self.coeffs.items():
                for (i2, j2), v2 in other.coeffs.items():
                    k = (i1 + i2, j1 + j2)
                    out[k] = out.get(k, 0.0) + v1 * v2
            return Poly2(out)
        return Poly2({k: other * v for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly2":
        out = Poly2.const(1.0)
        for _ in range(int(n)):
            out = out * self
        return out

    def __abs__(self) -> "Poly2":
        """Coefficientwise absolute value."""
        return Poly2({k: abs(v) for k, v in self.coeffs.items()})

    def dx(self) -> "Poly2":
        return Poly2({(i - 1, j): i * v for (i, j), v in self.coeffs.items() if i})

    def dxi(self) -> "Poly2":
        return Poly2({(i, j - 1): j * v for (i, j), v in self.coeffs.items() if j})

    def at_origin(self) -> float:
        return self.coeffs.get((0, 0), 0.0)

    def __call__(self, x: float, xi: float) -> float:
        return sum(v * x**i * xi**j for (i, j), v in self.coeffs.items())

    def shift(self, x0: float, xi0: float) -> "Poly2":
        """The polynomial (x, xi) -> p(x + x0, xi + xi0), expanded exactly."""
        out: dict[tuple[int, int], float] = {}
        for (i, j), v in self.coeffs.items():
            for a, b in product(range(i + 1), range(j + 1)):
                k = (a, b)
                w = (
                    v
                    * math.comb(i, a)
                    * math.comb(j, b)
                    * x0 ** (i - a)
                    * xi0 ** (j - b)
                )
                out[k] = out.get(k, 0.0) + w
        return Poly2(out)

    def gradient_at_origin(self) -> tuple[float, float]:
        """(d_x p, d_xi p) at (0, 0)."""
        return (self.coeffs.get((1, 0), 0.0), self.coeffs.get((0, 1), 0.0))

    def max_abs_coeff(self) -> float:
        return max((abs(v) for v in self.coeffs.values()), default=0.0)


def poisson_bracket(a: Poly2, b: Poly2) -> Poly2:
    """{a, b} = d_xi a d_x b - d_x a d_xi b."""
    return a.dxi() * b.dx() - a.dx() * b.dxi()


def iterated_bracket(p1: Poly2, p2: Poly2, k: int) -> Poly2:
    """k-fold application of {p1, .} to p2."""
    if k < 0:
        raise ValidationError("bracket order must be >= 0")
    out = p2
    for _ in range(k):
        out = poisson_bracket(p1, out)
    return out


def contact_order(p1: Poly2, p2: Poly2, max_m: int = 12) -> tuple[int, float]:
    """Smallest m with the m-fold bracket nonzero at the origin.

    Both symbols must vanish at (0, 0). Returns (m, bracket value); raises
    NoFiniteContact when every bracket up to max_m vanishes. For float
    inputs a value is treated as zero below 1e-12 of its own rounding-error
    scale: the same recursion run on absolute coefficients, which sums the
    sizes of all the terms that cancel into the value.
    """
    for p, name in ((p1, "p1"), (p2, "p2")):
        if p.at_origin() != 0.0:
            raise ValidationError(f"{name}(0,0) must vanish at the crossing")
    size1 = abs(p1)
    b, size = p2, abs(p2)
    for k in range(1, max_m + 1):
        b = poisson_bracket(p1, b)
        size = size1.dxi() * size.dx() + size1.dx() * size.dxi()
        v = b.at_origin()
        if abs(v) > 1e-12 * size.at_origin():
            return k, v
    raise NoFiniteContact(f"all brackets vanish at the origin up to order {max_m}")


def theta_of(p: Poly2) -> float:
    """Angle of the characteristic direction in [-pi/2, pi/2).

    -arctan(d_x p / d_xi p) at the origin; -pi/2 when d_xi p vanishes.
    Raises ZeroGradient for a critical symbol.
    """
    gx, gxi = p.gradient_at_origin()
    if gx == 0.0 and gxi == 0.0:
        raise ZeroGradient("symbol has vanishing gradient at the crossing")
    return _direction_angle(gx, gxi)


def _direction_angle(gx: float, gxi: float) -> float:
    if gxi == 0.0:
        return -math.pi / 2
    return -math.atan(gx / gxi)


@dataclass(frozen=True)
class CrossingData:
    """Invariants of one crossing, sufficient for the transfer prediction.

    bracket_m is the m-fold bracket of p1 applied to p2 at the crossing,
    bracket_m_rev its mirror (p2 applied to p1). grad1/grad2 are
    (d_x p, d_xi p) at the crossing; the direction angles, the orientation
    sign s and c_prime = |grad1| / |grad2| follow from them.
    """

    m: int
    bracket_m: float
    bracket_m_rev: float
    grad1: tuple[float, float]
    grad2: tuple[float, float]
    q1_0: complex
    q2_0: complex

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("contact order m must be >= 1")
        if self.bracket_m == 0.0 or self.bracket_m_rev == 0.0:
            raise ValidationError("bracket_m and bracket_m_rev must be nonzero")
        if math.hypot(*self.grad1) == 0.0 or math.hypot(*self.grad2) == 0.0:
            raise ZeroGradient("crossing data carries a vanishing gradient")
        if self.m >= 2 and not math.isclose(
            self.theta1, self.theta2, abs_tol=1e-9
        ):
            raise ValidationError(
                "tangential crossing (m >= 2) requires equal direction angles"
            )

    @property
    def theta1(self) -> float:
        return _direction_angle(*self.grad1)

    @property
    def theta2(self) -> float:
        return _direction_angle(*self.grad2)

    @property
    def s(self) -> int:
        return sign_s(self)

    @property
    def c_prime(self) -> float:
        return math.hypot(*self.grad1) / math.hypot(*self.grad2)


def sign_s(data: CrossingData) -> int:
    """Orientation sign: product of the two flow/direction pairings.

    For each symbol the pairing of the flow vector (d_xi p, -d_x p) with
    (cos theta, sin theta) equals +-|grad p|, with the sign of d_xi p, or of
    d_x p where d_xi p vanishes (theta = -pi/2).
    """
    out = 1
    for gx, gxi in (data.grad1, data.grad2):
        out *= int(math.copysign(1.0, gxi if gxi != 0.0 else gx))
    return out


def normal_form_constants(
    p1: Poly2, p2: Poly2, data: CrossingData
) -> tuple[float, float]:
    """Tangential normal-form constants (c, f_m_0).

    c = s |grad p1| / |grad p2|; f_m_0 = -c * bracket_m is the m-th
    derivative at 0 of the oscillation rate in the reduced model. Only
    defined for m >= 2; the symbols are used to re-derive bracket_m as a
    consistency check.
    """
    if data.m < 2:
        raise TransversalUnsupported(
            "normal-form constants are defined for tangential crossings (m >= 2)"
        )
    check = iterated_bracket(p1, p2, data.m).at_origin()
    if not math.isclose(check, data.bracket_m, rel_tol=1e-9, abs_tol=0.0):
        raise ValidationError(
            f"bracket recomputed from symbols ({check:g}) disagrees with data "
            f"({data.bracket_m:g})"
        )
    c = data.s * data.c_prime
    return c, -c * check


def mu_m(m: int, theta: float) -> complex:
    """Average of e^{i theta} and e^{i (-1)^{m+1} theta}.

    Equals e^{i theta} for odd m and cos(theta) for even m.
    """
    if m < 1 or m != int(m):
        raise ValidationError("mu_m needs an integer order m >= 1")
    return 0.5 * (np.exp(1j * theta) + np.exp(1j * ((-1) ** (m + 1)) * theta))


def stationary_prefactor(m: int, curvature: float) -> complex:
    """h-free coefficient of the degenerate stationary point contribution.

    ``curvature`` is F^(m+1)(0), the first nonvanishing derivative of the
    phase at the stationary point. The full leading term is this value
    times a(0) * h^(1/(m+1)).
    """
    if curvature == 0.0:
        raise ValidationError("F^(m+1)(0) must not vanish")
    if m >= 170:
        raise ValidationError(f"m = {m}: (m + 1)! overflows a float from m = 170")
    theta = math.copysign(math.pi / (2 * (m + 1)), curvature)
    amp = (math.factorial(m + 1) / abs(curvature)) ** (1.0 / (m + 1))
    return 2.0 * mu_m(m, theta) * math.gamma((m + 2) / (m + 1)) * amp


def omega_general(data: CrossingData) -> tuple[complex, complex]:
    """Off-diagonal amplitudes (omega1, omega2) from the crossing invariants."""
    n1 = math.hypot(*data.grad1)
    n2 = math.hypot(*data.grad2)
    # side j is a stationary point with curvature -s B_j |grad p_j| / |grad p_k|
    omega1 = stationary_prefactor(data.m, -data.s * data.bracket_m / (n2 / n1))
    omega2 = stationary_prefactor(data.m, -data.s * data.bracket_m_rev / (n1 / n2))
    return omega1, omega2


def transfer_predicted_general(data: CrossingData, h: float) -> TransferMatrix:
    """Leading-order transfer matrix I - i h^(1/(m+1)) antidiag(w1 q1, w2 q2)."""
    check_h(h)
    omega1, omega2 = omega_general(data)
    lam = h ** (1.0 / (data.m + 1))
    entries = np.array(
        [
            [1.0, -1j * lam * omega1 * data.q1_0],
            [-1j * lam * omega2 * data.q2_0, 1.0],
        ],
        dtype=complex,
    )
    return TransferMatrix(entries=entries, h=h)


def crossing_data_from_symbols(
    p1: Poly2,
    p2: Poly2,
    q1_0: complex,
    q2_0: complex,
    max_m: int = 12,
) -> CrossingData:
    """Crossing invariants from a symbol pair, brackets computed directly.

    Cross-checks the mirror-bracket identity
    bracket(p1 -> p2) = -c^(m-1) bracket(p2 -> p1), c = s |grad1|/|grad2|,
    to 1e-9 relative for tangential crossings.
    """
    m, bracket = contact_order(p1, p2, max_m=max_m)
    m_rev, bracket_rev = contact_order(p2, p1, max_m=max_m)
    if m_rev != m:
        raise ValidationError(f"mirror contact order {m_rev} != {m}")
    data = CrossingData(
        m=m,
        bracket_m=bracket,
        bracket_m_rev=bracket_rev,
        grad1=p1.gradient_at_origin(),
        grad2=p2.gradient_at_origin(),
        q1_0=q1_0,
        q2_0=q2_0,
    )
    if m >= 2:
        c = data.s * data.c_prime
        predicted_rev = -bracket / c ** (m - 1)
        if not math.isclose(bracket_rev, predicted_rev, rel_tol=1e-9):
            raise ValidationError(
                "mirror bracket violates the -c^(m-1) symmetry: "
                f"direct {bracket_rev:g} vs derived {predicted_rev:g}"
            )
    return data
