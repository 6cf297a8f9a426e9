"""Reusable 1d profiles: polynomials and smooth bumps.

These are the building blocks for problem data (the oscillation rate f, the
coupling amplitudes, the Schrodinger potentials). Both carry exact
derivative information, which the symbol-level code and the validators rely
on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Poly1:
    """Real polynomial in one variable, ascending coefficients.

    ``zero_order`` and ``vanishes_off_zero`` state the crossing hypothesis
    every problem family checks: its rate vanishes at 0 to an exact order
    and nowhere else on a given range. This class holds the package's only
    root finder.
    """

    coeffs: tuple[float, ...]

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))

    def deriv(self, order: int = 1) -> "Poly1":
        c = np.polynomial.polynomial.polyder(np.asarray(self.coeffs), order)
        return Poly1(tuple(c) if c.size else (0.0,))

    def deriv_at(self, order: int, x: float) -> float:
        return float(self.deriv(order)(x))

    @cached_property
    def critical_points(self) -> tuple[float, ...]:
        """The real zeros of the derivative, found once per polynomial."""
        roots = np.polynomial.polynomial.polyroots(np.asarray(self.deriv().coeffs))
        return tuple(float(r.real) for r in roots if abs(r.imag) < 1e-12)

    def range_on(self, a: float, b: float) -> tuple[float, float]:
        """(min, max) of the polynomial over [a, b], via its critical points."""
        cand = [a, b, *(c for c in self.critical_points if a <= c <= b)]
        vals = [float(self(c)) for c in cand]
        return min(vals), max(vals)

    @property
    def zero_order(self) -> int | None:
        """Order of the zero at 0, the index of the first nonzero
        coefficient; None for the zero polynomial."""
        return next((k for k, c in enumerate(self.coeffs) if c != 0.0), None)

    def vanishes_off_zero(self, a: float, b: float) -> bool:
        """Whether q = p / x^zero_order has a zero on [a, b], that is,
        whether p vanishes there other than at 0 (the zero polynomial does).

        Read off ``range_on``. A value of q within 1e-12 of its coefficient
        scale on [a, b], sum |q_k| max(|a|, |b|)^k, counts as a zero: the
        rounding of a double zero's coefficients can lift it off the axis.
        """
        k = self.zero_order
        if k is None:
            return True
        q = self.coeffs[k:]
        lo, hi = Poly1(q).range_on(a, b)
        tol = 1e-12 * np.polynomial.polynomial.polyval(max(abs(a), abs(b)), np.abs(q))
        return lo <= tol and -tol <= hi

    def antideriv(self) -> "Poly1":
        c = np.polynomial.polynomial.polyint(np.asarray(self.coeffs))
        return Poly1(tuple(c))

    def __sub__(self, other: "Poly1") -> "Poly1":
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n)
        a[: len(self.coeffs)] = self.coeffs
        a[: len(other.coeffs)] -= other.coeffs
        return Poly1(tuple(a))


@dataclass(frozen=True)
class Bump:
    """Smooth compactly supported profile.

    ``amplitude * exp(1 - 1/(1 - ((x-center)/width)^2))`` inside
    (center-width, center+width), zero outside; the value at the center is
    exactly ``amplitude``.
    """

    width: float
    amplitude: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        if not (self.width > 0):
            raise ValidationError("bump width must be positive")

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.width, self.center + self.width)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        t2 = np.atleast_1d(((x - self.center) / self.width) ** 2)
        # outside the support (and at NaN) the gap is 0, so the exponent is
        # -inf and the value 0; inside it is 1 - t2 as it stands
        gap = np.fmax(1.0 - t2, 0.0)
        with np.errstate(divide="ignore"):
            out = self.amplitude * np.exp(1.0 - 1.0 / gap)
        return float(out[0]) if scalar else out


ZERO_BUMP = Bump(width=1.0, amplitude=0.0)

