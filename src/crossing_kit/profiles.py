"""Reusable 1d profiles: polynomials and smooth bumps.

These are the building blocks for problem data (the oscillation rate f, the
coupling amplitudes, the Schrodinger potentials). Both carry exact
derivative information, which the symbol-level code and the validators rely
on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Poly1:
    """Real polynomial in one variable, ascending coefficients."""

    coeffs: tuple[float, ...]

    @staticmethod
    def monomial(degree: int, coeff: float = 1.0) -> "Poly1":
        return Poly1((0.0,) * degree + (float(coeff),))

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs))

    def deriv(self, order: int = 1) -> "Poly1":
        c = np.polynomial.polynomial.polyder(np.asarray(self.coeffs), order)
        return Poly1(tuple(c) if c.size else (0.0,))

    def deriv_at(self, order: int, x: float) -> float:
        return float(self.deriv(order)(x))

    def range_on(self, a: float, b: float) -> tuple[float, float]:
        """(min, max) of the polynomial over [a, b], via its critical points."""
        cand = [a, b]
        dcoef = np.asarray(self.deriv().coeffs)
        if dcoef.size > 1 or dcoef[0] != 0.0:
            for r in np.polynomial.polynomial.polyroots(dcoef):
                if abs(r.imag) < 1e-12 and a <= r.real <= b:
                    cand.append(float(r.real))
        vals = [float(self(c)) for c in cand]
        return min(vals), max(vals)

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
        out = np.zeros_like(t2)
        inside = t2 < 1.0
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - t2[inside]))
        return float(out[0]) if scalar else out

    def kernel_params(self) -> tuple[float, float, float]:
        """(center, width, amplitude) triple for the DOP853 right-hand sides."""
        return (self.center, self.width, self.amplitude)


ZERO_BUMP = Bump(width=1.0, amplitude=0.0)

