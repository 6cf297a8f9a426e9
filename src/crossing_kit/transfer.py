"""2x2 transfer matrices, and the problem interface that produces them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class TransferMatrix:
    """Map from incoming to outgoing leading WKB coefficients.

    ``ENTRIES`` names the four entries in row-major order; every report
    (CSV columns, printed and JSON matrices) lists them in that order.
    """

    ENTRIES = ("t11", "t12", "t21", "t22")

    entries: np.ndarray
    h: float

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (2, 2):
            raise ValidationError("transfer matrix must be 2x2")
        object.__setattr__(self, "entries", e)

    @property
    def t11(self) -> complex:
        return complex(self.entries[0, 0])

    @property
    def t12(self) -> complex:
        return complex(self.entries[0, 1])

    @property
    def t21(self) -> complex:
        return complex(self.entries[1, 0])

    @property
    def t22(self) -> complex:
        return complex(self.entries[1, 1])

    def named(self) -> dict[str, complex]:
        """The entries by name, in ``ENTRIES`` order."""
        return dict(zip(self.ENTRIES, (complex(z) for z in self.entries.flat)))

    def entrywise_abs_diff(self, other: "TransferMatrix") -> np.ndarray:
        return np.abs(self.entries - other.entries)

    def max_abs_diff(self, other: "TransferMatrix") -> float:
        return float(self.entrywise_abs_diff(other).max())


def check_h(h: float) -> None:
    """Refuse an h that is not finite and positive: the one check of h on
    every route to a transfer matrix, before any work at that h."""
    if not 0.0 < h < math.inf:  # False for NaN too
        raise ValidationError("h must be finite and positive")


@runtime_checkable
class Problem(Protocol):
    """A crossing problem, h-free, as the sweep and the CLI use it.

    ``predict`` gives T at h from the crossing invariants, ``extract`` reads
    T at h off a numerical solve; ``branch`` picks the crossing where a
    problem has more than one. ``order`` is the contact order m, so the
    off-diagonal entries scale like h^(1/(order+1)). A problem sets up what
    does not depend on h once, when first asked for, and keeps it.
    """

    @property
    def order(self) -> int: ...

    def predict(self, h: float, branch: int = 1) -> TransferMatrix: ...

    def extract(self, h: float, branch: int = 1) -> TransferMatrix: ...
