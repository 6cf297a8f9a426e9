"""2x2 transfer matrices, and the problem interface that produces them."""

from __future__ import annotations

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


@runtime_checkable
class Problem(Protocol):
    """A crossing problem at one h, as the sweep and the CLI use it.

    ``predict`` gives T from the crossing invariants, ``extract`` reads T off
    a numerical solve; ``branch`` picks the crossing where a problem has more
    than one. ``order`` is the contact order m, so the off-diagonal entries
    scale like h^(1/(order+1)).
    """

    h: float

    @property
    def order(self) -> int: ...

    def with_h(self, h: float) -> "Problem": ...

    def predict(self, branch: int = 1) -> TransferMatrix: ...

    def extract(self, branch: int = 1) -> TransferMatrix: ...
