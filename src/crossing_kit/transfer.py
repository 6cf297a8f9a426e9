"""2x2 transfer matrices, and the problem interface that produces them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class TransferMatrix:
    """Map from incoming to outgoing leading WKB coefficients.

    ``kind`` records the provenance: "predicted" (closed-form asymptotics)
    or "extracted" (read off a numerical solution).
    """

    entries: np.ndarray
    h: float
    kind: str

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex)
        if e.shape != (2, 2):
            raise ValidationError("transfer matrix must be 2x2")
        object.__setattr__(self, "entries", e)
        if self.kind not in ("predicted", "extracted"):
            raise ValidationError(f"unknown transfer matrix kind {self.kind!r}")

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
