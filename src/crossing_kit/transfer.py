"""2x2 transfer matrices, and the problem interface that produces them."""

from __future__ import annotations

import copy
import functools
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

    The frozen problem dataclasses subclass it for ``with_h`` and for
    ``setup``, the record of their h-free values that ``shared`` fills.
    """

    h: float

    setup = functools.cached_property(lambda self: {})

    @property
    def order(self) -> int: ...

    def with_h(self, h: float) -> "Problem":
        """The same validated problem at another h: it checks only h > 0 and
        holds the same ``setup``, so a sweep sets its problem up once. A
        ``dataclasses.replace`` of any other field makes a fresh record."""
        if not (h > 0):
            raise ValidationError("h must be positive")
        self.setup  # cached on self first, so that the copy holds it
        twin = copy.copy(self)
        object.__setattr__(twin, "h", h)
        return twin

    def shared(self, build, *args):
        """``build(self, *args)``, built once per problem; it must not read h."""
        key = (build, *args)
        if key not in self.setup:
            self.setup[key] = build(self, *args)
        return self.setup[key]

    def predict(self, branch: int = 1) -> TransferMatrix: ...

    def extract(self, branch: int = 1) -> TransferMatrix: ...
