"""Immutable EGF values in three variables over exact rationals.

The variables carry fixed meanings: x marks graph order, y marks size (or
cardinality), and z marks the number of bipartite connected components.  The
package computes with integer labeled counts, and all series algebra lives
in :mod:`pairsum.labeled`; :class:`TruncatedSeries` is only the form in
which the :mod:`pairsum.graphcounts` views return a generating function to
callers that want the series itself.  A series stores only the monomials
inside a rectangular degree box given by :class:`TruncationCaps`.

The series-by-series ``__mul__`` is kept because the benchmark's tracing
pass (``bench/tracing.py``) reads it by name.

Coefficients are ``fractions.Fraction``; nothing in this module ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

Degrees = Tuple[int, int, int]
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)


@dataclass(frozen=True)
class TruncationCaps:
    """Maximum retained degree in x, y and z respectively."""

    dx: int
    dy: int
    dz: int

    def __post_init__(self) -> None:
        if self.dx < 0 or self.dy < 0 or self.dz < 0:
            raise ValueError(f"caps must be non-negative, got {self}")

    def admits(self, key: Degrees) -> bool:
        i, j, k = key
        return 0 <= i <= self.dx and 0 <= j <= self.dy and 0 <= k <= self.dz

    def meet(self, other: "TruncationCaps") -> "TruncationCaps":
        """Component-wise minimum: the box on which both operands are exact."""
        return TruncationCaps(
            min(self.dx, other.dx), min(self.dy, other.dy), min(self.dz, other.dz)
        )


class TruncatedSeries:
    """Sparse truncated series: degree triple (x, y, z) -> nonzero Fraction.

    Instances are immutable.
    """

    __slots__ = ("caps", "_coeffs")

    def __init__(self, caps: TruncationCaps, coeffs: Mapping[Degrees, Scalar] = ()):
        stored: dict[Degrees, Fraction] = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for key, value in items:
            key = (int(key[0]), int(key[1]), int(key[2]))
            if not caps.admits(key):
                raise ValueError(f"monomial {key} exceeds caps {caps}")
            value = Fraction(value)
            if value:
                stored[key] = value
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "_coeffs", stored)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("TruncatedSeries is immutable")

    def items(self) -> Iterable[tuple[Degrees, Fraction]]:
        return self._coeffs.items()

    def __len__(self) -> int:
        return len(self._coeffs)

    def coefficient(self, i: int, j: int, k: int = 0) -> Fraction:
        """Exact coefficient of x^i y^j z^k.

        Degrees beyond the caps are rejected rather than reported as zero:
        the series holds no information about them.
        """
        key = (i, j, k)
        if not self.caps.admits(key):
            raise ValueError(f"coefficient {key} lies outside caps {self.caps}")
        return self._coeffs.get(key, _ZERO)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.caps == other.caps and self._coeffs == other._coeffs

    __hash__ = None  # mutable-dict backed; not hashable

    def __repr__(self) -> str:
        terms = sorted(self._coeffs.items())
        shown = ", ".join(f"{key}: {val}" for key, val in terms[:8])
        if len(terms) > 8:
            shown += f", ... ({len(terms)} terms)"
        return f"TruncatedSeries({self.caps}, {{{shown}}})"

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Product truncated to the meet of the operand caps.

        Monomial degrees only add, so every retained coefficient is exact on
        the box where both operands are known.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        caps = self.caps.meet(other.caps)
        dx, dy, dz = caps.dx, caps.dy, caps.dz
        out: dict[Degrees, Fraction] = {}
        for (i1, j1, k1), c1 in self._coeffs.items():
            for (i2, j2, k2), c2 in other._coeffs.items():
                i = i1 + i2
                if i > dx:
                    continue
                j = j1 + j2
                if j > dy:
                    continue
                k = k1 + k2
                if k > dz:
                    continue
                key = (i, j, k)
                total = out.get(key, _ZERO) + c1 * c2
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
        return TruncatedSeries(caps, out)
