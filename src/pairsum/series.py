"""Truncated formal power series in three variables over exact rationals.

The variables carry fixed meanings: x marks graph order, y marks size (or
cardinality), and z marks the number of bipartite connected components.  The
package computes with integer labeled counts (:mod:`pairsum.labeled`); this
class is the form in which :mod:`pairsum.graphcounts` returns a generating
function to callers that want the series itself.  A series stores only the
monomials inside a rectangular degree box given by :class:`TruncationCaps`,
and every operation truncates its result to that box.  Because monomial
degrees only ever add, each retained coefficient equals the exact coefficient
of the underlying formal series: truncation discards information but never
corrupts it.

Coefficients are ``fractions.Fraction``; nothing in this module (or the rest
of the package) ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

Degrees = Tuple[int, int, int]
Scalar = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


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

    Instances are immutable; all operations return new series.  Binary
    operations truncate to the component-wise minimum of the operand caps, so
    a coefficient is never reported on a box where an operand was unknown.
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, caps: TruncationCaps) -> "TruncatedSeries":
        return cls(caps)

    @classmethod
    def one(cls, caps: TruncationCaps) -> "TruncatedSeries":
        return cls(caps, {(0, 0, 0): _ONE})

    @classmethod
    def monomial(
        cls, caps: TruncationCaps, key: Degrees, coeff: Scalar = 1
    ) -> "TruncatedSeries":
        return cls(caps, {key: coeff})

    # -- inspection --------------------------------------------------------

    def items(self) -> Iterable[tuple[Degrees, Fraction]]:
        return self._coeffs.items()

    def __len__(self) -> int:
        return len(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def constant_term(self) -> Fraction:
        return self._coeffs.get((0, 0, 0), _ZERO)

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

    # -- cap adjustment ----------------------------------------------------

    def truncated(self, caps: TruncationCaps) -> "TruncatedSeries":
        """Discard monomials outside smaller caps. Caps may only shrink."""
        if caps.dx > self.caps.dx or caps.dy > self.caps.dy or caps.dz > self.caps.dz:
            raise ValueError(f"cannot grow caps from {self.caps} to {caps}")
        kept = {k: v for k, v in self._coeffs.items() if caps.admits(k)}
        return TruncatedSeries(caps, kept)

    # -- ring operations ---------------------------------------------------

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.caps, {k: -v for k, v in self._coeffs.items()})

    def __add__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries(self.caps, {(0, 0, 0): other})
        elif not isinstance(other, TruncatedSeries):
            return NotImplemented
        caps = self.caps.meet(other.caps)
        out = {k: v for k, v in self._coeffs.items() if caps.admits(k)}
        for key, value in other._coeffs.items():
            if not caps.admits(key):
                continue
            total = out.get(key, _ZERO) + value
            if total:
                out[key] = total
            else:
                out.pop(key, None)
        return TruncatedSeries(caps, out)

    __radd__ = __add__

    def __sub__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "TruncatedSeries":
        return (-self) + other

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            scalar = Fraction(other)
            if not scalar:
                return TruncatedSeries.zero(self.caps)
            return TruncatedSeries(
                self.caps, {k: v * scalar for k, v in self._coeffs.items()}
            )
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

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    # -- transcendental operations ----------------------------------------

    def exp(self) -> "TruncatedSeries":
        """exp(f) = sum of f^m / m!; requires zero constant term.

        The lowest total degree of f is at least 1, so f^m vanishes from the
        truncation box once m exceeds dx+dy+dz and the sum is finite.
        """
        if self.constant_term:
            raise ValueError("exp requires a zero constant term")
        caps = self.caps
        result = TruncatedSeries.one(caps)
        term = TruncatedSeries.one(caps)
        bound = caps.dx + caps.dy + caps.dz
        for m in range(1, bound + 1):
            term = term * self / m
            if term.is_zero():
                break
            result = result + term
        return result

    def log(self) -> "TruncatedSeries":
        """log(f) = sum of (-1)^(m+1) (f-1)^m / m; requires constant term 1."""
        if self.constant_term != 1:
            raise ValueError("log requires constant term exactly 1")
        caps = self.caps
        g = self - 1
        power = TruncatedSeries.one(caps)
        result = TruncatedSeries.zero(caps)
        bound = caps.dx + caps.dy + caps.dz
        for m in range(1, bound + 1):
            power = power * g
            if power.is_zero():
                break
            result = result + power / (m if m % 2 else -m)
        return result
