"""Characteristic polynomials and chamber counts of the pair-sum arrangement.

For the arrangement in R^n with walls x_i+x_j=1 (i<j), x_k=0 and x_l=1, the
characteristic polynomial is

    chi_n(t) = sum over central wall subsets B of (-1)^|B| t^(n - rank B).

Grouping subsets by the rank and cardinality of their central graph gives
the t^(n-r) coefficient as sum_c (-1)^c gamma_{r,c}, with gamma_{r,c}
assembled from the central-graph counts of :mod:`pairsum.central`.  The sum
over cardinality is taken first, by evaluating Gamma at y = -1
(:func:`pairsum.central.signed_gamma_product`): a central graph on m
vertices with v bipartite uncolored components has rank m - v and is
planted into [n] in C(n, m) ways, so

    chi_n(t) = sum over m <= n and v of C(n, m) s(m, v) t^(n - m + v)

where s(m, v) is the signed count.  The empty subarrangement contributes
the monic leading term t^n.  At y = -1 each entry of Gamma holds at most
m/2 + 1 terms and each entry of the sum at most two, so the one exp costs
O(n^3) multiplications of integers of O(n log n) bits, and chi(n) with it.

Zaslavsky's theorem converts chi_n into chamber counts: the number of
chambers is (-1)^n chi_n(-1) and the number of relatively bounded chambers
is (-1)^n chi_n(+1).
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Mapping, NamedTuple, Tuple

from .central import Mode, signed_gamma_product


class IntPolynomial:
    """Univariate polynomial in t with arbitrary-precision integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        values = [int(c) for c in coeffs]
        while len(values) > 1 and values[-1] == 0:
            values.pop()
        if not values:
            values = [0]
        self._coeffs = tuple(values)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients in ascending powers of t."""
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, power: int) -> int:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return 0

    def __call__(self, t: int) -> int:
        value = 0
        for c in reversed(self._coeffs):
            value = value * t + c
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)})"

    def _render(self, power_fmt) -> str:
        if all(c == 0 for c in self._coeffs):
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self._coeffs[power]
            if c == 0:
                continue
            magnitude = abs(c)
            if power == 0:
                body = str(magnitude)
            else:
                body = "" if magnitude == 1 else str(magnitude)
                body += power_fmt(power)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self._render(lambda p: "t" if p == 1 else f"t^{p}")

    def latex(self) -> str:
        return self._render(lambda p: "t" if p == 1 else f"t^{{{p}}}" if p >= 10 else f"t^{p}")


class ChamberCounts(NamedTuple):
    """Zaslavsky evaluations: total chambers and relatively bounded chambers.

    For a genuine arrangement total >= bounded >= 0 and total >= 1; the
    published-formula mode can violate this for n >= 7, so the values are
    carried unchecked and validated only where counts are asserted.
    """

    total: int
    bounded: int

    @classmethod
    def of(cls, poly: IntPolynomial) -> ChamberCounts:
        """Zaslavsky: ((-1)^n chi(-1), (-1)^n chi(+1)) for chi of degree n."""
        sign = -1 if poly.degree % 2 else 1
        return cls(total=sign * poly(-1), bounded=sign * poly(1))


def _assemble(signed: Mapping[Tuple[int, int], int], n: int) -> IntPolynomial:
    """chi_n(t) = sum over m <= n and v of C(n, m) s(m, v) t^(n - m + v).

    A central graph on m vertices with v type-0 components has rank m - v
    and is planted into [n] in C(n, m) ways.
    """
    plantings = [comb(n, m) for m in range(n + 1)]
    coeffs = [0] * (n + 1)
    for (m, v), s in signed.items():
        if m <= n:
            coeffs[n - m + v] += plantings[m] * s
    return IntPolynomial(coeffs)


def chi(n: int, mode: Mode = Mode.CORRECTED) -> IntPolynomial:
    """Characteristic polynomial of the rank-n arrangement."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return _assemble(signed_gamma_product(n, mode), n)


def chambers(n: int, mode: Mode = Mode.CORRECTED) -> ChamberCounts:
    """Chamber counts of the rank-n arrangement via Zaslavsky."""
    return ChamberCounts.of(chi(n, mode))


def chi_table(n_max: int, mode: Mode = Mode.CORRECTED) -> list[IntPolynomial]:
    """[chi(2), ..., chi(n_max)], sharing one signed product on n_max vertices.

    The central-graph counts do not depend on n, so a single product on at
    most n_max vertices serves every smaller rank.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    signed = signed_gamma_product(n_max, mode)
    return [_assemble(signed, n) for n in range(2, n_max + 1)]


def signs_alternate(poly: IntPolynomial) -> bool:
    """True when the coefficients alternate strictly in sign from the leading
    term down (every coefficient nonzero).

    This holds for the characteristic polynomial of any real arrangement
    whose rank equals its dimension, so it is a cheap sanity diagnostic.
    """
    degree = poly.degree
    lead = poly.coefficient(degree)
    if lead == 0:
        return False
    expected = 1 if lead > 0 else -1
    for power in range(degree, -1, -1):
        c = poly.coefficient(power)
        if c == 0 or (c > 0) != (expected > 0):
            return False
        expected = -expected
    return True
