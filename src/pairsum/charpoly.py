"""Characteristic polynomials and chamber counts of the pair-sum arrangement.

For the arrangement in R^n with walls x_i+x_j=1 (i<j), x_k=0 and x_l=1, the
characteristic polynomial is

    chi_n(t) = sum over central wall subsets B of (-1)^|B| t^(n - rank B).

Grouping subsets by their central graph, :func:`_assemble` sums over
cardinality first, by reading the Gamma of :mod:`pairsum.central` at
y = -1, and then plants each graph into [n].  The empty subarrangement
contributes the monic leading term t^n.  At y = -1 each entry of Gamma
holds at most m/2 + 1 terms and each entry of the sum at most two, so the
one exp costs O(n^3) multiplications of integers of O(n log n) bits, and
chi(n) with it.

Zaslavsky's theorem converts chi_n into chamber counts: the number of
chambers is (-1)^n chi_n(-1) and the number of relatively bounded chambers
is (-1)^n chi_n(+1).
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .central import Mode, gamma
from .labeled import Labeled
from .polynomial import IntPolynomial  # re-exported: pairsum.charpoly.IntPolynomial


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


def _assemble(series: Labeled, n: int) -> IntPolynomial:
    """chi_n(t) = sum over m <= n and v of C(n, m) s(m, v) t^(n - m + v),
    where series[m][(0, v)] = s(m, v) is Gamma at y = -1.

    A central graph on m vertices with v type-0 components has rank m - v
    and is planted into [n] in C(n, m) ways.  Entries above n are not read.
    """
    coeffs = [0] * (n + 1)
    for m, entry in enumerate(series[: n + 1]):
        plantings = comb(n, m)
        for (_, v), s in entry.items():
            coeffs[n - m + v] += plantings * s
    return IntPolynomial(coeffs)


def chi(n: int, mode: Mode = Mode.CORRECTED) -> IntPolynomial:
    """Characteristic polynomial of the rank-n arrangement."""
    return _assemble(gamma(n, mode, signed=True), n)


def chambers(n: int, mode: Mode = Mode.CORRECTED) -> ChamberCounts:
    """Chamber counts of the rank-n arrangement via Zaslavsky."""
    return ChamberCounts.of(chi(n, mode))


def chi_table(n_max: int, mode: Mode = Mode.CORRECTED) -> list[IntPolynomial]:
    """[chi(2), ..., chi(n_max)], sharing one signed Gamma on n_max vertices.

    The central-graph counts do not depend on n, so a single series on at
    most n_max vertices serves every smaller rank.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    series = gamma(n_max, mode, signed=True)
    return [_assemble(series, n) for n in range(2, n_max + 1)]


def signs_alternate(poly: IntPolynomial) -> bool:
    """True when the coefficients alternate strictly in sign from the leading
    term down (every coefficient nonzero).

    This holds for the characteristic polynomial of any real arrangement
    whose rank equals its dimension, so it is a cheap sanity diagnostic.
    """
    coeffs = poly.coeffs
    return all(coeffs) and all((a > 0) != (b > 0) for a, b in zip(coeffs, coeffs[1:]))
