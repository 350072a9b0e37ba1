"""Previously published reference values for this arrangement family.

The original publication lists characteristic polynomials for n = 2..10 and
a chamber-count column for n = 3..10.  Several of those rows fail structural
sanity checks (the n = 4 row implies a negative bounded-chamber count, the
rows from n = 7 on do not alternate in sign), and from n = 4 on they
disagree with the brute-force oracles, so this package treats them purely as
comparison targets: the ``table`` and ``verify`` commands diff computed
results against them and itemize every difference.

No Gamma reproduces the rows in either mode: with d_n the published row
minus chi_n, sum_n (-1)^(m-n) C(m, n) d_n[t^(n-3)] is the difference in
signed counts of central graphs on m vertices with m - 3 type-0 components,
and it is 13 (-1)^m C(m, 4) for m = 4..10.  Every type-0 component has at
least two vertices, so no central graph has more than m/2 of them.  Such a
difference must therefore be 0 from m = 7 on, and it is not.

The chamber column is the value (-1)^n chi(-1), which by Zaslavsky's theorem
is the *total* number of chambers (the source captioned it as bounded
chambers; the values are reported here under the theorem's reading).
"""

from __future__ import annotations

from typing import Optional

from .polynomial import IntPolynomial

# ascending powers of t: coeffs[k] multiplies t^k
_PUBLISHED_CHI: dict[int, tuple[int, ...]] = {
    2: (6, -5, 1),
    3: (-27, 27, -9, 1),
    4: (104, -168, 75, -14, 1),
    5: (-3649, 1465, -695, 165, -20, 1),
    6: (97605, -9285, 7365, -2010, 315, -27, 1),
    7: (-3082889, -252245, -92386, 26565, -4865, 546, -35, 1),
    8: (104683724, 22977452, 1959447, -382662, 78365, -10402, 882, -44, 1),
    9: (
        866974176,
        1112954274,
        105101892,
        8421021,
        -1338708,
        200403,
        -20286,
        1350,
        -54,
        1,
    ),
    10: (
        142378721936,
        71654230070,
        7605232140,
        52962615,
        24881535,
        -4008081,
        460215,
        -36840,
        1980,
        -65,
        1,
    ),
}

PUBLISHED_CHAMBER_TOTAL: dict[int, int] = {
    3: 64,
    4: 362,
    5: 5995,
    6: 116608,
    7: 170770,
    8: 84138075,
    9: 150860029,
    10: 78306150108,
}


def published_chi(n: int) -> Optional[IntPolynomial]:
    """The published characteristic polynomial for n, or None if unlisted."""
    coeffs = _PUBLISHED_CHI.get(n)
    return IntPolynomial(coeffs) if coeffs is not None else None


def published_chamber_total(n: int) -> Optional[int]:
    return PUBLISHED_CHAMBER_TOTAL.get(n)


def diff_polynomials(
    computed: IntPolynomial, reference: IntPolynomial
) -> list[tuple[int, int, int]]:
    """Coefficient differences as (power, computed, reference), highest first."""
    out = []
    for power in range(max(computed.degree, reference.degree), -1, -1):
        a = computed.coefficient(power)
        b = reference.coefficient(power)
        if a != b:
            out.append((power, a, b))
    return out
