"""Labeled-count series: exponential generating functions with integer entries.

A labeled-count series is a list indexed by vertex count m; entry m is a
sparse polynomial ``{(c, v): count}`` holding m! times the coefficient of
x^m y^c z^v of an exponential generating function.  Storing the labeled
counts instead of the rational coefficients keeps every operation in exact
integer arithmetic: the binomial convolution below is the EGF product, and
the exponential formula in its labeled-count form (Stanley, *Enumerative
Combinatorics* Vol. 2, Sec. 5.1)

    H_m = sum_{k=1}^{m} C(m-1, k-1) F_k H_{m-k}      (H = exp F)

gives exp directly and, solved for F_m, gives log.  Every operation keeps
only the terms with y-degree c <= cap; degrees only add, so each retained
entry is exact.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Tuple

Poly = Dict[Tuple[int, int], int]
Labeled = List[Poly]

ONE: Poly = {(0, 0): 1}


def _add_product(acc: Poly, a: Poly, b: Poly, weight: int, cap: int) -> None:
    """acc += weight * a * b, dropping terms of y-degree above cap."""
    b_items = sorted(b.items())
    for (c1, v1), x in a.items():
        room = cap - c1
        x *= weight
        for (c2, v2), y in b_items:
            if c2 > room:
                break
            key = (c1 + c2, v1 + v2)
            acc[key] = acc.get(key, 0) + x * y


def _nonzero(poly: Poly) -> Poly:
    return {key: value for key, value in poly.items() if value}


def difference(a: Labeled, b: Labeled) -> Labeled:
    """Entry-wise a - b over the vertex counts both series cover."""
    out: Labeled = []
    for entry_a, entry_b in zip(a, b):
        entry = dict(entry_a)
        for key, value in entry_b.items():
            entry[key] = entry.get(key, 0) - value
        out.append(_nonzero(entry))
    return out


def product(a: Labeled, b: Labeled, cap: int) -> Labeled:
    """EGF product: entry m is sum_k C(m, k) a_k b_{m-k}."""
    out: Labeled = []
    for m in range(min(len(a), len(b))):
        acc: Poly = {}
        for k in range(m + 1):
            if a[k] and b[m - k]:
                _add_product(acc, a[k], b[m - k], comb(m, k), cap)
        out.append(_nonzero(acc))
    return out


def exp(f: Labeled, cap: int) -> Labeled:
    """exp of a series with no vertex-count-0 term."""
    if f and f[0]:
        raise ValueError("exp requires an empty vertex-count-0 entry")
    h: Labeled = [dict(ONE)]
    for m in range(1, len(f)):
        acc: Poly = {}
        for k in range(1, m + 1):
            if f[k] and h[m - k]:
                _add_product(acc, f[k], h[m - k], comb(m - 1, k - 1), cap)
        h.append(_nonzero(acc))
    return h


def log(h: Labeled, cap: int) -> Labeled:
    """log of a series whose vertex-count-0 entry is exactly 1."""
    if not h or h[0] != ONE:
        raise ValueError("log requires the vertex-count-0 entry to be exactly 1")
    f: Labeled = [{}]
    for m in range(1, len(h)):
        acc: Poly = {key: value for key, value in h[m].items() if key[0] <= cap}
        for k in range(1, m):
            if f[k] and h[m - k]:
                _add_product(acc, f[k], h[m - k], -comb(m - 1, k - 1), cap)
        f.append(_nonzero(acc))
    return f
