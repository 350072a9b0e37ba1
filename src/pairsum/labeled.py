"""Labeled-count series: exponential generating functions with integer entries.

A labeled-count series is a list indexed by vertex count m; entry m is a
sparse polynomial ``{(c, v): count}`` holding m! times the coefficient of
x^m y^c z^v of an exponential generating function.  Storing the labeled
counts instead of the rational coefficients keeps every operation in exact
integer arithmetic: the binomial convolution below is the EGF product, and
the exponential formula in its labeled-count form (Stanley, *Enumerative
Combinatorics* Vol. 2, Sec. 5.1)

    H_m = F_m + S_m,   S_m = sum_{k=1}^{m-1} C(m-1, k-1) F_k H_{m-k}   (H = exp F)

(F_m is the k = m term, as H_0 = 1) is one step, :func:`_step`, which exp
reads forwards and log solves for F_m = H_m - S_m.  Only the vertex count
truncates: every entry m < len is exact, whatever its y-degree.
"""

from __future__ import annotations

from math import comb
from typing import Dict, List, Tuple

Poly = Dict[Tuple[int, int], int]
Labeled = List[Poly]

ONE: Poly = {(0, 0): 1}


def _add_product(acc: Poly, a: Poly, b: Poly, weight: int) -> None:
    """acc += weight * a * b."""
    b_items = list(b.items())  # a list iterates faster than the dict view
    for (c1, v1), x in a.items():
        x *= weight
        for (c2, v2), y in b_items:
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


def product(a: Labeled, b: Labeled) -> Labeled:
    """EGF product: entry m is sum_k C(m, k) a_k b_{m-k}.  No command runs it:
    it is the reference that the tests compare exp, log and Gamma against."""
    out: Labeled = []
    for m in range(min(len(a), len(b))):
        acc: Poly = {}
        for k in range(m + 1):
            if a[k] and b[m - k]:
                _add_product(acc, a[k], b[m - k], comb(m, k))
        out.append(_nonzero(acc))
    return out


def _step(f: Labeled, h: Labeled, m: int, known: Poly, sign: int) -> Poly:
    """known + sign * S_m, with S_m = sum_{k=1}^{m-1} C(m-1, k-1) f_k h_{m-k}."""
    acc: Poly = dict(known)
    for k in range(1, m):
        if f[k] and h[m - k]:
            _add_product(acc, f[k], h[m - k], sign * comb(m - 1, k - 1))
    return _nonzero(acc)


def exp(f: Labeled) -> Labeled:
    """exp of a series with no vertex-count-0 term."""
    if f and f[0]:
        raise ValueError("exp requires an empty vertex-count-0 entry")
    h: Labeled = [dict(ONE)]
    for m in range(1, len(f)):
        h.append(_step(f, h, m, f[m], 1))
    return h


def log(h: Labeled) -> Labeled:
    """log of a series whose vertex-count-0 entry is exactly 1."""
    if not h or h[0] != ONE:
        raise ValueError("log requires the vertex-count-0 entry to be exactly 1")
    f: Labeled = [{}]
    for m in range(1, len(h)):
        f.append(_step(f, h, m, h[m], -1))
    return f
