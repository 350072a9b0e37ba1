"""Independent brute-force ground truth at desk scale.

Three oracles, none of which touches the generating-function pipeline, not
even at import: they load only the package root and :mod:`pairsum.polynomial`.

* :func:`whitney_chi` sums (-1)^|B| t^(n-rank B) over every central subset
  of walls, read off :func:`central_census` (exact integer elimination,
  one per pair wall and flat reached in each of floor((n + 2)^2/4) passes,
  one per orbit of pin patterns; guarded at n <= 5);
* :func:`finite_field_count` counts the points of F_q^n lying on no wall,
  by the partner classes {a, 1 - a} their coordinates take, at any n and
  any prime 5 <= q <= 2^31 - 1: O(n^2) integer work once per n, then O(n)
  per prime; :func:`interpolated_chi` rebuilds chi_n from n + 1 such counts;
* :func:`enumerate_graphs` classifies every labeled graph on up to six
  vertices by size, components, bipartite components and isolated vertices
  (one join per edge and state; 24 states at n = 6); :func:`family_by_size`
  reads one of the :data:`GRAPH_FAMILIES` off it.

The subset census and the graph census are forward passes: they add one wall
(or one edge) at a time, vertex by vertex, to every state reached so far,
where a state is what decides the rest of the count (the flat a central
subset cuts out; the components of a graph and a 2-colouring of each
bipartite one).  Subsets that reach the same state are counted together,
so the work grows with the number of states, not with the 2^(walls) or
2^(edges) subsets they summarize.  Both count up to symmetry: the subset
census runs once per orbit of pin patterns under relabelling and x -> 1 - x,
and the graph census merges relabelled states after each vertex.  Every
oracle is serial, pure Python, deterministic and exact in plain integers.

Centrality is decided by exact linear algebra: a wall set has a common
point exactly when the rank of the stacked normal matrix equals the rank of
the matrix augmented with the constants.  No floating point anywhere.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import islice
from math import comb, gcd
from typing import Any, Callable, Iterable, Optional, Sequence, Tuple

from . import GRAPH_CENSUS_LIMIT
from .polynomial import IntPolynomial

# The largest n the subset census runs at by default (the graph census's,
# GRAPH_CENSUS_LIMIT, is at the package root).
SUBSET_SCAN_LIMIT = 5
# The largest prime a point count accepts, itself a prime, and below the
# 3,215,031,751 up to which the Miller-Rabin test in _is_prime is exact.
MAX_VERIFICATION_PRIME = 2**31 - 1

Row = Tuple[int, ...]
State = Tuple[Tuple[int, Row], ...]  # (pivot column, reduced row), sorted by pivot


# -- exact elimination -----------------------------------------------------


def _primitive(row: Sequence[int], pivot: int) -> Row:
    """row divided by the gcd of its entries, signed so that row[pivot] > 0."""
    g = gcd(*row) if row[pivot] > 0 else -gcd(*row)
    return tuple(row) if g == 1 else tuple([a // g for a in row])


def _insert(state: State, row: Row) -> Optional[State]:
    """Insert an augmented row (coefficients, then the constant) into a fully
    reduced state.  Returns the new state; the same state when the row is
    linearly dependent on it; or None when the walls share no point.

    The state is persistent and canonical: callers may keep using the old
    value, and equal flats give equal states, which the subset census relies
    on to merge the subsets that reach the same flat.  Its rank is its length.
    """
    r = list(row)
    for pivot, erow in state:
        c = r[pivot]
        if c:
            lead = erow[pivot]
            r = [a * lead - b * c for a, b in zip(r, erow)]
    pivot = next((idx for idx, a in enumerate(r) if a), None)
    if pivot is None:
        return state  # linearly dependent, still consistent
    if pivot == len(r) - 1:
        return None  # 0 = nonzero constant: no common point
    reduced = _primitive(r, pivot)
    # keep the state fully reduced: clear the new pivot column everywhere
    lead = reduced[pivot]
    rebuilt = [(pivot, reduced)]
    for p, erow in state:
        c = erow[pivot]
        if c:
            erow = _primitive([a * lead - b * c for a, b in zip(erow, reduced)], p)
        rebuilt.append((p, erow))
    rebuilt.sort()
    return tuple(rebuilt)


# -- forward passes ----------------------------------------------------------


def _forward_pass(states: dict, steps: Iterable, join: Callable[[Any, Any], Any]) -> dict:
    """Count subsets of steps by the state they reach and their size.

    Starts from the counts states, {state: {size: count}}, and returns them
    in the same form.  Each step either stays out, or joins through
    join(state, step), which returns the new state, or None to drop the
    branch.  Subsets that reach the same state share its entry, so the work
    grows with the number of distinct states rather than with the number of
    subsets.
    """
    for step in steps:
        reached: dict = {}
        for state, sizes in states.items():
            for target, shift in ((state, 0), (join(state, step), 1)):
                if target is None:
                    continue
                counts = reached.setdefault(target, {})
                for size, count in sizes.items():
                    counts[size + shift] = counts.get(size + shift, 0) + count
        states = reached
    return states


# -- central subset census -------------------------------------------------


def _wall(n: int, support: set[int], constant: int) -> Row:
    """The augmented row of the wall sum(x_t for t in support) = constant."""
    return (*(int(t in support) for t in range(n)), constant)


def _arrangement_rows(n: int) -> list[Row]:
    """The walls as augmented rows, vertex by vertex: for each v, x_v = 0,
    x_v = 1, then x_u + x_v = 1 for every u < v.  No command runs it: it is
    the reference that the tests compare the census and the point counts against."""
    rows: list[Row] = []
    for v in range(n):
        rows += [_wall(n, {v}, 0), _wall(n, {v}, 1)]
        rows += [_wall(n, {u, v}, 1) for u in range(v)]
    return rows


def _guard(n: int, limit: int, what: str,
           instead: str = "finite_field_count for spot checks") -> None:
    """The size rule of the three exhaustive oracles: 1 <= n <= limit."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > limit:
        raise ValueError(
            f"{what} and is guarded at n <= {limit}; pass limit={n} to override, "
            f"or use {instead} at larger n"
        )


def central_census(n: int, *, limit: int = SUBSET_SCAN_LIMIT) -> Counter:
    """Number of central wall subsets by (rank, cardinality).

    A central subset holds at most one pin (x_v = 0 or x_v = 1) per vertex.
    Relabelling the coordinates and the flip x -> 1 - x map walls to walls,
    fix the pair walls x_u + x_v = 1 as a set and keep rank and size, so one
    forward pass over the pair walls serves each orbit of pin patterns: it
    starts from the flat of vertices 0..zeros-1 on x = 0 and the next ones
    on x = 1 (zeros >= ones), and counts n!/(zeros! ones! free!) times, twice
    that when zeros != ones.  The floor((n + 2)^2/4) passes make 1,033
    eliminations at n = 5 and 6,676 at n = 6, against 4,277 and 30,957 for
    one pass over every wall.
    """
    _guard(n, limit, f"central_census enumerates all 2^{comb(n, 2) + 2 * n} wall subsets")
    pairs = [_wall(n, {u, v}, 1) for v in range(n) for u in range(v)]
    totals: Counter = Counter()
    for zeros in range(n + 1):
        for ones in range(min(zeros, n - zeros) + 1):
            pins: State = ()
            for v in range(zeros + ones):
                pins = _insert(pins, _wall(n, {v}, int(v >= zeros)))
            weight = comb(n, zeros) * comb(n - zeros, ones) * (1 + (zeros != ones))
            for state, sizes in _forward_pass({pins: {0: 1}}, pairs, _insert).items():
                for size, count in sizes.items():
                    totals[len(state), size + zeros + ones] += weight * count
    return totals


def whitney_chi(n: int, *, limit: int = SUBSET_SCAN_LIMIT) -> IntPolynomial:
    """Characteristic polynomial by direct summation over central subsets."""
    _guard(n, limit, f"whitney_chi enumerates all 2^{comb(n, 2) + 2 * n} wall subsets")
    coeffs = [0] * (n + 1)
    for (rank, size), count in central_census(n, limit=limit).items():
        coeffs[n - rank] += -count if size % 2 else count
    return IntPolynomial(coeffs)


# -- finite-field point counting --------------------------------------------


def _is_prime(q: int) -> bool:
    """Miller-Rabin to the bases 2, 3, 5 and 7, which is exact for every q
    below 3,215,031,751, so for every q up to MAX_VERIFICATION_PRIME."""
    if q < 11:
        return q in (2, 3, 5, 7)
    odd, twos = q - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for base in (2, 3, 5, 7):
        x = pow(base, odd, q)
        if x != 1 and all(pow(x, 1 << k, q) != q - 1 for k in range(twos)):
            return False  # base witnesses that q is composite
    return True


def is_verification_prime(q: int) -> bool:
    """Whether :func:`finite_field_count` accepts q: a prime from 5 to
    :data:`MAX_VERIFICATION_PRIME`.  The bound is tested first, so q of any
    size is answered at once."""
    return 5 <= q <= MAX_VERIFICATION_PRIME and _is_prime(q)


def default_verification_primes(n: int) -> tuple[int, ...]:
    """Primes used when cross-checking chi(q) against point counts.

    The first max(4, n + 1) primes from 5 (5..13 up to n = 3, 5..47 at
    n = 12): two polynomials of degree n that agree at n + 1 points are
    equal, so the counts pin every coefficient.  n = 5 keeps (23, 29, 31),
    the primes its pinned benchmark output was recorded with.
    """
    if n == 5:
        return (23, 29, 31)
    odd = range(5, MAX_VERIFICATION_PRIME + 1, 2)
    return tuple(islice(filter(_is_prime, odd), max(4, n + 1)))


@lru_cache(maxsize=1)
def _placements(n: int) -> tuple[int, ...]:
    """onto(n, j) + n onto(n - 1, j) for j = 0..n: the rows every prime shares."""
    onto, below = [1], [0]
    for m in range(1, n + 1):
        below = onto + [0]
        onto = [0] + [j * (below[j - 1] + below[j]) for j in range(1, m + 1)]
    return tuple(a + n * b for a, b in zip(onto, below))


def finite_field_count(n: int, q: int) -> int:
    """Number of points of F_q^n lying on none of the walls.

    A point is off the walls when no coordinate is 0 or 1, no two
    coordinates are partners a and 1 - a, and at most one is 1/2 (its own
    partner).  The other q - 3 values form (q - 3)/2 partner classes
    {a, 1 - a}.  The m coordinates not on 1/2 cover some j classes, one side
    of each, so they can be placed in S(m) = sum_j C((q-3)/2, j) 2^j
    onto(m, j) ways, where onto(m, j) = j! S2(m, j) counts the maps of m
    labelled coordinates onto j labelled classes.  With 1/2 unused or held
    by one of the n coordinates, the count is S(n) + n S(n-1).  The onto rows
    do not depend on q and are built once per n, so each count is O(n)
    integer work that visits no point, at any n.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not is_verification_prime(q):
        raise ValueError(f"q must be a prime from 5 to {MAX_VERIFICATION_PRIME}")
    classes = (q - 3) // 2  # the partner classes {a, 1 - a} other than {1/2}
    total = 0
    weight = 1  # C(classes, j) 2^j: pick j classes and a side of each
    for j, ways in enumerate(_placements(n)):
        total += weight * ways
        weight = weight * 2 * (classes - j) // (j + 1)
    return total


def interpolate_counts(points: Sequence[tuple[int, int]], n: int) -> IntPolynomial:
    """Reconstruct a degree-n integer polynomial from (q, value) samples.

    Newton interpolation in integers through all k points: divided
    differences, then a Horner expansion into monomial coefficients, each
    O(k^2) integer operations.  At integer nodes every divided difference of
    the samples is an integer exactly when they lie on a polynomial with
    integer coefficients, so an inexact division ends the work at once.  With
    more than n+1 samples this doubles as a consistency check: the result
    must come out with integer coefficients and degree exactly n, or the
    samples do not lie on any such polynomial and a ValueError explains which
    property failed.  A q may repeat only with the same value.
    """
    values: dict[int, int] = {}
    for q, value in points:
        if values.setdefault(q, value) != value:
            raise ValueError(f"q = {q} has two different counts, {values[q]} and {value}")
    xs = sorted(values)
    if len(xs) < n + 1:
        raise ValueError(
            f"need at least {n + 1} distinct sample points for degree {n}, "
            f"got {len(xs)}"
        )
    # newton[i] becomes the divided difference f[x_0, ..., x_i]
    newton = [values[x] for x in xs]
    for step in range(1, len(xs)):
        for i in range(len(xs) - 1, step - 1, -1):
            newton[i], inexact = divmod(newton[i] - newton[i - 1], xs[i] - xs[i - step])
            if inexact:
                raise ValueError("samples do not interpolate to integer coefficients")
    # Horner, from the top term down: coeffs = newton[i] + (x - x_i) * coeffs
    coeffs: list[int] = []
    for i in range(len(xs) - 1, -1, -1):
        coeffs = [newton[i], *coeffs]
        for k in range(len(coeffs) - 1):
            coeffs[k] -= xs[i] * coeffs[k + 1]
    poly = IntPolynomial(coeffs)
    if poly.degree != n:
        raise ValueError(f"samples interpolate to degree {poly.degree}, expected {n}")
    return poly


def interpolated_chi(n: int, primes: Sequence[int]) -> IntPolynomial:
    """Characteristic polynomial reconstructed purely from point counts.

    Counts the complement points over at least n+1 prime fields and
    interpolates, which checks every coefficient at once at any n: for
    n + 1 primes that is O(n^2) big-integer work, the onto rows once, O(n)
    per count and O(n^2) for the Newton interpolation.
    """
    points = [(q, finite_field_count(n, q)) for q in sorted(set(primes))]
    return interpolate_counts(points, n)


# -- exhaustive graph census -------------------------------------------------


# The census families, each by the test that a graph's (components, bipartite
# components, isolated vertices) passes; verify prints their checks by these names.
GRAPH_FAMILIES: dict[str, Callable[[int, int, int], bool]] = {
    "connected_bipartite": lambda comps, bip, iso: comps == 1 and bip == 1,
    "connected": lambda comps, bip, iso: comps == 1,
    "no_isolated": lambda comps, bip, iso: iso == 0,
    "bipartite_no_isolated": lambda comps, bip, iso: bip == comps and iso == 0,
}


def family_by_size(census: Counter, name: str) -> Counter:
    """The graphs of an :func:`enumerate_graphs` census in the family name, by size."""
    keep = GRAPH_FAMILIES[name]
    out: Counter = Counter()
    for (size, comps, bip, iso), count in census.items():
        if keep(comps, bip, iso):
            out[size] += count
    return out


def _join_edge(code: Tuple[int, ...], edge: tuple[int, int]) -> Tuple[int, ...]:
    """The graph-census state after adding edge (u, v).

    code[v] = 3 * first + c, where first is the first vertex of v's
    component, c is v's colour relative to first when the component is
    bipartite, and c = 2 throughout a component with an odd cycle, whose
    colouring decides nothing.  So the state is the same whatever order the
    graph's edges came in.
    """
    u, v = edge
    fu, su = divmod(code[u], 3)
    fv, sv = divmod(code[v], 3)
    low = min(fu, fv)
    if fu == fv:
        if su != sv or su == 2:
            return code  # a proper edge, or one inside an odd component
    elif su != 2 and sv != 2:
        # two bipartite components: the later one joins the earlier one, its
        # colours flipped when the edge joins equal colours
        high, flip = max(fu, fv), su ^ sv ^ 1
        return tuple([3 * low + (c % 3 ^ flip) if c // 3 == high else c for c in code])
    # the edge closes an odd cycle, or joins a component that has one
    return tuple([3 * low + 2 if c // 3 in (fu, fv) else c for c in code])


def _canonical(code: Tuple[int, ...], m: int) -> Tuple[int, ...]:
    """code with vertices 0..m-1 relabelled: the components sorted by type (an
    odd one by its size, a bipartite one by its colour-class sizes) and laid
    out in that order, the larger colour class first."""
    kinds: dict[int, list[int]] = {}
    for c in code[:m]:
        kinds.setdefault(c // 3, [0, 0, 0])[c % 3] += 1
    out: list[int] = []
    for big, small, odd in sorted((max(a, b), min(a, b), odd) for a, b, odd in kinds.values()):
        first = 3 * len(out)
        out += [first + 2] * odd if odd else [first] * big + [first + 1] * small
    return (*out, *code[m:])


def enumerate_graphs(n: int, *, limit: int = GRAPH_CENSUS_LIMIT) -> Counter:
    """Number of labeled graphs on [n] by (size, components, bipartite
    components, isolated vertices), over all 2^C(n,2) of them.

    A forward pass over the edges, vertex by vertex ((u, v) for every u < v,
    as v grows), the state of a graph being its components, which of them
    are bipartite, and a 2-colouring of each bipartite one.  Once the edges
    among vertices 0..v are in, the edges still to come treat those vertices
    alike, so relabelling them changes no final class: after each vertex
    every state becomes its canonical relabelling and the states that meet
    are counted together.  A state is then a multiset of component types: 24
    of them at n = 6 and 39 at n = 7, against 924 and 5,952 unmerged.
    """
    _guard(n, limit, f"enumerate_graphs visits 2^{comb(n, 2)} graphs", "the graphcounts tables")
    states: dict = {tuple(range(0, 3 * n, 3)): {0: 1}}
    for v in range(1, n):
        merged: dict = {}
        for code, sizes in _forward_pass(states, [(u, v) for u in range(v)], _join_edge).items():
            into = merged.setdefault(_canonical(code, v + 1), {})
            for size, count in sizes.items():
                into[size] = into.get(size, 0) + count
        states = merged
    counts: Counter = Counter()
    for code, sizes in states.items():
        firsts = [c // 3 for c in code]
        comps = sum(f == v for v, f in enumerate(firsts))
        bip = sum(c == 3 * v for v, c in enumerate(code))
        iso = sum(firsts.count(v) == 1 for v in range(n))
        for size, count in sizes.items():
            counts[size, comps, bip, iso] += count
    return counts
