"""Independent brute-force ground truth at desk scale.

Three oracles, none of which touches the generating-function pipeline:

* :func:`whitney_chi` sums (-1)^|B| t^(n-rank B) over every central subset
  of walls, read off :func:`central_census` (exact integer elimination;
  guarded at n <= 5, n = 6 takes about 0.2 s);
* :func:`finite_field_count` counts the points of F_q^n lying on no wall,
  by the partner classes {a, 1 - a} their coordinates take, at any n and
  any prime 5 <= q <= 2^31 - 1: O(n^2) integer work once per n, then O(n)
  per prime; :func:`interpolated_chi` rebuilds chi_n from n + 1 such counts;
* :func:`enumerate_graphs` classifies every labeled graph on up to six
  vertices by size, components, bipartite components and isolated vertices.

The subset census and the graph census are forward passes: they add one wall
(or one edge) at a time to every state reached so far, where a state is what
decides the rest of the count (the flat a central subset cuts out; the
components and 2-colourings of a graph).  Subsets that reach the same state
are counted together, so the work grows with the number of states, not with
the 2^(walls) or 2^(edges) subsets they summarize.  Every oracle is serial,
pure Python and deterministic.

Centrality is decided by exact linear algebra: a wall set has a common
point exactly when the rank of the stacked normal matrix equals the rank of
the matrix augmented with the constants.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
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


class Hyperplane(NamedTuple):
    """One affine wall: normal . x = constant.

    kind is "pair" (x_i + x_j = 1), "zero" (x_i = 0) or "one" (x_i = 1);
    i and j are 0-based coordinate indices.
    """

    kind: str
    i: int
    j: Optional[int]
    normal: Tuple[int, ...]
    constant: int

    @property
    def label(self) -> str:
        if self.kind == "pair":
            return f"x{self.i + 1}+x{self.j + 1}=1"
        if self.kind == "zero":
            return f"x{self.i + 1}=0"
        return f"x{self.i + 1}=1"


def build_arrangement(n: int) -> list[Hyperplane]:
    """All walls of the rank-n arrangement in deterministic order:
    pair walls (i<j, lexicographic), then x_i=0, then x_i=1."""
    if n < 1:
        raise ValueError("n must be at least 1")
    walls: list[Hyperplane] = []
    for i, j in combinations(range(n), 2):
        normal = tuple(1 if t in (i, j) else 0 for t in range(n))
        walls.append(Hyperplane("pair", i, j, normal, 1))
    for i in range(n):
        normal = tuple(1 if t == i else 0 for t in range(n))
        walls.append(Hyperplane("zero", i, None, normal, 0))
    for i in range(n):
        normal = tuple(1 if t == i else 0 for t in range(n))
        walls.append(Hyperplane("one", i, None, normal, 1))
    return walls


# -- exact elimination -----------------------------------------------------


def _normalize(row: Sequence[int]) -> Optional[Row]:
    g = 0
    for a in row:
        if a:
            g = gcd(g, abs(a))
    if g == 0:
        return None
    if g > 1:
        row = [a // g for a in row]
    return tuple(row)


def _insert(state: State, row: Row, ncols: int) -> tuple[State, bool, bool]:
    """Insert an augmented row (ncols coefficients, then the constant) into a
    fully reduced state.  Returns (new state, rank grew, inconsistent).

    The state is persistent and canonical: callers may keep using the old
    value, and equal flats give equal states, which the subset census relies
    on to merge the subsets that reach the same flat.
    """
    r = list(row)
    for pivot, erow in state:
        c = r[pivot]
        if c:
            lead = erow[pivot]
            r = [a * lead - b * c for a, b in zip(r, erow)]
    reduced = _normalize(r)
    if reduced is None:
        return state, False, False  # linearly dependent, still consistent
    pivot = next((idx for idx in range(ncols) if reduced[idx]), None)
    if pivot is None:
        return state, False, True  # 0 = nonzero constant: no common point
    if reduced[pivot] < 0:
        reduced = tuple(-a for a in reduced)
    # keep the state fully reduced: clear the new pivot column everywhere
    rebuilt: list[tuple[int, Row]] = []
    lead = reduced[pivot]
    for p, erow in state:
        c = erow[pivot]
        if c:
            erow = _normalize([a * lead - b * c for a, b in zip(erow, reduced)])
            if erow[p] < 0:
                erow = tuple(-a for a in erow)
        rebuilt.append((p, erow))
    rebuilt.append((pivot, reduced))
    rebuilt.sort(key=lambda item: item[0])
    return tuple(rebuilt), True, False


def rank_and_centrality(hyperplanes: Iterable[Hyperplane]) -> tuple[int, bool]:
    """Rank of the normal vectors, and whether the walls share a point.

    The rank is that of the coefficient matrix alone; a subset is central
    exactly when no row reduces to 0 = nonzero.
    """
    walls = list(hyperplanes)
    if not walls:
        return 0, True
    n = len(walls[0].normal)
    state: State = ()
    rank = 0
    central = True
    for wall in walls:
        state, grew, bad = _insert(state, (*wall.normal, wall.constant), n)
        rank += grew
        if bad:
            central = False
    return rank, central


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

    def place(w: Hyperplane) -> tuple[int, int, int]:
        return (w.i if w.j is None else w.j, ("zero", "one", "pair").index(w.kind), w.i)

    walls = sorted(build_arrangement(n), key=place)
    return [(*w.normal, w.constant) for w in walls]


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

    def join(state: State, row: Row) -> Optional[State]:
        joined, _, bad = _insert(state, row, n)
        return None if bad else joined

    totals: dict[tuple[int, int], int] = {}
    for state, sizes in _forward_pass((), _arrangement_rows(n), join).items():
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

    Newton interpolation over the rationals through all k points: divided
    differences, then a Horner expansion into monomial coefficients, each
    O(k^2) exact Fraction operations.  With more than n+1 samples this
    doubles as a consistency check: the result must come out with integer
    coefficients and degree exactly n, or the samples do not lie on any such
    polynomial and a ValueError explains which property failed.  A q may
    repeat only with the same value.
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
    newton = [Fraction(values[x]) for x in xs]
    for step in range(1, len(xs)):
        for i in range(len(xs) - 1, step - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) / (xs[i] - xs[i - step])
    # Horner, from the top term down: total = newton[i] + (x - x_i) * total
    total: list[Fraction] = []
    for i in range(len(xs) - 1, -1, -1):
        total = [newton[i], *total]
        for k in range(len(total) - 1):
            total[k] -= xs[i] * total[k + 1]
    if any(c.denominator != 1 for c in total):
        raise ValueError("samples do not interpolate to integer coefficients")
    coeffs = [int(c) for c in total]
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
    interpolates, which checks every coefficient at once at any n: on a
    2-vCPU Xeon the first 201 primes from 5 rebuild chi_200 in about 0.15 s.
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


# (component label per vertex, colour per vertex, bipartite flag per component)
GraphState = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[bool, ...]]


def _join_edge(state: GraphState, edge: tuple[int, int]) -> GraphState:
    """The state after adding edge (u, v).

    Components are labelled in order of their first vertex, and colours are
    relative to that vertex, so the state does not depend on the order in
    which a component's vertices were reached.
    """
    labels, colors, bipartite = state
    u, v = edge
    cu, cv = labels[u], labels[v]
    same = colors[u] == colors[v]
    if cu == cv:
        if not same or not bipartite[cu]:
            return state
        return labels, colors, bipartite[:cu] + (False,) + bipartite[cu + 1 :]
    # the merged component keeps the smaller label, whose first vertex comes
    # first; the other side flips when the edge joins equal colours
    low, high = min(cu, cv), max(cu, cv)
    if same:
        colors = tuple(c ^ (l == high) for l, c in zip(labels, colors))
    labels = tuple(low if l == high else l - (l > high) for l in labels)
    merged = bipartite[low] and bipartite[high]
    bipartite = (
        bipartite[:low] + (merged,) + bipartite[low + 1 : high] + bipartite[high + 1 :]
    )
    return labels, colors, bipartite


def enumerate_graphs(n: int, *, limit: int = GRAPH_CENSUS_LIMIT) -> GraphCensus:
    """Classify all 2^C(n,2) labeled graphs on [n].

    One forward pass over the edges, the state of a graph being its
    components, which of them are bipartite, and a 2-colouring of each (proper
    on the bipartite ones).  Graphs with the same state share one entry, so
    the pass visits states, not graphs.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > limit:
        raise ValueError(
            f"enumerate_graphs visits 2^{comb(n, 2)} graphs and is guarded at "
            f"n <= {limit}; pass limit={n} to override"
        )
    start: GraphState = (tuple(range(n)), (0,) * n, (True,) * n)
    states = _forward_pass(start, combinations(range(n), 2), _join_edge)
    counts: dict[tuple[int, int, int, int], int] = {}
    for (labels, _, bipartite), sizes in states.items():
        iso = sum(labels.count(label) == 1 for label in range(len(bipartite)))
        for size, count in sizes.items():
            key = (size, len(bipartite), sum(bipartite), iso)
            counts[key] = counts.get(key, 0) + count
    return GraphCensus(order=n, entries=CountTable(counts))
