"""Independent brute-force ground truth at desk scale.

Three oracles, none of which touches the generating-function pipeline:

* :func:`whitney_chi` sums (-1)^|B| t^(n-rank B) over every central subset
  of walls directly (exact integer elimination, feasible through n = 5);
* :func:`finite_field_count` counts the points of F_q^n lying on no wall;
* :func:`enumerate_graphs` classifies every labeled graph on up to six
  vertices by size, components, bipartite components and isolated vertices.

Centrality is decided by exact linear algebra: a wall set has a common
point exactly when the rank of the stacked normal matrix equals the rank of
the matrix augmented with the constants.  No floating point anywhere.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from typing import Callable, Iterable, Optional, Sequence, Tuple

from .charpoly import IntPolynomial
from .graphcounts import CountTable

Row = Tuple[int, ...]
State = Tuple[Tuple[int, Row], ...]  # (pivot column, reduced row), sorted by pivot


@dataclass(frozen=True)
class Hyperplane:
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

    The state is persistent: callers may keep using the old value, which the
    subset scan relies on to share elimination prefixes between branches.
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


# -- central subset enumeration --------------------------------------------


def _scan(
    rows: Sequence[Row],
    idx: int,
    state: State,
    rank: int,
    size: int,
    ncols: int,
    visit: Callable[[int, int], None],
) -> None:
    """Depth-first over include/exclude decisions for rows[idx:].

    Calls visit(rank, size) once per central subset.  A branch whose
    included walls already share no point is pruned whole: supersets of a
    non-central set are never central.
    """
    if idx == len(rows):
        visit(rank, size)
        return
    _scan(rows, idx + 1, state, rank, size, ncols, visit)
    new_state, grew, bad = _insert(state, rows[idx], ncols)
    if not bad:
        _scan(rows, idx + 1, new_state, rank + grew, size + 1, ncols, visit)


def _arrangement_rows(n: int) -> list[Row]:
    return [(*w.normal, w.constant) for w in build_arrangement(n)]


def _prefix_state(
    rows: Sequence[Row], split: int, mask: int, ncols: int
) -> tuple[State, int, int, bool]:
    state: State = ()
    rank = 0
    size = 0
    for idx in range(split):
        if mask >> idx & 1:
            state, grew, bad = _insert(state, rows[idx], ncols)
            if bad:
                return state, rank, size, False
            rank += grew
            size += 1
    return state, rank, size, True


def _split_depth(n_rows: int) -> int:
    # 2^split fixed tasks regardless of worker count keeps results
    # bit-identical across 1, 2, 8, ... workers
    return min(n_rows, 8)


def _whitney_task(args: tuple[int, int, int]) -> list[int]:
    n, split, mask = args
    rows = _arrangement_rows(n)
    state, rank0, size0, ok = _prefix_state(rows, split, mask, n)
    acc = [0] * (n + 1)
    if ok:
        def visit(rank: int, size: int) -> None:
            acc[rank] += 1 if size % 2 == 0 else -1

        _scan(rows, split, state, rank0, size0, n, visit)
    return acc


def _census_task(args: tuple[int, int, int]) -> dict[tuple[int, int], int]:
    n, split, mask = args
    rows = _arrangement_rows(n)
    state, rank0, size0, ok = _prefix_state(rows, split, mask, n)
    acc: dict[tuple[int, int], int] = {}
    if ok:
        def visit(rank: int, size: int) -> None:
            key = (rank, size)
            acc[key] = acc.get(key, 0) + 1

        _scan(rows, split, state, rank0, size0, n, visit)
    return acc


def _pool_size(workers: int, tasks: int) -> int:
    """Workers actually started: never more than the tasks or the CPUs."""
    return min(workers, tasks, os.cpu_count() or 1)


def _run_tasks(task, args_list: list, workers: int) -> list:
    size = _pool_size(workers, len(args_list))
    if size <= 1:
        return [task(args) for args in args_list]
    # imported here, like numpy and the thread pool in finite_field_count, so
    # that commands that never run an oracle start without loading them
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=size) as pool:
        chunk = max(1, len(args_list) // (size * 4))
        return list(pool.map(task, args_list, chunksize=chunk))


def _guard(n: int, limit: int, what: str) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > limit:
        raise ValueError(
            f"{what} enumerates all 2^{comb(n, 2) + 2 * n} wall subsets and is "
            f"guarded at n <= {limit}; pass limit={n} to override, or use "
            "finite_field_count for spot checks at larger n"
        )


def whitney_chi(n: int, *, workers: int = 1, limit: int = 5) -> IntPolynomial:
    """Characteristic polynomial by direct summation over central subsets."""
    _guard(n, limit, "whitney_chi")
    rows = _arrangement_rows(n)
    split = _split_depth(len(rows))
    args_list = [(n, split, mask) for mask in range(1 << split)]
    coeffs = [0] * (n + 1)
    for acc in _run_tasks(_whitney_task, args_list, workers):
        for rank, value in enumerate(acc):
            coeffs[n - rank] += value
    return IntPolynomial(coeffs)


def central_census(n: int, *, workers: int = 1, limit: int = 5) -> CountTable:
    """Number of central wall subsets by (rank, cardinality)."""
    _guard(n, limit, "central_census")
    rows = _arrangement_rows(n)
    split = _split_depth(len(rows))
    args_list = [(n, split, mask) for mask in range(1 << split)]
    totals: dict[tuple[int, int], int] = {}
    for acc in _run_tasks(_census_task, args_list, workers):
        for key, value in acc.items():
            totals[key] = totals.get(key, 0) + value
    return CountTable(totals)


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


def default_verification_primes(n: int) -> tuple[int, ...]:
    """Primes used when cross-checking chi(q) against point counts.

    Several primes guard against the possibility of a prime being too small
    for the count to agree with the polynomial.
    """
    return (5, 7, 11, 13) if n <= 4 else (23, 29, 31)


def finite_field_count(
    n: int, q: int, *, workers: int = 1, budget: int = 150_000_000
) -> int:
    """Number of points of F_q^n lying on none of the walls.

    The count runs over one slice per value of the leading coordinate, so
    memory stays at O(q^(n-1)) booleans; slices are summed in coordinate
    order, which keeps the result identical for any worker count.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if q < 5 or not _is_prime(q):
        raise ValueError("q must be a prime at least 5")
    if q**n > budget:
        raise ValueError(
            f"q^n = {q**n} exceeds the budget of {budget} points; "
            "raise budget= explicitly if this size is intended"
        )
    if n == 1:
        return q - 2  # every value except 0 and 1
    import numpy as np

    values = np.arange(q, dtype=np.int64)
    unit_ok = (values != 0) & (values != 1)
    pair_ok = (values[:, None] + values[None, :]) % q != 1
    shape = (q,) * (n - 1)

    def axis_view(arr: np.ndarray, axis: int) -> np.ndarray:
        view_shape = [1] * (n - 1)
        view_shape[axis] = q
        return arr.reshape(view_shape)

    base = np.ones(shape, dtype=bool)
    for axis in range(n - 1):
        base &= axis_view(unit_ok, axis)
    for a1, a2 in combinations(range(n - 1), 2):
        view_shape = [1] * (n - 1)
        view_shape[a1] = q
        view_shape[a2] = q
        base &= pair_ok.reshape(view_shape)

    def slice_count(a: int) -> int:
        if a == 0 or a == 1:
            return 0
        mask = base.copy()
        forbidden = (1 - a) % q  # x_a + x_i = 1 walls against the lead value
        for axis in range(n - 1):
            mask &= axis_view(values != forbidden, axis)
        return int(np.count_nonzero(mask))

    size = _pool_size(workers, q)
    if size <= 1:
        return sum(slice_count(a) for a in range(q))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=size) as pool:
        return sum(pool.map(slice_count, range(q)))


def interpolate_counts(points: Sequence[tuple[int, int]], n: int) -> IntPolynomial:
    """Reconstruct a degree-n integer polynomial from (q, value) samples.

    Exact Lagrange interpolation over the rationals through all points.
    With more than n+1 samples this doubles as a consistency check: the
    result must come out with integer coefficients and degree exactly n, or
    the samples do not lie on any such polynomial and a ValueError explains
    which property failed.
    """
    samples = sorted(dict(points).items())
    if len(samples) < n + 1:
        raise ValueError(
            f"need at least {n + 1} distinct sample points for degree {n}, "
            f"got {len(samples)}"
        )
    total = [Fraction(0)] * len(samples)
    for i, (x_i, y_i) in enumerate(samples):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (x_j, _) in enumerate(samples):
            if j == i:
                continue
            # basis *= (x - x_j)
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= x_j * basis[k + 1]
            denom *= x_i - x_j
        scale = Fraction(y_i) / denom
        for k, b in enumerate(basis):
            total[k] += scale * b
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


def interpolated_chi(
    n: int,
    primes: Sequence[int],
    *,
    workers: int = 1,
    budget: int = 150_000_000,
) -> IntPolynomial:
    """Characteristic polynomial reconstructed purely from point counts.

    Counts the complement points over at least n+1 prime fields and
    interpolates.  Reaches ranks the subset expansion cannot (n = 6 needs
    only seven small primes) and validates every coefficient at once.
    """
    points = [
        (q, finite_field_count(n, q, workers=workers, budget=budget))
        for q in sorted(set(primes))
    ]
    return interpolate_counts(points, n)


# -- exhaustive graph census -------------------------------------------------


@dataclass(frozen=True)
class GraphCensus:
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


def enumerate_graphs(n: int, *, limit: int = 6) -> GraphCensus:
    """Classify all 2^C(n,2) labeled graphs on [n]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > limit:
        raise ValueError(
            f"enumerate_graphs visits 2^{comb(n, 2)} graphs and is guarded at "
            f"n <= {limit}; pass limit={n} to override"
        )
    edge_list = list(combinations(range(n), 2))
    counts: dict[tuple[int, int, int, int], int] = {}
    for mask in range(1 << len(edge_list)):
        adjacency: list[list[int]] = [[] for _ in range(n)]
        size = 0
        bits = mask
        while bits:
            low = bits & -bits
            u, v = edge_list[low.bit_length() - 1]
            adjacency[u].append(v)
            adjacency[v].append(u)
            size += 1
            bits ^= low
        color = [-1] * n
        comps = bip = iso = 0
        for start in range(n):
            if color[start] != -1:
                continue
            comps += 1
            color[start] = 0
            stack = [start]
            comp_size = 1
            bipartite = True
            while stack:
                u = stack.pop()
                for v in adjacency[u]:
                    if color[v] == -1:
                        color[v] = color[u] ^ 1
                        comp_size += 1
                        stack.append(v)
                    elif color[v] == color[u]:
                        bipartite = False
            bip += bipartite
            iso += comp_size == 1
        key = (size, comps, bip, iso)
        counts[key] = counts.get(key, 0) + 1
    return GraphCensus(order=n, entries=CountTable(counts))
