"""Exact counting series for labeled graphs.

Every series here is an exponential generating function in x (order) and y
(size): the coefficient of x^n y^k multiplied by n! is a count of labeled
graphs on n vertices with k edges.  The counts are computed as integer
labeled-count tables (:mod:`pairsum.labeled`, entry m holding
``{(k, 0): count}`` for every size k a graph on m vertices can have).  The
tables are built from two primitives, (1 + y)^e and y^t.  Run ``signed``,
the primitives return their values at y = -1 instead; setting y = -1 is a
ring homomorphism, so every table built from them, its log included, is
then the same table at y = -1, keyed (0, 0).  The ``*_series`` functions
convert a table to a :class:`TruncatedSeries` at the given caps for
callers that want the EGF itself, dropping the sizes above ``caps.dy``.
Only those EGF views and :func:`default_caps` import :mod:`pairsum.series`
and :mod:`fractions`, so the integer tables load neither.
"""

from __future__ import annotations

from math import comb, factorial
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Tuple

from . import labeled
from .labeled import Labeled, Poly

if TYPE_CHECKING:
    from .series import TruncatedSeries, TruncationCaps

# The largest order oracle.enumerate_graphs classifies by default.  It lives
# here, next to the tables it checks, so that callers can test it without
# loading the oracles.
GRAPH_CENSUS_LIMIT = 6


class ConsistencyError(RuntimeError):
    """An exact internal invariant failed (non-integer or negative count)."""


class CountTable:
    """Exact non-negative integer counts indexed by small integer tuples.

    Absent keys count zero.  Zero entries are not stored.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[Tuple[int, ...], int] = ()):
        stored: dict[Tuple[int, ...], int] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for key, value in items:
            key = tuple(int(part) for part in key)
            value = int(value)
            if value < 0:
                raise ConsistencyError(f"negative count {value} at {key}")
            if value:
                stored[key] = value
        self._entries = stored

    def __getitem__(self, key) -> int:
        if isinstance(key, int):
            key = (key,)
        return self._entries.get(tuple(key), 0)

    def items(self) -> Iterable[tuple[Tuple[int, ...], int]]:
        return self._entries.items()

    def keys(self):
        return self._entries.keys()

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self._entries.items()))
        return f"CountTable({{{body}}})"


def default_caps(n: int) -> TruncationCaps:
    """Caps guaranteeing no needed coefficient is truncated for orders <= n.

    dy allows every edge plus one color wall per vertex, the largest
    cardinality any graph on n vertices can reach.
    """
    from .series import TruncationCaps

    if n < 0:
        raise ValueError("n must be non-negative")
    return TruncationCaps(n, comb(n, 2) + n, 0)


def _require_no_z(caps: TruncationCaps) -> None:
    if caps.dz != 0:
        raise ValueError(f"this series has no z variable; caps.dz must be 0, got {caps.dz}")


# -- integer labeled-count tables ---------------------------------------------


def one_plus_y_power(e: int, *, signed: bool = False) -> Poly:
    """(1 + y)^e by y-degree, or its value 0^e at y = -1 when signed."""
    if signed:
        return {(0, 0): 1} if e == 0 else {}
    return {(k, 0): comb(e, k) for k in range(e + 1)}


def y_power(t: int, *, signed: bool = False) -> Poly:
    """y^t by y-degree, or its value (-1)^t at y = -1 when signed."""
    return {(0, 0): (-1) ** t} if signed else {(t, 0): 1}


def bicolored_table(n: int, *, signed: bool = False) -> Labeled:
    """Vertex-2-colored bipartite graphs by order m <= n and every size.

    Entry m is sum over i of C(m,i) (1 + y)^(i(m-i)): choose the i white
    vertices, then any set of edges across the color classes.  Each connected
    bipartite graph appears under exactly two colorings, which is why half of
    the logarithm of this series counts connected bipartite graphs.
    """
    table: Labeled = []
    for m in range(n + 1):
        entry: Poly = {}
        for i in range(m + 1):
            for key, value in one_plus_y_power(i * (m - i), signed=signed).items():
                entry[key] = entry.get(key, 0) + comb(m, i) * value
        table.append(entry)
    return table


def all_graphs_table(n: int, *, signed: bool = False) -> Labeled:
    """All labeled graphs: entry m is (1 + y)^C(m,2)."""
    return [one_plus_y_power(comb(m, 2), signed=signed) for m in range(n + 1)]


def without_single_vertex(table: Labeled) -> Labeled:
    """Subtract x, the one-vertex connected graph, from a connected table."""
    return labeled.difference(table, [{}, {(0, 0): 1}] + [{}] * (len(table) - 2))


def connected_table(n: int, *, signed: bool = False) -> Labeled:
    """Connected labeled graphs: the log of the all-graphs table."""
    return labeled.log(all_graphs_table(n, signed=signed))


def half_log(bicolored: Labeled) -> Labeled:
    """Connected bipartite graphs from a bicolored table: half its log.

    An odd entry in that log means the bicolored table is wrong, so it raises
    ConsistencyError instead of rounding.
    """
    halved: Labeled = []
    for m, entry in enumerate(labeled.log(bicolored)):
        for (k, _), value in entry.items():
            if value % 2:
                raise ConsistencyError(
                    f"log of the bicolored series is odd at order {m}, size {k}: {value}"
                )
        halved.append({key: value // 2 for key, value in entry.items()})
    return halved


def connected_bipartite_table(n: int, *, signed: bool = False) -> Labeled:
    """Connected labeled bipartite graphs: half the log of the bicolored table."""
    return half_log(bicolored_table(n, signed=signed))


def no_isolated_table(n: int) -> Labeled:
    """Graphs without isolated vertices: exp(log(all graphs) - x).

    Dropping the x term removes the one-vertex connected graph, so the
    exponential rebuilds exactly the graphs all of whose components have
    order at least two.
    """
    return labeled.exp(without_single_vertex(connected_table(n)))


def bipartite_no_isolated_table(n: int) -> Labeled:
    """Bipartite graphs (all components bipartite) without isolated vertices:
    exp(connected bipartite minus the single-vertex term)."""
    return labeled.exp(without_single_vertex(connected_bipartite_table(n)))


# -- series and count-table views at the given caps ---------------------------


def _egf(caps: TruncationCaps, build: Callable[[int], Labeled]) -> TruncatedSeries:
    from fractions import Fraction

    from .series import TruncatedSeries

    _require_no_z(caps)
    return TruncatedSeries(
        caps,
        {
            (m, k, 0): Fraction(count, factorial(m))
            for m, entry in enumerate(build(caps.dx))
            for (k, _), count in entry.items()
            if k <= caps.dy
        },
    )


def count_table(table: Labeled) -> CountTable:
    """An integer labeled-count table as a CountTable keyed (order, size)."""
    return CountTable(
        {(m, k): count for m, entry in enumerate(table) for (k, _), count in entry.items()}
    )


def bicolored_series(caps: TruncationCaps) -> TruncatedSeries:
    """EGF of vertex-2-colored bipartite graphs by order (x) and size (y)."""
    return _egf(caps, bicolored_table)


def connected_bipartite_series(caps: TruncationCaps) -> TruncatedSeries:
    """EGF of connected bipartite graphs: half the log of the bicolored EGF."""
    return _egf(caps, connected_bipartite_table)


def graphs_no_isolated_series(caps: TruncationCaps) -> TruncatedSeries:
    """EGF of graphs without isolated vertices: exp(log(all graphs) - x)."""
    return _egf(caps, no_isolated_table)


def bipartite_no_isolated_series(caps: TruncationCaps) -> TruncatedSeries:
    """EGF of bipartite graphs without isolated vertices."""
    return _egf(caps, bipartite_no_isolated_table)


def connected_graph_counts(caps: TruncationCaps) -> CountTable:
    """Number of connected labeled graphs, keyed (order, size)."""
    _require_no_z(caps)
    table = count_table(connected_table(caps.dx))
    return CountTable({key: count for key, count in table.items() if key[1] <= caps.dy})
