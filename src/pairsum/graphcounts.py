"""Exact counting series for labeled graphs.

Every series here is an exponential generating function in x (order) and y
(size): the coefficient of x^n y^k multiplied by n! is a count of labeled
graphs on n vertices with k edges.  The counts are computed as integer
labeled-count tables (:mod:`pairsum.labeled`, entry m holding
``{(k, 0): count}``); the ``*_series`` functions convert a table to a
:class:`TruncatedSeries` for callers that want the EGF itself, and
:func:`counts_from_egf` converts back through a mandatory divisibility check.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Mapping, Tuple

from . import labeled
from .labeled import Labeled
from .series import TruncatedSeries, TruncationCaps


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
    if n < 0:
        raise ValueError("n must be non-negative")
    return TruncationCaps(n, comb(n, 2) + n, 0)


def _require_no_z(caps: TruncationCaps) -> None:
    if caps.dz != 0:
        raise ValueError(f"this series has no z variable; caps.dz must be 0, got {caps.dz}")


# -- integer labeled-count tables ---------------------------------------------


def bicolored_table(n: int, cap: int) -> Labeled:
    """Vertex-2-colored bipartite graphs by order m <= n and size k <= cap.

    Entry m maps (k, 0) to sum over i of C(m,i)*C(i*(m-i),k): choose the i
    white vertices, then k edges across the color classes.  Each connected
    bipartite graph appears under exactly two colorings, which is why half of
    the logarithm of this series counts connected bipartite graphs.
    """
    table: Labeled = []
    for m in range(n + 1):
        entry = {}
        for k in range(min(cap, (m // 2) * ((m + 1) // 2)) + 1):
            total = sum(comb(m, i) * comb(i * (m - i), k) for i in range(m + 1))
            if total:
                entry[(k, 0)] = total
        table.append(entry)
    return table


def all_graphs_table(n: int, cap: int) -> Labeled:
    """All labeled graphs: entry m maps (k, 0) to C(C(m,2), k)."""
    return [
        {(k, 0): comb(comb(m, 2), k) for k in range(min(cap, comb(m, 2)) + 1)}
        for m in range(n + 1)
    ]


def without_single_vertex(table: Labeled) -> Labeled:
    """Subtract x, the one-vertex connected graph, from a connected table."""
    return labeled.difference(table, [{}, {(0, 0): 1}] + [{}] * (len(table) - 2))


def connected_table(n: int, cap: int) -> Labeled:
    """Connected labeled graphs: the log of the all-graphs table."""
    return labeled.log(all_graphs_table(n, cap), cap)


def connected_bipartite_table(n: int, cap: int) -> Labeled:
    """Connected labeled bipartite graphs: half the log of the bicolored table.

    An odd entry in that log means the bicolored table is wrong, so it raises
    ConsistencyError instead of rounding.
    """
    doubled = labeled.log(bicolored_table(n, cap), cap)
    halved: Labeled = []
    for m, entry in enumerate(doubled):
        for (k, _), value in entry.items():
            if value % 2:
                raise ConsistencyError(
                    f"log of the bicolored series is odd at order {m}, size {k}: {value}"
                )
        halved.append({key: value // 2 for key, value in entry.items()})
    return halved


def no_isolated_table(n: int, cap: int) -> Labeled:
    """Graphs without isolated vertices: exp(log(all graphs) - x).

    Dropping the x term removes the one-vertex connected graph, so the
    exponential rebuilds exactly the graphs all of whose components have
    order at least two.
    """
    return labeled.exp(without_single_vertex(connected_table(n, cap)), cap)


def bipartite_no_isolated_table(n: int, cap: int) -> Labeled:
    """Bipartite graphs (all components bipartite) without isolated vertices:
    exp(connected bipartite minus the single-vertex term)."""
    return labeled.exp(without_single_vertex(connected_bipartite_table(n, cap)), cap)


# -- series and count-table views at the given caps ---------------------------


def _egf(caps: TruncationCaps, build: Callable[[int, int], Labeled]) -> TruncatedSeries:
    _require_no_z(caps)
    return TruncatedSeries(
        caps,
        {
            (m, k, 0): Fraction(count, factorial(m))
            for m, entry in enumerate(build(caps.dx, caps.dy))
            for (k, _), count in entry.items()
        },
    )


def _counts(caps: TruncationCaps, build: Callable[[int, int], Labeled]) -> CountTable:
    _require_no_z(caps)
    return CountTable(
        {
            (m, k): count
            for m, entry in enumerate(build(caps.dx, caps.dy))
            for (k, _), count in entry.items()
        }
    )


def bicolored_series(caps: TruncationCaps) -> TruncatedSeries:
    """EGF of vertex-2-colored bipartite graphs by order (x) and size (y)."""
    return _egf(caps, bicolored_table)


def all_graphs_series(caps: TruncationCaps) -> TruncatedSeries:
    """EGF of all labeled graphs: x^n y^k coefficient C(C(n,2),k) / n!."""
    return _egf(caps, all_graphs_table)


def connected_bipartite_series(caps: TruncationCaps) -> TruncatedSeries:
    """EGF of connected bipartite graphs: half the log of the bicolored EGF."""
    return _egf(caps, connected_bipartite_table)


def graphs_no_isolated_series(caps: TruncationCaps) -> TruncatedSeries:
    """EGF of graphs without isolated vertices: exp(log(all graphs) - x)."""
    return _egf(caps, no_isolated_table)


def bipartite_no_isolated_series(caps: TruncationCaps) -> TruncatedSeries:
    """EGF of bipartite graphs without isolated vertices."""
    return _egf(caps, bipartite_no_isolated_table)


def counts_from_egf(series: TruncatedSeries) -> CountTable:
    """Convert an EGF to the integer table n! * [x^n y^k].

    A non-integer or negative value means the series was not a graph EGF on
    this box (usually a cap misconfiguration) and raises ConsistencyError.
    """
    entries: dict[tuple[int, int], int] = {}
    for (n, k, z), coeff in series.items():
        if z != 0:
            raise ConsistencyError("graph EGFs carry no z variable")
        value = coeff * factorial(n)
        if value.denominator != 1:
            raise ConsistencyError(
                f"count at order {n}, size {k} is not an integer: {value}"
            )
        if value < 0:
            raise ConsistencyError(f"count at order {n}, size {k} is negative: {value}")
        entries[(n, k)] = int(value)
    return CountTable(entries)


def connected_bipartite_counts(caps: TruncationCaps) -> CountTable:
    """Number of connected labeled bipartite graphs, keyed (order, size)."""
    return _counts(caps, connected_bipartite_table)


def connected_graph_counts(caps: TruncationCaps) -> CountTable:
    """Number of connected labeled graphs, keyed (order, size)."""
    return _counts(caps, connected_table)
