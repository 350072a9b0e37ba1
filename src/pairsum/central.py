"""Generating functions for central colored graphs.

A subset of the arrangement's walls corresponds to a graph on [n] with an
edge {i,j} per wall x_i+x_j=1 and a color 0 or 1 on vertex v per wall x_v=0
or x_v=1.  The subset has a common point exactly when the graph is central:
its underlying uncolored part carries no odd cycle through a colored vertex
and no conflicting colors (equivalently, the stacked linear system is
consistent).  Central graphs decompose uniquely into four kinds of
components, and the generating function for all central graphs is the
product of one factor per kind:

  type 0  uncolored bipartite components (each marked by z),
  type 1  uncolored non-bipartite components,
  type 2  isolated colored vertices,
  type 3  components in which every vertex reaches a colored vertex.

In the product Gamma(x,y,z), x marks the number of vertices, y cardinality
(edges plus colored vertices) and z the number of type-0 components.  Each
factor is a labeled-count series (:mod:`pairsum.labeled`) truncated at
m <= n vertices: entry m maps (c, v) to m! [x^m y^c z^v], the number of
central graphs of that kind on the vertex set {1..m}.  All arithmetic is on
integers.  A type-0 component on k vertices has rank k - 1 and every other
component has full rank, so a graph on m vertices with v type-0 components
has rank m - v; :func:`extract_counts` re-indexes by that rank.

The type-1 factor exists in two variants, selected by :class:`Mode`.  The
published closed form subtracts the bipartite isolated-vertex-free series
from the all-graphs one, which counts every non-bipartite graph including
those with some bipartite components; from order 5 on (triangle plus a
disjoint edge) such graphs are also produced by the type-0 factor and the
product double-counts.  The corrected variant exponentiates the connected
non-bipartite series, so only graphs all of whose components are
non-bipartite are counted and the decomposition stays unique.
"""

from __future__ import annotations

import enum
from math import comb
from typing import Iterable, Mapping, Tuple

from . import labeled
from .graphcounts import (
    ConsistencyError,
    CountTable,
    bipartite_no_isolated_table,
    connected_bipartite_table,
    connected_table,
    no_isolated_table,
    without_single_vertex,
)
from .labeled import Labeled


class Mode(str, enum.Enum):
    """Type-1 factor variant: the published closed form, or the corrected
    unique-decomposition form (the default everywhere)."""

    PAPER = "paper"
    CORRECTED = "corrected"


def cardinality_cap(n: int) -> int:
    """Largest cardinality of a graph on n vertices: every edge plus one
    color wall per vertex."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return comb(n, 2) + n


def gamma0(n: int) -> Labeled:
    """Type-0 factor: exp[z * (connected bipartite minus x)].

    The single vertex is left out: an uncolored isolated vertex is not a
    wall, so it belongs to no component and is planted later.
    """
    cap = cardinality_cap(n)
    components = without_single_vertex(connected_bipartite_table(n, cap))
    marked = [{(c, 1): count for (c, _), count in entry.items()} for entry in components]
    return labeled.exp(marked, cap)


def gamma1(n: int, mode: Mode = Mode.CORRECTED) -> Labeled:
    """Type-1 factor in the requested variant.

    PAPER: all isolated-vertex-free graphs minus the bipartite
    isolated-vertex-free ones, plus one (counts any graph containing an odd
    cycle).  CORRECTED: exp of the connected non-bipartite series (counts
    graphs all of whose components contain an odd cycle).  The two agree up
    to order 4; the first divergence is a triangle plus a disjoint edge at
    order 5.
    """
    cap = cardinality_cap(n)
    if mode is Mode.PAPER:
        series = labeled.difference(
            no_isolated_table(n, cap), bipartite_no_isolated_table(n, cap)
        )
        series[0] = dict(labeled.ONE)
        return series
    if mode is Mode.CORRECTED:
        connected_nonbip = labeled.difference(
            connected_table(n, cap), connected_bipartite_table(n, cap)
        )
        return labeled.exp(connected_nonbip, cap)
    raise ValueError(f"unknown mode {mode!r}")


def gamma2(n: int) -> Labeled:
    """Type-2 factor: 2^m colorings of m isolated colored vertices."""
    return [{(m, 0): 2**m} for m in range(n + 1)]


def gamma3_connected(n: int) -> Labeled:
    """Connected type-3 graphs by order m and cardinality.

    A connected type-3 graph is a connected bipartite graph on m >= 2
    vertices carrying t >= 1 colored vertices, colored consistently with the
    bipartition; there are exactly two consistent colorings of any chosen
    vertex set.  With c = edges + t this gives

        count at (m, c)  =  sum_t 2 * b(m, c-t) * C(m, t)

    where b counts connected bipartite graphs by (order, size) and t runs
    over 1..min(m, c-m+1).  Single colored vertices (m = 1) belong to the
    type-2 factor, so m starts at 2.
    """
    cap = cardinality_cap(n)
    bip = connected_bipartite_table(n, cap)
    table: Labeled = [{}, {}]
    for m in range(2, n + 1):
        entry = {}
        for c in range(m, min(cap, (m * m) // 4 + m) + 1):
            total = sum(
                2 * bip[m].get((c - t, 0), 0) * comb(m, t)
                for t in range(1, min(m, c - m + 1) + 1)
            )
            if total:
                entry[(c, 0)] = total
        table.append(entry)
    return table


def gamma3(n: int) -> Labeled:
    """Type-3 factor: exp of the connected type-3 series."""
    return labeled.exp(gamma3_connected(n), cardinality_cap(n))


def gamma_product(n: int, mode: Mode = Mode.CORRECTED) -> dict[Tuple[int, int, int], int]:
    """The full central-graph series Gamma = G0*G1*G2*G3 on at most n vertices,
    flattened to {(vertices m, cardinality c, type-0 components v): count}."""
    cap = cardinality_cap(n)
    # the z-free factors first: G0, the one factor with z, enters one product
    flat = labeled.product(labeled.product(gamma1(n, mode), gamma2(n), cap), gamma3(n), cap)
    series = labeled.product(flat, gamma0(n), cap)
    return {
        (m, c, v): count
        for m, entry in enumerate(series)
        for (c, v), count in entry.items()
    }


class GammaCoefficients:
    """Central-graph counts: (rank, cardinality, bipartite components) -> int.

    The count at (r, c, v) is the number of central colored graphs on the
    vertex set {1..r+v} of rank r and cardinality c with v bipartite
    components and no unused vertex.
    """

    __slots__ = ("_entries",)

    def __init__(
        self,
        entries: Mapping[Tuple[int, int, int], int],
        *,
        check_rank_bound: bool = True,
    ):
        """check_rank_bound enforces cardinality >= rank, which every true
        central graph satisfies; the published type-1 variant violates it
        from order 5 on (it misclassifies mixed graphs as full rank), so
        paper-mode extractions disable the check."""
        stored: dict[Tuple[int, int, int], int] = {}
        for (r, c, v), count in entries.items() if isinstance(entries, Mapping) else entries:
            count = int(count)
            if count < 0:
                raise ConsistencyError(f"negative central-graph count at {(r, c, v)}")
            if count and c < r and check_rank_bound:
                raise ConsistencyError(
                    f"count at rank {r}, cardinality {c} violates c >= r"
                )
            if count:
                stored[(r, c, v)] = count
        if stored.get((0, 0, 0), 0) != 1:
            raise ConsistencyError("the empty graph must be counted exactly once")
        self._entries = stored

    def count(self, r: int, c: int, v: int) -> int:
        return self._entries.get((r, c, v), 0)

    def items(self) -> Iterable[tuple[Tuple[int, int, int], int]]:
        return self._entries.items()

    def __len__(self) -> int:
        return len(self._entries)

    def rank_cardinality_table(self, n: int) -> CountTable:
        """Counts of central graphs on [n] by (rank, cardinality).

        Vertices not used by the graph stay unconstrained, so a graph on
        r+v labels is planted into [n] in C(n, r+v) ways.
        """
        table: dict[tuple[int, int], int] = {}
        for (r, c, v), count in self._entries.items():
            if r + v <= n:
                key = (r, c)
                table[key] = table.get(key, 0) + comb(n, r + v) * count
        return CountTable(table)


def extract_counts(
    gamma: Mapping[Tuple[int, int, int], int], *, check_rank_bound: bool = True
) -> GammaCoefficients:
    """Re-index the product's counts from (vertices m, c, v) to rank m - v.

    Pass check_rank_bound=False when extracting a paper-mode product, which
    legitimately carries c < r entries (see :class:`GammaCoefficients`).
    """
    return GammaCoefficients(
        {(m - v, c, v): count for (m, c, v), count in gamma.items()},
        check_rank_bound=check_rank_bound,
    )
