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
has rank m - v; :func:`whitney_numbers` re-indexes by that rank.

The characteristic polynomial reads Gamma only through
sum_c (-1)^c count(m, c, v), that is at y = -1.  Setting y = -1 is a ring
homomorphism, so it commutes with the labeled product, exp and log:
:func:`signed_gamma_product` runs the same four factors on base tables
specialised at y = -1, whose entries are keyed (0, v).  It drops the
cardinality dimension, which is what made the full product grow as n^6,
and is the path every command of the CLI takes.  :func:`gamma_product`
keeps the full trivariate Gamma of the paper, from which
:func:`whitney_numbers` reads the counts by rank and cardinality.

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
from typing import Tuple

from . import labeled
from .graphcounts import (
    ConsistencyError,
    CountTable,
    connected_bipartite_table,
    connected_table,
    half_log,
    without_single_vertex,
)
from .labeled import Labeled


class Mode(str, enum.Enum):
    """Type-1 factor variant: the published closed form, or the corrected
    unique-decomposition form (the default everywhere)."""

    PAPER = "paper"
    CORRECTED = "corrected"


def _factors(
    cb: Labeled, conn: Labeled, g2: Labeled, g3c: Labeled, mode: Mode
) -> Tuple[Labeled, Labeled, Labeled, Labeled]:
    """The factors G0, G1, G2, G3 built from base tables on vertex counts 0..n.

    cb counts connected bipartite graphs, conn connected graphs, g2 isolated
    colored vertices and g3c connected type-3 graphs, either resolved by
    cardinality or at y = -1, which commutes with product, exp and log.

    G0 is exp[z * (cb minus x)]: an uncolored isolated vertex is no wall, so
    it is left out and planted later.  G1 is exp(conn minus cb) if corrected,
    exp(conn minus x) - exp(cb minus x) + 1 if paper.  G2 is g2, G3 exp(g3c).
    """
    bipartite = without_single_vertex(cb)
    marked = [{(c, 1): count for (c, _), count in entry.items()} for entry in bipartite]
    # Mode(mode) accepts the member or its value and raises ValueError otherwise
    if Mode(mode) is Mode.PAPER:
        g1 = labeled.difference(labeled.exp(without_single_vertex(conn)), labeled.exp(bipartite))
        g1[0] = dict(labeled.ONE)
    else:
        g1 = labeled.exp(labeled.difference(conn, cb))
    return labeled.exp(marked), g1, g2, labeled.exp(g3c)


def _product(factors: Tuple[Labeled, Labeled, Labeled, Labeled]) -> Labeled:
    g0, g1, g2, g3 = factors
    # the z-free factors first: G0, the one factor with z, enters one product
    flat = labeled.product(labeled.product(g1, g2), g3)
    return labeled.product(flat, g0)


def _full_tables(n: int) -> Tuple[Labeled, Labeled, Labeled, Labeled]:
    """The base tables of Gamma, resolved by cardinality."""
    if n < 1:
        raise ValueError("n must be at least 1")
    cb = connected_bipartite_table(n)
    return cb, connected_table(n), gamma2(n), gamma3_connected(cb)


def _signed_tables(n: int) -> Tuple[Labeled, Labeled, Labeled, Labeled]:
    """The base tables at y = -1, every entry keyed (0, v).

    Bicolored graphs sum to 1 at m = 0 and 2 after: by the binomial theorem
    only the two colorings with an empty side leave a signed edge sum.  All
    graphs sum to [m <= 1].  Isolated colored vertices give (-2)^m.  A
    connected type-3 graph is a connected bipartite graph with t >= 1
    colored vertices, so it sums to 2 cb(m) ((1 - 1)^m - 1) = -2 cb(m).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    cb = half_log([{(0, 0): 1 if m == 0 else 2} for m in range(n + 1)])
    conn = labeled.log([{(0, 0): 1} if m <= 1 else {} for m in range(n + 1)])
    g2 = [{(0, 0): (-2) ** m} for m in range(n + 1)]
    g3c = [
        {key: -2 * s for key, s in entry.items()} if m >= 2 else {}
        for m, entry in enumerate(cb)
    ]
    return cb, conn, g2, g3c


def gamma2(n: int) -> Labeled:
    """Type-2 factor: 2^m colorings of m isolated colored vertices."""
    return [{(m, 0): 2**m} for m in range(n + 1)]


def gamma3_connected(bip: Labeled) -> Labeled:
    """Connected type-3 graphs by order m and cardinality, from bip, the
    connected bipartite graphs of connected_bipartite_table(n).

    A connected type-3 graph is a connected bipartite graph on m >= 2
    vertices carrying t >= 1 colored vertices, colored consistently with the
    bipartition; there are exactly two consistent colorings of any chosen
    vertex set.  With c = edges + t this gives

        count at (m, c)  =  sum_t 2 * b(m, c-t) * C(m, t)

    where b counts connected bipartite graphs by (order, size) and t runs
    over 1..min(m, c-m+1).  Single colored vertices (m = 1) belong to the
    type-2 factor, so m starts at 2.  A bipartite graph on m vertices has at
    most m^2/4 edges, so c stops at m^2/4 + m.
    """
    table: Labeled = [{}, {}]
    for m in range(2, len(bip)):
        entry = {}
        for c in range(m, (m * m) // 4 + m + 1):
            total = sum(
                2 * bip[m].get((c - t, 0), 0) * comb(m, t)
                for t in range(1, min(m, c - m + 1) + 1)
            )
            if total:
                entry[(c, 0)] = total
        table.append(entry)
    return table


def gamma_product(n: int, mode: Mode = Mode.CORRECTED) -> dict[Tuple[int, int, int], int]:
    """The full central-graph series Gamma = G0*G1*G2*G3 on at most n vertices,
    flattened to {(vertices m, cardinality c, type-0 components v): count}."""
    series = _product(_factors(*_full_tables(n), mode))
    return {
        (m, c, v): count
        for m, entry in enumerate(series)
        for (c, v), count in entry.items()
    }


def signed_gamma_product(
    n: int, mode: Mode = Mode.CORRECTED
) -> dict[Tuple[int, int], int]:
    """Gamma at y = -1 on at most n vertices, flattened to
    {(vertices m, type-0 components v): sum_c (-1)^c count(m, c, v)}.

    The same factors and products as :func:`gamma_product`, run on the base
    tables at y = -1, so no entry carries a cardinality.
    """
    series = _product(_factors(*_signed_tables(n), mode))
    return {(m, v): s for m, entry in enumerate(series) for (_, v), s in entry.items()}


def whitney_numbers(n: int, mode: Mode = Mode.CORRECTED) -> CountTable:
    """Central wall subsets on [n] by (rank m - v, cardinality c): each graph
    of Gamma on m vertices is planted into [n] in C(n, m) ways.

    Counts must be non-negative and the empty graph counted once.  Every
    true central graph has c >= its rank r, but the published type-1 factor
    breaks that from order 5 on, so c >= r is checked when corrected only.
    """
    corrected = Mode(mode) is Mode.CORRECTED
    gamma = gamma_product(n, mode)
    table: dict[Tuple[int, int], int] = {}
    for (m, c, v), count in gamma.items():
        r = m - v
        if count < 0:
            raise ConsistencyError(f"negative central-graph count at {(r, c, v)}")
        if count and c < r and corrected:
            raise ConsistencyError(f"count at rank {r}, cardinality {c} violates c >= r")
        table[(r, c)] = table.get((r, c), 0) + comb(n, m) * count
    if gamma.get((0, 0, 0), 0) != 1:
        raise ConsistencyError("the empty graph must be counted exactly once")
    return CountTable(table)
