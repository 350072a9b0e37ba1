"""Generating functions for central colored graphs.

A subset of the arrangement's walls corresponds to a graph on [n] with an
edge {i,j} per wall x_i+x_j=1 and a color 0 or 1 on vertex v per wall x_v=0
or x_v=1.  The subset has a common point exactly when the graph is central:
its underlying uncolored part carries no odd cycle through a colored vertex
and no conflicting colors (equivalently, the stacked linear system is
consistent).  Central graphs decompose uniquely into connected components
of four kinds:

  type 0  uncolored bipartite components (each marked by z),
  type 1  uncolored non-bipartite components,
  type 2  isolated colored vertices,
  type 3  components in which every vertex reaches a colored vertex.

So by the exponential formula (Stanley, *Enumerative Combinatorics* Vol. 2,
Sec. 5.1) the generating function Gamma(x,y,z) of all central graphs is
the exp of the sum of the four connected series, where x marks the number
of vertices, y cardinality (edges plus colored vertices) and z the number
of type-0 components.  Each series is a labeled-count series
(:mod:`pairsum.labeled`) truncated at m <= n vertices: entry m maps (c, v)
to m! [x^m y^c z^v], the number of graphs of that kind on the vertex set
{1..m}.  All arithmetic is on integers.  A type-0 component on k vertices
has rank k - 1 and every other component has full rank, so a graph on m
vertices with v type-0 components has rank m - v; :func:`whitney_numbers`
re-indexes by that rank.

The characteristic polynomial reads Gamma only through
sum_c (-1)^c count(m, c, v), that is at y = -1.  Setting y = -1 is a ring
homomorphism, so it commutes with the sum, exp and log:
:func:`signed_gamma_product` builds the same four series with the table
builders of :mod:`pairsum.graphcounts` run ``signed``, reading (1 + y)^e
as 0^e and y^t as (-1)^t, so every entry is keyed (0, v).  It drops the
cardinality dimension, which is what made the full Gamma grow as n^6,
and is the path every command of the CLI takes.  :func:`gamma_product`
keeps the full trivariate Gamma of the paper, from which
:func:`whitney_numbers` reads the counts by rank and cardinality.

The type-1 series exists in two variants, selected by :class:`Mode`:
conn - cb, the connected non-bipartite graphs, when corrected, and the log
of the published factor exp(conn - x) - exp(cb - x) + 1 in paper mode.
That factor counts every graph without isolated vertices that has an odd
cycle, also those with bipartite components, which type 0 produces again.
So the paper's error is one term, that log minus conn - cb, nonzero from
order 5 on (a triangle plus a disjoint edge).
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
    one_plus_y_power,
    without_single_vertex,
    y_power,
)
from .labeled import Labeled, Poly


class Mode(str, enum.Enum):
    """Type-1 variant: the log of the published closed form, or the
    corrected unique-decomposition form (the default everywhere)."""

    PAPER = "paper"
    CORRECTED = "corrected"


def _components(
    n: int, mode: Mode, signed: bool
) -> Tuple[Labeled, Labeled, Labeled, Labeled]:
    """The connected central graphs of types 0 to 3 on vertex counts 0..n,
    resolved by cardinality, or at y = -1 when signed.

    cb counts connected bipartite graphs and conn connected graphs.  Type 0
    is z (cb - x): an uncolored isolated vertex is no wall, so it is left
    out and planted later.  Type 1 is conn - cb if corrected, the log of
    exp(conn - x) - exp(cb - x) + 1 (exact: its entry 0 is 1) if paper.
    Type 2 is 2y on one vertex, the two colorings of an isolated colored
    vertex.  Type 3 is the connected bipartite graphs on m >= 2 vertices
    with a nonempty set of colored vertices, colored in one of the two ways
    the bipartition allows: entry m is 2 (cb - x)_m ((1 + y)^m - 1).
    """
    # Mode(mode) accepts the member or its value and raises ValueError otherwise
    paper = Mode(mode) is Mode.PAPER
    cb = connected_bipartite_table(n, signed=signed)
    conn = connected_table(n, signed=signed)
    bipartite = without_single_vertex(cb)
    type0 = [{(c, 1): count for (c, _), count in entry.items()} for entry in bipartite]
    if paper:
        g1 = labeled.difference(labeled.exp(without_single_vertex(conn)), labeled.exp(bipartite))
        g1[0] = dict(labeled.ONE)
        type1 = labeled.log(g1)
    else:
        type1 = labeled.difference(conn, cb)
    type2 = [{}, {key: 2 * s for key, s in y_power(1, signed=signed).items()}] + [{}] * (n - 1)
    type3: Labeled = []
    for m, entry in enumerate(bipartite):
        colorings = labeled.difference([one_plus_y_power(m, signed=signed)], [labeled.ONE])[0]
        acc: Poly = {}
        labeled._add_product(acc, entry, colorings, 2)
        type3.append(acc)
    return type0, type1, type2, type3


def _gamma(n: int, mode: Mode, signed: bool) -> Labeled:
    """Gamma on vertex counts 0..n: exp of the sum of the four connected kinds."""
    if n < 1:
        raise ValueError("n must be at least 1")
    total: Labeled = [{} for _ in range(n + 1)]
    for kind in _components(n, mode, signed):
        for entry, part in zip(total, kind):
            labeled._add_product(entry, part, labeled.ONE, 1)  # entry += part
    return labeled.exp(total)


def gamma_product(n: int, mode: Mode = Mode.CORRECTED) -> dict[Tuple[int, int, int], int]:
    """The full central-graph series Gamma on at most n vertices, flattened
    to {(vertices m, cardinality c, type-0 components v): count}."""
    series = _gamma(n, mode, signed=False)
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

    The same sum and exp as :func:`gamma_product`, built from the tables at
    y = -1, so no entry carries a cardinality.
    """
    series = _gamma(n, mode, signed=True)
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
