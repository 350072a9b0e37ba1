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
Sec. 5.1) the generating function Gamma(x,y,z) of all central graphs,
:func:`gamma`, is the exp of the sum of the four connected series, where x
marks the number of vertices, y cardinality (edges plus colored vertices)
and z the number of type-0 components.  Each series is a labeled-count
series (:mod:`pairsum.labeled`) truncated at m <= n vertices: entry m maps
(c, v) to m! [x^m y^c z^v], the number of graphs of that kind on the
vertex set {1..m}.  All arithmetic is on integers.  A type-0 component on
k vertices has rank k - 1 and every other component has full rank, so a
graph on m vertices with v type-0 components has rank m - v.  The code
builds types 2 and 3 as one colored kind, whose one-vertex entry is type 2.

The characteristic polynomial reads Gamma only at y = -1, through
sum_c (-1)^c count(m, c, v).  Setting y = -1 is a ring homomorphism, so
it commutes with the sum, exp and log: ``gamma(n, mode, signed=True)``
builds the same kinds with the table builders of :mod:`pairsum.graphcounts`
run ``signed``, reading (1 + y)^e as 0^e, so every entry is keyed (0, v).
That drops the cardinality dimension, which makes the full Gamma grow as
n^6, and is the path every command of the CLI takes.  The full Gamma gives
:func:`whitney_numbers` the counts by rank and cardinality.

The type-1 series exists in two variants, selected by :class:`Mode`:
conn - cb, the connected non-bipartite graphs, when corrected, and the log
of the published factor exp(conn - x) - exp(cb - x) + 1 in paper mode.
That factor counts every graph without isolated vertices that has an odd
cycle, also those with bipartite components, which type 0 produces again.
So the paper's error is one term, that log minus conn - cb, nonzero from
order 5 on (a triangle plus a disjoint edge).
"""

from __future__ import annotations

from collections import Counter
from math import comb
from typing import Tuple

from . import Mode, labeled  # Mode re-exported: pairsum.central.Mode
from .graphcounts import (
    ConsistencyError,
    connected_bipartite_table,
    connected_table,
    no_isolated,
    one_plus_y_power,
    without_single_vertex,
)
from .labeled import Labeled, Poly


def _components(n: int, mode: Mode, signed: bool) -> Tuple[Labeled, Labeled, Labeled]:
    """The connected central graphs on vertex counts 0..n in three kinds,
    type 0, type 1 and the colored kind (types 2 and 3), resolved by
    cardinality, or at y = -1 when signed.

    cb counts connected bipartite graphs and conn connected graphs.  Type 0
    is z (cb - x): an uncolored isolated vertex is no wall, so it is left
    out and planted later.  Type 1 is conn - cb if corrected, the log of
    exp(conn - x) - exp(cb - x) + 1 (exact: its entry 0 is 1) if paper.
    The colored kind is the connected bipartite graphs with a nonempty set
    of colored vertices, colored in one of the two ways the bipartition
    allows: entry m is 2 cb_m ((1 + y)^m - 1).  Its one-vertex entry, 2y as
    cb_1 = 1, is type 2, the two colorings of an isolated colored vertex;
    its entries from m = 2 on are type 3.
    """
    # Mode(mode) accepts the member or its value and raises ValueError otherwise
    paper = Mode(mode) is Mode.PAPER
    cb = connected_bipartite_table(n, signed=signed)
    conn = connected_table(n, signed=signed)
    bipartite = without_single_vertex(cb)
    type0 = [{(c, 1): count for (c, _), count in entry.items()} for entry in bipartite]
    if paper:
        g1 = labeled.difference(no_isolated(conn), no_isolated(cb))
        g1[0] = dict(labeled.ONE)
        type1 = labeled.log(g1)
    else:
        type1 = labeled.difference(conn, cb)
    colored: Labeled = []
    for m, entry in enumerate(cb):
        colorings = labeled.difference([one_plus_y_power(m, signed=signed)], [labeled.ONE])[0]
        acc: Poly = {}
        labeled._add_product(acc, entry, colorings, 2)
        colored.append(acc)
    return type0, type1, colored


def gamma(n: int, mode: Mode = Mode.CORRECTED, *, signed: bool = False) -> Labeled:
    """Gamma on vertex counts 0..n, the exp of the sum of the three connected
    kinds: entry m maps (c, v) to m! [x^m y^c z^v], or holds that entry at
    y = -1, keyed (0, v), when signed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    total: Labeled = [{} for _ in range(n + 1)]
    for kind in _components(n, mode, signed):
        for entry, part in zip(total, kind):
            labeled._add_product(entry, part, labeled.ONE, 1)  # entry += part
    return labeled.exp(total)


def whitney_numbers(n: int, mode: Mode = Mode.CORRECTED) -> Counter:
    """Central wall subsets on [n] by (rank m - v, cardinality c): each graph
    of Gamma on m vertices is planted into [n] in C(n, m) ways.

    Counts must be non-negative and the empty graph counted once.  Every
    true central graph has c >= its rank r, but the published type-1 factor
    breaks that from order 5 on, so c >= r is checked when corrected only.
    """
    corrected = Mode(mode) is Mode.CORRECTED
    series = gamma(n, mode)
    table: Counter = Counter()
    for m, entry in enumerate(series):
        plantings = comb(n, m)
        for (c, v), count in entry.items():
            r = m - v
            if count < 0:
                raise ConsistencyError(f"negative central-graph count at {(r, c, v)}")
            if count and c < r and corrected:
                raise ConsistencyError(f"count at rank {r}, cardinality {c} violates c >= r")
            table[r, c] += plantings * count
    if series[0].get((0, 0), 0) != 1:
        raise ConsistencyError("the empty graph must be counted exactly once")
    return table
