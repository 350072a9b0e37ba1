"""Graph-count tables and series against known values; the graph census of
test_oracle.py checks every count of four of them through order 7."""

from collections import Counter
from math import comb, factorial

import pytest

from pairsum import central
from pairsum.graphcounts import (
    ConsistencyError,
    bicolored_series,
    bicolored_table,
    bipartite_no_isolated_series,
    connected_bipartite_series,
    connected_bipartite_table,
    connected_graph_counts,
    connected_table,
    count_table,
    default_caps,
    graphs_no_isolated_series,
    no_isolated,
)
from pairsum.series import TruncationCaps


class TestCountTable:
    def test_missing_is_zero(self):
        # count_table keys a labeled-count table (order, size)
        t = count_table([{(0, 0): 1}, {}, {(0, 0): 1, (1, 0): 1}])
        assert t == Counter({(0, 0): 1, (2, 0): 1, (2, 1): 1})
        assert t[(9, 9)] == 0

    def test_negative_rejected(self):
        with pytest.raises(ConsistencyError, match="negative count -1 at \\(1, 2\\)"):
            count_table([{}, {(2, 0): -1}])
        assert count_table([{}, {(2, 0): 0}])[(1, 2)] == 0  # zero is a count


class TestBicoloredSeries:
    def test_requires_flat_caps(self):
        with pytest.raises(ValueError):
            bicolored_series(TruncationCaps(2, 2, 1))

    def test_caps(self):
        # every edge plus one color wall per vertex; a view keeps sizes up to dy
        assert default_caps(0) == TruncationCaps(0, 0, 0)
        assert default_caps(4) == TruncationCaps(4, 10, 0)
        assert bicolored_series(TruncationCaps(2, 1, 0)).coefficient(2, 1) == 1

    def test_single_vertex(self):
        # both colorings of a single vertex: coefficient 2/1!
        b = bicolored_series(default_caps(4))
        assert b.coefficient(1, 0) == 2

    def test_one_edge(self):
        # sum_i C(2,i) C(i(2-i),1) = 2, stored over 2!
        b = bicolored_series(default_caps(4))
        assert b.coefficient(2, 1) == 1

    def test_two_vertices_two_edges_impossible(self):
        b = bicolored_series(default_caps(4))
        assert b.coefficient(2, 2) == 0


class TestConnectedBipartiteCounts:
    def test_zero_pattern(self):
        # no connected bipartite graph has k < n-1 edges (n >= 2) or more
        # than floor(n/2)*ceil(n/2) edges
        b = count_table(connected_bipartite_table(6))
        for n in range(2, 7):
            for k in range(0, comb(6, 2) + 7):
                if k < n - 1 or k > (n // 2) * ((n + 1) // 2):
                    assert b[(n, k)] == 0, (n, k)

    def test_egf_view_matches_table(self):
        # m! times each view's coefficient of x^m y^k is its table's count
        views = (
            (bicolored_series, bicolored_table),
            (connected_bipartite_series, connected_bipartite_table),
            (graphs_no_isolated_series, lambda n: no_isolated(connected_table(n))),
            (bipartite_no_isolated_series, lambda n: no_isolated(connected_bipartite_table(n))),
        )
        for view, build in views:
            series = view(default_caps(6))
            counts = {(m, k): coeff * factorial(m) for (m, k, _), coeff in series.items()}
            assert counts == dict(count_table(build(6)).items()), view.__name__


class TestSizeBounds:
    """No table needs a size cap: a graph on m vertices has at most m^2/4
    edges if bipartite, C(m,2) edges in all and C(m,2)+m walls if central,
    and the labeled product only adds sizes, which these bounds allow."""

    N = 12

    @staticmethod
    def top(entry):
        return max(key[0] for key in entry)

    def test_bipartite_tables(self):
        for table in (bicolored_table(self.N), connected_bipartite_table(self.N)):
            for m, entry in enumerate(table[1:], start=1):
                assert self.top(entry) <= m * m // 4, m

    def test_connected_table(self):
        for m, entry in enumerate(connected_table(self.N)[1:], start=1):
            assert self.top(entry) <= comb(m, 2), m

    def test_central_product(self):
        for m, entry in enumerate(central.gamma(8)):
            for (c, _), count in entry.items():
                assert c <= comb(m, 2) + m, (m, c, count)

    def test_top_terms_are_complete_graphs(self):
        # one complete graph K_m; C(m, m//2) complete bipartite graphs
        # K_{m//2, m - m//2}, each counted twice when the sides are equal
        conn = connected_table(self.N)
        bip = connected_bipartite_table(self.N)
        for m in range(1, self.N + 1):
            assert conn[m][(comb(m, 2), 0)] == 1, m
            halves = comb(m, m // 2) // (2 if m % 2 == 0 else 1)
            assert bip[m][(m * m // 4, 0)] == halves, m


class TestGraphsNoIsolated:
    def test_examples(self):
        series = graphs_no_isolated_series(default_caps(4))
        assert series.coefficient(2, 1) * 2 == 1  # the single edge
        assert series.coefficient(3, 1) == 0  # one edge strands a vertex
        assert series.coefficient(3, 2) * 6 == 3  # labeled paths

    def test_isolated_vertex_reinclusion(self):
        # every graph is a no-isolated core plus isolated vertices, so
        # sum_m C(n,m) * (no-isolated graphs on m vertices) = 2^C(n,2)
        table = count_table(no_isolated(connected_table(6)))
        for n in range(0, 7):
            total = sum(
                comb(n, m) * table[(m, k)]
                for m in range(0, n + 1)
                for k in range(0, comb(m, 2) + 1)
            )
            assert total == 2 ** comb(n, 2), n


class TestConnectedGraphCounts:
    def test_examples(self):
        c = connected_graph_counts(default_caps(4))
        assert c[(1, 0)] == 1
        assert c[(3, 2)] == 3
        assert c[(3, 3)] == 1  # the triangle

    def test_caps_cut_sizes(self):
        full = count_table(connected_table(5))
        kept = Counter({key: count for key, count in full.items() if key[1] <= 3})
        assert connected_graph_counts(TruncationCaps(5, 3, 0)) == kept
        assert len(kept) < len(full)


class TestBipartiteNoIsolated:
    def test_two_disjoint_edges(self):
        # the smallest disconnected entry: three perfect matchings on 4 vertices
        table = count_table(no_isolated(connected_bipartite_table(4)))
        assert table[(4, 2)] == 3

