"""The four kinds of connected central graphs, their factors and Gamma,
checked against the worked small cases and an independent colored-graph
enumeration.

Kinds and factors are labeled-count series: entry m maps (cardinality c,
bipartite components v) to the number of such graphs on the vertex set
{1..m}.
"""

import hashlib
from collections import Counter
from itertools import combinations, product

import pytest
from conftest import components

from pairsum import graphcounts, labeled
from pairsum import central
from pairsum.central import Mode, gamma, whitney_numbers
from pairsum.graphcounts import ConsistencyError
from pairsum.oracle import central_census, enumerate_graphs


def paper_kinds(n, mode, signed):
    """The paper's four connected kinds on at most n vertices: types 0 and 1
    as built, type 2 the colored kind's entries up to one vertex and type 3
    its entries from two vertices on."""
    type0, type1, colored = central._components(n, mode, signed)
    return type0, type1, colored[:2] + [{}] * (n - 1), [{}, {}] + colored[2:]


def factor(i, n, mode=Mode.CORRECTED):
    """Factor Gi of Gamma on at most n vertices, resolved by cardinality:
    the exp of the type-i connected kind."""
    return labeled.exp(paper_kinds(n, mode, signed=False)[i])


def type3_connected(n):
    """Connected type-3 graphs on at most n vertices: the log of G3."""
    return labeled.log(factor(3, n))


def by_rank(series, m):
    """Entry m of Gamma re-keyed from (c, v) to (rank m - v, c, v)."""
    return {(m - v, c, v): count for (c, v), count in series[m].items()}


def colored_graph_counts(m, connected=False):
    """Count central colored graphs using every vertex of [m], keyed by
    (rank, cardinality, bipartite uncolored components); or, when
    ``connected``, the connected ones with a colored vertex, by cardinality.

    Fully independent of the pipeline: for each graph and coloring the wall
    system (x_u + x_v = 1 per edge, x_v = color per colored vertex) is solved
    by fraction-free Gaussian elimination.
    """
    out = {}
    slots = list(combinations(range(m), 2))
    for mask in range(1 << len(slots)):
        edges = [edge for t, edge in enumerate(slots) if mask >> t & 1]
        parts = components(m, edges)
        for colors in product((None, 0, 1), repeat=m):
            colored = [v for v in range(m) if colors[v] is not None]
            if any(len(members) == 1 and colors[members[0]] is None for members, _ in parts):
                continue  # an uncolored vertex on no edge
            if connected and (len(parts) > 1 or not colored):
                continue
            rows = [[int(t in edge) for t in range(m)] + [1] for edge in edges]
            rows += [[int(t == v) for t in range(m)] + [colors[v]] for v in colored]
            rank = 0
            for col in range(m):
                pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
                if pivot is None:
                    continue
                rows[rank], rows[pivot] = rows[pivot], rows[rank]
                top = rows[rank]
                rows[rank + 1:] = [[a * top[col] - b * row[col] for a, b in zip(row, top)]
                                   for row in rows[rank + 1:]]
                rank += 1
            if any(row[m] for row in rows[rank:]):
                continue  # inconsistent: not central
            nu = sum(proper and all(colors[v] is None for v in members)
                     for members, proper in parts)
            cardinality = len(edges) + len(colored)
            key = cardinality if connected else (rank, cardinality, nu)
            out[key] = out.get(key, 0) + 1
    return out


class TestGamma0:
    def test_worked_coefficients(self):
        g0 = factor(0, 6)
        assert g0[2][(1, 1)] == 1  # a single edge
        assert g0[3][(2, 1)] == 3  # labeled paths on 3 vertices
        assert g0[4][(2, 2)] == 3  # two disjoint edges
        assert g0[5][(3, 2)] == 30  # an edge plus a 3-path: C(5,2) * 3
        assert g0[6][(3, 3)] == 15  # perfect matchings on 6 vertices

    def test_every_term_carries_z_or_is_one(self):
        for m, entry in enumerate(factor(0, 6)):
            for (c, v) in entry:
                assert v >= 1 or (m == 0 and c == 0)

    def test_flat_caps_degenerate_to_one(self):
        # one vertex carries no uncolored component: the factor is just 1
        assert factor(0, 1) == [{(0, 0): 1}, {}]


class TestGamma1:
    def test_triangle_in_both_modes(self):
        for mode in Mode:
            assert factor(1, 3, mode)[3][(3, 0)] == 1

    def test_modes_agree_through_order_four(self):
        assert factor(1, 5, Mode.PAPER)[:5] == factor(1, 5, Mode.CORRECTED)[:5]

    def test_order_five_divergence(self):
        # triangle plus disjoint edge: C(5,3) = 10 graphs, misclassified by
        # the published variant, absent from the corrected one
        assert factor(1, 5, Mode.PAPER)[5][(4, 0)] == 10
        assert factor(1, 5, Mode.CORRECTED)[5].get((4, 0), 0) == 0

    def test_no_z_terms(self):
        for mode in Mode:
            for entry in factor(1, 6, mode):
                assert all(v == 0 for (_, v) in entry)

    def test_paper_error_is_the_mixed_graph_family(self):
        # the paper's type-1 kind minus the corrected one, and the same
        # difference of their factors, count the graphs with no isolated
        # vertex, a bipartite component and a non-bipartite one: the graphs
        # that the type-0 components produce a second time
        paper, corrected = (central._components(6, mode, signed=False)[1] for mode in Mode)
        kinds = labeled.difference(paper, corrected)
        factors = labeled.difference(labeled.exp(paper), labeled.exp(corrected))
        totals = []
        for m in range(1, 7):
            mixed = Counter()
            for (size, comps, bip, iso), count in enumerate_graphs(m).items():
                if iso == 0 and bip >= 1 and comps > bip:
                    mixed[size] += count
            for series in (kinds, factors):
                assert {c: count for (c, _), count in series[m].items()} == mixed, m
            totals.append(sum(mixed.values()))
        assert totals == [0, 0, 0, 0, 10, 345]


class TestGamma2:
    def test_diagonal_values(self):
        assert factor(2, 3) == [{(0, 0): 1}, {(1, 0): 2}, {(2, 0): 4}, {(3, 0): 8}]

    def test_no_z_terms(self):
        for entry in factor(2, 5):
            assert all(v == 0 for (_, v) in entry)


class TestGamma3:
    def test_connected_counts(self):
        g3c = type3_connected(3)
        assert g3c[2][(2, 0)] == 4
        assert g3c[2][(3, 0)] == 2
        assert g3c[3][(3, 0)] == 18  # 2 * b(3,2) * C(3,1)

    def test_connected_counts_by_enumeration(self):
        # enumerate connected central colored graphs with at least one color
        # on [m] directly and compare cardinality by cardinality
        for m in (2, 3, 4):
            g3c = type3_connected(m)
            assert {c: count for (c, _), count in g3c[m].items()} == colored_graph_counts(m, True)

    def test_exp_matches_worked_factor(self):
        g3 = factor(3, 3)
        assert g3[0] == {(0, 0): 1}
        assert g3[2][(2, 0)] == 4
        assert g3[2][(3, 0)] == 2
        assert g3[3][(3, 0)] == 18
        assert g3[3][(4, 0)] == 18
        assert g3[3][(5, 0)] == 6

    def test_complete_rank_two_factor(self):
        # through order 2 the factor is exactly 1 + (4 y^2 + 2 y^3) x^2/2!
        assert factor(3, 2) == [{(0, 0): 1}, {}, {(2, 0): 4, (3, 0): 2}]

    def test_no_z_terms(self):
        for entry in factor(3, 5):
            assert all(v == 0 for (_, v) in entry)


class TestGammaProduct:
    def test_rank_two_coefficients(self):
        # entry m is keyed (cardinality, bipartite components)
        assert gamma(2, Mode.CORRECTED) == [
            {(0, 0): 1},
            {(1, 0): 2},
            {(1, 1): 1, (2, 0): 8, (3, 0): 2},
        ]

    def test_extracted_counts(self):
        # keys are (rank, cardinality, bipartite components)
        series = gamma(2, Mode.CORRECTED)
        assert by_rank(series, 0)[(0, 0, 0)] == 1
        assert by_rank(series, 1)[(1, 1, 0)] == 2
        assert by_rank(series, 2)[(1, 1, 1)] == 1
        assert by_rank(series, 2)[(2, 2, 0)] == 8
        # both rank-one classes, the colored vertex planted twice into [2]
        assert whitney_numbers(2)[(1, 1)] == 2 * 2 + 1

    def test_matches_colored_graph_enumeration(self):
        series = gamma(4, Mode.CORRECTED)
        for m in range(1, 5):
            assert by_rank(series, m) == colored_graph_counts(m), m

    def test_rank_cardinality_table_matches_census(self):
        for n in range(1, 6):
            assert whitney_numbers(n) == central_census(n), n

    def test_paper_and_corrected_identical_through_rank_four(self):
        assert gamma(4, Mode.PAPER) == gamma(4, Mode.CORRECTED)
        assert whitney_numbers(4, Mode.PAPER) == whitney_numbers(4, Mode.CORRECTED)

    def test_no_entry_beyond_n_vertices(self):
        series = gamma(7)
        assert len(series) == 8 and series[7]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            gamma(0)

    def test_is_the_product_of_the_four_factors(self):
        # the paper's factored form, exp of each of its four kinds (the colored
        # kind split at one vertex) and their product, against the one exp of
        # the sum of the three kinds built
        for mode in Mode:
            for signed, top in ((True, 40), (False, 8)):
                for n in range(1, top + 1):
                    g0, g1, g2, g3 = map(labeled.exp, paper_kinds(n, mode, signed))
                    product = labeled.product(labeled.product(g0, g1), labeled.product(g2, g3))
                    assert gamma(n, mode, signed=signed) == product, (mode, signed, n)


def at_minus_one(series):
    """Each entry of a labeled-count series summed over c with sign (-1)^c."""
    out = []
    for entry in series:
        sums = {}
        for (c, v), count in entry.items():
            sums[(0, v)] = sums.get((0, v), 0) + (-count if c % 2 else count)
        out.append({key: s for key, s in sums.items() if s})
    return out


class TestSignedProduct:
    def test_base_tables_are_the_full_tables_at_minus_one(self):
        builders = (
            graphcounts.bicolored_table,
            graphcounts.all_graphs_table,
            graphcounts.connected_table,
            graphcounts.connected_bipartite_table,
        )
        for n in range(1, 11):
            full = [build(n) for build in builders]
            signed = [build(n, signed=True) for build in builders]
            assert [at_minus_one(table) for table in full] == signed, n
        power = graphcounts.one_plus_y_power
        for e in range(46):
            assert at_minus_one([power(e)]) == [power(e, signed=True)], e

    def test_factors_are_the_full_factors_at_minus_one(self):
        for mode in Mode:
            for n in range(1, 11):
                full = central._components(n, mode, False)
                signed = central._components(n, mode, True)
                assert [at_minus_one(f) for f in full] == list(signed), (mode, n)

    def test_product_is_the_full_product_at_minus_one(self):
        for mode in Mode:
            for n in range(1, 11):
                assert gamma(n, mode, signed=True) == at_minus_one(gamma(n, mode)), (mode, n)

    def test_worked_values(self):
        # the rank-two product of TestGammaProduct at y = -1
        assert gamma(2, signed=True) == [{(0, 0): 1}, {(0, 0): -2}, {(0, 0): 6, (0, 1): -1}]

    def test_invalid_n_and_mode(self):
        with pytest.raises(ValueError):
            gamma(0, signed=True)
        with pytest.raises(ValueError):
            gamma(3, "bogus", signed=True)


def fake_product(monkeypatch, series):
    """Make whitney_numbers read the given labeled-count series as Gamma."""
    monkeypatch.setattr(central, "gamma", lambda n, mode=Mode.CORRECTED: series)


class TestWhitneyNumbersChecks:
    def test_integrality_enforced(self, monkeypatch):
        # half the log of the bicolored table counts connected bipartite
        # graphs; an odd entry there must fail, not be rounded
        true_table = graphcounts.bicolored_table

        def odd_table(n, signed=False):
            table = true_table(n, signed=signed)
            table[2][(1, 0)] += 1
            return table

        monkeypatch.setattr(graphcounts, "bicolored_table", odd_table)
        with pytest.raises(ConsistencyError, match="odd"):
            whitney_numbers(3)

    def test_rank_bound_enforced_when_strict(self, monkeypatch):
        fake_product(monkeypatch, [{(0, 0): 1}, {}, {(1, 0): 1}])
        with pytest.raises(ConsistencyError, match="c >= r"):
            whitney_numbers(2)
        relaxed = whitney_numbers(2, Mode.PAPER)
        assert relaxed[(2, 1)] == 1

    def test_rank_bound_holds_in_corrected_mode(self):
        table = whitney_numbers(12, Mode.CORRECTED)
        assert all(c >= r for (r, c), _ in table.items())

    def test_rank_is_vertices_minus_components(self, monkeypatch):
        fake_product(monkeypatch, [{(0, 0): 1}, {}, {}, {}, {}, {}, {(3, 3): 15}])
        assert whitney_numbers(6)[(3, 3)] == 15
        assert whitney_numbers(7)[(3, 3)] == 7 * 15  # C(7, 6) plantings

    def test_negative_count_rejected(self, monkeypatch):
        fake_product(monkeypatch, [{(0, 0): 1}, {}, {(2, 0): -1}])
        with pytest.raises(ConsistencyError, match="negative"):
            whitney_numbers(2)

    def test_paper_mode_product_needs_relaxed_bound_from_rank_five(self, monkeypatch):
        series = gamma(5, Mode.PAPER)
        assert whitney_numbers(5, Mode.PAPER)[(5, 4)] == 10
        # read as a corrected product, the paper series breaks c >= r
        fake_product(monkeypatch, series)
        with pytest.raises(ConsistencyError, match="c >= r"):
            whitney_numbers(5)

    def test_empty_graph_required(self, monkeypatch):
        fake_product(monkeypatch, [{}, {(1, 0): 2}])
        with pytest.raises(ConsistencyError, match="empty graph"):
            whitney_numbers(1)
        fake_product(monkeypatch, [{(0, 0): 2}])
        with pytest.raises(ConsistencyError, match="empty graph"):
            whitney_numbers(1)


class TestWhitneyNumbers:
    def test_matches_census_through_rank_six(self):
        for n in range(1, 7):
            assert whitney_numbers(n) == central_census(n, limit=6), n

    def test_paper_differs_from_rank_five(self):
        for n in range(1, 5):
            assert whitney_numbers(n, Mode.PAPER) == whitney_numbers(n), n
        assert whitney_numbers(5, Mode.PAPER) != whitney_numbers(5)

    def test_mode_by_value(self):
        # Mode is a str enum: its values select the same variant as its members
        assert whitney_numbers(5, "paper") == whitney_numbers(5, Mode.PAPER)
        assert whitney_numbers(5, "corrected") == whitney_numbers(5)
        with pytest.raises(ValueError):
            whitney_numbers(3, "bogus")

    def test_values_pinned_through_rank_twelve(self):
        # the census stops at rank 7 and the chi checks sum over cardinality,
        # so this digest is what pins each (rank, cardinality) count above it
        digest = hashlib.sha256()
        for mode in Mode:
            for n in range(1, 13):
                digest.update(repr(sorted(whitney_numbers(n, mode).items())).encode())
        assert digest.hexdigest() == (
            "92d6143ad597296bbb070da891c03278fc92cea353e81ff92c551e33652bd3fb"
        )
