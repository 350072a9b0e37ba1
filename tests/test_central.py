"""The four central-graph factors and their product, checked against the
worked small cases and an independent colored-graph enumeration.

Factors are labeled-count series: entry m maps (cardinality c, bipartite
components v) to the number of such graphs on the vertex set {1..m}.
"""

from fractions import Fraction
from itertools import combinations, product

import pytest

from pairsum import graphcounts
from pairsum.central import (
    GammaCoefficients,
    Mode,
    extract_counts,
    gamma0,
    gamma1,
    gamma2,
    gamma3,
    gamma3_connected,
    gamma_product,
)
from pairsum.graphcounts import ConsistencyError
from pairsum.oracle import central_census


def colored_graph_counts(m):
    """Count central colored graphs using every vertex of [m], keyed by
    (rank, cardinality, bipartite uncolored components).

    Fully independent of the pipeline: for each graph and coloring the wall
    system (x_u + x_v = 1 per edge, x_v = color per colored vertex) is solved
    by Fraction Gaussian elimination.
    """
    out = {}
    edge_slots = list(combinations(range(m), 2))
    for mask in range(1 << len(edge_slots)):
        edges = [edge_slots[t] for t in range(len(edge_slots)) if mask >> t & 1]
        for colors in product((None, 0, 1), repeat=m):
            used = set()
            for u, v in edges:
                used.add(u)
                used.add(v)
            used.update(v for v in range(m) if colors[v] is not None)
            if len(used) != m:
                continue
            rows = []
            for u, v in edges:
                row = [Fraction(0)] * (m + 1)
                row[u] = row[v] = Fraction(1)
                row[m] = Fraction(1)
                rows.append(row)
            for v in range(m):
                if colors[v] is not None:
                    row = [Fraction(0)] * (m + 1)
                    row[v] = Fraction(1)
                    row[m] = Fraction(colors[v])
                    rows.append(row)
            rank = 0
            for col in range(m):
                piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
                if piv is None:
                    continue
                rows[rank], rows[piv] = rows[piv], rows[rank]
                lead = rows[rank]
                for i in range(len(rows)):
                    if i != rank and rows[i][col]:
                        f = rows[i][col] / lead[col]
                        rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
                rank += 1
            if any(rows[i][m] != 0 for i in range(rank, len(rows))):
                continue  # inconsistent: not central
            adjacency = [[] for _ in range(m)]
            for u, v in edges:
                adjacency[u].append(v)
                adjacency[v].append(u)
            seen = [False] * m
            nu = 0
            for start in range(m):
                if seen[start]:
                    continue
                seen[start] = True
                part = {start: 0}
                stack = [start]
                members = [start]
                bipartite = True
                while stack:
                    u = stack.pop()
                    for v in adjacency[u]:
                        if v not in part:
                            part[v] = part[u] ^ 1
                            seen[v] = True
                            members.append(v)
                            stack.append(v)
                        elif part[v] == part[u]:
                            bipartite = False
                if bipartite and all(colors[v] is None for v in members):
                    nu += 1
            cardinality = len(edges) + sum(1 for c in colors if c is not None)
            key = (rank, cardinality, nu)
            out[key] = out.get(key, 0) + 1
    return out


class TestGamma0:
    def test_worked_coefficients(self):
        g0 = gamma0(6)
        assert g0[2][(1, 1)] == 1  # a single edge
        assert g0[3][(2, 1)] == 3  # labeled paths on 3 vertices
        assert g0[4][(2, 2)] == 3  # two disjoint edges
        assert g0[5][(3, 2)] == 30  # an edge plus a 3-path: C(5,2) * 3
        assert g0[6][(3, 3)] == 15  # perfect matchings on 6 vertices

    def test_every_term_carries_z_or_is_one(self):
        for m, entry in enumerate(gamma0(6)):
            for (c, v) in entry:
                assert v >= 1 or (m == 0 and c == 0)

    def test_flat_caps_degenerate_to_one(self):
        # one vertex carries no uncolored component: the factor is just 1
        assert gamma0(1) == [{(0, 0): 1}, {}]


class TestGamma1:
    def test_triangle_in_both_modes(self):
        for mode in Mode:
            assert gamma1(3, mode)[3][(3, 0)] == 1

    def test_modes_agree_through_order_four(self):
        assert gamma1(5, Mode.PAPER)[:5] == gamma1(5, Mode.CORRECTED)[:5]

    def test_order_five_divergence(self):
        # triangle plus disjoint edge: C(5,3) = 10 graphs, misclassified by
        # the published variant, absent from the corrected one
        assert gamma1(5, Mode.PAPER)[5][(4, 0)] == 10
        assert gamma1(5, Mode.CORRECTED)[5].get((4, 0), 0) == 0

    def test_no_z_terms(self):
        for mode in Mode:
            for entry in gamma1(6, mode):
                assert all(v == 0 for (_, v) in entry)


class TestGamma2:
    def test_diagonal_values(self):
        assert gamma2(3) == [{(0, 0): 1}, {(1, 0): 2}, {(2, 0): 4}, {(3, 0): 8}]

    def test_no_z_terms(self):
        for entry in gamma2(5):
            assert all(v == 0 for (_, v) in entry)


class TestGamma3:
    def test_connected_counts(self):
        g3c = gamma3_connected(3)
        assert g3c[2][(2, 0)] == 4
        assert g3c[2][(3, 0)] == 2
        assert g3c[3][(3, 0)] == 18  # 2 * b(3,2) * C(3,1)

    def test_connected_counts_by_enumeration(self):
        # enumerate connected central colored graphs with at least one color
        # on [m] directly and compare cardinality by cardinality
        for m in (2, 3, 4):
            truth: dict[int, int] = {}
            edge_slots = list(combinations(range(m), 2))
            for mask in range(1 << len(edge_slots)):
                edges = [edge_slots[t] for t in range(len(edge_slots)) if mask >> t & 1]
                adjacency = [[] for _ in range(m)]
                for u, v in edges:
                    adjacency[u].append(v)
                    adjacency[v].append(u)
                seen = {0}
                stack = [0]
                while stack:
                    u = stack.pop()
                    for v in adjacency[u]:
                        if v not in seen:
                            seen.add(v)
                            stack.append(v)
                if len(seen) != m:
                    continue
                for colors in product((None, 0, 1), repeat=m):
                    t = sum(1 for c in colors if c is not None)
                    if t == 0:
                        continue
                    values: dict[int, int] = {}
                    consistent = True
                    work = [(v, colors[v]) for v in range(m) if colors[v] is not None]
                    while work and consistent:
                        v, val = work.pop()
                        if v in values:
                            consistent = values[v] == val
                            continue
                        values[v] = val
                        work.extend((u, 1 - val) for u in adjacency[v])
                    if not consistent:
                        continue
                    cardinality = len(edges) + t
                    truth[cardinality] = truth.get(cardinality, 0) + 1
            g3c = gamma3_connected(m)
            assert {c: count for (c, _), count in g3c[m].items()} == truth, m

    def test_exp_matches_worked_factor(self):
        g3 = gamma3(3)
        assert g3[0] == {(0, 0): 1}
        assert g3[2][(2, 0)] == 4
        assert g3[2][(3, 0)] == 2
        assert g3[3][(3, 0)] == 18
        assert g3[3][(4, 0)] == 18
        assert g3[3][(5, 0)] == 6

    def test_complete_rank_two_factor(self):
        # through order 2 the factor is exactly 1 + (4 y^2 + 2 y^3) x^2/2!
        assert gamma3(2) == [{(0, 0): 1}, {}, {(2, 0): 4, (3, 0): 2}]

    def test_no_z_terms(self):
        for entry in gamma3(5):
            assert all(v == 0 for (_, v) in entry)


class TestGammaProduct:
    def test_rank_two_coefficients(self):
        # keys are (vertices, cardinality, bipartite components)
        assert gamma_product(2, Mode.CORRECTED) == {
            (0, 0, 0): 1,
            (1, 1, 0): 2,
            (2, 1, 1): 1,
            (2, 2, 0): 8,
            (2, 3, 0): 2,
        }

    def test_extracted_counts(self):
        gamma = extract_counts(gamma_product(2, Mode.CORRECTED))
        assert gamma.count(0, 0, 0) == 1
        assert gamma.count(1, 1, 0) == 2
        assert gamma.count(1, 1, 1) == 1
        assert gamma.count(2, 2, 0) == 8

    def test_matches_colored_graph_enumeration(self):
        gamma = extract_counts(gamma_product(4, Mode.CORRECTED))
        for m in range(1, 5):
            truth = colored_graph_counts(m)
            computed = {k: v for k, v in gamma.items() if k[0] + k[2] == m}
            assert computed == truth, m

    def test_rank_cardinality_table_matches_census(self):
        gamma = extract_counts(gamma_product(5, Mode.CORRECTED))
        for n in range(1, 6):
            assert gamma.rank_cardinality_table(n) == central_census(n), n

    def test_paper_and_corrected_identical_through_rank_four(self):
        paper = extract_counts(gamma_product(4, Mode.PAPER), check_rank_bound=False)
        corrected = extract_counts(gamma_product(4, Mode.CORRECTED))
        assert dict(paper.items()) == dict(corrected.items())

    def test_no_entry_beyond_n_vertices(self):
        assert max(m for (m, _, _) in gamma_product(7)) == 7

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            gamma_product(0)


class TestExtractCounts:
    def test_integrality_enforced(self, monkeypatch):
        # half the log of the bicolored table counts connected bipartite
        # graphs; an odd entry there must fail, not be rounded
        true_table = graphcounts.bicolored_table

        def odd_table(n, cap):
            table = true_table(n, cap)
            table[2][(1, 0)] += 1
            return table

        monkeypatch.setattr(graphcounts, "bicolored_table", odd_table)
        with pytest.raises(ConsistencyError, match="odd"):
            extract_counts(gamma_product(3))

    def test_rank_bound_enforced_when_strict(self):
        entries = {(0, 0, 0): 1, (2, 1, 0): 1}
        with pytest.raises(ConsistencyError):
            extract_counts(entries)
        relaxed = extract_counts(entries, check_rank_bound=False)
        assert relaxed.count(2, 1, 0) == 1

    def test_rank_bound_holds_in_corrected_mode(self):
        gamma = extract_counts(gamma_product(12, Mode.CORRECTED))
        assert all(c >= r for (r, c, _), _ in gamma.items())

    def test_rank_is_vertices_minus_components(self):
        gamma = extract_counts({(0, 0, 0): 1, (6, 3, 3): 15})
        assert gamma.count(3, 3, 3) == 15

    def test_negative_count_rejected(self):
        with pytest.raises(ConsistencyError):
            extract_counts({(0, 0, 0): 1, (2, 2, 0): -1})

    def test_paper_mode_product_needs_relaxed_bound_from_rank_five(self):
        series = gamma_product(5, Mode.PAPER)
        with pytest.raises(ConsistencyError):
            extract_counts(series)
        gamma = extract_counts(series, check_rank_bound=False)
        assert gamma.count(5, 4, 0) == 10

    def test_empty_graph_required(self):
        with pytest.raises(ConsistencyError):
            GammaCoefficients({(1, 1, 0): 2})
        with pytest.raises(ConsistencyError):
            extract_counts({(0, 0, 0): 2})
