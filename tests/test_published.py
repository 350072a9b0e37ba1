"""Structural checks on the published reference data and the diff helper."""

from math import comb

import pytest

from pairsum.central import Mode
from pairsum.charpoly import IntPolynomial, chi
from pairsum.published import (
    PUBLISHED_CHAMBER_TOTAL,
    diff_polynomials,
    published_chamber_total,
    published_chi,
)


class TestPublishedData:
    def test_ranks_covered(self):
        assert all(published_chi(n) is not None for n in range(2, 11))
        assert published_chi(1) is None
        assert published_chi(11) is None
        assert published_chamber_total(2) is None
        assert sorted(PUBLISHED_CHAMBER_TOTAL) == list(range(3, 11))

    def test_rows_are_monic_with_correct_wall_count(self):
        # the published rows do carry the structurally forced top
        # coefficients, which corroborates the transcription
        for n in range(2, 11):
            poly = published_chi(n)
            assert poly.degree == n
            assert poly.coefficient(n) == 1
            # C(n,2) pair walls plus 2n coordinate walls
            assert poly.coefficient(n - 1) == -(comb(n, 2) + 2 * n)

    def test_published_chamber_column_inconsistent_with_rows_at_seven(self):
        # the published polynomial and chamber column contradict each other
        # at n = 7; the reports surface this rather than resolving it
        poly = published_chi(7)
        assert (-1) ** 7 * poly(-1) == 2955042
        assert published_chamber_total(7) == 170770

    def test_published_chamber_column_consistent_elsewhere(self):
        for n in (3, 4, 5, 6, 8, 9, 10):
            poly = published_chi(n)
            assert (-1) ** n * poly(-1) == published_chamber_total(n), n


@pytest.mark.parametrize("mode", list(Mode))
class TestNoModeReproducesThePublishedRows:
    def test_rows_match_at_two_and_three_only(self, mode):
        matches = [n for n in range(2, 11) if chi(n, mode) == published_chi(n)]
        assert matches == [2, 3]

    def test_central_graph_counts_no_gamma_can_have(self, mode):
        # d_n = published - chi_n.  The binomial transform of d_n[t^(n-3)] is
        # delta(m, m - 3), the difference in signed counts of central graphs
        # on m vertices with m - 3 type-0 components.  A type-0 component has
        # at least two vertices, so a Gamma that gave the published rows
        # would need delta = 0 from m = 7 on; it is 13 (-1)^m C(m, 4)
        d = {n: published_chi(n).coefficient(n - 3) - chi(n, mode).coefficient(n - 3)
             for n in range(3, 11)}
        deltas = [sum((-1) ** (m - n) * comb(m, n) * d[n] for n in range(3, m + 1))
                  for m in range(4, 11)]
        assert deltas == [13, -65, 195, -455, 910, -1638, 2730]
        assert deltas == [13 * (-1) ** m * comb(m, 4) for m in range(4, 11)]


class TestDiffPolynomials:
    def test_equal_polynomials(self):
        poly = IntPolynomial([1, 2, 3])
        assert diff_polynomials(poly, poly) == []

    def test_highest_power_first(self):
        a = IntPolynomial([1, 2, 3])
        b = IntPolynomial([9, 2, 8])
        assert diff_polynomials(a, b) == [(2, 3, 8), (0, 1, 9)]

    def test_degree_mismatch(self):
        a = IntPolynomial([1])
        b = IntPolynomial([1, 0, 1])
        assert diff_polynomials(a, b) == [(2, 0, 1)]
