"""Characteristic polynomial assembly, rendering and chamber counts."""

import pytest

from pairsum.central import Mode
from pairsum.charpoly import (
    ChamberCounts,
    IntPolynomial,
    chambers,
    chi,
    chi_table,
    hyperplane_count,
    signs_alternate,
)


class TestIntPolynomial:
    def test_rendering(self):
        assert str(IntPolynomial([6, -5, 1])) == "t^2 - 5t + 6"
        assert str(IntPolynomial([-27, 27, -9, 1])) == "t^3 - 9t^2 + 27t - 27"
        assert str(IntPolynomial([-2, 1])) == "t - 2"
        assert str(IntPolynomial([0])) == "0"
        assert str(IntPolynomial([0, 0, 3])) == "3t^2"
        assert str(IntPolynomial([5])) == "5"
        assert str(IntPolynomial([0, -1])) == "-t"

    def test_latex_braces_only_from_power_ten(self):
        poly = IntPolynomial([0] * 10 + [1])
        assert poly.latex() == "t^{10}"
        assert IntPolynomial([0, 0, 1]).latex() == "t^2"

    def test_trailing_zeros_stripped(self):
        assert IntPolynomial([1, 2, 0, 0]).degree == 1

    def test_evaluation_is_exact_int(self):
        poly = IntPolynomial([6, -5, 1])
        assert poly(-1) == 12
        assert poly(1) == 2
        assert poly(10**6) == 10**12 - 5 * 10**6 + 6

    def test_coefficient_beyond_degree_is_zero(self):
        assert IntPolynomial([1, 1]).coefficient(5) == 0


class TestChi:
    def test_rank_one(self):
        assert chi(1) == IntPolynomial([-2, 1])

    def test_rank_two_and_three_both_modes(self):
        for mode in Mode:
            assert chi(2, mode) == IntPolynomial([6, -5, 1])
            assert chi(3, mode) == IntPolynomial([-27, 27, -9, 1])

    def test_rank_four_oracle_verified_value(self):
        # triple-checked against subset expansion and finite-field counts;
        # note this differs from the previously published table
        expected = IntPolynomial([165, -181, 75, -14, 1])
        assert chi(4, Mode.CORRECTED) == expected
        assert chi(4, Mode.PAPER) == expected

    def test_rank_five_modes_differ_by_ten_in_constant(self):
        corrected = chi(5, Mode.CORRECTED)
        paper = chi(5, Mode.PAPER)
        assert corrected.coefficient(0) + 10 == paper.coefficient(0)
        for power in range(1, 6):
            assert corrected.coefficient(power) == paper.coefficient(power)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            chi(0)

    def test_structure_through_rank_eight(self):
        for n in range(1, 9):
            poly = chi(n)
            assert poly.degree == n
            assert poly.coefficient(n) == 1
            assert poly.coefficient(n - 1) == -hyperplane_count(n)


class TestChambers:
    def test_rank_two(self):
        assert chambers(2) == ChamberCounts(total=12, bounded=2)

    def test_rank_three(self):
        assert chambers(3) == ChamberCounts(total=64, bounded=8)

    def test_counts_are_plausible_through_rank_ten(self):
        table = chi_table(10)
        for n, poly in zip(range(2, 11), table):
            sign = -1 if n % 2 else 1
            total = sign * poly(-1)
            bounded = sign * poly(1)
            assert total >= 1, n
            assert total >= bounded >= 0, n
        counts1 = chambers(1)
        assert counts1.total == 3 and counts1.bounded == 1


def stirling2_rows(n_max):
    """rows[n][j] = S(n, j), the Stirling numbers of the second kind."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, n + 1)])
    return rows


def stirling_closed_form(n, rows):
    """Corrected chi_n(t) = sum_j (S(n,j) + n S(n-1,j)) prod_{i<j} (t-3-2i).

    Substituting y = -1 into the corrected Gamma product makes the signed
    bicolored series 2e^x - 1 and the signed all-graphs series 1 + x, which
    gives n! [x^n] (1+x)(2e^x-1)^((t-3)/2).
    """
    total = [0] * (n + 1)
    falling = [1]  # prod_{i<j} (t - 3 - 2i), ascending powers of t
    for j in range(n + 1):
        weight = rows[n][j] + (n * rows[n - 1][j] if j <= n - 1 else 0)
        for power, c in enumerate(falling):
            total[power] += weight * c
        shift = -3 - 2 * j
        falling = [
            (falling[p - 1] if p else 0) + (shift * falling[p] if p < len(falling) else 0)
            for p in range(len(falling) + 1)
        ]
    return IntPolynomial(total)


class TestClosedForm:
    def test_corrected_chi_matches_stirling_closed_form(self):
        rows = stirling2_rows(20)
        for n in range(1, 21):
            assert chi(n) == stirling_closed_form(n, rows), n

    def test_closed_form_reproduces_worked_examples(self):
        rows = stirling2_rows(3)
        assert str(stirling_closed_form(2, rows)) == "t^2 - 5t + 6"
        assert str(stirling_closed_form(3, rows)) == "t^3 - 9t^2 + 27t - 27"


class TestChiTable:
    def test_shared_table_matches_individual_runs(self):
        for mode in Mode:
            table = chi_table(6, mode)
            assert table == [chi(n, mode) for n in range(2, 7)]

    def test_requires_at_least_two(self):
        with pytest.raises(ValueError):
            chi_table(1)


class TestSignsAlternate:
    def test_alternating(self):
        assert signs_alternate(IntPolynomial([6, -5, 1]))
        assert signs_alternate(IntPolynomial([-27, 27, -9, 1]))

    def test_not_alternating(self):
        assert not signs_alternate(IntPolynomial([6, 5, 1]))
        assert not signs_alternate(IntPolynomial([-6, -5, 1]))

    def test_zero_coefficient_fails(self):
        assert not signs_alternate(IntPolynomial([1, 0, 1]))

    def test_published_rows_from_rank_seven_do_not_alternate(self):
        from pairsum.published import published_chi

        for n in (7, 8, 9, 10):
            assert not signs_alternate(published_chi(n))
        for n in (2, 3, 4, 5, 6):
            assert signs_alternate(published_chi(n))


class TestHyperplaneCount:
    def test_values(self):
        assert hyperplane_count(1) == 2
        assert hyperplane_count(2) == 5
        assert hyperplane_count(3) == 9
        assert hyperplane_count(4) == 14
