"""Characteristic polynomial assembly, rendering and chamber counts."""

import random
import sys
from fractions import Fraction
from math import comb

import pytest

import pairsum
from pairsum import polynomial
from pairsum.central import Mode, whitney_numbers
from pairsum.charpoly import (
    ChamberCounts,
    IntPolynomial,
    chambers,
    chi,
    chi_table,
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
        assert str(IntPolynomial([1, 1])) == "t + 1"

    def test_latex_braces_only_from_power_ten(self):
        poly = IntPolynomial([0] * 10 + [1])
        assert poly.latex() == "t^{10}"
        assert IntPolynomial([0, 0, 1]).latex() == "t^2"

    def test_trailing_zeros_stripped(self):
        assert IntPolynomial([1, 2, 0, 0]).degree == 1
        assert IntPolynomial([5, 0]).degree == 0

    def test_evaluation_is_exact_int(self):
        poly = IntPolynomial([6, -5, 1])
        assert poly(-1) == 12
        assert poly(1) == 2
        assert poly(10**6) == 10**12 - 5 * 10**6 + 6

    def test_coefficient_beyond_degree_is_zero(self):
        assert IntPolynomial([1, 1]).coefficient(5) == 0

    @pytest.mark.parametrize(
        "coeffs", [[0.5, 1.9], [1.0], ["3"], [Fraction(1, 2)], [Fraction(3)], [2, None]]
    )
    def test_non_integer_coefficients_raise(self, coeffs):
        # no silent truncation: IntPolynomial([0.5, 1.9]) once printed "t"
        with pytest.raises(TypeError):
            IntPolynomial(coeffs)

    def test_equal_polynomials_hash_equal(self):
        # trailing zeros are stripped before hashing, so a set holds one of them
        assert hash(IntPolynomial([1, 2, 0])) == hash(IntPolynomial([1, 2]))
        assert len({IntPolynomial([1, 2, 0]), IntPolynomial([1, 2])}) == 1

    @pytest.mark.parametrize("coeffs", [[6, -5, 1], [0], [0, 0, 3], [-(10**30), 1]])
    def test_repr_evaluates_back(self, coeffs):
        poly = IntPolynomial(coeffs)
        assert eval(repr(poly), {"IntPolynomial": IntPolynomial}) == poly

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
    def test_decimal_str_is_str_past_the_digit_limit(self):
        rng = random.Random(20)
        values = [0, -1, 10**4300, -(10**1279)]
        values += [rng.randrange(-(10**d), 10**d) for d in (639, 640, 641, 1280, 4301, 20000)]
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            printed = [polynomial.decimal_str(value) for value in values]
            sys.set_int_max_str_digits(0)
            assert printed == [str(value) for value in values]
        finally:
            sys.set_int_max_str_digits(limit)

    def test_one_class_under_every_public_name(self):
        # it lives in the leaf module; charpoly and the package re-export it
        assert IntPolynomial is polynomial.IntPolynomial is pairsum.IntPolynomial


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

    def test_mode_by_value(self):
        # Mode is a str enum: its values select the same variant as its members
        for n in (5, 7):
            assert chi(n, "paper") == chi(n, Mode.PAPER)
            assert chi(n, "corrected") == chi(n, Mode.CORRECTED)
        assert chi(7, "paper") != chi(7, "corrected")
        with pytest.raises(ValueError):
            chi(3, "bogus")

    def test_matches_cardinality_resolved_assembly(self):
        # sum_c (-1)^c over the full (rank, cardinality) table of Gamma
        for mode in Mode:
            for n in range(1, 16):
                coeffs = [0] * (n + 1)
                for (r, c), count in whitney_numbers(n, mode).items():
                    coeffs[n - r] += -count if c % 2 else count
                assert chi(n, mode) == IntPolynomial(coeffs), (mode, n)

    def test_structure_through_rank_eight(self):
        for n in range(1, 9):
            poly = chi(n)
            assert poly.degree == n
            assert poly.coefficient(n) == 1
            # one wall x_i + x_j = 1 per pair and two walls x_k = 0, x_k = 1 per coordinate
            assert poly.coefficient(n - 1) == -(comb(n, 2) + 2 * n)


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

    def test_is_zaslavsky_reading_of_chi_through_forty(self):
        # the contract any faster chambers (say, evaluating Gamma at z = +-1)
        # must keep: the same counts as reading chi_n at -1 and +1
        for mode in Mode:
            for n in range(1, 41):
                assert chambers(n, mode) == ChamberCounts.of(chi(n, mode)), (mode, n)


def stirling2_rows(n_max):
    """rows[n][j] = S(n, j), the Stirling numbers of the second kind."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, n + 1)])
    return rows


def stirling_closed_form(n, rows):
    """Corrected chi_n(t) = P_3(n) + n P_3(n-1) (:func:`stirling_sum`), that is
    sum_j (S(n,j) + n S(n-1,j)) prod_{i<j} (t-3-2i).

    Substituting y = -1 into the corrected Gamma product makes the signed
    bicolored series 2e^x - 1 and the signed all-graphs series 1 + x, which
    gives n! [x^n] (1+x)(2e^x-1)^((t-3)/2).
    """
    total = stirling_sum(n, 3, rows)
    for power, c in enumerate(stirling_sum(n - 1, 3, rows)):
        total[power] += n * c
    return IntPolynomial(total)


def stirling_sum(m, s, rows):
    """P_s(m) = sum_j S(m, j) prod_{i<j} (t - s - 2i), ascending powers of t,
    which is m! [x^m] (2e^x - 1)^((t - s)/2)."""
    total = [0] * (m + 1)
    falling = [1]
    for j in range(m + 1):
        for power, c in enumerate(falling):
            total[power] += rows[m][j] * c
        falling = [0, *falling]
        for power in range(len(falling) - 1):
            falling[power] -= (s + 2 * j) * falling[power + 1]
    return total


def paper_closed_form(n, rows):
    """Paper-mode chi_n(t) = P_2(n) + sum_k C(n,k) (-1)^k (1-k) P_2(n-k)
    - sum_k C(n,k) (-1)^k P_1(n-k), with P_s from :func:`stirling_sum`.

    This is n! [x^n] of [1 + (1+x)e^{-x}] (2e^x-1)^((t-2)/2) - e^{-x} (2e^x-1)^((t-1)/2),
    the paper's own generating function at y = -1.  So it checks the labeled
    machinery and the paper branch of the pipeline, not the paper's derivation.
    """
    total = stirling_sum(n, 2, rows)
    for k in range(n + 1):
        sign = comb(n, k) * (-1) ** k
        for s, weight in ((2, sign * (1 - k)), (1, -sign)):
            for power, c in enumerate(stirling_sum(n - k, s, rows)):
                total[power] += weight * c
    return IntPolynomial(total)


class TestClosedForm:
    def test_corrected_chi_matches_stirling_closed_form(self):
        rows = stirling2_rows(60)
        for n in (*range(1, 21), 60):
            assert chi(n) == stirling_closed_form(n, rows), n

    def test_paper_chi_matches_paper_closed_form(self):
        # the first check of paper mode independent of the pinned digests
        rows = stirling2_rows(60)
        for n in (*range(1, 21), 40, 60):
            assert chi(n, Mode.PAPER) == paper_closed_form(n, rows), n

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
        assert signs_alternate(IntPolynomial([1, -1]))  # a coefficient of 1 below the top
        # a nonzero constant has no adjacent pair to compare
        assert signs_alternate(IntPolynomial([5]))
        assert signs_alternate(IntPolynomial([-5]))

    def test_not_alternating(self):
        assert not signs_alternate(IntPolynomial([6, 5, 1]))
        assert not signs_alternate(IntPolynomial([-6, -5, 1]))

    def test_zero_coefficient_fails(self):
        assert not signs_alternate(IntPolynomial([1, 0, 1]))
        assert not signs_alternate(IntPolynomial([0, 1]))
        assert not signs_alternate(IntPolynomial([]))  # the zero polynomial

    def test_published_rows_from_rank_seven_do_not_alternate(self):
        from pairsum.published import published_chi

        for n in (7, 8, 9, 10):
            assert not signs_alternate(published_chi(n))
        for n in (2, 3, 4, 5, 6):
            assert signs_alternate(published_chi(n))
