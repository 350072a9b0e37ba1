"""Unit and property tests for the trivariate EGF value type and its product."""

from fractions import Fraction
import random

import pytest

from pairsum.series import TruncatedSeries, TruncationCaps

CAPS = TruncationCaps(4, 4, 2)


def S(coeffs, caps=CAPS):
    return TruncatedSeries(caps, coeffs)


def random_series(rng, caps=TruncationCaps(6, 6, 3), terms=6):
    coeffs = {}
    for _ in range(terms):
        key = (
            rng.randint(0, caps.dx),
            rng.randint(0, caps.dy),
            rng.randint(0, caps.dz),
        )
        coeffs[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return TruncatedSeries(caps, coeffs)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        f = S({(1, 0, 0): 0, (2, 1, 0): Fraction(1, 2)})
        assert len(f) == 1
        assert f.coefficient(2, 1, 0) == Fraction(1, 2)

    def test_key_beyond_caps_rejected(self):
        with pytest.raises(ValueError):
            S({(5, 0, 0): 1})

    def test_negative_caps_rejected(self):
        with pytest.raises(ValueError):
            TruncationCaps(-1, 0, 0)

    def test_immutable(self):
        f = S({(1, 1, 0): 1})
        with pytest.raises(AttributeError):
            f.caps = TruncationCaps(1, 1, 1)


class TestMul:
    def test_square(self):
        one_plus_x = S({(0, 0, 0): 1, (1, 0, 0): 1}, TruncationCaps(2, 0, 0))
        sq = one_plus_x * one_plus_x
        assert sq == S({(0, 0, 0): 1, (1, 0, 0): 2, (2, 0, 0): 1}, TruncationCaps(2, 0, 0))

    def test_truncation_drops_high_degree(self):
        caps = TruncationCaps(1, 0, 0)
        one_plus_x = S({(0, 0, 0): 1, (1, 0, 0): 1}, caps)
        assert one_plus_x * one_plus_x == S({(0, 0, 0): 1, (1, 0, 0): 2}, caps)

    def test_cross_term(self):
        # (1 + xyz/2)(1 + 2xy) has x^2 y^2 z coefficient 1
        caps = TruncationCaps(2, 2, 1)
        a = S({(0, 0, 0): 1, (1, 1, 1): Fraction(1, 2)}, caps)
        b = S({(0, 0, 0): 1, (1, 1, 0): 2}, caps)
        assert (a * b).coefficient(2, 2, 1) == 1

    def test_caps_meet(self):
        a = S({(1, 0, 0): 1}, TruncationCaps(4, 2, 0))
        b = S({(1, 0, 0): 1}, TruncationCaps(2, 4, 1))
        assert (a * b).caps == TruncationCaps(2, 2, 0)


class TestCoefficientQueries:
    def test_half(self):
        f = S({(0, 0, 0): 1, (1, 1, 1): Fraction(1, 2)}, TruncationCaps(1, 1, 1))
        assert f.coefficient(1, 1, 1) == Fraction(1, 2)

    def test_beyond_caps_rejected(self):
        f = S({(1, 1, 0): 1})
        with pytest.raises(ValueError):
            f.coefficient(5, 0, 0)


class TestRingProperties:
    def test_ring_axioms(self):
        rng = random.Random(42)
        for _ in range(30):
            f = random_series(rng)
            g = random_series(rng)
            h = random_series(rng)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)

    def test_no_stored_zeros_or_overflow_keys(self):
        rng = random.Random(21)
        for _ in range(30):
            f = random_series(rng)
            g = random_series(rng)
            result = f * g
            for key, value in result.items():
                assert value != 0
                assert result.caps.admits(key)
