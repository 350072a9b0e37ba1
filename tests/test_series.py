"""Unit and property tests for the truncated trivariate series."""

from fractions import Fraction
import random

import pytest

from pairsum.series import TruncatedSeries, TruncationCaps

CAPS = TruncationCaps(4, 4, 2)


def S(coeffs, caps=CAPS):
    return TruncatedSeries(caps, coeffs)


def random_series(rng, caps=TruncationCaps(6, 6, 3), terms=6, zero_constant=False):
    coeffs = {}
    for _ in range(terms):
        key = (
            rng.randint(0, caps.dx),
            rng.randint(0, caps.dy),
            rng.randint(0, caps.dz),
        )
        if zero_constant and key == (0, 0, 0):
            continue
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


class TestAdd:
    def test_cancellation(self):
        # (1 + x) + (1 - x) = 2
        a = S({(0, 0, 0): 1, (1, 0, 0): 1})
        b = S({(0, 0, 0): 1, (1, 0, 0): -1})
        assert a + b == S({(0, 0, 0): 2})

    def test_additive_identity(self):
        rng = random.Random(7)
        for _ in range(10):
            f = random_series(rng)
            assert f + TruncatedSeries.zero(f.caps) == f

    def test_rational_arithmetic(self):
        # x^2 y/2 + x^2 y/3 = 5/6 x^2 y
        a = S({(2, 1, 0): Fraction(1, 2)})
        b = S({(2, 1, 0): Fraction(1, 3)})
        assert (a + b).coefficient(2, 1, 0) == Fraction(5, 6)

    def test_caps_meet(self):
        a = S({(1, 0, 0): 1}, TruncationCaps(4, 2, 0))
        b = S({(1, 0, 0): 1}, TruncationCaps(2, 4, 1))
        assert (a + b).caps == TruncationCaps(2, 2, 0)
        assert (a * b).caps == TruncationCaps(2, 2, 0)


class TestCapAdjustment:
    def test_truncated_drops_terms(self):
        f = S({(1, 0, 0): 1, (3, 0, 0): 1}, TruncationCaps(4, 0, 0))
        g = f.truncated(TruncationCaps(2, 0, 0))
        assert g == S({(1, 0, 0): 1}, TruncationCaps(2, 0, 0))

    def test_truncated_cannot_grow(self):
        f = S({(1, 0, 0): 1}, TruncationCaps(2, 0, 0))
        with pytest.raises(ValueError):
            f.truncated(TruncationCaps(3, 0, 0))


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

    def test_scalar(self):
        f = S({(1, 1, 0): Fraction(3, 4)})
        assert (f * 2).coefficient(1, 1, 0) == Fraction(3, 2)
        assert (f / 3).coefficient(1, 1, 0) == Fraction(1, 4)


class TestExp:
    def test_exp_zero(self):
        assert TruncatedSeries.zero(CAPS).exp() == TruncatedSeries.one(CAPS)

    def test_exp_x(self):
        caps = TruncationCaps(3, 0, 0)
        e = TruncatedSeries.monomial(caps, (1, 0, 0)).exp()
        assert e == S(
            {(0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 0): Fraction(1, 2), (3, 0, 0): Fraction(1, 6)},
            caps,
        )

    def test_exp_log_roundtrip(self):
        caps = TruncationCaps(4, 4, 0)
        f = S({(0, 0, 0): 1, (1, 0, 0): 1, (2, 1, 0): 1}, caps)
        assert f.log().exp() == f

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries.one(CAPS).exp()


class TestLog:
    def test_log_one(self):
        assert TruncatedSeries.one(CAPS).log() == TruncatedSeries.zero(CAPS)

    def test_log_taylor(self):
        caps = TruncationCaps(3, 0, 0)
        f = S({(0, 0, 0): 1, (1, 0, 0): 2}, caps)
        assert f.log() == S(
            {(1, 0, 0): 2, (2, 0, 0): -2, (3, 0, 0): Fraction(8, 3)}, caps
        )

    def test_log_exp_roundtrip(self):
        f = S({(2, 3, 0): 1}, TruncationCaps(4, 6, 0))
        assert f.exp().log() == f

    def test_wrong_constant_rejected(self):
        with pytest.raises(ValueError):
            S({(0, 0, 0): 2}).log()
        with pytest.raises(ValueError):
            TruncatedSeries.zero(CAPS).log()


class TestCoefficientQueries:
    def test_half(self):
        f = S({(0, 0, 0): 1, (1, 1, 1): Fraction(1, 2)}, TruncationCaps(1, 1, 1))
        assert f.coefficient(1, 1, 1) == Fraction(1, 2)

    def test_beyond_caps_rejected(self):
        f = S({(1, 1, 0): 1})
        with pytest.raises(ValueError):
            f.coefficient(5, 0, 0)

    def test_exp_x_squared_coefficient(self):
        e = TruncatedSeries.monomial(TruncationCaps(2, 0, 0), (1, 0, 0)).exp()
        assert e.coefficient(2, 0, 0) == Fraction(1, 2)


class TestRingProperties:
    def test_ring_axioms(self):
        rng = random.Random(42)
        for _ in range(30):
            f = random_series(rng)
            g = random_series(rng)
            h = random_series(rng)
            assert f + g == g + f
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_exp_log_roundtrips(self):
        rng = random.Random(99)
        caps = TruncationCaps(4, 4, 2)
        for _ in range(30):
            f = random_series(rng, caps=caps, terms=4, zero_constant=True)
            assert (TruncatedSeries.one(caps) + f).log().exp() == TruncatedSeries.one(caps) + f
            assert f.exp().log() == f

    def test_exp_additivity(self):
        rng = random.Random(5)
        caps = TruncationCaps(4, 4, 2)
        for _ in range(30):
            f = random_series(rng, caps=caps, terms=4, zero_constant=True)
            g = random_series(rng, caps=caps, terms=4, zero_constant=True)
            assert (f + g).exp() == f.exp() * g.exp()

    def test_no_stored_zeros_or_overflow_keys(self):
        rng = random.Random(21)
        for _ in range(30):
            f = random_series(rng)
            g = random_series(rng)
            for result in (f + g, f - g, f * g):
                for key, value in result.items():
                    assert value != 0
                    assert result.caps.admits(key)
