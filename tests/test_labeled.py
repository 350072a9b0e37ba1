"""Properties of the integer labeled-count series behind every Gamma factor."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsum import labeled

CAP = 5
LENGTH = 6

counts = st.integers(min_value=-30, max_value=30)
polys = st.dictionaries(
    st.tuples(st.integers(0, CAP), st.integers(0, 2)), counts, max_size=4
).map(lambda poly: {key: value for key, value in poly.items() if value})


def series(first):
    return st.lists(polys, min_size=LENGTH - 1, max_size=LENGTH - 1).map(
        lambda rest: [first, *rest]
    )


any_series = polys.flatmap(series)
no_constant = series({})  # valid input to exp
unit_constant = series(dict(labeled.ONE))  # valid input to log

fast = settings(max_examples=60, deadline=None)


@fast
@given(no_constant)
def test_log_inverts_exp(f):
    assert labeled.log(labeled.exp(f, CAP), CAP) == f


@fast
@given(unit_constant)
def test_exp_inverts_log(h):
    assert labeled.exp(labeled.log(h, CAP), CAP) == h


@fast
@given(any_series, any_series)
def test_product_commutes(a, b):
    assert labeled.product(a, b, CAP) == labeled.product(b, a, CAP)


@fast
@given(any_series, any_series, any_series)
def test_product_associates(a, b, c):
    left = labeled.product(labeled.product(a, b, CAP), c, CAP)
    right = labeled.product(a, labeled.product(b, c, CAP), CAP)
    assert left == right


@fast
@given(no_constant, no_constant)
def test_exp_turns_sums_into_products(f, g):
    total = labeled.difference(f, [{key: -value for key, value in e.items()} for e in g])
    assert labeled.exp(total, CAP) == labeled.product(
        labeled.exp(f, CAP), labeled.exp(g, CAP), CAP
    )


@fast
@given(any_series)
def test_product_by_one(a):
    one = [dict(labeled.ONE)] + [{}] * (LENGTH - 1)
    assert labeled.product(a, one, CAP) == a


def test_exp_of_single_vertex_counts_sets():
    # exp(x) = e^x: exactly one set on every vertex count
    x = [{}, {(0, 0): 1}, {}, {}, {}]
    assert labeled.exp(x, CAP) == [{(0, 0): 1}] * 5


def test_binomial_weights():
    # (x y)^2/2! squared is x^4 y^4 * C(4,2) / 4!
    pair = [{}, {}, {(1, 0): 1}, {}, {}]
    assert labeled.product(pair, pair, CAP)[4] == {(2, 0): comb(4, 2)}


def test_cap_drops_high_cardinality():
    edge = [{}, {}, {(3, 1): 1}, {}, {}]
    assert labeled.product(edge, edge, CAP)[4] == {}
    assert labeled.product(edge, edge, 6)[4] == {(6, 2): comb(4, 2)}


def test_exp_requires_empty_constant_entry():
    with pytest.raises(ValueError):
        labeled.exp([{(0, 0): 1}, {}], CAP)


def test_log_requires_unit_constant_entry():
    with pytest.raises(ValueError):
        labeled.log([{(0, 0): 2}, {}], CAP)
    with pytest.raises(ValueError):
        labeled.log([], CAP)
