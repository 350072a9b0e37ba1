"""Properties of the integer labeled-count series behind every Gamma factor."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsum import labeled

LENGTH = 6

counts = st.integers(min_value=-30, max_value=30)
polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 2)), counts, max_size=4
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
    assert labeled.log(labeled.exp(f)) == f


@fast
@given(unit_constant)
def test_exp_inverts_log(h):
    assert labeled.exp(labeled.log(h)) == h


@fast
@given(any_series, any_series)
def test_product_commutes(a, b):
    assert labeled.product(a, b) == labeled.product(b, a)


@fast
@given(any_series, any_series, any_series)
def test_product_associates(a, b, c):
    left = labeled.product(labeled.product(a, b), c)
    right = labeled.product(a, labeled.product(b, c))
    assert left == right


@fast
@given(no_constant, no_constant)
def test_exp_turns_sums_into_products(f, g):
    total = labeled.difference(f, [{key: -value for key, value in e.items()} for e in g])
    assert labeled.exp(total) == labeled.product(labeled.exp(f), labeled.exp(g))


@fast
@given(any_series)
def test_product_by_one(a):
    one = [dict(labeled.ONE)] + [{}] * (LENGTH - 1)
    assert labeled.product(a, one) == a


def test_exp_of_single_vertex_counts_sets():
    # exp(x) = e^x: exactly one set on every vertex count
    x = [{}, {(0, 0): 1}, {}, {}, {}]
    assert labeled.exp(x) == [{(0, 0): 1}] * 5


def test_binomial_weights():
    # (x y)^2/2! squared is x^4 y^4 * C(4,2) / 4!
    pair = [{}, {}, {(1, 0): 1}, {}, {}]
    assert labeled.product(pair, pair)[4] == {(2, 0): comb(4, 2)}


def test_cap_drops_high_cardinality():
    # nothing is truncated by cardinality: only the vertex count cuts off
    edge = [{}, {}, {(3, 1): 1}, {}, {}]
    assert labeled.product(edge, edge)[4] == {(6, 2): comb(4, 2)}


def test_exp_requires_empty_constant_entry():
    with pytest.raises(ValueError):
        labeled.exp([{(0, 0): 1}, {}])


def test_log_requires_unit_constant_entry():
    with pytest.raises(ValueError):
        labeled.log([{(0, 0): 2}, {}])
    with pytest.raises(ValueError):
        labeled.log([])
