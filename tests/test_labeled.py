"""Properties of the integer labeled-count series behind every Gamma factor."""

from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairsum import labeled

LENGTH = 6

counts = st.integers(min_value=-30, max_value=30)
polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 2)), counts, max_size=4
).map(lambda poly: {key: value for key, value in poly.items() if value})


def series(first, min_length=LENGTH):
    return st.lists(polys, min_size=min_length - 1, max_size=LENGTH - 1).map(
        lambda rest: [first, *rest]
    )


any_series = polys.flatmap(series)
no_constant = series({})  # valid input to exp
unit_constant = series(dict(labeled.ONE))  # valid input to log
any_length = polys.flatmap(lambda first: series(first, min_length=1))

# (1 + y)(1 - y) = 1 - y^2: the y terms cancel inside one product entry, and
# the operands cover different vertex counts
ONE_PLUS_Y = [{(0, 0): 1, (1, 0): 1}]
ONE_MINUS_Y = [{(0, 0): 1, (1, 0): -1}, {}]

fast = settings(max_examples=60, deadline=None, derandomize=True)


@fast
@given(no_constant)
def test_log_inverts_exp(f):
    assert labeled.log(labeled.exp(f)) == f


@fast
@given(no_constant)
def test_exp_is_the_sum_of_powers_over_factorials(f):
    # exp f = sum_k f^k / k!; f^k starts at vertex count k, so k < len(f) suffices
    total = [{} for _ in f]
    power = [dict(labeled.ONE)] + [{}] * (len(f) - 1)
    for k in range(len(f)):
        for entry, term in zip(total, power):
            for key, value in term.items():
                assert value % factorial(k) == 0  # k! orders of the same k blocks
                entry[key] = entry.get(key, 0) + value // factorial(k)
        power = labeled.product(power, f)
    assert labeled.exp(f) == [{key: v for key, v in entry.items() if v} for entry in total]


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
@given(any_length, any_length, any_length)
@example(ONE_PLUS_Y, ONE_MINUS_Y, [{}, {}])
def test_product_distributes_over_difference(a, b, c):
    left = labeled.product(a, labeled.difference(b, c))
    right = labeled.difference(labeled.product(a, b), labeled.product(a, c))
    assert left == right


@fast
@given(any_length, any_length, series({}, min_length=1), series(dict(labeled.ONE), min_length=1))
@example(ONE_PLUS_Y, ONE_MINUS_Y, [{}], [dict(labeled.ONE)])
def test_no_stored_zeros_or_extra_vertex_counts(a, b, f, h):
    shorter = min(len(a), len(b))
    results = (
        (labeled.product(a, b), shorter),
        (labeled.difference(a, b), shorter),
        (labeled.exp(f), len(f)),
        (labeled.log(h), len(h)),
    )
    for result, length in results:
        assert len(result) <= length
        assert all(value for entry in result for value in entry.values())


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
