"""Brute-force oracles: arrangement construction, exact centrality, subset
expansion, finite-field counting and the graph census."""

from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsum.charpoly import IntPolynomial, chi
from pairsum.oracle import (
    MAX_VERIFICATION_PRIME,
    _arrangement_rows,
    _forward_pass,
    _insert,
    build_arrangement,
    central_census,
    default_verification_primes,
    enumerate_graphs,
    finite_field_count,
    interpolate_counts,
    interpolated_chi,
    is_verification_prime,
    rank_and_centrality,
    whitney_chi,
)


# the verification primes from 5 to 12241
FIELD_PRIMES = [q for q in range(5, 12242) if is_verification_prime(q)]


def walls_by_label(n):
    return {h.label: h for h in build_arrangement(n)}


def orbit_walk_count(n, q):
    """Reference point count, kept apart from the code it checks: one sorted
    point per orbit of the symmetric group on the coordinates, weighted by
    the orbit's size n! / prod k_a!.  The walk takes the values 2..q-1 in
    increasing order, blocks the partner 1 - a of each value it uses and
    allows 1/2 at most once; the last group of equal values is counted."""
    half = (q + 1) // 2

    def walk(low, left, weight, blocked):
        free = q - low - sum(v >= low for v in blocked)
        if left > 1 and half >= low:
            free -= 1  # 1/2 twice lies on x_i + x_j = 1
        total = weight * free
        if left == 1:
            return total
        for b in range(low, q - 1):
            if b in blocked:
                continue
            after = blocked + (q + 1 - b,) if b < half else blocked
            for k in range(1, 2 if b == half else left):
                total += walk(b + 1, left - k, weight * comb(left, k), after)
        return total

    return walk(2, n, 1, ())


def census_in_order(n, rows):
    """The central census of a forward pass over rows in the given order."""

    def join(state, row):
        joined, _, bad = _insert(state, row, n)
        return None if bad else joined

    totals = {}
    for state, sizes in _forward_pass((), rows, join).items():
        for size, count in sizes.items():
            totals[(len(state), size)] = totals.get((len(state), size), 0) + count
    return totals


class TestBuildArrangement:
    def test_counts(self):
        assert len(build_arrangement(1)) == 2
        assert len(build_arrangement(2)) == 5
        assert len(build_arrangement(3)) == 9

    def test_deterministic_order(self):
        labels = [h.label for h in build_arrangement(3)]
        assert labels == [
            "x1+x2=1",
            "x1+x3=1",
            "x2+x3=1",
            "x1=0",
            "x2=0",
            "x3=0",
            "x1=1",
            "x2=1",
            "x3=1",
        ]

    def test_normals(self):
        walls = walls_by_label(3)
        assert walls["x1+x3=1"].normal == (1, 0, 1)
        assert walls["x1+x3=1"].constant == 1
        assert walls["x2=0"].normal == (0, 1, 0)
        assert walls["x2=0"].constant == 0
        assert walls["x2=1"].constant == 1

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            build_arrangement(0)


class TestRankAndCentrality:
    def test_empty_set_is_central(self):
        assert rank_and_centrality([]) == (0, True)

    def test_parallel_walls(self):
        walls = walls_by_label(1)
        assert rank_and_centrality([walls["x1=0"], walls["x1=1"]]) == (1, False)

    def test_transversal_point(self):
        walls = walls_by_label(2)
        assert rank_and_centrality([walls["x1+x2=1"], walls["x1=0"]]) == (2, True)

    def test_odd_cycle_conflicts_with_zero_wall(self):
        # the three pair walls force x = (1/2, 1/2, 1/2)
        walls = walls_by_label(3)
        subset = [
            walls["x1+x2=1"],
            walls["x2+x3=1"],
            walls["x1+x3=1"],
            walls["x1=0"],
        ]
        assert rank_and_centrality(subset) == (3, False)
        assert rank_and_centrality(subset[:3]) == (3, True)


class TestWhitneyChi:
    def test_small_ranks(self):
        assert whitney_chi(1) == IntPolynomial([-2, 1])
        assert whitney_chi(2) == IntPolynomial([6, -5, 1])
        assert whitney_chi(3) == IntPolynomial([-27, 27, -9, 1])
        assert whitney_chi(4) == IntPolynomial([165, -181, 75, -14, 1])

    def test_guard(self):
        with pytest.raises(ValueError, match="finite_field_count"):
            whitney_chi(6)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            whitney_chi(0)

    def test_rank_six_past_the_guard(self):
        from pairsum.central import Mode
        from pairsum.charpoly import chi

        assert whitney_chi(6, limit=6) == chi(6, Mode.CORRECTED)


class TestFiniteFieldCount:
    def test_dimension_one(self):
        assert finite_field_count(1, 5) == 3

    def test_dimension_two(self):
        # chi_2(5) = 25 - 25 + 6
        assert finite_field_count(2, 5) == 6

    def test_dimension_three(self):
        # chi_3(7) = (7-3)^3
        assert finite_field_count(3, 7) == 64

    def test_matches_whitney_for_small_ranks(self):
        for n in range(1, 5):
            poly = whitney_chi(n)
            for q in (5, 7, 11, 13):
                assert finite_field_count(n, q) == poly(q), (n, q)

    def test_matches_whitney_at_verification_primes(self):
        for n in range(1, 5):
            poly = whitney_chi(n)
            for q in (23, 29, 31):
                assert finite_field_count(n, q) == poly(q), (n, q)

    def test_rank_six_pipeline_beyond_whitney_reach(self):
        # subset expansion stops at n=5; point counts still reach n=6 and
        # separate the two pipeline modes there
        from pairsum.central import Mode
        from pairsum.charpoly import chi

        corrected = chi(6, Mode.CORRECTED)
        paper = chi(6, Mode.PAPER)
        for q in (7, 11):
            count = finite_field_count(6, q)
            assert corrected(q) == count, q
            assert paper(q) != count, q

    def test_primes_beyond_one_byte(self):
        for n, q in ((2, 257), (3, 263)):
            assert finite_field_count(n, q) == chi(n)(q), (n, q)

    def test_matches_every_point_checked_against_every_wall(self):
        # the literal definition: scan F_q^n and test each wall modulo q
        extra = [(2, 13), (3, 13), (4, 5), (4, 7), (5, 5)]
        for n, q in [(n, q) for n in (1, 2, 3) for q in (5, 7, 11)] + extra:
            walls = build_arrangement(n)
            off = sum(
                all(
                    sum(a * x for a, x in zip(w.normal, point)) % q != w.constant
                    for w in walls
                )
                for point in product(range(q), repeat=n)
            )
            assert finite_field_count(n, q) == off, (n, q)

    def test_matches_orbit_walk(self):
        # every prime 5..31 with at most 10^7 points, up to n = 7
        checked = 0
        for n in range(1, 8):
            for q in FIELD_PRIMES:
                if q <= 31 and q**n <= 10**7:
                    assert finite_field_count(n, q) == orbit_walk_count(n, q), (n, q)
                    checked += 1
        assert checked == 49

    @settings(max_examples=25, deadline=None)
    @given(
        st.tuples(st.integers(1, 30), st.sampled_from(FIELD_PRIMES))
    )
    def test_matches_chi_at_random_primes(self, sample):
        # the count visits no points, so q^n has no size limit
        n, q = sample
        assert finite_field_count(n, q) == chi(n)(q)

    def test_largest_field_within_the_budget(self):
        assert finite_field_count(2, 12241) == chi(2)(12241)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            finite_field_count(2, 4)
        with pytest.raises(ValueError):
            finite_field_count(2, 9)
        with pytest.raises(ValueError):
            finite_field_count(2, 3)

    def test_budget_guard(self):
        assert finite_field_count(8, 31) == chi(8)(31)

    def test_interleaved_ranks_share_no_rows(self):
        # the q-independent rows are cached for one n at a time; switching
        # n and back must rebuild them, never reuse another rank's
        for n, q in ((7, 11), (6, 11), (7, 13), (40, 11), (6, 13), (40, 101), (7, 11)):
            assert finite_field_count(n, q) == chi(n)(q), (n, q)

    def test_prime_bound(self):
        # 2^31 - 1 is prime and accepted; larger primes are refused at once,
        # before any trial division
        assert MAX_VERIFICATION_PRIME == 2**31 - 1
        assert is_verification_prime(MAX_VERIFICATION_PRIME)
        assert not is_verification_prime(2**31 + 11)
        assert not is_verification_prime(2**61 - 1)
        assert finite_field_count(3, MAX_VERIFICATION_PRIME) == chi(3)(MAX_VERIFICATION_PRIME)
        with pytest.raises(ValueError, match=str(MAX_VERIFICATION_PRIME)):
            finite_field_count(3, 2**61 - 1)

    def test_default_primes(self):
        assert default_verification_primes(3) == (5, 7, 11, 13)
        assert default_verification_primes(4) == (5, 7, 11, 13, 17)
        assert default_verification_primes(5) == (23, 29, 31)
        assert default_verification_primes(12) == (
            5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47
        )

    def test_default_primes_fit_the_budget_from_rank_six(self):
        # n + 1 primes pin all n + 1 coefficients of chi_n; n = 5 keeps the
        # three primes its recorded benchmark output uses
        for n in range(1, 61):
            if n == 5:
                continue
            primes = default_verification_primes(n)
            assert len(primes) == max(4, n + 1), n
            assert list(primes) == sorted(set(primes)), n
            assert all(is_verification_prime(q) for q in primes), n


class TestInterpolation:
    def test_interpolate_counts_recovers_polynomial(self):
        poly = IntPolynomial([165, -181, 75, -14, 1])
        points = [(q, poly(q)) for q in (5, 7, 11, 13, 17)]
        assert interpolate_counts(points, 4) == poly

    def test_extra_points_are_consistency_checked(self):
        poly = IntPolynomial([6, -5, 1])
        points = [(q, poly(q)) for q in (5, 7, 11)] + [(13, poly(13) + 1)]
        with pytest.raises(ValueError):
            interpolate_counts(points, 2)

    @pytest.mark.parametrize("bad_last", [False, True])
    def test_conflicting_samples_name_the_prime(self, bad_last):
        # chi_2 = t^2 - 5t + 6, with a wrong count repeated at q = 5
        points = [(5, 99), (5, 6), (7, 20), (11, 72)]
        if bad_last:
            points = points[1:] + points[:1]
        with pytest.raises(ValueError, match="q = 5"):
            interpolate_counts(points, 2)

    def test_exact_repeats_merge(self):
        points = [(5, 6), (7, 20), (5, 6), (11, 72)]
        assert interpolate_counts(points, 2) == IntPolynomial([6, -5, 1])

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least"):
            interpolate_counts([(5, 1), (7, 2)], 2)

    def test_wrong_degree_detected(self):
        line = IntPolynomial([1, 2])
        points = [(q, line(q)) for q in (5, 7, 11, 13)]
        with pytest.raises(ValueError, match="degree"):
            interpolate_counts(points, 3)

    def test_interpolated_chi_matches_whitney(self):
        assert interpolated_chi(3, (5, 7, 11, 13)) == whitney_chi(3)
        assert interpolated_chi(4, (5, 7, 11, 13, 17)) == whitney_chi(4)

    def test_interpolated_chi_validates_rank_six_coefficients(self):
        # full coefficient check of the rank-6 polynomial, beyond the
        # subset expansion's reach
        from pairsum.central import Mode
        from pairsum.charpoly import chi

        primes = (5, 7, 11, 13, 17, 19, 23)
        assert interpolated_chi(6, primes) == chi(6, Mode.CORRECTED)

    def test_interpolated_chi_rebuilds_chi_up_to_rank_twelve(self):
        # the count visits no points, so any prime serves at any n
        field = [q for q in FIELD_PRIMES if q <= 47]
        for n in range(7, 13):
            assert interpolated_chi(n, field[: n + 1]) == chi(n), n

    @pytest.mark.parametrize("n", [20, 40, 60, 100])
    def test_interpolated_chi_rebuilds_chi_at_large_rank(self, n):
        assert interpolated_chi(n, FIELD_PRIMES[: n + 1]) == chi(n)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.integers(0, 12).flatmap(
            lambda d: st.tuples(
                st.lists(st.integers(-10**30, 10**30), min_size=d, max_size=d),
                st.integers(-10**30, 10**30).filter(bool),
                st.lists(
                    st.sampled_from(FIELD_PRIMES), min_size=d + 1, max_size=d + 3,
                    unique=True,
                ),
                st.integers(0, d + 2),
            )
        )
    )
    def test_recovers_any_integer_polynomial(self, sample):
        lower, lead, primes, bumped = sample
        poly = IntPolynomial([*lower, lead])
        d = poly.degree
        points = [(q, poly(q)) for q in primes]
        assert interpolate_counts(points, d) == poly
        if len(points) > d + 1:
            # the k points no longer lie on a polynomial of degree d
            i = bumped % len(points)
            points[i] = (points[i][0], points[i][1] + 1)
            with pytest.raises(ValueError):
                interpolate_counts(points, d)


class TestEnumerateGraphs:
    def test_totals(self):
        for n in range(1, 7):
            assert enumerate_graphs(n).total() == 2 ** comb(n, 2)

    def test_examples(self):
        census3 = enumerate_graphs(3)
        assert census3.connected_bipartite_by_size() == {2: 3}
        census4 = enumerate_graphs(4)
        assert census4.connected_bipartite_by_size()[3] == 16

    def test_nonbipartite_view(self):
        census5 = enumerate_graphs(5)
        nonbip = census5.all_components_nonbipartite_by_size()
        # 4 edges on 5 vertices cannot make every component non-bipartite
        assert nonbip.get(4, 0) == 0
        # but a triangle still fits inside order 5 with extra edges attached
        assert nonbip.get(9, 0) > 0

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_graphs(7)
        with pytest.raises(ValueError):
            enumerate_graphs(0)

    def test_order_seven_past_the_guard(self):
        from pairsum.graphcounts import (
            bipartite_no_isolated_series,
            connected_bipartite_counts,
            connected_graph_counts,
            counts_from_egf,
            default_caps,
            graphs_no_isolated_series,
        )

        caps = default_caps(7)
        census = enumerate_graphs(7, limit=7)
        assert census.total() == 2**21
        views = (
            (connected_bipartite_counts(caps), census.connected_bipartite_by_size()),
            (connected_graph_counts(caps), census.connected_by_size()),
            (counts_from_egf(graphs_no_isolated_series(caps)), census.no_isolated_by_size()),
            (
                counts_from_egf(bipartite_no_isolated_series(caps)),
                census.bipartite_no_isolated_by_size(),
            ),
        )
        for table, brute in views:
            assert {k: v for (m, k), v in table.items() if m == 7} == brute


class TestCentralCensus:
    def test_rank_two_census(self):
        census = central_census(2)
        assert census[(0, 0)] == 1
        assert census[(1, 1)] == 5
        assert census[(2, 2)] == 8
        assert census[(2, 3)] == 2

    def test_census_consistent_with_whitney(self):
        for n in range(1, 5):
            poly = whitney_chi(n)
            census = central_census(n)
            for r in range(0, n + 1):
                signed = sum(
                    (-1 if c % 2 else 1) * census[(r, c)]
                    for c in range(0, comb(n, 2) + 2 * n + 1)
                )
                assert signed == poly.coefficient(n - r), (n, r)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.randoms(use_true_random=False))
    def test_wall_order_does_not_change_the_census(self, n, rng):
        rows = _arrangement_rows(n)
        rng.shuffle(rows)
        assert census_in_order(n, rows) == dict(central_census(n).items())

    def test_rank_six_past_the_guard(self):
        from pairsum.central import Mode, extract_counts, gamma_product

        gamma = extract_counts(gamma_product(6, Mode.CORRECTED))
        assert central_census(6, limit=6) == gamma.rank_cardinality_table(6)
