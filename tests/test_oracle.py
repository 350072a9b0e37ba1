"""Brute-force oracles: arrangement construction, exact centrality, subset
expansion, finite-field counting and the graph census."""

from functools import reduce
from itertools import combinations, product
from math import comb

import pytest
from conftest import components, fresh_json, rational_echelon
from hypothesis import given, settings
from hypothesis import strategies as st

import pairsum
from pairsum.charpoly import IntPolynomial, chi
from pairsum.graphcounts import (
    connected_bipartite_table,
    connected_table,
    count_table,
    no_isolated,
)
from pairsum.oracle import (
    GRAPH_CENSUS_LIMIT,
    GRAPH_FAMILIES,
    MAX_VERIFICATION_PRIME,
    _arrangement_rows,
    _canonical,
    _forward_pass,
    _insert,
    _is_prime,
    _join_edge,
    central_census,
    default_verification_primes,
    enumerate_graphs,
    family_by_size,
    finite_field_count,
    interpolate_counts,
    interpolated_chi,
    is_verification_prime,
    whitney_chi,
)


# the verification primes from 5 to 12241
FIELD_PRIMES = [q for q in range(5, 12242) if is_verification_prime(q)]


def wall(n, label):
    """The augmented row of a wall written like "x1+x3=1" or "x2=0"."""
    lhs, constant = label.split("=")
    support = {int(x[1:]) - 1 for x in lhs.split("+")}
    return (*(int(t in support) for t in range(n)), int(constant))


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


def rank_and_centrality(rows):
    """Rank of the normals of augmented rows (coefficients, then the
    constant), and whether the walls share a point: a fold over _insert, in
    which a wall set is central exactly when no row reduces to 0 = nonzero."""
    state, central = (), True
    for row in rows:
        joined = _insert(state, row)
        central = central and joined is not None
        state = state if joined is None else joined
    return len(state), central


def census_in_order(rows):
    """The central census of a forward pass over rows in the given order."""
    totals = {}
    for state, sizes in _forward_pass({(): {0: 1}}, rows, _insert).items():
        for size, count in sizes.items():
            totals[(len(state), size)] = totals.get((len(state), size), 0) + count
    return totals


def census_unmerged(n):
    """The graph census of one forward pass over every edge, vertex by vertex,
    that merges no relabelled states."""
    edges = [(u, v) for v in range(n) for u in range(v)]
    counts = {}
    for code, sizes in _forward_pass({tuple(range(0, 3 * n, 3)): {0: 1}}, edges, _join_edge).items():
        firsts = [c // 3 for c in code]
        comps = set(firsts)
        bip = sum(code[f] == 3 * f for f in comps)
        iso = sum(firsts.count(f) == 1 for f in comps)
        for size, count in sizes.items():
            key = (size, len(comps), bip, iso)
            counts[key] = counts.get(key, 0) + count
    return counts


def classify_by_search(n):
    """Every labeled graph on [n] by breadth-first search: counts keyed by
    (edges, components, bipartite components, isolated vertices)."""
    slots = list(combinations(range(n), 2))
    counts = {}
    for mask in range(2 ** len(slots)):
        edges = [edge for k, edge in enumerate(slots) if mask >> k & 1]
        parts = components(n, edges)
        bipartite = sum(proper for _, proper in parts)
        isolated = sum(len(members) == 1 for members, _ in parts)
        key = (len(edges), len(parts), bipartite, isolated)
        counts[key] = counts.get(key, 0) + 1
    return counts


class TestBuildArrangement:
    def test_counts(self):
        # C(n, 2) walls x_i + x_j = 1 and 2n walls x_k = 0, x_k = 1: 2, 5, 9, 14, ...
        for n in range(1, 9):
            assert len(_arrangement_rows(n)) == comb(n, 2) + 2 * n, n

    def test_deterministic_order(self):
        # vertex by vertex: x_v = 0, x_v = 1, then x_u + x_v = 1 for u < v
        assert _arrangement_rows(3) == [
            (1, 0, 0, 0),
            (1, 0, 0, 1),
            (0, 1, 0, 0),
            (0, 1, 0, 1),
            (1, 1, 0, 1),
            (0, 0, 1, 0),
            (0, 0, 1, 1),
            (1, 0, 1, 1),
            (0, 1, 1, 1),
        ]

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            central_census(0)


class TestRankAndCentrality:
    def test_empty_set_is_central(self):
        assert rank_and_centrality([]) == (0, True)

    def test_parallel_walls(self):
        assert rank_and_centrality([wall(1, "x1=0"), wall(1, "x1=1")]) == (1, False)

    def test_transversal_point(self):
        assert rank_and_centrality([wall(2, "x1+x2=1"), wall(2, "x1=0")]) == (2, True)

    def test_odd_cycle_conflicts_with_zero_wall(self):
        # the three pair walls force x = (1/2, 1/2, 1/2)
        subset = [wall(3, label) for label in ("x1+x2=1", "x2+x3=1", "x1+x3=1", "x1=0")]
        assert rank_and_centrality(subset) == (3, False)
        assert rank_and_centrality(subset[:3]) == (3, True)


class TestInsert:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(1, 6).flatmap(
            lambda ncols: st.tuples(
                st.just(ncols),
                st.lists(
                    st.tuples(*[st.integers(-2, 2)] * (ncols + 1)), max_size=8
                ),
            )
        )
    )
    def test_matches_rational_echelon_form(self, sample):
        ncols, rows = sample
        state, kept = (), []
        for row in rows:
            expected = rational_echelon([*kept, row], ncols)
            inconsistent = any(col == ncols for col, _ in expected)
            rank_grew = not inconsistent and len(expected) > len(state)
            joined = _insert(state, row)
            bad = joined is None
            grew = not bad and len(joined) > len(state)
            assert (grew, bad) == (rank_grew, inconsistent), (kept, row)
            if not bad:
                state = joined
                kept.append(row)
            # an inconsistent row leaves the state as it was
            assert state == tuple(rational_echelon(kept, ncols)), (kept, row)


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
            rows = _arrangement_rows(n)
            off = sum(
                all(
                    sum(a * x for a, x in zip(row[:n], point)) % q != row[n]
                    for row in rows
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

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.tuples(st.integers(1, 30), st.sampled_from(FIELD_PRIMES))
    )
    def test_matches_chi_at_random_primes(self, sample):
        # the count visits no points, so q^n has no size limit
        n, q = sample
        assert finite_field_count(n, q) == chi(n)(q)

    def test_large_field_at_rank_two(self):
        assert finite_field_count(2, 12241) == chi(2)(12241)

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            finite_field_count(0, 5)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            finite_field_count(2, 4)
        with pytest.raises(ValueError):
            finite_field_count(2, 9)
        with pytest.raises(ValueError):
            finite_field_count(2, 3)

    def test_rank_eight_over_f31(self):
        assert finite_field_count(8, 31) == chi(8)(31)

    def test_interleaved_ranks_share_no_rows(self):
        # the q-independent rows are cached for one n at a time; switching
        # n and back must rebuild them, never reuse another rank's
        for n, q in ((7, 11), (6, 11), (7, 13), (40, 11), (6, 13), (40, 101), (7, 11)):
            assert finite_field_count(n, q) == chi(n)(q), (n, q)

    def test_prime_bound(self):
        # 2^31 - 1 is prime and accepted; larger primes are refused at once,
        # before any primality test
        assert MAX_VERIFICATION_PRIME == 2**31 - 1
        assert is_verification_prime(MAX_VERIFICATION_PRIME)
        assert not is_verification_prime(2**31 + 11)
        assert not is_verification_prime(2**61 - 1)
        assert finite_field_count(3, MAX_VERIFICATION_PRIME) == chi(3)(MAX_VERIFICATION_PRIME)
        with pytest.raises(ValueError, match=str(MAX_VERIFICATION_PRIME)):
            finite_field_count(3, 2**61 - 1)

    def test_primality_matches_a_sieve(self):
        sieve = [False, False] + [True] * (200_000 - 2)
        for p in range(2, 448):
            if sieve[p]:
                sieve[p * p :: p] = [False] * len(range(p * p, 200_000, p))
        assert [q for q in range(200_000) if _is_prime(q)] == [
            q for q, prime in enumerate(sieve) if prime
        ]

    def test_primality_rejects_pseudoprimes(self):
        # 25,326,001 = 2251 * 11251 is a strong pseudoprime to the bases 2, 3
        # and 5, which base 7 exposes; 561 and 1105 are Carmichael numbers.
        # Each base counts: 1,024,651 = 19 * 199 * 271 passes 3, 5 and 7,
        # 746,331,041 = 15773 * 47317 passes 2, 4, 5 and 7, and
        # 2,284,453 = 1069 * 2137 passes 2, 3, 6 and 7
        assert 2251 * 11251 == 25_326_001
        assert (19 * 199 * 271, 15773 * 47317, 1069 * 2137) == (1_024_651, 746_331_041, 2_284_453)
        for q in (25_326_001, 561, 1105, 1_024_651, 746_331_041, 2_284_453):
            assert not _is_prime(q), q
        assert _is_prime(2**31 - 1)

    def test_default_primes(self):
        assert default_verification_primes(3) == (5, 7, 11, 13)
        assert default_verification_primes(4) == (5, 7, 11, 13, 17)
        assert default_verification_primes(5) == (23, 29, 31)
        assert default_verification_primes(12) == (
            5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47
        )

    def test_default_primes_are_the_first_n_plus_one_from_five(self):
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

    @pytest.mark.parametrize("primes", [(5, 7, 11), (5, 7, 11, 13)])
    def test_integer_valued_but_not_integer_polynomial(self, primes):
        # q(q-1)/2 is an integer at every q, but its coefficients are halves
        points = [(q, q * (q - 1) // 2) for q in primes]
        with pytest.raises(ValueError, match="integer coefficients"):
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

    def test_constant_samples_have_degree_zero(self):
        assert interpolate_counts([(5, 7), (7, 7)], 0) == IntPolynomial([7])
        assert interpolate_counts([(5, 0)], 0) == IntPolynomial([0])

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
    def test_matches_breadth_first_search(self):
        for n in range(1, 7):
            brute = classify_by_search(n)
            census = enumerate_graphs(n)
            assert census.keys() == brute.keys(), n
            for key, count in brute.items():
                assert census[key] == count, (n, key)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.randoms(use_true_random=False))
    def test_state_does_not_depend_on_edge_order(self, n, rng):
        # a graph's state does not depend on its edge order: the fold over a
        # random permutation of its edges equals the fold vertex by vertex
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5]
        shuffled = rng.sample(edges, len(edges))
        start = tuple(range(0, 3 * n, 3))
        assert reduce(_join_edge, shuffled, start) == reduce(_join_edge, edges, start)

    def test_merged_states_count_like_one_plain_pass(self):
        for n in range(1, 8):
            assert dict(enumerate_graphs(n, limit=7)) == census_unmerged(n), n

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.randoms(use_true_random=False))
    def test_canonical_state_does_not_depend_on_labels(self, n, rng):
        # relabelling the first m vertices of a graph whose edges all lie
        # among them leaves its canonical state as it is
        m = rng.randint(1, n)
        edges = [(u, v) for v in range(m) for u in range(v) if rng.random() < 0.5]
        perm = rng.sample(range(m), m)
        moved = [tuple(sorted((perm[u], perm[v]))) for u, v in edges]
        start = tuple(range(0, 3 * n, 3))
        assert _canonical(reduce(_join_edge, moved, start), m) == _canonical(
            reduce(_join_edge, edges, start), m
        )

    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_graphs(7)
        with pytest.raises(ValueError):
            enumerate_graphs(0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_families_match_the_tables(self, n):
        # one census per order checks every count of the four graph tables
        # that verify --oracles graphs checks, order 7 past the guard included
        census = enumerate_graphs(n, limit=7)
        assert sum(census.values()) == 2 ** comb(n, 2)
        families = {
            "connected_bipartite": count_table(connected_bipartite_table(n)),
            "connected": count_table(connected_table(n)),
            "no_isolated": count_table(no_isolated(connected_table(n))),
            "bipartite_no_isolated": count_table(no_isolated(connected_bipartite_table(n))),
        }
        assert list(families) == list(GRAPH_FAMILIES)
        for family, table in families.items():
            view = family_by_size(census, family)
            assert {k: v for (m, k), v in table.items() if m == n} == view, family


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
        assert census_in_order(rows) == dict(central_census(n).items())

    def test_orbit_passes_count_like_one_pass_over_every_wall(self):
        for n in range(1, 7):
            assert dict(central_census(n, limit=6).items()) == census_in_order(
                _arrangement_rows(n)
            ), n

    def test_rank_seven_pipeline(self):
        from pairsum.central import Mode, whitney_numbers

        census = central_census(7, limit=7)
        assert census == whitney_numbers(7, Mode.CORRECTED)
        coeffs = [0] * 8
        for (rank, size), count in census.items():
            coeffs[7 - rank] += -count if size % 2 else count
        assert IntPolynomial(coeffs) == chi(7)


# A fresh interpreter, so that no module loaded by another test counts.
_INDEPENDENCE_SCRIPT = """
import contextlib, io, json, sys
watched = ("pairsum.labeled", "pairsum.graphcounts", "pairsum.central", "pairsum.charpoly",
           "fractions", "decimal", "numbers")
loaded = {}
import pairsum.oracle
loaded["import pairsum.oracle"] = [name for name in watched if name in sys.modules]
import pairsum.published
loaded["import pairsum.published"] = [name for name in watched if name in sys.modules]
from pairsum import cli
with contextlib.redirect_stderr(io.StringIO()) as err:
    code = cli.main(["verify", "--n", "2", "--primes", "4"])
loaded["verify --primes 4"] = [name for name in watched if name in sys.modules]
print(json.dumps({"loaded": loaded, "code": code, "stderr": err.getvalue()}))
"""


class TestIndependence:
    def test_the_oracles_load_no_pipeline_module(self):
        # an oracle checks the pipeline only if it shares none of its code;
        # the oracles, interpolation included, work in plain integers, so
        # neither fractions nor decimal or numbers is loaded either
        report = fresh_json(_INDEPENDENCE_SCRIPT)
        assert report["loaded"] == {
            "import pairsum.oracle": [],
            "import pairsum.published": [],
            "verify --primes 4": [],
        }
        assert report["code"] == 2
        assert "--primes must list primes" in report["stderr"]

    def test_census_limit_is_the_package_constant(self):
        assert GRAPH_CENSUS_LIMIT is pairsum.GRAPH_CENSUS_LIMIT
