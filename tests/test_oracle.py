"""Brute-force oracles: arrangement construction, exact centrality, subset
expansion, finite-field counting and the graph census."""

from math import comb

import pytest

from pairsum import oracle
from pairsum.charpoly import IntPolynomial
from pairsum.oracle import (
    build_arrangement,
    central_census,
    default_verification_primes,
    enumerate_graphs,
    finite_field_count,
    interpolate_counts,
    interpolated_chi,
    rank_and_centrality,
    whitney_chi,
)


def walls_by_label(n):
    return {h.label: h for h in build_arrangement(n)}


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

    def test_worker_determinism(self):
        assert whitney_chi(3, workers=1) == whitney_chi(3, workers=2)


class RecordingExecutor:
    """Stands in for a pool executor: records its size and maps serially, so
    no process or thread is started."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        RecordingExecutor.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


class TestPoolSize:
    @pytest.fixture
    def recorded(self, monkeypatch):
        RecordingExecutor.sizes = []
        monkeypatch.setattr(oracle, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(oracle, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
        return RecordingExecutor.sizes

    def test_subset_scan_clamped_to_cpus(self, recorded):
        assert whitney_chi(3, workers=10_000) == whitney_chi(3)
        assert central_census(3, workers=10_000) == central_census(3)
        assert recorded == [4, 4]

    def test_subset_scan_clamped_to_tasks(self, recorded, monkeypatch):
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
        whitney_chi(1, workers=10_000)  # two walls: 2^2 tasks
        assert recorded == [4]

    def test_point_count_clamped_to_slices(self, recorded, monkeypatch):
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 64)
        assert finite_field_count(2, 5, workers=10_000) == 6  # q = 5 slices
        assert recorded == [5]

    def test_point_count_clamped_to_cpus(self, recorded):
        assert finite_field_count(2, 7, workers=10_000) == finite_field_count(2, 7)
        assert recorded == [4]

    def test_serial_below_two(self, recorded):
        for workers in (1, 0, -3):
            whitney_chi(2, workers=workers)
            finite_field_count(2, 5, workers=workers)
        assert recorded == []


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

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            finite_field_count(2, 4)
        with pytest.raises(ValueError):
            finite_field_count(2, 9)
        with pytest.raises(ValueError):
            finite_field_count(2, 3)

    def test_budget_guard(self):
        with pytest.raises(ValueError, match="budget"):
            finite_field_count(8, 31)

    def test_worker_determinism(self):
        assert finite_field_count(3, 11, workers=1) == finite_field_count(
            3, 11, workers=4
        )

    def test_default_primes(self):
        assert default_verification_primes(3) == (5, 7, 11, 13)
        assert default_verification_primes(5) == (23, 29, 31)


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

    def test_worker_determinism(self):
        assert central_census(3, workers=1) == central_census(3, workers=2)
