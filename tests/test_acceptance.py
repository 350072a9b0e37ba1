"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 4 deserves a note: the previously published polynomial list is
reproduced as a diff target, not as ground truth.  Brute-force subset
expansion, finite-field counts at several primes and the generating-function
pipeline agree with each other from n = 2 through n = 5 and disagree with
the published rows from n = 4 on (the published n = 4 row implies a negative
bounded-chamber count, which no real arrangement admits).  The criterion
therefore passes on its stated terms: the report is complete, deterministic,
and every difference against the published rows is itemized.
"""

import contextlib
import functools
import io
import json
import random
import subprocess
import sys
import time
from math import comb

from pairsum import central, labeled
from pairsum.central import Mode, whitney_numbers
from pairsum.charpoly import IntPolynomial, chi, signs_alternate
from pairsum.cli import main
from pairsum.graphcounts import connected_bipartite_table, connected_table, count_table
from pairsum.oracle import enumerate_graphs, family_by_size, finite_field_count, whitney_chi
from pairsum.published import diff_polynomials, published_chamber_total, published_chi


def criterion(number, name):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")

        return run

    return wrap


@criterion(1, "worked examples n=2,3 in both modes")
def test_criterion_1_worked_examples():
    start = time.perf_counter()
    for mode in (Mode.CORRECTED, Mode.PAPER):
        assert str(chi(2, mode)) == "t^2 - 5t + 6"
        assert str(chi(3, mode)) == "t^3 - 9t^2 + 27t - 27"
    assert time.perf_counter() - start < 1.0


@criterion(2, "oracle equivalence n=2..4")
def test_criterion_2_small_rank_oracles():
    start = time.perf_counter()
    for n in (2, 3, 4):
        poly = chi(n, Mode.CORRECTED)
        assert poly == whitney_chi(n), n
        for q in (5, 7, 11, 13):
            assert poly(q) == finite_field_count(n, q), (n, q)
    assert time.perf_counter() - start < 10.0


@criterion(3, "adjudication at n=5")
def test_criterion_3_rank_five_adjudication():
    start = time.perf_counter()
    corrected = chi(5, Mode.CORRECTED)
    assert corrected == whitney_chi(5)
    assert time.perf_counter() - start < 60.0

    start = time.perf_counter()
    for q in (23, 29, 31):
        assert corrected(q) == finite_field_count(5, q), q
    assert time.perf_counter() - start < 120.0

    # the paper-mode polynomial and the published row are both compared
    # against the oracle, and the outcomes recorded in the verify report
    proc = subprocess.run(
        [sys.executable, "-m", "pairsum.cli", "verify", "--n", "5",
         "--oracles", "whitney", "--format", "json"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    whitney_section = report["oracles"]["whitney"]
    assert whitney_section["corrected"]["result"] == "PASS"
    assert whitney_section["paper"]["result"] in ("PASS", "DIVERGENT")
    assert whitney_section["published_vs_oracle"]["result"] in ("PASS", "DIVERGENT")
    # matching the published row is NOT required; recording the comparison is
    assert "differences" in whitney_section["paper"]
    assert "differences" in whitney_section["published_vs_oracle"]
    assert report["published"]["paper"]["result"] in ("PASS", "DIVERGENT")


@criterion(4, "published-table reproduction report")
def test_criterion_4_published_table_report():
    argv = ["table", "--to", "10", "--mode", "paper", "--format", "json"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pairsum.cli", *argv],
        capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60.0

    report = json.loads(proc.stdout)
    rows = {row["n"]: row for row in report["rows"]}
    assert sorted(rows) == list(range(2, 11))  # complete

    # rows n=2..3 match the published list; every published difference is
    # itemized, for every rank with published data (n=4 on, see module note)
    for n in range(2, 11):
        row = rows[n]
        computed = IntPolynomial([int(c) for c in row["coeffs"]])
        reference = published_chi(n)
        expected_diffs = [
            {"power": power, "computed": str(a), "published": str(b)}
            for power, a, b in diff_polynomials(computed, reference)
        ]
        assert row["published"] is not None
        assert row["published"]["polynomial_differences"] == expected_diffs, n
        ref_total = published_chamber_total(n)
        if ref_total is not None and int(row["chambers"]["total"]) != ref_total:
            assert row["published"]["chamber_total_difference"] == {
                "computed": row["chambers"]["total"],
                "published": str(ref_total),
            }
    assert rows[2]["published"]["matches"] is True
    assert rows[3]["published"]["matches"] is True
    # the published chamber column value 142378721936 and friends stay
    # available as diff targets even where the oracle refutes them
    assert published_chi(10).coefficient(0) == 142378721936
    assert [published_chamber_total(n) for n in range(3, 11)] == [
        64, 362, 5995, 116608, 170770, 84138075, 150860029, 78306150108,
    ]

    second = subprocess.run(
        [sys.executable, "-m", "pairsum.cli", *argv],
        capture_output=True, text=True, timeout=300,
    )
    assert second.stdout == proc.stdout  # deterministic byte-for-byte


@criterion(5, "graph census equivalences and the order-5 divergence")
def test_criterion_5_graph_census():
    start = time.perf_counter()
    bip = count_table(connected_bipartite_table(6))
    conn = count_table(connected_table(6))
    for n in range(1, 7):
        census = enumerate_graphs(n)
        brute_bip = family_by_size(census, "connected_bipartite")
        brute_conn = family_by_size(census, "connected")
        for k in range(0, comb(n, 2) + 1):
            assert bip[(n, k)] == brute_bip.get(k, 0), ("bipartite", n, k)
            assert conn[(n, k)] == brute_conn.get(k, 0), ("connected", n, k)
    paper_g1 = labeled.exp(central._components(5, Mode.PAPER, signed=False)[1])
    corrected_g1 = labeled.exp(central._components(5, Mode.CORRECTED, signed=False)[1])
    assert paper_g1[5][(4, 0)] == 10
    assert corrected_g1[5].get((4, 0), 0) == 0
    assert time.perf_counter() - start < 10.0


@criterion(6, "property suites")
def test_criterion_6_property_suites():
    # 50 randomized labeled-count cases: ring axioms, roundtrips, additivity
    rng = random.Random(2024)
    one = [dict(labeled.ONE)] + [{}] * 4

    def rand_series(zero_constant=False):
        entries = [{} for _ in range(5)]
        for _ in range(5):
            m, key = rng.randint(0, 4), (rng.randint(0, 4), rng.randint(0, 2))
            if zero_constant and m == 0:
                continue
            entries[m][key] = rng.randint(-9, 9)
        return [{key: value for key, value in entry.items() if value} for entry in entries]

    def plus(a, b):
        return labeled.difference(a, [{k: -v for k, v in entry.items()} for entry in b])

    times, exp, log = labeled.product, labeled.exp, labeled.log
    for _ in range(50):
        f, g, h = rand_series(), rand_series(), rand_series()
        assert plus(f, g) == plus(g, f)
        assert plus(plus(f, g), h) == plus(f, plus(g, h))
        assert times(f, g) == times(g, f)
        assert times(times(f, g), h) == times(f, times(g, h))
        assert times(f, plus(g, h)) == plus(times(f, g), times(f, h))
        u, v = rand_series(zero_constant=True), rand_series(zero_constant=True)
        assert log(exp(u)) == u
        assert exp(log(plus(one, u))) == plus(one, u)
        assert exp(plus(u, v)) == times(exp(u), exp(v))

    # integrality and non-negativity of every Whitney number at n=10
    for mode in (Mode.CORRECTED, Mode.PAPER):
        gamma = whitney_numbers(10, mode)
        assert gamma[(0, 0)] == 1
        for _, count in gamma.items():
            assert isinstance(count, int) and count >= 0

        # monic with t^(n-1) coefficient equal to minus the wall count
        from pairsum.charpoly import chi_table

        for n, poly in zip(range(2, 11), chi_table(10, mode)):
            assert poly.coefficient(n) == 1, (mode, n)
            assert poly.coefficient(n - 1) == -(comb(n, 2) + 2 * n), (mode, n)
            if mode is Mode.CORRECTED:
                assert signs_alternate(poly), n


@criterion(7, "determinism across worker counts")
def test_criterion_7_worker_determinism():
    reports = []
    for workers in ("1", "2", "8"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", "--n", "4", "--workers", workers, "--format", "json"])
        assert code == 0
        report = json.loads(out.getvalue())
        assert report.pop("workers") == int(workers)
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]
