"""Command-line surface: rendering, schemas, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsum.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCharpoly:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--n", "3")
        assert code == 0
        assert out.strip() == "t^3 - 9t^2 + 27t - 27"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "n": 2,
            "mode": "corrected",
            "coeffs": ["6", "-5", "1"],
        }

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--n", "2", "--format", "latex")
        assert code == 0
        assert out.strip() == "\\[ \\chi_{2}(t) = t^2 - 5t + 6 \\]"

    def test_invalid_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, "charpoly", "--n", "0")
        assert code == 2
        assert "between 1 and" in err

    def test_n_beyond_configured_max(self, capsys):
        code, _, err = run(capsys, "charpoly", "--n", "13")
        assert code == 2
        code, out, _ = run(capsys, "charpoly", "--n", "5", "--max-n", "5")
        assert code == 0

    def test_paper_mode(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--n", "5", "--mode", "paper")
        assert code == 0
        assert out.strip() == "t^5 - 20t^4 + 165t^3 - 695t^2 + 1480t - 1253"


class TestChambers:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "chambers", "--n", "2")
        assert code == 0
        assert "chambers (total): 12" in out
        assert "relatively bounded chambers: 2" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "chambers", "--n", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "n": 3,
            "mode": "corrected",
            "total": "64",
            "bounded": "8",
        }


class TestTable:
    def test_rejects_to_one(self, capsys):
        code, _, err = run(capsys, "table", "--to", "1")
        assert code == 2

    def test_small_table_matches_published_through_three(self, capsys):
        code, out, _ = run(capsys, "table", "--to", "4", "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["published"]["matches"] is True
        assert rows[1]["published"]["matches"] is True
        # rank 4: the published row fails Zaslavsky positivity and is
        # itemized as a difference
        assert rows[2]["published"]["matches"] is False
        powers = {d["power"] for d in rows[2]["published"]["polynomial_differences"]}
        assert powers == {0, 1}

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "table", "--to", "6", "--mode", "paper", "--format", "json")
        _, second, _ = run(capsys, "table", "--to", "6", "--mode", "paper", "--format", "json")
        assert first == second

    def test_latex_layout(self, capsys):
        code, out, _ = run(capsys, "table", "--to", "3", "--format", "latex")
        assert code == 0
        assert "\\[ \\chi_{2}(t) = t^2 - 5t + 6 \\]" in out
        assert "\\begin{array}" in out

    def test_json_roundtrip(self, capsys):
        _, out, _ = run(capsys, "table", "--to", "5", "--format", "json")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("corrected", "d3af346e0383fd5013154cba2eeba8d4a28d2063f706414bbbee8fc390dbb949"),
            ("paper", "875730a7904c25dc25549b659b460f5e810e7732800c483fb1e48acb70bb95b8"),
        ],
    )
    def test_pinned_output_through_sixteen(self, capsys, mode, digest):
        # sha256 of the complete stdout; any change to a coefficient, a
        # chamber count or the rendering shows up here
        code, out, _ = run(
            capsys, "table", "--to", "16", "--max-n", "16", "--mode", mode, "--format", "json"
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBipartite:
    def test_rows_with_census(self, capsys):
        code, out, _ = run(capsys, "bipartite", "--to", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["census_included"] is True
        assert payload["census_matches"] is True
        by_key = {(row["n"], row["k"]): row for row in payload["rows"]}
        assert by_key[(2, 1)]["count"] == "1"
        assert by_key[(4, 3)]["count"] == "16"
        assert by_key[(5, 6)]["count"] == by_key[(5, 6)]["census"]

    def test_formula_only_beyond_six(self, capsys):
        code, out, _ = run(capsys, "bipartite", "--to", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["census_included"] is False
        assert all("census" not in row for row in payload["rows"])

    def test_guard(self, capsys):
        code, _, err = run(capsys, "bipartite", "--to", "13")
        assert code == 2


class TestVerify:
    def test_rank_three_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3")
        assert code == 0
        assert "(PASS)" in out

    def test_rank_five_report_records_divergences(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "5", "--oracles", "whitney", "--format", "json"
        )
        assert code == 0  # corrected mode passes; paper divergence is recorded
        report = json.loads(out)
        whitney = report["oracles"]["whitney"]
        assert whitney["corrected"]["result"] == "PASS"
        assert whitney["paper"]["result"] == "DIVERGENT"
        assert whitney["paper"]["differences"] == [
            {"power": 0, "computed": "-1253", "published": "-1263"}
        ]
        assert whitney["published_vs_oracle"]["result"] == "DIVERGENT"
        assert report["published"]["paper"]["result"] == "DIVERGENT"
        assert report["result"] == "PASS"

    def test_graphs_oracle(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "6", "--oracles", "graphs", "--format", "json"
        )
        assert code == 0
        checks = json.loads(out)["oracles"]["graphs"]["checks"]
        assert {c["name"]: c["result"] for c in checks} == {
            "connected_bipartite": "PASS",
            "connected": "PASS",
            "no_isolated": "PASS",
            "bipartite_no_isolated": "PASS",
        }

    def test_oracle_guard_reported_not_fatal(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--n",
            "6",
            "--oracles",
            "whitney,graphs",
            "--primes",
            "5",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["oracles"]["whitney"]["status"] == "skipped"
        assert report["oracles"]["graphs"]["status"] == "ran"

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, capsys, workers):
        code, out, err = run(capsys, "verify", "--n", "2", "--workers", workers)
        assert code == 2
        assert out == ""
        assert "--workers must be at least 1" in err

    def test_report_echoes_requested_workers(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "2", "--oracles", "ffield", "--workers", "64",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["workers"] == 64

    def test_unknown_oracle(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "3", "--oracles", "psychic")
        assert code == 2
        assert "psychic" in err

    def test_deterministic_report(self, capsys):
        _, first, _ = run(capsys, "verify", "--n", "4", "--format", "json")
        _, second, _ = run(capsys, "verify", "--n", "4", "--format", "json")
        assert first == second

    def test_custom_primes(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--n",
            "2",
            "--oracles",
            "ffield",
            "--primes",
            "5,7",
            "--format",
            "json",
        )
        assert code == 0
        rows = json.loads(out)["oracles"]["ffield"]["primes"]
        assert [row["q"] for row in rows] == [5, 7]

    @pytest.fixture
    def no_work(self, monkeypatch):
        import pairsum.cli as cli_module
        import pairsum.oracle as oracle_module

        def no_work(*args, **kwargs):
            raise AssertionError("verify started work before rejecting --primes")

        monkeypatch.setattr(oracle_module, "finite_field_count", no_work)
        monkeypatch.setattr(cli_module, "chi", no_work)

    def test_repeated_prime_is_usage_error(self, capsys, no_work):
        code, out, err = run(
            capsys, "verify", "--n", "2", "--oracles", "ffield", "--primes", "5,5,7"
        )
        assert code == 2
        assert out == ""
        assert "--primes repeats 5" in err

    @pytest.mark.parametrize(
        "oracles, repeated",
        [("whitney,whitney", "whitney"), ("graphs,ffield,graphs,ffield", "ffield, graphs")],
    )
    def test_repeated_oracle_is_usage_error(self, capsys, no_work, oracles, repeated):
        code, out, err = run(capsys, "verify", "--n", "5", "--oracles", oracles)
        assert code == 2
        assert out == ""
        assert f"--oracles repeats {repeated}; list each oracle once" in err

    # the item a malformed list names: blank, or not a sign and ASCII digits
    MALFORMED = {"": "item 1 is ''", " ": "item 1 is ' '", "5,,7": "item 2 is ''",
                 "1_1": "item 1 is '1_1'", "\u0667": "item 1 is '\u0667'"}

    @pytest.mark.parametrize(
        "primes",
        ["4,6,8", "5,9", "3", "1,7", "-5", "5,2147483659", "", " ", "5,,7", "1_1", "\u0667"],
    )
    def test_prime_below_five_or_composite_is_usage_error(self, capsys, no_work, primes):
        code, out, err = run(
            capsys, "verify", "--n", "2", "--oracles", "ffield", "--primes", primes
        )
        assert code == 2
        assert out == ""
        if primes in self.MALFORMED:
            assert "--primes must be a comma-separated integer list" in err
            assert self.MALFORMED[primes] in err
        else:
            assert "--primes must list primes at least 5 and at most 2147483647" in err

    def test_huge_prime_is_refused_at_once(self):
        # 2^61 - 1 is prime, but far above the range where the Miller-Rabin
        # check is exact, so the bound must be tested first
        proc = subprocess.run(
            [sys.executable, "-m", "pairsum", "verify", "--n", "1",
             "--primes", "2305843009213693951"],
            capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--primes must list primes at least 5" in proc.stderr

    def test_given_primes_are_all_counted(self, capsys):
        # given primes are all counted, however large q^n is
        code, out, _ = run(
            capsys, "verify", "--n", "7", "--oracles", "ffield", "--max-n", "7",
            "--primes", "29,31,37", "--format", "json",
        )
        assert code == 0
        report = json.loads(out)
        assert [
            (row["q"], row["status"], row["corrected"])
            for row in report["oracles"]["ffield"]["primes"]
        ] == [(29, "ran", "PASS"), (31, "ran", "PASS"), (37, "ran", "PASS")]
        assert report["result"] == "PASS"

    def test_given_primes_rebuild_chi_at_rank_twelve(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "12", "--max-n", "12", "--oracles", "ffield",
            "--primes", "5,7,11,13,17,19,23,29,31,37,41,43,47",
        )
        assert code == 0
        assert out.startswith("verify n=12 (PASS)")
        assert "ffield interpolation: corrected=PASS paper=DIVERGENT" in out

    def test_default_primes_check_rank_seven(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "7", "--oracles", "ffield", "--max-n", "7",
            "--format", "json",
        )
        assert code == 0
        section = json.loads(out)["oracles"]["ffield"]
        assert [(row["q"], row["corrected"]) for row in section["primes"]] == [
            (q, "PASS") for q in (5, 7, 11, 13, 17, 19, 23, 29)
        ]
        assert section["interpolation"]["result"] == "PASS"

    def test_default_primes_at_rank_twelve_are_thirteen(self, capsys):
        # the defaults are the first n + 1 primes from 5 at any n
        code, out, _ = run(
            capsys, "verify", "--n", "12", "--oracles", "ffield", "--format", "json"
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["oracles"]["ffield"]["primes"]) == 13
        assert report["result"] == "PASS"

    @pytest.mark.parametrize("n", [6, 12, 40])
    def test_default_primes_rebuild_chi(self, capsys, n):
        from pairsum.charpoly import chi

        code, out, _ = run(
            capsys, "verify", "--n", str(n), "--max-n", str(n), "--format", "json"
        )
        assert code == 0
        section = json.loads(out)["oracles"]["ffield"]
        assert len(section["primes"]) == n + 1
        assert section["interpolation"]["coeffs"] == [str(c) for c in chi(n).coeffs]

    def test_guard_reasons(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "7", "--oracles", "whitney,graphs", "--max-n", "7",
            "--format", "json",
        )
        assert code == 1
        report = json.loads(out)
        assert report["result"] == "SKIPPED"
        oracles = report["oracles"]
        assert oracles["whitney"]["reason"] == (
            "whitney oracle enumerates all wall subsets and is guarded at n <= 5"
        )
        assert oracles["graphs"]["reason"] == (
            "graph census enumerates all 2^C(n,2) graphs and is guarded at n <= 6"
        )

    def test_nothing_checked_text_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "6", "--oracles", "whitney")
        assert code == 1
        assert out.startswith("verify n=6 (SKIPPED)")
        assert "whitney: skipped" in out


class TestFailureExitCodes:
    def test_verify_fails_when_corrected_mode_disagrees(self, capsys, monkeypatch):
        # force an oracle disagreement to exercise the exit-1 contract
        import pairsum.oracle as oracle_module
        from pairsum.charpoly import IntPolynomial

        monkeypatch.setattr(
            oracle_module, "whitney_chi", lambda n: IntPolynomial([0, 1])
        )
        code, out, _ = run(capsys, "verify", "--n", "2", "--oracles", "whitney")
        assert code == 1
        # the whole report: no digest pins a failing one
        assert out == (
            "verify n=2 (FAIL)\n"
            "  corrected: t^2 - 5t + 6\n"
            "  paper:     t^2 - 5t + 6\n"
            "  published: t^2 - 5t + 6\n"
            "  published vs corrected: PASS\n"
            "  published vs paper: PASS\n"
            "  whitney vs corrected: FAIL (first difference at t^2: computed 1, oracle 0)\n"
            "  whitney vs paper: DIVERGENT (first difference at t^2: computed 1, oracle 0)\n"
            "  whitney vs published: DIVERGENT\n"
        )

    def test_bipartite_mismatch_sets_exit_one(self, capsys, monkeypatch):
        import pairsum.graphcounts as graphcounts_module

        monkeypatch.setattr(
            graphcounts_module,
            "connected_bipartite_table",
            lambda n: [{}, {}, {(1, 0): 7}],
        )
        code, out, _ = run(capsys, "bipartite", "--to", "2")
        assert code == 1
        assert out == (
            "connected labeled bipartite graphs by (order, size)\n"
            "b(2,1) = 7  [census 1: MISMATCH]\n"
            "census comparison: FAIL\n"
        )

    def test_verify_fails_when_a_point_count_disagrees(self, capsys, monkeypatch):
        # one count off by one: that prime fails, and the four samples no
        # longer interpolate to integer coefficients
        import pairsum.oracle as oracle_module

        count = oracle_module.finite_field_count
        monkeypatch.setattr(
            oracle_module, "finite_field_count", lambda n, q: count(n, q) + (1 if q == 7 else 0)
        )
        code, out, _ = run(
            capsys, "verify", "--n", "3", "--oracles", "ffield", "--primes", "5,7,11,13"
        )
        assert code == 1
        # the whole report: no digest pins a failing one
        assert out == (
            "verify n=3 (FAIL)\n"
            "  corrected: t^3 - 9t^2 + 27t - 27\n"
            "  paper:     t^3 - 9t^2 + 27t - 27\n"
            "  published: t^3 - 9t^2 + 27t - 27\n"
            "  published vs corrected: PASS\n"
            "  published vs paper: PASS\n"
            "  ffield q=5: count=8 corrected=PASS paper=PASS\n"
            "  ffield q=7: count=65 corrected=FAIL paper=DIVERGENT\n"
            "  ffield q=11: count=512 corrected=PASS paper=PASS\n"
            "  ffield q=13: count=1000 corrected=PASS paper=PASS\n"
            "  ffield interpolation: FAIL "
            "(samples do not interpolate to integer coefficients)\n"
        )

    def test_closed_stdout_exits_one_without_traceback(self):
        # table --to 60 writes about 91 KB, more than a pipe holds, so its
        # writes fail once the reader has gone
        proc = subprocess.Popen(
            [sys.executable, "-m", "pairsum", "table", "--to", "60", "--max-n", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err == b""


class TestParser:
    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["charpoly"])  # missing --n
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "pairsum" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["charpoly", "--n", "5"],
            ["chambers", "--n", "5"],
            ["table", "--to", "5"],
            ["verify", "--n", "2"],
        ],
    )
    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_max_n_below_one_is_usage_error(self, capsys, argv, max_n):
        code, out, err = run(capsys, *argv, "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert "--max-n must be at least 1" in err

    @pytest.mark.parametrize(
        "argv, low",
        [
            (["table", "--to", "5"], 2),
            (["table", "--to", "2"], 2),
        ],
    )
    def test_max_n_below_lowest_value_names_the_bound(self, capsys, argv, low):
        code, out, err = run(capsys, *argv, "--max-n", "1")
        assert code == 2
        assert out == ""
        assert f"--max-n must be at least {low}" in err
        assert "between" not in err


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("chambers --n 4 --format latex",
         "a7e35ba417f2145c83382e0e478399a55c0405cb58dbf67a7e345fee58995ca8"),
        ("bipartite --to 5 --format latex",
         "b72353fbb6a75a0ce36a1acead02a7d17330239401dd21a358cde1b8c570a0e5"),
        ("table --to 9 --mode paper",
         "2211c0cab4ecaf696ccccaee175388b404ab5b5040ae45c2db3df37c70820fde"),
        ("table --to 6 --mode paper --format latex",
         "ccb643844b22b8f935b0dc54d4e9d212754dc0dbf2b4f226a914605312cfe086"),
        ("verify --n 5",
         "ed1a3e2b82f2201bceb810e2b08a597d7e2abfd49ae3144513e9fc18825e9a35"),
        ("verify --n 7 --max-n 7",
         "1fe6760a312fd3bbf8108377556b1dac0781496e99afa52c113d2ea521234179"),
    ],
)
def test_pinned_text_and_latex_output(capsys, argv, digest):
    # sha256 of the complete stdout of the renderers no other test pins:
    # latex chamber counts and bipartite arrays, the table's text (published
    # differences and non-alternating published rows) and latex, and the
    # verify text report, with skipped oracles and interpolation at n = 7
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Runs in a fresh interpreter, so that no module loaded by another test counts.
_START_UP_SCRIPT = """
import contextlib, io, json, sys
from pairsum import cli
for argv in (["charpoly", "--n", "6"], ["table", "--to", "6"], ["bipartite", "--to", "6"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
heavy = ("numpy", "multiprocessing", "concurrent.futures.process", "concurrent.futures.thread")
loaded = [name for name in heavy if name in sys.modules]
from pairsum.oracle import finite_field_count
ffield = finite_field_count(3, 5)
with contextlib.redirect_stdout(io.StringIO()):
    verify_codes = [
        cli.main(["verify", "--n", "3", "--workers", "2"]),
        cli.main(["verify", "--n", "6", "--oracles", "ffield"]),
    ]
print(json.dumps({
    "loaded": loaded,
    "ffield": ffield,
    "verify_codes": verify_codes,
    "loaded_after_verify": [name for name in heavy if name in sys.modules],
}))
"""


def test_commands_without_oracles_load_no_numpy_or_process_pool():
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP_SCRIPT],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    assert report["ffield"] == 8
    # the oracles, the point count included, run serially in pure Python:
    # neither numpy nor a thread or process pool is ever loaded
    assert report["verify_codes"] == [0, 0]
    assert report["loaded_after_verify"] == []


# Also a fresh interpreter: each command should import only the modules it runs.
_LAZY_IMPORT_SCRIPT = """
import contextlib, io, json, sys
from pairsum import cli
unused = ("pairsum.oracle", "pairsum.series", "dataclasses", "fractions", "decimal", "numbers")
for argv in (
    ["charpoly", "--n", "6"], ["chambers", "--n", "6"],
    ["table", "--to", "12"], ["bipartite", "--to", "12"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
loaded = [name for name in unused if name in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    # n = 5 counts at three primes; n = 6 at seven, which interpolate
    verify_codes = [cli.main(["verify", "--n", "5"]), cli.main(["verify", "--n", "6"])]
loaded_after_verify = [name for name in unused if name in sys.modules]
import pairsum
from pairsum import oracle
try:
    pairsum.no_such_name
    missing = "resolved"
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "loaded": loaded,
    "verify_codes": verify_codes,
    "loaded_after_verify": loaded_after_verify,
    "unresolved": [name for name in pairsum.__all__ if getattr(pairsum, name, None) is None],
    "undisplayed": sorted(set(pairsum.__all__) - set(dir(pairsum))),
    "oracle_is_submodule": oracle is sys.modules["pairsum.oracle"],
    "missing": missing,
}))
"""


def test_commands_import_only_the_modules_they_run():
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORT_SCRIPT],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # charpoly, chambers, table and bipartite past the census limit need no
    # oracle, no Fraction series and no dataclass
    assert report["loaded"] == []
    assert report["verify_codes"] == [0, 0]
    # verify loads the oracles but still neither the series layer nor
    # dataclasses, and its interpolation works in integers: no fractions,
    # and so no decimal or numbers either
    assert report["loaded_after_verify"] == ["pairsum.oracle"]
    # the lazily resolved package keeps its whole public surface
    assert report["unresolved"] == []
    assert report["undisplayed"] == []
    assert report["oracle_is_submodule"] is True
    assert "no_such_name" in report["missing"]


# -- contract fuzz -----------------------------------------------------------
#
# argv built from the CLI's grammar: every subcommand, each flag missing,
# given once or repeated, in any order, with values the command must judge
# (sizes from -3 to 6; --primes lists with blanks, composites, repeats and
# values of 2^31 or more).  Two argv in three then get one fault the parser
# must catch: a malformed value, a flag with no value or one the command
# does not take, or an unknown command.

_SIZE = st.one_of(st.integers(1, 6), st.integers(-3, 6)).map(str)  # mostly in range
_PRIMES = ["5", "7", "11", "13", "17", "23"]
_PRIME_ITEMS = _PRIMES + ["4", "9", "1", "-7", "", " ",
                          str(2**31 - 1), str(2**31), str(2**61 - 1)]


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(["charpoly", "chambers", "table", "bipartite", "verify"]))
    flags = {
        "--to" if command in ("table", "bipartite") else "--n": _SIZE,
        "--format": st.sampled_from(["text", "json"] + ["latex"] * (command != "verify")),
    }
    if command != "bipartite":
        flags["--max-n"] = _SIZE
    if command in ("charpoly", "chambers", "table"):
        flags["--mode"] = st.sampled_from(["corrected", "paper"])
    if command == "verify":
        flags["--oracles"] = st.one_of(
            st.lists(st.sampled_from(["whitney", "ffield", "graphs"]), min_size=1, unique=True),
            st.lists(st.sampled_from(["whitney", "graphs", "", " ", "bogus"]), max_size=4),
        ).map(",".join)
        flags["--primes"] = st.one_of(
            st.lists(st.sampled_from(_PRIMES), min_size=1, unique=True),
            st.lists(st.sampled_from(_PRIME_ITEMS), max_size=8),
        ).map(",".join)
        flags["--workers"] = st.integers(-1, 2).map(str)
    parts = []
    for i, (flag, values) in enumerate(flags.items()):
        # the size flag is required; the others mostly keep their defaults
        times = [1, 1, 1, 1, 2, 0] if i == 0 else [0, 0, 1, 2]
        parts += [[flag, draw(values)] for _ in range(draw(st.sampled_from(times)))]
    argv = [command, *(token for part in draw(st.permutations(parts)) for token in part)]
    fault = draw(st.sampled_from([None, None, "value", "dangling", "foreign", "command"]))
    if fault == "value" and len(argv) > 1:
        at = draw(st.integers(0, (len(argv) - 1) // 2 - 1)) * 2 + 2
        argv[at] = draw(st.sampled_from(["", "x", "1.5", "0x3", "--", "xml", "bogus"]))
    elif fault == "dangling":
        argv.append(draw(st.sampled_from(list(flags))))
    elif fault == "foreign":
        argv += draw(st.sampled_from([["--mode", "paper"], ["--oracles", "ffield"], ["--bogus"]]))
    elif fault == "command":
        argv[0] = "frobnicate"
    return argv


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse reports its own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_cli_argv())
def test_cli_contract_on_generated_argv(argv):
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "", argv
        assert err.startswith("pairsum: error:") or "usage:" in err, (argv, err)
    else:
        formats = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == "--format"]
        if formats and formats[-1] == "json":
            json.loads(out)
    assert _run_in_process(argv) == (code, out, err), argv
