"""Command-line surface: exit codes, usage errors, failing reports, imports and
determinism.  The bytes of passing runs are pinned by bench/digests.json (in
test_pinned_outputs.py, with the default flags) and by the four sha256 pins here."""

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
from itertools import accumulate
from pathlib import Path

import pytest
from conftest import fresh_json
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsum.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run(argv):
    """(exit code, stdout, stderr) of main in this process; argv is a list of
    arguments or a string of them separated by blanks."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split() if isinstance(argv, str) else argv)
    return code, out.getvalue(), err.getvalue()


def report(argv, code=0):
    """The json stdout of argv, which must exit with the given code."""
    got, out, err = run(f"{argv} --format json")
    assert got == code, err
    return json.loads(out)


def usage_error(argv):
    """The stderr of argv, which must be a usage error: exit 2, empty stdout."""
    code, out, err = run(argv)
    assert (code, out) == (2, ""), err
    return err


class TestCharpoly:
    def test_n_beyond_configured_max(self):
        assert run("charpoly --n 5 --max-n 5")[0] == 0
        assert run("charpoly --n 1 --max-n 1")[0] == 0  # --max-n at the lowest n


class TestTable:
    @pytest.mark.parametrize(
        "mode, digest",
        [
            ("corrected", "d3af346e0383fd5013154cba2eeba8d4a28d2063f706414bbbee8fc390dbb949"),
            ("paper", "875730a7904c25dc25549b659b460f5e810e7732800c483fb1e48acb70bb95b8"),
        ],
        ids=["corrected", "paper"],
    )
    def test_pinned_output_through_sixteen(self, mode, digest):
        # sha256 of the complete stdout; any change to a coefficient, a
        # chamber count or the rendering shows up here
        code, out, _ = run(f"table --to 16 --max-n 16 --mode {mode} --format json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerify:
    def test_rank_three_all_pass(self):
        code, out, _ = run("verify --n 3")
        assert code == 0
        assert "(PASS)" in out

    def test_oracle_guard_reported_not_fatal(self):
        oracles = report("verify --n 6 --oracles whitney,graphs --primes 5")["oracles"]
        assert oracles["whitney"]["status"] == "skipped"
        assert oracles["graphs"]["status"] == "ran"

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_usage_error(self, workers):
        assert "--workers must be at least 1" in usage_error(f"verify --n 2 --workers {workers}")

    def test_report_echoes_requested_workers(self):
        assert report("verify --n 2 --oracles ffield --workers 64")["workers"] == 64
        assert report("verify --n 2 --oracles ffield")["workers"] == 1  # the default

    def test_unknown_oracle(self):
        assert "psychic" in usage_error("verify --n 3 --oracles psychic")

    @pytest.mark.parametrize("oracles", [",", " "])
    def test_oracles_naming_none_is_usage_error(self, oracles):
        err = usage_error(["verify", "--n", "3", "--oracles", oracles])
        assert err == "pairsum: error: --oracles must name at least one oracle\n"

    def test_blank_oracle_items_are_dropped(self):
        blank = run(["verify", "--n", "3", "--oracles", " ,whitney"])
        assert blank[0] == 0
        assert blank == run("verify --n 3 --oracles whitney")

    def test_deterministic_report(self):
        assert run("verify --n 4 --format json") == run("verify --n 4 --format json")

    def test_custom_primes(self):
        rows = report("verify --n 2 --oracles ffield --primes 5,7")["oracles"]["ffield"]["primes"]
        assert [row["q"] for row in rows] == [5, 7]

    @pytest.fixture
    def no_work(self, monkeypatch):
        import pairsum.charpoly as charpoly_module
        import pairsum.oracle as oracle_module

        def no_work(*args, **kwargs):
            raise AssertionError("verify started work before rejecting --primes")

        monkeypatch.setattr(oracle_module, "finite_field_count", no_work)
        monkeypatch.setattr(charpoly_module, "chi", no_work)

    def test_repeated_prime_is_usage_error(self, no_work):
        assert "--primes repeats 5" in usage_error("verify --n 2 --oracles ffield --primes 5,5,7")

    def test_repeat_in_a_long_prime_list_is_usage_error(self, no_work):
        # 20,000 items, about as many as one 128 KiB argument holds: the
        # repeats are counted in one pass, not one list scan per item
        primes = ",".join(map(str, [*range(10000, 29999), 10000]))
        err = usage_error(f"verify --n 1 --primes {primes}")
        assert "--primes repeats 10000; list each prime once" in err

    @pytest.mark.parametrize(
        "oracles, repeated",
        [("whitney,whitney", "whitney"), ("graphs,ffield,graphs,ffield", "ffield, graphs")],
    )
    def test_repeated_oracle_is_usage_error(self, no_work, oracles, repeated):
        err = usage_error(f"verify --n 5 --oracles {oracles}")
        assert f"--oracles repeats {repeated}; list each oracle once" in err

    # the item a malformed list names: blank, or not a sign and ASCII digits
    MALFORMED = {"": "item 1 is ''", " ": "item 1 is ' '", "5,,7": "item 2 is ''",
                 "1_1": "item 1 is '1_1'", "\u0667": "item 1 is '\u0667'"}

    @pytest.mark.parametrize(
        "primes",
        ["4,6,8", "5,9", "3", "1,7", "-5", "5,2147483659", "", " ", "5,,7", "1_1", "\u0667"],
    )
    def test_prime_below_five_or_composite_is_usage_error(self, no_work, primes):
        err = usage_error(["verify", "--n", "2", "--oracles", "ffield", "--primes", primes])
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

    def test_given_primes_are_all_counted(self):
        # given primes are all counted, however large q^n is
        verdict = report("verify --n 7 --oracles ffield --max-n 7 --primes 29,31,37")
        assert [
            (row["q"], row["status"], row["corrected"])
            for row in verdict["oracles"]["ffield"]["primes"]
        ] == [(29, "ran", "PASS"), (31, "ran", "PASS"), (37, "ran", "PASS")]
        assert verdict["result"] == "PASS"

    def test_given_primes_rebuild_chi_at_rank_twelve(self):
        code, out, _ = run(
            "verify --n 12 --max-n 12 --oracles ffield "
            "--primes 5,7,11,13,17,19,23,29,31,37,41,43,47"
        )
        assert code == 0
        assert out.startswith("verify n=12 (PASS)")
        assert "ffield interpolation: corrected=PASS paper=DIVERGENT" in out

    def test_default_primes_at_rank_twelve_are_thirteen(self):
        # without --max-n the defaults are still the first n + 1 primes from 5
        verdict = report("verify --n 12 --oracles ffield")
        assert len(verdict["oracles"]["ffield"]["primes"]) == 13
        assert verdict["result"] == "PASS"

    @pytest.mark.parametrize("n", [6, 7, 12, 40])
    def test_default_primes_rebuild_chi(self, n):
        # the defaults are the first n + 1 primes from 5, and each one passes
        from pairsum.charpoly import chi
        from pairsum.oracle import default_verification_primes

        section = report(f"verify --n {n} --max-n {n}")["oracles"]["ffield"]
        assert [(row["q"], row["corrected"]) for row in section["primes"]] == [
            (q, "PASS") for q in default_verification_primes(n)
        ]
        assert len(section["primes"]) == n + 1
        assert section["interpolation"]["result"] == "PASS"
        assert section["interpolation"]["coeffs"] == [str(c) for c in chi(n).coeffs]

    def test_interpolates_through_n_plus_one_counts_unless_a_row_fails(self, monkeypatch):
        # when every row passed, the first n + 1 counts rebuild chi; a report
        # with a failing row interpolates through all k of them
        import pairsum.oracle as oracle_module

        interpolate, count = oracle_module.interpolate_counts, oracle_module.finite_field_count
        sizes = []
        monkeypatch.setattr(oracle_module, "interpolate_counts",
                            lambda points, n: sizes.append(len(points)) or interpolate(points, n))
        argv = "verify --n 2 --oracles ffield --primes " + ",".join(
            map(str, oracle_module.default_verification_primes(39)))  # the first 40 from 5
        assert run(argv)[0] == 0
        monkeypatch.setattr(oracle_module, "finite_field_count",
                            lambda n, q: count(n, q) + (q == 7))
        assert run(argv)[0] == 1
        assert sizes == [3, 40]

    def test_guard_reasons(self):
        verdict = report("verify --n 7 --oracles whitney,graphs --max-n 7", code=1)
        assert verdict["result"] == "SKIPPED"
        oracles = verdict["oracles"]
        assert oracles["whitney"]["reason"] == (
            "whitney oracle enumerates all wall subsets and is guarded at n <= 5"
        )
        assert oracles["graphs"]["reason"] == (
            "graph census enumerates all 2^C(n,2) graphs and is guarded at n <= 6"
        )

    def test_nothing_checked_text_report(self):
        code, out, _ = run("verify --n 6 --oracles whitney")
        assert code == 1
        assert out.startswith("verify n=6 (SKIPPED)")
        assert "whitney: skipped" in out


class TestFailureExitCodes:
    def test_verify_fails_when_corrected_mode_disagrees(self, monkeypatch):
        # force an oracle disagreement to exercise the exit-1 contract
        import pairsum.oracle as oracle_module
        from pairsum.charpoly import IntPolynomial

        monkeypatch.setattr(
            oracle_module, "whitney_chi", lambda n: IntPolynomial([0, 1])
        )
        code, out, _ = run("verify --n 2 --oracles whitney")
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

    def test_bipartite_mismatch_sets_exit_one(self, monkeypatch):
        import pairsum.graphcounts as graphcounts_module

        monkeypatch.setattr(
            graphcounts_module,
            "connected_bipartite_table",
            lambda n: [{}, {}, {(1, 0): 7}],
        )
        code, out, _ = run("bipartite --to 2")
        assert code == 1
        assert out == (
            "connected labeled bipartite graphs by (order, size)\n"
            "b(1,0) = 0  [census 1: MISMATCH]\n"
            "b(2,1) = 7  [census 1: MISMATCH]\n"
            "census comparison: FAIL\n"
        )

    @pytest.mark.parametrize("order_four, row", [
        ({(4, 0): 3}, "b(4,3) = 0  [census 16: MISMATCH]"),  # the 16 trees dropped
        ({(3, 0): 16, (4, 0): 3, (6, 0): 1}, "b(4,6) = 1  [census 0: MISMATCH]"),  # K4 added
    ], ids=["census_only", "table_only"])
    def test_bipartite_compares_a_size_that_one_side_lacks(self, monkeypatch, order_four, row):
        # K4 is not bipartite, so only the table counts b(4,6)
        import pairsum.graphcounts as graphcounts_module

        built = graphcounts_module.connected_bipartite_table
        monkeypatch.setattr(graphcounts_module, "connected_bipartite_table",
                            lambda n: [*built(n)[:4], order_four, *built(n)[5:]])
        code, out, _ = run("bipartite --to 5")
        assert code == 1
        assert row in out.splitlines()
        assert out.endswith("\ncensus comparison: FAIL\n")

    def test_verify_fails_when_a_point_count_disagrees(self, monkeypatch):
        # one count off by one: that prime fails, and the four samples no
        # longer interpolate to integer coefficients
        import pairsum.oracle as oracle_module

        count = oracle_module.finite_field_count
        monkeypatch.setattr(
            oracle_module, "finite_field_count", lambda n, q: count(n, q) + (1 if q == 7 else 0)
        )
        code, out, _ = run("verify --n 3 --oracles ffield --primes 5,7,11,13")
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

    def test_unwritable_stdout_exits_one_without_traceback(self):
        # started with stdout closed, sys.stdout is None: quiet, like a closed pipe
        closed = subprocess.run(
            ["sh", "-c", '"$0" -m pairsum charpoly --n 3 >&-', sys.executable],
            capture_output=True, timeout=60,
        )
        assert (closed.returncode, closed.stderr) == (1, b"")
        if not os.path.exists("/dev/full"):
            return
        # every write to /dev/full fails with ENOSPC: one error line, no traceback
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "pairsum", "charpoly", "--n", "3"],
                stdout=full, stderr=subprocess.PIPE, timeout=60,
            )
        assert proc.returncode == 1
        assert proc.stderr.startswith(b"pairsum: error: cannot write output: ")
        assert proc.stderr.count(b"\n") == 1 and proc.stderr.endswith(b"\n")

    def test_closed_stderr_keeps_the_exit_code(self):
        # started with stderr closed, sys.stderr is None, and print(file=None)
        # would write the error line to stdout
        def run_sh(redirected):
            return subprocess.run(
                ["sh", "-c", f'"$0" -m pairsum {redirected}', sys.executable],
                capture_output=True, timeout=60,
            )

        for argv in ("charpoly --n 0", "charpoly", "frobnicate", "charpoly --n x"):
            usage = run_sh(f"{argv} 2>&-")
            assert (usage.returncode, usage.stdout) == (2, b""), argv
        assert run_sh("charpoly --n 3 >&- 2>&-").returncode == 1
        if os.path.exists("/dev/full"):
            assert run_sh("charpoly --n 3 >/dev/full 2>&-").returncode == 1


class TestParser:
    def test_version(self):
        # the version is written twice; Python 3.10 has no tomllib to read it once
        pyproject = (ROOT / "pyproject.toml").read_text()
        version = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
        assert run("--version") == (0, f"pairsum {version}\n", "")

    @pytest.mark.parametrize(
        "argv, low",
        [
            (["table", "--to", "5", "--max-n", "1"], 2),
            (["table", "--to", "2", "--max-n", "1"], 2),
        ] + [
            ([command, flag, "5", "--max-n", max_n], low)
            for command, flag, low in (
                ("charpoly", "--n", 1),
                ("chambers", "--n", 1),
                ("table", "--to", 2),
                ("verify", "--n", 1),
            )
            for max_n in ("0", "-1")
        ],
    )
    def test_max_n_below_lowest_value_names_the_bound(self, argv, low):
        # the bound named is the command's lowest size, also below 1
        assert usage_error(argv) == f"pairsum: error: --max-n must be at least {low}\n"

    @pytest.mark.parametrize(
        "command, flag, low",
        [
            ("charpoly", "--n", 1),
            ("chambers", "--n", 1),
            ("table", "--to", 2),
            ("bipartite", "--to", 1),
            ("verify", "--n", 1),
        ],
    )
    @pytest.mark.parametrize("side", ["below", "above"])
    def test_size_outside_the_rule_is_usage_error(self, command, flag, low, side):
        # main checks every command's size rule before the command runs;
        # bipartite has no --max-n, but the same default cap of 12
        value = low - 1 if side == "below" else 13
        err = usage_error(f"{command} {flag} {value}")
        assert err == f"pairsum: error: {flag} must be between {low} and 12\n"

    @pytest.mark.parametrize("value", ["1_2", "\u0667"])
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["charpoly"], "--n"),
            (["table"], "--to"),
            (["charpoly", "--n", "3"], "--max-n"),
            (["verify", "--n", "2"], "--workers"),
        ],
    )
    def test_integer_beyond_a_sign_and_ascii_digits_is_usage_error(self, argv, flag, value):
        # int() reads 1_2 as 12 and the Arabic-Indic seven as 7; the CLI reads neither
        err = usage_error([*argv, flag, value])
        assert f"argument {flag}: invalid integer value: {value!r}" in err

    @pytest.mark.parametrize(
        "argv", [["charpoly", "--n"], ["verify", "--n", "2", "--oracles", "ffield", "--primes"]]
    )
    def test_more_digits_than_int_converts_is_usage_error(self, argv):
        # 4,301 digits: past int()'s default digit limit, or past the size
        # or prime bound on a Python that has no such limit
        assert "error:" in usage_error([*argv, "7" * 4301])

    def test_mode_choices_are_the_mode_values(self):
        # every --mode of the command table offers the values of Mode, in its
        # order; Mode is defined once, in the package root, and central re-exports it
        import pairsum
        from pairsum.central import Mode
        from pairsum.cli import COMMANDS

        assert Mode is pairsum.Mode
        choices = {
            name: options["--mode"][1]
            for name, (*_, options) in COMMANDS.items()
            if "--mode" in options
        }
        assert sorted(choices) == ["chambers", "charpoly", "table"]
        for values in choices.values():
            assert list(values) == [m.value for m in Mode]

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "no command given; choose from charpoly, chambers, table, bipartite, verify"),
            (["frobnicate", "--n", "3"],
             "unknown command 'frobnicate'; choose from charpoly, chambers, table, bipartite, "
             "verify"),
            (["charpoly", "--mode", "paper"], "argument --n is required"),
            (["table", "--to"], "argument --to: expected one value"),
            # flags are spelled in full: no prefix of one is taken for it
            (["charpoly", "--n", "3", "--max", "12"],
             "unrecognized argument '--max'; charpoly takes --n, --mode, --format, --max-n"),
            (["bipartite", "--to", "3", "--max-n=3"],
             "unrecognized argument '--max-n'; bipartite takes --to, --format"),
            (["verify", "3"],
             "unrecognized argument '3'; verify takes --n, --format, --max-n, --oracles, "
             "--primes, --workers"),
            (["verify", "--n", "3", "--format", "latex"],
             "argument --format: invalid choice: 'latex' (choose from text, json)"),
            (["chambers", "--n", "3", "--mode=Paper"],
             "argument --mode: invalid choice: 'Paper' (choose from paper, corrected)"),
            # the token after a flag is always its value
            (["charpoly", "--n", "--mode", "paper"],
             "argument --n: invalid integer value: '--mode'"),
            (["charpoly", "--n", "-3"], "--n must be between 1 and 12"),
        ],
    )
    def test_usage_error_names_its_fault(self, argv, message):
        assert usage_error(argv) == f"pairsum: error: {message}\n"

    def test_flag_value_forms_and_repeats(self):
        # --flag=VALUE reads as --flag VALUE, and the last of a repeated flag wins
        paper = run("charpoly --n 4 --mode paper --format json")
        assert paper[0] == 0
        assert run("charpoly --n=4 --mode=paper --format=json") == paper
        assert run("charpoly --n 2 --mode corrected --format text --n 4 --mode paper "
                   "--format json") == paper

    @pytest.mark.parametrize(
        "argv, flags",
        [
            ([], ["--version"]),
            (["charpoly"], ["--n", "--mode", "--format", "--max-n"]),
            (["chambers", "--n", "3"], ["--n", "--mode", "--format", "--max-n"]),
            (["table"], ["--to", "--mode", "--format", "--max-n"]),
            (["bipartite"], ["--to", "--format"]),
            (["verify"], ["--n", "--format", "--max-n", "--oracles", "--primes", "--workers"]),
        ],
    )
    def test_help_lists_the_flags_on_stdout(self, argv, flags):
        code, out, err = run([*argv, "--help"])
        assert (code, err) == (0, "")
        assert run([*argv, "-h"]) == (code, out, err)
        assert out.startswith(f"usage: pairsum {' '.join(argv[:1])}")
        assert [line.split()[0] for line in out.splitlines() if line.startswith("  --")] == flags
        if "--mode" in flags:
            assert "--mode {paper,corrected}" in out

    def test_help_text_of_verify(self):
        # the whole text once: usage line, metavars, choices, column and wrapped help
        assert run("verify --help")[1] == (
            "usage: pairsum verify [-h] --n N [--format {text,json}] [--max-n MAX_N] "
            "[--oracles ORACLES] [--primes PRIMES] [--workers WORKERS]\n"
            "\n"
            "cross-check both modes against brute-force oracles\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help and exit\n"
            "  --n N                 required, from 1 to --max-n\n"
            "  --format {text,json}  output format (default text)\n"
            "  --max-n MAX_N         largest accepted n (default 12)\n"
            "  --oracles ORACLES     comma-separated subset of whitney,ffield,graphs\n"
            "  --primes PRIMES       override the finite-field primes (default: the first\n"
            "                        max(4, n+1) from 5; 23,29,31 at n=5)\n"
            "  --workers WORKERS     echoed in the report; every oracle is serial, so it\n"
            "                        changes no work\n"
        )


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("verify --n 5",
         "ed1a3e2b82f2201bceb810e2b08a597d7e2abfd49ae3144513e9fc18825e9a35"),
        ("verify --n 7 --max-n 7",
         "1fe6760a312fd3bbf8108377556b1dac0781496e99afa52c113d2ea521234179"),
    ],
    ids=["verify --n 5", "verify --n 7 --max-n 7"],
)
def test_pinned_text_and_latex_output(argv, digest):
    # sha256 of the complete stdout of the text report of verify, which no
    # digest of bench/digests.json pins: at n = 5 with every oracle run, and
    # at n = 7 with the subset scan skipped and the point counts interpolated
    code, out, _ = run(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# A fresh interpreter, so that no module loaded by another test counts: each
# command should import only the modules it runs.
_LAZY_IMPORT_SCRIPT = """
import contextlib, io, json, sys
parser_modules = [name for name in ("argparse", "gettext", "locale") if name not in sys.modules]
from pairsum import cli
parser_loaded = [["import", name] for name in parser_modules if name in sys.modules]

def main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    parser_loaded.extend([*argv, name] for name in parser_modules if name in sys.modules)
    return code

pipeline = ("pairsum.central", "pairsum.charpoly", "pairsum.graphcounts", "pairsum.labeled",
            "pairsum.polynomial")
assert [main(["--help"]), main(["verify", "--help"]), main(["frobnicate"])] == [0, 0, 2]
loaded_by_import = [name for name in pipeline if name in sys.modules]
assert main(["bipartite", "--to", "12"]) == 0
loaded_by_bipartite = [name for name in pipeline[:2] if name in sys.modules]
unused = ("pairsum.oracle", "pairsum.series", "dataclasses", "fractions", "decimal", "numbers",
          "numpy", "multiprocessing", "concurrent.futures.process", "concurrent.futures.thread")
for argv in (["charpoly", "--n", "6"], ["chambers", "--n", "6"], ["table", "--to", "12"]):
    assert main(argv) == 0, argv
loaded = [name for name in unused if name in sys.modules]
from pairsum.oracle import finite_field_count
ffield = finite_field_count(3, 5)
assert main(["bipartite", "--to", "6"]) == 0
# n = 5 counts at three primes; n = 6 at seven, which interpolate
verify_codes = [main(["verify", "--n", *rest.split()])
                for rest in ("5", "6", "3 --workers 2", "6 --oracles ffield")]
loaded_after_verify = [name for name in unused if name in sys.modules]
import pairsum
from pairsum import oracle
try:
    pairsum.no_such_name
    missing = "resolved"
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "parser_modules": parser_modules,
    "parser_loaded": parser_loaded,
    "loaded_by_import": loaded_by_import,
    "loaded_by_bipartite": loaded_by_bipartite,
    "loaded": loaded,
    "ffield": ffield,
    "verify_codes": verify_codes,
    "loaded_after_verify": loaded_after_verify,
    "unresolved": [name for name in pairsum.__all__ if getattr(pairsum, name, None) is None],
    "undisplayed": sorted(set(pairsum.__all__) - set(dir(pairsum))),
    "oracle_is_submodule": oracle is sys.modules["pairsum.oracle"],
    "missing": missing,
}))
"""


def test_commands_import_only_the_modules_they_run():
    report = fresh_json(_LAZY_IMPORT_SCRIPT)
    # the command table is parsed by hand: neither the import, nor --help, nor
    # any command loads argparse, or the gettext and locale it pulls in
    assert report["parser_modules"], "argparse, gettext and locale all loaded at start-up"
    assert report["parser_loaded"] == []
    # the CLI module itself loads no pipeline, not even the polynomial type, so
    # --help and the parser's usage errors run none of it; bipartite needs the
    # graph tables, not Gamma
    assert report["loaded_by_import"] == []
    assert report["loaded_by_bipartite"] == []
    # charpoly, chambers, table and bipartite past the census limit need no
    # oracle, Fraction series, dataclass, numpy or thread or process pool
    assert report["loaded"] == []
    assert report["ffield"] == 8
    assert report["verify_codes"] == [0, 0, 0, 0]
    # verify and the census of bipartite load the oracles, but they run
    # serially in plain integers whatever --workers says: no series layer,
    # dataclass, fractions (so no decimal or numbers), numpy or pool
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
        argv[at] = draw(st.sampled_from(
            ["", "x", "1.5", "0x3", "--", "xml", "bogus", "1_2", "\u0667"]
        ))
    elif fault == "dangling":
        argv.append(draw(st.sampled_from(list(flags))))
    elif fault == "foreign":
        argv += draw(st.sampled_from([["--mode", "paper"], ["--oracles", "ffield"], ["--bogus"]]))
    elif fault == "command":
        argv[0] = "frobnicate"
    return argv


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_cli_argv())
def test_cli_contract_on_generated_argv(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "", argv
        assert err.startswith("pairsum: error:") and err.count("\n") == 1, (argv, err)
    else:
        formats = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a == "--format"]
        if formats and formats[-1] == "json":
            json.loads(out)
    assert run(argv) == (code, out, err), argv


@pytest.mark.parametrize("argv", ["charpoly --n 3", "charpoly --n 0"])
def test_cli_module_runs_main_as_a_script(argv):
    # python -m pairsum.cli runs main and exits with its code, as python -m pairsum does
    proc = subprocess.run([sys.executable, "-m", "pairsum.cli", *argv.split()],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == run(argv)


@pytest.mark.skipif(shutil.which("bash") is None, reason="the script is a bash script")
def test_ci_checks_script_parses_and_the_workflow_runs_it():
    # CI runs the script, and nothing else here does: a syntax error in it
    # fails tier-1 on every Python instead of only the CI run
    proc = subprocess.run(
        ["bash", "-n", str(ROOT / "tools" / "ci_checks.sh")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert "bash tools/ci_checks.sh" in workflow


def test_mutation_sites_are_stable_and_every_mutant_compiles():
    # the mutation run itself takes many minutes and stays out of CI; this
    # checks what it reads: its sites, their mutants and its test files
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    # every module but the published table and the series layer
    assert sorted(mutants.MODULES) == sorted(
        path.stem for path in (ROOT / "src" / "pairsum").glob("*.py")
        if path.stem not in ("__init__", "__main__", "published", "series"))
    for module, files in mutants.MODULES.items():
        assert all((ROOT / name).is_file() for name in files), module
        source = (ROOT / "src" / "pairsum" / f"{module}.py").read_bytes()
        sites = mutants.sites(source)
        assert sites and sites == mutants.sites(source), module
        tree = ast.parse(source)
        # each raise statement, and nothing else, becomes pass
        raises = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise))
        assert [(line, original[:5], mutated) for _, line, kind, original, mutated in sites
                if kind == "raise"] == [(line, "raise", "pass") for line in raises], module
        docstrings = {
            line for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            for line in range(node.lineno, node.end_lineno + 1)
        }
        # each mutant changes one top-level statement: compiling that one is enough
        starts = [0, *accumulate(map(len, source.splitlines(keepends=True)))]
        statements = [
            (starts[min([n.lineno, *(d.lineno for d in getattr(n, "decorator_list", ()))]) - 1],
             starts[n.end_lineno])
            for n in tree.body
        ]
        for offset, line, _, original, mutated in sites:
            assert mutants.mutate(source, offset, original, mutated) != source, (module, line)
            assert line not in docstrings, (module, line)
            low, high = next((low, high) for low, high in statements if low <= offset < high)
            statement = mutants.mutate(source[low:high], offset - low, original, mutated)
            compile(statement, module, "exec")


def test_every_python_file_parses_as_python_3_10():
    # CI runs Python 3.10 to 3.13: newer syntax would fail only on the 3.10 leg
    for folder in ("src", "tests", "tools", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            ast.parse(path.read_bytes(), str(path), feature_version=(3, 10))


_BIG_COEFFICIENT_SCRIPT = """
from pairsum import charpoly, cli
from pairsum.polynomial import IntPolynomial
charpoly.chi = lambda n, mode: IntPolynomial([-(7**900), 3**1500, 1])  # 761 and 716 digits
for fmt in ("text", "json", "latex"):
    assert cli.main(["charpoly", "--n", "2", "--format", fmt]) == 0
"""


def test_integers_print_past_the_int_to_str_digit_limit():
    # the limit guards the parsing of input, not the printing of results
    runs = [
        subprocess.run([sys.executable, *flags, "-c", _BIG_COEFFICIENT_SCRIPT],
                       capture_output=True, text=True, timeout=60)
        for flags in ([], ["-X", "int_max_str_digits=640"])
    ]
    assert [proc.returncode for proc in runs] == [0, 0], runs[1].stderr
    assert runs[1].stdout == runs[0].stdout
    assert runs[0].stdout.startswith(f"t^2 + {3**1500}t - {7**900}\n")
