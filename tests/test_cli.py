"""Command-line surface: rendering, schemas, exit codes, determinism."""

import hashlib
import json

import pytest

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


class TestFailureExitCodes:
    def test_verify_fails_when_corrected_mode_disagrees(self, capsys, monkeypatch):
        # force an oracle disagreement to exercise the exit-1 contract
        import pairsum.cli as cli_module
        from pairsum.charpoly import IntPolynomial

        monkeypatch.setattr(
            cli_module, "whitney_chi", lambda n, workers=1: IntPolynomial([0, 1])
        )
        code, out, _ = run(capsys, "verify", "--n", "2", "--oracles", "whitney")
        assert code == 1
        assert "(FAIL)" in out
        assert "whitney vs corrected: FAIL" in out

    def test_bipartite_mismatch_sets_exit_one(self, capsys, monkeypatch):
        import pairsum.cli as cli_module
        from pairsum.graphcounts import CountTable

        monkeypatch.setattr(
            cli_module,
            "connected_bipartite_counts",
            lambda caps: CountTable({(2, 1): 7}),
        )
        code, out, _ = run(capsys, "bipartite", "--to", "2")
        assert code == 1
        assert "MISMATCH" in out


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
