"""Command-line interface.

Commands expose the pipeline (``charpoly``, ``chambers``, ``table``), the
graph-count tables (``bipartite``) and the oracle cross-checks (``verify``).
Output formats are text (default), json (machine-readable, all big integers
as decimal strings so any consumer can parse them losslessly) and latex
(ready-to-paste display-math lines).  Exit codes: 0 success, 1 verification
failure, a ``verify`` in which every requested check was skipped, or a
stdout closed by its reader, 2 usage error.  Given the same arguments and
format the output is byte-for-byte deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys
from math import comb
from typing import Optional, Sequence

from . import __version__, graphcounts
from .central import Mode
from .charpoly import ChamberCounts, IntPolynomial, chambers, chi, chi_table, signs_alternate

# The oracles, the published values and json are imported inside the
# functions that use them, so that a command loads only the code it runs.

DEFAULT_MAX_N = 12
_ORACLE_NAMES = ("whitney", "ffield", "graphs")


class UsageError(Exception):
    """Invalid argument values; reported on stderr with exit code 2."""


def _str_coeffs(poly: IntPolynomial) -> list[str]:
    return [str(c) for c in poly.coeffs]


def _diff_entries(computed: IntPolynomial, reference: IntPolynomial) -> list[dict]:
    from .published import diff_polynomials

    return [
        {"power": power, "computed": str(a), "published": str(b)}
        for power, a, b in diff_polynomials(computed, reference)
    ]


def _check_range(flag: str, value: int, low: int, max_n: int) -> None:
    if max_n < 1:
        raise UsageError("--max-n must be at least 1")
    if max_n < low:
        raise UsageError(f"--max-n must be at least {low}")
    if value < low or value > max_n:
        raise UsageError(f"{flag} must be between {low} and {max_n}")


def _emit(text: str) -> int:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")
    return 0


def _emit_json(payload: dict) -> None:
    import json

    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


# -- charpoly ----------------------------------------------------------------


def _cmd_charpoly(args: argparse.Namespace) -> int:
    n = args.n
    _check_range("--n", n, 1, args.max_n)
    mode = Mode(args.mode)
    poly = chi(n, mode)
    if args.format == "json":
        _emit_json({"n": n, "mode": mode.value, "coeffs": _str_coeffs(poly)})
        return 0
    if args.format == "latex":
        return _emit(f"\\[ \\chi_{{{n}}}(t) = {poly.latex()} \\]")
    return _emit(str(poly))


# -- chambers ----------------------------------------------------------------


def _cmd_chambers(args: argparse.Namespace) -> int:
    n = args.n
    _check_range("--n", n, 1, args.max_n)
    mode = Mode(args.mode)
    counts = chambers(n, mode)
    if args.format == "json":
        _emit_json(
            {
                "n": n,
                "mode": mode.value,
                "total": str(counts.total),
                "bounded": str(counts.bounded),
            }
        )
        return 0
    if args.format == "latex":
        return _emit(
            f"\\[ r_{{{n}}} = {counts.total}, \\qquad b_{{{n}}} = {counts.bounded} \\]"
        )
    return _emit(
        f"chambers (total): {counts.total}\n"
        f"relatively bounded chambers: {counts.bounded}"
    )


# -- table -------------------------------------------------------------------


def _table_rows(n_max: int, mode: Mode) -> list[dict]:
    from .published import published_chamber_total, published_chi

    rows = []
    for n, poly in zip(range(2, n_max + 1), chi_table(n_max, mode)):
        total, bounded = ChamberCounts.of(poly)
        row = {
            "n": n,
            "coeffs": _str_coeffs(poly),
            "polynomial": str(poly),
            "signs_alternate": signs_alternate(poly),
            "chambers": {"total": str(total), "bounded": str(bounded)},
            "published": None,
        }
        reference = published_chi(n)
        if reference is not None:
            differences = _diff_entries(poly, reference)
            ref_total = published_chamber_total(n)
            chamber_diff = None
            if ref_total is not None and ref_total != total:
                chamber_diff = {"computed": str(total), "published": str(ref_total)}
            row["published"] = {
                "coeffs": _str_coeffs(reference),
                "signs_alternate": signs_alternate(reference),
                "chamber_total": None if ref_total is None else str(ref_total),
                "polynomial_differences": differences,
                "chamber_total_difference": chamber_diff,
                "matches": not differences and chamber_diff is None,
            }
        rows.append(row)
    return rows


def _render_table_text(n_max: int, mode: Mode, rows: list[dict]) -> str:
    lines = [f"characteristic polynomials, mode={mode.value}, n=2..{n_max}"]
    for row in rows:
        n = row["n"]
        lines.append(f"n={n}: {row['polynomial']}")
        lines.append(
            f"  chambers total={row['chambers']['total']} "
            f"bounded={row['chambers']['bounded']}"
        )
        if not row["signs_alternate"]:
            lines.append("  WARNING: coefficient signs do not alternate")
        pub = row["published"]
        if pub is not None and not pub["signs_alternate"]:
            lines.append("  published row: coefficient signs do not alternate")
        if pub is None:
            lines.append("  published: (none)")
            continue
        if pub["matches"]:
            lines.append("  published: matches")
            continue
        for diff in pub["polynomial_differences"]:
            lines.append(
                f"  published differs at t^{diff['power']}: "
                f"computed {diff['computed']}, published {diff['published']}"
            )
        if pub["chamber_total_difference"] is not None:
            cd = pub["chamber_total_difference"]
            lines.append(
                f"  published chamber total differs: computed {cd['computed']}, "
                f"published {cd['published']}"
            )
    return "\n".join(lines)


def _render_table_latex(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        poly = IntPolynomial([int(c) for c in row["coeffs"]])
        lines.append(f"\\[ \\chi_{{{row['n']}}}(t) = {poly.latex()} \\]")
    lines.append("\\[ \\begin{array}{r|rr} n & r_n & b_n \\\\ \\hline")
    for row in rows:
        lines.append(
            f"{row['n']} & {row['chambers']['total']} & {row['chambers']['bounded']} \\\\"
        )
    lines.append("\\end{array} \\]")
    return "\n".join(lines)


def _cmd_table(args: argparse.Namespace) -> int:
    n_max = args.to
    _check_range("--to", n_max, 2, args.max_n)
    mode = Mode(args.mode)
    rows = _table_rows(n_max, mode)
    if args.format == "json":
        _emit_json({"to": n_max, "mode": mode.value, "rows": rows})
        return 0
    if args.format == "latex":
        return _emit(_render_table_latex(rows))
    return _emit(_render_table_text(n_max, mode, rows))


# -- bipartite ---------------------------------------------------------------


def _cmd_bipartite(args: argparse.Namespace) -> int:
    n_max = args.to
    _check_range("--to", n_max, 1, DEFAULT_MAX_N)
    # no graph on n_max vertices has more than C(n_max, 2) edges
    table = graphcounts.connected_bipartite_table(n_max, comb(n_max, 2))
    counts = graphcounts.count_table(table)
    brute: dict[int, dict[int, int]] = {}
    if n_max <= graphcounts.GRAPH_CENSUS_LIMIT:
        from .oracle import enumerate_graphs

        for n in range(1, n_max + 1):
            brute[n] = enumerate_graphs(n).connected_bipartite_by_size()
    rows = []
    mismatch = False
    for (n, k) in sorted(counts.keys()):
        if n > n_max:
            continue
        row = {"n": n, "k": k, "count": str(counts[(n, k)])}
        if brute:
            census_value = brute[n].get(k, 0)
            row["census"] = str(census_value)
            if census_value != counts[(n, k)]:
                mismatch = True
        rows.append(row)
    exit_code = 1 if mismatch else 0
    if args.format == "json":
        payload = {"to": n_max, "rows": rows, "census_included": bool(brute)}
        if brute:
            payload["census_matches"] = not mismatch
        _emit_json(payload)
        return exit_code
    if args.format == "latex":
        lines = ["\\[ \\begin{array}{rrr} n & k & \\bar b_{n,k} \\\\ \\hline"]
        for row in rows:
            lines.append(f"{row['n']} & {row['k']} & {row['count']} \\\\")
        lines.append("\\end{array} \\]")
        _emit("\n".join(lines))
        return exit_code
    lines = ["connected labeled bipartite graphs by (order, size)"]
    for row in rows:
        line = f"b({row['n']},{row['k']}) = {row['count']}"
        if "census" in row:
            tag = "ok" if row["census"] == row["count"] else "MISMATCH"
            line += f"  [census {row['census']}: {tag}]"
        lines.append(line)
    if brute:
        lines.append("census comparison: " + ("PASS" if not mismatch else "FAIL"))
    _emit("\n".join(lines))
    return exit_code


# -- verify ------------------------------------------------------------------


def _compare(computed: IntPolynomial, reference: IntPolynomial, label: str) -> dict:
    differences = _diff_entries(computed, reference)
    return {
        "result": "PASS" if not differences else label,
        "differences": differences,
    }


def _verify_whitney(
    n: int, polys: dict[str, IntPolynomial], reference: Optional[IntPolynomial]
) -> dict:
    from .oracle import SUBSET_SCAN_LIMIT, whitney_chi

    if n > SUBSET_SCAN_LIMIT:
        return {
            "status": "skipped",
            "reason": "whitney oracle enumerates all wall subsets and is guarded at "
            f"n <= {SUBSET_SCAN_LIMIT}",
        }
    oracle_poly = whitney_chi(n)
    section = {
        "status": "ran",
        "polynomial": _str_coeffs(oracle_poly),
        "corrected": _compare(polys["corrected"], oracle_poly, "FAIL"),
        "paper": _compare(polys["paper"], oracle_poly, "DIVERGENT"),
    }
    if reference is not None:
        section["published_vs_oracle"] = _compare(reference, oracle_poly, "DIVERGENT")
    return section


def _verify_ffield(
    n: int, polys: dict[str, IntPolynomial], primes: Sequence[int]
) -> dict:
    from .oracle import finite_field_count, interpolate_counts

    rows = []
    failed = False
    for q in primes:
        count = finite_field_count(n, q)
        row = {
            "q": q,
            "status": "ran",
            "count": str(count),
            "corrected": "PASS" if polys["corrected"](q) == count else "FAIL",
            "paper": "PASS" if polys["paper"](q) == count else "DIVERGENT",
        }
        failed = failed or row["corrected"] == "FAIL"
        rows.append(row)
    section = {"status": "ran", "primes": rows, "failed": failed}
    # with n+1 or more sampled primes the whole polynomial is determined:
    # interpolate and compare every coefficient at once
    samples = [(row["q"], int(row["count"])) for row in rows]
    if len(samples) >= n + 1:
        try:
            interp = interpolate_counts(samples, n)
        except ValueError as exc:
            section["interpolation"] = {"result": "FAIL", "reason": str(exc)}
            section["failed"] = True
        else:
            section["interpolation"] = {
                "result": "PASS" if interp == polys["corrected"] else "FAIL",
                "coeffs": _str_coeffs(interp),
                "paper": "PASS" if interp == polys["paper"] else "DIVERGENT",
            }
            section["failed"] = (
                section["failed"] or section["interpolation"]["result"] == "FAIL"
            )
    return section


def _verify_graphs(n: int) -> dict:
    if n > graphcounts.GRAPH_CENSUS_LIMIT:
        return {
            "status": "skipped",
            "reason": "graph census enumerates all 2^C(n,2) graphs and is guarded at "
            f"n <= {graphcounts.GRAPH_CENSUS_LIMIT}",
        }
    from .oracle import enumerate_graphs

    census = enumerate_graphs(n)
    cap = comb(n, 2)  # no graph on n vertices has more edges
    checks = []
    for name, build, brute in (
        ("connected_bipartite", graphcounts.connected_bipartite_table,
         census.connected_bipartite_by_size()),
        ("connected", graphcounts.connected_table, census.connected_by_size()),
        ("no_isolated", graphcounts.no_isolated_table, census.no_isolated_by_size()),
        ("bipartite_no_isolated", graphcounts.bipartite_no_isolated_table,
         census.bipartite_no_isolated_by_size()),
    ):
        table = graphcounts.count_table(build(n, cap))
        formula = {k: v for (m, k), v in table.items() if m == n}
        checks.append({"name": name, "result": "PASS" if formula == brute else "FAIL"})
    failed = any(c["result"] == "FAIL" for c in checks)
    return {"status": "ran", "checks": checks, "failed": failed}


def _verify_report(
    n: int, oracle_names: Sequence[str], primes: Sequence[int], workers: int
) -> dict:
    from .published import published_chi

    polys = {
        "corrected": chi(n, Mode.CORRECTED),
        "paper": chi(n, Mode.PAPER),
    }
    report: dict = {
        "n": n,
        "workers": workers,
        "polynomials": {
            "corrected": _str_coeffs(polys["corrected"]),
            "paper": _str_coeffs(polys["paper"]),
        },
    }
    reference = published_chi(n)
    if reference is not None:
        report["published"] = {
            "coeffs": _str_coeffs(reference),
            "corrected": _compare(polys["corrected"], reference, "DIVERGENT"),
            "paper": _compare(polys["paper"], reference, "DIVERGENT"),
        }
    sections: dict = {}
    corrected_failed = False
    checked = False  # whether any oracle ran at least one check
    for name in oracle_names:
        if name == "whitney":
            section = _verify_whitney(n, polys, reference)
            failed = section["status"] == "ran" and section["corrected"]["result"] == "FAIL"
        elif name == "ffield":
            section = _verify_ffield(n, polys, primes)
            failed = section.get("failed", False)
        else:  # graphs; _cmd_verify has rejected every other name
            section = _verify_graphs(n)
            failed = section.get("failed", False)
        checked = checked or section["status"] == "ran"
        corrected_failed = corrected_failed or failed
        sections[name] = section
    report["oracles"] = sections
    if corrected_failed:
        report["result"] = "FAIL"
    else:
        report["result"] = "PASS" if checked else "SKIPPED"
    return report


def _render_verify_text(report: dict) -> str:
    def compared(label: str, cmp: dict, noun: str) -> str:
        if not cmp["differences"]:
            return f"  {label}: PASS"
        first = cmp["differences"][0]
        return (
            f"  {label}: {cmp['result']} (first difference at t^{first['power']}: "
            f"computed {first['computed']}, {noun} {first['published']})"
        )

    lines = [f"verify n={report['n']} ({report['result']})"]
    lines.append(f"  corrected: {IntPolynomial([int(c) for c in report['polynomials']['corrected']])}")
    lines.append(f"  paper:     {IntPolynomial([int(c) for c in report['polynomials']['paper']])}")
    pub = report.get("published")
    if pub is not None:
        lines.append(
            f"  published: {IntPolynomial([int(c) for c in pub['coeffs']])}"
        )
        for mode in ("corrected", "paper"):
            lines.append(compared(f"published vs {mode}", pub[mode], "published"))
    for name, section in report["oracles"].items():
        if section["status"] == "skipped":
            lines.append(f"  {name}: skipped ({section['reason']})")
            continue
        if name == "whitney":
            for mode in ("corrected", "paper"):
                lines.append(compared(f"whitney vs {mode}", section[mode], "oracle"))
            if "published_vs_oracle" in section:
                cmp = section["published_vs_oracle"]
                lines.append(f"  whitney vs published: {cmp['result']}")
        elif name == "ffield":
            for row in section["primes"]:
                lines.append(
                    f"  ffield q={row['q']}: count={row['count']} "
                    f"corrected={row['corrected']} paper={row['paper']}"
                )
            interp = section.get("interpolation")
            if interp is not None:
                if "reason" in interp:
                    lines.append(f"  ffield interpolation: FAIL ({interp['reason']})")
                else:
                    lines.append(
                        f"  ffield interpolation: corrected={interp['result']} "
                        f"paper={interp['paper']}"
                    )
        elif name == "graphs":
            for check in section["checks"]:
                lines.append(f"  graphs {check['name']}: {check['result']}")
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    _check_range("--n", n, 1, args.max_n)
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")
    oracle_names = [s.strip() for s in args.oracles.split(",") if s.strip()]
    if not oracle_names:
        raise UsageError("--oracles must name at least one oracle")
    for name in oracle_names:
        if name not in _ORACLE_NAMES:
            raise UsageError(
                f"unknown oracle {name!r}; choose from {', '.join(_ORACLE_NAMES)}"
            )
    repeated = sorted({name for name in oracle_names if oracle_names.count(name) > 1})
    if repeated:
        raise UsageError(
            f"--oracles repeats {', '.join(repeated)}; list each oracle once"
        )
    from .oracle import (
        MAX_VERIFICATION_PRIME,
        default_verification_primes,
        is_verification_prime,
    )

    if args.primes:
        try:
            primes = tuple(int(s) for s in args.primes.split(","))
        except ValueError as exc:
            raise UsageError(f"--primes must be a comma-separated integer list: {exc}")
        repeated = sorted({q for q in primes if primes.count(q) > 1})
        if repeated:
            raise UsageError(
                f"--primes repeats {', '.join(map(str, repeated))}; list each prime once"
            )
        invalid = [q for q in primes if not is_verification_prime(q)]
        if invalid:
            raise UsageError(
                f"--primes must list primes at least 5 and at most "
                f"{MAX_VERIFICATION_PRIME}, not {', '.join(map(str, invalid))}"
            )
    else:
        primes = default_verification_primes(n)
    report = _verify_report(n, oracle_names, primes, args.workers)
    if args.format == "json":
        _emit_json(report)
    else:
        _emit(_render_verify_text(report))
    return 0 if report["result"] == "PASS" else 1


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairsum",
        description=(
            "Exact characteristic polynomials and chamber counts for the "
            "arrangement x_i+x_j=1 (i<j), x_k=0, x_l=1 in R^n."
        ),
    )
    parser.add_argument("--version", action="version", version=f"pairsum {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats=("text", "json", "latex")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument(
            "--max-n",
            type=int,
            default=DEFAULT_MAX_N,
            help=f"largest accepted n (default {DEFAULT_MAX_N})",
        )

    p = sub.add_parser("charpoly", help="characteristic polynomial for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.CORRECTED.value)
    add_common(p)
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("chambers", help="chamber counts via Zaslavsky's theorem")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.CORRECTED.value)
    add_common(p)
    p.set_defaults(func=_cmd_chambers)

    p = sub.add_parser("table", help="polynomials and chambers for n=2..N, diffed against the published list")
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.CORRECTED.value)
    add_common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("bipartite", help="connected bipartite graph counts b(n,k)")
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--format", choices=["text", "json", "latex"], default="text")
    p.set_defaults(func=_cmd_bipartite)

    p = sub.add_parser("verify", help="cross-check both modes against brute-force oracles")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--oracles",
        default="whitney,ffield,graphs",
        help="comma-separated subset of whitney,ffield,graphs",
    )
    p.add_argument(
        "--primes",
        default="",
        help="override the finite-field primes (default: the first max(4, n+1) from 5; "
        "23,29,31 at n=5)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="echoed in the report; every oracle is serial, so it changes no work",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"pairsum: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so that
        # the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
