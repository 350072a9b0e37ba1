"""Command-line interface.

Commands expose the pipeline (``charpoly``, ``chambers``, ``table``), the
graph-count tables (``bipartite``) and the oracle cross-checks (``verify``).
Output formats are text (default), json (machine-readable, all big integers
as decimal strings so any consumer can parse them losslessly) and latex
(ready-to-paste display-math lines).  Every integer an option takes, each
``--primes`` item included, is an optional sign and ASCII digits.  Exit
codes: 0 success, 1 verification failure, a ``verify`` in which every
requested check was skipped, or a stdout that is closed (quietly) or cannot
be written (with one ``pairsum: error:`` line), 2 usage error, with stdout
left empty even when stderr is closed.  Given the same arguments and format
the output is byte-for-byte deterministic.

Each command returns its exit code, its json payload and a renderer for
each other format it supports; :func:`main` writes the one format asked for.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from typing import TYPE_CHECKING, Callable, Sequence

from . import GRAPH_CENSUS_LIMIT, Mode, __version__

if TYPE_CHECKING:
    from .polynomial import IntPolynomial

# The pipeline, the oracles, the published values and json are imported
# inside the functions that use them, so that a command loads only the code
# it runs and --help loads none of it.

DEFAULT_MAX_N = 12

# (exit code, json payload, {format: renderer}) as a command returns it
Outcome = tuple[int, dict, dict[str, Callable[[], str]]]


class UsageError(Exception):
    """Invalid argument values; reported on stderr with exit code 2."""


def _error(message: str) -> None:
    """Write one ``pairsum: error:`` line to stderr, if it can be written;
    the exit code still tells the caller."""
    try:
        print(f"pairsum: error: {message}", file=sys.stderr)
    except OSError:
        pass


def _str_coeffs(poly: IntPolynomial) -> list[str]:
    from .polynomial import decimal_str

    return [decimal_str(c) for c in poly.coeffs]


def _diff_entries(computed: IntPolynomial, reference: IntPolynomial) -> list[dict]:
    from .polynomial import decimal_str
    from .published import diff_polynomials

    return [
        {"power": power, "computed": decimal_str(a), "published": decimal_str(b)}
        for power, a, b in diff_polynomials(computed, reference)
    ]


def integer(text: str) -> int:
    """An argparse type: an optional sign and ASCII digits, with spaces around them."""
    digits = text.strip().lstrip("+-")  # int() then refuses a second sign
    if not (digits.isascii() and digits.isdigit()):  # int() takes 1_1 and non-ASCII digits
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _check_range(flag: str, value: int, low: int, max_n: int) -> None:
    if max_n < low:
        raise UsageError(f"--max-n must be at least {low}")
    if value < low or value > max_n:
        raise UsageError(f"{flag} must be between {low} and {max_n}")


def _reject_repeats(flag: str, items: Sequence, noun: str) -> None:
    repeated = sorted(item for item, count in Counter(items).items() if count > 1)
    if repeated:
        raise UsageError(f"{flag} repeats {', '.join(map(str, repeated))}; list each {noun} once")


def _latex_array(columns: str, header: tuple, rows: list[tuple]) -> str:
    lines = [f"\\[ \\begin{{array}}{{{columns}}} {' & '.join(header)} \\\\ \\hline"]
    lines += [" & ".join(map(str, row)) + " \\\\" for row in rows]
    return "\n".join(lines + ["\\end{array} \\]"])


# -- charpoly and chambers ---------------------------------------------------


def _cmd_charpoly(args: argparse.Namespace) -> Outcome:
    n = args.n
    from .charpoly import chi

    poly = chi(n, args.mode)
    return 0, {"n": n, "mode": args.mode, "coeffs": _str_coeffs(poly)}, {
        "text": lambda: str(poly),
        "latex": lambda: f"\\[ \\chi_{{{n}}}(t) = {poly.latex()} \\]",
    }


def _cmd_chambers(args: argparse.Namespace) -> Outcome:
    n = args.n
    from .charpoly import chambers
    from .polynomial import decimal_str

    total, bounded = map(decimal_str, chambers(n, args.mode))
    payload = {"n": n, "mode": args.mode, "total": total, "bounded": bounded}
    return 0, payload, {
        "text": lambda: f"chambers (total): {total}\nrelatively bounded chambers: {bounded}",
        "latex": lambda: f"\\[ r_{{{n}}} = {total}, \\qquad b_{{{n}}} = {bounded} \\]",
    }


# -- table -------------------------------------------------------------------


def _cmd_table(args: argparse.Namespace) -> Outcome:
    n_max = args.to
    from .charpoly import ChamberCounts, chi_table, signs_alternate
    from .polynomial import decimal_str
    from .published import published_chamber_total, published_chi

    polys = chi_table(n_max, args.mode)
    rows = []
    lines = [f"characteristic polynomials, mode={args.mode}, n=2..{n_max}"]
    for n, poly in enumerate(polys, 2):
        total, bounded = map(decimal_str, ChamberCounts.of(poly))
        row = {
            "n": n,
            "coeffs": _str_coeffs(poly),
            "polynomial": str(poly),
            "signs_alternate": signs_alternate(poly),
            "chambers": {"total": total, "bounded": bounded},
            "published": None,
        }
        rows.append(row)
        lines += [f"n={n}: {row['polynomial']}", f"  chambers total={total} bounded={bounded}"]
        if not row["signs_alternate"]:
            lines.append("  WARNING: coefficient signs do not alternate")
        reference = published_chi(n)
        if reference is None:
            lines.append("  published: (none)")
            continue
        differences = _diff_entries(poly, reference)
        ref_total = published_chamber_total(n)
        ref_total = None if ref_total is None else decimal_str(ref_total)
        chamber_diff = None
        if ref_total is not None and ref_total != total:
            chamber_diff = {"computed": total, "published": ref_total}
        pub = row["published"] = {
            "coeffs": _str_coeffs(reference),
            "signs_alternate": signs_alternate(reference),
            "chamber_total": ref_total,
            "polynomial_differences": differences,
            "chamber_total_difference": chamber_diff,
            "matches": not differences and chamber_diff is None,
        }
        if not pub["signs_alternate"]:
            lines.append("  published row: coefficient signs do not alternate")
        if pub["matches"]:
            lines.append("  published: matches")
            continue
        lines += [
            f"  published differs at t^{d['power']}: "
            f"computed {d['computed']}, published {d['published']}"
            for d in differences
        ]
        if chamber_diff is not None:
            lines.append(
                f"  published chamber total differs: computed {total}, published {ref_total}"
            )

    def latex() -> str:
        display = [f"\\[ \\chi_{{{n}}}(t) = {poly.latex()} \\]" for n, poly in enumerate(polys, 2)]
        counts = [(row["n"], row["chambers"]["total"], row["chambers"]["bounded"]) for row in rows]
        return "\n".join(display + [_latex_array("r|rr", ("n", "r_n", "b_n"), counts)])

    return 0, {"to": n_max, "mode": args.mode, "rows": rows}, {
        "text": lambda: "\n".join(lines),
        "latex": latex,
    }


# -- bipartite ---------------------------------------------------------------


def _at_order(counts: Counter, n: int) -> dict[int, int]:
    """The counts of a ``graphcounts.count_table`` at order n, keyed by size."""
    return {k: count for (m, k), count in counts.items() if m == n}


def _cmd_bipartite(args: argparse.Namespace) -> Outcome:
    n_max = args.to
    from . import graphcounts
    from .polynomial import decimal_str

    counts = graphcounts.count_table(graphcounts.connected_bipartite_table(n_max))
    census = {}
    if n_max <= GRAPH_CENSUS_LIMIT:
        from .oracle import enumerate_graphs, family_by_size

        census = {n: family_by_size(enumerate_graphs(n), "connected_bipartite")
                  for n in range(1, n_max + 1)}
    # whole orders are compared, so a size that only one side counts is a mismatch
    matches = all(_at_order(counts, n) == sizes for n, sizes in census.items())
    rows = []
    lines = ["connected labeled bipartite graphs by (order, size)"]
    for n, k in sorted(counts.keys() | {(n, k) for n, sizes in census.items() for k in sizes}):
        row = {"n": n, "k": k, "count": decimal_str(counts.get((n, k), 0))}
        rows.append(row)
        lines.append(f"b({n},{k}) = {row['count']}")
        if census:
            row["census"] = decimal_str(census[n].get(k, 0))
            ok = row["census"] == row["count"]
            lines[-1] += f"  [census {row['census']}: {'ok' if ok else 'MISMATCH'}]"
    payload = {"to": n_max, "rows": rows, "census_included": bool(census)}
    if census:
        payload["census_matches"] = matches
        lines.append("census comparison: " + ("PASS" if matches else "FAIL"))
    return int(not matches), payload, {
        "text": lambda: "\n".join(lines),
        "latex": lambda: _latex_array(
            "rrr", ("n", "k", "\\bar b_{n,k}"), [(r["n"], r["k"], r["count"]) for r in rows]
        ),
    }


# -- verify ------------------------------------------------------------------
#
# Every oracle takes (n, the polynomials of both modes, the published one or
# None, the primes) and returns (its report section, whether corrected mode
# failed, its text lines).

_Verdict = tuple[dict, bool, list[str]]


def _compare(computed: IntPolynomial, reference: IntPolynomial, label: str) -> dict:
    differences = _diff_entries(computed, reference)
    return {"result": label if differences else "PASS", "differences": differences}


def _compared(label: str, cmp: dict, noun: str) -> str:
    if not cmp["differences"]:
        return f"  {label}: PASS"
    first = cmp["differences"][0]
    return (
        f"  {label}: {cmp['result']} (first difference at t^{first['power']}: "
        f"computed {first['computed']}, {noun} {first['published']})"
    )


def _skipped(name: str, reason: str) -> _Verdict:
    return {"status": "skipped", "reason": reason}, False, [f"  {name}: skipped ({reason})"]


def _verify_whitney(
    n: int, polys: dict[str, IntPolynomial], reference: IntPolynomial | None, primes: Sequence[int]
) -> _Verdict:
    from .oracle import SUBSET_SCAN_LIMIT, whitney_chi

    if n > SUBSET_SCAN_LIMIT:
        return _skipped(
            "whitney",
            "whitney oracle enumerates all wall subsets and is guarded at "
            f"n <= {SUBSET_SCAN_LIMIT}",
        )
    oracle_poly = whitney_chi(n)
    section = {"status": "ran", "polynomial": _str_coeffs(oracle_poly)}
    lines = []
    for mode, label in (("corrected", "FAIL"), ("paper", "DIVERGENT")):
        section[mode] = _compare(polys[mode], oracle_poly, label)
        lines.append(_compared(f"whitney vs {mode}", section[mode], "oracle"))
    if reference is not None:
        cmp = section["published_vs_oracle"] = _compare(reference, oracle_poly, "DIVERGENT")
        lines.append(f"  whitney vs published: {cmp['result']}")
    return section, section["corrected"]["result"] == "FAIL", lines


def _verify_ffield(
    n: int, polys: dict[str, IntPolynomial], reference: IntPolynomial | None, primes: Sequence[int]
) -> _Verdict:
    """Count points at each of the k primes and, when k >= n + 1, rebuild chi
    from the counts.

    When every row passed, every count is chi_corrected(q), so any n + 1 of
    them interpolate to chi_corrected, as all k do: the first n + 1 give the
    same report to the byte, in O(n^2) work instead of O(k^2).  Only a report
    with a failing row interpolates through all k counts.
    """
    from .oracle import finite_field_count, interpolate_counts
    from .polynomial import decimal_str

    counts = [(q, finite_field_count(n, q)) for q in primes]
    rows = []
    lines = []
    for q, count in counts:
        corrected = "PASS" if polys["corrected"](q) == count else "FAIL"
        paper = "PASS" if polys["paper"](q) == count else "DIVERGENT"
        count = decimal_str(count)
        rows.append(
            {"q": q, "status": "ran", "count": count, "corrected": corrected, "paper": paper}
        )
        lines.append(f"  ffield q={q}: count={count} corrected={corrected} paper={paper}")
    failed = any(row["corrected"] == "FAIL" for row in rows)
    section = {"status": "ran", "primes": rows, "failed": failed}
    # with n+1 or more sampled primes the whole polynomial is determined:
    # interpolate and compare every coefficient at once
    if len(counts) >= n + 1:
        try:
            interp = interpolate_counts(counts if failed else counts[: n + 1], n)
        except ValueError as exc:
            result = section["interpolation"] = {"result": "FAIL", "reason": str(exc)}
            lines.append(f"  ffield interpolation: FAIL ({exc})")
        else:
            result = section["interpolation"] = {
                "result": "PASS" if interp == polys["corrected"] else "FAIL",
                "coeffs": _str_coeffs(interp),
                "paper": "PASS" if interp == polys["paper"] else "DIVERGENT",
            }
            lines.append(
                f"  ffield interpolation: corrected={result['result']} paper={result['paper']}"
            )
        failed = section["failed"] = failed or result["result"] == "FAIL"
    return section, failed, lines


def _verify_graphs(
    n: int, polys: dict[str, IntPolynomial], reference: IntPolynomial | None, primes: Sequence[int]
) -> _Verdict:
    if n > GRAPH_CENSUS_LIMIT:
        return _skipped(
            "graphs",
            "graph census enumerates all 2^C(n,2) graphs and is guarded at "
            f"n <= {GRAPH_CENSUS_LIMIT}",
        )
    from . import graphcounts
    from .oracle import enumerate_graphs, family_by_size

    census = enumerate_graphs(n)
    # the tables and the no-isolated builder that paper mode runs, by census family
    cb, conn = graphcounts.connected_bipartite_table(n), graphcounts.connected_table(n)
    checks = []
    for name, table in (
        ("connected_bipartite", cb),
        ("connected", conn),
        ("no_isolated", graphcounts.no_isolated(conn)),
        ("bipartite_no_isolated", graphcounts.no_isolated(cb)),
    ):
        same = _at_order(graphcounts.count_table(table), n) == family_by_size(census, name)
        checks.append({"name": name, "result": "PASS" if same else "FAIL"})
    failed = any(c["result"] == "FAIL" for c in checks)
    lines = [f"  graphs {c['name']}: {c['result']}" for c in checks]
    return {"status": "ran", "checks": checks, "failed": failed}, failed, lines


_VERIFIERS = {"whitney": _verify_whitney, "ffield": _verify_ffield, "graphs": _verify_graphs}


def _cmd_verify(args: argparse.Namespace) -> Outcome:
    n = args.n
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")
    oracle_names = [s.strip() for s in args.oracles.split(",") if s.strip()]
    if not oracle_names:
        raise UsageError("--oracles must name at least one oracle")
    for name in oracle_names:
        if name not in _VERIFIERS:
            raise UsageError(f"unknown oracle {name!r}; choose from {', '.join(_VERIFIERS)}")
    _reject_repeats("--oracles", oracle_names, "oracle")
    from .oracle import MAX_VERIFICATION_PRIME, default_verification_primes, is_verification_prime

    if args.primes is not None:
        primes = []
        for position, item in enumerate(args.primes.split(","), start=1):
            try:
                primes.append(integer(item))
            except ValueError:
                raise UsageError(
                    f"--primes must be a comma-separated integer list: item {position} is {item!r}"
                ) from None
        _reject_repeats("--primes", primes, "prime")
        invalid = [q for q in primes if not is_verification_prime(q)]
        if invalid:
            raise UsageError(
                f"--primes must list primes at least 5 and at most "
                f"{MAX_VERIFICATION_PRIME}, not {', '.join(map(str, invalid))}"
            )
    else:
        primes = default_verification_primes(n)
    from .charpoly import chi
    from .published import published_chi

    polys = {mode: chi(n, mode) for mode in ("corrected", "paper")}
    reference = published_chi(n)
    report: dict = {
        "n": n,
        "workers": args.workers,
        "polynomials": {mode: _str_coeffs(poly) for mode, poly in polys.items()},
    }
    lines = [f"  corrected: {polys['corrected']}", f"  paper:     {polys['paper']}"]
    if reference is not None:
        report["published"] = {"coeffs": _str_coeffs(reference)}
        lines.append(f"  published: {reference}")
        for mode, poly in polys.items():
            report["published"][mode] = _compare(poly, reference, "DIVERGENT")
            lines.append(_compared(f"published vs {mode}", report["published"][mode], "published"))
    sections = report["oracles"] = {}
    failed = checked = False  # checked: whether any oracle ran at least one check
    for name in oracle_names:
        sections[name], section_failed, section_lines = _VERIFIERS[name](
            n, polys, reference, primes
        )
        lines += section_lines
        failed = failed or section_failed
        checked = checked or sections[name]["status"] == "ran"
    report["result"] = "FAIL" if failed else "PASS" if checked else "SKIPPED"
    lines.insert(0, f"verify n={n} ({report['result']})")
    return int(report["result"] != "PASS"), report, {"text": lambda: "\n".join(lines)}


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

    # main checks each size rule (flag, lowest value, cap) before its command runs
    def command(name, func, size, low, summary, formats=("text", "json", "latex"), mode=True,
                max_n=True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func, flag=size, low=low, max_n=DEFAULT_MAX_N)
        p.add_argument(size, type=integer, required=True)
        if mode:
            p.add_argument("--mode", choices=[m.value for m in Mode], default="corrected")
        p.add_argument("--format", choices=formats, default="text")
        if max_n:
            p.add_argument("--max-n", type=integer,
                           help=f"largest accepted n (default {DEFAULT_MAX_N})")
        return p

    command("charpoly", _cmd_charpoly, "--n", 1, "characteristic polynomial for one n")
    command("chambers", _cmd_chambers, "--n", 1, "chamber counts via Zaslavsky's theorem")
    command("table", _cmd_table, "--to", 2,
            "polynomials and chambers for n=2..N, diffed against the published list")
    command("bipartite", _cmd_bipartite, "--to", 1, "connected bipartite graph counts b(n,k)",
            mode=False, max_n=False)
    p = command("verify", _cmd_verify, "--n", 1,
                "cross-check both modes against brute-force oracles",
                formats=("text", "json"), mode=False)
    oracles = ",".join(_VERIFIERS)
    p.add_argument("--oracles", default=oracles, help=f"comma-separated subset of {oracles}")
    p.add_argument("--primes",
                   help="override the finite-field primes (default: the first max(4, n+1) "
                   "from 5; 23,29,31 at n=5)")
    p.add_argument("--workers", type=integer, default=1,
                   help="echoed in the report; every oracle is serial, so it changes no work")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if sys.stderr is None:
        # started with stderr closed: print(file=None), as argparse's usage
        # errors do, would fall back to stdout
        sys.stderr = open(os.devnull, "w")
    args = build_parser().parse_args(argv)
    try:
        _check_range(args.flag, getattr(args, args.flag[2:]), args.low, args.max_n)
        code, payload, renderers = args.func(args)
        if args.format == "json":
            import json

            text = json.dumps(payload, separators=(",", ":"))
        else:
            text = renderers[args.format]()
    except UsageError as exc:
        _error(str(exc))
        return 2
    if sys.stdout is None:  # started with stdout closed: nothing to write to
        return 1
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
        return code
    except OSError as exc:
        if not isinstance(exc, BrokenPipeError):  # a closed pipe is the reader's choice
            _error(f"cannot write output: {exc}")
        # send what is left to devnull, so that the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
