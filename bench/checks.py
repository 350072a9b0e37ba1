"""Output checks for benchmark jobs.

Every job's stdout must match the digest recorded for its argv at a commit
whose output was verified (``digests.json``, written by
``record_digests.py``).  Corrected-mode polynomials and chamber counts are
also checked against an independent closed form computed here:

    chi_n(t) = sum_j (S(n, j) + n S(n-1, j)) prod_{i<j} (t - 3 - 2i)

with S the Stirling numbers of the second kind (the finite-field count of
Athanasiadis, Adv. Math. 122 (1996), specialised to this arrangement).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from workloads import option

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def stirling2(n: int) -> list[list[int]]:
    """rows[m][j] = S(m, j) for 0 <= j <= m <= n."""
    rows = [[1]]
    for m in range(1, n + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, m + 1)])
    return rows


def closed_form_chi(n: int) -> list[int]:
    """Corrected-mode chi_n coefficients, ascending in the power of t."""
    s = stirling2(n)
    coeffs = [0] * (n + 1)
    falling = [1]  # prod_{i<j} (t - 3 - 2i), ascending coefficients
    for j in range(n + 1):
        weight = s[n][j] + n * (s[n - 1][j] if j <= n - 1 else 0)
        for power, c in enumerate(falling):
            coeffs[power] += weight * c
        shift = -3 - 2 * j
        falling = [shift * a + b for a, b in zip(falling + [0], [0] + falling)]
    return coeffs


def chambers_of(coeffs: list[int]) -> tuple[int, int]:
    """Zaslavsky: ((-1)^n chi(-1), (-1)^n chi(1)) for a degree-n polynomial."""
    sign = -1 if (len(coeffs) - 1) % 2 else 1
    at_minus_one = sum(c if p % 2 == 0 else -c for p, c in enumerate(coeffs))
    return sign * at_minus_one, sign * sum(coeffs)


_TERM = re.compile(r"([+-]?)\s*(\d*)(t(?:\^\{?(\d+)\}?)?)?")


def parse_poly(text: str) -> list[int]:
    """Coefficients of a rendered polynomial such as ``t^3 - 9t^2 + 27t - 27``
    (also the LaTeX form ``t^{10}``), ascending in the power of t."""
    coeffs: dict[int, int] = {}
    for token in re.split(r"\s+(?=[+-]\s)", text.strip()):
        match = _TERM.fullmatch(token.strip())
        if match is None or not (match.group(2) or match.group(3)):
            raise ValueError(f"cannot parse polynomial term {token!r}")
        sign, digits, var, power = match.groups()
        value = int(digits) if digits else 1
        exponent = int(power) if power else (1 if var else 0)
        coeffs[exponent] = -value if sign == "-" else value
    return [coeffs.get(p, 0) for p in range(max(coeffs) + 1)]


def _claims(argv: list[str], stdout: str) -> dict[int, tuple]:
    """n -> (coefficients or None, (total, bounded) or None) printed by a
    charpoly, chambers or table job."""
    command = argv[0]
    fmt = option(argv, "--format", "text")
    size = int(argv[2])
    if fmt == "json":
        data = json.loads(stdout)
        if command == "charpoly":
            return {size: ([int(c) for c in data["coeffs"]], None)}
        if command == "chambers":
            return {size: (None, (int(data["total"]), int(data["bounded"])))}
        return {
            row["n"]: (
                [int(c) for c in row["coeffs"]],
                (int(row["chambers"]["total"]), int(row["chambers"]["bounded"])),
            )
            for row in data["rows"]
        }
    if command == "charpoly":
        body = stdout.strip()
        if fmt == "latex":
            body = re.fullmatch(r"\\\[ \\chi_\{\d+\}\(t\) = (.*) \\\]", body).group(1)
        return {size: (parse_poly(body), None)}
    if command == "chambers":
        pattern = (
            r"\\\[ r_\{\d+\} = (-?\d+), \\qquad b_\{\d+\} = (-?\d+) \\\]"
            if fmt == "latex"
            else r"chambers \(total\): (-?\d+)\nrelatively bounded chambers: (-?\d+)"
        )
        total, bounded = re.fullmatch(pattern, stdout.strip()).groups()
        return {size: (None, (int(total), int(bounded)))}
    claims: dict[int, list] = {}
    if fmt == "text":
        for n, poly in re.findall(r"^n=(\d+): (.*)$", stdout, re.M):
            claims[int(n)] = [parse_poly(poly), None]
        for i, (total, bounded) in enumerate(
            re.findall(r"^  chambers total=(-?\d+) bounded=(-?\d+)$", stdout, re.M)
        ):
            claims[2 + i][1] = (int(total), int(bounded))
    else:
        for n, poly in re.findall(r"^\\\[ \\chi_\{(\d+)\}\(t\) = (.*) \\\]$", stdout, re.M):
            claims[int(n)] = [parse_poly(poly), None]
        for n, total, bounded in re.findall(r"^(\d+) & (-?\d+) & (-?\d+) \\\\$", stdout, re.M):
            claims[int(n)][1] = (int(total), int(bounded))
    return {n: tuple(claim) for n, claim in claims.items()}


def check_closed_form(argv: list[str], stdout: str) -> str | None:
    """Compare a corrected-mode job's printed values with the closed form."""
    try:
        claims = _claims(argv, stdout)
    except (ValueError, KeyError, AttributeError, IndexError, TypeError) as exc:
        return f"cannot read the printed values: {exc!r}"
    expected_ns = range(2, int(argv[2]) + 1) if argv[0] == "table" else [int(argv[2])]
    if sorted(claims) != list(expected_ns):
        return f"printed ranks {sorted(claims)}, expected {list(expected_ns)}"
    for n, (coeffs, counts) in claims.items():
        reference = closed_form_chi(n)
        if coeffs is not None and coeffs != reference:
            return f"chi_{n} differs from the closed form"
        if counts is not None and counts != chambers_of(reference):
            return f"chamber counts for n={n} differ from the closed form"
    return None


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def check_job(argv: list[str], returncode: int | None, stdout: bytes,
              digests: dict[str, str]) -> str | None:
    """None when the job succeeded with correct output, else the reason."""
    if returncode is None:
        return "timed out"
    if returncode != 0:
        return f"exit code {returncode}"
    expected = digests.get(" ".join(argv))
    if expected is None:
        return "no recorded digest for this argv"
    if digest(stdout) != expected:
        return "stdout differs from the recorded digest"
    text = stdout.decode()
    if argv[0] == "verify":
        if json.loads(text).get("result") != "PASS":
            return "verify did not report PASS"
    elif argv[0] != "bipartite" and option(argv, "--mode", "corrected") == "corrected":
        return check_closed_form(argv, text)
    return None


def without_workers(stdout: bytes) -> dict:
    """A verify report with its workers field dropped, for comparing runs
    that differ only in worker count."""
    report = json.loads(stdout)
    report.pop("workers", None)
    return report
