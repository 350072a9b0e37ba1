"""Mutation score of the tier-1 tests, from the standard library alone.  Run it
from any directory, with the test extra installed: ``python tools/mutants.py``.

A mutant changes one site of a module of MODULES: ``+`` and ``-`` swapped;
``*`` to ``//``, ``//`` to ``*``, ``%`` to ``//``; ``<`` and ``<=``, ``>`` and
``>=``, ``==`` and ``!=`` swapped; an int constant k made k + 1; or a unary
minus dropped; or a ``raise`` statement made ``pass``.  Strings and
``TYPE_CHECKING`` blocks hold no site.  In a temporary copy of the checkout,
the module's own test files run under ``pytest -x``, then, if they pass, the
rest of tier-1.  A failing run kills the mutant; a run past TIMEOUT seconds
counts as killed, reported as ``timeout``.  It prints one JSON line per mutant
in source order, with the seconds its runs took, then a summary line.
"""

import ast
import bisect
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate
from pathlib import Path
from queue import Queue

ROOT = Path(__file__).resolve().parents[1]
# each mutated module of src/pairsum and the test files that run first for it.
# published.py is left out: its 118 sites are the published table, data rather than
# code.  So is series.py: no command runs it, only the graphcounts views do
MODULES = {**{module: [f"tests/test_{module}.py"]
              for module in ("labeled", "central", "charpoly", "graphcounts", "oracle")},
           "cli": ["tests/test_cli.py", "tests/test_pinned_outputs.py"],
           "polynomial": ["tests/test_charpoly.py"]}
# operator class: (its symbol, the symbol of its mutant)
OPERATORS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "//"),
             ast.FloorDiv: ("//", "*"), ast.Mod: ("%", "//"), ast.Lt: ("<", "<="),
             ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
             ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
# a mutant may make tier-1 loop forever: about 4 times the slowest mutant run that
# ended, 15.8 s and 17.2 s in two runs with two workers on a 2-vCPU Xeon
TIMEOUT = 64
MEMORY = 2 << 30  # address space of each test process: a mutant may allocate without end
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]


def sites(source: bytes) -> list[tuple[int, int, str, str, str]]:
    """(byte offset, line, kind, original, mutated) of each site, in source order."""
    starts = [0, *accumulate(map(len, source.splitlines(keepends=True)))]
    found = []

    def span(node: ast.AST) -> tuple[int, int]:
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    def operator(left: ast.expr, op: ast.AST, kind: str) -> None:
        if type(op) in OPERATORS:
            # after the left operand come blanks, brackets, comments, then the operator
            offset = starts[left.end_lineno - 1] + left.end_col_offset
            offset += re.match(rb"(?:[\s()\\]|#[^\n]*)*", source[offset:]).end()
            found.append((offset, kind, *OPERATORS[type(op)]))

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.JoinedStr) or (
                isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"):
            return
        if isinstance(node, ast.BinOp):
            operator(node.left, node.op, "arithmetic")
        elif isinstance(node, ast.AugAssign):
            operator(node.target, node.op, "arithmetic")
        elif isinstance(node, ast.Compare):
            for left, op in zip([node.left, *node.comparators], node.ops):
                operator(left, op, "comparison")
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            found.append((starts[node.lineno - 1] + node.col_offset, "sign", "-", ""))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            offset, end = span(node)
            found.append((offset, "constant", source[offset:end].decode(), str(node.value + 1)))
        elif isinstance(node, ast.Raise):
            offset, end = span(node)
            found.append((offset, "raise", source[offset:end].decode(), "pass"))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return [(offset, bisect.bisect(starts, offset), *site) for offset, *site in sorted(found)]


def mutate(source: bytes, offset: int, original: str, mutated: str) -> bytes:
    """The source with the site at offset changed."""
    assert source[offset:].startswith(original.encode())
    return source[:offset] + mutated.encode() + source[offset + len(original):]


def pytest(copy: Path, args: list[str]) -> tuple[str, str | None]:
    """(status, first failing test) of one pytest run in a copy of the checkout."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen(PYTEST + args, cwd=copy, env=env, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, start_new_session=True) as proc:
        resource.prlimit(proc.pid, resource.RLIMIT_AS, (MEMORY, MEMORY))  # its children inherit it
        try:
            out = proc.communicate(timeout=TIMEOUT)[0]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # pytest and every process it started
            proc.communicate()
            return "timeout", None
    if proc.returncode == 0:
        return "survived", None
    failure = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE)
    return "killed", failure.group(1) if failure else out.strip().rsplit("\n", 1)[-1]


def main() -> None:
    start = time.monotonic()
    # SIGTERM unwinds like Ctrl-C: the pending mutants are dropped and the copies removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sources = {m: (ROOT / "src" / "pairsum" / f"{m}.py").read_bytes() for m in MODULES}
    mutants = [(module, site) for module, source in sources.items() for site in sites(source)]
    with tempfile.TemporaryDirectory() as tmp:
        copies: Queue[Path] = Queue()
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
        for worker in range(os.cpu_count() or 1):
            copies.put(Path(shutil.copytree(ROOT, Path(tmp, str(worker)), ignore=ignore)))
        status, failure = pytest(Path(tmp, "0"), [])
        if status != "survived":
            sys.exit(f"mutants: tier-1 fails unmutated ({status}: {failure})")

        def run(mutant: tuple[str, tuple]) -> dict:
            module, (offset, line, kind, original, mutated) = mutant
            source, own, copy = sources[module], MODULES[module], copies.get()
            began = time.monotonic()
            target = copy / "src" / "pairsum" / f"{module}.py"
            try:
                target.write_bytes(mutate(source, offset, original, mutated))
                status, failure = pytest(copy, own)
                if status == "survived":
                    status, failure = pytest(copy, ["tests", *(f"--ignore={f}" for f in own)])
            finally:
                target.write_bytes(source)
                copies.put(copy)
            col = offset - source.rfind(b"\n", 0, offset) - 1
            return {"module": module, "line": line, "col": col, "kind": kind, "original": original,
                    "mutated": mutated, "status": status, "first_failure": failure,
                    "seconds": round(time.monotonic() - began, 1)}

        counts = dict.fromkeys(("killed", "timeout", "survived"), 0)
        with ThreadPoolExecutor(copies.qsize()) as pool:
            for result in pool.map(run, mutants):
                counts[result["status"]] += 1
                print(json.dumps(result), flush=True)
    score = (counts["killed"] + counts["timeout"]) / len(mutants)
    print(json.dumps({"mutants": len(mutants), **counts, "score": round(score, 4),
                      "seconds": round(time.monotonic() - start)}))


if __name__ == "__main__":
    main()
