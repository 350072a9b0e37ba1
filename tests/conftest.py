"""Reference helpers that more than one test file uses.  Each is written apart
from the code it checks and imports nothing from :mod:`pairsum`."""

import json
import subprocess
import sys
from collections import deque
from math import gcd


def rational_echelon(rows, ncols):
    """(pivot, row) pairs of the reduced row echelon form of rows over the
    rationals, each row scaled to coprime integers with a positive pivot.  A
    pivot at ncols, the constant column, means the rows share no point.

    Fraction-free Gauss-Jordan elimination: a row is cleared at a pivot column
    by integer cross-multiplication, then divided by the gcd of its entries."""
    matrix = [list(row) for row in rows]
    pivots = []
    for col in range(ncols + 1):
        top = len(pivots)
        pick = next((i for i in range(top, len(matrix)) if matrix[i][col]), None)
        if pick is None:
            continue
        matrix[top], matrix[pick] = matrix[pick], matrix[top]
        pivot = matrix[top]
        for i, other in enumerate(matrix):
            if i != top and other[col]:
                row = [pivot[col] * a - other[col] * b for a, b in zip(other, pivot)]
                matrix[i] = [a // (gcd(*row) or 1) for a in row]
        pivots.append(col)
    out = []
    for col, row in zip(pivots, matrix):
        scale = gcd(*row) if row[col] > 0 else -gcd(*row)
        out.append((col, tuple(a // scale for a in row)))
    return out


def components(n, edges):
    """The components of the graph on range(n) with the given edges, by
    breadth-first search: a (vertices, bipartite) pair for each."""
    neighbours = {v: [] for v in range(n)}
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    colour, found = {}, []
    for root in range(n):
        if root in colour:
            continue
        colour[root], members, proper = 0, [root], True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in neighbours[u]:
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    members.append(w)
                    queue.append(w)
                elif colour[w] == colour[u]:
                    proper = False
        found.append((members, proper))
    return found


def fresh_json(script):
    """The json that script prints in a fresh interpreter, so that no module
    loaded by another test counts."""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)
