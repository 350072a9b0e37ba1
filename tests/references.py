"""Closed forms of the pipeline's stages at y = -1, written apart from the code
they check: this module imports nothing from :mod:`pairsum`.

A sequence here is a list of labeled counts, entry m holding m! [x^m] of an
exponential generating function, as one entry of a signed labeled-count series
does.  The building block is

    P_s(m; t) = sum_j S(m, j) prod_{i<j} (t - s - 2i) = m! [x^m] (2e^x - 1)^((t - s)/2),

since (2e^x - 1)^(a/2) = sum_j C(a/2, j) 2^j (e^x - 1)^j and (e^x - 1)^j / j!
is the EGF of S(m, j) (Stanley, *Enumerative Combinatorics* Vol. 2, Sec. 5.1;
Comtet, *Advanced Combinatorics*, Ch. 5).
"""

from math import comb, factorial


def stirling2_rows(n_max):
    """rows[n][j] = S(n, j), the Stirling numbers of the second kind."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, n + 1)])
    return rows


def stirling_sum(m, s, rows):
    """P_s(m; t) in ascending powers of t."""
    total = [0] * (m + 1)
    falling = [1]
    for j in range(m + 1):
        for power, c in enumerate(falling):
            total[power] += rows[m][j] * c
        falling = [0, *falling]
        for power in range(len(falling) - 1):
            falling[power] -= (s + 2 * j) * falling[power + 1]
    return total


def two_exp_power(a, rows):
    """The sequence of (2e^x - 1)^(a/2) on len(rows) vertex counts: P_0 at t = a."""
    return [sum(c * a**power for power, c in enumerate(stirling_sum(m, 0, rows)))
            for m in range(len(rows))]


def times_exp(seq, c):
    """The sequence of e^(cx) times the EGF of seq: its binomial transform."""
    return [sum(comb(m, k) * c**k * seq[m - k] for k in range(m + 1)) for m in range(len(seq))]


def times_one_plus_x(seq):
    """The sequence of (1 + x) times the EGF of seq."""
    return [a + m * b for m, (a, b) in enumerate(zip(seq, [0, *seq]))]


def corrected_exp(rows):
    """exp of type 1 plus the colored kind at y = -1, corrected:
    (1 + x)(2e^x - 1)^(-3/2)."""
    return times_one_plus_x(two_exp_power(-3, rows))


def paper_exp(rows):
    """The same in paper mode:
    [(1 + x)e^(-x) + 1 - e^(-x)(2e^x - 1)^(1/2)] / (2e^x - 1)."""
    inverse = two_exp_power(-2, rows)
    terms = (times_exp(times_one_plus_x(inverse), -1), inverse,
             times_exp(two_exp_power(-1, rows), -1))
    return [a + b - c for a, b, c in zip(*terms)]


def corrected_chambers(n_max):
    """(total, bounded) chamber counts of ranks 1..n_max, corrected, which are
    (-1)^n chi_n(-1) and (-1)^n chi_n(1): n! [x^n] (1 - x)e^(2x)/(2 - e^x)^2
    and (1 - x)e^x/(2 - e^x), from the Fubini numbers F_m = m! [x^m] 1/(2 - e^x)
    (O. A. Gross, "Preferential arrangements", Amer. Math. Monthly 69 (1962))."""
    f = [sum(s2 * factorial(j) for j, s2 in enumerate(row)) for row in stirling2_rows(n_max + 1)]
    g = [2 * f[0] - 1, *(2 * value for value in f[1:-1])]  # e^x/(2 - e^x)
    h = times_exp(f[1:], 1)  # e^x times F', which is e^x/(2 - e^x)^2
    return [(h[n] - n * h[n - 1], g[n] - n * g[n - 1]) for n in range(1, n_max + 1)]


def corrected_chi(n, rows):
    """Corrected chi_n(t) = P_3(n) + n P_3(n-1), ascending powers of t, that is
    n! [x^n] (1+x)(2e^x-1)^((t-3)/2): the corrected Gamma product at y = -1
    makes the signed bicolored series 2e^x - 1 and the signed all-graphs
    series 1 + x."""
    lower = stirling_sum(n - 1, 3, rows) + [0]
    return [a + n * b for a, b in zip(stirling_sum(n, 3, rows), lower)]


def paper_chi(n, rows):
    """Paper-mode chi_n(t) = P_2(n) + sum_k C(n,k) (-1)^k (1-k) P_2(n-k)
    - sum_k C(n,k) (-1)^k P_1(n-k), ascending powers of t.

    This is n! [x^n] of [1 + (1+x)e^{-x}] (2e^x-1)^((t-2)/2) - e^{-x} (2e^x-1)^((t-1)/2),
    the paper's own generating function at y = -1.  So it checks the labeled
    machinery and the paper branch of the pipeline, not the paper's derivation.
    """
    total = stirling_sum(n, 2, rows)
    for k in range(n + 1):
        sign = comb(n, k) * (-1) ** k
        for s, weight in ((2, sign * (1 - k)), (1, -sign)):
            for power, c in enumerate(stirling_sum(n - k, s, rows)):
                total[power] += weight * c
    return total
