"""Integer polynomials in t.  This module imports nothing from :mod:`pairsum`,
so the oracles and the published values build them without loading the pipeline."""

from __future__ import annotations

import operator
import sys
from typing import Iterable


def decimal_str(value: int) -> str:
    """``str(value)``, whatever the interpreter's int-to-str digit limit.

    The limit guards the parsing of outside input, not the printing of
    pairsum's own results: past it, the digits are converted in chunks below it.
    """
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit or value.bit_length() <= 3 * limit:  # at most 0.91 * limit + 1 digits
        return str(value)
    base = 10 ** (limit - 1)
    high, chunks = abs(value), []
    while high >= base:
        high, low = divmod(high, base)
        chunks.append(str(low).zfill(limit - 1))
    return "-" * (value < 0) + str(high) + "".join(reversed(chunks))


class IntPolynomial:
    """Univariate polynomial in t with arbitrary-precision integer coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        values = [operator.index(c) for c in coeffs]
        while values and values[-1] == 0:
            values.pop()
        self._coeffs = tuple(values) or (0,)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients in ascending powers of t."""
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, power: int) -> int:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return 0

    def __call__(self, t: int) -> int:
        value = 0
        for c in reversed(self._coeffs):
            value = value * t + c
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._coeffs)})"

    def _render(self, power_fmt) -> str:
        if all(c == 0 for c in self._coeffs):
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self._coeffs[power]
            if c == 0:
                continue
            magnitude = abs(c)
            if power == 0:
                body = decimal_str(magnitude)
            else:
                body = "" if magnitude == 1 else decimal_str(magnitude)
                body += power_fmt(power)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self._render(lambda p: "t" if p == 1 else f"t^{p}")

    def latex(self) -> str:
        return self._render(lambda p: "t" if p == 1 else f"t^{{{p}}}" if p >= 10 else f"t^{p}")
