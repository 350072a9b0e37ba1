"""Exact characteristic polynomials and chamber counts for the pair-sum
hyperplane arrangement x_i+x_j=1 (i<j), x_k=0, x_l=1 in R^n.

The generating-function pipeline lives in :mod:`pairsum.central` and
:mod:`pairsum.charpoly`; independent brute-force oracles in
:mod:`pairsum.oracle`; previously published reference values in
:mod:`pairsum.published`; the command-line interface in :mod:`pairsum.cli`.
Their polynomial type, :mod:`pairsum.polynomial`, imports no other submodule,
so neither the oracles nor the published values load any pipeline code.
:class:`Mode` is defined here, so the CLI names the modes without loading the
pipeline, and :mod:`pairsum.central` re-exports it.

``import pairsum`` loads none of them.  Each public name below is resolved
on first access (PEP 562), importing only the submodule that defines it, so
``from pairsum import chi`` never loads the oracles and a CLI command loads
only the code it runs.  The package exports the documented API only; every
other name is imported from its submodule (``from pairsum.central import
gamma``).
"""

import enum
import importlib

__version__ = "0.1.0"
# oracle.enumerate_graphs' default guard, here so the CLI reads it without loading the oracles
GRAPH_CENSUS_LIMIT = 6


class Mode(str, enum.Enum):
    """Type-1 variant: the log of the published closed form, or the
    corrected unique-decomposition form (the default everywhere)."""

    PAPER = "paper"
    CORRECTED = "corrected"


_SUBMODULE_NAMES = {
    "charpoly": ("ChamberCounts", "chambers", "chi", "chi_table"),
    "oracle": (
        "central_census", "enumerate_graphs", "finite_field_count",
        "interpolate_counts", "interpolated_chi", "whitney_chi",
    ),
    "polynomial": ("IntPolynomial",),
}
_SUBMODULE_OF = {
    name: module for module, names in _SUBMODULE_NAMES.items() for name in names
}

__all__ = sorted(["Mode", "__version__", *_SUBMODULE_OF])


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
