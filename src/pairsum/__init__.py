"""Exact characteristic polynomials and chamber counts for the pair-sum
hyperplane arrangement x_i+x_j=1 (i<j), x_k=0, x_l=1 in R^n.

The generating-function pipeline lives in :mod:`pairsum.central` and
:mod:`pairsum.charpoly`; independent brute-force oracles in
:mod:`pairsum.oracle`; previously published reference values in
:mod:`pairsum.published`; the command-line interface in :mod:`pairsum.cli`.

``import pairsum`` loads none of them.  Each public name below is resolved
on first access (PEP 562), importing only the submodule that defines it, so
``from pairsum import chi`` never loads the oracles and a CLI command loads
only the code it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "central": (
        "GammaCoefficients", "Mode", "extract_counts", "gamma0", "gamma1",
        "gamma2", "gamma3", "gamma3_connected", "gamma_product",
    ),
    "charpoly": (
        "ChamberCounts", "IntPolynomial", "chambers", "chi", "chi_table",
        "hyperplane_count", "signs_alternate",
    ),
    "graphcounts": (
        "ConsistencyError", "CountTable", "bicolored_series",
        "bipartite_no_isolated_series", "connected_bipartite_counts",
        "connected_bipartite_series", "connected_graph_counts", "default_caps",
        "graphs_no_isolated_series",
    ),
    "oracle": (
        "GraphCensus", "Hyperplane", "build_arrangement", "central_census",
        "default_verification_primes", "enumerate_graphs", "finite_field_count",
        "interpolate_counts", "interpolated_chi", "rank_and_centrality",
        "whitney_chi",
    ),
    "series": ("TruncatedSeries", "TruncationCaps"),
}
_SUBMODULE_OF = {
    name: module for module, names in _SUBMODULE_NAMES.items() for name in names
}

__all__ = sorted(["__version__", *_SUBMODULE_OF])


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
