"""Exact characteristic polynomials and chamber counts for the pair-sum
hyperplane arrangement x_i+x_j=1 (i<j), x_k=0, x_l=1 in R^n.

The generating-function pipeline lives in :mod:`pairsum.central` and
:mod:`pairsum.charpoly`; independent brute-force oracles in
:mod:`pairsum.oracle`; previously published reference values in
:mod:`pairsum.published`; the command-line interface in :mod:`pairsum.cli`.
"""

from .central import (
    GammaCoefficients,
    Mode,
    extract_counts,
    gamma0,
    gamma1,
    gamma2,
    gamma3,
    gamma3_connected,
    gamma_product,
)
from .charpoly import (
    ChamberCounts,
    IntPolynomial,
    chambers,
    chi,
    chi_table,
    hyperplane_count,
    signs_alternate,
)
from .graphcounts import (
    ConsistencyError,
    CountTable,
    bicolored_series,
    bipartite_no_isolated_series,
    connected_bipartite_counts,
    connected_bipartite_series,
    connected_graph_counts,
    default_caps,
    graphs_no_isolated_series,
)
from .oracle import (
    GraphCensus,
    Hyperplane,
    build_arrangement,
    central_census,
    default_verification_primes,
    enumerate_graphs,
    finite_field_count,
    interpolate_counts,
    interpolated_chi,
    rank_and_centrality,
    whitney_chi,
)
from .series import TruncatedSeries, TruncationCaps

__version__ = "0.1.0"

__all__ = [
    "ChamberCounts",
    "ConsistencyError",
    "CountTable",
    "GammaCoefficients",
    "GraphCensus",
    "Hyperplane",
    "IntPolynomial",
    "Mode",
    "TruncatedSeries",
    "TruncationCaps",
    "__version__",
    "bicolored_series",
    "bipartite_no_isolated_series",
    "build_arrangement",
    "central_census",
    "chambers",
    "chi",
    "chi_table",
    "connected_bipartite_counts",
    "connected_bipartite_series",
    "connected_graph_counts",
    "default_caps",
    "default_verification_primes",
    "enumerate_graphs",
    "extract_counts",
    "finite_field_count",
    "gamma0",
    "gamma1",
    "gamma2",
    "gamma3",
    "gamma3_connected",
    "gamma_product",
    "graphs_no_isolated_series",
    "hyperplane_count",
    "interpolate_counts",
    "interpolated_chi",
    "rank_and_centrality",
    "signs_alternate",
    "whitney_chi",
]
