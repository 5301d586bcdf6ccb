"""Outage capacity of zero-forcing MIMO interference links.

N transmitter-receiver pairs share a band, each node carries M
antennas, and link n spatially multiplexes k_n streams behind a
zero-forcing receiver in the interference-limited regime.  The package
computes per-stream success probabilities P(SIR >= beta) and the outage
capacities they imply, three independent ways:

* closed forms (exact for equal interferer stream counts, moment-matched
  for heterogeneous ones),
* full-channel Monte Carlo over complex Gaussian matrices,
* a direct sampler of the known signal/interference marginals.

On top sit the decision tools: selfish best response per link, sum
capacity search over allocations, and the link-count thresholds past
which a single stream per link is the right choice.
"""

from .core import (
    CLAMP_TOL,
    DomainError,
    GammaParams,
    NumericalError,
    OutageReport,
    SearchBudgetError,
    StreamAllocation,
    SystemConfig,
    ZfOutageError,
    clamp_count,
    clamp_probability,
    reset_clamp_count,
)
from .analytic import (
    NStarResult,
    gamma_approx_params,
    link_success_prob,
    min_links_single_stream,
    success_prob_equal_k,
    success_prob_general,
    sum_capacity_analytic,
)
from .montecarlo import (
    MonteCarloEstimate,
    direct_distribution_outage,
    direct_sir_samples,
    empirical_link_success,
    empirical_outage,
    link_sir_samples,
    link_success_sweep,
    link_success_table,
)
from .optimizer import (
    SearchResult,
    ThresholdResult,
    best_response,
    empirical_threshold,
    maximize_sum_capacity,
)

__version__ = "0.1.0"

__all__ = [
    "CLAMP_TOL",
    "DomainError",
    "GammaParams",
    "MonteCarloEstimate",
    "NStarResult",
    "NumericalError",
    "OutageReport",
    "SearchBudgetError",
    "SearchResult",
    "StreamAllocation",
    "SystemConfig",
    "ThresholdResult",
    "ZfOutageError",
    "best_response",
    "clamp_count",
    "clamp_probability",
    "direct_distribution_outage",
    "direct_sir_samples",
    "empirical_link_success",
    "empirical_outage",
    "empirical_threshold",
    "gamma_approx_params",
    "link_sir_samples",
    "link_success_prob",
    "link_success_sweep",
    "link_success_table",
    "maximize_sum_capacity",
    "min_links_single_stream",
    "reset_clamp_count",
    "success_prob_equal_k",
    "success_prob_general",
    "sum_capacity_analytic",
]
