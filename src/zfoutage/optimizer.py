"""Stream-count decisions: best response, sum-capacity search, N thresholds.

The analytic objective evaluates the closed forms; the montecarlo
objective estimates each candidate with the same seed, so every
candidate sees common random numbers and comparisons between stream
counts are made on shared interference draws rather than independent
noise.  It estimates a link's candidates in one link_success_table
call, and ``workers=None`` runs it on every CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product

from .analytic import (
    NStarResult,
    link_success_prob,
    min_links_single_stream,
    success_prob_equal_k,
)
from .core import (
    DomainError,
    SearchBudgetError,
    StreamAllocation,
    SystemConfig,
    check_int,
    check_positive,
)
# Nothing here calls empirical_link_success.  The name stays bound in
# this module because perfbench's tracer test rebinds and restores it.
from .montecarlo import empirical_link_success, link_success_table  # noqa: F401

__all__ = [
    "SearchResult",
    "ThresholdResult",
    "best_response",
    "maximize_sum_capacity",
    "empirical_threshold",
]

_OBJECTIVES = ("analytic", "montecarlo")

# Allocations an exhaustive search evaluates together.  Its per-link
# columns, and the Monte Carlo tables behind them, hold this many values.
_SEARCH_CHUNK = 4096


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an allocation search.

    per_candidate_values is the full table in exhaustive mode and None
    otherwise; fixed_point reports whether coordinate descent converged
    (None in exhaustive mode).  evaluations counts objective evaluations
    (per-link capacity calls for best-response sweeps, full-allocation
    values in exhaustive mode).
    """

    best_allocation: StreamAllocation
    best_value: float
    evaluations: int
    per_candidate_values: dict[tuple[int, ...], float] | None = None
    fixed_point: bool | None = None


@dataclass(frozen=True)
class ThresholdResult:
    """Empirical single-stream threshold with the analytic bound beside it.

    ``analytic`` is None when the analytic bound N* exceeds 2**53.
    """

    threshold: int
    window: int
    analytic: NStarResult | None


def _check_objective(objective: str, trials, seed) -> None:
    if objective not in _OBJECTIVES:
        raise DomainError(
            f"objective must be one of {_OBJECTIVES}, got {objective!r}"
        )
    if objective == "montecarlo" and (trials is None or seed is None):
        raise DomainError("montecarlo objective requires trials and seed")


def _link_capacities(
    config: SystemConfig,
    allocs: list[StreamAllocation],
    link: int,
    objective: str,
    trials,
    seed,
    workers,
) -> list[float]:
    """Capacity of ``link`` under each allocation in ``allocs``, in order.

    Monte Carlo estimates come from one link_success_table call, so the
    allocations share their draws.
    """
    if objective == "analytic":
        probs = [link_success_prob(config, alloc, link) for alloc in allocs]
    else:
        table = link_success_table(config, allocs, link, trials, seed, workers=workers)
        probs = [est.prob for est in table]
    return [config.rate * alloc.streams[link] * p for alloc, p in zip(allocs, probs)]


def _sum_capacities(
    config: SystemConfig,
    allocs: list[StreamAllocation],
    objective: str,
    trials,
    seed,
    workers,
) -> list[float]:
    """Sum capacity of each allocation in ``allocs``, in order."""
    # The per-link values and their exact sum are those of an OutageReport.
    columns = [
        _link_capacities(config, allocs, link, objective, trials, seed, workers)
        for link in range(config.num_links)
    ]
    return [math.fsum(row) for row in zip(*columns)]


def _first_max(candidates, value):
    """The candidate with the largest ``value(candidate)``.

    Only a strict improvement replaces the incumbent, so ties go to the
    first candidate.
    """
    best, best_value = None, -math.inf
    for candidate in candidates:
        candidate_value = value(candidate)
        if candidate_value > best_value:
            best, best_value = candidate, candidate_value
    return best


def best_response(
    config: SystemConfig,
    alloc: StreamAllocation,
    link_index: int,
    objective: str = "analytic",
    *,
    trials: int | None = None,
    seed: int | None = None,
    workers: int | None = None,
) -> int:
    """Stream count maximizing one link's own capacity, others held fixed.

    Candidates k = 1..M are scanned in increasing order and only a
    strict improvement replaces the incumbent, so ties resolve to the
    smallest k.  The montecarlo objective reuses one seed for every
    candidate (common random numbers).
    """
    alloc.validate_against(config)
    check_int("link index", link_index, 0, config.num_links - 1)
    _check_objective(objective, trials, seed)
    streams = range(1, config.num_antennas + 1)
    candidates = [alloc.replace(link_index, k) for k in streams]
    capacities = _link_capacities(
        config, candidates, link_index, objective, trials, seed, workers
    )
    values = dict(zip(streams, capacities))
    return _first_max(values, values.get)


def maximize_sum_capacity(
    config: SystemConfig,
    mode: str = "exhaustive",
    objective: str = "analytic",
    *,
    budget: int = 1_000_000,
    max_sweeps: int = 50,
    trials: int | None = None,
    seed: int | None = None,
    workers: int | None = None,
) -> SearchResult:
    """Search for the allocation maximizing the sum outage capacity.

    exhaustive: evaluates all M^N allocations (SearchBudgetError when
    that exceeds ``budget``) and returns the full candidate table; ties
    resolve to the lexicographically smallest allocation because
    candidates are enumerated in ascending order under strict
    improvement.

    coordinate: round-robin selfish best-response sweeps from the
    all-ones start until a sweep changes nothing (fixed_point=True) or
    ``max_sweeps`` is hit (fixed_point=False).  This is a heuristic: it
    certifies a fixed point, not a global optimum.
    """
    _check_objective(objective, trials, seed)
    n, m = config.num_links, config.num_antennas

    if mode == "exhaustive":
        total = m**n
        if total > budget:
            raise SearchBudgetError(
                f"exhaustive search needs {total} evaluations, budget is {budget}"
            )
        table = {}
        candidates = product(range(1, m + 1), repeat=n)
        while chunk := [StreamAllocation(s) for s in islice(candidates, _SEARCH_CHUNK)]:
            values = _sum_capacities(config, chunk, objective, trials, seed, workers)
            table.update(zip((alloc.streams for alloc in chunk), values))
        best = _first_max(table, table.get)
        return SearchResult(
            best_allocation=StreamAllocation(best),
            best_value=table[best],
            evaluations=total,
            per_candidate_values=table,
        )

    if mode == "coordinate":
        check_int("max_sweeps", max_sweeps, 1)
        alloc = StreamAllocation.uniform(n, 1)
        evaluations = 0
        fixed_point = False
        for _ in range(max_sweeps):
            changed = False
            for link in range(n):
                k = best_response(
                    config,
                    alloc,
                    link,
                    objective,
                    trials=trials,
                    seed=seed,
                    workers=workers,
                )
                evaluations += m
                if k != alloc.streams[link]:
                    alloc = alloc.replace(link, k)
                    changed = True
            if not changed:
                fixed_point = True
                break
        [value] = _sum_capacities(config, [alloc], objective, trials, seed, workers)
        evaluations += 1
        return SearchResult(
            best_allocation=alloc,
            best_value=value,
            evaluations=evaluations,
            fixed_point=fixed_point,
        )

    raise DomainError(f"mode must be 'exhaustive' or 'coordinate', got {mode!r}")


# The closed-form N* costs the same at any N, so empirical_threshold holds
# it only to the largest N a double represents exactly, not to the scan's
# cap.
_ANALYTIC_CAP = 2**53


def empirical_threshold(
    num_antennas: int,
    beta: float,
    k_other: int = 1,
    *,
    window: int = 5,
    cap: int = 10_000,
) -> ThresholdResult:
    """Smallest N whose best response is a single stream, and stays so.

    Scans N upward from 2 and returns the first N at which
    best_response = 1 holds for N and the next ``window`` consecutive
    link counts, guarding against non-monotone crossings.  The analytic
    sufficient bound is computed alongside for comparison; ``cap`` does
    not apply to it, and it is None past 2**53.  Raises
    SearchBudgetError when no such N <= cap exists.
    """
    num_antennas = check_int("num_antennas", num_antennas, 1)
    check_positive("beta", beta)
    k_other = check_int("k_other", k_other, 1, num_antennas)
    window = check_int("window", window, 0)
    cap = check_int("cap", cap, 2)

    streams = range(1, num_antennas + 1)
    run_start = None
    for n in range(2, cap + window + 1):
        best_k = _first_max(
            streams,
            lambda k: k * success_prob_equal_k(num_antennas, n, k, k_other, beta),
        )
        if best_k == 1:
            if run_start is None:
                run_start = n
            if n - run_start >= window and run_start <= cap:
                try:
                    bound = min_links_single_stream(
                        num_antennas, beta, k_other, cap=_ANALYTIC_CAP
                    )
                except SearchBudgetError:
                    bound = None
                return ThresholdResult(run_start, window, bound)
        else:
            run_start = None
    raise SearchBudgetError(
        f"no stable single-stream threshold found up to N = {cap} "
        f"(M={num_antennas}, beta={beta}, k_other={k_other})"
    )
