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
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, islice, product

from . import analytic
from .analytic import (
    NStarResult,
    min_links_single_stream,
    multiset_sum_capacities,
    sum_capacity_analytic,
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
from .montecarlo import empirical_link_success  # noqa: F401
from .montecarlo import empirical_outage, link_success_table

__all__ = [
    "SearchResult",
    "ThresholdResult",
    "best_response",
    "maximize_sum_capacity",
    "empirical_threshold",
]

_OBJECTIVES = ("analytic", "montecarlo")

# Allocations an exhaustive Monte Carlo search evaluates together.  Its
# per-link columns, and the tables behind them, hold this many values.
_SEARCH_CHUNK = 4096


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an allocation search.

    per_candidate_values is the full table in exhaustive mode and None
    otherwise; fixed_point reports whether coordinate descent converged
    (None in exhaustive mode).  evaluations counts objective values, not
    closed-form or Monte Carlo terms: M per best-response call plus the
    final value in coordinate mode, and the M^N allocation values in
    exhaustive mode.  The analytic objective evaluates each multiset of
    stream counts once and copies the value to each of its orderings: an
    8x4 search makes 480 closed forms for its 65,536 allocations.
    Coordinate mode's best_value is the sum_capacity of
    sum_capacity_analytic or empirical_outage for best_allocation, the
    number ``zfoutage capacity`` prints for it.
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


def _link_capacities(config: SystemConfig, allocs, link: int, trials, seed, workers):
    """Monte Carlo capacity of ``link`` under each of ``allocs``, in order.

    The estimates come from one link_success_table call, so the
    allocations share their draws.
    """
    table = link_success_table(config, allocs, link, trials, seed, workers=workers)
    return [config.rate * a.streams[link] * est.prob for a, est in zip(allocs, table)]


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

    Candidates k = 1..M are taken in increasing order and max keeps the
    first of equal values, so ties resolve to the smallest k.  The
    analytic objective builds no candidate allocation; the montecarlo
    objective reuses one seed for every candidate (common random
    numbers).
    """
    alloc.validate_against(config)
    check_int("link index", link_index, 0, config.num_links - 1)
    _check_objective(objective, trials, seed)
    if objective == "analytic":
        return analytic._best_response(
            config.num_antennas,
            config.sir_threshold,
            Counter(alloc.others(link_index)),
            config.rate,
        )
    streams = range(1, config.num_antennas + 1)
    candidates = [alloc.replace(link_index, k) for k in streams]
    capacities = _link_capacities(config, candidates, link_index, trials, seed, workers)
    values = dict(zip(streams, capacities))
    return max(values, key=values.get)


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
    candidates are enumerated in ascending order and max keeps the first
    of equal values.

    coordinate: round-robin selfish best-response sweeps from the
    all-ones start until a sweep changes nothing (fixed_point=True) or
    ``max_sweeps`` is hit (fixed_point=False).  This is a heuristic: it
    certifies a fixed point, not a global optimum.
    """
    budget = check_int("budget", budget, 1)
    max_sweeps = check_int("max_sweeps", max_sweeps, 1)
    _check_objective(objective, trials, seed)
    n, m = config.num_links, config.num_antennas

    if mode == "exhaustive":
        total = m**n
        if total > budget:
            raise SearchBudgetError(
                f"exhaustive search needs {total} evaluations, budget is {budget}"
            )
        streams = range(1, m + 1)
        candidates = product(streams, repeat=n)
        if objective == "analytic":
            multisets = list(combinations_with_replacement(streams, n))
            values = dict(zip(multisets, multiset_sum_capacities(config, multisets)))
            table = {s: values[tuple(sorted(s))] for s in candidates}
        else:
            table = {}
            while chunk := list(islice(candidates, _SEARCH_CHUNK)):
                allocs = list(map(StreamAllocation, chunk))
                # Each row is summed as an OutageReport sums its links.
                columns = [
                    _link_capacities(config, allocs, link, trials, seed, workers)
                    for link in range(n)
                ]
                table.update(zip(chunk, map(math.fsum, zip(*columns))))
        best = max(table, key=table.get)
        return SearchResult(
            best_allocation=StreamAllocation(best),
            best_value=table[best],
            evaluations=total,
            per_candidate_values=table,
        )

    if mode == "coordinate":
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
        if objective == "analytic":
            report = sum_capacity_analytic(config, alloc)
        else:
            report = empirical_outage(config, alloc, trials, seed, workers=workers)
        evaluations += 1
        return SearchResult(
            best_allocation=alloc,
            best_value=report.sum_capacity,
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
    link counts, guarding against non-monotone crossings.  A vectorized
    series ranks each N's candidates and the exact kernel decides every
    close call, so the result is the exact kernel's.  The analytic
    sufficient bound is computed alongside for comparison; ``cap`` does
    not apply to it, and it is None past 2**53.  Raises
    SearchBudgetError when no such N <= cap exists.
    """
    num_antennas = check_int("num_antennas", num_antennas, 1)
    check_positive("beta", beta)
    k_other = check_int("k_other", k_other, 1, num_antennas)
    window = check_int("window", window, 0)
    cap = check_int("cap", cap, 2)

    best_responses = analytic._equal_k_best_responses(
        num_antennas, beta, k_other, cap + window
    )
    run_start = None
    for n, best_k in enumerate(best_responses, start=2):
        if best_k == 1:
            if run_start is None:
                run_start = n
            if n - run_start >= window:
                try:
                    bound = min_links_single_stream(
                        num_antennas, beta, k_other, cap=_ANALYTIC_CAP
                    )
                except SearchBudgetError:
                    bound = None
                return ThresholdResult(run_start, window, bound)
        elif n >= cap:
            break  # every later run would start past the cap
        else:
            run_start = None
    raise SearchBudgetError(
        f"no stable single-stream threshold found up to N = {cap} "
        f"(M={num_antennas}, beta={beta}, k_other={k_other})"
    )
