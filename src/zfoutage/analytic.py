"""Closed-form success probabilities, capacities, and the link-count threshold.

One stream of link n clears the SIR threshold beta when its post-nulling
signal power S ~ Gamma(M - k_self + 1, 1) exceeds s*I, s = beta*k_self,
with I the weighted interference power: P(SIR >= beta) =
P(Poisson(s*I) <= M - k_self).  For independent interference groups
I_g ~ Gamma(lam_g, alpha_g), each Poisson(s*I_g) is a gamma mixture,
N_g ~ NegBin(lam_g, 1/(1+d_g)) with d_g = s/alpha_g, and _series_sum
returns P(sum_g N_g <= M - k_self).  It is the one formula for:

* the exact value: the c_k interferers running k streams add one group
  Gamma(c_k*k, k).  Equal interferers make one group, and the sum is the
  equal-k series sum_r d^r/(1+d)^{r+lam} Gamma(r+lam)/(r! Gamma(lam));
* the paper's approximation: one group moment matched to I, which
  carries the accuracy of that two-moment fit.

The series uses the summation range r = 0..M-k_self and exponent r+lam
that the underlying integral produces.  The "shifted" indexing (range
r = 1..M-k_self+1, exponent r+lam-1) is not implemented here; the tests
build it in their oracle module and show that it misses the integral.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    DomainError,
    NumericalError,
    OutageReport,
    SearchBudgetError,
    StreamAllocation,
    SystemConfig,
    check_int,
    check_positive,
    clamp_probability,
)

__all__ = [
    "success_prob_equal_k",
    "success_prob_general",
    "link_success_prob",
    "multiset_sum_capacities",
    "NStarResult",
    "min_links_single_stream",
    "sum_capacity_analytic",
]


def _series_sum(
    num_extra: int, s: float, groups: Sequence[tuple[float, float]]
) -> float:
    """P(sum_g N_g <= num_extra) for (lam_g, alpha_g) groups, in their order.

    Terms go through math.lgamma so that lam of order 10^3 neither
    overflows nor loses the factorial ratios.  A d = s/alpha that
    underflowed to 0 leaves only the r = 0 term, (1 + 0)^-lam = 1; one
    that overflowed leaves none.  Each further group is convolved in up
    to num_extra, every entry a math.fsum of probabilities.
    """
    dist: list[float] = []
    for lam, alpha in groups:
        d = s / alpha
        if d == 0.0:
            terms = [1.0] + [0.0] * num_extra
        elif d == math.inf:
            terms = [0.0] * (num_extra + 1)
        else:
            log_d = math.log(d)
            log_1pd = math.log1p(d)
            lg_lam = math.lgamma(lam)
            terms = [
                math.exp(
                    r * log_d
                    - (r + lam) * log_1pd
                    + math.lgamma(r + lam)
                    - math.lgamma(r + 1.0)
                    - lg_lam
                )
                for r in range(num_extra + 1)
            ]
        if dist:
            terms = [
                math.fsum(dist[j] * terms[r - j] for j in range(r + 1))
                for r in range(num_extra + 1)
            ]
        dist = terms
    return math.fsum(dist)


def _success(
    num_antennas: int, k_self: int, beta: float, groups: Sequence[tuple[float, float]]
) -> float:
    """P(SIR >= beta) for one stream of k_self against ``groups``, clamped."""
    return clamp_probability(_series_sum(num_antennas - k_self, beta * k_self, groups))


def _groups(others: Mapping[int, int]) -> list[tuple[float, int]]:
    """Interference groups of the other links' stream counts {k: c_k}.

    The c_k > 0 other links that run k streams form the group
    Gamma(c_k*k, k) of the interference, taken in ascending k.
    """
    return [(float(c * k), k) for k, c in sorted(others.items()) if c]


def _best_response(
    num_antennas: int, beta: float, others: Mapping[int, int], rate: float
) -> int:
    """First k = 1..M of largest rate * k * _success against ``others``' groups.

    max keeps the first of equal values, so ties go to the smallest k.
    """
    groups = _groups(others)
    return max(
        range(1, num_antennas + 1),
        key=lambda k: rate * k * _success(num_antennas, k, beta, groups),
    )


def success_prob_equal_k(
    num_antennas: int,
    num_links: int,
    k_self: int,
    k_other: int,
    beta: float,
) -> float:
    """P(SIR >= beta) for one stream when every interferer runs k_other streams.

    The interference k_other * I is a sum of (N-1)*k_other unit
    exponentials, so the result is exact (no moment matching).  Raises
    NumericalError when that count is too large for the series' floats.
    """
    num_antennas = check_int("num_antennas", num_antennas, 1)
    num_links = check_int("num_links", num_links, 2)
    k_self = check_int("k_self", k_self, 1, num_antennas)
    k_other = check_int("k_other", k_other, 1, num_antennas)
    check_positive("beta", beta)
    try:
        return _success(num_antennas, k_self, beta, _groups({k_other: num_links - 1}))
    except OverflowError:
        raise NumericalError(
            "interfering stream count (N-1)*k_other overflows the largest float "
            "in the series"
        ) from None


# Relative gap between a link count's two largest ranked capacities at or
# below which _equal_k_best_responses leaves that link count to the exact
# kernel.
_RANK_REL_GAP = 1e-9

# The threshold scan ranks link counts 64 at a time at first, then twice as
# many each time up to this many, so its arrays hold at most M times this
# many values whatever the cap or window.
_SCAN_CHUNK = 1024


def _equal_k_best_responses(num_antennas: int, beta: float, k_other: int, last: int):
    """Best response of one link at N = 2..last, every other link at k_other.

    Each chunk of N is ranked first.  The equal-k series of each
    (k_self, N) is summed by its term recurrence on an (M, chunk) array:
    with lam = (N-1)*k_other and d = beta*k_self/k_other,

        t_0 = exp(-lam * log1p(d)),
        t_{r+1} = t_r * (r+lam)/(r+1) * d/(1+d)   for r < M - k_self,

    and the capacity is k_self * sum_r t_r.  The ranked capacities are
    never printed.  An N is a close call when its two largest lie within
    a relative _RANK_REL_GAP, or when some candidate's t_0 is below the
    smallest normal float; _best_response decides it at rate 1.  Where
    the gap is wider, both sums are accurate far inside it, so the ranked
    k_self is the exact kernel's too.
    """
    d = [beta * k / k_other for k in range(1, num_antennas + 1)]
    log1p_d = np.array([math.log1p(x) for x in d])
    # d/(1+d); a d that overflowed to inf has t_0 = 0, and 1 keeps its
    # terms 0 rather than nan.
    ratio = np.array([x / (1.0 + x) if x < math.inf else 1.0 for x in d])[:, None]
    streams = np.arange(1.0, num_antennas + 1.0)[:, None]
    first, size = 2, min(64, _SCAN_CHUNK)
    while first <= last:
        count = min(size, last - first + 1)
        lam = (np.arange(first, first + count) - 1.0) * k_other
        term = np.exp(np.multiply.outer(-log1p_d, lam))
        close = (term < sys.float_info.min).any(axis=0)
        total = term.copy()
        for r in range(num_antennas - 1):
            rows = num_antennas - 1 - r  # the k_self that have a term r + 1
            term = term[:rows] * ratio[:rows]
            term *= (r + lam) / (r + 1)
            total[:rows] += term
        capacity = total * streams
        if num_antennas > 1:
            second, top = np.partition(capacity, num_antennas - 2, axis=0)[-2:]
            close |= top - second <= _RANK_REL_GAP * top
        ranked = (capacity.argmax(axis=0) + 1).tolist()
        for n, k, exact in zip(range(first, first + count), ranked, close.tolist()):
            if exact:
                k = _best_response(num_antennas, beta, {k_other: n - 1}, 1.0)
            yield k
        first += count
        size = min(2 * size, _SCAN_CHUNK)


def success_prob_general(
    num_antennas: int,
    k_self: int,
    k_others: Sequence[int],
    beta: float,
) -> float:
    """P(SIR >= beta) for one stream against interferers with arbitrary streams.

    The interference I = sum_m (1/k_m) sum_{l=1}^{k_m} I_{l,m} of n
    interferers is a weighted sum of unit exponentials, k_m copies of
    weight 1/k_m per interferer, so E[I] = n and Var[I] = sum_m 1/k_m.
    Its density is replaced by the gamma law with those two moments,

        shape = n^2 / sum_m 1/k_m,    rate = n / sum_m 1/k_m,

    each rounded once from the exact rational sum, then summed as the
    equal-k series with d = beta*k_self/rate and a non-integer shape.
    When every k_m equals k the fit is the exact law Gamma(n*k, k), bit for
    bit success_prob_equal_k's value.  Against link_success_prob, on every
    multiset of 2-6 interferers with two or more distinct counts, every
    k_self and beta in {0.25, 1, 4}, it is off by at most 0.0238 for
    M <= 6 and 0.0317 for M <= 8 (M=8, k_self=2, others (1, 8), beta=4).
    Raises NumericalError when the shape is too large for the series' floats.
    """
    num_antennas = check_int("num_antennas", num_antennas, 1)
    k_self = check_int("k_self", k_self, 1, num_antennas)
    others = [check_int("k_others entry", k, 1, num_antennas) for k in k_others]
    if not others:
        raise DomainError("k_others must name at least one interferer")
    check_positive("beta", beta)

    n = len(others)
    lcm = math.lcm(*others)
    inv = sum(lcm // k for k in others)  # lcm * sum_m 1/k_m
    try:
        shape, rate = n * n * lcm / inv, n * lcm / inv
        return _success(num_antennas, k_self, beta, [(shape, rate)])
    except OverflowError:
        raise NumericalError(
            f"gamma fit shape n^2 / sum(1/k_m) overflows the largest float in "
            f"the series (n={n})"
        ) from None


@dataclass(frozen=True)
class NStarResult:
    """Smallest link count past which single-stream transmission dominates.

    binding_p is the per-link stream count whose inequality sets the
    threshold: of the counts first satisfied at n_star, the one with the
    smallest margin there (the smallest such p on a tie).
    """

    n_star: int
    binding_p: int


def min_links_single_stream(
    num_antennas: int,
    beta: float,
    k_other: int = 1,
    *,
    cap: int = 1_000_000,
) -> NStarResult:
    """Smallest N >= 2 making the capacity ratio chain favor one stream.

    For each candidate stream count p = 1..M the sufficient condition is

        ((k + beta*(p+1)) / (k + beta*p))^{(N-1)k - 1}
            * (beta / (k + beta))^{M - p + 1}  >=  (p+1)/p

    with k = k_other.  In logs it reads ((N-1)k - 2) * slope_p >= offset_p
    with

        slope_p  = log((k + beta*(p+1)) / (k + beta*p))
                 = log1p(1 / (p + k/beta)),
        offset_p = log((p+1)/p) - slope_p + (M - p + 1) * log1p(k/beta)
                 = log1p(k / (p * (k + beta*(p+1)))) + (M - p + 1) * log1p(k/beta).

    Where k + beta*(p+1) overflows, the log1p it feeds is below 1e-308
    and drops to 0.  offset_p is never formed as a difference, so the
    sign stays right even where beta dwarfs k and slope_p rounds to
    log((p+1)/p).  With slope_p > 0 the condition holds from

        N_p = max(2, ceil(1 + (2 + offset_p/slope_p) / k))

    on.  Rounding can put that estimate one off, so N_p is then moved a
    step at a time until the predicate itself holds at N_p and fails at
    N_p - 1 (or N_p = 2).  The threshold is N* = max_p N_p.  Raises
    SearchBudgetError when N* exceeds ``cap``.
    """
    num_antennas = check_int("num_antennas", num_antennas, 1)
    check_positive("beta", beta)
    k_other = check_int("k_other", k_other, 1, num_antennas)
    cap = check_int("cap", cap, 2)

    k = float(k_other)
    spread = math.log1p(k / beta)  # -log(beta / (k + beta))
    slopes = []
    offsets = []
    for p in range(1, num_antennas + 1):
        slopes.append(math.log1p(1.0 / (p + k / beta)))
        gap = math.log1p(k / (p * (k + beta * (p + 1))))
        offsets.append(gap + (num_antennas - p + 1) * spread)

    def margin(idx: int, n: int) -> float:
        return ((n - 1) * k - 2.0) * slopes[idx] - offsets[idx]

    firsts = []  # N_p for p = idx + 1
    for idx in range(num_antennas):
        # slope_p is 0 when beta vanishes against k in floating point; the
        # left side then never grows and no N satisfies the condition.
        if slopes[idx] > 0.0:
            estimate = 1.0 + (2.0 + offsets[idx] / slopes[idx]) / k
        else:
            estimate = math.inf
        if not estimate <= cap + 2:
            firsts.append(cap + 1)  # past the budget: no need to pin it down
            continue
        n = max(2, math.ceil(estimate))
        while n > 2 and margin(idx, n - 1) >= 0.0:
            n -= 1
        while margin(idx, n) < 0.0:
            n += 1
        firsts.append(n)

    n_star = max(firsts)
    if n_star > cap:
        raise SearchBudgetError(
            f"no threshold found up to N = {cap} "
            f"(M={num_antennas}, beta={beta}, k_other={k_other})"
        )
    binding = min(
        (idx for idx in range(num_antennas) if firsts[idx] == n_star),
        key=lambda idx: margin(idx, n_star),
    )
    return NStarResult(n_star=n_star, binding_p=binding + 1)


def link_success_prob(
    config: SystemConfig, alloc: StreamAllocation, link: int
) -> float:
    """Exact P(SIR >= beta) for one link of an allocation, by _groups."""
    alloc.validate_against(config)
    groups = _groups(Counter(alloc.others(link)))  # checks the link index first
    k_self = alloc.streams[link]
    return _success(config.num_antennas, k_self, config.sir_threshold, groups)


def _success_by_count(
    config: SystemConfig, alloc: StreamAllocation
) -> dict[int, float]:
    """link_success_prob of each distinct count k, against the other counts."""
    alloc.validate_against(config)
    counts, prob = Counter(alloc.streams), {}
    for k in counts:  # first-occurrence order
        counts[k] -= 1
        groups = _groups(counts)
        prob[k] = _success(config.num_antennas, k, config.sir_threshold, groups)
        counts[k] += 1
    return prob


def multiset_sum_capacities(
    config: SystemConfig, multisets: Iterable[Sequence[int]]
) -> list[float]:
    """Sum capacity of each multiset of the links' stream counts, in order.

    A multiset is worth the same under every order of its links, so each
    value is bit for bit the sum_capacity_analytic value of every
    allocation that orders the multiset.  Every multiset is validated as
    an allocation.
    """
    values = []
    for multiset in multisets:
        alloc = StreamAllocation(multiset)
        prob = _success_by_count(config, alloc)
        values.append(math.fsum(config.rate * k * prob[k] for k in alloc.streams))
    return values


def sum_capacity_analytic(
    config: SystemConfig, alloc: StreamAllocation
) -> OutageReport:
    """Per-link success probabilities and capacities for one allocation."""
    prob = _success_by_count(config, alloc)
    return OutageReport.from_success(config, alloc, [prob[k] for k in alloc.streams])
