"""Empirical engine: batched channel sampling, ZF nulling, SIR statistics.

Two independent samplers are provided on purpose.  The full-channel path
draws every matrix entry, builds the nulling vector by linear algebra,
and reads the SIR off the definition; the direct path draws the known
marginals (signal ~ Gamma(M-k+1, 1), each interference summand an
Exp(1) scaled by 1/k_m) and skips the matrices entirely.  Agreement
between the two is one of the package's standing cross-checks.

Determinism contract.  Trials are split into fixed blocks of
BLOCK_TRIALS; block b of a given purpose draws from an own counter-keyed
stream, Philox(key=seed, counter=[0, 0, b, purpose<<32 | unit]).  Blocks
are merged in index order, so results depend only on (arguments, seed),
never on the worker count.  Parallel blocks run on threads of one shared
pool: numpy's generators and LAPACK release the GIL, and no block shares
state with another.  Within a block the draw order is fixed:
interference entries first, then the self matrix.  Keeping the
interference draws first means estimates for different k_self candidates
under one seed share their interference realizations, which is what
makes common-random-number comparisons between stream counts tight.

Shared draws.  The first interference draw of a block depends only on
(seed, link, block) and the interference column count k_int, the sum
of the other links' streams.  link_success_table therefore draws it
once per (link, k_int, block) for all of its candidates, and restores
the stream state just after it before each k_self's self draws and
resamples.  Every candidate then sees exactly the draws of its own
empirical_link_success call, so its estimate is bitwise the same.

A full-channel trial for link n touches only the matrices arriving at
receiver n, and those are disjoint from (and independent of) every other
receiver's, so per-link simulation on separate substreams draws from the
same joint distribution as materializing the whole N x N grid per trial.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Sequence

import numpy as np
# numpy loads numpy.random on first use.  Loading it here, at import,
# keeps that cost out of the first Monte Carlo call.
import numpy.random

from .core import (
    DomainError,
    NumericalError,
    OutageReport,
    StreamAllocation,
    SystemConfig,
    check_int,
    check_positive,
)

__all__ = [
    "BLOCK_TRIALS",
    "MonteCarloEstimate",
    "empirical_link_success",
    "link_success_table",
    "link_success_sweep",
    "link_sir_samples",
    "empirical_outage",
    "direct_sir_samples",
    "direct_distribution_outage",
]

BLOCK_TRIALS = 8192

# Relative QR-diagonal floor below which a draw is treated as degenerate
# and resampled.
_RANK_TOL = 1e-10

# Most candidates one block task of link_success_table covers, so that a
# task's arrays stay within a few MB however many candidates a table has.
_TASK_CANDIDATES = 64

_PURPOSE_LINK = 1
_PURPOSE_DIRECT = 2

_SQRT_HALF = math.sqrt(0.5)


def _block_rng(seed: int, purpose: int, unit: int, block: int) -> np.random.Generator:
    counter = [0, 0, block, (purpose << 32) | unit]
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """CN(0,1) entries: unit-variance circularly symmetric Gaussians."""
    z = rng.standard_normal(size=shape + (2,))
    z *= _SQRT_HALF  # in place: no second array of the block's size
    return z.view(np.complex128)[..., 0]


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Success-probability estimate with its binomial standard error."""

    prob: float
    std_error: float
    trials: int
    resampled: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.prob <= 1.0):
            raise DomainError(f"estimate {self.prob!r} outside [0, 1]")
        check_int("trials", self.trials, 1)


def _column_weights(others: Sequence[int]) -> np.ndarray:
    """One weight per interference column: 1/k for each of link m's k columns."""
    return np.concatenate([np.full(k, 1.0 / k) for k in others])


def _link_block(
    num_antennas: int,
    link: int,
    k_int: int,
    candidates: Sequence[tuple[int, np.ndarray]],
    seed: int,
    block: int,
    size: int,
):
    """Simulate `size` stream-1 trials of one link per candidate, on one block stream.

    A candidate is (k_self, column weights), its weights of length k_int.
    The first interference draw is made once.  Each k_self restarts the
    stream just after it, so its self draws and resamples are those of a
    call with that k_self alone.  Candidates with the same k_self share
    every draw and differ only in their weighted interference sum.

    Yields (candidate index, signal, interference, resampled) for every
    candidate, one k_self at a time, so a caller that reduces each as it
    comes holds one k_self's arrays at once.
    """
    rng = _block_rng(seed, _PURPOSE_LINK, link, block)
    h_int = _complex_normal(rng, (size, num_antennas, k_int))
    after_h_int = rng.bit_generator.state
    for k_self in dict.fromkeys(k for k, _ in candidates):
        mine = [i for i, (k, _) in enumerate(candidates) if k == k_self]
        rng.bit_generator.state = after_h_int
        signal, interference, resampled = _zf_trials(
            rng, h_int, k_self, [candidates[i][1] for i in mine]
        )
        for i, arr in zip(mine, interference):
            yield i, signal, arr, resampled


def _zf_trials(rng: np.random.Generator, h_int: np.ndarray, k_self: int, weights):
    """One k_self's trials on the interference draw ``h_int``, rng just after it.

    Returns (signal, [interference per weight vector], resampled).  A
    degenerate self draw is resampled together with fresh interference.
    The block's largest arrays live here, so they are freed before the
    next k_self starts.
    """
    size, m, k_int = h_int.shape
    signal = np.empty(size)
    interference = [np.empty(size) for _ in weights]
    pending = np.arange(size)
    resampled = 0
    while pending.size:
        b = pending.size
        if h_int is None:
            h_int = _complex_normal(rng, (b, m, k_int))
        h_self = _complex_normal(rng, (b, m, k_self))
        target = h_self[:, :, 0]
        if k_self == 1:
            s = np.einsum("bm,bm->b", target, target.conj()).real
            bad = s == 0.0
            residual = target
        else:
            q_mat, r_mat = np.linalg.qr(h_self[:, :, 1:])
            diag = np.abs(np.diagonal(r_mat, axis1=1, axis2=2))
            dmax = diag.max(axis=1)
            bad = (dmax == 0.0) | (diag.min(axis=1) < _RANK_TOL * dmax)
            coeff = np.einsum("bmr,bm->br", q_mat.conj(), target)
            residual = target - np.einsum("bmr,br->bm", q_mat, coeff)
            s = np.einsum("bm,bm->b", residual, residual.conj()).real
            bad |= s == 0.0
        good = ~bad
        rows = pending[good]
        norm = np.sqrt(s[good])
        q = residual[good].conj() / norm[:, None]
        z = np.einsum("bm,bmk->bk", q, h_int[good])
        powers = (z.real * z.real + z.imag * z.imag)
        signal[rows] = s[good]
        for arr, w in zip(interference, weights):
            arr[rows] = powers @ w
        pending = pending[bad]
        resampled += int(bad.sum())
        h_int = None
    return signal, interference, resampled


def _hits(signal, interference, k_self: int, beta: float) -> int:
    """Trials whose stream-1 SIR, (signal / k_self) / interference, clears beta."""
    return int(np.count_nonzero(signal / k_self >= beta * interference))


def _link_block_hits(num_antennas, link, k_int, candidates, betas, seed, block, size):
    """_link_block reduced to ([hits per threshold], resampled) per candidate."""
    out = [None] * len(candidates)
    for i, signal, interference, resampled in _link_block(
        num_antennas, link, k_int, candidates, seed, block, size
    ):
        k_self = candidates[i][0]
        out[i] = ([_hits(signal, interference, k_self, b) for b in betas], resampled)
    return out


def _link_block_sir(num_antennas, link, k_int, candidates, seed, block, size):
    """(SIR samples, resampled) of _link_block's one candidate."""
    [(_, signal, interference, resampled)] = _link_block(
        num_antennas, link, k_int, candidates, seed, block, size
    )
    return (signal / candidates[0][0]) / interference, resampled


def _direct_block(
    num_antennas: int,
    k_self: int,
    k_others: tuple[int, ...],
    seed: int,
    block: int,
    size: int,
):
    """Marginal-model trials: signal and interference drawn directly."""
    rng = _block_rng(seed, _PURPOSE_DIRECT, 0, block)
    interference = np.zeros(size)
    for k in k_others:
        interference += rng.gamma(shape=float(k), scale=1.0, size=size) / k
    signal = rng.gamma(shape=float(num_antennas - k_self + 1), scale=1.0, size=size)
    return signal, interference


def _block_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, BLOCK_TRIALS)
    sizes = [BLOCK_TRIALS] * full
    if rest:
        sizes.append(rest)
    return sizes


# One thread pool for the whole process, started by the first parallel
# call.  Its threads are marked so that a block running on one never
# submits to the pool it runs on.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_pool_thread = threading.local()


def _mark_pool_thread() -> None:
    _pool_thread.active = True


def _shared_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=os.cpu_count() or 1,
                thread_name_prefix="zfoutage-mc",
                initializer=_mark_pool_thread,
            )
        return _pool


def _forget_pool() -> None:
    # A forked child has none of the parent's threads; it starts its own.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _lane(task_fn, args_list, start: int, step: int) -> list:
    """Blocks start, start + step, ... of a call, in order."""
    return [task_fn(*args) for args in args_list[start::step]]


def _run_tasks(task_fn, args_list, workers: int) -> list:
    """Run task_fn on every argument tuple; results in block order.

    The call uses min(workers, blocks, CPUs) lanes.  The caller runs
    lane 0 itself and the shared pool runs the others.
    """
    # More lanes than blocks or CPUs only add hand-off cost.
    lanes = min(workers, len(args_list), os.cpu_count() or 1)
    if lanes <= 1 or getattr(_pool_thread, "active", False):
        return _lane(task_fn, args_list, 0, 1)
    pool = _shared_pool()
    futures = [
        pool.submit(_lane, task_fn, args_list, i, lanes) for i in range(1, lanes)
    ]
    try:
        first = _lane(task_fn, args_list, 0, lanes)
    finally:
        wait(futures)
    results = [None] * len(args_list)
    results[0::lanes] = first
    for i, future in enumerate(futures, start=1):
        results[i::lanes] = future.result()
    return results


def _check_mc_args(trials, seed, workers) -> tuple[int, int, int]:
    """(trials, seed, workers) as ints; workers=None means every CPU."""
    return (
        check_int("trials", trials, 1),
        check_int("seed", seed, 0, 2**128 - 1),  # Philox takes a 128-bit key.
        os.cpu_count() or 1 if workers is None else check_int("workers", workers, 1),
    )


def _check_resamples(resampled: int, trials: int) -> None:
    if resampled > max(1, trials // 10_000):
        raise NumericalError(
            f"{resampled} degenerate draws in {trials} trials "
            "(exceeds the 0.01% resampling budget)"
        )


def _check_link_args(config: SystemConfig, allocs, link, trials, seed, workers):
    """Validated (link, trials, seed, workers) of a full-channel call."""
    for alloc in allocs:
        alloc.validate_against(config)
    link = check_int("link index", link, 0, config.num_links - 1)
    return (link, *_check_mc_args(trials, seed, workers))


def _direct_blocks(
    num_antennas: int,
    k_self: int,
    k_others: Sequence[int],
    trials: int,
    seed: int,
    workers: int | None,
):
    """(trials as an int, block results) of a direct-sampler call."""
    num_antennas = check_int("num_antennas", num_antennas, 1)
    check_int("k_self", k_self, 1, num_antennas)
    others = tuple(check_int("k_others entry", k, 1, num_antennas) for k in k_others)
    if not others:
        raise DomainError("k_others must name at least one interferer")
    trials, seed, workers = _check_mc_args(trials, seed, workers)
    args = [
        (num_antennas, k_self, others, seed, block, size)
        for block, size in enumerate(_block_sizes(trials))
    ]
    return trials, _run_tasks(_direct_block, args, workers)


def _estimate(hits: int, trials: int, resampled: int) -> MonteCarloEstimate:
    p = hits / trials
    return MonteCarloEstimate(
        prob=p,
        std_error=math.sqrt(p * (1.0 - p) / trials),
        trials=trials,
        resampled=resampled,
    )


def _link_estimates(
    config: SystemConfig,
    allocs: Sequence[StreamAllocation],
    link: int,
    betas: Sequence[float],
    trials: int,
    seed: int,
    workers: int | None,
) -> list[list[MonteCarloEstimate]]:
    """Per allocation, one full-channel estimate per threshold.

    Distinct (k_self, others) candidates are grouped by k_int, and each
    group runs in block tasks of at most _TASK_CANDIDATES candidates.
    All tasks go to the pool in one call.
    """
    link, trials, seed, workers = _check_link_args(
        config, allocs, link, trials, seed, workers
    )
    keys = [(alloc.streams[link], alloc.others(link)) for alloc in allocs]
    groups: dict[int, list] = {}
    for key in dict.fromkeys(keys):
        groups.setdefault(sum(key[1]), []).append(key)
    tasks, owners = [], []
    for k_int, group in groups.items():
        for i in range(0, len(group), _TASK_CANDIDATES):
            chunk = group[i : i + _TASK_CANDIDATES]
            candidates = tuple((k, _column_weights(others)) for k, others in chunk)
            for block, size in enumerate(_block_sizes(trials)):
                tasks.append(
                    (config.num_antennas, link, k_int, candidates, betas, seed,
                     block, size)
                )
                owners.append(chunk)

    hits = {key: [0] * len(betas) for key in dict.fromkeys(keys)}
    resampled = dict.fromkeys(hits, 0)
    for chunk, result in zip(owners, _run_tasks(_link_block_hits, tasks, workers)):
        for key, (counts, r) in zip(chunk, result):
            hits[key] = [a + b for a, b in zip(hits[key], counts)]
            resampled[key] += r
    out = []
    for key in keys:
        _check_resamples(resampled[key], trials)
        out.append([_estimate(h, trials, resampled[key]) for h in hits[key]])
    return out


def link_success_table(
    config: SystemConfig,
    allocs: Sequence[StreamAllocation],
    link: int,
    trials: int,
    seed: int,
    *,
    workers: int | None = None,
) -> list[MonteCarloEstimate]:
    """One estimate of P(SIR_1 >= beta) on ``link`` per allocation.

    Entry i is bitwise equal to empirical_link_success(config, allocs[i],
    link, trials, seed), resample count included, and so is the
    NumericalError of the first allocation over the resampling budget.
    Allocations whose other links carry the same number of streams share
    their interference draws, so the table costs much less than one call
    per allocation.  ``workers=None`` runs on every CPU.
    """
    rows = _link_estimates(
        config, list(allocs), link, (config.sir_threshold,), trials, seed, workers
    )
    return [est for [est] in rows]


def empirical_link_success(
    config: SystemConfig,
    alloc: StreamAllocation,
    link: int,
    trials: int,
    seed: int,
    *,
    workers: int | None = None,
) -> MonteCarloEstimate:
    """Estimate P(SIR_1 >= beta) for one link from full-channel trials.

    ``workers=None`` runs on every CPU.
    """
    [[est]] = _link_estimates(
        config, [alloc], link, (config.sir_threshold,), trials, seed, workers
    )
    return est


def link_success_sweep(
    config: SystemConfig,
    alloc: StreamAllocation,
    link: int,
    betas: Sequence[float],
    trials: int,
    seed: int,
    *,
    workers: int | None = None,
) -> list[MonteCarloEstimate]:
    """Per-threshold estimates from one shared simulation run.

    The simulation never looks at beta, so entry i is bit-identical to
    empirical_link_success on a config whose sir_threshold is betas[i]
    with everything else equal.
    """
    betas = tuple(float(check_positive("thresholds", b)) for b in betas)
    if not betas:
        raise DomainError("betas must be non-empty")
    [row] = _link_estimates(config, [alloc], link, betas, trials, seed, workers)
    return row


def link_sir_samples(
    config: SystemConfig,
    alloc: StreamAllocation,
    link: int,
    trials: int,
    seed: int,
    *,
    workers: int | None = None,
) -> np.ndarray:
    """Raw stream-1 SIR samples for one link, blocks concatenated in order."""
    link, trials, seed, workers = _check_link_args(
        config, [alloc], link, trials, seed, workers
    )
    k_self, others = alloc.streams[link], alloc.others(link)
    candidates = ((k_self, _column_weights(others)),)
    args = [
        (config.num_antennas, link, sum(others), candidates, seed, block, size)
        for block, size in enumerate(_block_sizes(trials))
    ]
    results = _run_tasks(_link_block_sir, args, workers)
    _check_resamples(sum(r for _, r in results), trials)
    return np.concatenate([sir for sir, _ in results])


def empirical_outage(
    config: SystemConfig,
    alloc: StreamAllocation,
    trials: int,
    seed: int,
    *,
    workers: int | None = None,
) -> OutageReport:
    """Full-channel Monte Carlo outage report over all links."""
    estimates = [
        empirical_link_success(config, alloc, link, trials, seed, workers=workers)
        for link in range(config.num_links)
    ]
    return OutageReport.from_estimates(config, alloc, estimates)


def direct_sir_samples(
    num_antennas: int,
    k_self: int,
    k_others: Sequence[int],
    trials: int,
    seed: int,
    *,
    workers: int | None = None,
) -> np.ndarray:
    """SIR samples from the marginal model (no matrices involved)."""
    _, results = _direct_blocks(num_antennas, k_self, k_others, trials, seed, workers)
    return np.concatenate(
        [(signal / k_self) / interference for signal, interference in results]
    )


def direct_distribution_outage(
    num_antennas: int,
    k_self: int,
    k_others: Sequence[int],
    beta: float,
    trials: int,
    seed: int,
    *,
    workers: int | None = None,
) -> MonteCarloEstimate:
    """Second oracle: P(SIR >= beta) under the direct marginal model."""
    check_positive("beta", beta)
    trials, results = _direct_blocks(
        num_antennas, k_self, k_others, trials, seed, workers
    )
    hits = sum(
        _hits(signal, interference, k_self, beta) for signal, interference in results
    )
    return _estimate(hits, trials, 0)
