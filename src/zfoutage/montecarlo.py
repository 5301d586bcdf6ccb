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
never on the worker count.  Parallel blocks run on a thread pool that
each call opens and shuts down before it returns: numpy's generators and
array kernels release the GIL, and no block shares state with another.  Within
a block the draw order is fixed: interference entries first, then the
self matrix.  Keeping the interference draws first means estimates for
different k_self candidates under one seed share their interference
realizations, which is what makes common-random-number comparisons
between stream counts tight.

Shared draws.  The first interference draw of a block depends only on
(seed, link, block) and the interference column count k_int, the sum
of the other links' streams.  link_success_table therefore draws it
once per (link, k_int, block) for all of its candidates.  The self
draw that follows it is made once too, for the block's largest k_self:
a generator's normals come one after another, so the first
size*M*k*2 of them are exactly the self draws of a call with k_self = k.
Each smaller k_self reads that prefix, and its resamples start from the
stream state saved just after it.  Every candidate then sees exactly
the draws of its own empirical_link_success call, so its estimate is
bitwise the same.

A full-channel trial for link n touches only the matrices arriving at
receiver n, and those are disjoint from (and independent of) every other
receiver's, so per-link simulation on separate substreams draws from the
same joint distribution as materializing the whole N x N grid per trial.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
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
    "MonteCarloEstimate",
    "empirical_link_success",
    "link_success_table",
    "link_success_sweep",
    "empirical_outage",
    "direct_distribution_outage",
]

BLOCK_TRIALS = 8192

# Relative floor on the |R_jj| of the other own columns (their
# Gram-Schmidt norms) below which a draw is degenerate and resampled.
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
    """Success-probability estimate from ``trials`` trials.

    ``resampled`` counts the degenerate draws that were replaced, and
    the binomial standard error is derived from ``prob`` and ``trials``.
    """

    prob: float
    trials: int
    resampled: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.prob <= 1.0):
            raise DomainError(f"estimate {self.prob!r} outside [0, 1]")
        check_int("trials", self.trials, 1)

    @property
    def std_error(self) -> float:
        return math.sqrt(self.prob * (1.0 - self.prob) / self.trials)


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
    The first interference draw is made once, and so is the self draw:
    one buffer, filled in ascending k_self, holds the largest k_self's
    normals.  Each k_self reads its prefix and resamples from the stream
    state saved after its part (see "Shared draws" above).  Candidates
    with the same k_self share every draw and differ only in their
    weighted interference sum.

    Yields (candidate index, signal, interference, resampled) for every
    candidate, one k_self at a time in ascending order, so a caller that
    reduces each as it comes holds one k_self's results at once.
    """
    rng = _block_rng(seed, _PURPOSE_LINK, link, block)
    h_int = _complex_normal(rng, (size, num_antennas, k_int))
    k_selfs = sorted({k for k, _ in candidates})
    normals = np.empty(size * num_antennas * k_selfs[-1] * 2)
    drawn = 0
    for k_self in k_selfs:
        end = size * num_antennas * k_self * 2
        rng.standard_normal(out=normals[drawn:end])
        normals[drawn:end] *= _SQRT_HALF
        drawn = end
        after_self = rng.bit_generator.state
        h_self = normals[:end].reshape(size, num_antennas, k_self, 2)
        mine = [i for i, (k, _) in enumerate(candidates) if k == k_self]
        signal, interference, resampled = _zf_trials(
            rng, h_int, h_self.view(np.complex128)[..., 0],
            [candidates[i][1] for i in mine]
        )
        rng.bit_generator.state = after_self
        for i, arr in zip(mine, interference):
            yield i, signal, arr, resampled


def _zf_trials(
    rng: np.random.Generator, h_int: np.ndarray, h_self: np.ndarray, weights
):
    """One k_self's trials on the draws ``h_int`` and ``h_self``, rng just after them.

    Returns (signal, [interference per weight vector], resampled).  The
    receive vector of stream 1 is its own column zero-forced against the
    other k_self - 1 own columns (_zf_residual), normalized.  A
    degenerate self draw, or one that leaves no signal, is resampled
    together with fresh interference.  A round with no degenerate row
    reads its draws through views, so only a resample round copies rows.
    """
    size, m, k_int = h_int.shape
    k_self = h_self.shape[2]
    signal = np.empty(size)
    interference = [np.empty(size) for _ in weights]
    pending = np.arange(size)
    resampled = 0
    while pending.size:
        b = pending.size
        if h_self is None:
            h_int = _complex_normal(rng, (b, m, k_int))
            h_self = _complex_normal(rng, (b, m, k_self))
        if k_self == 1:
            residual, bad = h_self[:, :, 0], False
        else:
            residual, bad = _zf_residual(h_self)
        s = np.einsum("bm,bm->b", residual, residual.conj()).real
        bad = bad | (s == 0.0)
        good = ~bad if bad.any() else slice(None)
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
        h_self = None
    return signal, interference, resampled


def _zf_residual(h_self: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(residual, degenerate) of a (trials, M, k_self) self draw, k_self >= 2.

    Column 0 less its projection onto columns 1.., by modified
    Gram-Schmidt over all trials at once: on a copy laid out (column,
    antenna, trial), column 0 last, each of the k_self - 1 steps is a few
    array operations along the contiguous trial axis.  Step j's norms are
    the |R_jj| of a QR of columns 1..; a trial is degenerate when they
    fall below _RANK_TOL times their largest.
    """
    size, m, k_self = h_self.shape
    cols = np.empty((k_self, m, size), dtype=np.complex128)
    cols[:-1] = h_self[:, :, 1:].transpose(2, 1, 0)
    cols[-1] = h_self[:, :, 0].T
    norms = np.empty((k_self - 1, size))
    for j in range(k_self - 1):
        col, later = cols[j], cols[j + 1 :]
        norms[j] = np.sqrt(np.einsum("mb,mb->b", col, col.conj()).real)
        # A zero column stays zero instead of 0/0; its norm flags the trial.
        np.divide(col, norms[j], out=col, where=norms[j] != 0.0)
        later -= col * np.einsum("mb,rmb->rb", col.conj(), later)[:, None, :]
    dmax = norms.max(axis=0)
    return cols[-1].T, (dmax == 0.0) | (norms.min(axis=0) < _RANK_TOL * dmax)


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


def _run_tasks(task_fn, args_list, workers: int) -> list:
    """Run task_fn on every argument tuple; results in block order.

    A pool of min(workers, blocks, CPUs) threads lives for this call only;
    with one thread the caller runs every block itself.  More threads than
    blocks or CPUs would only add hand-off cost.
    """
    threads = min(workers, len(args_list), os.cpu_count() or 1)
    if threads <= 1:
        return [task_fn(*args) for args in args_list]
    with ThreadPoolExecutor(threads, thread_name_prefix="zfoutage-mc") as pool:
        return list(pool.map(task_fn, *zip(*args_list)))


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
    All tasks run in one _run_tasks call.
    """
    for alloc in allocs:
        alloc.validate_against(config)
    link = check_int("link index", link, 0, config.num_links - 1)
    trials, seed, workers = _check_mc_args(trials, seed, workers)
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
        out.append(
            [MonteCarloEstimate(h / trials, trials, resampled[key]) for h in hits[key]]
        )
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


def empirical_outage(
    config: SystemConfig,
    alloc: StreamAllocation,
    trials: int,
    seed: int,
    *,
    workers: int | None = None,
) -> OutageReport:
    """Full-channel Monte Carlo outage report over all links.

    Each link's success probability and standard error come from its
    own empirical_link_success call on the shared seed.
    """
    estimates = [
        empirical_link_success(config, alloc, link, trials, seed, workers=workers)
        for link in range(config.num_links)
    ]
    return OutageReport.from_success(
        config, alloc, [est.prob for est in estimates],
        std_error=[est.std_error for est in estimates],
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
    results = _run_tasks(_direct_block, args, workers)
    hits = sum(
        _hits(signal, interference, k_self, beta) for signal, interference in results
    )
    return MonteCarloEstimate(hits / trials, trials)
