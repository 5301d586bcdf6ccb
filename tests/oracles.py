"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's own evaluation paths:
log-gamma comes from arbitrary-precision arithmetic, tail probabilities
from scipy's regularized incomplete gamma or direct series summation,
success probabilities from adaptive quadrature over the interference
density or from the Taylor expansion of its Laplace transform, and the
SIR of one trial from an explicit per-trial zero-forcing vector (SVD of
the excluded columns) instead of the batched Gram-Schmidt kernel, and
that kernel's trials from the one LAPACK QR per trial that it used
before (``qr_zf_trials``).  Three things are shared with the package.
Its random streams: ``link_power_samples`` replays the full-channel
sampler's draws so its marginals describe the very trials the sampler
scores.  And its
block kernels: ``link_sir_samples`` and ``direct_sir_samples`` return
the raw SIR samples that the library only reduces to estimates, so the
distributional tests look at exactly the sampled trials.  And its exact
closed form: ``exact_threshold`` is the link-count threshold scan with
every candidate valued by that closed form, and the library's ranked
scan must reproduce its every result.  Expected
values in the test suite are either hand-derivable constants or outputs
of these oracles; none are copied from the implementation under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
import scipy.special
from scipy.integrate import quad

from zfoutage import analytic, montecarlo
from zfoutage.analytic import min_links_single_stream
from zfoutage.core import (
    DomainError,
    NumericalError,
    SearchBudgetError,
    StreamAllocation,
    SystemConfig,
    ZfOutageError,
    check_int,
    check_positive,
)
from zfoutage.optimizer import _ANALYTIC_CAP, ThresholdResult

# Relative singular-value floor below which the excluded columns (or
# the residual of the stream column) count as degenerate.
_RANK_TOL = 1e-10


def mp_log_gamma(x: float) -> float:
    """ln Gamma(x) at 40 significant digits, rounded to float."""
    with mpmath.workdps(40):
        return float(mpmath.loggamma(mpmath.mpf(x)))


def poisson_tail(shape: int, y: float) -> float:
    """P(X >= y) for X ~ Gamma(shape, 1), shape integer, via the Poisson sum.

    Equals P(Poisson(y) <= shape - 1) = e^-y sum_{r<shape} y^r / r!.
    """
    term = math.exp(-y)
    total = [term]
    for r in range(1, shape):
        term *= y / r
        total.append(term)
    return math.fsum(total)


def gamma_ccdf(shape: float, rate: float, x: float) -> float:
    """P(X >= x) for X ~ Gamma(shape, rate), evaluated without overflow.

    ``gamma_ccdf(a, r, 0)`` is exactly 1, the value is nonincreasing in x,
    and for integer shapes it matches the Poisson tail identity
    P(X >= x) = P(Poisson(rate * x) <= shape - 1).
    """
    if not shape > 0.0:
        raise DomainError(f"gamma_ccdf requires shape > 0, got {shape!r}")
    if not rate > 0.0:
        raise DomainError(f"gamma_ccdf requires rate > 0, got {rate!r}")
    if x < 0.0:
        raise DomainError(f"gamma_ccdf requires x >= 0, got {x!r}")
    return float(scipy.special.gammaincc(shape, rate * x))


def gamma_ccdf_quad(shape: float, rate: float, x: float) -> float:
    """Tail of the Gamma(shape, rate) density by adaptive quadrature."""
    log_norm = shape * math.log(rate) - mp_log_gamma(shape)

    def density(t: float) -> float:
        return math.exp(log_norm + (shape - 1.0) * math.log(t) - rate * t)

    value, _ = quad(density, x, math.inf, epsabs=0.0, epsrel=1e-12, limit=400)
    return value


def equal_k_success_quad(
    m: int, n: int, k_self: int, k_other: int, beta: float
) -> float:
    """E_I[P(signal tail)] with k_other * I ~ Gamma((N-1)k_other, 1).

    Integrates gamma_ccdf(M - k_self + 1, 1, beta*k_self*x/k_other)
    against the Gamma((N-1)*k_other, 1) density in x.
    """
    lam = (n - 1) * k_other
    log_norm = -mp_log_gamma(float(lam))

    def integrand(x: float) -> float:
        density = math.exp(log_norm + (lam - 1.0) * math.log(x) - x)
        return gamma_ccdf(m - k_self + 1, 1.0, beta * k_self * x / k_other) * density

    value, _ = quad(integrand, 0.0, math.inf, epsabs=0.0, epsrel=1e-11, limit=400)
    return value


def shifted_equal_k_series(
    m: int, n: int, k_self: int, k_other: int, beta: float
) -> float:
    """The equal-k success series under the "shifted" indexing.

    Sums r = 1..M-k_self+1 with denominator exponent r+lam-1 instead of
    r = 0..M-k_self with exponent r+lam.  It is not the integral of the
    model; the tests keep it to show that it fails against quadrature.
    Every term is positive; sums above 1 are reported as 1, as a
    probability would be.
    """
    lam = float((n - 1) * k_other)
    d = beta * k_self / k_other
    log_d = math.log(d)
    log_1pd = math.log1p(d)
    terms = []
    for r in range(1, m - k_self + 2):
        log_term = (
            r * log_d
            - (r + lam - 1.0) * log_1pd
            + mp_log_gamma(r + lam)
            - mp_log_gamma(r + 1.0)
            - mp_log_gamma(lam)
        )
        terms.append(math.exp(log_term))
    return min(1.0, math.fsum(terms))


def hetero_success_mp(m: int, k_self: int, k_others, beta: float) -> float:
    """P(SIR >= beta) for any interferer mix, from the Laplace transform.

    Interferer m adds Gamma(k_m, k_m) to the interference I, so
    L(s) = E[exp(-s I)] = prod_m (1 + s/k_m)^-k_m.  With x = beta*k_self
    and the signal's Poisson tail, P(SIR >= beta) = E[P(Poisson(x I) <=
    M - k_self)] = sum_{r=0}^{M-k_self} (-x)^r / r! * L^(r)(x); the
    derivatives come from mpmath's Taylor expansion at 50 digits.
    """
    with mpmath.workdps(50):
        x = mpmath.mpf(beta) * k_self

        def laplace(s):
            return mpmath.fprod((1 + s / k) ** -k for k in k_others)

        coeffs = mpmath.taylor(laplace, x, m - k_self)
        return float(mpmath.fsum((-x) ** r * c for r, c in enumerate(coeffs)))


def _ceil_sum(a, b, j: int) -> int:
    """ceil(a + j*b) for mpf a, b, exactly: summed on their mantissas."""
    man_a, exp_a = a.man_exp
    man_b, exp_b = b.man_exp
    e = min(exp_a, exp_b)
    total = (man_a << (exp_a - e)) + j * (man_b << (exp_b - e))
    return total << e if e >= 0 else -((-total) >> -e)


def min_links_reference(max_antennas: int, beta: float, k_other: int) -> dict:
    """{M: N*} of the single-stream link-count condition, at 60 digits.

    With u = k/beta and c = (N-1)k - 1, stream count p's condition reads
    c * slope_p >= log((p+1)/p) + (M-p+1) log1p(u), where slope_p =
    log((u+p+1)/(u+p)).  As beta grows the bound on c falls to 1 from
    above by a margin of order u, which a 60-digit quotient would round
    away.  So the excess over 1 is formed from log((p+1)/p) - slope_p =
    log1p(u / (p(u+p+1))) and its ceiling taken exactly.  N* is the
    largest over p of the smallest N >= 2 whose c clears the bound.
    """
    with mpmath.workdps(60):
        u = mpmath.mpf(k_other) / mpmath.mpf(beta)
        spread = mpmath.log1p(u)
        logs = [mpmath.log(u + p) for p in range(1, max_antennas + 2)]
        excess = []  # (a_p, b_p): the excess is a_p + (M-p+1) * b_p
        for p in range(1, max_antennas + 1):
            slope = logs[p] - logs[p - 1]
            gap = mpmath.log1p(u / (p * (u + p + 1)))
            excess.append((gap / slope, spread / slope))
    stars = {}
    for m in range(k_other, max_antennas + 1):
        c_min = [1 + _ceil_sum(*excess[p - 1], m - p + 1) for p in range(1, m + 1)]
        stars[m] = max(2, 1 + max(-(-(c + 1) // k_other) for c in c_min))
    return stars


def exact_threshold(
    num_antennas: int,
    beta: float,
    k_other: int = 1,
    *,
    window: int = 5,
    cap: int = 10_000,
) -> ThresholdResult:
    """empirical_threshold with each N's best response from the exact kernel.

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

    def capacity(n: int, k: int) -> float:
        group = [(float((n - 1) * k_other), k_other)]
        return k * analytic._success(num_antennas, k, beta, group)

    streams = range(1, num_antennas + 1)
    run_start = None
    for n in range(2, cap + window + 1):
        best_k = max(streams, key=lambda k: capacity(n, k))
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


def weighted_exp_moments(weights) -> tuple[float, float]:
    """Exact mean and variance of sum a_i z_i, z_i ~ Exp(1)."""
    ws = [float(w) for w in weights]
    return math.fsum(ws), math.fsum(w * w for w in ws)


def sample_weighted_exp(weights, trials: int, seed: int) -> np.ndarray:
    """Monte Carlo draws of sum a_i z_i for moment checks."""
    rng = np.random.default_rng(seed)
    total = np.zeros(trials)
    for w in weights:
        total += w * rng.exponential(size=trials)
    return total


class RankDeficiencyError(ZfOutageError, ValueError):
    """A channel matrix is too close to singular for zero-forcing."""


@dataclass(frozen=True, eq=False)
class ChannelSet:
    """One realization of the full N x N grid of channel matrices.

    matrices[m][n] is the M x k_m matrix from transmitter m to receiver
    n; column l carries stream l of link m.
    """

    matrices: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.matrices)
        if n < 2 or any(len(row) != n for row in self.matrices):
            raise DomainError("matrices must form an N x N grid with N >= 2")
        rows = self.matrices[0][0].shape[0]
        for m, row in enumerate(self.matrices):
            cols = row[0].shape[1]
            for h in row:
                if h.ndim != 2 or h.shape != (rows, cols):
                    raise DomainError(
                        f"transmitter {m}: expected shape {(rows, cols)}, "
                        f"got {h.shape}"
                    )
                if not np.all(np.isfinite(h.view(np.float64))):
                    raise DomainError("channel entries must be finite")

    @property
    def num_links(self) -> int:
        return len(self.matrices)

    @property
    def num_antennas(self) -> int:
        return self.matrices[0][0].shape[0]

    @property
    def streams(self) -> tuple[int, ...]:
        return tuple(row[0].shape[1] for row in self.matrices)

    def scaled(self, factor: complex) -> "ChannelSet":
        """Same realization with every matrix multiplied by one scalar."""
        return ChannelSet(
            tuple(tuple(factor * h for h in row) for row in self.matrices)
        )


@dataclass(frozen=True, eq=False)
class ZfVector:
    """Unit-norm row vector applied to the received signal (q in q H)."""

    vector: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vector, dtype=np.complex128)
        object.__setattr__(self, "vector", v)
        if v.ndim != 1:
            raise DomainError(f"nulling vector must be 1-D, got shape {v.shape}")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"nulling vector norm {norm!r} is not 1 to 1e-12")


@dataclass(frozen=True)
class SirSample:
    """Signal power, aggregate interference power, and their SIR ratio."""

    signal_power: float
    interference_power: float
    k_self: int
    sir: float

    def __post_init__(self) -> None:
        if self.signal_power < 0.0 or self.interference_power <= 0.0:
            raise DomainError("powers must be non-negative / positive")
        if self.sir != (self.signal_power / self.k_self) / self.interference_power:
            raise DomainError("sir field disagrees with its defining ratio")


def sample_channel(
    config: SystemConfig, alloc: StreamAllocation, rng: np.random.Generator
) -> ChannelSet:
    """Draw one full channel grid from an externally managed stream."""
    alloc.validate_against(config)
    n, m = config.num_links, config.num_antennas
    grid = []
    for tx in range(n):
        z = rng.standard_normal(size=(n, m, alloc.streams[tx], 2))
        block = (z[..., 0] + 1j * z[..., 1]) * math.sqrt(0.5)
        grid.append(tuple(block[rx] for rx in range(n)))
    return ChannelSet(tuple(grid))


def zf_nulling_vector(h_self: np.ndarray, j: int) -> ZfVector:
    """Receiver direction for stream j of one link's own M x k matrix.

    For k = 1 there is nothing to null and the matched direction is
    returned.  Otherwise the vector is the normalized residual of column
    j against the orthogonal complement of the other columns, which is
    the admissible direction maximizing |q H(j)|.  Raises
    RankDeficiencyError when the excluded columns are numerically
    rank-deficient or column j lies in their span.
    """
    h = np.asarray(h_self, dtype=np.complex128)
    if h.ndim != 2:
        raise DomainError(f"h_self must be a matrix, got shape {h.shape}")
    m, k = h.shape
    if k > m:
        raise DomainError(f"streams {k} exceed antennas {m}")
    if not 0 <= j < k:
        raise DomainError(f"stream index {j} out of range for k={k}")
    target = h[:, j]
    if k == 1:
        norm = float(np.linalg.norm(target))
        if norm == 0.0:
            raise RankDeficiencyError("zero column cannot be matched")
        return ZfVector(target.conj() / norm)

    excluded = np.delete(h, j, axis=1)
    u, svals, _ = np.linalg.svd(excluded, full_matrices=False)
    if svals[0] == 0.0 or svals[-1] / svals[0] < _RANK_TOL:
        raise RankDeficiencyError(
            f"excluded columns rank-deficient (sigma ratio "
            f"{0.0 if svals[0] == 0.0 else svals[-1] / svals[0]:.3e})"
        )
    residual = target - u @ (u.conj().T @ target)
    norm = float(np.linalg.norm(residual))
    if norm / float(np.linalg.norm(target)) < _RANK_TOL:
        raise RankDeficiencyError("stream column lies in the excluded span")
    q = residual.conj() / norm
    leak = float(np.max(np.abs(q @ excluded)))
    if leak > 1e-10:
        raise NumericalError(f"nulling residual leaks {leak:.3e} into excluded columns")
    return ZfVector(q)


def stream_sir(channels: ChannelSet, link: int, stream: int) -> SirSample:
    """SIR of one stream of one link on a given realization.

    This is the readable reference path (one trial, explicit nulling
    vector); the batched estimators in zfoutage.montecarlo reproduce it
    in vectorized form, draw for draw.
    """
    n = channels.num_links
    if not 0 <= link < n:
        raise DomainError(f"link {link} out of range for {n} links")
    streams = channels.streams
    k_self = streams[link]
    if not 0 <= stream < k_self:
        raise DomainError(f"stream {stream} out of range for k={k_self}")
    h_self = channels.matrices[link][link]
    q = zf_nulling_vector(h_self, stream).vector
    signal = float(abs(q @ h_self[:, stream]) ** 2)
    pieces = []
    for m in range(n):
        if m == link:
            continue
        z = q @ channels.matrices[m][link]
        pieces.append(np.sum(z.real * z.real + z.imag * z.imag) / streams[m])
    interference = float(math.fsum(pieces))
    return SirSample(
        signal_power=signal,
        interference_power=interference,
        k_self=k_self,
        sir=(signal / k_self) / interference,
    )


def link_power_samples(
    config: SystemConfig, alloc: StreamAllocation, link: int, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(signal powers, per-column interference summands) of stream 1 of a link.

    Replays the full-channel sampler's draws block by block, in its order
    (every interference column first, then the self matrix), and nulls
    them with a batched pseudo-inverse instead of the sampler's
    Gram-Schmidt.  The summands are the raw |q H(l)|^2 values, before the
    1/k_m weighting; each is claimed to have unit mean.  A degenerate
    draw, which the sampler would resample, raises NumericalError.
    """
    alloc.validate_against(config)
    m, k_self = config.num_antennas, alloc.streams[link]
    k_int = sum(alloc.others(link))
    step = montecarlo.BLOCK_TRIALS
    signals, summands = [], []
    for block, start in enumerate(range(0, trials, step)):
        size = min(step, trials - start)
        rng = montecarlo._block_rng(seed, montecarlo._PURPOSE_LINK, link, block)
        h_int = montecarlo._complex_normal(rng, (size, m, k_int))
        h_self = montecarlo._complex_normal(rng, (size, m, k_self))
        target = h_self[:, :, :1]
        if k_self > 1:
            excluded = h_self[:, :, 1:]
            target = target - excluded @ (np.linalg.pinv(excluded) @ target)
        signal = np.sum(np.abs(target[:, :, 0]) ** 2, axis=1)
        if np.any(signal == 0.0):
            raise NumericalError("a draw leaves no signal after nulling")
        q = target.conj().transpose(0, 2, 1) / np.sqrt(signal)[:, None, None]
        signals.append(signal)
        summands.append(np.abs((q @ h_int)[:, 0, :]) ** 2)
    return np.concatenate(signals), np.concatenate(summands)


def qr_zf_trials(
    rng: np.random.Generator, h_int: np.ndarray, h_self: np.ndarray, weights
):
    """``montecarlo._zf_trials`` with its residual from one LAPACK QR per trial.

    The sampler's kernel before it zero-forced by Gram-Schmidt over the
    trial axis, kept verbatim: a degenerate draw is one whose QR diagonal
    |R_jj| falls below ``montecarlo._RANK_TOL`` times its largest, or
    whose residual is exactly zero, and it is resampled from ``rng`` in
    the same order.  Returns (signal, [interference per weight vector],
    resampled).
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
            h_int = montecarlo._complex_normal(rng, (b, m, k_int))
            h_self = montecarlo._complex_normal(rng, (b, m, k_self))
        target = h_self[:, :, 0]
        if k_self == 1:
            s = np.einsum("bm,bm->b", target, target.conj()).real
            bad = s == 0.0
            residual = target
        else:
            q_mat, r_mat = np.linalg.qr(h_self[:, :, 1:])
            diag = np.abs(np.diagonal(r_mat, axis1=1, axis2=2))
            dmax = diag.max(axis=1)
            bad = (dmax == 0.0) | (diag.min(axis=1) < montecarlo._RANK_TOL * dmax)
            coeff = np.einsum("bmr,bm->br", q_mat.conj(), target)
            residual = target - np.einsum("bmr,br->bm", q_mat, coeff)
            s = np.einsum("bm,bm->b", residual, residual.conj()).real
            bad |= s == 0.0
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


def link_sir_samples(
    config: SystemConfig,
    alloc: StreamAllocation,
    link: int,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> np.ndarray:
    """The full-channel sampler's stream-1 SIR samples, blocks in order.

    Runs the library's own block kernel, so every sample is one the
    sampler scores for ``empirical_link_success`` on the same seed.
    """
    k_self, others = alloc.streams[link], alloc.others(link)
    candidates = ((k_self, montecarlo._column_weights(others)),)
    args = [
        (config.num_antennas, link, sum(others), candidates, seed, block, size)
        for block, size in enumerate(montecarlo._block_sizes(trials))
    ]

    def block_sir(*block_args):
        [(_, signal, interference, _)] = montecarlo._link_block(*block_args)
        return (signal / k_self) / interference

    return np.concatenate(montecarlo._run_tasks(block_sir, args, workers))


def direct_sir_samples(
    num_antennas: int,
    k_self: int,
    k_others,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> np.ndarray:
    """The direct sampler's SIR samples, from its own block kernel."""
    args = [
        (num_antennas, k_self, tuple(k_others), seed, block, size)
        for block, size in enumerate(montecarlo._block_sizes(trials))
    ]
    blocks = montecarlo._run_tasks(montecarlo._direct_block, args, workers)
    return np.concatenate([(signal / k_self) / interf for signal, interf in blocks])
