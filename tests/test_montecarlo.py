"""Channel sampling, nulling vectors, and the two simulation paths."""

import math
import multiprocessing
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from oracles import (
    ChannelSet,
    RankDeficiencyError,
    SirSample,
    ZfVector,
    direct_sir_samples,
    link_power_samples,
    link_sir_samples,
    qr_zf_trials,
    sample_channel,
    stream_sir,
    zf_nulling_vector,
)
from zfoutage import montecarlo
from zfoutage.analytic import success_prob_equal_k, sum_capacity_analytic
from zfoutage.core import DomainError, NumericalError, StreamAllocation, SystemConfig
from zfoutage.montecarlo import (
    BLOCK_TRIALS,
    MonteCarloEstimate,
    direct_distribution_outage,
    empirical_link_success,
    empirical_outage,
    link_success_sweep,
    link_success_table,
)


def _grid(num_links, num_antennas, streams, fill=None, rng=None):
    """Build a ChannelSet grid by hand for targeted cases."""
    mats = []
    for tx in range(num_links):
        row = []
        for rx in range(num_links):
            if fill is not None:
                row.append(np.array(fill[tx][rx], dtype=np.complex128))
            else:
                real = rng.standard_normal((num_antennas, streams[tx], 2))
                row.append((real[..., 0] + 1j * real[..., 1]) * math.sqrt(0.5))
        mats.append(tuple(row))
    return ChannelSet(tuple(mats))


class TestChannelSampling:
    def test_deterministic(self):
        cfg = SystemConfig(3, 2, 1.0)
        alloc = StreamAllocation((1, 2, 1))
        a = sample_channel(cfg, alloc, np.random.default_rng(5))
        b = sample_channel(cfg, alloc, np.random.default_rng(5))
        for row_a, row_b in zip(a.matrices, b.matrices):
            for h_a, h_b in zip(row_a, row_b):
                np.testing.assert_array_equal(h_a, h_b)

    def test_shapes_and_properties(self):
        cfg = SystemConfig(3, 4, 1.0)
        alloc = StreamAllocation((1, 3, 2))
        chans = sample_channel(cfg, alloc, np.random.default_rng(0))
        assert chans.num_links == 3
        assert chans.num_antennas == 4
        assert chans.streams == (1, 3, 2)
        assert chans.matrices[1][2].shape == (4, 3)

    def test_entry_moments(self):
        # Unit-variance complex entries: E|h|^2 = 1, split half/half
        # between the real and imaginary parts.
        cfg = SystemConfig(2, 8, 1.0)
        alloc = StreamAllocation((8, 8))
        rng = np.random.default_rng(123)
        entries = np.concatenate(
            [
                np.ravel(h)
                for _ in range(200)
                for row in sample_channel(cfg, alloc, rng).matrices
                for h in row
            ]
        )
        n = entries.size
        assert n == 200 * 4 * 64
        # Var(|h|^2) = 1 for unit-mean exponential power.
        assert abs(np.mean(np.abs(entries) ** 2) - 1.0) < 4.0 / math.sqrt(n)
        se_half = math.sqrt(2 * 0.25 / n)
        assert abs(np.var(entries.real) - 0.5) < 4 * se_half
        assert abs(np.var(entries.imag) - 0.5) < 4 * se_half
        assert abs(np.mean(entries.real)) < 4 * math.sqrt(0.5 / n)

    def test_grid_validation(self):
        good = np.eye(2, dtype=np.complex128)
        with pytest.raises(DomainError):
            ChannelSet(((good,),))
        with pytest.raises(DomainError):
            ChannelSet(((good, good), (good,)))
        ragged = np.ones((3, 1), dtype=np.complex128)
        with pytest.raises(DomainError):
            ChannelSet(((good, good), (ragged, ragged)))
        bad = good.copy()
        bad[0, 0] = np.nan
        with pytest.raises(DomainError):
            ChannelSet(((bad, good), (good, good)))


class TestNullingVector:
    def test_single_stream_matches_filter(self):
        rng = np.random.default_rng(3)
        h = (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1)))
        q = zf_nulling_vector(h, 0).vector
        np.testing.assert_allclose(
            float(abs(q @ h[:, 0]) ** 2),
            float(np.linalg.norm(h) ** 2),
            rtol=1e-12,
        )

    def test_orthogonal_columns_identity(self):
        h = np.eye(2, dtype=np.complex128)
        q0 = zf_nulling_vector(h, 0).vector
        np.testing.assert_allclose(q0, [1.0, 0.0], atol=1e-14)
        q1 = zf_nulling_vector(h, 1).vector
        np.testing.assert_allclose(q1, [0.0, 1.0], atol=1e-14)

    def test_nulls_excluded_columns(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            h = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            for j in range(m):
                q = zf_nulling_vector(h, j).vector
                np.testing.assert_allclose(float(np.linalg.norm(q)), 1.0, rtol=1e-12)
                excluded = np.delete(h, j, axis=1)
                assert float(np.max(np.abs(q @ excluded))) <= 1e-10

    def test_residual_gain_is_maximal_over_null_space(self):
        # |q h_j|^2 equals the squared norm of h_j's component outside
        # the excluded span; any other unit vector in the admissible
        # space cannot beat it.
        rng = np.random.default_rng(29)
        h = (rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
        q = zf_nulling_vector(h, 0).vector
        gain = float(abs(q @ h[:, 0]) ** 2)
        excluded = np.delete(h, 0, axis=1)
        u, _, _ = np.linalg.svd(excluded, full_matrices=False)
        residual = h[:, 0] - u @ (u.conj().T @ h[:, 0])
        np.testing.assert_allclose(gain, float(np.linalg.norm(residual) ** 2), rtol=1e-12)

    def test_rank_deficient_excluded_columns(self):
        c = np.array([1.0, 2.0, 3.0], dtype=np.complex128)
        h = np.column_stack([c, c, np.array([1.0, 0.0, 0.0])])
        with pytest.raises(RankDeficiencyError):
            zf_nulling_vector(h, 2)

    def test_stream_in_excluded_span(self):
        a = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
        b = np.array([0.0, 1.0, 0.0], dtype=np.complex128)
        h = np.column_stack([a + b, a, b])
        with pytest.raises(RankDeficiencyError):
            zf_nulling_vector(h, 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            zf_nulling_vector(np.ones((2, 3), dtype=np.complex128), 0)
        with pytest.raises(DomainError):
            zf_nulling_vector(np.ones((2, 2), dtype=np.complex128), 2)
        with pytest.raises(DomainError):
            zf_nulling_vector(np.ones(3, dtype=np.complex128), 0)

    def test_unit_norm_enforced_on_type(self):
        with pytest.raises(DomainError):
            ZfVector(np.array([1.0, 1.0], dtype=np.complex128))


class TestStreamSir:
    def test_ratio_invariant(self):
        cfg = SystemConfig(3, 3, 1.0)
        alloc = StreamAllocation((2, 1, 3))
        chans = sample_channel(cfg, alloc, np.random.default_rng(8))
        s = stream_sir(chans, 0, 1)
        assert s.sir == (s.signal_power / s.k_self) / s.interference_power
        assert s.k_self == 2

    def test_scale_invariance(self):
        cfg = SystemConfig(3, 4, 1.0)
        alloc = StreamAllocation((2, 2, 2))
        chans = sample_channel(cfg, alloc, np.random.default_rng(13))
        base = stream_sir(chans, 1, 0)
        for factor in (2.0, 0.1, 1.5 - 0.5j):
            scaled = stream_sir(chans.scaled(factor), 1, 0)
            np.testing.assert_allclose(scaled.sir, base.sir, rtol=1e-12)

    def test_known_two_by_two(self):
        # Hand-built grid: receiver 0's own matrix is the identity, the
        # interferer arrives as a known matrix. q for stream 0 is e1.
        fill = [
            [np.eye(2), np.zeros((2, 2))],
            [np.array([[3.0, 4.0], [0.0, 1.0]]), np.eye(2)],
        ]
        chans = _grid(2, 2, (2, 2), fill=fill)
        s = stream_sir(chans, 0, 0)
        np.testing.assert_allclose(s.signal_power, 1.0, rtol=1e-14)
        # Interference = (|3|^2 + |4|^2) / k = 25 / 2.
        np.testing.assert_allclose(s.interference_power, 12.5, rtol=1e-14)
        np.testing.assert_allclose(s.sir, (1.0 / 2.0) / 12.5, rtol=1e-14)

    def test_sir_sample_validation(self):
        with pytest.raises(DomainError):
            SirSample(signal_power=1.0, interference_power=0.0, k_self=1, sir=1.0)
        with pytest.raises(DomainError):
            SirSample(signal_power=1.0, interference_power=1.0, k_self=2, sir=1.0)

    def test_index_validation(self):
        cfg = SystemConfig(2, 2, 1.0)
        alloc = StreamAllocation((1, 1))
        chans = sample_channel(cfg, alloc, np.random.default_rng(0))
        with pytest.raises(DomainError):
            stream_sir(chans, 2, 0)
        with pytest.raises(DomainError):
            stream_sir(chans, 0, 1)


class TestKernelMatchesReference:
    @pytest.mark.parametrize(
        "streams, link",
        [
            ((1, 2, 3), 0),  # k_self = 1
            ((2, 1, 3, 1), 0),  # 1 < k_self < M
            ((4, 2, 1), 0),  # k_self = M
            ((3, 1, 4, 2), 2),  # k_self = M on a later link
        ],
    )
    def test_per_trial_powers(self, streams, link):
        # The batched kernel and the per-trial reference path, fed the
        # same draws, must agree on every trial's signal and interference.
        m, seed, block, size = 4, 1234, 1, 64
        alloc = StreamAllocation(streams)
        others = alloc.others(link)
        [(_, signal, interference, resampled)] = montecarlo._link_block(
            m, link, sum(others),
            [(streams[link], montecarlo._column_weights(others))],
            seed, block, size,
        )
        assert resampled == 0
        # Rebuild the block's draws in the kernel's order: every
        # interference column first, then the self matrix.
        rng = montecarlo._block_rng(seed, montecarlo._PURPOSE_LINK, link, block)
        others = [tx for tx in range(len(streams)) if tx != link]
        edges = np.cumsum([0] + [streams[tx] for tx in others])
        h_int = montecarlo._complex_normal(rng, (size, m, edges[-1]))
        h_self = montecarlo._complex_normal(rng, (size, m, streams[link]))
        for t in range(size):
            # Only the matrices arriving at `link` are read; the rest stay 0.
            grid = [[np.zeros((m, k), dtype=np.complex128)] * len(streams)
                    for k in streams]
            grid[link][link] = h_self[t]
            for i, tx in enumerate(others):
                grid[tx][link] = h_int[t][:, edges[i] : edges[i + 1]]
            ref = stream_sir(ChannelSet(tuple(map(tuple, grid))), link, 0)
            np.testing.assert_allclose(signal[t], ref.signal_power, rtol=1e-10)
            np.testing.assert_allclose(
                interference[t], ref.interference_power, rtol=1e-10
            )

    @pytest.mark.parametrize(
        "streams, link",
        [((1, 2, 3), 0), ((2, 1, 3, 1), 0), ((4, 2, 1), 0), ((3, 1, 4, 2), 2)],
    )
    def test_power_oracle_replays_sir_samples(self, streams, link):
        # The oracle's marginals describe the sampler's own trials: over
        # three blocks its powers rebuild link_sir_samples on the same seed.
        config = SystemConfig(len(streams), 4, 1.0)
        alloc = StreamAllocation(streams)
        trials = 2 * BLOCK_TRIALS + 100
        signal, summands = link_power_samples(config, alloc, link, trials, 5)
        weights = np.concatenate([np.full(k, 1.0 / k) for k in alloc.others(link)])
        np.testing.assert_allclose(
            (signal / streams[link]) / (summands @ weights),
            link_sir_samples(config, alloc, link, trials, 5),
            rtol=1e-9,
        )


def _zf_both(rng, h_int, h_self, weights):
    """(Gram-Schmidt kernel, QR reference) results on the same draws and stream."""
    state = rng.bit_generator.state
    kernel = montecarlo._zf_trials(rng, h_int, h_self, weights)
    rng.bit_generator.state = state
    return kernel, qr_zf_trials(rng, h_int, h_self, weights)


class TestGramSchmidtKernel:
    @pytest.mark.parametrize("rank_tol", [None, 0.3], ids=["default", "coarse"])
    @pytest.mark.parametrize(
        "m, k_self", [(2, 2), (4, 2), (4, 4), (8, 2), (8, 8), (10, 2), (10, 10)]
    )
    def test_matches_qr_reference(self, monkeypatch, m, k_self, rank_tol):
        # One full block per case: the same hits at three thresholds and
        # the same resamples as one LAPACK QR per trial, and powers equal
        # to rounding.  The coarse floor makes both paths resample often.
        if rank_tol is not None:
            monkeypatch.setattr(montecarlo, "_RANK_TOL", rank_tol)
        weights = [
            montecarlo._column_weights(others) for others in [(1, 2, m), (m, 2, 1)]
        ]
        rng = montecarlo._block_rng(41, montecarlo._PURPOSE_LINK, m, k_self)
        h_int = montecarlo._complex_normal(rng, (BLOCK_TRIALS, m, m + 3))
        h_self = montecarlo._complex_normal(rng, (BLOCK_TRIALS, m, k_self))
        kernel, reference = _zf_both(rng, h_int, h_self, weights)
        signal, interference, resampled = kernel
        ref_signal, ref_interference, ref_resampled = reference
        assert resampled == ref_resampled
        # A single other column has no norm ratio to fall below the floor.
        assert (resampled > 0) == (rank_tol is not None and k_self > 2)
        np.testing.assert_allclose(signal, ref_signal, rtol=1e-12, atol=0)
        for arr, ref in zip(interference, ref_interference):
            np.testing.assert_allclose(arr, ref, rtol=1e-12, atol=0)
            for beta in (0.25, 1.0, 4.0):
                assert montecarlo._hits(signal, arr, k_self, beta) == montecarlo._hits(
                    ref_signal, ref, k_self, beta
                )

    @pytest.mark.parametrize(
        "rows",
        [
            # M = 3, k_self = 3: column 0 is the stream, 1 and 2 the others.
            [
                [[1, 2j, 0], [0, 1, 1j], [1j, 0, 1]],  # full rank
                [[1, 0, 1], [2, 0, 1j], [3, 0, 0]],  # zero other column
                [[1, 1, 0], [0, 1j, 0], [1, 2, 0]],  # the other zero column
                [[1, 1 + 1j, 1 + 1j], [0, 2, 2], [1j, 3j, 3j]],  # equal others
                [[2, 1, 0], [3, 0, 1], [0, 0, 0]],  # stream in their span
                [[0, 1, 0], [0, 0, 1], [0, 1, 1]],  # zero stream column
                [[0, 0, 0], [0, 0, 0], [0, 0, 0]],  # all zero
            ],
            # M = 2, k_self = 2: a single other column.
            [
                [[1, 1j], [1j, 2]],  # full rank
                [[1, 0], [1, 0]],  # zero other column
                [[1 + 2j, 1], [0, 0]],  # stream parallel to it
                [[0, 1], [0, 1j]],  # zero stream column
            ],
        ],
        ids=["M3", "M2"],
    )
    def test_exact_degeneracy_is_resampled(self, rows):
        # Every crafted row but the first is degenerate.  Both paths must
        # flag exactly those and replace them by fresh finite trials; a
        # zero column must not divide 0 by 0 into a NaN scored as a miss.
        h_self = np.array(rows, dtype=np.complex128)
        size, m, _ = h_self.shape
        rng = montecarlo._block_rng(5, montecarlo._PURPOSE_LINK, 0, 0)
        h_int = montecarlo._complex_normal(rng, (size, m, 2))
        weights = [np.full(2, 0.5)]
        for signal, [interference], resampled in _zf_both(rng, h_int, h_self, weights):
            assert resampled == size - 1
            assert np.isfinite(signal).all() and (signal > 0).all()
            assert np.isfinite(interference).all()


class TestEstimatorDeterminism:
    def test_same_seed_same_estimate(self):
        cfg = SystemConfig(4, 2, 1.0)
        alloc = StreamAllocation((1, 2, 1, 2))
        a = empirical_link_success(cfg, alloc, 0, 20_000, seed=7)
        b = empirical_link_success(cfg, alloc, 0, 20_000, seed=7)
        assert a == b
        c = empirical_link_success(cfg, alloc, 0, 20_000, seed=8)
        assert a.prob != c.prob

    def test_worker_count_invariance(self):
        cfg = SystemConfig(3, 3, 1.0)
        alloc = StreamAllocation((2, 1, 3))
        serial = empirical_link_success(cfg, alloc, 0, 3 * BLOCK_TRIALS, seed=11)
        parallel = empirical_link_success(
            cfg, alloc, 0, 3 * BLOCK_TRIALS, seed=11, workers=3
        )
        assert serial == parallel

    def test_sample_order_is_block_order(self):
        cfg = SystemConfig(2, 2, 1.0)
        alloc = StreamAllocation((1, 1))
        trials = BLOCK_TRIALS + 100
        whole = link_sir_samples(cfg, alloc, 0, trials, seed=3)
        head = link_sir_samples(cfg, alloc, 0, BLOCK_TRIALS, seed=3)
        np.testing.assert_array_equal(whole[:BLOCK_TRIALS], head)

    def test_sweep_matches_single_calls(self):
        cfg = SystemConfig(3, 4, 1.0)
        alloc = StreamAllocation((2, 1, 2))
        betas = [0.25, 1.0, 4.0]
        sweep = link_success_sweep(cfg, alloc, 0, betas, 30_000, seed=21)
        for beta, est in zip(betas, sweep):
            single = empirical_link_success(
                SystemConfig(3, 4, beta), alloc, 0, 30_000, seed=21
            )
            assert est == single

    def test_validation(self):
        cfg = SystemConfig(2, 2, 1.0)
        alloc = StreamAllocation((1, 1))
        with pytest.raises(DomainError):
            empirical_link_success(cfg, alloc, 0, 0, seed=1)
        with pytest.raises(DomainError):
            empirical_link_success(cfg, alloc, 5, 100, seed=1)
        with pytest.raises(DomainError):
            link_success_sweep(cfg, alloc, 0, [], 100, seed=1)
        with pytest.raises(DomainError):
            link_success_sweep(cfg, alloc, 0, [0.0], 100, seed=1)
        with pytest.raises(DomainError):
            MonteCarloEstimate(prob=1.2, trials=10)
        with pytest.raises(DomainError):
            MonteCarloEstimate(prob=0.5, trials=0)

    def test_std_error_is_derived(self):
        assert MonteCarloEstimate(prob=0.25, trials=300).std_error == math.sqrt(
            0.25 * 0.75 / 300
        )
        cfg = SystemConfig(3, 4, 1.0)
        for est in link_success_table(cfg, _TABLE_ALLOCS, 0, 3000, 13):
            expect = math.sqrt(est.prob * (1.0 - est.prob) / est.trials)
            assert est.std_error.hex() == expect.hex()


# Others of link 0 with M=4: three with k_int = 4 in different order or
# split, and one with k_int = 3.
_TABLE_OTHERS = [(1, 3), (2, 2), (3, 1), (1, 2)]
_TABLE_ALLOCS = [
    StreamAllocation((k,) + others) for k in range(1, 5) for others in _TABLE_OTHERS
]


class TestLinkSuccessTable:
    @pytest.mark.parametrize(
        "trials", [5000, 2 * BLOCK_TRIALS, 2 * BLOCK_TRIALS + 100],
        ids=["one_block", "two_blocks", "three_blocks"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_single_calls(self, trials, workers):
        cfg = SystemConfig(3, 4, 1.0)
        table = link_success_table(cfg, _TABLE_ALLOCS, 0, trials, 13, workers=workers)
        singles = [
            empirical_link_success(cfg, alloc, 0, trials, 13, workers=workers)
            for alloc in _TABLE_ALLOCS
        ]
        assert table == singles

    def test_later_link_duplicates_and_split_tasks(self, monkeypatch):
        # Repeated allocations, a link other than 0, and groups split over
        # several block tasks all leave every entry as its own call gives.
        monkeypatch.setattr(montecarlo, "_TASK_CANDIDATES", 2)
        cfg = SystemConfig(4, 3, 0.5)
        allocs = [
            StreamAllocation(s)
            for s in [(1, 2, 3, 1), (2, 1, 3, 1), (1, 3, 3, 2), (2, 1, 3, 1),
                      (3, 3, 1, 1), (1, 1, 2, 3)]
        ]
        table = link_success_table(cfg, allocs, 2, BLOCK_TRIALS + 1, 4, workers=2)
        assert table == [
            empirical_link_success(cfg, alloc, 2, BLOCK_TRIALS + 1, 4)
            for alloc in allocs
        ]

    def test_kernel_restores_the_stream_through_resamples(self, monkeypatch):
        # With a coarse rank floor the QR path resamples often; every
        # k_self must still see exactly the draws of its own kernel call.
        monkeypatch.setattr(montecarlo, "_RANK_TOL", 0.3)
        candidates = [
            (k, montecarlo._column_weights(others))
            for k in range(1, 5) for others in _TABLE_OTHERS[:3]
        ]
        resampled = {}
        for i, signal, interference, r in montecarlo._link_block(
            4, 0, 4, candidates, 21, 1, 500
        ):
            candidate = candidates[i]
            [(_, signal1, interference1, r1)] = montecarlo._link_block(
                4, 0, 4, [candidate], 21, 1, 500
            )
            np.testing.assert_array_equal(signal, signal1)
            np.testing.assert_array_equal(interference, interference1)
            assert r == r1
            resampled[candidate[0]] = r
        assert resampled[1] == 0
        assert resampled[3] > 0 and resampled[4] > 0

    @pytest.mark.parametrize("rank_tol", [None, 0.3], ids=["default", "coarse"])
    def test_kernel_matches_single_calls_in_any_candidate_order(
        self, monkeypatch, rank_tol
    ):
        # Unordered, repeated k_self with different weights: each
        # candidate still gets its own call's arrays, resamples included.
        if rank_tol is not None:
            monkeypatch.setattr(montecarlo, "_RANK_TOL", rank_tol)
        weights = [montecarlo._column_weights(others) for others in _TABLE_OTHERS[:3]]
        candidates = [
            (k, weights[j % 3]) for j, k in enumerate([4, 1, 3, 1, 2])
        ]
        resampled = {}
        for i, signal, interference, r in montecarlo._link_block(
            4, 2, 4, candidates, 8, 2, 700
        ):
            [(_, signal1, interference1, r1)] = montecarlo._link_block(
                4, 2, 4, [candidates[i]], 8, 2, 700
            )
            np.testing.assert_array_equal(signal, signal1)
            np.testing.assert_array_equal(interference, interference1)
            assert r == r1
            resampled[i] = r
        assert sorted(resampled) == list(range(len(candidates)))
        if rank_tol is not None:
            # k_self = 3 resamples before k_self = 4's part is drawn.
            assert resampled[2] > 0 and resampled[0] > 0

    def test_kernel_draws_the_self_matrix_once(self, monkeypatch):
        # k_self = 1..4 read prefixes of one 4-column self draw: size*M
        # *(k_int + 4)*2 normals per block, not size*M*(k_int + 1+2+3+4)*2.
        counters = []

        class CountingRng:
            def __init__(self, rng):
                self.rng, self.normals = rng, 0
                counters.append(self)

            @property
            def bit_generator(self):
                return self.rng.bit_generator

            def standard_normal(self, *args, **kwargs):
                values = self.rng.standard_normal(*args, **kwargs)
                self.normals += values.size
                return values

        block_rng = montecarlo._block_rng
        monkeypatch.setattr(
            montecarlo, "_block_rng", lambda *args: CountingRng(block_rng(*args))
        )
        m, k_int, size = 4, 4, 500
        candidates = [
            (k, montecarlo._column_weights((1, 3))) for k in range(1, m + 1)
        ]
        resampled = [
            r for *_, r in montecarlo._link_block(m, 0, k_int, candidates, 3, 0, size)
        ]
        assert resampled == [0] * m
        [counter] = counters
        assert counter.normals == size * m * (k_int + m) * 2

    def test_consecutive_fills_continue_one_draw(self):
        # The shared self draw rests on this: filling n values and then
        # n' more gives the first n + n' values of one draw, and leaves
        # the stream where that draw leaves it.
        whole = montecarlo._block_rng(5, montecarlo._PURPOSE_LINK, 1, 3)
        parts = montecarlo._block_rng(5, montecarlo._PURPOSE_LINK, 1, 3)
        expected = whole.standard_normal(size=1001)
        filled = np.empty(1001)
        parts.standard_normal(out=filled[:333])
        parts.standard_normal(out=filled[333:])
        np.testing.assert_array_equal(filled, expected)
        np.testing.assert_equal(parts.bit_generator.state, whole.bit_generator.state)

    def test_resample_budget_error_is_the_first_calls(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_RANK_TOL", 0.3)
        cfg = SystemConfig(3, 4, 1.0)
        with pytest.raises(NumericalError) as single:
            for alloc in _TABLE_ALLOCS:
                empirical_link_success(cfg, alloc, 0, 3000, 9)
        with pytest.raises(NumericalError) as table:
            link_success_table(cfg, _TABLE_ALLOCS, 0, 3000, 9)
        assert str(table.value) == str(single.value)

    def test_empty_and_invalid(self):
        cfg = SystemConfig(3, 4, 1.0)
        assert link_success_table(cfg, [], 0, 100, 0) == []
        with pytest.raises(DomainError):
            link_success_table(cfg, [StreamAllocation((1, 5, 1))], 0, 100, 0)
        with pytest.raises(DomainError):
            link_success_table(cfg, _TABLE_ALLOCS, 3, 100, 0)
        with pytest.raises(DomainError):
            link_success_table(cfg, _TABLE_ALLOCS, 0, 0, 0)


class TestIntegerArguments:
    def test_numpy_integers_come_back_as_int(self):
        cfg, alloc = SystemConfig(2, 2, 1.0), StreamAllocation((1, 2))
        trials, seed = np.int64(2000), np.int64(7)
        for est in (
            empirical_link_success(cfg, alloc, 0, trials, seed, workers=np.int64(2)),
            link_success_table(cfg, [alloc], 0, trials, seed)[0],
            link_success_sweep(cfg, alloc, 0, [1.0], trials, seed)[0],
            direct_distribution_outage(2, 1, [2], 1.0, trials, seed),
        ):
            assert type(est.trials) is int


class TestMarginals:
    def test_signal_and_summand_means(self):
        # Nulling k-1 directions leaves a chi-squared signal with
        # 2(M-k+1) degrees of freedom (mean M-k+1 in power units) while
        # each interference column keeps unit mean power.
        cfg_base = dict(num_links=3, num_antennas=4, sir_threshold=1.0)
        trials = 50_000
        for k in (1, 2, 4):
            cfg = SystemConfig(**cfg_base)
            alloc = StreamAllocation((k, 2, 1))
            signal, summands = link_power_samples(cfg, alloc, 0, trials, seed=k)
            target = cfg.num_antennas - k + 1
            se = math.sqrt(target / trials)
            assert abs(np.mean(signal) - target) < 4 * se
            assert summands.size == trials * (2 + 1)
            assert abs(np.mean(summands) - 1.0) < 4 / math.sqrt(summands.size)

    def test_full_channel_matches_direct_model(self):
        # Two independently coded paths to the same SIR distribution.
        cfg = SystemConfig(3, 4, 1.0)
        alloc = StreamAllocation((2, 1, 2))
        full = link_sir_samples(cfg, alloc, 0, 10_000, seed=31)
        direct = direct_sir_samples(4, 2, [1, 2], 10_000, seed=77)
        result = stats.ks_2samp(full, direct)
        assert result.pvalue > 0.01

    def test_direct_single_antenna_closed_form(self):
        for beta in (0.5, 1.0, 4.0):
            est = direct_distribution_outage(1, 1, [1, 1, 1], beta, 200_000, seed=5)
            expected = success_prob_equal_k(1, 4, 1, 1, beta)
            assert abs(est.prob - expected) < 3 * max(est.std_error, 1e-4)

    def test_direct_validation(self):
        with pytest.raises(DomainError):
            direct_distribution_outage(2, 3, [1], 1.0, 100, seed=0)
        with pytest.raises(DomainError):
            direct_distribution_outage(2, 1, [], 1.0, 100, seed=0)
        with pytest.raises(DomainError):
            direct_distribution_outage(2, 1, [1], -1.0, 100, seed=0)


class TestOutageEstimates:
    def test_matches_analytic_within_error(self):
        cfg = SystemConfig(8, 4, 2**1.0 - 1, 1.0)
        alloc = StreamAllocation.uniform(8, 1)
        report = empirical_outage(cfg, alloc, 100_000, seed=42)
        exact = sum_capacity_analytic(cfg, alloc)
        for p_mc, p_exact, se in zip(
            report.per_link_success_prob, exact.per_link_success_prob, report.std_error
        ):
            assert abs(p_mc - p_exact) < 3 * max(se, 1e-4)

    def test_report_identities(self):
        cfg = SystemConfig(2, 2, 1.0, rate=1.5)
        alloc = StreamAllocation((1, 2))
        report = empirical_outage(cfg, alloc, 5_000, seed=9)
        for k, p, c in zip(
            alloc.streams, report.per_link_success_prob, report.per_link_capacity
        ):
            assert c == cfg.rate * k * p
        assert report.sum_capacity == math.fsum(report.per_link_capacity)


# One caller per sampler's public entry point, each taking (trials, seed).
_SAMPLERS = {
    "full_channel": lambda trials, seed: empirical_link_success(
        SystemConfig(2, 2, 1.0), StreamAllocation((1, 1)), 0, trials, seed
    ),
    "direct": lambda trials, seed: direct_distribution_outage(
        2, 1, [1], 1.0, trials, seed
    ),
}


class TestDirectArguments:
    @pytest.mark.parametrize(
        "num_antennas, k_others",
        [(4, [1.7, 2]), (True, [1])],
        ids=["k_others_float", "antennas_true"],
    )
    def test_invalid(self, num_antennas, k_others):
        with pytest.raises(DomainError):
            direct_distribution_outage(num_antennas, 1, k_others, 1.0, 100, 0)


class TestTrialAndSeedArguments:
    @pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
    @pytest.mark.parametrize(
        "trials, seed",
        [(100, -1), (100, 2**128), (True, 0), (100, True)],
        ids=["seed_negative", "seed_2_128", "trials_true", "seed_true"],
    )
    def test_rejected_before_sampling(self, sampler, trials, seed):
        with pytest.raises(DomainError):
            _SAMPLERS[sampler](trials, seed)

    @pytest.mark.parametrize("sampler", sorted(_SAMPLERS))
    def test_seed_range_ends_accepted(self, sampler):
        for seed in (0, 2**128 - 1):
            _SAMPLERS[sampler](100, seed)


@pytest.fixture
def pools_opened(monkeypatch):
    """max_workers of every thread pool a Monte Carlo call opens."""
    sizes = []

    class SpyPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SpyPool)
    return sizes


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -3, True, 1.5])
    def test_rejected_before_sampling(self, workers):
        with pytest.raises(DomainError):
            empirical_link_success(
                SystemConfig(2, 2, 1.0), StreamAllocation((1, 1)), 0, 100, 0,
                workers=workers,
            )
        with pytest.raises(DomainError):
            direct_distribution_outage(2, 1, [1], 1.0, 100, 0, workers=workers)

    @pytest.mark.parametrize(
        "workers, cpus, blocks, threads",
        [
            (8, 3, 5, 3),
            (2, 8, 5, 2),
            (64, 64, 5, 5),
            (8, 1, 5, None),
            (8, None, 5, None),
            (2, 2, 2, 2),
        ],
        ids=["cpus", "workers", "blocks", "one_cpu", "unknown_cpus", "two_blocks"],
    )
    def test_pool_capped(
        self, monkeypatch, pools_opened, workers, cpus, blocks, threads
    ):
        # A call opens a pool of min(workers, blocks, cpus) threads, and
        # none when that is 1: the caller then runs every block itself.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        trials = blocks * BLOCK_TRIALS
        est = direct_distribution_outage(2, 1, [1], 1.0, trials, 4, workers=workers)
        assert pools_opened == ([] if threads is None else [threads])
        assert est == direct_distribution_outage(2, 1, [1], 1.0, trials, 4)

    def test_default_is_every_cpu(self, monkeypatch, pools_opened):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        cfg, alloc = SystemConfig(2, 2, 1.0), StreamAllocation((1, 1))
        est = empirical_link_success(cfg, alloc, 0, 3 * BLOCK_TRIALS, 5)
        assert pools_opened == [2]
        assert est == empirical_link_success(
            cfg, alloc, 0, 3 * BLOCK_TRIALS, 5, workers=1
        )

    def test_samples_merged_in_block_order(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        cfg, alloc = SystemConfig(3, 3, 1.0), StreamAllocation((2, 1, 3))
        trials = 4 * BLOCK_TRIALS + 100
        np.testing.assert_array_equal(
            link_sir_samples(cfg, alloc, 0, trials, 6, workers=3),
            link_sir_samples(cfg, alloc, 0, trials, 6),
        )
        np.testing.assert_array_equal(
            direct_sir_samples(3, 2, [1, 3], trials, 6, workers=3),
            direct_sir_samples(3, 2, [1, 3], trials, 6),
        )

    def test_pool_thread_runs_serially(self, monkeypatch):
        # A parallel call made on a thread of another executor opens its
        # own pool, so it cannot wait on the pool it runs on, and it
        # returns its serial result.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        cfg, alloc = SystemConfig(3, 2, 1.0), StreamAllocation((1, 2, 1))

        def call(workers):
            return empirical_link_success(
                cfg, alloc, 0, 2 * BLOCK_TRIALS, 5, workers=workers
            )

        outer = ThreadPoolExecutor(1)
        nested = outer.submit(call, 2).result(timeout=120)
        outer.shutdown()
        assert nested == call(1)

    def test_no_thread_outlives_a_call(self, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        before = threading.active_count()
        direct_distribution_outage(2, 1, [1], 1.0, 2 * BLOCK_TRIALS, 3, workers=2)
        assert threading.active_count() == before
        alive = [t.name for t in threading.enumerate()]
        assert not [name for name in alive if name.startswith("zfoutage-mc")]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        # A forked child inherits none of its parent's threads.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        cfg, alloc = SystemConfig(3, 2, 1.0), StreamAllocation((2, 1, 1))

        def call():
            return empirical_link_success(cfg, alloc, 0, 3 * BLOCK_TRIALS, 8, workers=2)

        expected = call()

        def child():
            assert call() == expected

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=120)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail("the forked child waited on its parent's pool threads")
        assert proc.exitcode == 0


class TestConcurrentCallers:
    def test_each_thread_gets_its_serial_results(self, monkeypatch):
        # Two threads run parallel calls at once; each result must equal
        # its own serial call bit for bit, resample count included.
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        cfg = SystemConfig(4, 3, 1.0)
        trials = 3 * BLOCK_TRIALS + 7

        def full(streams):
            alloc = StreamAllocation(streams)
            return lambda w: empirical_link_success(cfg, alloc, 0, trials, 17, workers=w)

        calls = [
            full((1, 2, 3, 1)),  # k_self = 1
            full((2, 1, 3, 1)),  # 1 < k_self < M
            full((3, 1, 2, 2)),  # k_self = M
            lambda w: direct_distribution_outage(3, 2, [1, 3], 1.0, trials, 17, workers=w),
        ]
        serial = [call(1) for call in calls]
        orders = [list(range(len(calls))), list(reversed(range(len(calls))))]
        results = [{} for _ in orders]
        errors = []
        barrier = threading.Barrier(len(orders))

        def run(order, out):
            try:
                barrier.wait(timeout=60)
                for _ in range(2):
                    for i in order:
                        out.setdefault(i, []).append(calls[i](2))
            except BaseException as exc:  # reported below, in the test thread
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(order, out))
            for order, out in zip(orders, results)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert not any(t.is_alive() for t in threads)
        for out in results:
            for i, expected in enumerate(serial):
                for got in out[i]:
                    assert got == expected
                    assert got.resampled == expected.resampled
