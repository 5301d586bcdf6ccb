"""Best responses, allocation search, and the empirical link threshold."""

import math

import numpy as np
import pytest

from zfoutage import optimizer
from zfoutage.analytic import (
    link_success_prob,
    min_links_single_stream,
    sum_capacity_analytic,
)
from zfoutage.core import (
    DomainError,
    SearchBudgetError,
    StreamAllocation,
    SystemConfig,
)
from zfoutage.montecarlo import empirical_link_success
from zfoutage.optimizer import (
    best_response,
    empirical_threshold,
    maximize_sum_capacity,
)


def _direct_argmax(config, alloc, link):
    """Independent scan of k -> rate * k * P for cross-checking."""
    best_k, best_value = 0, -np.inf
    for k in range(1, config.num_antennas + 1):
        candidate = alloc.replace(link, k)
        value = config.rate * k * link_success_prob(config, candidate, link)
        if value > best_value:
            best_k, best_value = k, value
    return best_k


class TestBestResponse:
    def test_crowded_network_prefers_single_stream(self):
        cfg = SystemConfig(30, 10, 1.0)
        assert best_response(cfg, StreamAllocation.uniform(30, 1), 0) == 1

    def test_single_antenna_has_no_choice(self):
        cfg = SystemConfig(4, 1, 1.0)
        assert best_response(cfg, StreamAllocation.uniform(4, 1), 2) == 1

    def test_high_threshold_prefers_single_stream(self):
        cfg = SystemConfig(5, 5, 4.0)
        assert best_response(cfg, StreamAllocation.uniform(5, 1), 0) == 1

    def test_sparse_network_multiplexes(self):
        # Two links, five antennas, lenient threshold: worth spending
        # antennas on streams rather than nulling.
        cfg = SystemConfig(2, 5, 0.1)
        k = best_response(cfg, StreamAllocation.uniform(2, 1), 0)
        assert k > 1
        assert k == _direct_argmax(cfg, StreamAllocation.uniform(2, 1), 0)

    def test_matches_direct_argmax(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(2, 7))
            cfg = SystemConfig(n, m, float(rng.uniform(0.2, 4.0)))
            alloc = StreamAllocation(
                tuple(int(rng.integers(1, m + 1)) for _ in range(n))
            )
            link = int(rng.integers(0, n))
            assert best_response(cfg, alloc, link) == _direct_argmax(cfg, alloc, link)

    def test_crowded_mixed_interferers_prefer_single_stream(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = int(rng.integers(2, 6))
            n = 40
            others = tuple(int(rng.integers(1, m + 1)) for _ in range(n - 1))
            cfg = SystemConfig(n, m, 1.0)
            assert best_response(cfg, StreamAllocation((1,) + others), 0) == 1

    def test_montecarlo_objective_deterministic(self):
        cfg = SystemConfig(3, 2, 1.0)
        alloc = StreamAllocation.uniform(3, 1)
        a = best_response(cfg, alloc, 0, objective="montecarlo", trials=5000, seed=3)
        b = best_response(cfg, alloc, 0, objective="montecarlo", trials=5000, seed=3)
        assert a == b

    def test_montecarlo_matches_single_calls(self):
        # The first strict maximum of the per-candidate estimates, each
        # made by its own call on the shared seed.
        cfg = SystemConfig(4, 3, 0.5)
        alloc = StreamAllocation((1, 2, 1, 3))
        values = [
            cfg.rate * k * empirical_link_success(
                cfg, alloc.replace(1, k), 1, 5000, 8, workers=1
            ).prob
            for k in (1, 2, 3)
        ]
        expected = 1 + values.index(max(values))
        got = best_response(cfg, alloc, 1, "montecarlo", trials=5000, seed=8, workers=2)
        assert got == expected

    def test_validation(self):
        cfg = SystemConfig(2, 2, 1.0)
        alloc = StreamAllocation((1, 1))
        with pytest.raises(DomainError):
            best_response(cfg, alloc, 2)
        with pytest.raises(DomainError):
            best_response(cfg, alloc, 0, objective="bogus")
        with pytest.raises(DomainError):
            best_response(cfg, alloc, 0, objective="montecarlo")


class TestExhaustiveSearch:
    def test_single_candidate(self):
        cfg = SystemConfig.from_rate(2, 1, 1.0)
        res = maximize_sum_capacity(cfg, mode="exhaustive")
        assert res.best_allocation == StreamAllocation((1, 1))
        assert res.evaluations == 1
        assert res.per_candidate_values == {(1, 1): 1.0}
        np.testing.assert_allclose(res.best_value, 1.0, rtol=1e-14)

    def test_three_by_three_prefers_all_ones(self):
        cfg = SystemConfig(3, 3, 1.0)
        res = maximize_sum_capacity(cfg, mode="exhaustive")
        assert res.best_allocation == StreamAllocation((1, 1, 1))
        assert len(res.per_candidate_values) == 27
        assert res.evaluations == 27

    def test_table_invariants(self):
        cfg = SystemConfig(2, 3, 0.7)
        res = maximize_sum_capacity(cfg, mode="exhaustive")
        tab = res.per_candidate_values
        assert res.best_value == max(tab.values())
        assert tab[res.best_allocation.streams] == res.best_value
        for streams, value in tab.items():
            report = sum_capacity_analytic(cfg, StreamAllocation(streams))
            assert report.sum_capacity == value
        assert res.fixed_point is None

    def test_ties_resolve_lexicographically(self):
        # (1,2) and (2,1) carry the same sum by symmetry; the scan keeps
        # the first one it sees.
        cfg = SystemConfig(2, 3, 1.0)
        res = maximize_sum_capacity(cfg, mode="exhaustive")
        tab = res.per_candidate_values
        assert tab[(1, 2)] == tab[(2, 1)] == res.best_value
        assert res.best_allocation == StreamAllocation((1, 2))

    def test_budget_guard(self):
        cfg = SystemConfig(8, 10, 1.0)
        with pytest.raises(SearchBudgetError):
            maximize_sum_capacity(cfg, mode="exhaustive", budget=10_000)

    def test_montecarlo_objective_deterministic(self):
        cfg = SystemConfig(3, 2, 1.0)
        kwargs = dict(mode="exhaustive", objective="montecarlo", trials=5000, seed=3)
        a = maximize_sum_capacity(cfg, **kwargs)
        b = maximize_sum_capacity(cfg, **kwargs)
        assert a.best_allocation == b.best_allocation
        assert a.best_value == b.best_value
        assert a.per_candidate_values == b.per_candidate_values

    def test_montecarlo_table_matches_single_calls(self):
        cfg = SystemConfig(3, 2, 1.0)
        result = maximize_sum_capacity(
            cfg, objective="montecarlo", trials=5000, seed=3, workers=2
        )
        for streams, value in result.per_candidate_values.items():
            alloc = StreamAllocation(streams)
            assert value == math.fsum(
                cfg.rate * alloc.streams[link]
                * empirical_link_success(cfg, alloc, link, 5000, 3).prob
                for link in range(3)
            )

    @pytest.mark.parametrize("objective", ["analytic", "montecarlo"])
    def test_evaluated_in_chunks(self, monkeypatch, objective):
        # Chunks of 5 of the 27 allocations give the whole-table result.
        cfg = SystemConfig(3, 3, 1.0)
        kwargs = dict(objective=objective, trials=3000, seed=2)
        whole = maximize_sum_capacity(cfg, **kwargs)
        monkeypatch.setattr(optimizer, "_SEARCH_CHUNK", 5)
        assert maximize_sum_capacity(cfg, **kwargs) == whole

    def test_mode_validation(self):
        cfg = SystemConfig(2, 2, 1.0)
        with pytest.raises(DomainError):
            maximize_sum_capacity(cfg, mode="bogus")
        with pytest.raises(DomainError):
            maximize_sum_capacity(cfg, mode="exhaustive", objective="montecarlo")


class TestCoordinateSearch:
    def test_fixed_point_is_mutual_best_response(self):
        for n, m, beta in [(2, 3, 1.0), (3, 3, 0.2), (4, 2, 1.0), (3, 2, 4.0)]:
            cfg = SystemConfig(n, m, beta)
            res = maximize_sum_capacity(cfg, mode="coordinate")
            assert res.fixed_point is True
            assert res.per_candidate_values is None
            for link in range(n):
                assert (
                    best_response(cfg, res.best_allocation, link)
                    == res.best_allocation.streams[link]
                )

    def test_agrees_with_exhaustive_on_small_grids(self):
        for n in (2, 3, 4):
            for m in (1, 2, 3):
                for beta in (0.25, 1.0, 4.0):
                    cfg = SystemConfig(n, m, beta)
                    ex = maximize_sum_capacity(cfg, mode="exhaustive")
                    co = maximize_sum_capacity(cfg, mode="coordinate")
                    assert co.best_value <= ex.best_value * (1 + 1e-12)
                    assert math.isclose(co.best_value, ex.best_value, rel_tol=1e-9)

    def test_value_matches_reported_allocation(self):
        cfg = SystemConfig(3, 3, 1.0)
        res = maximize_sum_capacity(cfg, mode="coordinate")
        report = sum_capacity_analytic(cfg, res.best_allocation)
        assert res.best_value == report.sum_capacity

    def test_sweep_budget_reported(self):
        # This config moves away from all-ones on the first sweep, so a
        # single-sweep budget cannot certify a fixed point.
        cfg = SystemConfig(2, 3, 1.0)
        res = maximize_sum_capacity(cfg, mode="coordinate", max_sweeps=1)
        assert res.fixed_point is False
        with pytest.raises(DomainError):
            maximize_sum_capacity(cfg, mode="coordinate", max_sweeps=0)


class TestEmpiricalThreshold:
    def test_single_antenna(self):
        res = empirical_threshold(1, 1.0)
        assert res.threshold == 2
        assert res.analytic == min_links_single_stream(1, 1.0)

    def test_ten_antennas_below_analytic_bound(self):
        res = empirical_threshold(10, 1.0)
        assert res.threshold == 6
        assert res.threshold <= res.analytic.n_star == 31

    def test_monotone_in_threshold(self):
        values = [empirical_threshold(5, b).threshold for b in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert values == sorted(values, reverse=True)

    def test_analytic_bound_dominates(self):
        for m in (3, 5, 10):
            for beta in (1.0, 2.0, 4.0):
                res = empirical_threshold(m, beta)
                assert res.threshold <= res.analytic.n_star

    def test_window_recorded(self):
        assert empirical_threshold(3, 1.0, window=2).window == 2

    def test_cap_guard(self):
        with pytest.raises(SearchBudgetError):
            empirical_threshold(10, 1.0, cap=3)

    def test_validation(self):
        with pytest.raises(DomainError):
            empirical_threshold(0, 1.0)
        with pytest.raises(DomainError):
            empirical_threshold(3, -1.0)
        with pytest.raises(DomainError):
            empirical_threshold(3, 1.0, k_other=4)
        with pytest.raises(DomainError):
            empirical_threshold(3, 1.0, window=-1)
        with pytest.raises(DomainError):
            empirical_threshold(3, 1.0, window=1.5)
        with pytest.raises(DomainError):
            empirical_threshold(3, 1.0, cap=1.5)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_threshold_agrees_with_best_response(self, m):
        # empirical_threshold and best_response pick the best stream count
        # by one rule, so the threshold is where best_response turns to 1
        # on a uniform allocation and stays there for the window.
        for beta in (0.25, 1.0, 4.0):
            for k_other in range(1, min(m, 2) + 1):
                res = empirical_threshold(m, beta, k_other)

                def best(n):
                    alloc = StreamAllocation.uniform(n, k_other)
                    return best_response(SystemConfig(n, m, beta), alloc, 0)

                t = res.threshold
                assert all(best(n) == 1 for n in range(t, t + res.window + 1))
                if t > 2:
                    assert best(t - 1) != 1
