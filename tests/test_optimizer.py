"""Best responses, allocation search, and the empirical link threshold."""

import functools
import math
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import exact_threshold
from zfoutage import analytic, optimizer
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
from zfoutage.montecarlo import empirical_link_success, empirical_outage
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
            beta = float(rng.uniform(0.2, 4.0))
            alloc = StreamAllocation(
                tuple(int(rng.integers(1, m + 1)) for _ in range(n))
            )
            link = int(rng.integers(0, n))
            for rate in (1.0, 0.3, 1.7):
                cfg = SystemConfig(n, m, beta, rate)
                assert best_response(cfg, alloc, link) == _direct_argmax(
                    cfg, alloc, link
                )

    def test_builds_no_candidate_allocation(self, count_closed_forms, monkeypatch):
        # One closed form per candidate k, with no candidate allocation
        # built and no per-allocation link_success_prob call.
        def explode(*args, **kwargs):
            raise AssertionError("candidate allocation built")

        monkeypatch.setattr(StreamAllocation, "replace", explode)
        monkeypatch.setattr(analytic, "link_success_prob", explode)
        cfg = SystemConfig(30, 10, 1.3)
        k, calls = count_closed_forms(
            best_response, cfg, StreamAllocation.uniform(30, 1), 0
        )
        assert (k, calls) == (1, 10)

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

    # Per-stream success by k_self at M=4: capacities 0.1, 0.5, 0.3 and
    # 0.5, so k = 2 and k = 4 tie exactly in binary.
    TIED_SUCCESS = (0.1, 0.25, 0.1, 0.125)

    def test_analytic_tie_goes_to_smallest_k(self, monkeypatch):
        monkeypatch.setattr(
            analytic, "_success", lambda m, k, beta, groups: self.TIED_SUCCESS[k - 1]
        )
        cfg = SystemConfig(3, 4, 1.0)
        assert best_response(cfg, StreamAllocation.uniform(3, 1), 0) == 2

    def test_montecarlo_tie_goes_to_smallest_k(self, monkeypatch):
        def table(config, allocs, link, trials, seed, *, workers=None):
            return [
                SimpleNamespace(prob=self.TIED_SUCCESS[a.streams[link] - 1])
                for a in allocs
            ]

        monkeypatch.setattr(optimizer, "link_success_table", table)
        cfg = SystemConfig(3, 4, 1.0)
        got = best_response(
            cfg, StreamAllocation.uniform(3, 1), 1, "montecarlo", trials=1000, seed=5
        )
        assert got == 2

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
        cfg = SystemConfig(2, 1, 2**1.0 - 1, 1.0)
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

    def test_each_distinct_link_term_evaluated_once(self, count_closed_forms):
        # 4 own stream counts times C(8, 5) = 56 multisets of the five
        # other links' counts, against 6 * 4**6 = 24,576 per-link terms.
        res, calls = count_closed_forms(maximize_sum_capacity, SystemConfig(6, 4, 1.3))
        assert calls == 224
        assert res.evaluations == len(res.per_candidate_values) == 4**6

    def test_terms_shared_across_the_whole_search(self, count_closed_forms):
        # 4 * C(10, 7) = 480 terms for 65,536 allocations, more than one
        # Monte Carlo chunk holds: no memo ends at a chunk border.
        res, calls = count_closed_forms(maximize_sum_capacity, SystemConfig(8, 4, 1.3))
        assert calls == 480
        assert res.evaluations == len(res.per_candidate_values) == 4**8

    @pytest.mark.parametrize("beta", [0.3, 1.3, 5.0])
    def test_table_is_each_allocations_sum_capacity(self, beta):
        # Every allocation of every grid point, bit for bit, and the best
        # is the lexicographically smallest allocation with the top value.
        for n, m in product(range(2, 7), range(1, 5)):
            cfg = SystemConfig(n, m, beta, rate=1.7)
            res = maximize_sum_capacity(cfg)
            table = res.per_candidate_values
            assert list(table) == list(product(range(1, m + 1), repeat=n))
            for streams, value in table.items():
                report = sum_capacity_analytic(cfg, StreamAllocation(streams))
                assert value.hex() == report.sum_capacity.hex(), (n, m, streams)
            top = max(table.values())
            assert res.best_value == top
            assert res.best_allocation.streams == min(
                streams for streams, value in table.items() if value == top
            )

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

    @pytest.mark.parametrize("mode", ["exhaustive", "coordinate"])
    @pytest.mark.parametrize(
        "limits",
        [
            {"budget": "x"},
            {"budget": True},
            {"budget": 1.5e9},
            {"budget": 0},
            {"budget": -5},
            {"max_sweeps": 1.5},
            {"max_sweeps": 0},
        ],
        ids=["budget_str", "budget_bool", "budget_float", "budget_0",
             "budget_negative", "sweeps_float", "sweeps_0"],
    )
    def test_search_limits_checked_in_both_modes(self, mode, limits):
        with pytest.raises(DomainError, match="must be an int >= 1"):
            maximize_sum_capacity(SystemConfig(2, 2, 1.0), mode=mode, **limits)

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

    @pytest.mark.parametrize("objective", ["analytic", "montecarlo"])
    def test_value_matches_reported_allocation(self, objective):
        # The value `zfoutage capacity` prints for the allocation, bit for bit.
        cfg = SystemConfig(3, 3, 1.0)
        mc = dict(trials=3000, seed=2, workers=2)
        if objective == "analytic":
            res = maximize_sum_capacity(cfg, mode="coordinate")
            report = sum_capacity_analytic(cfg, res.best_allocation)
        else:
            res = maximize_sum_capacity(cfg, mode="coordinate", objective=objective, **mc)
            report = empirical_outage(cfg, res.best_allocation, **mc)
        assert res.best_value.hex() == report.sum_capacity.hex()

    @pytest.mark.parametrize("beta", [0.25, 1.0])
    def test_final_value_is_one_closed_form(self, count_closed_forms, beta):
        # One sweep of 30 links times 10 candidates from the all-ones
        # fixed point, then one closed form for the 30 equal links.
        cfg = SystemConfig(30, 10, beta)
        res, calls = count_closed_forms(maximize_sum_capacity, cfg, mode="coordinate")
        assert res.best_allocation == StreamAllocation.uniform(30, 1)
        assert res.fixed_point is True
        assert calls == 30 * 10 + 1

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


# Every k_other <= M over M = 1..12 and eight moderate thresholds, then
# thresholds at both ends of the float range for a few M.
THRESHOLD_GRID = [
    (m, beta, k_other)
    for m in range(1, 13)
    for beta in (0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
    for k_other in range(1, m + 1)
] + [
    (m, beta, k_other)
    for m in (1, 3, 10)
    for beta in (1e-15, 1e-5, 1e8, 1e308)
    for k_other in range(1, m + 1)
]


def _threshold_outcome(scan, cell):
    """The scan's ThresholdResult for ``cell``, or its SearchBudgetError message."""
    try:
        return scan(*cell)
    except SearchBudgetError as err:
        return str(err)


@pytest.fixture(scope="module")
def reference_thresholds():
    return {cell: _threshold_outcome(exact_threshold, cell) for cell in THRESHOLD_GRID}


def _grid_mismatches(reference):
    """The grid cells where empirical_threshold differs from ``reference``."""
    return [
        cell
        for cell in THRESHOLD_GRID
        if _threshold_outcome(empirical_threshold, cell) != reference[cell]
    ]


class TestRankedThresholdScan:
    def test_grid_matches_exact_scan(self, reference_thresholds):
        assert len(THRESHOLD_GRID) == 624 + 56
        assert _grid_mismatches(reference_thresholds) == []

    def test_separated_link_counts_make_no_closed_form(self, count_closed_forms):
        res, calls = count_closed_forms(empirical_threshold, 10, 0.01)
        assert (res.threshold, calls) == (438, 0)

    def test_underflow_goes_to_exact_kernel(self, count_closed_forms):
        # The scan reaches N = 7.  From N = 5 on, t_0 = (1 + 1e8*k/10)^-((N-1)*10)
        # is below the smallest normal float for k >= 5.
        res, calls = count_closed_forms(empirical_threshold, 10, 1e8, 10)
        assert res.threshold == 2
        assert calls >= 1

    def test_exact_kernel_everywhere_changes_nothing(
        self, reference_thresholds, monkeypatch, count_closed_forms
    ):
        monkeypatch.setattr(analytic, "_RANK_REL_GAP", math.inf)
        # Every N goes to the exact kernel: M closed forms for each N the
        # scan reaches, 2..threshold + window.
        res, calls = count_closed_forms(empirical_threshold, 3, 1.0)
        assert calls == 3 * (res.threshold + res.window - 1)
        # inf * 0 is nan at an N whose every t_0 underflowed; that N is
        # undecided already.
        with np.errstate(invalid="ignore"):
            assert _grid_mismatches(reference_thresholds) == []

    def test_close_calls_do_not_grow_with_link_count(self, monkeypatch):
        # Every N goes to the exact kernel, and the scan reaches N = 10,000;
        # each close call still hands _groups one entry per stream count.
        monkeypatch.setattr(analytic, "_RANK_REL_GAP", math.inf)
        sizes = []
        groups = analytic._groups

        def spy(others):
            sizes.append(len(others))
            return groups(others)

        monkeypatch.setattr(analytic, "_groups", spy)
        with pytest.raises(SearchBudgetError):
            empirical_threshold(3, 1e-15)
        assert len(sizes) == 9_999
        assert max(sizes) <= 3

    def test_scan_stops_once_no_threshold_can_follow(
        self, monkeypatch, count_closed_forms
    ):
        # The best response at beta = 1e-15 is 3 at every N, so at N = cap
        # no run of ones can start at or below the cap, whatever the window.
        monkeypatch.setattr(analytic, "_RANK_REL_GAP", math.inf)
        scan = functools.partial(empirical_threshold, cap=10, window=1000)
        outcome, calls = count_closed_forms(_threshold_outcome, scan, (3, 1e-15, 1))
        assert outcome == (
            "no stable single-stream threshold found up to N = 10 "
            "(M=3, beta=1e-15, k_other=1)"
        )
        assert calls == 3 * 9
