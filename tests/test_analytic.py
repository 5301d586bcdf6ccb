"""Closed-form success probabilities, the gamma fit, and the link threshold."""

import math
import random
import tracemalloc
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from oracles import (
    equal_k_success_quad,
    hetero_success_mp,
    min_links_reference,
    sample_weighted_exp,
    shifted_equal_k_series,
    weighted_exp_moments,
)
import zfoutage.analytic as analytic
from zfoutage.analytic import (
    NStarResult,
    link_success_prob,
    min_links_single_stream,
    multiset_sum_capacities,
    success_prob_equal_k,
    success_prob_general,
    sum_capacity_analytic,
)
from zfoutage.core import (
    DomainError,
    NumericalError,
    OutageReport,
    SearchBudgetError,
    StreamAllocation,
    SystemConfig,
    clamp_count,
    reset_clamp_count,
)


class TestEqualKSuccess:
    def test_single_antenna_pair(self):
        # One antenna, one interferer: P = 1/(1+beta).
        assert success_prob_equal_k(1, 2, 1, 1, 1.0) == 0.5
        np.testing.assert_allclose(success_prob_equal_k(1, 2, 1, 1, 3.0), 0.25, rtol=1e-14)

    def test_two_antennas_single_stream(self):
        np.testing.assert_allclose(success_prob_equal_k(2, 2, 1, 1, 1.0), 0.75, rtol=1e-14)

    def test_full_multiplexing_two_antennas(self):
        # k_self = M leaves a single series term 1/(1+beta*k_self)^lambda.
        for beta in (0.5, 1.0, 2.0, 4.0):
            np.testing.assert_allclose(
                success_prob_equal_k(2, 2, 2, 1, beta), 1.0 / (1.0 + 2.0 * beta), rtol=1e-14
            )

    def test_single_interferer_geometric_form(self):
        # With N=2 and k_other=1 the series telescopes to
        # 1 - (d/(1+d))^(M-k_self+1), d = beta*k_self.
        rng = np.random.default_rng(42)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            ks = int(rng.integers(1, m + 1))
            beta = float(rng.uniform(0.1, 5.0))
            d = beta * ks
            expected = 1.0 - (d / (1.0 + d)) ** (m - ks + 1)
            np.testing.assert_allclose(
                success_prob_equal_k(m, 2, ks, 1, beta), expected, rtol=1e-12
            )

    def test_against_quadrature(self):
        for m, n, ks, ko, beta in [
            (4, 8, 2, 1, 1.0),
            (3, 4, 3, 2, 0.5),
            (8, 16, 1, 2, 4.0),
            (6, 3, 5, 4, 0.25),
        ]:
            np.testing.assert_allclose(
                success_prob_equal_k(m, n, ks, ko, beta),
                equal_k_success_quad(m, n, ks, ko, beta),
                rtol=1e-8,
            )

    def test_shifted_series_disagrees_where_terms_remain(self):
        # The alternative indexing only coincides on short series; at a
        # point with several terms it misses the integral badly while the
        # default form stays on it.
        reference = equal_k_success_quad(4, 8, 2, 1, 1.0)
        corrected = success_prob_equal_k(4, 8, 2, 1, 1.0)
        shifted = shifted_equal_k_series(4, 8, 2, 1, 1.0)
        np.testing.assert_allclose(corrected, reference, rtol=1e-8)
        assert abs(shifted - reference) / reference > 1.0

    def test_monotone_decreasing_in_links(self):
        values = [success_prob_equal_k(4, n, 2, 1, 1.0) for n in range(2, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_decreasing_in_own_streams(self):
        values = [success_prob_equal_k(6, 4, k, 2, 1.0) for k in range(1, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_decreasing_in_threshold(self):
        values = [success_prob_equal_k(4, 4, 2, 1, b) for b in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bounds_on_grid(self):
        for m in (1, 2, 4, 8):
            for n in (2, 4, 16):
                for ks in {1, 2, m}:
                    if ks > m:
                        continue
                    for beta in (0.5, 1.0, 4.0):
                        p = success_prob_equal_k(m, n, ks, 1, beta)
                        assert 0.0 <= p <= 1.0

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            success_prob_equal_k(0, 2, 1, 1, 1.0)
        with pytest.raises(DomainError):
            success_prob_equal_k(2, 1, 1, 1, 1.0)
        with pytest.raises(DomainError):
            success_prob_equal_k(2, 2, 3, 1, 1.0)
        with pytest.raises(DomainError):
            success_prob_equal_k(2, 2, 1, 0, 1.0)
        with pytest.raises(DomainError):
            success_prob_equal_k(2, 2, 1, 1, 0.0)
        with pytest.raises(DomainError):
            success_prob_equal_k(True, 2, 1, 1, 1.0)

    @pytest.mark.parametrize(
        "args",
        [(10**309, 2, 10**309, 10**309, 1.0), (2, 10**308, 1, 1, 1.0)],
        ids=["count_beyond_float", "log_gamma_beyond_float"],
    )
    def test_interferer_count_beyond_the_float_range(self, args):
        # (N-1)*k_other past the largest float, or a finite one whose
        # log-gamma overflows: a NumericalError, not a bare OverflowError.
        with pytest.raises(NumericalError, match="largest float"):
            success_prob_equal_k(*args)


def _gamma_fit(k_others):
    """(shape, rate) of the one group success_prob_general passes on."""
    seen = []
    success = analytic._success

    def spy(num_antennas, k_self, beta, groups):
        seen.append(list(groups))
        return success(num_antennas, k_self, beta, groups)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytic, "_success", spy)
        success_prob_general(max(k_others), 1, k_others, 1.0)
    [[fit]] = seen
    return fit


def _weights(k_others):
    """k_m copies of 1/k_m per interferer: the interference's weights."""
    return [1.0 / k for k in k_others for _ in range(k)]


class TestGammaApprox:
    def test_moments(self):
        shape, rate = _gamma_fit([1, 2])
        np.testing.assert_allclose(shape / rate, 2.0, rtol=1e-14)
        np.testing.assert_allclose(shape / rate**2, 1.5, rtol=1e-14)

    def test_single_unit_weight(self):
        assert _gamma_fit([1]) == (1.0, 1.0)

    def test_equal_unit_weights_are_exact(self):
        assert _gamma_fit([1, 1, 1]) == (3.0, 1.0)
        assert _gamma_fit([3, 3]) == (6.0, 3.0)

    def test_mixed_weights(self):
        shape, rate = _gamma_fit([1, 2])  # weights 1, 1/2, 1/2
        np.testing.assert_allclose(shape, 8.0 / 3.0, rtol=1e-14)
        np.testing.assert_allclose(rate, 4.0 / 3.0, rtol=1e-14)

    def test_moments_match_target(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            count = int(rng.integers(1, 9))
            k_others = [int(k) for k in rng.integers(1, 13, size=count)]
            shape, rate = _gamma_fit(k_others)
            mean, var = weighted_exp_moments(_weights(k_others))
            np.testing.assert_allclose(shape / rate, mean, rtol=1e-14)
            np.testing.assert_allclose(shape / rate**2, var, rtol=1e-14)

    def test_moments_against_sampled_sum(self):
        weights = _weights([1, 2, 4])  # 1, 1/2 twice, 1/4 four times
        shape, rate = _gamma_fit([1, 2, 4])
        draws = sample_weighted_exp(weights, trials=1_000_000, seed=2024)
        _, var = weighted_exp_moments(weights)
        se_mean = math.sqrt(var / draws.size)
        assert abs(draws.mean() - shape / rate) < 4 * se_mean
        # Variance of the sample variance via the fourth central moment.
        centered = draws - draws.mean()
        m4 = float(np.mean(centered**4))
        se_var = math.sqrt((m4 - var**2) / draws.size)
        assert abs(draws.var() - shape / rate**2) < 4 * se_var


class TestGeneralSuccess:
    def test_matches_equal_k_when_uniform(self):
        # Equal counts fit Gamma(n*k, k) exactly, so the value is the
        # equal-k series bit for bit.
        for m in range(1, 11):
            for n in range(2, 41):
                for k_self, k in product(range(1, m + 1), repeat=2):
                    for beta in (0.1, 1.0, 7.0):
                        exact = success_prob_equal_k(m, n, k_self, k, beta)
                        general = success_prob_general(m, k_self, [k] * (n - 1), beta)
                        assert general == exact, (m, n, k_self, k, beta)

    def test_fit_error_against_the_exact_form(self):
        # Every multiset of 2-6 interferers with two or more distinct
        # counts, every k_self and beta in {0.25, 1, 4}, at M = 2..6.  Both
        # values are closed forms, so the worst error is exact.
        points, worst = 0, (0.0,)
        for m in range(2, 7):
            for n in range(2, 7):
                for others in combinations_with_replacement(range(1, m + 1), n):
                    if len(set(others)) < 2:
                        continue
                    for k_self, beta in product(range(1, m + 1), (0.25, 1.0, 4.0)):
                        alloc = StreamAllocation((k_self, *others))
                        exact = link_success_prob(SystemConfig(n + 1, m, beta), alloc, 0)
                        fit = success_prob_general(m, k_self, others, beta)
                        worst = max(worst, (abs(fit - exact), m, k_self, others, beta))
                        points += 1
        assert points == 25_326
        assert worst[1:] == (6, 2, (1, 6), 4.0)
        assert worst[0] == pytest.approx(0.023806774029523255, rel=1e-12)

    def test_large_counts_use_constant_memory(self):
        # The fit never lists the sum of k_m weights.
        tracemalloc.start()
        try:
            success_prob_general(10**5, 10**5, [10**5, 10**5], 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_fit_beyond_the_largest_float(self):
        with pytest.raises(NumericalError, match="largest float"):
            success_prob_general(10**309, 10**309, [10**309], 1.0)

    def test_fit_whose_log_gamma_overflows(self):
        # A finite shape of 2e307 overflows math.lgamma in the series.
        with pytest.raises(NumericalError, match="largest float"):
            success_prob_general(10**307, 10**307, [10**307, 10**307], 1.0)

    def test_mixed_interferers_stay_in_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(1, 9))
            ks = int(rng.integers(1, m + 1))
            others = [int(rng.integers(1, m + 1)) for _ in range(int(rng.integers(1, 6)))]
            beta = float(rng.uniform(0.1, 5.0))
            p = success_prob_general(m, ks, others, beta)
            assert 0.0 <= p <= 1.0

    def test_monotone_decreasing_in_threshold(self):
        values = [
            success_prob_general(4, 2, [1, 2, 3], b) for b in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            success_prob_general(4, 2, [], 1.0)
        with pytest.raises(DomainError):
            success_prob_general(4, 2, [5], 1.0)
        with pytest.raises(DomainError):
            success_prob_general(4, 2, [1, 0], 1.0)
        with pytest.raises(DomainError):
            success_prob_general(4, 5, [1], 1.0)


class TestExtremeThreshold:
    # d = beta*k_self/alpha underflows to 0 or overflows to inf at valid
    # thresholds.  At 0 only the r = 0 term, (1 + 0)^-lam = 1, is left; at
    # inf no term is.  The neighbouring finite values agree.
    def test_equal_k_series(self):
        assert success_prob_equal_k(3, 3, 1, 3, 5e-324) == 1.0  # d == 0
        assert success_prob_equal_k(3, 3, 1, 1, 5e-324) == 1.0  # d > 0
        assert success_prob_equal_k(3, 3, 3, 1, 1e308) == 0.0  # d == inf
        assert success_prob_equal_k(3, 3, 1, 1, 1e308) == 0.0  # d < inf

    def test_gamma_fit(self):
        # others (3, 2) fit rate 2.4, others (1, 2) rate 4/3.
        assert success_prob_general(3, 1, [3, 2], 5e-324) == 1.0  # d == 0
        assert success_prob_general(3, 1, [1, 2], 5e-324) == 1.0  # d > 0
        assert success_prob_general(3, 3, [1, 2], 1e308) == 0.0  # d == inf
        assert success_prob_general(3, 1, [1, 2], 1e308) == 0.0  # d < inf

    def test_exact_mixed_interferers(self):
        # s/alpha underflows in every group or in one; s overflows or not.
        def value(beta, streams):
            cfg = SystemConfig(len(streams), 3, beta)
            return link_success_prob(cfg, StreamAllocation(streams), 0)

        assert value(5e-324, (1, 2, 3)) == 1.0  # both d == 0
        assert value(5e-324, (1, 1, 3)) == 1.0  # d_1 > 0, d_3 == 0
        assert value(1e308, (3, 1, 2)) == 0.0  # s == inf
        assert value(1e308, (1, 1, 2)) == 0.0  # s < inf


class TestMinLinks:
    def test_single_antenna(self):
        result = min_links_single_stream(1, 1.0)
        assert result == NStarResult(n_star=6, binding_p=1)

    def test_ten_antennas(self):
        result = min_links_single_stream(10, 1.0)
        assert result.n_star == 31
        assert result.n_star > 10
        assert 1 <= result.binding_p <= 10

    def test_predicate_flips_below_threshold(self):
        # Just below the returned threshold the chain must not yet hold:
        # a run from a smaller floor would stop at the same place.
        for m, beta in [(1, 1.0), (5, 1.0), (3, 2.0)]:
            n_star = min_links_single_stream(m, beta).n_star
            if n_star > 2:
                assert min_links_single_stream(m, beta, cap=n_star).n_star == n_star
                with pytest.raises(SearchBudgetError):
                    min_links_single_stream(m, beta, cap=n_star - 1)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_definition_on_grid(self, m):
        # N* is the smallest N >= 2 at which every p's inequality holds,
        # in logs ((N-1)k - 1) * slope_p + offset_p >= 0; binding_p is the
        # p first satisfied at N* with the smallest margin there, and the
        # smallest such p on a tie.
        for beta in (0.01, 0.05, 0.2, 1 / 3, 1.0, 2.0, 7.5, 30.0, 100.0):
            for k_other in range(1, m + 1):
                k = float(k_other)

                def margin(p, n):
                    slope = math.log((k + beta * (p + 1)) / (k + beta * p))
                    offset = (m - p + 1) * math.log(beta / (k + beta)) - math.log(
                        (p + 1) / p
                    )
                    return ((n - 1) * k - 1.0) * slope + offset

                result = min_links_single_stream(m, beta, k_other)
                n_star, streams = result.n_star, range(1, m + 1)
                assert n_star >= 2
                assert all(margin(p, n_star) >= 0.0 for p in streams)
                if n_star > 2:
                    assert margin(result.binding_p, n_star - 1) < 0.0
                first = [
                    p for p in streams if n_star == 2 or margin(p, n_star - 1) < 0.0
                ]
                assert result.binding_p == min(first, key=lambda p: margin(p, n_star))

    @pytest.mark.parametrize("k_other", [1, 2, 3])
    def test_exact_reference_to_largest_floats(self, k_other):
        # N* against the same condition at 60 digits, for M = k_other..12
        # and beta = 10^-3 .. 10^308 in steps of 0.05 decades.  Past about
        # beta = 1e16, log(beta / (k + beta)) rounds to 0 in floats.
        for step in range(-60, 6161):
            beta = 10.0 ** (step / 20)
            for m, n_star in min_links_reference(12, beta, k_other).items():
                got = min_links_single_stream(m, beta, k_other).n_star
                assert got == n_star, (m, beta, k_other)

    def test_ends_of_the_float_range(self):
        # The largest float: beta*(p+1) overflows, k/beta is subnormal.
        assert min_links_single_stream(3, 1.7976931348623157e308).n_star == 4
        # The smallest: k/beta overflows, and no link count suffices.
        with pytest.raises(SearchBudgetError):
            min_links_single_stream(3, 5e-324, 3)

    def test_monotone_in_threshold(self):
        stars = [min_links_single_stream(5, b).n_star for b in (1.0, 2.0, 4.0, 8.0)]
        assert all(a >= b for a, b in zip(stars, stars[1:]))

    def test_single_stream_argmax_at_threshold(self):
        # At the returned link count, one stream per link maximizes the
        # uniform-allocation link capacity.
        for m in (2, 4, 8):
            for beta in (1.0, 2.0, 4.0):
                n_star = min_links_single_stream(m, beta).n_star
                cfg = SystemConfig(n_star, m, beta, rate=1.0)
                values = [
                    cfg.rate * k * success_prob_equal_k(m, n_star, k, k, beta)
                    for k in range(1, m + 1)
                ]
                assert max(range(m), key=values.__getitem__) == 0

    def test_validation(self):
        with pytest.raises(DomainError):
            min_links_single_stream(0, 1.0)
        with pytest.raises(DomainError):
            min_links_single_stream(2, -1.0)
        with pytest.raises(DomainError):
            min_links_single_stream(2, 1.0, k_other=0)
        with pytest.raises(DomainError):
            min_links_single_stream(True, 1.0)
        for cap in ("x", 2.5, True, -3, 1):
            with pytest.raises(DomainError, match="cap must be an int >= 2"):
                min_links_single_stream(2, 1.0, cap=cap)


class TestLinkDispatch:
    def test_equal_others_use_exact_series(self):
        cfg = SystemConfig(4, 4, 1.0)
        alloc = StreamAllocation((2, 3, 3, 3))
        np.testing.assert_allclose(
            link_success_prob(cfg, alloc, 0),
            success_prob_equal_k(4, 4, 2, 3, 1.0),
            rtol=0,
        )

    def test_mixed_others_use_general_form(self):
        # Mixed interferers get the exact value, not the gamma fit.  M=4,
        # k=2, s = 2: N_1 ~ NegBin(1, 1/3) and N_3 ~ NegBin(3, 3/5) give
        # P(N_1 + N_3 <= 2) = (1/3)(2133/3125) + (2/9)(1485/3125)
        # + (4/27)(675/3125) = 1141/3125.
        cfg = SystemConfig(3, 4, 1.0)
        alloc = StreamAllocation((2, 1, 3))
        value = link_success_prob(cfg, alloc, 0)
        np.testing.assert_allclose(value, 1141 / 3125, rtol=1e-14)
        assert abs(value - success_prob_general(4, 2, [1, 3], 1.0)) > 1e-3

    def test_link_index_validation(self):
        cfg = SystemConfig(2, 2, 1.0)
        alloc = StreamAllocation((1, 1))
        with pytest.raises(DomainError):
            link_success_prob(cfg, alloc, 2)
        with pytest.raises(DomainError):
            link_success_prob(cfg, alloc, -1)


class TestExactMixedInterferers:
    def test_against_laplace_reference(self):
        rng = random.Random(1633)
        for _ in range(150):
            m = rng.randint(2, 12)
            k_self = rng.randint(1, m)
            others = [rng.randint(1, m) for _ in range(rng.randint(2, 6))]
            if len(set(others)) == 1:
                others[0] = others[0] % m + 1
            beta = 2.0 ** rng.uniform(-4.0, 4.0)
            cfg = SystemConfig(len(others) + 1, m, beta)
            value = link_success_prob(cfg, StreamAllocation((k_self, *others)), 0)
            reference = hetero_success_mp(m, k_self, others, beta)
            np.testing.assert_allclose(
                value, reference, rtol=1e-12, err_msg=f"{m} {k_self} {others} {beta}"
            )

    def test_large_network_stays_finite(self):
        # Group shapes up to 80 * 128, 127 extra terms per group.
        alloc = StreamAllocation(tuple((1, 2, 3, 64, 128)[i % 5] for i in range(400)))
        for beta in (1e-5, 0.5):
            cfg = SystemConfig(400, 128, beta)
            for link in range(5):
                p = link_success_prob(cfg, alloc, link)
                assert math.isfinite(p) and 0.0 <= p <= 1.0


class TestPermutationInvariance:
    """A link's value depends only on k_self and the others' multiset.

    multiset_sum_capacities evaluates each pair once for every allocation
    that orders the multiset, which is exact only if this holds bit for
    bit.
    """

    def test_reordering_the_links_changes_no_bit(self):
        rng = random.Random(2011)
        branches = set()
        for _ in range(2000):
            m, n = rng.randint(1, 6), rng.randint(2, 7)
            streams = [rng.randint(1, m) for _ in range(n)]
            if rng.random() < 0.25:  # every other link equal: the exact series
                streams[1:] = [rng.randint(1, m)] * (n - 1)
            link = rng.randrange(n)
            cfg = SystemConfig(n, m, round(2.0 ** rng.uniform(-4.0, 4.0), 6))
            alloc = StreamAllocation(tuple(streams))
            value = link_success_prob(cfg, alloc, link).hex()
            others = list(alloc.others(link))
            branches.add(len(set(others)) == 1)
            for _ in range(3):
                rng.shuffle(others)
                pos = rng.randrange(n)
                permuted = StreamAllocation(
                    tuple(others[:pos] + [streams[link]] + others[pos:])
                )
                assert link_success_prob(cfg, permuted, pos).hex() == value, (
                    alloc, link, permuted, pos
                )
        assert branches == {True, False}


class TestSuccessTable:
    """multiset_sum_capacities, the sum-capacity table the search reads.

    Each value is the exact sum of the per-link values, bit for bit.
    """

    @pytest.mark.parametrize("n, m", [(2, 1), (3, 3), (4, 3), (5, 2), (3, 5)])
    def test_rows_are_the_per_link_values(self, n, m):
        cfg = SystemConfig(n, m, 0.7, rate=1.5)
        allocs = [StreamAllocation(s) for s in product(range(1, m + 1), repeat=n)]
        # Any order, with repeats: values follow the list.
        allocs += random.Random(n * m).sample(allocs, len(allocs) // 2)
        values = multiset_sum_capacities(cfg, [alloc.streams for alloc in allocs])
        assert len(values) == len(allocs)
        for alloc, value in zip(allocs, values):
            expected = tuple(link_success_prob(cfg, alloc, link) for link in range(n))
            capacities = [cfg.rate * k * p for k, p in zip(alloc.streams, expected)]
            assert value.hex() == math.fsum(capacities).hex()
            assert sum_capacity_analytic(cfg, alloc) == OutageReport.from_success(
                cfg, alloc, expected
            )

    def test_empty_list(self):
        assert multiset_sum_capacities(SystemConfig(2, 2, 1.0), []) == []

    @pytest.mark.parametrize(
        "streams", [(1, 2, 3), (1, 2), (2, 2, 1, 1)], ids=["range", "short", "long"]
    )
    def test_every_allocation_is_validated(self, streams):
        cfg = SystemConfig(3, 2, 1.0)
        with pytest.raises(DomainError):
            multiset_sum_capacities(cfg, [(1, 2, 2), streams])
        with pytest.raises(DomainError):
            sum_capacity_analytic(cfg, StreamAllocation(streams))


class TestSumCapacity:
    def test_symmetric_pair(self):
        cfg = SystemConfig(2, 1, 2**1.0 - 1, 1.0)
        report = sum_capacity_analytic(cfg, StreamAllocation((1, 1)))
        np.testing.assert_allclose(report.sum_capacity, 1.0, rtol=1e-14)
        assert report.per_link_success_prob == (0.5, 0.5)

    @pytest.mark.parametrize(
        "streams, closed_forms", [((1,) * 30, 1), ((3, 1, 2, 1, 3, 1), 3)]
    )
    def test_one_closed_form_per_distinct_count(
        self, count_closed_forms, streams, closed_forms
    ):
        cfg = SystemConfig(len(streams), 10, 1.0)
        alloc = StreamAllocation(streams)
        report, calls = count_closed_forms(sum_capacity_analytic, cfg, alloc)
        assert calls == closed_forms
        assert report.per_link_success_prob == tuple(
            link_success_prob(cfg, alloc, link) for link in range(len(streams))
        )

    def test_sum_is_definitional(self):
        cfg = SystemConfig(3, 3, 1.0, rate=2.0)
        alloc = StreamAllocation((1, 2, 3))
        report = sum_capacity_analytic(cfg, alloc)
        expected = [
            cfg.rate * k * link_success_prob(cfg, alloc, i)
            for i, k in enumerate(alloc.streams)
        ]
        assert report.per_link_capacity == tuple(expected)
        assert report.sum_capacity == math.fsum(expected)

    def test_no_unclamped_excursions_on_grid(self):
        reset_clamp_count()
        for m in (1, 2, 4, 8):
            for n in (2, 4, 8, 16):
                for ks in {1, 2, m}:
                    if ks > m:
                        continue
                    for ko in (1, 2):
                        if ko > m:
                            continue
                        for beta in (0.5, 1.0, 4.0):
                            success_prob_equal_k(m, n, ks, ko, beta)
        assert clamp_count() == 0


class TestCapacitySequence:
    def test_peak_location_matches_quadrature(self):
        # Sum capacity N * R * P(N) under one stream per link: the library
        # and the quadrature oracle must agree on where growth stops.
        def seq(prob):
            return [n * prob(n) for n in range(2, 9)]

        lib = seq(lambda n: success_prob_equal_k(10, n, 1, 1, 1.0))
        ref = seq(lambda n: equal_k_success_quad(10, n, 1, 1, 1.0))
        np.testing.assert_allclose(lib, ref, rtol=1e-8)
        lib_peak = max(range(len(lib)), key=lib.__getitem__)
        ref_peak = max(range(len(ref)), key=ref.__getitem__)
        assert lib_peak == ref_peak
