"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and
registers a PASS/FAIL line through conftest.criterion, so the terminal
summary of any pytest run lists the whole roster.  The expensive
simulation-backed checks carry the ``slow`` marker.
"""

import math

import pytest
from scipy import stats

from conftest import criterion
from oracles import (
    direct_sir_samples,
    equal_k_success_quad,
    link_power_samples,
    link_sir_samples,
    shifted_equal_k_series,
)
from zfoutage.analytic import (
    link_success_prob,
    min_links_single_stream,
    success_prob_equal_k,
    success_prob_general,
)
from zfoutage.cli import main
from zfoutage.core import StreamAllocation, SystemConfig
from zfoutage.montecarlo import (
    direct_distribution_outage,
    empirical_link_success,
    empirical_outage,
    link_success_sweep,
)
from zfoutage.optimizer import empirical_threshold, maximize_sum_capacity

pytestmark = pytest.mark.acceptance

BETAS = (0.5, 1.0, 4.0)


def _grid_scenarios():
    """(M, N, k_self, k_other) combinations shared by criteria 2 and 3."""
    for m in (2, 4, 8):
        for n in (4, 8, 16):
            for ks in sorted({1, 2, m}):
                for ko in (1, 2):
                    yield m, n, ks, ko


def test_criterion_1_exact_pair():
    with criterion(1, "two single-antenna links match 1/(1+beta) and simulation"):
        cfg_alloc = StreamAllocation((1, 1))
        for i, beta in enumerate(BETAS):
            exact = 1.0 / (1.0 + beta)
            analytic = success_prob_equal_k(1, 2, 1, 1, beta)
            assert math.isclose(analytic, exact, rel_tol=1e-12, abs_tol=1e-12)
            cfg = SystemConfig(2, 1, beta)
            est = empirical_link_success(cfg, cfg_alloc, 0, 1_000_000, seed=100 + i)
            assert abs(est.prob - exact) <= 3 * est.std_error


def test_criterion_2_quadrature_oracle():
    with criterion(2, "closed form matches quadrature; alternative indexing fails"):
        worst_default = 0.0
        worst_shifted = 0.0
        for m, n, ks, ko in _grid_scenarios():
            for beta in BETAS:
                reference = equal_k_success_quad(m, n, ks, ko, beta)
                default = success_prob_equal_k(m, n, ks, ko, beta)
                shifted = shifted_equal_k_series(m, n, ks, ko, beta)
                rel = abs(default - reference) / reference
                worst_default = max(worst_default, rel)
                worst_shifted = max(worst_shifted, abs(shifted - reference) / reference)
        assert worst_default <= 1e-8
        # The printed alternative must fail the same check outright.
        assert worst_shifted > 1e-2


@pytest.mark.slow
def test_criterion_3_full_channel_simulation():
    with criterion(3, "closed form within max(3 SE, 5e-3) of full-channel runs"):
        for index, (m, n, ks, ko) in enumerate(_grid_scenarios()):
            cfg = SystemConfig(n, m, 1.0)
            alloc = StreamAllocation((ks,) + (ko,) * (n - 1))
            sweep = link_success_sweep(
                cfg, alloc, 0, BETAS, 1_000_000, seed=3000 + index
            )
            for beta, est in zip(BETAS, sweep):
                closed = success_prob_equal_k(m, n, ks, ko, beta)
                tol = max(3 * est.std_error, 5e-3)
                assert abs(closed - est.prob) <= tol, (m, n, ks, ko, beta)

        # The per-link estimates above are exactly what the full outage
        # report assembles: same seed, same link, same draws.
        cfg = SystemConfig(4, 2, 1.0)
        alloc = StreamAllocation((1, 1, 1, 1))
        report = empirical_outage(cfg, alloc, 1_000_000, seed=3100)
        single = empirical_link_success(cfg, alloc, 0, 1_000_000, seed=3100)
        assert report.per_link_success_prob[0] == single.prob
        closed = success_prob_equal_k(2, 4, 1, 1, 1.0)
        for p, se in zip(report.per_link_success_prob, report.std_error):
            assert abs(closed - p) <= max(3 * se, 5e-3)


@pytest.mark.slow
def test_criterion_4_heterogeneous_approximation():
    with criterion(4, "gamma fit within 2e-2 of the direct model, exact when equal"):
        hetero = [
            (m, ks, others)
            for m in (2, 4)
            for ks in (1, 2)
            for others in ([1, 2], [1, 2, 4], [1, 1, 2, 3])
            if max(others) <= m
        ]
        for i, (m, ks, others) in enumerate(hetero):
            for j, beta in enumerate(BETAS):
                approx = success_prob_general(m, ks, others, beta)
                direct = direct_distribution_outage(
                    m, ks, others, beta, 10_000_000, seed=4000 + 10 * i + j
                )
                assert abs(approx - direct.prob) <= 2e-2, (m, ks, others, beta)

        equal = [
            (m, ks, others)
            for m in (2, 4)
            for ks in (1, 2)
            for others in ([1, 1], [2, 2])
        ]
        for i, (m, ks, others) in enumerate(equal):
            for j, beta in enumerate(BETAS):
                approx = success_prob_general(m, ks, others, beta)
                direct = direct_distribution_outage(
                    m, ks, others, beta, 10_000_000, seed=4500 + 10 * i + j
                )
                assert abs(approx - direct.prob) <= 3 * max(direct.std_error, 1e-5), (
                    m,
                    ks,
                    others,
                    beta,
                )


@pytest.mark.slow
def test_criterion_5_crowding_forces_single_stream():
    with criterion(5, "crowded ten-antenna network: one stream wins, simulation agrees"):
        m, beta = 10, 1.0

        def own_capacities(n):
            return [k * success_prob_equal_k(m, n, k, 1, beta) for k in range(1, m + 1)]

        def strictly_decreasing(values):
            return all(a > b for a, b in zip(values, values[1:]))

        assert any(strictly_decreasing(own_capacities(n)) for n in range(2, 31))

        n_star = min_links_single_stream(m, beta).n_star
        analytic_at_star = own_capacities(n_star)
        assert strictly_decreasing(analytic_at_star)

        # Simulation confirmation at the argmax: one stream beats two and
        # three by a clear statistical margin.
        cfg = SystemConfig(n_star, m, beta)
        estimates = {}
        for k in (1, 2, 3):
            alloc = StreamAllocation((k,) + (1,) * (n_star - 1))
            estimates[k] = empirical_link_success(
                cfg, alloc, 0, 1_000_000, seed=5000 + k
            )
        c1 = 1 * estimates[1].prob
        for k in (2, 3):
            ck = k * estimates[k].prob
            margin = 3 * math.hypot(estimates[1].std_error, k * estimates[k].std_error)
            assert c1 - ck > margin


@pytest.mark.slow
def test_criterion_6_three_link_allocation_search():
    with criterion(6, "27-candidate search returns all-ones under both objectives"):
        cfg = SystemConfig(3, 3, 1.0)
        analytic = maximize_sum_capacity(cfg, mode="exhaustive")
        assert analytic.best_allocation == StreamAllocation((1, 1, 1))
        assert len(analytic.per_candidate_values) == 27

        simulated = maximize_sum_capacity(
            cfg,
            mode="exhaustive",
            objective="montecarlo",
            trials=100_000,
            seed=6000,
        )
        assert simulated.best_allocation == StreamAllocation((1, 1, 1))
        assert len(simulated.per_candidate_values) == 27


def test_criterion_7_distributional_ground_truth():
    with criterion(7, "signal and interference marginals match their claimed laws"):
        trials = 100_000
        cfg = SystemConfig(3, 4, 1.0)
        for ks in (1, 2, 4):
            alloc = StreamAllocation((ks, 2, 1))
            signal, summands = link_power_samples(cfg, alloc, 0, trials, seed=70 + ks)
            target = 4 - ks + 1
            se_signal = math.sqrt(target / trials)
            assert abs(signal.mean() - target) <= 3 * se_signal
            se_summand = 1.0 / math.sqrt(summands.size)
            assert abs(summands.mean() - 1.0) <= 3 * se_summand

            full = link_sir_samples(cfg, alloc, 0, trials, seed=80 + ks)
            direct = direct_sir_samples(4, ks, [2, 1], trials, seed=90 + ks)
            assert stats.ks_2samp(full, direct).pvalue > 0.01


def test_criterion_8_threshold_trends():
    with criterion(8, "link thresholds fall with beta and respect the analytic bound"):
        observed = [
            empirical_threshold(5, beta).threshold
            for beta in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert observed == sorted(observed, reverse=True)
        for m in (3, 5, 10):
            for beta in (1.0, 2.0, 4.0):
                bound = min_links_single_stream(m, beta, 1).n_star
                assert bound >= empirical_threshold(m, beta, 1).threshold


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(9, "repeated CLI runs are byte-identical across worker counts"):
        cases = [
            (
                "capacity", "--links", "3", "--antennas", "2", "--beta", "1",
                "--backend", "mc", "--trials", "20000", "--seed", "17",
            ),
            ("figure", "fig3"),
            ("nstar", "--antennas", "3", "--beta", "1"),
        ]
        for index, argv in enumerate(cases):
            paths = []
            for run in range(2):
                out = tmp_path / f"case{index}_run{run}.csv"
                assert main(list(argv) + ["--out", str(out)]) == 0
                paths.append(out)
            capsys.readouterr()
            assert paths[0].read_bytes() == paths[1].read_bytes()

        mc_argv = list(cases[0])
        by_workers = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}.csv"
            assert main(mc_argv + ["--workers", workers, "--out", str(out)]) == 0
            by_workers.append(out.read_bytes())
        capsys.readouterr()
        assert by_workers[0] == by_workers[1]


@pytest.mark.slow
def test_criterion_10_exact_heterogeneous_form():
    with criterion(10, "exact mixed-interferer form within 4.10 SE of direct runs"):
        # Criterion 4's 24 mixed-interferer checks at 2M trials each.  A
        # two-sided bound of 4.10 standard errors per check keeps the chance
        # of any false failure among the 24 at 0.1%.
        trials = 2_000_000
        cases = [
            (m, ks, others)
            for m in (2, 4)
            for ks in (1, 2)
            for others in ([1, 2], [1, 2, 4], [1, 1, 2, 3])
            if max(others) <= m
        ]
        for i, (m, ks, others) in enumerate(cases):
            for j, beta in enumerate(BETAS):
                cfg = SystemConfig(len(others) + 1, m, beta)
                exact = link_success_prob(cfg, StreamAllocation((ks, *others)), 0)
                direct = direct_distribution_outage(
                    m, ks, others, beta, trials, seed=10_000 + 10 * i + j
                )
                z = (direct.prob - exact) / math.sqrt(exact * (1.0 - exact) / trials)
                assert abs(z) <= 4.10, (m, ks, others, beta, z)
        assert len(cases) * len(BETAS) == 24
