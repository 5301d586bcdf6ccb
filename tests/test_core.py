"""Shared kernel: special functions, clamping, and the value types."""

import math

import numpy as np
import pytest

from oracles import gamma_ccdf, gamma_ccdf_quad, mp_log_gamma, poisson_tail
from zfoutage.core import (
    CLAMP_TOL,
    DomainError,
    OutageReport,
    StreamAllocation,
    SystemConfig,
    clamp_count,
    clamp_probability,
    reset_clamp_count,
)


class TestLogGamma:
    # The outage series sums its terms with math.lgamma and needs it to
    # 1e-12 relative across [1e-3, 1e6], the range the series touches.
    def test_integer_anchors(self):
        assert math.lgamma(1.0) == 0.0
        np.testing.assert_allclose(math.lgamma(5.0), math.log(24.0), rtol=1e-14)

    def test_factorials_up_to_20(self):
        for n in range(1, 21):
            np.testing.assert_allclose(
                math.exp(math.lgamma(n + 1.0)), math.factorial(n), rtol=1e-12
            )

    def test_against_high_precision_oracle(self):
        # Log-spaced sweep of the contracted range [1e-3, 1e6].
        for x in np.geomspace(1e-3, 1e6, 61):
            reference = mp_log_gamma(float(x))
            got = math.lgamma(float(x))
            if reference == 0.0:
                assert abs(got) < 1e-12
            else:
                np.testing.assert_allclose(got, reference, rtol=1e-12)

    def test_half_integer(self):
        np.testing.assert_allclose(math.lgamma(2.5), mp_log_gamma(2.5), rtol=1e-13)


class TestGammaCcdf:
    # gamma_ccdf is a test oracle; these checks tie it to two others.
    def test_exponential_tail(self):
        np.testing.assert_allclose(gamma_ccdf(1.0, 1.0, 0.7), math.exp(-0.7), rtol=1e-13)

    def test_at_origin(self):
        assert gamma_ccdf(3.0, 1.0, 0.0) == 1.0

    def test_noninteger_shape_against_quadrature(self):
        np.testing.assert_allclose(
            gamma_ccdf(2.5, 1.3, 2.0), gamma_ccdf_quad(2.5, 1.3, 2.0), rtol=1e-10
        )

    def test_poisson_tail_identity(self):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            shape = int(rng.integers(1, 31))
            rate = float(rng.uniform(0.1, 5.0))
            x = float(rng.uniform(0.0, 50.0 / rate / max(shape, 1)))
            np.testing.assert_allclose(
                gamma_ccdf(shape, rate, x),
                poisson_tail(shape, rate * x),
                rtol=1e-12,
            )

    def test_monotone_in_x_and_shape(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            shape = float(rng.uniform(0.2, 20.0))
            rate = float(rng.uniform(0.2, 5.0))
            x = np.sort(rng.uniform(0.0, 10.0, size=4))
            values = [gamma_ccdf(shape, rate, float(xi)) for xi in x]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(0.0 <= v <= 1.0 for v in values)
            # For fixed rate*x the tail grows with shape.
            rx = float(rng.uniform(0.1, 20.0))
            tails = [gamma_ccdf(s, 1.0, rx) for s in (shape, shape + 0.7, shape + 2.1)]
            assert tails[0] <= tails[1] <= tails[2]

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_ccdf(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            gamma_ccdf(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            gamma_ccdf(1.0, 1.0, -0.1)


class TestClamp:
    def setup_method(self):
        reset_clamp_count()

    def test_inside_interval_untouched(self):
        assert clamp_probability(0.25) == 0.25
        assert clamp_count() == 0

    def test_small_excursion_snapped_silently(self):
        assert clamp_probability(1.0 + CLAMP_TOL / 10) == 1.0
        assert clamp_probability(-CLAMP_TOL / 10) == 0.0
        assert clamp_count() == 0

    def test_large_excursion_counted(self):
        assert clamp_probability(1.0 + 5e-6) == 1.0
        assert clamp_probability(-5e-6) == 0.0
        assert clamp_count() == 2
        reset_clamp_count()
        assert clamp_count() == 0

    def test_non_finite_rejected(self):
        with pytest.raises(Exception):
            clamp_probability(float("nan"))


class TestSystemConfig:
    def test_valid(self):
        cfg = SystemConfig(3, 4, 2.0, 1.5)
        assert (cfg.num_links, cfg.num_antennas) == (3, 4)

    @pytest.mark.parametrize(
        "num_links, num_antennas, rate",
        [(2, 2, 1e308), (3, 2, 1e308), (10**400, 1, 1.0), (2, 10**306, 1000.0)],
    )
    def test_capacity_bound_overflow(self, num_links, num_antennas, rate):
        # rate * N * M bounds every capacity and every sum of capacities;
        # past the float range it is an invalid rate, not inf or an
        # OverflowError from fsum.
        with pytest.raises(DomainError, match="must be finite"):
            SystemConfig(num_links, num_antennas, 1.0, rate)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_links=1, num_antennas=1, sir_threshold=1.0),
            dict(num_links=2, num_antennas=0, sir_threshold=1.0),
            dict(num_links=2, num_antennas=1, sir_threshold=0.0),
            dict(num_links=2, num_antennas=1, sir_threshold=-1.0),
            dict(num_links=2, num_antennas=1, sir_threshold=1.0, rate=0.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(DomainError):
            SystemConfig(**kwargs)


class TestStreamAllocation:
    def test_helpers(self):
        alloc = StreamAllocation((2, 1, 3))
        assert alloc.others(0) == (1, 3)
        assert alloc.others(2) == (2, 1)
        assert alloc.replace(1, 2).streams == (2, 2, 3)
        assert alloc.streams == (2, 1, 3)  # replace does not mutate
        assert StreamAllocation.uniform(4, 2).streams == (2, 2, 2, 2)

    def test_hashable(self):
        table = {StreamAllocation((1, 1)): 0.5}
        assert table[StreamAllocation((1, 1))] == 0.5

    def test_validate_against(self):
        cfg = SystemConfig(3, 2, 1.0)
        StreamAllocation((1, 2, 1)).validate_against(cfg)
        with pytest.raises(DomainError):
            StreamAllocation((1, 2)).validate_against(cfg)
        with pytest.raises(DomainError):
            StreamAllocation((1, 3, 1)).validate_against(cfg)

    @pytest.mark.parametrize(
        "streams", [(1,), (0, 1), (-1, 2), (1.7, 2), (True, 2), 5, None]
    )
    def test_invalid(self, streams):
        with pytest.raises(DomainError):
            StreamAllocation(streams)

    def test_numpy_integers_stored_as_int(self):
        alloc = StreamAllocation(tuple(np.arange(1, 4)))
        assert alloc.streams == (1, 2, 3)
        assert all(type(k) is int for k in alloc.streams)


class TestOutageReport:
    def test_from_success_derivation(self):
        cfg = SystemConfig(2, 2, 1.0, rate=2.0)
        alloc = StreamAllocation((1, 2))
        report = OutageReport.from_success(cfg, alloc, [0.5, 0.25])
        assert report.per_link_capacity == (2.0 * 1 * 0.5, 2.0 * 2 * 0.25)
        assert report.sum_capacity == math.fsum(report.per_link_capacity)
        assert report.std_error is None

    def test_direct_construction_derives_capacities(self):
        report = OutageReport(
            streams=(1, 2), rate=2.0, per_link_success_prob=(0.5, 0.25)
        )
        assert report.per_link_capacity == (1.0, 1.0)
        assert report.sum_capacity == 2.0

    def test_probability_bounds_enforced(self):
        cfg = SystemConfig(2, 1, 1.0)
        alloc = StreamAllocation((1, 1))
        with pytest.raises(DomainError):
            OutageReport.from_success(cfg, alloc, [0.5, 1.2])
