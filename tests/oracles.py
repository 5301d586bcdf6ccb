"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's own evaluation paths:
log-gamma comes from arbitrary-precision arithmetic, tail probabilities
from direct series summation, and success probabilities from adaptive
quadrature over the interference density.  Expected values in the test
suite are either hand-derivable constants or outputs of these oracles;
none are copied from the implementation under test.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import quad

from zfoutage.core import gamma_ccdf


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
