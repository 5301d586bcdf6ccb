"""Shared numerical kernel and value types for the outage-capacity library.

Conventions used throughout the package:

* Channel entries are unit-variance circularly symmetric complex Gaussians,
  so every squared-magnitude building block is an Exp(1) variable and a sum
  of m of them is Gamma(shape=m, rate=1).  All gamma distributions here are
  rate-parameterized: Gamma(shape, rate) has mean shape/rate.
* A "success probability" is P(SIR >= beta) for one stream of one link.
  Per-link outage capacity is rate * streams * success_prob, and the sum
  capacity is the exact sum of the per-link values.
* Probabilities produced by series evaluation may land epsilon-outside
  [0, 1].  They are snapped to the interval; excursions larger than
  CLAMP_TOL are counted so that a validation pass can report them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

__all__ = [
    "ZfOutageError",
    "DomainError",
    "NumericalError",
    "SearchBudgetError",
    "CLAMP_TOL",
    "SMALL_SAMPLE_FLOOR",
    "check_int",
    "check_positive",
    "clamp_probability",
    "clamp_count",
    "reset_clamp_count",
    "SystemConfig",
    "StreamAllocation",
    "GammaParams",
    "OutageReport",
]


class ZfOutageError(Exception):
    """Base class for every error raised by this package."""


class DomainError(ZfOutageError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(ZfOutageError, ArithmeticError):
    """A computation lost the accuracy it is contracted to deliver."""


class SearchBudgetError(ZfOutageError, RuntimeError):
    """A discrete search hit its evaluation cap before terminating."""


def check_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an int if it is an integer in [lo, hi]; else DomainError.

    An integer is anything ``operator.index`` accepts (numpy integers
    too) except bool.  ``hi=None`` leaves the range open above.
    """
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if lo <= number and (hi is None or number <= hi):
                return number
    bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise DomainError(f"{name} must be an int {bounds}, got {value!r}")


def check_positive(name: str, value):
    """``value`` unchanged if it is a finite real > 0; else DomainError."""
    try:
        valid = math.isfinite(value) and value > 0.0
    except TypeError:
        valid = False
    if not valid:
        raise DomainError(f"{name} must be finite and > 0, got {value!r}")
    return value


# Excursions beyond [0, 1] up to this size are snapped silently; anything
# larger is still snapped but counted as a diagnostic event.
CLAMP_TOL = 1e-9

# Monte Carlo estimates from fewer trials than this are flagged so that a
# zero standard error (p in {0, 1}) is not mistaken for certainty.
SMALL_SAMPLE_FLOOR = 100

_clamp_events = 0


def clamp_probability(value: float) -> float:
    """Snap ``value`` to [0, 1], counting excursions larger than CLAMP_TOL.

    Returns the clamped value.  The running count is read with
    :func:`clamp_count` and cleared with :func:`reset_clamp_count`; a clean
    run of the analytic formulas keeps the count at zero.  The count is of
    evaluations, not of the values they reach: analytic.success_table
    evaluates each distinct link term once per call, so an excursion there
    counts once however many links and allocations share the term.
    """
    global _clamp_events
    if not math.isfinite(value):
        raise NumericalError(f"probability evaluated to {value!r}")
    if value < 0.0:
        if -value > CLAMP_TOL:
            _clamp_events += 1
        return 0.0
    if value > 1.0:
        if value - 1.0 > CLAMP_TOL:
            _clamp_events += 1
        return 1.0
    return value


def clamp_count() -> int:
    """Number of out-of-tolerance clamps since the last reset.

    One per clamped evaluation: a term that analytic.success_table shares
    counts once per call.  Its readers only test it against zero.
    """
    return _clamp_events


def reset_clamp_count() -> None:
    """Zero the clamp diagnostic counter."""
    global _clamp_events
    _clamp_events = 0


@dataclass(frozen=True)
class SystemConfig:
    """Symmetric interference network: N links, M antennas per node.

    ``sir_threshold`` is the SIR level beta a stream must clear, and
    ``rate`` is the per-stream transmission rate R used in the capacity
    product rate * streams * P(SIR >= beta).
    """

    num_links: int
    num_antennas: int
    sir_threshold: float
    rate: float = 1.0

    def __post_init__(self) -> None:
        for name, lo in (("num_links", 2), ("num_antennas", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), lo))
        check_positive("sir_threshold", self.sir_threshold)
        check_positive("rate", self.rate)
        # Every capacity, and every sum of them, is at most rate * N * M,
        # so a finite bound keeps every capacity and math.fsum finite.
        try:
            finite = math.isfinite(self.rate * self.num_links * self.num_antennas)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise DomainError(
                "rate * num_links * num_antennas must be finite, got "
                f"{self.rate!r} * {self.num_links} * {self.num_antennas}"
            )

    @classmethod
    def from_rate(
        cls, num_links: int, num_antennas: int, rate: float
    ) -> "SystemConfig":
        """Build a config whose SIR threshold is 2**rate - 1.

        With this choice a stream at rate R is in outage exactly when the
        ZF output cannot support R, so threshold and rate move together.
        """
        check_positive("rate", rate)
        try:
            threshold = 2.0**rate - 1.0
        except OverflowError:
            raise DomainError(
                f"rate {rate!r} is too large: 2**rate overflows"
            ) from None
        return cls(
            num_links=num_links,
            num_antennas=num_antennas,
            sir_threshold=threshold,
            rate=rate,
        )


@dataclass(frozen=True)
class StreamAllocation:
    """Per-link stream counts (k_1, ..., k_N), hashable for use as a key."""

    streams: tuple[int, ...]

    def __post_init__(self) -> None:
        streams = tuple(check_int("stream count", k, 1) for k in self.streams)
        object.__setattr__(self, "streams", streams)
        if len(streams) < 2:
            raise DomainError(
                f"an allocation needs at least two links, got {streams!r}"
            )

    @classmethod
    def uniform(cls, num_links: int, streams_per_link: int) -> "StreamAllocation":
        return cls((streams_per_link,) * check_int("num_links", num_links, 0))

    @property
    def num_links(self) -> int:
        return len(self.streams)

    def others(self, link: int) -> tuple[int, ...]:
        """Stream counts of every link except ``link``."""
        check_int("link index", link, 0, len(self.streams) - 1)
        return self.streams[:link] + self.streams[link + 1 :]

    def replace(self, link: int, streams: int) -> "StreamAllocation":
        """Copy of this allocation with one link's count changed."""
        check_int("link index", link, 0, len(self.streams) - 1)
        new = list(self.streams)
        new[link] = streams
        return StreamAllocation(tuple(new))

    def validate_against(self, config: SystemConfig) -> None:
        """Check length and per-link bounds for ``config``; raise DomainError."""
        if len(self.streams) != config.num_links:
            raise DomainError(
                f"allocation has {len(self.streams)} links, "
                f"config has {config.num_links}"
            )
        if any(k > config.num_antennas for k in self.streams):
            raise DomainError(
                f"stream counts {self.streams} exceed "
                f"{config.num_antennas} antennas"
            )


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate pair of a rate-parameterized gamma distribution."""

    shape: float
    rate: float

    def __post_init__(self) -> None:
        check_positive("shape", self.shape)
        check_positive("rate", self.rate)

    @property
    def mean(self) -> float:
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        return self.shape / (self.rate * self.rate)


@dataclass(frozen=True)
class OutageReport:
    """Per-link success probabilities and the capacities derived from them.

    The derived fields are not free: construction re-checks that each
    capacity equals rate * streams * success_prob bit for bit and that
    ``sum_capacity`` is the exact (math.fsum) sum of the per-link values,
    so a report can never drift from its own inputs.  ``std_error`` is
    None for analytic results; Monte Carlo results carry the binomial
    standard error per link plus bookkeeping about the run.
    """

    streams: tuple[int, ...]
    rate: float
    per_link_success_prob: tuple[float, ...]
    per_link_capacity: tuple[float, ...]
    sum_capacity: float
    std_error: tuple[float, ...] | None = None
    trials: int | None = None
    resampled: int = 0
    small_sample: bool = field(default=False)

    def __post_init__(self) -> None:
        n = len(self.streams)
        if n < 2:
            raise DomainError(f"a report covers >= 2 links, got {n}")
        if len(self.per_link_success_prob) != n or len(self.per_link_capacity) != n:
            raise DomainError("per-link fields must share one length")
        if self.std_error is not None and len(self.std_error) != n:
            raise DomainError("std_error length must match the link count")
        for p in self.per_link_success_prob:
            if not (0.0 <= p <= 1.0):
                raise DomainError(f"success probability {p!r} outside [0, 1]")
        for k, p, c in zip(
            self.streams, self.per_link_success_prob, self.per_link_capacity
        ):
            expect = self.rate * k * p
            if c != expect:
                raise DomainError(
                    f"capacity {c!r} is not rate*streams*prob ({expect!r})"
                )
        if self.sum_capacity != math.fsum(self.per_link_capacity):
            raise DomainError("sum_capacity is not the exact per-link sum")
        if self.std_error is not None:
            for s in self.std_error:
                if not (math.isfinite(s) and s >= 0.0):
                    raise DomainError(f"standard error {s!r} must be >= 0")

    @classmethod
    def from_success(
        cls,
        config: SystemConfig,
        alloc: StreamAllocation,
        success_prob,
        std_error=None,
        trials: int | None = None,
        resampled: int = 0,
    ) -> "OutageReport":
        """Derive capacities from success probabilities for one scenario."""
        alloc.validate_against(config)
        probs = tuple(float(p) for p in success_prob)
        caps = tuple(
            config.rate * k * p for k, p in zip(alloc.streams, probs)
        )
        return cls(
            streams=alloc.streams,
            rate=config.rate,
            per_link_success_prob=probs,
            per_link_capacity=caps,
            sum_capacity=math.fsum(caps),
            std_error=None if std_error is None else tuple(float(s) for s in std_error),
            trials=trials,
            resampled=resampled,
            small_sample=(trials is not None and trials < SMALL_SAMPLE_FLOOR),
        )

    @classmethod
    def from_estimates(
        cls, config: SystemConfig, alloc: StreamAllocation, estimates
    ) -> "OutageReport":
        """Report of one Monte Carlo run from its per-link estimates.

        Each estimate has ``prob``, ``std_error``, ``trials`` and
        ``resampled``; all share one trial count.
        """
        return cls.from_success(
            config,
            alloc,
            [est.prob for est in estimates],
            std_error=[est.std_error for est in estimates],
            trials=estimates[0].trials,
            resampled=sum(est.resampled for est in estimates),
        )
