"""Shared numerical kernel and value types for the outage-capacity library.

Conventions used throughout the package:

* Channel entries are unit-variance circularly symmetric complex Gaussians,
  so every squared-magnitude building block is an Exp(1) variable and a sum
  of m of them is Gamma(shape=m, rate=1).  All gamma distributions here are
  rate-parameterized: Gamma(shape, rate) has mean shape/rate.
* A "success probability" is P(SIR >= beta) for one stream of one link.
  Per-link outage capacity is rate * streams * success_prob, and the sum
  capacity is the exact sum of the per-link values.  An OutageReport
  stores the probabilities and derives both.
* Probabilities produced by series evaluation may land epsilon-outside
  [0, 1].  They are snapped to the interval; excursions larger than
  CLAMP_TOL are counted so that a validation pass can report them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "ZfOutageError",
    "DomainError",
    "NumericalError",
    "SearchBudgetError",
    "CLAMP_TOL",
    "clamp_probability",
    "clamp_count",
    "reset_clamp_count",
    "SystemConfig",
    "StreamAllocation",
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

_clamp_events = 0


def clamp_probability(value: float) -> float:
    """Snap ``value`` to [0, 1], counting excursions larger than CLAMP_TOL.

    Returns the clamped value.  The running count is read with
    :func:`clamp_count` and cleared with :func:`reset_clamp_count`; a clean
    run of the analytic formulas keeps the count at zero.  The count is of
    evaluations, not of the values they reach: the links of one
    allocation that run the same stream count share one closed form, so
    their clamp counts once.
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

    One per clamped evaluation, so a stream count shared by links of one
    allocation counts once.  Its readers only test it against zero.
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


@dataclass(frozen=True)
class StreamAllocation:
    """Per-link stream counts (k_1, ..., k_N), hashable for use as a key."""

    streams: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            streams = tuple(check_int("stream count", k, 1) for k in self.streams)
        except TypeError:  # not iterable: check_int raises no TypeError
            raise DomainError(
                f"stream counts must be a sequence, got {self.streams!r}"
            ) from None
        object.__setattr__(self, "streams", streams)
        if len(streams) < 2:
            raise DomainError(
                f"an allocation needs at least two links, got {streams!r}"
            )

    @classmethod
    def uniform(cls, num_links: int, streams_per_link: int) -> "StreamAllocation":
        return cls((streams_per_link,) * check_int("num_links", num_links, 0))

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
class OutageReport:
    """Per-link success probabilities and the capacities derived from them.

    A report stores only its inputs: each link's capacity is derived as
    rate * streams * success_prob and the sum capacity as their exact
    (math.fsum) sum, each computed once on first use, so a report can
    never drift from its own inputs.  ``std_error`` is None for analytic
    results; Monte Carlo results carry the binomial standard error per
    link.
    """

    streams: tuple[int, ...]
    rate: float
    per_link_success_prob: tuple[float, ...]
    std_error: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.streams)
        if n < 2:
            raise DomainError(f"a report covers >= 2 links, got {n}")
        if len(self.per_link_success_prob) != n:
            raise DomainError("per-link fields must share one length")
        if self.std_error is not None and len(self.std_error) != n:
            raise DomainError("std_error length must match the link count")
        for p in self.per_link_success_prob:
            if not (0.0 <= p <= 1.0):
                raise DomainError(f"success probability {p!r} outside [0, 1]")
        if self.std_error is not None:
            for s in self.std_error:
                if not (math.isfinite(s) and s >= 0.0):
                    raise DomainError(f"standard error {s!r} must be >= 0")

    @cached_property
    def per_link_capacity(self) -> tuple[float, ...]:
        return tuple(
            self.rate * k * p
            for k, p in zip(self.streams, self.per_link_success_prob)
        )

    @cached_property
    def sum_capacity(self) -> float:
        return math.fsum(self.per_link_capacity)

    @classmethod
    def from_success(
        cls, config: SystemConfig, alloc: StreamAllocation, success_prob, std_error=None
    ) -> "OutageReport":
        """Report of one scenario from its per-link success probabilities."""
        alloc.validate_against(config)
        return cls(
            streams=alloc.streams,
            rate=config.rate,
            per_link_success_prob=tuple(float(p) for p in success_prob),
            std_error=None if std_error is None else tuple(float(s) for s in std_error),
        )
