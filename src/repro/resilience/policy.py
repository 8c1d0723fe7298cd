"""Resilience policy: the knobs governing retry, timeout, and degradation.

One frozen dataclass carries every tunable of the resilient measurement
layer so that a policy can be passed through the public surfaces
(``PEPO(resilience=...)``, ``pepo profile --resilience``) as a single
value and logged alongside results for provenance.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResiliencePolicy:
    """How a :class:`~repro.resilience.resilient.ResilientBackend` behaves.

    Parameters
    ----------
    max_retries:
        Extra attempts after the first failed read (0 disables retry).
    backoff_base_seconds / backoff_multiplier / backoff_max_seconds:
        Exponential backoff schedule between attempts: attempt *n*
        sleeps ``min(base * multiplier**n, max)`` seconds.
    jitter:
        Uniform jitter as a fraction of the delay (0.1 = +/-10 %),
        decorrelating retry storms across concurrent readers.
    read_timeout_seconds:
        Wall-clock budget per read; a read that answers slower than
        this is treated as failed (its value is discarded).  ``None``
        disables the check.
    breaker_threshold:
        Consecutive failures (retries exhausted) that trip the circuit
        breaker; while open, reads go straight to the fallback.
    breaker_cooldown_seconds:
        Time the breaker stays open before a half-open probe of the
        primary is allowed.
    degrade:
        When True, reads that cannot be served by the primary fall back
        to a simulated backend and are flagged ``degraded``; when
        False, the last error is re-raised to the caller.
    seed:
        Seed for the jitter RNG (determinism in tests).
    """

    max_retries: int = 3
    backoff_base_seconds: float = 0.005
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 0.25
    jitter: float = 0.1
    read_timeout_seconds: float | None = None
    breaker_threshold: int = 5
    breaker_cooldown_seconds: float = 1.0
    degrade: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_base_seconds < 0:
            raise ValueError(
                f"backoff_base_seconds must be >= 0: {self.backoff_base_seconds}"
            )
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1: {self.backoff_multiplier}"
            )
        if self.backoff_max_seconds < self.backoff_base_seconds:
            raise ValueError("backoff_max_seconds must be >= backoff_base_seconds")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")
        if self.read_timeout_seconds is not None and self.read_timeout_seconds <= 0:
            raise ValueError(
                f"read_timeout_seconds must be positive: {self.read_timeout_seconds}"
            )
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1: {self.breaker_threshold}"
            )
        if self.breaker_cooldown_seconds < 0:
            raise ValueError(
                f"breaker_cooldown_seconds must be >= 0: "
                f"{self.breaker_cooldown_seconds}"
            )

    def backoff_delay(self, attempt: int) -> float:
        """Base delay before retry ``attempt`` (0-indexed), without jitter."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0: {attempt}")
        return min(
            self.backoff_base_seconds * self.backoff_multiplier**attempt,
            self.backoff_max_seconds,
        )
