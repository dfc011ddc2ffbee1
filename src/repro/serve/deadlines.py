"""Wall-clock deadlines on the monotonic clock.

Shared by the fleet dispatcher (per-attempt worker deadlines) and the bench
harness (per-shard pool timeouts, ``benchmarks/bench_perf_suite.py``): one
definition of "how much time is left", so the two enforcement sites cannot
drift apart in clock source or expiry convention.
"""

from __future__ import annotations

import math
import time
from typing import Optional

__all__ = ["Deadline"]


class Deadline:
    """A deadline ``seconds`` from construction on ``time.monotonic()``.

    ``seconds=None`` means "no deadline": :meth:`remaining` is ``inf`` and
    the deadline never expires.
    """

    __slots__ = ("seconds", "_expiry")

    def __init__(self, seconds: Optional[float]) -> None:
        # ``not (x >= 0)`` instead of ``x < 0``: NaN passes ``< 0`` and would
        # poison the expiry arithmetic (``NaN`` never compares expired)
        if seconds is not None and not (seconds >= 0):
            raise ValueError(f"deadline seconds must be >= 0 or None, got {seconds}")
        self.seconds = seconds
        self._expiry = math.inf if seconds is None else time.monotonic() + seconds

    def remaining(self) -> float:
        """Seconds left (``inf`` for no deadline; clamped at 0 once due)."""
        return max(0.0, self._expiry - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self._expiry

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.seconds is None:
            return "Deadline(None)"
        return f"Deadline({self.seconds}, remaining={self.remaining():.3f})"
