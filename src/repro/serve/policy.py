"""Serving policies: retry/backoff, the degradation ladder and chaos injection.

Everything in this module is *pure data plus deterministic arithmetic* — the
fleet dispatcher (:mod:`repro.serve.fleet`) and the worker entry point
(:mod:`repro.serve.worker`) interpret it.  Determinism is load-bearing: the
backoff jitter and every chaos draw are seeded through a stable CRC-based
hash of ``(seed, instance name, attempt)`` rather than Python's salted
``hash()``, so a fleet run (and therefore the test suite) produces the same
retry schedule and the same injected failures on every machine and in every
worker process, regardless of the multiprocessing start method.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "LadderStep",
    "DEFAULT_LADDER",
    "ServePolicy",
    "ChaosPolicy",
    "FAILURE_KINDS",
]

#: Failure kinds the dispatcher can record for one attempt.  All of them are
#: retryable (a later attempt runs one ladder step further down); an instance
#: whose attempts are exhausted is quarantined with its last failure.
#:
#: * ``"timeout"`` — the per-instance deadline fired; the worker was killed.
#: * ``"worker-death"`` — the worker process died mid-solve (segfault, OOM
#:   kill, injected SIGKILL) without reporting a result.
#: * ``"raise"`` — the solve raised; the traceback travelled back intact.
#: * ``"serialization"`` — the instance could not be shipped to a worker
#:   (unpicklable job objects).  Deterministic, so it skips the retry loop
#:   and quarantines immediately.
FAILURE_KINDS = ("timeout", "worker-death", "raise", "serialization")


def _stable_rng(*parts: object) -> random.Random:
    """A ``random.Random`` seeded from a CRC of the textual parts — stable
    across processes and interpreter runs (``hash(str)`` is salted)."""
    text = ":".join(str(p) for p in parts).encode()
    return random.Random(zlib.crc32(text))


@dataclass(frozen=True)
class LadderStep:
    """One rung of the degradation ladder.

    ``algorithm=None`` keeps the instance's requested algorithm; setting it
    (e.g. ``"two_approx"``) is the *result-changing* degradation reserved for
    the bottom of the ladder.  ``backend`` only trades speed: every backend
    of this codebase is bit-identical (the list scheduler follows it), so an
    instance solved on rungs that differ only in backend still reproduces the
    solo makespan.
    """

    backend: str = "vectorized"
    algorithm: Optional[str] = None

    @property
    def label(self) -> str:
        parts = [self.backend]
        if self.algorithm:
            parts.append(f"algorithm={self.algorithm}")
        return "+".join(parts)

    def to_dict(self) -> dict:
        return {"backend": self.backend, "algorithm": self.algorithm}

    @classmethod
    def from_dict(cls, data: dict) -> "LadderStep":
        # unknown keys (e.g. from a journal written by an older version) are ignored
        return cls(backend=str(data.get("backend", "vectorized")), algorithm=data.get("algorithm"))


#: The default ladder: the vectorized fast path first, then the scalar
#: reference (bit-identical results), finally — from the third attempt on —
#: the guaranteed ratio-2 algorithm for instances whose requested algorithm
#: keeps failing (e.g. an fptas run repeatedly hitting its deadline).
DEFAULT_LADDER: Tuple[LadderStep, ...] = (
    LadderStep(backend="vectorized"),
    LadderStep(backend="scalar"),
    LadderStep(backend="scalar", algorithm="two_approx"),
)


@dataclass(frozen=True)
class ServePolicy:
    """Deadlines, retry budget and backoff of one fleet run.

    ``timeout`` is the per-*attempt* wall-clock deadline enforced by the
    parent (``None`` disables it — hung workers then stall their slot
    forever, so production runs should always set one).  ``max_retries``
    bounds re-attempts after the first try; each failed attempt advances one
    ladder rung (clamped to the last).  The backoff before attempt ``k+1`` is
    ``min(backoff_base * 2**k, backoff_cap)`` plus a deterministic jitter
    drawn uniformly from ``[0, backoff_jitter]`` times that delay, seeded per
    ``(seed, instance, attempt)``.

    ``mega_batch_size > 1`` enables mega-batch packing: up to that many
    first-attempt instances are dispatched to one worker as a single pack and
    solved in lockstep via :func:`repro.perf.megabatch.solve_mega`
    (bit-identical per-instance results).  A failed pack fails all its
    members, which then retry individually — fault isolation stays
    per-instance, only the happy path is batched.
    """

    timeout: Optional[float] = 60.0
    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    backoff_jitter: float = 0.5
    seed: int = 0
    ladder: Tuple[LadderStep, ...] = field(default=DEFAULT_LADDER)
    mega_batch_size: int = 1

    def __post_init__(self) -> None:
        # ``not (x > 0)`` instead of ``x <= 0``: a NaN timeout passes the
        # latter and would silently disable deadline enforcement
        if self.timeout is not None and not (self.timeout > 0):
            raise ValueError(f"timeout must be positive or None, got {self.timeout}")
        if self.mega_batch_size < 1:
            raise ValueError(f"mega_batch_size must be >= 1, got {self.mega_batch_size}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0 or self.backoff_jitter < 0:
            raise ValueError("backoff parameters must be non-negative")
        if not self.ladder:
            raise ValueError("the degradation ladder needs at least one step")
        object.__setattr__(self, "ladder", tuple(self.ladder))

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def step(self, index: int) -> LadderStep:
        """The ladder rung used by attempt ``index`` (clamped to the last)."""
        return self.ladder[min(index, len(self.ladder) - 1)]

    def backoff(self, instance: str, attempt: int) -> float:
        """Delay before re-dispatching ``instance`` after failed attempt
        ``attempt`` — exponential with cap plus deterministic seeded jitter."""
        delay = min(self.backoff_base * (2.0 ** attempt), self.backoff_cap)
        if delay <= 0:
            return 0.0
        jitter = _stable_rng(self.seed, instance, attempt).uniform(0.0, self.backoff_jitter)
        return delay * (1.0 + jitter)


@dataclass(frozen=True)
class ChaosPolicy:
    """Seeded fault injection for workers — the test suite's failure lab.

    For every ``(instance, attempt)`` the worker draws once from a stable
    seeded RNG and either runs clean or suffers exactly one of

    * ``kill`` — ``SIGKILL`` of the worker process (simulated segfault/OOM),
    * ``hang`` — an uninterruptible sleep of ``hang_seconds`` (the parent's
      deadline must reap it),
    * ``raise`` — an injected :class:`repro.serve.worker.ChaosError`.

    With ``mid_solve=True`` (default) the action fires *inside* the
    γ-bisection inner loop whenever the attempt's algorithm routes through a
    :class:`~repro.perf.oracle.BatchedOracle` (after ``fire_after_probes``
    γ-array or γ-row requests), i.e. genuinely mid-solve; otherwise — or when the
    solve finishes before the oracle fired — it fires immediately after the
    solve, before the result is reported, which the parent cannot
    distinguish from an in-solve failure.  ``attempts`` limits chaos to the
    first that many attempts of each instance (``None`` = all attempts), so
    tests can prove the retry path deterministically recovers.
    """

    seed: int = 0
    kill_prob: float = 0.0
    hang_prob: float = 0.0
    raise_prob: float = 0.0
    attempts: Optional[int] = None
    mid_solve: bool = True
    hang_seconds: float = 3600.0
    fire_after_probes: int = 2

    def __post_init__(self) -> None:
        for name in ("kill_prob", "hang_prob", "raise_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        if self.kill_prob + self.hang_prob + self.raise_prob > 1.0 + 1e-12:
            raise ValueError("kill/hang/raise probabilities must sum to <= 1")
        if self.attempts is not None and self.attempts < 0:
            raise ValueError(f"attempts must be >= 0 or None, got {self.attempts}")
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be positive")

    def draw(self, instance: str, attempt: int) -> Optional[str]:
        """The injected action for this attempt: ``"kill"``, ``"hang"``,
        ``"raise"`` or ``None`` (clean).  Deterministic per
        ``(seed, instance, attempt)``."""
        if self.attempts is not None and attempt >= self.attempts:
            return None
        r = _stable_rng("chaos", self.seed, instance, attempt).random()
        if r < self.kill_prob:
            return "kill"
        if r < self.kill_prob + self.hang_prob:
            return "hang"
        if r < self.kill_prob + self.hang_prob + self.raise_prob:
            return "raise"
        return None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "kill_prob": self.kill_prob,
            "hang_prob": self.hang_prob,
            "raise_prob": self.raise_prob,
            "attempts": self.attempts,
            "mid_solve": self.mid_solve,
            "hang_seconds": self.hang_seconds,
            "fire_after_probes": self.fire_after_probes,
        }
