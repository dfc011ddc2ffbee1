"""Shared incremental re-planning core: commit / drain / re-plan at a barrier.

Two production loops need the same epoch machinery:

* the fault-recovery loop (:func:`repro.resilience.recovery.recover_with_faults`)
  re-plans the surviving pending set whenever the fault state changes;
* the online arrival scheduler (:class:`repro.online.OnlineScheduler`)
  re-plans the waiting set whenever new jobs are released.

Both are the same shape — *commit what ran, keep what's running, re-plan the
rest at a barrier* — so the machinery lives here once:

1. **Partition** (:meth:`ReplanState.commit_epoch`): at epoch time ``tau``,
   entries that already ended are committed (completed work is never redone),
   entries that started before ``tau`` keep *draining* to completion, and
   entries that had not started yet fall back into the pending pool.
2. **Re-plan** (:meth:`ReplanState.replan_pending`): every pending job not
   currently draining is re-solved via
   :func:`~repro.core.scheduler.schedule_moldable` on the machines available
   at the epoch, with the segment anchored at the *barrier* — the latest end
   among the draining entries (or ``tau`` itself when nothing drains).  The
   per-epoch algorithm regime is re-checked (:func:`segment_algorithm`) so a
   caller-pinned ``fptas``/``exact`` falls back deterministically when the
   epoch leaves its applicability window.
3. **Remap** (:func:`remap_spans`): segment schedules are solved on an
   abstract contiguous machine set ``[0, m_avail)`` and remapped
   span-by-span onto the physical available intervals by the order-preserving
   bijection — plain integer arithmetic, exact at astronomically large ``m``.
4. **Stitch** (:meth:`ReplanState.stitch`): committed entries concatenate
   into one :class:`~repro.core.schedule.Schedule`; because every segment
   starts at or after its barrier and all earlier work ends at or before it,
   the stitched schedule is conflict-free by construction and passes the
   unmodified validator.

Consecutive re-plans share γ-search work: each epoch that resolves to a
vectorized ``two_approx`` or ``fptas`` solve (the drivers that accept an
external oracle) gets a :class:`~repro.perf.oracle.BatchedOracle` built with
the caller's ``warm_start`` flag and primed from the previous such epoch's
oracle (:meth:`~repro.perf.oracle.BatchedOracle.prime_from`), so the dual
search starts from the cached thresholds of the epoch before it.  With
``backend="auto"`` the backend is decided per epoch from the epoch's own
size (:func:`~repro.core.backend.auto_backend`), so small epochs run the
scalar reference and build no oracle.  The state is
deterministic: identical epoch sequences produce identical stitched schedules
under every backend (the differential ``faulty`` and ``online`` families pin
this bit for bit).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.core.backend import MAX_VECTORIZED_M, auto_backend
from repro.core.fptas import fptas_machine_threshold
from repro.core.job import MoldableJob
from repro.core.schedule import Schedule
from repro.core.scheduler import auto_algorithm, schedule_moldable
from repro.perf.oracle import BatchedOracle

__all__ = [
    "EPOCH_EPS",
    "ReplanError",
    "PlacedEntry",
    "EpochPartition",
    "ReplanOutcome",
    "ReplanState",
    "availability_prefix",
    "remap_spans",
    "segment_algorithm",
]

Interval = Tuple[int, int]

#: Absolute tolerance for "ends at the epoch" / "starts at the epoch" ties.
EPOCH_EPS = 1e-9


class ReplanError(RuntimeError):
    """Re-planning is impossible (e.g. no machine available) or produced an
    internally inconsistent state."""


@dataclass
class PlacedEntry:
    """An absolutely-placed entry awaiting completion."""

    job: MoldableJob
    start: float
    spans: List[Interval]
    duration: float
    duration_override: Optional[float]

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def processors(self) -> int:
        return sum(count for _, count in self.spans)


@dataclass(frozen=True)
class EpochPartition:
    """:meth:`ReplanState.commit_epoch`'s split of the in-flight entries."""

    #: ended at or before the epoch — already committed by ``commit_epoch``
    finished: List[PlacedEntry]
    #: started strictly before the epoch and still running — candidates to drain
    running: List[PlacedEntry]
    #: placed at or after the epoch but not started — returned to the pool
    queued: List[PlacedEntry]


@dataclass(frozen=True)
class ReplanOutcome:
    """What one :meth:`ReplanState.replan_pending` call did."""

    barrier: float
    m_avail: int
    replanned: int
    latency: float
    #: the driver the segment solve ran (``"auto"`` resolved), None if idle
    algorithm: Optional[str]
    #: the backend the segment solve ran (never ``"auto"``), None if idle
    backend: Optional[str]


def availability_prefix(available: Sequence[Interval]) -> List[int]:
    """``prefix[i]`` = number of available machines before interval ``i``
    (one extra trailing entry holding the total)."""
    prefix = [0]
    for first, end in available:
        prefix.append(prefix[-1] + (end - first))
    return prefix


def remap_spans(
    spans: Sequence[Interval],
    available: Sequence[Interval],
    prefix: Sequence[int],
    *,
    error: Type[Exception] = ReplanError,
) -> List[Interval]:
    """Map abstract contiguous-machine spans onto the physical available
    intervals.

    ``available`` is the sorted disjoint interval list of up machines;
    ``prefix[i]`` is the number of available machines before interval ``i``.
    The mapping is the order-preserving bijection from abstract position
    ``p`` to the ``p``-th available physical machine, so disjoint abstract
    spans map to disjoint physical machine sets (possibly split into several
    physical spans each).
    """
    out: List[Interval] = []
    for first, count in spans:
        pos = first
        remaining = count
        i = bisect_right(prefix, pos) - 1
        while remaining > 0:
            if i >= len(available):
                raise error(
                    f"abstract span ({first}, {count}) exceeds the available machines"
                )
            base, end = available[i]
            offset = pos - prefix[i]
            width = (end - base) - offset
            if width <= 0:
                raise error(
                    f"abstract span ({first}, {count}) exceeds the available machines"
                )
            take = min(remaining, width)
            out.append((base + offset, base + offset + take))
            remaining -= take
            pos += take
            i += 1
    # Schedule spans are (first, count) pairs; merge adjacency for stability.
    merged: List[Interval] = []
    for a, b in out:
        if merged and merged[-1][1] == a:
            merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    return [(a, b - a) for a, b in merged]


def segment_algorithm(algorithm: str, n: int, m_avail: int, eps: float) -> str:
    """Per-epoch algorithm choice: respect the caller's pick where it stays
    applicable on the epoch's machine set, fall back deterministically
    otherwise (identically across backends, preserving bit-equality)."""
    if algorithm == "auto":
        return "auto"  # schedule_moldable re-derives the regime per segment
    if algorithm == "fptas" and m_avail < fptas_machine_threshold(n, eps):
        return "bounded"
    if algorithm == "exact" and (n > 7 or m_avail > 8):
        return "bounded"
    return algorithm


@dataclass
class ReplanState:
    """Mutable state of one incremental re-planning run.

    The job pool may be seeded up front (recovery: every job exists at t=0)
    or grown over time via :meth:`add_jobs` (online arrivals).  ``jobs``
    preserves insertion order, and re-plans always iterate it in that order —
    segment solves are order-sensitive in tie-breaking, so this is part of
    the bit-identity contract.

    ``error`` is the exception class raised on impossible states, letting
    clients surface their own domain error (recovery raises
    ``RecoveryError``) without wrapping.
    """

    m: int
    eps: float = 0.1
    algorithm: str = "auto"
    backend: str = "auto"
    warm_start: bool = True
    error: Type[Exception] = ReplanError

    jobs: List[MoldableJob] = field(default_factory=list)
    pending: Dict[int, MoldableJob] = field(default_factory=dict)
    committed: List[PlacedEntry] = field(default_factory=list)
    current: List[PlacedEntry] = field(default_factory=list)
    replan_latencies: List[float] = field(default_factory=list)
    #: γ-probes of the re-plan oracles, summed over the epochs that ran
    #: vectorized; None while every epoch ran scalar
    gamma_probes: Optional[int] = None
    prev_oracle: Optional[BatchedOracle] = None

    def __post_init__(self) -> None:
        self.gamma_probes = 0 if self.backend == "vectorized" else None

    # -- pool management ----------------------------------------------------

    def add_jobs(self, jobs: Sequence[MoldableJob]) -> None:
        """Add newly-arrived jobs to the pending pool (insertion order is the
        re-plan order)."""
        for job in jobs:
            self.jobs.append(job)
            self.pending[id(job)] = job

    def drop_job(self, job: MoldableJob) -> bool:
        """Remove a pending job from the pool (e.g. a kill); returns whether
        it was still pending."""
        return self.pending.pop(id(job), None) is not None

    def place_existing(self, entries: Sequence) -> None:
        """Seed the in-flight set from an existing schedule's entries (the
        recovery loop starts from the complete fault-free plan)."""
        self.current = [
            PlacedEntry(
                job=e.job,
                start=e.start,
                spans=list(e.spans),
                duration=e.duration,
                duration_override=e.duration_override,
            )
            for e in entries
        ]

    # -- the epoch loop -----------------------------------------------------

    def commit_epoch(self, tau: float) -> EpochPartition:
        """Commit every in-flight entry that ended by ``tau`` and partition
        the rest into running (started, still going) and queued (not yet
        started) entries.

        The caller decides which running entries actually *continue* (the
        recovery loop drops casualties and kills first) and passes the
        survivors to :meth:`replan_pending`; queued entries implicitly return
        to the pool because their jobs are still pending.
        """
        finished = [p for p in self.current if p.end <= tau + EPOCH_EPS]
        for p in finished:
            self.committed.append(p)
            self.pending.pop(id(p.job), None)
        live = [p for p in self.current if p.end > tau + EPOCH_EPS]
        running = [p for p in live if p.start < tau - EPOCH_EPS]
        queued = [p for p in live if p.start >= tau - EPOCH_EPS]
        return EpochPartition(finished=finished, running=running, queued=queued)

    def replan_pending(
        self,
        tau: float,
        continuing: Sequence[PlacedEntry],
        available: Sequence[Interval],
    ) -> ReplanOutcome:
        """Re-plan every pending job not draining in ``continuing`` on the
        ``available`` machine intervals, anchored at the drain barrier.

        The segment solve reuses γ-search work when it resolves to a
        vectorized ``two_approx`` or ``fptas`` solve: a fresh
        :class:`~repro.perf.oracle.BatchedOracle` is built with this state's
        ``warm_start`` flag and primed from the previous epoch's oracle, and
        its probe count lands in :attr:`gamma_probes`.  After the call,
        :attr:`current` holds the continuing entries plus the freshly placed
        segment.
        """
        draining = {id(p.job) for p in continuing}
        to_plan = [j for j in self.jobs if id(j) in self.pending and id(j) not in draining]
        m_avail = sum(end - first for first, end in available)
        if not to_plan:
            self.current = list(continuing)
            return ReplanOutcome(
                barrier=tau,
                m_avail=m_avail,
                replanned=0,
                latency=0.0,
                algorithm=None,
                backend=None,
            )
        if m_avail < 1:
            raise self.error(
                f"no machines available at epoch {tau} but {len(to_plan)} jobs are pending"
            )
        barrier = max([tau] + [p.end for p in continuing])
        seg_algorithm = segment_algorithm(self.algorithm, len(to_plan), m_avail, self.eps)
        chosen = (
            auto_algorithm(len(to_plan), m_avail, self.eps)
            if seg_algorithm == "auto"
            else seg_algorithm
        )
        oracle: Optional[BatchedOracle] = None
        # only two_approx / fptas accept an external oracle — don't build one
        # the driver ignores or a scalar solve never reads
        if chosen in ("two_approx", "fptas"):
            backend = self.backend
            if backend == "auto":
                backend = auto_backend(chosen, len(to_plan), m_avail)
            if backend == "vectorized" and m_avail <= MAX_VECTORIZED_M:
                oracle = BatchedOracle(to_plan, m_avail, warm_start=self.warm_start)
                if self.warm_start and self.prev_oracle is not None:
                    oracle.prime_from(self.prev_oracle)
        t0 = perf_counter()
        segment = schedule_moldable(
            to_plan,
            m_avail,
            self.eps,
            algorithm=seg_algorithm,
            validate=False,
            backend=self.backend,
            oracle=oracle,
        )
        latency = perf_counter() - t0
        self.replan_latencies.append(latency)
        if segment.backend == "vectorized":
            self.gamma_probes = (self.gamma_probes or 0) + (
                oracle.gamma_probes if oracle is not None else 0
            )
        if oracle is not None:
            self.prev_oracle = oracle
        prefix = availability_prefix(available)
        placed = [
            PlacedEntry(
                job=e.job,
                start=barrier + e.start,
                spans=remap_spans(e.spans, available, prefix, error=self.error),
                duration=e.duration,
                duration_override=e.duration_override,
            )
            for e in segment.schedule.entries
        ]
        self.current = list(continuing) + placed
        return ReplanOutcome(
            barrier=barrier,
            m_avail=m_avail,
            replanned=len(to_plan),
            latency=latency,
            algorithm=segment.algorithm,
            backend=segment.backend,
        )

    # -- finalisation -------------------------------------------------------

    def finish(self) -> None:
        """Commit everything still in flight (after the last epoch every
        placed entry runs to completion) and check nothing was dropped."""
        for p in self.current:
            self.committed.append(p)
            self.pending.pop(id(p.job), None)
        self.current = []
        if self.pending:
            raise self.error(
                f"jobs left unplanned after all epochs: "
                f"{sorted(j.name for j in self.pending.values())}"
            )

    def stitch(self, *, metadata: Optional[dict] = None) -> Schedule:
        """Concatenate the committed entries into one schedule."""
        stitched = Schedule(m=self.m, metadata=metadata or {})
        for p in self.committed:
            stitched.add(p.job, p.start, p.spans, duration_override=p.duration_override)
        return stitched
