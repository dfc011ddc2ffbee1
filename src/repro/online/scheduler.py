"""Online arrival-epoch scheduling on the shared incremental-replan core.

:class:`OnlineScheduler` consumes a stream of ``(job, release)`` pairs,
groups the arrivals into epochs by a configurable policy, and at each epoch
re-plans the *pending* work through :class:`~repro.core.replan.ReplanState`
— the same commit / drain / re-plan machinery the fault-recovery loop uses:

* entries that already finished by the epoch are committed;
* entries that started earlier keep *draining* to completion;
* every waiting job (placed-but-unstarted segments plus the new arrivals)
  is re-solved with :func:`~repro.core.scheduler.schedule_moldable` on the
  full machine set, anchored at the drain barrier.

Epoch policies:

``immediate``
    one epoch per distinct release instant — lowest latency, most re-plans;
``quantum``
    arrivals are deferred to the next multiple of ``quantum`` — a dispatch
    tick, bounding re-plan frequency under bursty traffic;
``count``
    arrivals are batched ``batch_size`` at a time; the epoch fires at the
    release of the batch's last job (a partial final batch fires at its own
    last release).

The default ``backend="auto"`` is decided per epoch by the epoch's size
(:func:`~repro.core.backend.auto_backend`): online epochs are small, so most
run the scalar reference.  Consecutive vectorized ``two_approx`` / ``fptas``
re-plans share γ-search work exactly as in recovery: each such epoch's
:class:`~repro.perf.oracle.BatchedOracle` is built with the ``warm_start``
flag and primed from the previous one.  Because
every online epoch adds new jobs, cross-epoch priming usually transfers
nothing (:meth:`~repro.perf.oracle.BatchedOracle.prime_from` is exact or
nothing); the measured probe reduction comes from the within-epoch
bracket/prediction warm start, and the warm/cold toggle never changes
the schedule — warm and cold runs are bit-identical in every placement
(the differential ``online`` family pins this across all backends).

The stitched result is validator-clean and respects every release by
construction: a job's segment starts at or after its epoch's barrier, which
is at or after its release.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.bounds import makespan_lower_bound, release_aware_lower_bound
from repro.core.job import MoldableJob
from repro.core.replan import EPOCH_EPS, ReplanError, ReplanState
from repro.core.schedule import Schedule
from repro.core.scheduler import (
    SchedulingResult,
    check_distinct_jobs,
    check_machine_count,
    schedule_moldable,
)
from repro.core.validation import validate_schedule

__all__ = [
    "Arrival",
    "OnlineEpoch",
    "RegretReport",
    "OnlineResult",
    "OnlineScheduler",
    "EPOCH_POLICIES",
]

EPOCH_POLICIES = ("immediate", "quantum", "count")

ArrivalLike = Union["Arrival", Tuple[MoldableJob, float]]


@dataclass(frozen=True)
class Arrival:
    """One job and the instant it becomes known to the scheduler."""

    job: MoldableJob
    release: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.release) or self.release < 0.0:
            raise ValueError(
                f"release of {self.job.name!r} must be finite and >= 0, got {self.release}"
            )


@dataclass(frozen=True)
class OnlineEpoch:
    """What one arrival epoch did to the running plan."""

    time: float
    arrivals: int
    finished: int
    continuing: int
    requeued: int
    replanned: int
    barrier: float
    replan_latency: float
    replan_algorithm: Optional[str]
    replan_backend: Optional[str]


@dataclass
class RegretReport:
    """How the online schedule compares to clairvoyance.

    ``offline_makespan`` is the clairvoyant plan — the same algorithm solving
    all jobs as if they were known (and available) at time 0 — so ``regret``
    is the full price of not knowing the future, including the idleness
    releases force.  ``lower_bound`` is the release-aware bound, against
    which ``ratio_vs_lower_bound`` certifies the online plan's quality on
    its own terms.  ``gamma_probes`` counts only the epochs that ran
    vectorized; it is ``None`` when every epoch ran scalar.
    """

    online_makespan: float
    offline_makespan: float
    lower_bound: float
    replans: int
    replan_latencies: List[float] = field(default_factory=list)
    gamma_probes: Optional[int] = None
    epochs: List[OnlineEpoch] = field(default_factory=list)

    @property
    def regret(self) -> float:
        return self.online_makespan - self.offline_makespan

    @property
    def regret_ratio(self) -> float:
        if self.offline_makespan <= 0:
            return 1.0
        return self.online_makespan / self.offline_makespan

    @property
    def ratio_vs_lower_bound(self) -> float:
        if self.lower_bound <= 0:
            return 1.0
        return self.online_makespan / self.lower_bound

    def summary_lines(self) -> List[str]:
        lines = [
            f"online makespan       {self.online_makespan:.4f}",
            f"clairvoyant makespan  {self.offline_makespan:.4f}"
            f"  (regret {self.regret:+.4f}, x{self.regret_ratio:.3f})",
            f"release-aware LB      {self.lower_bound:.4f}"
            f"  (online at x{self.ratio_vs_lower_bound:.3f})",
            f"re-plans              {self.replans}"
            + (
                f"  (max latency {max(self.replan_latencies) * 1e3:.1f} ms)"
                if self.replan_latencies
                else ""
            ),
        ]
        if self.gamma_probes is not None:
            lines.append(f"gamma probes          {self.gamma_probes}")
        return lines


@dataclass
class OnlineResult:
    """Stitched online schedule plus its regret report."""

    schedule: Schedule
    report: RegretReport
    offline: SchedulingResult
    arrivals: List[Arrival]

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def jobs(self) -> List[MoldableJob]:
        return [a.job for a in self.arrivals]

    @property
    def releases(self) -> List[float]:
        return [a.release for a in self.arrivals]


class OnlineScheduler:
    """Incremental (3/2+ε)-quality scheduling of jobs arriving over time.

    Parameters mirror :func:`~repro.core.scheduler.schedule_moldable`
    (``m`` must be a positive integer, not a ``bool``);
    ``policy`` / ``quantum`` / ``batch_size`` select the epoch grouping, and
    ``warm_start`` toggles γ-cache reuse across and within the per-epoch
    re-solves (never the schedule itself — warm and cold are bit-identical).
    ``backend="auto"`` (default) picks the backend per epoch, and for the
    clairvoyant baseline, by instance size; every backend gives the same
    schedule, and each epoch record names the one that ran.
    """

    def __init__(
        self,
        m: int,
        *,
        eps: float = 0.1,
        algorithm: str = "auto",
        backend: str = "auto",
        warm_start: bool = True,
        policy: str = "immediate",
        quantum: Optional[float] = None,
        batch_size: Optional[int] = None,
        validate: bool = True,
    ) -> None:
        check_machine_count(m)
        if policy not in EPOCH_POLICIES:
            raise ValueError(f"unknown epoch policy {policy!r} (choose from {EPOCH_POLICIES})")
        if policy == "quantum":
            if quantum is None or not math.isfinite(quantum) or quantum <= 0:
                raise ValueError("policy='quantum' needs a finite quantum > 0")
        elif quantum is not None:
            raise ValueError("quantum is only meaningful with policy='quantum'")
        if policy == "count":
            if batch_size is None or batch_size < 1:
                raise ValueError("policy='count' needs batch_size >= 1")
        elif batch_size is not None:
            raise ValueError("batch_size is only meaningful with policy='count'")
        self.m = m
        self.eps = eps
        self.algorithm = algorithm
        self.backend = backend
        self.warm_start = warm_start
        self.policy = policy
        self.quantum = quantum
        self.batch_size = batch_size
        self.validate = validate

    # -- epoch grouping -----------------------------------------------------

    def _epochs(self, arrivals: Sequence[Arrival]) -> List[Tuple[float, List[Arrival]]]:
        """Group release-sorted arrivals into ``(epoch time, batch)`` pairs,
        epoch times non-decreasing, every batch member released at or before
        its epoch time."""
        epochs: List[Tuple[float, List[Arrival]]] = []
        if self.policy == "count":
            size = int(self.batch_size)  # type: ignore[arg-type]
            for lo in range(0, len(arrivals), size):
                batch = list(arrivals[lo : lo + size])
                epochs.append((batch[-1].release, batch))
            return epochs
        for a in arrivals:
            if self.policy == "immediate":
                t = a.release
            else:  # quantum: defer to the next dispatch tick (t=0 stays 0)
                t = math.ceil(a.release / self.quantum) * self.quantum  # type: ignore[operator]
            if epochs and epochs[-1][0] == t:
                epochs[-1][1].append(a)
            else:
                epochs.append((t, [a]))
        return epochs

    # -- the online loop ----------------------------------------------------

    def run(self, arrivals: Sequence[ArrivalLike]) -> OnlineResult:
        """Schedule the whole arrival stream and return the stitched result.

        ``arrivals`` may hold :class:`Arrival` objects or ``(job, release)``
        pairs, in any order; they are sorted by release (stably, so equal
        releases keep their submission order — part of the determinism
        contract)."""
        normalised = [a if isinstance(a, Arrival) else Arrival(a[0], float(a[1])) for a in arrivals]
        stream = sorted(normalised, key=lambda a: a.release)
        jobs = [a.job for a in stream]
        releases = [a.release for a in stream]
        check_distinct_jobs(jobs)

        # the clairvoyant baseline: same algorithm, everything known at t=0
        offline = schedule_moldable(
            jobs,
            self.m,
            self.eps,
            algorithm=self.algorithm,
            validate=False,
            backend=self.backend,
        )

        state = ReplanState(
            m=self.m,
            eps=self.eps,
            algorithm=self.algorithm,
            backend=self.backend,
            warm_start=self.warm_start,
            error=ReplanError,
        )
        records: List[OnlineEpoch] = []
        full_machines = ((0, self.m),)
        for tau, batch in self._epochs(stream):
            state.add_jobs([a.job for a in batch])
            part = state.commit_epoch(tau)
            # no casualties online: every running entry drains
            outcome = state.replan_pending(tau, part.running, full_machines)
            records.append(
                OnlineEpoch(
                    time=tau,
                    arrivals=len(batch),
                    finished=len(part.finished),
                    continuing=len(part.running),
                    requeued=len(part.queued),
                    replanned=outcome.replanned,
                    barrier=outcome.barrier,
                    replan_latency=outcome.latency,
                    replan_algorithm=outcome.algorithm,
                    replan_backend=outcome.backend,
                )
            )
        state.finish()
        stitched = state.stitch(
            metadata={
                "algorithm": f"online[{self.algorithm}]",
                "policy": self.policy,
                "epochs": len(records),
                "replans": len(state.replan_latencies),
            }
        )

        if self.validate:
            verdict = validate_schedule(stitched, jobs)
            if not verdict.ok:
                raise ReplanError(
                    "stitched online schedule failed validation: "
                    + "; ".join(verdict.violations[:5])
                )
            release_of: Dict[int, float] = {id(a.job): a.release for a in stream}
            for entry in stitched.entries:
                if entry.start < release_of[id(entry.job)] - EPOCH_EPS:
                    raise ReplanError(
                        f"job {entry.job.name!r} starts at {entry.start} before "
                        f"its release {release_of[id(entry.job)]}"
                    )

        lower = release_aware_lower_bound(
            jobs, releases, self.m, base=makespan_lower_bound(jobs, self.m)
        )
        report = RegretReport(
            online_makespan=stitched.makespan,
            offline_makespan=offline.schedule.makespan,
            lower_bound=lower,
            replans=len(state.replan_latencies),
            replan_latencies=state.replan_latencies,
            gamma_probes=state.gamma_probes,
            epochs=records,
        )
        return OnlineResult(schedule=stitched, report=report, offline=offline, arrivals=stream)
