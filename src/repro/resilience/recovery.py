"""Failure-driven re-planning: drain-and-replan recovery with γ warm starts.

:func:`recover_with_faults` executes an instance against a
:class:`~repro.resilience.faults.FaultPlan` *with* re-scheduling: whenever
the fault state changes (a failure fires, a repair completes, a kill lands),
the loop

1. commits every entry that already finished (completed work is preserved),
2. discards the runs hit by the new failures (casualties restart from
   scratch — moldable jobs do not checkpoint) and drops killed jobs,
3. lets unaffected running entries *drain* to completion, and
4. re-plans every pending job on the machines available at the epoch via
   :func:`~repro.core.scheduler.schedule_moldable`, starting the new segment
   at the drain barrier (the latest end among the surviving running
   entries).

The epoch machinery itself — committed/continuing/pending partition, barrier
computation, abstract→physical span remapping, per-epoch algorithm-regime
re-check, cross-epoch :class:`~repro.perf.oracle.BatchedOracle` priming and
schedule stitching — lives in the shared :mod:`repro.core.replan` core
(:class:`~repro.core.replan.ReplanState`); this module contributes only the
fault semantics: which running entries are casualties, which jobs are
killed, and what the surviving machine intervals are at each epoch.  The
online arrival scheduler (:mod:`repro.online`) is the same core's other
client.

Segment schedules are solved on an *abstract* contiguous machine set
``[0, m_avail)`` — every driver assumes contiguous machines — and then
remapped span-by-span onto the physical surviving intervals (order
preserving, so disjoint abstract spans stay disjoint physically; the
remapping is plain integer arithmetic and works unchanged for
astronomically large machine counts).  Because each segment starts at or
after the drain barrier and all earlier work ends at or before it, the
stitched end-to-end schedule is conflict-free *by construction* and passes
the unmodified :func:`~repro.core.validation.validate_schedule` (with the
killed jobs removed from the expected set).

Consecutive vectorized ``two_approx`` / ``fptas`` re-plans reuse γ-search
work two ways: the per-epoch
:class:`~repro.perf.oracle.BatchedOracle` is built with ``warm_start=True``
*and* primed from the previous epoch's oracle
(:meth:`~repro.perf.oracle.BatchedOracle.prime_from`), so each epoch's dual
search starts from the cached γ-thresholds of the epoch before it — the
pending set only shrinks and the estimator's target thresholds barely move
between epochs, which is exactly the regime the warm start's brackets
exploit (its closed-form predictions need no neighbours at all).

The loop is deterministic: identical inputs produce identical stitched
schedules under every backend (the differential harness's ``faulty`` family
pins the scalar reference against the vectorized drivers, whose list
scheduling runs the event queue, bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.job import MoldableJob
from repro.core.replan import PlacedEntry, ReplanState
from repro.core.schedule import Schedule
from repro.core.scheduler import SchedulingResult, schedule_moldable
from repro.core.validation import validate_schedule

from .executor import LostRun, spans_hit
from .faults import FaultPlan

__all__ = [
    "RecoveryError",
    "EpochRecord",
    "DegradationReport",
    "RecoveryResult",
    "recover_with_faults",
]


class RecoveryError(RuntimeError):
    """Recovery is impossible (e.g. no machine left) or produced an
    internally inconsistent schedule."""


@dataclass(frozen=True)
class EpochRecord:
    """What one fault epoch did to the running plan."""

    time: float
    machines_failed: int
    machines_repaired: int
    machines_available: int
    finished: int
    continuing: int
    lost: int
    killed: int
    requeued: int
    replanned: int
    barrier: float
    replan_latency: float
    replan_algorithm: Optional[str]
    replan_backend: Optional[str]


@dataclass
class DegradationReport:
    """How much the faults cost, relative to the fault-free plan.

    ``gamma_probes`` counts only the re-plans that ran vectorized; it is
    ``None`` when every re-plan ran scalar.
    """

    fault_free_makespan: float
    recovered_makespan: float
    machines_lost: int
    jobs_killed: int
    jobs_restarted: int
    work_completed: float
    work_lost: float
    replans: int
    replan_latencies: List[float] = field(default_factory=list)
    gamma_probes: Optional[int] = None
    epochs: List[EpochRecord] = field(default_factory=list)

    @property
    def makespan_regret(self) -> float:
        """Absolute makespan increase caused by the faults (can be negative
        only through kills removing work)."""
        return self.recovered_makespan - self.fault_free_makespan

    @property
    def regret_ratio(self) -> float:
        if self.fault_free_makespan <= 0:
            return 1.0
        return self.recovered_makespan / self.fault_free_makespan

    def summary_lines(self) -> List[str]:
        lines = [
            f"fault-free makespan   {self.fault_free_makespan:.4f}",
            f"recovered makespan    {self.recovered_makespan:.4f}"
            f"  (regret {self.makespan_regret:+.4f}, x{self.regret_ratio:.3f})",
            f"machines lost         {self.machines_lost}",
            f"jobs killed           {self.jobs_killed}",
            f"jobs restarted        {self.jobs_restarted}",
            f"work completed/lost   {self.work_completed:.2f} / {self.work_lost:.2f}",
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
class RecoveryResult:
    """Stitched fault-tolerant schedule plus its degradation report."""

    schedule: Schedule
    report: DegradationReport
    plan: FaultPlan
    fault_free: SchedulingResult
    killed: List[str]
    lost: List[LostRun]

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def survivors(self) -> List[MoldableJob]:
        killed = set(self.killed)
        return [j for j in self.fault_free.schedule.jobs() if j.name not in killed]


def recover_with_faults(
    jobs: Sequence[MoldableJob],
    m: int,
    plan: FaultPlan,
    *,
    eps: float = 0.1,
    algorithm: str = "auto",
    backend: str = "auto",
    warm_start: bool = True,
    validate: bool = True,
) -> RecoveryResult:
    """Execute ``jobs`` on ``m`` machines under ``plan`` with re-planning.

    Parameters mirror :func:`~repro.core.scheduler.schedule_moldable`;
    ``warm_start`` additionally controls whether consecutive re-plans share
    γ-caches (``BatchedOracle(warm_start=...)`` plus cross-epoch
    :meth:`~repro.perf.oracle.BatchedOracle.prime_from` priming) — the bench
    suite's recovery rows measure exactly this toggle, pinned to
    ``backend="vectorized"``.  ``backend="auto"`` (default) picks the backend
    per re-plan, and for the fault-free plan, by instance size (see
    :mod:`repro.core.backend`); every backend gives the same schedule, and
    each epoch record names the one that ran.  With ``validate``
    the stitched schedule is checked against the surviving (non-killed) job
    set and a failure raises :class:`RecoveryError` (it would be a bug in
    the stitching, not in the caller's input).
    """
    jobs = list(jobs)
    if plan.m != m:
        raise ValueError(f"fault plan is for m={plan.m} machines, scheduler called with m={m}")
    names = [j.name for j in jobs]
    by_name: Dict[str, MoldableJob] = {j.name: j for j in jobs}
    if plan.kills:
        if len(set(names)) != len(names):
            raise ValueError("job names must be unique when the fault plan contains kills")
        for k in plan.kills:
            if k.job not in by_name:
                raise ValueError(f"fault plan kills unknown job {k.job!r}")

    fault_free = schedule_moldable(
        jobs, m, eps, algorithm=algorithm, validate=False, backend=backend
    )

    if not jobs:
        report = DegradationReport(
            fault_free_makespan=0.0,
            recovered_makespan=0.0,
            machines_lost=plan.machines_lost_forever(),
            jobs_killed=0,
            jobs_restarted=0,
            work_completed=0.0,
            work_lost=0.0,
            replans=0,
        )
        return RecoveryResult(
            schedule=Schedule(m=m),
            report=report,
            plan=plan,
            fault_free=fault_free,
            killed=[],
            lost=[],
        )

    state = ReplanState(
        m=m,
        eps=eps,
        algorithm=algorithm,
        backend=backend,
        warm_start=warm_start,
        error=RecoveryError,
    )
    state.add_jobs(jobs)
    state.place_existing(fault_free.schedule.entries)

    killed: List[str] = []
    lost: List[LostRun] = []
    epochs: List[EpochRecord] = []

    for tau in plan.epochs():
        events = plan.events_at(tau)
        new_failures = events["failures"]
        kill_names = {k.job for k in events["kills"]}

        part = state.commit_epoch(tau)

        # casualties: running entries whose machines just went down
        continuing: List[PlacedEntry] = []
        n_lost = 0
        for p in part.running:
            hit = next((f for f in new_failures if spans_hit(p.spans, f)), None)
            if hit is not None:
                n_lost += 1
                lost.append(
                    LostRun(
                        job_name=p.job.name,
                        start=p.start,
                        cut=tau,
                        processors=p.processors,
                        scheduled_end=p.end,
                        cause="failure",
                        cause_time=tau,
                    )
                )
            else:
                continuing.append(p)

        # kills: running partials are lost, pending jobs simply leave the pool
        n_killed = 0
        if kill_names:
            still: List[PlacedEntry] = []
            for p in continuing:
                if p.job.name in kill_names:
                    lost.append(
                        LostRun(
                            job_name=p.job.name,
                            start=p.start,
                            cut=tau,
                            processors=p.processors,
                            scheduled_end=p.end,
                            cause="kill",
                            cause_time=tau,
                        )
                    )
                else:
                    still.append(p)
            continuing = still
            for name in kill_names:
                if state.drop_job(by_name[name]):
                    killed.append(name)
                    n_killed += 1

        outcome = state.replan_pending(tau, continuing, plan.available_intervals(tau))

        epochs.append(
            EpochRecord(
                time=tau,
                machines_failed=sum(f.count for f in new_failures),
                machines_repaired=sum(f.count for f in events["repairs"]),
                machines_available=outcome.m_avail,
                finished=len(part.finished),
                continuing=len(continuing),
                lost=n_lost,
                killed=n_killed,
                requeued=len(part.queued),
                replanned=outcome.replanned,
                barrier=outcome.barrier,
                replan_latency=outcome.latency,
                replan_algorithm=outcome.algorithm,
                replan_backend=outcome.backend,
            )
        )

    # everything still placed after the last event runs to completion
    state.finish()

    stitched = state.stitch(
        metadata={
            "algorithm": f"recovery[{algorithm}]",
            "fault_events": len(plan),
            "replans": len(state.replan_latencies),
        }
    )

    survivors = [j for j in jobs if j.name not in set(killed)]
    if validate:
        verdict = validate_schedule(stitched, survivors)
        if not verdict.ok:
            raise RecoveryError(
                "stitched recovery schedule failed validation: "
                + "; ".join(verdict.violations[:5])
            )

    report = DegradationReport(
        fault_free_makespan=fault_free.schedule.makespan,
        recovered_makespan=stitched.makespan,
        machines_lost=plan.machines_lost_forever(),
        jobs_killed=len(killed),
        jobs_restarted=len({r.job_name for r in lost if r.job_name not in set(killed)}),
        work_completed=stitched.total_work,
        work_lost=sum(r.work_lost for r in lost),
        replans=len(state.replan_latencies),
        replan_latencies=state.replan_latencies,
        gamma_probes=state.gamma_probes,
        epochs=epochs,
    )
    return RecoveryResult(
        schedule=stitched,
        report=report,
        plan=plan,
        fault_free=fault_free,
        killed=killed,
        lost=lost,
    )
