"""Fault-aware replay of a schedule against a :class:`FaultPlan`.

:func:`execute_with_faults` answers the *descriptive* question: if this
schedule were executed verbatim while the plan's failures and kills fire,
what would actually happen?  No re-planning takes place here (that is
:mod:`repro.resilience.recovery`); the executor

* commits every entry the faults never touch (completed work is preserved),
* truncates an entry at the first instant a failure hits one of its
  machines or a kill targets its job (partial work is *lost*, moldable jobs
  do not checkpoint),
* marks entries that can never launch (their machines are down at their
  start, or their job was killed before it started) as lost with zero work,
* classifies every entry at every fault epoch — ``finished`` /
  ``continuing`` / ``lost`` / ``killed`` / ``queued`` — into per-epoch
  :class:`EpochReport` records.

The result's :meth:`FaultyExecution.trace_schedule` re-emits the replay as
a plain :class:`~repro.core.schedule.Schedule` whose interrupted entries
carry a truncated ``duration_override`` — exactly the mid-run-stop /
partial-work trace shape the discrete-event simulator
(:func:`repro.simulator.engine.simulate_schedule`) replays without
checking recorded durations against the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.schedule import Schedule, ScheduledJob

from .faults import FaultPlan, Interval, MachineFailure

__all__ = [
    "FATE_FINISHED",
    "FATE_CONTINUING",
    "FATE_LOST",
    "FATE_KILLED",
    "FATE_QUEUED",
    "LostRun",
    "EpochReport",
    "FaultyExecution",
    "execute_with_faults",
]

_EPS = 1e-9

# Job fates at a fault epoch.
FATE_FINISHED = "finished"
FATE_CONTINUING = "continuing"
FATE_LOST = "lost"
FATE_KILLED = "killed"
FATE_QUEUED = "queued"


def spans_hit(spans: Sequence[Interval], failure: MachineFailure) -> bool:
    """Whether any of the entry's machine spans intersects the failed span."""
    f_first, f_end = failure.span
    return any(first < f_end and f_first < first + count for first, count in spans)


@dataclass(frozen=True)
class LostRun:
    """A (partial) run discarded by a failure or kill."""

    job_name: str
    start: float
    cut: float
    processors: int
    scheduled_end: float
    cause: str  # "failure" or "kill"
    cause_time: float

    @property
    def work_lost(self) -> float:
        return self.processors * max(0.0, self.cut - self.start)


@dataclass(frozen=True)
class EpochReport:
    """Per-entry fates at one fault epoch (one distinct event instant)."""

    time: float
    failed: Tuple[Interval, ...]
    repaired: Tuple[Interval, ...]
    kills: Tuple[str, ...]
    fates: Dict[str, str]
    available_after: int

    def count(self, fate: str) -> int:
        return sum(1 for f in self.fates.values() if f == fate)


@dataclass
class FaultyExecution:
    """Outcome of replaying one schedule against one fault plan."""

    schedule: Schedule
    plan: FaultPlan
    completed: List[ScheduledJob]
    lost: List[LostRun]
    killed: List[str]
    epochs: List[EpochReport] = field(default_factory=list)

    @property
    def work_completed(self) -> float:
        return sum(e.work for e in self.completed)

    @property
    def work_lost(self) -> float:
        return sum(r.work_lost for r in self.lost)

    @property
    def unfinished_jobs(self) -> List[str]:
        """Jobs that neither finished nor were killed (they need recovery)."""
        done = {e.job.name for e in self.completed}
        killed = set(self.killed)
        return [
            e.job.name
            for e in self.schedule.entries
            if e.job.name not in done and e.job.name not in killed
        ]

    def completed_schedule(self) -> Schedule:
        """Only the entries that ran to completion (always conflict-free)."""
        out = Schedule(m=self.schedule.m, metadata={"faulty_replay": "completed"})
        for entry in self.completed:
            out.add(entry.job, entry.start, entry.spans, duration_override=entry.duration_override)
        return out

    def trace_schedule(self) -> Schedule:
        """The full replay as a schedule: completed entries verbatim plus the
        interrupted runs truncated at their cut instant via
        ``duration_override`` (zero-length launch failures are omitted).

        Understating overrides are a *validator* violation by design — the
        simulator replays them as genuine early stops, which is what makes
        this the canonical partial-work trace shape for the scalar/columnar
        simulator parity tests.
        """
        out = Schedule(m=self.schedule.m, metadata={"faulty_replay": "trace"})
        cuts = {(r.job_name, r.start): r.cut for r in self.lost}
        for entry in self.schedule.entries:
            key = (entry.job.name, entry.start)
            if key in cuts:
                truncated = cuts[key] - entry.start
                if truncated > _EPS:
                    out.add(entry.job, entry.start, entry.spans, duration_override=truncated)
            else:
                out.add(entry.job, entry.start, entry.spans, duration_override=entry.duration_override)
        return out


def _first_violation(
    entry: ScheduledJob, plan: FaultPlan
) -> Optional[Tuple[float, str, float]]:
    """Earliest instant the entry's run is invalidated, if any.

    Returns ``(cut, cause, cause_time)`` where ``cut`` is the truncation
    instant (clamped to the entry's start for launch failures) or ``None``
    when the entry runs to completion.  Kills win ties against failures at
    the same instant (the job is gone either way, but the fate is
    ``killed``).
    """
    start, end = entry.start, entry.end
    best: Optional[Tuple[float, str, float]] = None

    def consider(instant: float, cause: str, cause_time: float) -> None:
        nonlocal best
        cut = max(start, instant)
        if best is None or cut < best[0] - _EPS or (cut <= best[0] + _EPS and cause == "kill"):
            best = (cut, cause, cause_time)

    for f in plan.failures:
        if not spans_hit(entry.spans, f):
            continue
        # the down window [f.time, down_until) must intersect the run [start, end)
        if f.time < end - _EPS and f.down_until > start + _EPS:
            consider(f.time, "failure", f.time)
    for k in plan.kills:
        if k.job == entry.job.name and k.time < end - _EPS:
            consider(k.time, "kill", k.time)
    return best


def execute_with_faults(schedule: Schedule, plan: FaultPlan) -> FaultyExecution:
    """Replay ``schedule`` against ``plan`` without re-planning."""
    if plan.m != schedule.m:
        raise ValueError(
            f"fault plan is for m={plan.m} machines but the schedule uses m={schedule.m}"
        )
    known = {e.job.name for e in schedule.entries}
    for k in plan.kills:
        if k.job not in known:
            raise ValueError(f"fault plan kills unknown job {k.job!r}")

    entries = list(schedule.entries)
    resolutions = [_first_violation(e, plan) for e in entries]

    completed: List[ScheduledJob] = []
    lost: List[LostRun] = []
    killed: List[str] = []
    for entry, res in zip(entries, resolutions):
        if res is None:
            completed.append(entry)
            continue
        cut, cause, cause_time = res
        lost.append(
            LostRun(
                job_name=entry.job.name,
                start=entry.start,
                cut=cut,
                processors=entry.processors,
                scheduled_end=entry.end,
                cause=cause,
                cause_time=cause_time,
            )
        )
        if cause == "kill":
            killed.append(entry.job.name)

    # Per-epoch classification, derived from the same resolutions.
    epochs: List[EpochReport] = []
    for tau in plan.epochs():
        events = plan.events_at(tau)
        fates: Dict[str, str] = {}
        for entry, res in zip(entries, resolutions):
            name = entry.job.name
            if res is not None and res[2] < tau - _EPS:
                continue  # already resolved by an earlier event
            if res is not None and abs(res[2] - tau) <= _EPS:
                fates[name] = FATE_KILLED if res[1] == "kill" else FATE_LOST
            elif entry.end <= tau + _EPS:
                fates[name] = FATE_FINISHED
            elif entry.start >= tau - _EPS:
                fates[name] = FATE_QUEUED
            else:
                fates[name] = FATE_CONTINUING
        epochs.append(
            EpochReport(
                time=tau,
                failed=tuple(f.span for f in events["failures"]),
                repaired=tuple(f.span for f in events["repairs"]),
                kills=tuple(k.job for k in events["kills"]),
                fates=fates,
                available_after=plan.available_count(tau),
            )
        )

    return FaultyExecution(
        schedule=schedule,
        plan=plan,
        completed=completed,
        lost=lost,
        killed=killed,
        epochs=epochs,
    )
