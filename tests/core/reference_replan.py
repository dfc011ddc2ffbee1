"""Every-epoch reference loops for the two incremental re-planning clients.

:meth:`repro.online.OnlineScheduler.run` and
:func:`repro.resilience.recover_with_faults` hand
:meth:`~repro.core.replan.ReplanState.replan_pending` the time of their next
epoch, so an epoch whose plan the next epoch would return to the pool
unstarted is not solved.  These loops drive the same epochs through a
:class:`~repro.core.replan.ReplanState` but solve every one of them: no call
passes ``next_epoch``.  The clients' stitched schedules must be
bit-identical to these, with no more solves.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.replan import ReplanState
from repro.core.schedule import Schedule
from repro.core.scheduler import schedule_moldable
from repro.online import Arrival, OnlineScheduler
from repro.resilience import FaultPlan
from repro.resilience.executor import spans_hit


def every_epoch_online(scheduler: OnlineScheduler, arrivals) -> Tuple[Schedule, int]:
    """Stitched schedule and solve count of ``scheduler``'s arrival epochs
    with every epoch solved."""
    stream = sorted(
        (a if isinstance(a, Arrival) else Arrival(a[0], float(a[1])) for a in arrivals),
        key=lambda a: a.release,
    )
    state = ReplanState(
        m=scheduler.m,
        eps=scheduler.eps,
        algorithm=scheduler.algorithm,
        backend=scheduler.backend,
        warm_start=scheduler.warm_start,
    )
    for tau, batch in scheduler._epochs(stream):
        state.add_jobs([a.job for a in batch])
        part = state.commit_epoch(tau)
        state.replan_pending(tau, part.running, ((0, scheduler.m),))
    state.finish()
    return state.stitch(), len(state.replan_latencies)


def every_epoch_recovery(
    jobs: Sequence,
    m: int,
    plan: FaultPlan,
    *,
    eps: float = 0.1,
    algorithm: str = "auto",
    backend: str = "auto",
) -> Tuple[Schedule, int]:
    """Stitched schedule and solve count of the drain-and-replan recovery
    loop over ``plan`` with every fault epoch solved: casualties restart,
    killed jobs leave the pool, survivors drain."""
    jobs = list(jobs)
    by_name = {j.name: j for j in jobs}
    fault_free = schedule_moldable(
        jobs, m, eps, algorithm=algorithm, validate=False, backend=backend
    )
    state = ReplanState(m=m, eps=eps, algorithm=algorithm, backend=backend)
    state.add_jobs(jobs)
    state.place_existing(fault_free.schedule.entries)
    for tau in plan.epochs():
        events = plan.events_at(tau)
        kills = {k.job for k in events["kills"]}
        part = state.commit_epoch(tau)
        continuing = [
            p
            for p in part.running
            if p.job.name not in kills
            and not any(spans_hit(p.spans, f) for f in events["failures"])
        ]
        for name in kills:
            state.drop_job(by_name[name])
        state.replan_pending(tau, continuing, plan.available_intervals(tau))
    state.finish()
    return state.stitch(), len(state.replan_latencies)


def placements(schedule: Schedule) -> list:
    """Every entry's job, start, spans and duration, in entry order."""
    return [
        (e.job.name, e.start, tuple(e.spans), e.duration) for e in schedule.entries
    ]
