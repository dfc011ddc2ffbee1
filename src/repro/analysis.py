"""Schedule analysis: metrics and algorithm-comparison reports.

Beyond the makespan, a scheduler's users care about utilisation, how much
extra work parallelisation costs, how long individual jobs wait, and how two
algorithms compare on the same workload.  This module computes those metrics
from a :class:`repro.core.schedule.Schedule` without ever iterating over the
(possibly astronomically many) machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .core.bounds import makespan_lower_bound, release_aware_lower_bound, trivial_lower_bound
from .core.job import MoldableJob
from .core.schedule import Schedule

__all__ = ["JobMetrics", "ScheduleMetrics", "analyze_schedule", "compare_schedules", "ComparisonRow"]


@dataclass(frozen=True)
class JobMetrics:
    """Per-job placement metrics."""

    name: str
    processors: int
    start: float
    completion: float
    duration: float
    #: work of the placement divided by the job's sequential work w_j(1)
    work_inflation: float
    #: completion time divided by the fastest possible execution t_j(m)
    stretch: float
    #: parallel efficiency of the chosen allotment: speedup / processors
    efficiency: float


@dataclass
class ScheduleMetrics:
    """Aggregate metrics of one schedule."""

    makespan: float
    total_work: float
    sequential_work: float
    machines: int
    jobs: int
    #: fraction of the m x makespan area that is busy
    utilization: float
    #: total work divided by the minimum possible work (sum of w_j(1))
    work_inflation: float
    #: makespan divided by the certified lower bound (>= 1, upper bound on the true ratio)
    ratio_vs_lower_bound: float
    lower_bound: float
    peak_processors: int
    average_parallelism: float
    max_stretch: float
    mean_stretch: float
    per_job: List[JobMetrics] = field(default_factory=list)


def analyze_schedule(
    schedule: Schedule,
    jobs: Optional[Sequence[MoldableJob]] = None,
    *,
    lower_bound: Optional[float] = None,
) -> ScheduleMetrics:
    """Compute :class:`ScheduleMetrics` for a schedule.

    Parameters
    ----------
    jobs:
        The instance; defaults to the jobs appearing in the schedule.
    lower_bound:
        A certified makespan lower bound; computed with
        :func:`repro.core.bounds.makespan_lower_bound` if omitted (pass the
        cheap :func:`trivial_lower_bound` result if speed matters).
    """
    scheduled_jobs = schedule.jobs()
    job_list = list(jobs) if jobs is not None else list(scheduled_jobs)
    m = schedule.m

    if lower_bound is None:
        lower_bound = makespan_lower_bound(job_list, m) if job_list else 0.0

    # per-entry scalars straight from the schedule's columns; entry objects
    # are never materialised
    cols = schedule.columns()
    starts = cols.start.tolist()
    durations = cols.duration.tolist()
    ends = cols.end.tolist()
    processors = cols.processors.tolist()
    works = (cols.processors * cols.duration).tolist()

    per_job: List[JobMetrics] = []
    total_work = 0.0
    sequential_work = 0.0
    stretches: List[float] = []
    weighted_parallelism = 0.0
    for i, job in enumerate(scheduled_jobs):
        seq = job.processing_time(1)
        fastest = job.processing_time(m)
        work = works[i]
        total_work += work
        sequential_work += seq
        stretch = ends[i] / fastest if fastest > 0 else 1.0
        stretches.append(stretch)
        weighted_parallelism += processors[i] * durations[i]
        per_job.append(
            JobMetrics(
                name=job.name,
                processors=processors[i],
                start=starts[i],
                completion=ends[i],
                duration=durations[i],
                work_inflation=work / seq if seq > 0 else 1.0,
                stretch=stretch,
                efficiency=job.efficiency(processors[i]),
            )
        )

    makespan = schedule.makespan
    utilization = total_work / (m * makespan) if makespan > 0 else 0.0
    return ScheduleMetrics(
        makespan=makespan,
        total_work=total_work,
        sequential_work=sequential_work,
        machines=m,
        jobs=len(scheduled_jobs),
        utilization=utilization,
        work_inflation=total_work / sequential_work if sequential_work > 0 else 1.0,
        ratio_vs_lower_bound=makespan / lower_bound if lower_bound > 0 else 1.0,
        lower_bound=lower_bound,
        peak_processors=schedule.peak_processor_usage(),
        average_parallelism=weighted_parallelism / makespan if makespan > 0 else 0.0,
        max_stretch=max(stretches, default=1.0),
        mean_stretch=sum(stretches) / len(stretches) if stretches else 1.0,
        per_job=per_job,
    )


@dataclass(frozen=True)
class ComparisonRow:
    """One algorithm's entry in :func:`compare_schedules`."""

    label: str
    makespan: float
    ratio_vs_best: float
    ratio_vs_lower_bound: float
    utilization: float
    work_inflation: float


def compare_schedules(
    schedules: Dict[str, Schedule],
    jobs: Sequence[MoldableJob],
    m: int,
    *,
    releases: Optional[Sequence[float]] = None,
) -> List[ComparisonRow]:
    """Compare several schedules of the *same* instance.

    Returns rows sorted by makespan (best first); ``ratio_vs_best`` is each
    schedule's makespan divided by the best one.

    When the instance has release times, pass them as ``releases`` (aligned
    with ``jobs``): the shared lower bound then becomes the release-aware
    :func:`~repro.core.bounds.release_aware_lower_bound`, so
    ``ratio_vs_lower_bound`` is meaningful for online schedules instead of
    overstating their gap against an everything-at-t0 bound.
    """
    if not schedules:
        return []
    lower = makespan_lower_bound(jobs, m) if jobs else trivial_lower_bound(jobs, m)
    if releases is not None:
        lower = release_aware_lower_bound(jobs, releases, m, base=lower)
    metrics = {label: analyze_schedule(s, jobs, lower_bound=lower) for label, s in schedules.items()}
    best = min(met.makespan for met in metrics.values())
    rows = [
        ComparisonRow(
            label=label,
            makespan=met.makespan,
            ratio_vs_best=met.makespan / best if best > 0 else 1.0,
            ratio_vs_lower_bound=met.ratio_vs_lower_bound,
            utilization=met.utilization,
            work_inflation=met.work_inflation,
        )
        for label, met in metrics.items()
    ]
    rows.sort(key=lambda r: r.makespan)
    return rows
