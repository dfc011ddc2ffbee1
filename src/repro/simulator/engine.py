"""Discrete-event execution engine.

:func:`simulate_schedule` replays a schedule as a sequence of start / finish
events on ``m`` machines and records what the experiments read: the
utilisation profile (busy processors over time), the peak number of busy
processors, the total work and the makespan.

The replay is one sort and one prefix sum over the schedule's columns (the
event order of :meth:`repro.core.schedule.ScheduleColumns.event_sweep`), so
it costs O(n log n) at any machine count.  It treats float noise the way an
event loop visiting one event at a time does: a running job whose end lies
within float tolerance of a later start is released at the first such start,
and utilisation change points closer than ``1e-9`` merge into the later one.
A job whose end is not after its start (a recorded duration of 0, or one
lost to rounding at a large start time) holds no machine at any time.

In strict mode a span outside ``[0, m)`` or a machine conflict raises
:class:`SimulationError` with the validator's message: the verdict comes from
:func:`repro.core.validation.placement_violations`, the same check
:func:`repro.core.validation.validate_schedule` runs.  More busy processors
than ``m`` raise as well; the busy count is
:func:`repro.core.validation.released_running`, whose release rule the
validator's reported peak shares.  Recorded durations are not checked
against the oracle times: the fault executor's traces understate them by
design, since a killed run stops early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..core.schedule import Schedule
from ..core.validation import ABS_TOL, placement_violations, released_running

__all__ = ["SimulationError", "ExecutionTrace", "simulate_schedule"]


class SimulationError(RuntimeError):
    """Raised when the schedule cannot be executed on the machines."""


@dataclass
class ExecutionTrace:
    """Result of a simulation run."""

    makespan: float
    total_work: float
    #: piecewise-constant utilisation: list of (time, busy_processors) change points
    utilization_profile: List[Tuple[float, int]] = field(default_factory=list)
    #: number of start events processed
    events: int = 0
    #: peak number of simultaneously busy processors
    peak_busy: int = 0

    def average_utilization(self, m: int) -> float:
        """Time-averaged fraction of busy machines over [0, makespan]."""
        if self.makespan <= 0:
            return 0.0
        area = 0.0
        profile = self.utilization_profile
        for (t0, busy), (t1, _) in zip(profile, profile[1:]):
            area += busy * (t1 - t0)
        if profile:
            area += profile[-1][1] * (self.makespan - profile[-1][0])
        return area / (m * self.makespan)


def simulate_schedule(schedule: Schedule, *, strict: bool = True) -> ExecutionTrace:
    """Execute a schedule event by event.

    Parameters
    ----------
    schedule:
        The schedule to execute.
    strict:
        If true (default), a machine conflict, an out-of-range span or
        processor over-subscription raises :class:`SimulationError`;
        otherwise the trace is still produced and the caller can inspect it.
    """
    m = schedule.m
    n = len(schedule)
    if n == 0:
        return ExecutionTrace(makespan=0.0, total_work=0.0)
    cols = schedule.columns()
    if strict:
        bounds, conflicts = placement_violations(schedule, cols)
        if bounds or conflicts:
            raise SimulationError((bounds + conflicts)[0])

    # Starts and finishes sorted by time, finishes first at equal times,
    # equal-time starts in entry order; a running job whose end lies within
    # tolerance of a later start is released there.
    order, t_sorted, _ = cols.event_sweep()
    start_order = order[order < n]  # entries in start-event order
    running = released_running(cols)

    if strict:
        over = np.flatnonzero(running > m)
        if len(over):
            k = int(over[0])
            raise SimulationError(
                f"processor over-subscription at t={t_sorted[k]:.6g}: "
                f"{int(running[k])} busy machines but m={m}"
            )

    # one profile point per run of events less than ABS_TOL apart: the last one
    last = np.concatenate((np.diff(t_sorted) >= ABS_TOL, [True]))
    profile = list(zip(t_sorted[last].tolist(), running[last].tolist()))

    # total work accumulates in start-event order
    works = cols.processors.astype(np.float64) * cols.duration
    return ExecutionTrace(
        makespan=float(cols.end.max()),
        total_work=sum(works[start_order].tolist()),
        utilization_profile=profile,
        events=n,
        peak_busy=max(0, int(running.max())),
    )
