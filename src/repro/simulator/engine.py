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
than ``m`` raise as well.  Recorded durations are not checked against the
oracle times: the fault executor's traces understate them by design, since a
killed run stops early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..core.schedule import Schedule
from ..core.validation import ABS_TOL, REL_TOL, placement_violations

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


def _first_start_within_tolerance(starts: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per end time, the first index into the sorted ``starts`` at which
    ``end - start <= ABS_TOL + REL_TOL * max(1, |end|, |start|)`` holds
    (``len(starts)`` when none does): the validator's rule for when two
    times touch.

    The test is monotone in the start time, so a ``searchsorted`` on the
    threshold at ``|start| = |end|`` lands next to the answer; rounding can
    put it a few distinct start times off, and the exact test settles it.
    """
    n = len(starts)

    def within(k: np.ndarray) -> np.ndarray:
        s = starts[np.clip(k, 0, n - 1)]
        scale = np.maximum(np.maximum(np.abs(end), np.abs(s)), 1.0)
        return (k >= 0) & (k < n) & (end - s <= ABS_TOL + REL_TOL * scale)

    k = np.searchsorted(starts, end - (ABS_TOL + REL_TOL * np.maximum(np.abs(end), 1.0)))
    while True:
        back = within(k - 1)
        forward = ~back & (k < n) & ~within(k)
        if not (back.any() or forward.any()):
            return k
        k[back] = np.searchsorted(starts, starts[k[back] - 1], side="left")
        k[forward] = np.searchsorted(starts, starts[k[forward]], side="right")


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
    # equal-time starts in entry order.
    order, t_sorted, _ = cols.event_sweep()
    start_order = order[order < n]  # entries in start-event order
    starts = t_sorted[order < n]
    start, end = cols.start, cols.end
    position = np.empty(n, dtype=np.int64)
    position[start_order] = np.arange(n, dtype=np.int64)

    # A job is released at the first start after its own whose time its end
    # lies within tolerance of, if that start comes before its finish event.
    # Its -procs delta moves onto that start.
    release = np.maximum(_first_start_within_tolerance(starts, end), position + 1)
    early = release < n
    early[early] = starts[release[early]] < end[early]

    procs = cols.processors
    if not cols.fits_int64_sweep():
        procs = procs.astype(object)  # exact Python-int prefix sums
    # a job ending at or before its start holds no machine at any time
    procs = np.where(end <= start, 0, procs)
    start_delta = procs.copy()
    np.subtract.at(start_delta, start_order[release[early]], procs[early])
    finish_delta = np.where(early, 0, -procs)
    running = np.cumsum(np.concatenate((start_delta, finish_delta))[order])

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
        makespan=float(end.max()),
        total_work=sum(works[start_order].tolist()),
        utilization_profile=profile,
        events=n,
        peak_busy=max(0, int(running.max())),
    )
