"""Pure-Python reference event loop, kept as the tests' baseline.

:func:`repro.simulator.engine.simulate_schedule` replays a schedule as one
sort and prefix sum over its columns and takes its conflict verdict from the
validator.  This module holds the event-by-event loop it must match: events
are visited one at a time, a running job whose end lies within float
tolerance of a new start is released at that start, every start is checked
pairwise against the running jobs for shared machines, a job whose end is
not after its start never joins the running set, and utilisation change
points closer than ``1e-9`` merge into the later one.

The traces must be identical, and so must the raise-or-not verdict under
both strict modes; only the wording of conflict and out-of-range messages
differs, since the library reports those with the validator's messages.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.schedule import Schedule, ScheduledJob
from repro.simulator.engine import ExecutionTrace, SimulationError

_EPS = 1e-9


def _time_tol(*values: float) -> float:
    """The validator's ``ABS_TOL + REL_TOL * max(|a|, |b|, 1)`` rule."""
    scale = 1.0
    for v in values:
        a = abs(v)
        if a > scale:
            scale = a
    return _EPS + _EPS * scale


def _spans_overlap(a: Tuple[int, int], b: Tuple[int, int]) -> int:
    """Number of machines shared by two spans."""
    lo = max(a[0], b[0])
    hi = min(a[0] + a[1], b[0] + b[1])
    return max(0, hi - lo)


def reference_simulate(schedule: Schedule, *, strict: bool = True) -> ExecutionTrace:
    """Event-by-event twin of :func:`repro.simulator.engine.simulate_schedule`."""
    m = schedule.m
    entries = list(schedule.entries)
    events: List[Tuple[float, int, int, ScheduledJob]] = []
    for idx, entry in enumerate(entries):
        for first, count in entry.spans:
            if first < 0 or first + count > m:
                if strict:
                    raise SimulationError(
                        f"job {entry.job.name!r}: machine span ({first}, {count}) outside [0, {m})"
                    )
        events.append((entry.start, 1, idx, entry))
        events.append((entry.end, 0, idx, entry))
    # process finish events before start events at equal times
    events.sort(key=lambda ev: (ev[0], ev[1]))

    running: Dict[int, ScheduledJob] = {}
    busy = 0
    profile: List[Tuple[float, int]] = []
    peak = 0
    starts = 0
    total_work = 0.0

    for time, kind, idx, entry in events:
        if kind == 0:  # finish
            if idx in running:
                del running[idx]
                busy -= entry.processors
        else:  # start
            starts += 1
            # release jobs that finish within float tolerance of this start
            almost_done = [
                ridx for ridx, other in running.items() if other.end - time <= _time_tol(other.end, time)
            ]
            for ridx in almost_done:
                busy -= running.pop(ridx).processors
            # conflict check against currently running jobs
            for other in running.values():
                for span_a in entry.spans:
                    for span_b in other.spans:
                        shared = _spans_overlap(span_a, span_b)
                        overlap_end = min(entry.end, other.end)
                        if shared > 0 and overlap_end - time > _time_tol(overlap_end, time):
                            message = (
                                f"machine conflict at t={time:.6g}: job {entry.job.name!r} and "
                                f"job {other.job.name!r} share {shared} machine(s)"
                            )
                            if strict:
                                raise SimulationError(message)
            if entry.end > entry.start:
                running[idx] = entry
                busy += entry.processors
            total_work += entry.work
            if busy > m and strict:
                raise SimulationError(
                    f"processor over-subscription at t={time:.6g}: {busy} busy machines but m={m}"
                )
        peak = max(peak, busy)
        if profile and abs(profile[-1][0] - time) < _EPS:
            profile[-1] = (time, busy)
        else:
            profile.append((time, busy))

    return ExecutionTrace(
        makespan=schedule.makespan,
        total_work=total_work,
        utilization_profile=profile,
        events=starts,
        peak_busy=peak,
    )
