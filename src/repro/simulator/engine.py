"""Discrete-event execution engine.

:func:`simulate_schedule` replays a schedule as a sequence of start / finish
events, maintaining the set of busy machine spans at every instant.  It is an
*independent* implementation of the feasibility rules (it does not reuse
:mod:`repro.core.validation`), so that schedules produced by the algorithms
are double-checked by genuinely different code — a standard cross-validation
technique for schedulers.

It also records a utilisation profile (busy processors over time) used by the
experiments.

The default (``backend="auto"``) replay is *columnar*: events are sorted and
prefix-summed as NumPy arrays (O(n log n) instead of the Python event loop's
pairwise conflict scans), producing the identical trace.  Whenever the fast
sweep sees anything the scalar loop treats specially — events closer together
than the float tolerance, a potential machine conflict, an out-of-range span
or over-subscription — it re-runs the scalar loop, which stays the single
source of truth for error reporting and tolerance handling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.schedule import Schedule, ScheduledJob

__all__ = ["SimulationError", "ExecutionTrace", "simulate_schedule"]

_EPS = 1e-9


def _time_tol(*values: float) -> float:
    """Floating-point tolerance for comparing event times.

    Mirrors the validator's ``ABS_TOL + REL_TOL * max(|a|, |b|, 1)`` rule
    (:mod:`repro.core.validation`): the two checkers are independent
    implementations but must agree on which overlaps are mere float noise.
    """
    scale = 1.0
    for v in values:
        a = abs(v)
        if a > scale:
            scale = a
    return _EPS + _EPS * scale


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


def _spans_overlap(a: Tuple[int, int], b: Tuple[int, int]) -> int:
    """Number of machines shared by two spans."""
    lo = max(a[0], b[0])
    hi = min(a[0] + a[1], b[0] + b[1])
    return max(0, hi - lo)


def _simulate_columnar(schedule: Schedule) -> Optional[ExecutionTrace]:
    """Columnar replay: the schedule's native columns plus the shared
    event-sweep helper (:meth:`~repro.core.schedule.ScheduleColumns.event_sweep`).

    Returns ``None`` whenever the scalar loop's special cases could apply —
    near-coincident event times (its float-tolerance release logic), a
    potential machine conflict, over-subscription or out-of-range spans —
    so the caller falls back to the scalar event loop.  Astronomical
    machine counts run natively: beyond int64 the columns are exact object
    dtype (see :mod:`repro.core.capacity`), the shared event sweep is exact
    at any processor total, and every sweep below is dtype-agnostic.
    The scalar loop remains a genuinely *independent* implementation of the
    feasibility rules (request it explicitly with ``backend="scalar"`` for
    cross-validation); when a trace is returned from this fast path it is
    identical to the scalar one.
    """
    from ..core.schedule import spans_time_overlap

    m = schedule.m
    n = len(schedule)
    if n == 0:
        return None
    cols = schedule.columns()
    # out-of-range spans: let the scalar loop raise with its exact message
    if (cols.span_first < 0).any() or (cols.span_end > m).any():
        return None

    order, t_sorted, running = cols.event_sweep()

    # The scalar loop releases "almost done" jobs within float tolerance of a
    # start; bail out to it whenever two distinct event times are that close.
    uniq = np.unique(t_sorted)
    if len(uniq) > 1:
        tol = _EPS + _EPS * max(1.0, float(np.abs(t_sorted).max()))
        if float(np.diff(uniq).min()) <= tol:
            return None

    peak = max(0, int(running.max()))
    if peak > m:
        return None  # over-subscription: scalar loop owns strict/lenient handling

    # potential machine conflicts re-run the scalar loop (tolerance + message)
    suspicious = spans_time_overlap(
        cols.span_first,
        cols.span_end,
        cols.start[cols.span_owner],
        cols.end[cols.span_owner],
        max_incidences=max(1_000_000, 8 * len(cols.span_first)),
    )
    if suspicious is None or suspicious:
        return None

    # utilisation profile: busy count after the last event of each instant
    profile_times, profile_busy = cols.busy_profile()
    profile = list(zip(profile_times.tolist(), profile_busy.tolist()))

    # total work accumulates in start-event order, exactly like the loop
    start_positions = order[order < n]
    works = cols.processors.astype(np.float64) * cols.duration
    total_work = sum(works[start_positions].tolist())

    return ExecutionTrace(
        makespan=float(cols.end.max()),
        total_work=total_work,
        utilization_profile=profile,
        events=n,
        peak_busy=peak,
    )


def simulate_schedule(
    schedule: Schedule, *, strict: bool = True, backend: str = "auto"
) -> ExecutionTrace:
    """Execute a schedule event by event.

    Parameters
    ----------
    schedule:
        The schedule to execute.
    strict:
        If true (default), any machine conflict or out-of-range span raises
        :class:`SimulationError`; otherwise the trace is still produced and
        the caller can inspect it.
    backend:
        ``"auto"`` (default) runs the columnar NumPy sweep and falls back to
        the scalar event loop for anything it cannot replay exactly;
        ``"scalar"`` forces the reference loop.  Traces are identical.
    """
    if backend not in ("auto", "vectorized", "scalar"):
        raise ValueError(f"unknown simulation backend {backend!r}")
    if backend != "scalar":
        trace = _simulate_columnar(schedule)
        if trace is not None:
            return trace
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
            # Release jobs that finish within float tolerance of this start:
            # their finish events are still pending only because of rounding
            # noise, and the validator treats such intervals as touching.
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
