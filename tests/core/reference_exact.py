"""Backfilling branch and bound, kept as the tests' baseline for the exact solver.

:func:`repro.core.exact_small.exact_schedule` runs one depth-first search
that places jobs in strict start order on a machine free-time profile.  This
module holds the search it must agree with on every makespan: for every
allotment vector in ``[1, m]^n`` it tries every job order, places each job
at its earliest start under the processor count (a backfilling scan over
the placed jobs' ends), and then assigns machines by sweeping the jobs in
start order.  It enumerates ``m^n · n!`` rigid schedules, so keep its inputs
tiny (n = 5 at m = 8 takes 0.4-1.7 s on random mixed jobs).

One change from the solver it was: the early exit once the incumbent meets
a lower bound used ``trivial_lower_bound``, which bounds monotone jobs only,
and so stopped short of the optimum on non-monotone tables.  It now uses
``max(max_j min_k t_j(k), Σ_j min_k k·t_j(k) / m)``, the same bound (up to
rounding) on monotone jobs and a bound on any job.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Tuple

from repro.core.job import MoldableJob
from repro.core.schedule import Schedule


def _earliest_start(
    placed: List[Tuple[float, float, int]],  # (start, end, processors)
    duration: float,
    size: int,
    m: int,
) -> float:
    """Earliest start time for a rigid job given already placed jobs."""
    candidates = sorted({0.0} | {end for _, end, _ in placed})
    for candidate in candidates:
        window_end = candidate + duration
        # peak usage of `placed` within [candidate, window_end)
        events: List[Tuple[float, int]] = []
        for start, end, procs in placed:
            lo = max(start, candidate)
            hi = min(end, window_end)
            if hi - lo > 1e-12:
                events.append((lo, procs))
                events.append((hi, -procs))
        events.sort()
        usage = 0
        feasible = True
        for _, delta in events:
            usage += delta
            if usage + size > m:
                feasible = False
                break
        if feasible:
            return candidate
    # the last candidate (after everything finished) is always feasible
    return candidates[-1]


def _best_rigid_makespan(
    sizes: Sequence[int], durations: Sequence[float], m: int, upper: float
) -> Tuple[float, Optional[List[float]]]:
    """Exact makespan for rigid jobs by searching all placement orders."""
    n = len(sizes)
    best = upper
    best_starts: Optional[List[float]] = None
    for order in itertools.permutations(range(n)):
        placed: List[Tuple[float, float, int]] = []
        starts = [0.0] * n
        makespan = 0.0
        for idx in order:
            start = _earliest_start(placed, durations[idx], sizes[idx], m)
            placed.append((start, start + durations[idx], sizes[idx]))
            starts[idx] = start
            makespan = max(makespan, start + durations[idx])
            if makespan >= best - 1e-12:
                break
        else:
            if makespan < best - 1e-12:
                best = makespan
                best_starts = starts
    return best, best_starts


def reference_exact_schedule(jobs: Sequence[MoldableJob], m: int) -> Schedule:
    """Optimal schedule by the backfilling search, at any size."""
    jobs = list(jobs)
    n = len(jobs)
    if n == 0:
        return Schedule(m=m, metadata={"algorithm": "exact"})

    # max(max_j t_j(m), Σ_j t_j(1) / m) on monotone jobs; a bound on any job
    lower = max(
        max(min(job.processing_time(k) for k in range(1, m + 1)) for job in jobs),
        sum(min(k * job.processing_time(k) for k in range(1, m + 1)) for job in jobs) / m,
    )
    best_makespan = math.inf
    best_plan: Optional[Tuple[Tuple[int, ...], List[float]]] = None

    for allotment in itertools.product(range(1, m + 1), repeat=n):
        durations = [job.processing_time(k) for job, k in zip(jobs, allotment)]
        sizes = list(allotment)
        # quick lower bounds for pruning
        area = sum(s * t for s, t in zip(sizes, durations)) / m
        if max(max(durations), area) >= best_makespan - 1e-12:
            continue
        makespan, starts = _best_rigid_makespan(sizes, durations, m, best_makespan)
        if starts is not None and makespan < best_makespan - 1e-12:
            best_makespan = makespan
            best_plan = (allotment, starts)
            if best_makespan <= lower * (1 + 1e-9):
                break

    assert best_plan is not None
    allotment, starts = best_plan

    # build a concrete machine assignment: sweep jobs by start time and assign
    # machine spans greedily from the machines free at that moment.
    schedule = Schedule(m=m, metadata={"algorithm": "exact"})
    order = sorted(range(n), key=lambda i: starts[i])
    machine_free = [0.0] * m
    for i in order:
        need = allotment[i]
        start = starts[i]
        duration = jobs[i].processing_time(need)
        free = [idx for idx in range(m) if machine_free[idx] <= start + 1e-9]
        chosen = free[:need]
        if len(chosen) < need:
            # numerical safety: take the machines that free up the earliest
            chosen = sorted(range(m), key=lambda idx: machine_free[idx])[:need]
            start = max(start, max(machine_free[idx] for idx in chosen))
        spans = [(idx, 1) for idx in chosen]
        schedule.add(jobs[i], start, spans)
        for idx in chosen:
            machine_free[idx] = start + duration
    return schedule


def reference_exact_makespan(jobs: Sequence[MoldableJob], m: int) -> float:
    return reference_exact_schedule(jobs, m).makespan
