"""Exact optimal schedules for tiny instances (branch and bound).

Scheduling monotone moldable jobs is strongly NP-hard (Theorem 1), so exact
solutions are only computed for tiny instances.  They serve two purposes:

* certifying approximation ratios in the test suite (the measured ratio of the
  approximation algorithms is compared against the *true* optimum);
* the small-instance branch of the PTAS dispatcher (a substitution for the
  Section 3.2 PTAS; see :func:`repro.core.fptas.ptas_schedule`).

The search enumerates, for every allotment vector, the left-shifted schedules
generated by placing jobs in every order at their earliest feasible start
time.  A standard exchange argument shows this family always contains an
optimal schedule; see the module tests for an empirical cross-check against
brute-force lower bounds.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Tuple

from .bounds import trivial_lower_bound
from .job import MoldableJob
from .schedule import Schedule

__all__ = ["exact_solver_applicable", "exact_makespan", "exact_schedule"]

_MAX_JOBS = 7
_MAX_MACHINES = 8


def exact_solver_applicable(n: int, m: int, *, max_jobs: int = _MAX_JOBS, max_machines: int = _MAX_MACHINES) -> bool:
    """Whether the exact solver is willing to handle an instance of this size."""
    return 1 <= n <= max_jobs and 1 <= m <= max_machines


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


def _best_rigid_makespan(sizes: Sequence[int], durations: Sequence[float], m: int, upper: float) -> Tuple[float, Optional[List[float]]]:
    """Exact makespan for rigid jobs by searching all placement orders."""
    n = len(sizes)
    best = upper
    best_starts: Optional[List[float]] = None
    indices = list(range(n))
    for order in itertools.permutations(indices):
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


def exact_makespan(jobs: Sequence[MoldableJob], m: int, *, force: bool = False) -> float:
    """Optimal makespan of a tiny instance.

    Raises ``ValueError`` for instances beyond the size limits unless
    ``force=True``.
    """
    schedule = exact_schedule(jobs, m, force=force)
    return schedule.makespan


def exact_schedule(jobs: Sequence[MoldableJob], m: int, *, force: bool = False) -> Schedule:
    """Optimal schedule of a tiny instance by exhaustive branch and bound."""
    jobs = list(jobs)
    n = len(jobs)
    if n == 0:
        return Schedule(m=m, metadata={"algorithm": "exact"})
    if not force and not exact_solver_applicable(n, m):
        raise ValueError(
            f"instance too large for the exact solver (n={n}, m={m}); pass force=True to override"
        )

    lower = trivial_lower_bound(jobs, m)
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
