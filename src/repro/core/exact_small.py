"""Exact optimal schedules for tiny instances (branch and bound).

Scheduling monotone moldable jobs is strongly NP-hard (Theorem 1), so exact
solutions are only computed for tiny instances.  They serve two purposes:

* certifying approximation ratios in the test suite (the measured ratio of the
  approximation algorithms is compared against the *true* optimum);
* the small-instance branch of the PTAS dispatcher (a substitution for the
  Section 3.2 PTAS; see :func:`repro.core.fptas.ptas_schedule`).

**Strict order.**  Given allotments and a job order, a strict-order placement
starts a job that needs ``k`` machines at ``max(previous start, k-th smallest
machine free time)`` on the ``k`` machines that free up first.  Theorem 1
certifies a schedule by its allotments plus its start order, and replaying an
optimal schedule's start order this way is optimal again: by induction each
job starts no later than its old start ``s``.  The previous job started no
later.  Every earlier job started, hence ended, no later, so one still running
at ``s`` ran there before too; a machine that frees after ``s`` runs such a
job, which leaves ``k`` machines free by ``s``.  So one depth-first search
over orders, sharing prefixes, finds the optimum, and each placement step
gives the start, the makespan and the machine set at once.

**Pruning.**

* Allotment ``k`` is skipped when ``t_j(k) >= min_{k'<k} t_j(k')``: the job
  can run on ``k'`` of its ``k`` machines no longer, monotone or not.
* Jobs that start at the same time are placed in increasing index order.
  Replay an optimal schedule in its (start, index) order, then the result in
  its own (start, index) order, and so on.  No start moves later and starts
  take finitely many float values, so the replays reach a fixed point: the
  strict-order placement of its own (start, index) order, still optimal.
* A branch is cut when ``prev + (Σ max(0, f_i − prev) + Σ_left min_k
  k·t_j(k)) / m``, shaved by a relative 1e-9 against float rounding, or
  ``prev + max_left min_k t_j(k)`` reaches the incumbent: the jobs left start
  at or after ``prev`` on machines busy until their free times ``f_i``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import List, Sequence, Tuple

from .dual import DualSearchResult
from .job import MoldableJob
from .schedule import Schedule
from .validation import assert_valid_schedule

__all__ = ["exact_driver", "exact_solver_applicable", "exact_makespan", "exact_schedule"]

_MAX_JOBS = 7
_MAX_MACHINES = 8
_SHAVE = 1.0 - 1e-9


def exact_solver_applicable(n: int, m: int, *, max_jobs: int = _MAX_JOBS) -> bool:
    """Whether the exact solver is willing to handle an instance of this size."""
    return 1 <= n <= max_jobs and 1 <= m <= _MAX_MACHINES


def _best_plan(times: Sequence[Sequence[float]], m: int) -> List[Tuple[int, int]]:
    """``(job, machines)`` in start order of an optimal strict-order placement
    of jobs with ``times[j][k - 1] = t_j(k)``."""
    n = len(times)
    # per job, the (k, t_j(k)) faster than every narrower k, fastest first:
    # short incumbents early prune the most
    options = []
    for row in times:
        opts, fastest = [], math.inf
        for k, t in enumerate(row, 1):
            if t < fastest:
                opts.append((k, t))
                fastest = t
        options.append(opts[::-1])
    # per set of jobs left: the least total work and the longest least time
    work, longest = [0.0] * (1 << n), [0.0] * (1 << n)
    for left in range(1, 1 << n):
        j, rest = (left & -left).bit_length() - 1, left & (left - 1)
        work[left] = work[rest] + min(k * t for k, t in options[j])
        longest[left] = max(longest[rest], options[j][0][1])
    # a plan must beat the incumbent by more than 1e-12, so plans that only
    # reorder the same float sums keep the first one found
    bar, plan, best_plan = math.inf, [], []

    def place(free, prev, last, left, span):
        nonlocal bar
        if not left:
            if span < bar:
                bar, best_plan[:] = span - 1e-12, plan
            return
        if prev + longest[left] >= bar:
            return
        busy = sum(f - prev for f in free if f > prev)
        if (prev + (busy + work[left]) / m) * _SHAVE >= bar:
            return
        for j in range(n):
            if not left >> j & 1:
                continue
            for k, t in options[j]:
                start = free[k - 1]
                if start <= prev:
                    if j < last:
                        continue
                    start = prev
                end = start + t
                if end >= bar:
                    continue
                rest = free[k:]
                i = bisect_right(rest, end)
                plan.append((j, k))
                place(rest[:i] + (end,) * k + rest[i:], start, j, left ^ 1 << j, max(span, end))
                plan.pop()

    place((0.0,) * m, 0.0, -1, (1 << n) - 1, 0.0)
    return best_plan


def exact_schedule(jobs: Sequence[MoldableJob], m: int) -> Schedule:
    """Optimal schedule of a tiny instance by strict-order branch and bound."""
    jobs = list(jobs)
    schedule = Schedule(m=m, metadata={"algorithm": "exact"})
    if not jobs:
        return schedule
    if not exact_solver_applicable(len(jobs), m):
        raise ValueError(
            f"the exact solver only handles tiny instances (n <= {_MAX_JOBS}, "
            f"m <= {_MAX_MACHINES}); got n={len(jobs)}, m={m}"
        )
    times = [[job.processing_time(k) for k in range(1, m + 1)] for job in jobs]
    free, prev = [0.0] * m, 0.0
    for j, k in _best_plan(times, m):
        chosen = sorted(range(m), key=free.__getitem__)[:k]
        prev = max(prev, free[chosen[-1]])
        schedule.add(jobs[j], prev, [(i, 1) for i in sorted(chosen)])
        for i in chosen:
            free[i] = prev + times[j][k - 1]
    return schedule


def exact_makespan(jobs: Sequence[MoldableJob], m: int) -> float:
    """Optimal makespan of a tiny instance."""
    return exact_schedule(jobs, m).makespan


def exact_driver(jobs, m, eps=None, *, validate=True, backend=None, oracle=None, label="exact"):
    """The facade's ``exact`` driver and ``ptas``'s tiny branch (``label``):
    an optimal schedule with guarantee 1.  It runs no executor, so
    ``backend`` and ``oracle`` are ignored; the search is scalar Python."""
    schedule = exact_schedule(jobs, m)
    schedule.metadata.update(algorithm=label, guarantee=1.0, backend="scalar")
    if validate:
        assert_valid_schedule(schedule, jobs)
    return DualSearchResult(schedule, schedule.makespan, schedule.makespan, 0, 0)
