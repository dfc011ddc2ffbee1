"""Figures 2 and 3 reproduction: two-shelf and three-shelf schedules.

Figure 2 of the paper shows a *two-shelf* schedule: shelf S1 (height ``d``)
uses at most ``m`` processors, shelf S2 (height ``d/2``) may temporarily use
more than ``m``.  Figure 3 shows the result of the transformation rules
(i)–(iii): a feasible *three-shelf* schedule where a new shelf S0 runs
alongside S1 and S2 and everything fits into ``m`` machines.

The experiment builds both pictures for random monotone instances (using the
exact MRT knapsack to select shelf 1), reports the shelf statistics and checks
the structural claims:

* the two-shelf picture can indeed exceed ``m`` processors in shelf S2;
* after the transformation the schedule is feasible, validated and replayed
  by the discrete-event simulator;
* the makespan never exceeds ``3d/2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.bounds import ludwig_tiwari_estimator
from ..core.mrt import mrt_dual
from ..core.shelves import (
    ThreeShelfDiagnostics,
    build_three_shelf_schedule,
    build_two_shelf_schedule,
    shelf_items,
    split_big_jobs,
)
from ..core.validation import validate_schedule
from ..knapsack.dp import solve_knapsack
from ..simulator.engine import SimulationError, simulate_schedule
from ..simulator.gantt import render_shelves
from ..workloads.generators import random_mixed_instance
from .common import Table

__all__ = ["ShelfRow", "run", "main"]


@dataclass
class ShelfRow:
    n: int
    m: int
    d: float
    two_shelf_s1_procs: int
    two_shelf_s2_procs: int
    two_shelf_feasible: bool
    three_shelf_built: bool
    makespan: Optional[float]
    makespan_within_bound: Optional[bool]
    simulator_ok: Optional[bool]
    s0_procs: Optional[int]
    moved_from_s2: Optional[int]


def _shelf1_by_knapsack(jobs, m, d):
    """Select shelf-1 jobs exactly as the MRT algorithm does."""
    split = split_big_jobs(jobs, m, d)
    if split is None or split[2] < 0:
        return None
    shelf1, knapsack_jobs, capacity = split
    _, chosen = solve_knapsack(shelf_items(knapsack_jobs, d, m), capacity)
    shelf1.extend(item.payload for item in chosen)
    return shelf1


def run(*, cases=((30, 16), (60, 32), (120, 64), (200, 128)), seed: int = 23, d_factor: float = 1.05) -> List[ShelfRow]:
    rows: List[ShelfRow] = []
    for idx, (n, m) in enumerate(cases):
        instance = random_mixed_instance(n, m, seed=seed + idx)
        omega = ludwig_tiwari_estimator(instance.jobs, m).omega
        d = d_factor * omega
        shelf1 = _shelf1_by_knapsack(instance.jobs, m, d)
        if shelf1 is None:
            # target too tight for this instance; fall back to the 2x upper bound
            d = 2.0 * omega
            shelf1 = _shelf1_by_knapsack(instance.jobs, m, d)
            assert shelf1 is not None
        two_shelf = build_two_shelf_schedule(instance.jobs, m, d, shelf1)
        assert two_shelf is not None
        diag = ThreeShelfDiagnostics(d=d, m=m)
        schedule = build_three_shelf_schedule(instance.jobs, m, d, shelf1, diagnostics=diag)
        row = ShelfRow(
            n=n,
            m=m,
            d=d,
            two_shelf_s1_procs=two_shelf.shelf1_processors,
            two_shelf_s2_procs=two_shelf.shelf2_processors,
            two_shelf_feasible=two_shelf.is_feasible,
            three_shelf_built=schedule is not None,
            makespan=None,
            makespan_within_bound=None,
            simulator_ok=None,
            s0_procs=None,
            moved_from_s2=None,
        )
        if schedule is not None:
            report = validate_schedule(schedule, instance.jobs, max_makespan=1.5 * d)
            trace_ok = True
            try:
                simulate_schedule(schedule)
            except SimulationError:
                trace_ok = False
            row.makespan = schedule.makespan
            row.makespan_within_bound = report.ok
            row.simulator_ok = trace_ok
            row.s0_procs = diag.shelf0_processors
            row.moved_from_s2 = diag.moved_from_shelf2
        rows.append(row)
    return rows


def main(show_gantt: bool = True) -> None:  # pragma: no cover - console entry point
    rows = run()
    table = Table(
        "Figures 2 & 3 reproduction — shelf constructions (d just above the lower bound)",
        [
            "n",
            "m",
            "d",
            "S1 procs",
            "S2 procs",
            "2-shelf fits m",
            "3-shelf built",
            "makespan",
            "<= 3d/2 & valid",
            "simulator ok",
            "S0 procs",
            "moved S2->S0/S1",
        ],
        [],
    )
    for r in rows:
        table.add(
            r.n,
            r.m,
            r.d,
            r.two_shelf_s1_procs,
            r.two_shelf_s2_procs,
            r.two_shelf_feasible,
            r.three_shelf_built,
            r.makespan if r.makespan is not None else "-",
            r.makespan_within_bound if r.makespan_within_bound is not None else "-",
            r.simulator_ok if r.simulator_ok is not None else "-",
            r.s0_procs if r.s0_procs is not None else "-",
            r.moved_from_s2 if r.moved_from_s2 is not None else "-",
        )
    table.print()

    if show_gantt:
        instance = random_mixed_instance(25, 12, seed=5)
        omega = ludwig_tiwari_estimator(instance.jobs, instance.m).omega
        schedule = mrt_dual(instance.jobs, instance.m, 1.3 * omega)
        if schedule is not None:
            print("Example Figure 3 schedule (three shelves + small jobs):")
            print(render_shelves(schedule, schedule.metadata.get("d", 1.3 * omega)))
            print()


if __name__ == "__main__":  # pragma: no cover
    main()
