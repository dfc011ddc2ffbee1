#!/usr/bin/env python3
"""Scheduling a mixed HPC campaign and comparing all algorithms.

Scenario: a departmental cluster (m = 256 processors) must run a campaign of
180 jobs of three kinds — Amdahl-limited data analyses, power-law-scaling
simulations and communication-bound solvers.  The example

* builds the workload from the library's generators,
* runs every scheduling algorithm of the paper on it **as a fleet**: one
  :class:`repro.serve.FleetInstance` per algorithm, packed through
  fault-isolated worker processes by :func:`repro.serve.schedule_many`
  (a crash or hang in one solver can no longer take down the comparison),
* reports makespans, certified ratios and wall-clock scheduling times,
* executes the best schedule on the discrete-event simulator and prints its
  utilisation profile.

Run with::

    python examples/hpc_cluster_campaign.py
"""

from __future__ import annotations

import multiprocessing

from repro import makespan_lower_bound
from repro.serve import FleetInstance, ServePolicy, schedule_many
from repro.simulator.engine import simulate_schedule
from repro.workloads.generators import random_mixed_instance

ALGORITHMS = ("two_approx", "mrt", "compressible", "bounded")


def _mp_context() -> str:
    try:  # fork is markedly faster to start; spawn is the portable fallback
        multiprocessing.get_context("fork")
        return "fork"
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return "spawn"


def main() -> None:
    m = 256
    instance = random_mixed_instance(180, m, seed=2024)
    lower = makespan_lower_bound(instance.jobs, m)
    print(f"campaign: {instance.n} jobs on {m} processors")
    print(f"certified makespan lower bound: {lower:.2f}\n")

    # One fleet instance per algorithm over the *same* workload: the fleet
    # solves them in parallel worker processes and always returns a complete
    # report — a solver failure would surface as a quarantined outcome with
    # its traceback, not as an exception here.
    fleet = [
        FleetInstance(name=algorithm, jobs=instance.jobs, m=m, eps=0.1, algorithm=algorithm)
        for algorithm in ALGORITHMS
    ]
    report = schedule_many(
        fleet,
        policy=ServePolicy(timeout=120.0, max_retries=1),
        mp_context=_mp_context(),
    )

    print(f"{'algorithm':<16} {'makespan':>10} {'ratio vs LB':>12} {'sched time [s]':>15}")
    print("-" * 58)
    solved = {}
    for algorithm in ALGORITHMS:
        outcome = report.outcome(algorithm)
        if not outcome.solved:
            print(f"{algorithm:<16} {'QUARANTINED':>10}  ({outcome.error})")
            continue
        solved[algorithm] = outcome
        elapsed = outcome.attempts[-1].seconds
        print(
            f"{algorithm:<16} {outcome.makespan:>10.2f} "
            f"{outcome.certified_ratio:>12.3f} {elapsed:>15.3f}"
        )
    print(
        f"\nfleet: {len(report.solved)} solved, {len(report.degraded)} degraded, "
        f"{len(report.quarantined)} quarantined in {report.wall_seconds:.2f}s"
    )

    best_name, best = min(solved.items(), key=lambda kv: kv[1].makespan)
    print(f"best schedule: {best_name} (makespan {best.makespan:.2f})")

    # outcomes carry the schedule as data; re-attach it to the job objects
    # (re-validating placements) before handing it to the simulator
    schedule = best.schedule(instance.jobs, validate=True)
    trace = simulate_schedule(schedule)
    print(f"peak busy processors : {trace.peak_busy} / {m}")
    print(f"average utilisation  : {trace.average_utilization(m) * 100:.1f} %")
    print(f"start events executed: {trace.events}")

    # a coarse utilisation timeline (10 buckets)
    horizon = trace.makespan
    buckets = 10
    print("\nutilisation timeline:")
    profile = trace.utilization_profile
    for b in range(buckets):
        t0, t1 = horizon * b / buckets, horizon * (b + 1) / buckets
        busy_samples = [busy for t, busy in profile if t0 <= t < t1]
        level = (sum(busy_samples) / len(busy_samples) / m) if busy_samples else None
        bar = "#" * int(40 * level) if level is not None else "(no change points)"
        label = f"{level * 100:5.1f}%" if level is not None else "      "
        print(f"  [{t0:8.1f}, {t1:8.1f})  {label} {bar}")


if __name__ == "__main__":
    main()
