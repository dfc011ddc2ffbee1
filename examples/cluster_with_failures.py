#!/usr/bin/env python3
"""A bad day on the cluster: machine failures, job kills, and recovery.

Scenario: a 64-processor cluster runs an offline `(3/2+eps)` plan for a
50-job batch.  Mid-run, machines start failing — some permanently, some
with a repair crew on the way — and an operator kills a couple of jobs.
The example:

1. builds a seeded :class:`~repro.resilience.FaultPlan` (the same
   declarative format the fuzz harness uses, JSON-serialisable so a real
   outage can be replayed),
2. replays the fault-free plan against it with
   :func:`~repro.resilience.execute_with_faults` to see what the outage
   alone would cost (which runs finish, which are cut, how much work burns),
3. recovers with :func:`~repro.resilience.recover_with_faults`: every fault
   epoch re-plans the survivors on the surviving machines (γ-oracle caches
   warm-started across epochs), and the stitched schedule is validated and
   replayed through the discrete-event simulator.

Run with::

    python examples/cluster_with_failures.py
"""

from __future__ import annotations

from repro.core.scheduler import schedule_moldable
from repro.core.validation import validate_schedule
from repro.resilience import (
    execute_with_faults,
    random_fault_plan,
    recover_with_faults,
)
from repro.simulator.engine import simulate_schedule
from repro.workloads.generators import random_mixed_instance


def main() -> None:
    m = 64
    instance = random_mixed_instance(50, m, seed=13)
    baseline = schedule_moldable(instance.jobs, m, eps=0.1, algorithm="bounded").schedule
    print(f"fault-free plan: {instance.n} jobs on {m} machines, "
          f"makespan {baseline.makespan:.1f}")

    # ------------------------------------------------------------ fault plan
    plan = random_fault_plan(
        [job.name for job in instance.jobs],
        m,
        seed=41,
        failures=4,
        kills=2,
        horizon=baseline.makespan,
        transient_fraction=0.5,
    )
    print(f"\nfault plan ({len(plan)} events):")
    for failure in plan.failures:
        kind = "permanent" if failure.permanent else f"until t={failure.down_until:.1f}"
        print(f"  t={failure.time:6.1f}  machines [{failure.first}, "
              f"{failure.first + failure.count}) fail ({kind})")
    for kill in plan.kills:
        print(f"  t={kill.time:6.1f}  kill job {kill.job!r}")

    # --------------------------------------- what the outage alone would cost
    execution = execute_with_faults(baseline, plan)
    print(f"\nwithout recovery: {len(execution.completed)} runs finish, "
          f"{len(execution.lost)} are cut "
          f"({execution.work_lost:.1f} work units burned), "
          f"{len(execution.unfinished_jobs)} jobs never complete")

    # ---------------------------------------------------------------- recover
    # vectorized two_approx re-plans through the batched γ-oracle, so the
    # per-epoch oracles (primed from the previous epoch's caches) actually
    # show up in the probe accounting below
    result = recover_with_faults(
        instance.jobs, m, plan, eps=0.1, algorithm="two_approx", backend="vectorized"
    )
    print("\nrecovery:")
    for line in result.report.summary_lines():
        print(f"  {line}")

    # ------------------------------------------------------------ re-checks
    verdict = validate_schedule(result.schedule, result.survivors)
    trace = simulate_schedule(result.schedule)
    print(f"\nstitched schedule validates on survivors: {verdict.ok}")
    print(f"simulator replay matches: {trace.makespan == result.schedule.makespan}")
    replay = type(plan).from_json(plan.to_json())
    print(f"fault plan JSON roundtrip: {replay == plan}")


if __name__ == "__main__":
    main()
