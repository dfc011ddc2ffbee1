#!/usr/bin/env python3
"""A day in the life of a cluster: online arrivals with incremental re-planning.

Scenario: jobs arrive at a 96-processor cluster over a simulated day.  The
operator dispatches them with :class:`repro.online.OnlineScheduler`: every
arrival epoch commits the work that already finished, lets running jobs drain,
and re-plans everything still pending with the paper's moldable-job algorithms
— re-using the previous epoch's γ-bisection bracket as a warm start.

The example

* runs the same arrival stream under all three epoch policies
  (``immediate``, ``quantum``, ``count``),
* re-runs the quantum policy cold (``warm_start=False``) to show the warm
  start changes *nothing* about the schedule while probing far fewer γ values,
* compares every stitched schedule against the clairvoyant offline plan with
  a **release-aware** lower bound (`repro.analysis.compare_schedules`), and
* persists the workload *including release times* with `repro.io`
  (format version 2) and round-trips it.

Run with::

    python examples/online_cluster_day.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analysis import compare_schedules
from repro.io import load_instance, save_instance
from repro.online import OnlineScheduler
from repro.workloads.generators import random_arrivals_instance


def main() -> None:
    m = 96
    instance = random_arrivals_instance(120, m, seed=7, base="mixed")
    span = instance.spec.params["span"]
    print(
        f"workload: {instance.n} jobs arriving over [0, {span:.1f}] "
        f"on a {m}-processor cluster\n"
    )

    # ------------------------------------------------------- epoch policies
    runs = {}
    for label, kwargs in (
        ("immediate", {"policy": "immediate"}),
        ("quantum", {"policy": "quantum", "quantum": span / 8}),
        ("count(12)", {"policy": "count", "batch_size": 12}),
    ):
        runs[label] = OnlineScheduler(
            m, eps=0.1, algorithm="two_approx", backend="vectorized", **kwargs
        ).run(instance.arrivals)

    # warm start is a pure accelerator: the cold run must stitch the exact
    # same schedule, just with more gamma probes per re-plan (the runs pin
    # the vectorized backend: under the default "auto" small re-plans run
    # the scalar reference, which probes no gamma-oracle)
    cold = OnlineScheduler(
        m, eps=0.1, algorithm="two_approx", backend="vectorized",
        policy="quantum", quantum=span / 8, warm_start=False,
    ).run(instance.arrivals)
    warm = runs["quantum"]
    identical = [
        (e.job.name, e.start, tuple(e.spans)) for e in warm.schedule.entries
    ] == [(e.job.name, e.start, tuple(e.spans)) for e in cold.schedule.entries]
    print("warm vs cold re-planning (quantum policy):")
    print(f"  schedules bit-identical: {identical}")
    print(
        f"  gamma probes: {warm.report.gamma_probes} warm vs "
        f"{cold.report.gamma_probes} cold "
        f"({cold.report.gamma_probes / max(warm.report.gamma_probes, 1):.1f}x reduction)\n"
    )

    # ------------------------------------------------------------ comparison
    schedules = {f"online {label}": r.schedule for label, r in runs.items()}
    schedules["clairvoyant offline"] = warm.offline.schedule
    rows = compare_schedules(
        schedules, instance.jobs, m, releases=instance.releases
    )
    print(f"{'strategy':<24} {'makespan':>10} {'vs best':>8} {'vs LB':>7} {'util':>6}")
    print("-" * 60)
    for row in rows:
        print(
            f"{row.label:<24} {row.makespan:>10.1f} {row.ratio_vs_best:>8.3f} "
            f"{row.ratio_vs_lower_bound:>7.3f} {row.utilization:>6.2f}"
        )
    print(
        "\n(The clairvoyant plan ignores releases — it is the regret baseline,"
        "\n not a feasible dispatch.  The online rows all respect releases and"
        "\n are measured against the release-aware lower bound.)\n"
    )

    print("regret report (quantum policy):")
    for line in warm.report.summary_lines():
        print(f"  {line}")

    # --------------------------------------------------------- persist plans
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "workload.json"
        save_instance(
            path,
            instance.jobs,
            m,
            metadata={"scenario": "online_cluster_day"},
            releases=instance.releases,
        )
        _, m2, _, releases2 = load_instance(path, with_releases=True)
        print(
            f"\nsaved workload with releases to {path.name} "
            f"({path.stat().st_size} bytes)"
        )
        print(
            "release round-trip exact: "
            f"{m2 == m and releases2 == instance.releases}"
        )


if __name__ == "__main__":
    main()
