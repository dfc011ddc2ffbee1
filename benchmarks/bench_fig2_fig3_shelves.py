"""Figures 2 & 3 reproduction benchmarks: shelf constructions.

Figure 2 is the (possibly infeasible) two-shelf picture, Figure 3 the feasible
three-shelf schedule obtained by the transformation rules.  The benchmarks
time both constructions (with the exact MRT knapsack selecting shelf 1) and
assert the figures' structural claims.
"""

from __future__ import annotations

import pytest

from repro.core.allotment import gamma
from repro.core.bounds import ludwig_tiwari_estimator
from repro.core.shelves import (
    ThreeShelfDiagnostics,
    build_three_shelf_schedule,
    build_two_shelf_schedule,
    partition_small_big,
    shelf_profit,
)
from repro.core.validation import assert_valid_schedule
from repro.knapsack.dp import solve_knapsack
from repro.knapsack.items import KnapsackItem
from repro.workloads.generators import random_mixed_instance


def _select_shelf1(jobs, m, d):
    _, big = partition_small_big(jobs, d)
    shelf1, knapsack_jobs, capacity = [], [], m
    for job in big:
        g = gamma(job, d, m)
        if g is None:
            return None
        if gamma(job, d / 2.0, m) is None:
            shelf1.append(job)
            capacity -= g
        else:
            knapsack_jobs.append(job)
    items = [
        KnapsackItem(key=i, size=gamma(job, d, m), profit=shelf_profit(job, d, m), payload=job)
        for i, job in enumerate(knapsack_jobs)
    ]
    _, chosen = solve_knapsack(items, capacity)
    shelf1.extend(item.payload for item in chosen)
    return shelf1


@pytest.mark.parametrize("n,m", [(60, 32), (150, 96)])
def test_fig2_two_shelf_construction(benchmark, n, m):
    instance = random_mixed_instance(n, m, seed=n)
    omega = ludwig_tiwari_estimator(instance.jobs, m).omega
    d = 1.1 * omega
    shelf1 = _select_shelf1(instance.jobs, m, d)
    assert shelf1 is not None
    two = benchmark(lambda: build_two_shelf_schedule(instance.jobs, m, d, shelf1))
    assert two is not None
    # shelf S1 fits by construction; S2 may or may not (that is Figure 2's point)
    assert two.shelf1_processors <= m
    benchmark.extra_info["s2_processors"] = two.shelf2_processors
    benchmark.extra_info["two_shelf_feasible"] = two.is_feasible


@pytest.mark.parametrize("n,m", [(60, 32), (150, 96)])
def test_fig3_three_shelf_construction(benchmark, n, m):
    instance = random_mixed_instance(n, m, seed=n)
    omega = ludwig_tiwari_estimator(instance.jobs, m).omega
    d = 1.2 * omega
    shelf1 = _select_shelf1(instance.jobs, m, d)
    assert shelf1 is not None
    diag = ThreeShelfDiagnostics(d=d, m=m)

    def build():
        return build_three_shelf_schedule(instance.jobs, m, d, shelf1, diagnostics=diag)

    schedule = benchmark(build)
    if schedule is None:
        pytest.skip("target d was correctly rejected for this instance")
    assert_valid_schedule(schedule, instance.jobs, max_makespan=1.5 * d)
    benchmark.extra_info["s0_processors"] = diag.shelf0_processors
    benchmark.extra_info["moved_from_shelf2"] = diag.moved_from_shelf2
