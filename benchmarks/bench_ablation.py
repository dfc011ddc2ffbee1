"""Ablation benchmarks for three design choices.

* accuracy sweep: how the dual-step runtime of Algorithm 3 depends on ``eps``
  (the paper predicts a ``1/eps^2``-ish growth of the knapsack size);
* compression threshold: Algorithm 1 with all items treated as incompressible
  (i.e. plain multi-capacity knapsack) versus with compression enabled;
* knapsack engine inside MRT: dense table vs dominance list.
"""

from __future__ import annotations

import pytest

from repro.core.bounded_algorithm import bounded_dual
from repro.core.bounds import ludwig_tiwari_estimator
from repro.core.compressible_algorithm import compressible_dual
from repro.core.mrt import mrt_dual
from repro.workloads.generators import random_mixed_instance


@pytest.fixture(scope="module")
def workload():
    instance = random_mixed_instance(250, 512, seed=23)
    omega = ludwig_tiwari_estimator(instance.jobs, instance.m).omega
    return instance, 1.15 * omega


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2, 0.4])
def test_ablation_accuracy_sweep(benchmark, workload, eps):
    instance, d = workload
    schedule = benchmark(lambda: bounded_dual(instance.jobs, instance.m, d, eps))
    benchmark.extra_info["eps"] = eps
    if schedule is not None:
        benchmark.extra_info["num_item_types"] = schedule.metadata.get("num_item_types")


@pytest.mark.parametrize("knapsack", ["dense", "pairs"])
def test_ablation_mrt_knapsack_engine(benchmark, workload, knapsack):
    instance, d = workload
    schedule = benchmark(lambda: mrt_dual(instance.jobs, instance.m, d, knapsack=knapsack))
    benchmark.extra_info["knapsack"] = knapsack
    if schedule is not None:
        assert schedule.makespan <= 1.5 * d * (1 + 1e-9)


def test_ablation_algorithm1_vs_algorithm3(benchmark, workload):
    """Head-to-head of the two accelerated dual steps on the same target."""
    instance, d = workload
    benchmark(lambda: compressible_dual(instance.jobs, instance.m, d, 0.2))
