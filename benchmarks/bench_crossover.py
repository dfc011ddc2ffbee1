"""Crossover benchmarks: the O(nm) MRT baseline vs the polylog-in-m algorithms.

The motivation of the paper's compact-encoding algorithms: once ``m`` grows,
any algorithm that is polynomial in ``m`` (the dense-DP MRT knapsack) loses to
the polylogarithmic ones.  These benchmarks time one dual step of each at
several machine counts; the pytest-benchmark report shows the crossover.
"""

from __future__ import annotations

import pytest

from repro.core.bounded_algorithm import bounded_dual
from repro.core.bounds import ludwig_tiwari_estimator
from repro.core.compressible_algorithm import compressible_dual
from repro.core.mrt import mrt_dual
from repro.workloads.generators import random_mixed_instance

EPS = 0.2
N = 100


def _workload(m):
    instance = random_mixed_instance(N, m, seed=17)
    omega = ludwig_tiwari_estimator(instance.jobs, m).omega
    return instance.jobs, 1.1 * omega


@pytest.mark.parametrize("m", [256, 1024, 4096, 16384])
def test_crossover_mrt_dense_knapsack(benchmark, m):
    jobs, d = _workload(m)
    schedule = benchmark(lambda: mrt_dual(jobs, m, d, knapsack="dense"))
    assert schedule is not None
    benchmark.extra_info["m"] = m


@pytest.mark.parametrize("m", [256, 1024, 4096, 16384])
def test_crossover_algorithm1_compressible(benchmark, m):
    jobs, d = _workload(m)
    schedule = benchmark(lambda: compressible_dual(jobs, m, d, EPS))
    assert schedule is not None
    benchmark.extra_info["m"] = m


@pytest.mark.parametrize("m", [256, 1024, 4096, 16384])
def test_crossover_algorithm3_bounded(benchmark, m):
    jobs, d = _workload(m)
    schedule = benchmark(lambda: bounded_dual(jobs, m, d, EPS))
    assert schedule is not None
    benchmark.extra_info["m"] = m
