"""Quality benchmarks (Theorem 3 study): full algorithms, measured ratios.

Each benchmark runs a complete approximation algorithm (estimator + dual
binary search + construction + validation) on a planted-optimum instance, so
the reported ``extra_info['ratio']`` is a true approximation ratio, and
asserts the paper's guarantee.
"""

from __future__ import annotations

import pytest

from repro.core.scheduler import schedule_moldable
from repro.workloads.generators import planted_partition_instance, random_mixed_instance

EPS = 0.2


@pytest.mark.parametrize(
    "algorithm,guarantee",
    [
        ("two_approx", 2.0),
        ("mrt", 1.5 + EPS),
        ("compressible", 1.5 + EPS),
        ("bounded", 1.5 + EPS),
    ],
)
def test_quality_on_planted_optimum(benchmark, algorithm, guarantee):
    instance = planted_partition_instance(24, seed=5)
    opt = instance.known_optimum
    assert opt is not None
    result = benchmark(lambda: schedule_moldable(instance.jobs, instance.m, EPS, algorithm=algorithm))
    ratio = result.makespan / opt
    assert ratio <= guarantee * (1 + 1e-6)
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["ratio"] = ratio


@pytest.mark.parametrize("algorithm", ["two_approx", "mrt", "compressible", "bounded"])
def test_quality_on_random_mixed(benchmark, algorithm):
    instance = random_mixed_instance(120, 128, seed=9)
    result = benchmark(lambda: schedule_moldable(instance.jobs, instance.m, EPS, algorithm=algorithm))
    benchmark.extra_info["algorithm"] = algorithm
    benchmark.extra_info["ratio_vs_lower_bound"] = result.certified_ratio
    assert result.certified_ratio <= 2.0 + 1e-6  # all algorithms are at worst 2-approximate here
