"""Table 1 reproduction benchmarks.

The paper's Table 1 compares the running times of the three `(3/2+eps)`-dual
algorithms.  Each benchmark below times **one dual step** of one algorithm on
the same workload; the parametrised variants sweep ``n`` (at fixed ``m``) and
``m`` (at fixed ``n``) so that the scaling shape can be read off the
pytest-benchmark report:

* Section 4.2.5 grows super-linearly in ``n`` (it carries an ``n^2 log`` term);
* Section 4.3 grows (near-)linearly in ``n`` (its linear variant of Section
  4.3.3 is the same code: the piggyback host search is one linear scan);
* both grow only polylogarithmically in ``m``.
"""

from __future__ import annotations

import pytest

from repro.core.bounded_algorithm import bounded_dual
from repro.core.bounds import ludwig_tiwari_estimator
from repro.core.compressible_algorithm import compressible_dual
from repro.workloads.generators import random_mixed_instance

EPS = 0.2
D_FACTOR = 1.1


def _workload(n, m, seed=7):
    instance = random_mixed_instance(n, m, seed=seed)
    omega = ludwig_tiwari_estimator(instance.jobs, m).omega
    return instance.jobs, m, D_FACTOR * omega


# --------------------------------------------------------------------- base
def bench_check(schedule):
    assert schedule is not None


class TestTable1BaseCase:
    """One dual step of each algorithm on the shared base workload."""

    def test_section_4_2_5_compressible(self, benchmark, base_instance):
        instance, omega = base_instance
        d = D_FACTOR * omega
        schedule = benchmark(lambda: compressible_dual(instance.jobs, instance.m, d, EPS))
        bench_check(schedule)

    def test_section_4_3_bounded_heap(self, benchmark, base_instance):
        instance, omega = base_instance
        d = D_FACTOR * omega
        schedule = benchmark(lambda: bounded_dual(instance.jobs, instance.m, d, EPS))
        bench_check(schedule)


# ---------------------------------------------------------------- n scaling
@pytest.mark.parametrize("n", [100, 200, 400])
class TestTable1ScalingInN:
    M = 1024  # kept below 16*n so the knapsack machinery is exercised

    def test_section_4_2_5_compressible(self, benchmark, n):
        jobs, m, d = _workload(n, self.M)
        benchmark.extra_info["n"] = n
        bench_check(benchmark(lambda: compressible_dual(jobs, m, d, EPS)))

    def test_section_4_3_bounded_heap(self, benchmark, n):
        jobs, m, d = _workload(n, self.M)
        benchmark.extra_info["n"] = n
        bench_check(benchmark(lambda: bounded_dual(jobs, m, d, EPS)))


# ---------------------------------------------------------------- m scaling
@pytest.mark.parametrize("m", [512, 2048, 4096])
class TestTable1ScalingInM:
    N = 400

    def test_section_4_2_5_compressible(self, benchmark, m):
        jobs, _, d = _workload(self.N, m)
        benchmark.extra_info["m"] = m
        bench_check(benchmark(lambda: compressible_dual(jobs, m, d, EPS)))

    def test_section_4_3_bounded_heap(self, benchmark, m):
        jobs, _, d = _workload(self.N, m)
        benchmark.extra_info["m"] = m
        bench_check(benchmark(lambda: bounded_dual(jobs, m, d, EPS)))


# -------------------------------------------------------------- eps scaling
@pytest.mark.parametrize("eps", [0.1, 0.2, 0.4])
class TestTable1ScalingInEps:
    def test_section_4_3_bounded_heap(self, benchmark, base_instance, eps):
        instance, omega = base_instance
        d = D_FACTOR * omega
        benchmark.extra_info["eps"] = eps
        bench_check(benchmark(lambda: bounded_dual(instance.jobs, instance.m, d, eps)))
