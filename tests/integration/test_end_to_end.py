"""End-to-end integration tests across the whole library."""

import pytest

from repro import (
    AmdahlJob,
    assert_valid_schedule,
    bounded_schedule,
    compressible_schedule,
    fptas_schedule,
    makespan_lower_bound,
    mrt_schedule,
    schedule_moldable,
    two_approximation,
)
from repro.core.exact_small import exact_makespan
from repro.hardness.four_partition import random_yes_instance
from repro.hardness.reduction import reduce_to_scheduling
from repro.simulator.engine import simulate_schedule
from repro.simulator.gantt import render_gantt
from repro.workloads.generators import scenario, planted_partition_instance, random_mixed_instance


class TestPublicApiRoundTrip:
    def test_quickstart_snippet(self):
        """The README quick-start must keep working."""
        jobs = [AmdahlJob(f"job{i}", t1=10.0 + i, serial_fraction=0.05) for i in range(20)]
        result = schedule_moldable(jobs, m=1 << 20, eps=0.1)
        assert result.makespan > 0
        assert result.certified_ratio < 1.5
        assert_valid_schedule(result.schedule, jobs)

    def test_all_top_level_algorithms_on_one_instance(self):
        instance = random_mixed_instance(35, 40, seed=21)
        lb = makespan_lower_bound(instance.jobs, instance.m)
        results = {
            "two_approx": two_approximation(instance.jobs, instance.m).schedule,
            "mrt": mrt_schedule(instance.jobs, instance.m, 0.2).schedule,
            "compressible": compressible_schedule(instance.jobs, instance.m, 0.2).schedule,
            "bounded": bounded_schedule(instance.jobs, instance.m, 0.2).schedule,
        }
        for name, schedule in results.items():
            assert_valid_schedule(schedule, instance.jobs)
            trace = simulate_schedule(schedule)
            assert trace.peak_busy <= instance.m, name
            assert schedule.makespan >= lb * (1 - 1e-9)

    def test_scenarios_run_through_auto(self):
        for name in ("cluster_small", "hpc_large_m"):
            instance = scenario(name, seed=1)
            result = schedule_moldable(instance.jobs, instance.m, 0.25)
            assert_valid_schedule(result.schedule, instance.jobs)

    def test_gantt_of_final_schedule(self):
        instance = random_mixed_instance(15, 8, seed=2)
        result = schedule_moldable(instance.jobs, 8, 0.3, algorithm="mrt")
        out = render_gantt(result.schedule)
        assert len(out.splitlines()) >= 5


class TestCrossAlgorithmConsistency:
    def test_better_guarantees_never_much_worse(self):
        """On planted instances the (3/2+eps) algorithms must beat 2x the optimum
        and the FPTAS must beat (1+eps) on its domain."""
        instance = planted_partition_instance(16, seed=5)
        opt = instance.known_optimum
        assert opt is not None
        for algorithm in ("mrt", "compressible", "bounded"):
            result = schedule_moldable(instance.jobs, instance.m, 0.2, algorithm=algorithm)
            assert result.makespan <= 1.7 * opt * (1 + 1e-9)

    def test_fptas_close_to_optimal_for_huge_m(self):
        """The FPTAS is within (1+eps) of the optimum, hence within (1+eps) of
        any other algorithm's makespan."""
        jobs = [AmdahlJob(f"a{i}", 30.0 + i, 0.02) for i in range(12)]
        m = 10 ** 7
        eps = 0.05
        fptas = fptas_schedule(jobs, m, eps)
        two = two_approximation(jobs, m)
        assert fptas.schedule.makespan <= (1 + eps) * two.schedule.makespan * (1 + 1e-9)
        lb = makespan_lower_bound(jobs, m)
        assert fptas.schedule.makespan <= (1 + eps) * lb * 1.01

    def test_exact_never_beaten(self):
        from repro.workloads.generators import random_monotone_tabulated_instance

        instance = random_monotone_tabulated_instance(5, 4, seed=9)
        opt = exact_makespan(instance.jobs, 4)
        for algorithm in ("two_approx", "mrt", "bounded"):
            result = schedule_moldable(instance.jobs, 4, 0.2, algorithm=algorithm)
            assert result.makespan >= opt * (1 - 1e-9)


class TestHardnessIntegration:
    def test_reduction_instances_schedulable_by_approximation_algorithms(self):
        """The approximation algorithms handle the reduction jobs (which are
        strictly monotone) and stay within their guarantee of the known target."""
        inst = random_yes_instance(4, seed=11)
        reduced = reduce_to_scheduling(inst)
        opt = reduced.target_makespan  # the planted schedule achieves exactly this
        result = schedule_moldable(reduced.jobs, reduced.m, 0.2, algorithm="bounded")
        assert_valid_schedule(result.schedule, reduced.jobs)
        assert result.makespan <= 1.7 * opt * (1 + 1e-6)

    def test_two_approx_on_reduction_instance(self):
        inst = random_yes_instance(5, seed=12)
        reduced = reduce_to_scheduling(inst)
        result = two_approximation(reduced.jobs, reduced.m)
        assert result.makespan <= 2.0 * reduced.target_makespan * (1 + 1e-6)
