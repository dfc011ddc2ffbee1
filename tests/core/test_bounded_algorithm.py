"""Tests for Algorithm 3 (Section 4.3)."""

import pytest

from repro.core.backend import resolve_backend
from repro.core.bounded_algorithm import LARGE_M_FACTOR, bounded_dual, bounded_schedule, shelf_dual
from repro.core.bounds import ludwig_tiwari_estimator, makespan_lower_bound, serial_upper_bound
from repro.core.exact_small import exact_makespan
from repro.core.job import TabulatedJob
from repro.core.shelves import split_big_jobs
from repro.core.validation import assert_valid_schedule
from repro.simulator.engine import simulate_schedule
from repro.workloads.generators import (
    planted_partition_instance,
    random_amdahl_instance,
    random_mixed_instance,
    random_monotone_tabulated_instance,
)


def _no_select(knapsack_jobs, capacity, oracle):
    raise AssertionError("select called")


class TestShelfDual:
    def test_rejects_non_positive_target(self):
        jobs = random_mixed_instance(10, 8, seed=1).jobs
        assert shelf_dual(jobs, 8, 0.0, _no_select, algorithm="t") is None
        assert shelf_dual(jobs, 8, -1.0, _no_select, algorithm="t") is None

    def test_no_jobs_give_an_empty_schedule(self):
        schedule = shelf_dual([], 8, 1.0, _no_select, algorithm="t")
        assert schedule is not None and schedule.m == 8 and not schedule.entries

    def test_rejects_when_forced_jobs_overflow(self):
        # each job needs 2 of 4 processors for d = 10 and cannot meet d/2
        jobs = [TabulatedJob(f"j{i}", [20.0, 10.0, 9.0, 9.0]) for i in range(3)]
        forced, _, capacity = split_big_jobs(jobs, 4, 10.0)
        assert len(forced) == 3 and capacity < 0
        assert shelf_dual(jobs, 4, 10.0, _no_select, algorithm="t") is None

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_select_gets_the_split_and_the_driver_sets_the_target(self, backend):
        instance = random_mixed_instance(20, 16, seed=2)
        d = 1.2 * ludwig_tiwari_estimator(instance.jobs, 16).omega
        forced, knapsack_jobs, capacity = split_big_jobs(instance.jobs, 16, d)
        seen = []

        def select(jobs, cap, oracle):
            seen.append(([job.name for job in jobs], cap))
            return [], {"extra": 1}

        _, oracle = resolve_backend(instance.jobs, 16, backend, None)
        schedule = shelf_dual(instance.jobs, 16, d, select, d_prime=1.1 * d, algorithm="t", oracle=oracle)
        assert seen == [([job.name for job in knapsack_jobs], capacity)]
        if schedule is not None:
            assert schedule.metadata["algorithm"] == "t_dual"
            assert schedule.metadata["d"] == d
            assert schedule.metadata["d_prime"] == 1.1 * d
            assert schedule.metadata["extra"] == 1
            assert_valid_schedule(schedule, instance.jobs, max_makespan=1.5 * 1.1 * d * (1 + 1e-9))

    def test_large_m_runs_the_fptas_dual(self):
        jobs = random_mixed_instance(4, 64, seed=3).jobs
        m = LARGE_M_FACTOR * len(jobs)
        d = serial_upper_bound(jobs)
        schedule = shelf_dual(jobs, m, d, _no_select, algorithm="t", large_m=True)
        assert schedule is not None
        assert schedule.metadata["algorithm"] == "t_dual(large_m)"
        assert schedule.makespan <= 1.5 * d * (1 + 1e-9)
        with pytest.raises(AssertionError, match="select called"):
            shelf_dual(jobs, m, d, _no_select, algorithm="t")


class TestBoundedDual:
    def test_accepts_serial_upper_bound(self):
        instance = random_mixed_instance(20, 16, seed=0)
        d = serial_upper_bound(instance.jobs)
        eps = 0.25
        schedule = bounded_dual(instance.jobs, 16, d, eps)
        assert schedule is not None
        assert schedule.makespan <= (1.5 + eps) * d * (1 + 1e-9)
        assert_valid_schedule(schedule, instance.jobs)

    def test_never_rejects_above_exact_optimum(self):
        eps = 0.3
        for seed in range(3):
            instance = random_monotone_tabulated_instance(4, 4, seed=seed)
            opt = exact_makespan(instance.jobs, 4)
            for factor in (1.0, 1.3, 1.8):
                schedule = bounded_dual(instance.jobs, 4, opt * factor, eps)
                assert schedule is not None, f"rejected d = {factor} * OPT (seed {seed})"
                assert schedule.makespan <= (1.5 + eps) * opt * factor * (1 + 1e-9)

    def test_rejects_impossible_target(self):
        instance = random_mixed_instance(20, 4, seed=1)
        lb = makespan_lower_bound(instance.jobs, 4)
        assert bounded_dual(instance.jobs, 4, lb * 0.3, 0.2) is None

    def test_large_m_dispatch(self):
        instance = random_amdahl_instance(8, 256, seed=3)
        omega = ludwig_tiwari_estimator(instance.jobs, 256).omega
        schedule = bounded_dual(instance.jobs, 256, 1.2 * omega, 0.2)
        assert schedule is not None
        assert "large_m" in schedule.metadata["algorithm"]

    def test_records_item_type_count(self):
        instance = random_mixed_instance(60, 64, seed=4)
        omega = ludwig_tiwari_estimator(instance.jobs, 64).omega
        schedule = bounded_dual(instance.jobs, 64, 1.5 * omega, 0.3)
        if schedule is not None and "num_item_types" in schedule.metadata:
            assert 1 <= schedule.metadata["num_item_types"] <= 60

    def test_number_of_types_far_below_n_for_large_instances(self):
        """The whole point of Section 4.3: the knapsack sees types, not jobs."""
        instance = random_mixed_instance(300, 512, seed=5)
        omega = ludwig_tiwari_estimator(instance.jobs, 512).omega
        schedule = bounded_dual(instance.jobs, 512, 1.3 * omega, 0.3)
        if schedule is not None and "num_item_types" in schedule.metadata:
            assert schedule.metadata["num_item_types"] < 300

    def test_empty_instance(self):
        schedule = bounded_dual([], 4, 1.0, 0.2)
        assert schedule is not None and schedule.makespan == 0.0


class TestBoundedSchedule:
    def test_guarantee_vs_exact_optimum(self):
        eps = 0.25
        for seed in range(3):
            instance = random_monotone_tabulated_instance(5, 4, seed=seed + 3)
            opt = exact_makespan(instance.jobs, 4)
            result = bounded_schedule(instance.jobs, 4, eps)
            assert result.makespan <= (1.5 + eps) * opt * (1 + 1e-6)

    def test_guarantee_vs_planted_optimum(self):
        eps = 0.2
        instance = planted_partition_instance(12, seed=9)
        result = bounded_schedule(instance.jobs, instance.m, eps)
        assert instance.known_optimum is not None
        assert result.makespan <= (1.5 + eps) * instance.known_optimum * (1 + 1e-6)

    def test_schedules_are_valid(self):
        instance = random_mixed_instance(40, 32, seed=14)
        result = bounded_schedule(instance.jobs, 32, 0.2)
        assert_valid_schedule(result.schedule, instance.jobs)
        simulate_schedule(result.schedule)

    def test_makespan_near_lower_bound(self):
        instance = random_mixed_instance(25, 16, seed=15)
        result = bounded_schedule(instance.jobs, 16, 0.25)
        assert result.makespan <= (1.75) * makespan_lower_bound(instance.jobs, 16) * 1.2

    def test_metadata(self):
        instance = random_mixed_instance(10, 8, seed=16)
        result = bounded_schedule(instance.jobs, 8, 0.3)
        assert result.schedule.metadata["algorithm"] == "bounded"

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            bounded_schedule([], 4, 0.0)
