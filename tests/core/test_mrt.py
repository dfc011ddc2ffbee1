"""Tests for the Mounié–Rapine–Trystram (3/2)-dual algorithm."""

import pytest

from repro.core.bounds import ludwig_tiwari_estimator, makespan_lower_bound, serial_upper_bound
from repro.core.exact_small import exact_makespan
from repro.core.mrt import mrt_dual, mrt_schedule
from repro.core.validation import assert_valid_schedule
from repro.simulator.engine import simulate_schedule
from repro.workloads.generators import (
    planted_partition_instance,
    random_mixed_instance,
    random_monotone_tabulated_instance,
)


class TestMrtDual:
    def test_accepts_serial_upper_bound(self):
        instance = random_mixed_instance(20, 16, seed=0)
        d = serial_upper_bound(instance.jobs)
        schedule = mrt_dual(instance.jobs, 16, d)
        assert schedule is not None
        assert_valid_schedule(schedule, instance.jobs, max_makespan=1.5 * d)

    def test_never_rejects_above_exact_optimum(self):
        """Dual completeness: any d >= OPT is accepted (checked on tiny instances)."""
        for seed in range(4):
            instance = random_monotone_tabulated_instance(4, 4, seed=seed)
            opt = exact_makespan(instance.jobs, 4)
            for factor in (1.0, 1.1, 1.5, 2.0):
                schedule = mrt_dual(instance.jobs, 4, opt * factor)
                assert schedule is not None, f"rejected d = {factor} * OPT (seed {seed})"
                assert_valid_schedule(schedule, instance.jobs, max_makespan=1.5 * opt * factor)

    def test_rejects_impossible_target(self):
        instance = random_mixed_instance(20, 4, seed=1)
        lb = makespan_lower_bound(instance.jobs, 4)
        assert mrt_dual(instance.jobs, 4, lb * 0.3) is None

    def test_rejects_nonpositive_target(self):
        instance = random_mixed_instance(5, 4, seed=2)
        assert mrt_dual(instance.jobs, 4, 0.0) is None
        assert mrt_dual(instance.jobs, 4, -1.0) is None

    def test_makespan_bounded_by_three_halves_d(self):
        for seed in range(4):
            instance = random_mixed_instance(30, 24, seed=seed)
            omega = ludwig_tiwari_estimator(instance.jobs, 24).omega
            d = 1.3 * omega
            schedule = mrt_dual(instance.jobs, 24, d)
            if schedule is not None:
                assert schedule.makespan <= 1.5 * d * (1 + 1e-9)
                simulate_schedule(schedule)

    def test_knapsack_engines_agree(self):
        instance = random_mixed_instance(25, 32, seed=5)
        omega = ludwig_tiwari_estimator(instance.jobs, 32).omega
        d = 1.4 * omega
        dense = mrt_dual(instance.jobs, 32, d, knapsack="dense")
        pairs = mrt_dual(instance.jobs, 32, d, knapsack="pairs")
        assert (dense is None) == (pairs is None)
        if dense is not None and pairs is not None:
            assert dense.makespan <= 1.5 * d * (1 + 1e-9)
            assert pairs.makespan <= 1.5 * d * (1 + 1e-9)

    def test_invalid_knapsack_engine(self):
        instance = random_mixed_instance(5, 4, seed=6)
        with pytest.raises(ValueError):
            mrt_dual(instance.jobs, 4, 100.0, knapsack="bogus")
        # checked before the target: a rejected d must not mask the bad name
        jobs = random_mixed_instance(20, 16, seed=6).jobs
        omega = ludwig_tiwari_estimator(jobs, 16).omega
        with pytest.raises(ValueError):
            mrt_dual(jobs, 16, 0.1 * omega, knapsack="nope")

    def test_invalid_knapsack_without_jobs(self):
        with pytest.raises(ValueError):
            mrt_dual([], 4, 1.0, knapsack="nope")


class TestMrtSchedule:
    def test_guarantee_vs_exact_optimum(self):
        eps = 0.25
        for seed in range(3):
            instance = random_monotone_tabulated_instance(5, 4, seed=seed + 5)
            opt = exact_makespan(instance.jobs, 4)
            result = mrt_schedule(instance.jobs, 4, eps)
            assert result.makespan <= (1.5 + eps) * opt * (1 + 1e-6)

    def test_guarantee_vs_planted_optimum(self):
        eps = 0.2
        instance = planted_partition_instance(10, seed=4)
        result = mrt_schedule(instance.jobs, instance.m, eps)
        assert instance.known_optimum is not None
        assert result.makespan <= (1.5 + eps) * instance.known_optimum * (1 + 1e-6)

    def test_schedules_are_valid(self):
        instance = random_mixed_instance(35, 16, seed=9)
        result = mrt_schedule(instance.jobs, 16, 0.2)
        assert_valid_schedule(result.schedule, instance.jobs)
        simulate_schedule(result.schedule)

    def test_metadata(self):
        instance = random_mixed_instance(10, 8, seed=10)
        result = mrt_schedule(instance.jobs, 8, 0.3)
        assert result.schedule.metadata["algorithm"] == "mrt"
        assert result.schedule.metadata["guarantee"] == pytest.approx(1.8)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            mrt_schedule([], 4, 0.0)

    def test_smaller_eps_does_not_worsen_makespan_much(self):
        instance = random_mixed_instance(20, 16, seed=11)
        coarse = mrt_schedule(instance.jobs, 16, 0.5)
        fine = mrt_schedule(instance.jobs, 16, 0.05)
        assert fine.makespan <= coarse.makespan * (1 + 0.5)
