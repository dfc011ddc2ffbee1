"""Tests for makespan bounds and the Ludwig–Tiwari estimator."""

import pytest

from repro.core.bounds import (
    ludwig_tiwari_estimator,
    makespan_lower_bound,
    serial_upper_bound,
    trivial_lower_bound,
)
from repro.core.exact_small import exact_makespan
from repro.core.job import AmdahlJob, PowerLawJob, TabulatedJob
from repro.core.list_scheduling import list_schedule
from repro.core.validation import assert_valid_schedule
from repro.perf.oracle import BatchedOracle
from repro.workloads.generators import random_mixed_instance, random_monotone_tabulated_instance


class TestTrivialBounds:
    def test_single_sequential_job(self):
        jobs = [TabulatedJob("a", [10.0])]
        assert trivial_lower_bound(jobs, 4) == pytest.approx(10.0)
        assert serial_upper_bound(jobs) == pytest.approx(10.0)

    def test_work_bound_dominates_with_many_jobs(self):
        jobs = [TabulatedJob(f"j{i}", [10.0]) for i in range(8)]
        # total work 80 on 4 machines -> lower bound 20 > individual 10
        assert trivial_lower_bound(jobs, 4) == pytest.approx(20.0)

    def test_time_bound_dominates_with_serial_job(self):
        jobs = [AmdahlJob("big", 100.0, 1.0), TabulatedJob("small", [1.0])]
        assert trivial_lower_bound(jobs, 64) == pytest.approx(100.0)

    def test_empty(self):
        assert trivial_lower_bound([], 4) == 0.0
        assert serial_upper_bound([]) == 0.0

    def test_lower_bound_below_serial_upper(self):
        instance = random_mixed_instance(30, 16, seed=3)
        assert trivial_lower_bound(instance.jobs, 16) <= serial_upper_bound(instance.jobs)


class TestLudwigTiwariEstimator:
    def test_empty_instance(self):
        result = ludwig_tiwari_estimator([], 8)
        assert result.omega == 0.0

    def test_single_job(self):
        job = AmdahlJob("a", 100.0, 0.1)
        result = ludwig_tiwari_estimator([job], 16)
        # OPT = t(16); omega must be a lower bound and within a factor 2
        opt = job.processing_time(16)
        assert result.omega <= opt * (1 + 1e-6)
        assert opt <= result.upper_bound * (1 + 1e-6)

    def test_omega_is_lower_bound_on_exact_optimum(self):
        """omega <= OPT verified against the exact solver on tiny instances."""
        for seed in range(5):
            instance = random_monotone_tabulated_instance(4, 3, seed=seed)
            opt = exact_makespan(instance.jobs, 3)
            result = ludwig_tiwari_estimator(instance.jobs, 3)
            assert result.omega <= opt * (1 + 1e-6)

    def test_list_scheduling_witness_respects_ratio(self):
        """List scheduling the estimator's allotment stays within ratio * omega."""
        for seed in range(4):
            instance = random_mixed_instance(25, 16, seed=seed)
            result = ludwig_tiwari_estimator(instance.jobs, 16)
            schedule = list_schedule(instance.jobs, result.allotment, 16)
            assert_valid_schedule(schedule, instance.jobs)
            assert schedule.makespan <= result.ratio * result.omega * (1 + 1e-6)

    def test_omega_at_least_trivial_bound(self):
        instance = random_mixed_instance(30, 32, seed=11)
        result = ludwig_tiwari_estimator(instance.jobs, 32)
        assert result.omega >= trivial_lower_bound(instance.jobs, 32) * (1 - 1e-9)

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_floor_branch_omega_is_at_least_trivial_bound_exactly(self, vectorized):
        """The crossover sits at the max_j t_j(m) floor, and the linear job's
        float work 21 * (19 / 21) rounds one ulp below its t_j(1) = 19: omega
        must still equal the trivial bound, not fall a hair under it."""
        jobs = [TabulatedJob("rigid", [0.9499999999999998]), AmdahlJob("linear", 19.0, 0.0)]
        oracle = BatchedOracle(jobs, 21) if vectorized else None
        result = ludwig_tiwari_estimator(jobs, 21, oracle=oracle)
        assert result.omega == trivial_lower_bound(jobs, 21) == 0.95

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            ludwig_tiwari_estimator([AmdahlJob("a", 1.0, 0.1)], 0)

    def test_huge_machine_count(self):
        """The estimator stays fast and sane for m = 10^9 (compact encoding)."""
        jobs = [PowerLawJob(f"p{i}", 50.0 + i, 0.9) for i in range(10)]
        m = 10 ** 9
        result = ludwig_tiwari_estimator(jobs, m)
        assert result.omega > 0
        # every job could run on ~m/10 processors: OPT is tiny but positive
        assert result.omega <= serial_upper_bound(jobs)


class TestMakespanLowerBound:
    def test_combines_bounds(self):
        instance = random_mixed_instance(20, 16, seed=5)
        lb = makespan_lower_bound(instance.jobs, 16)
        assert lb >= trivial_lower_bound(instance.jobs, 16) * (1 - 1e-9)

    def test_empty(self):
        assert makespan_lower_bound([], 4) == 0.0

    def test_lower_bound_below_exact_optimum(self):
        for seed in range(3):
            instance = random_monotone_tabulated_instance(5, 4, seed=seed + 20)
            opt = exact_makespan(instance.jobs, 4)
            assert makespan_lower_bound(instance.jobs, 4) <= opt * (1 + 1e-6)


class TestReleaseAwareLowerBound:
    def test_zero_releases_reduce_to_the_base_bounds(self):
        from repro.core.bounds import release_aware_lower_bound

        instance = random_mixed_instance(12, 16, seed=5)
        releases = [0.0] * instance.n
        bound = release_aware_lower_bound(instance.jobs, releases, 16)
        assert bound >= trivial_lower_bound(instance.jobs, 16) - 1e-12

    def test_late_release_dominates(self):
        from repro.core.bounds import release_aware_lower_bound

        a = TabulatedJob("a", [10.0])
        b = TabulatedJob("b", [1.0])
        # b arrives at 100: nothing can end before 101
        bound = release_aware_lower_bound([a, b], [0.0, 100.0], 4)
        assert bound == pytest.approx(101.0)

    def test_suffix_work_bound(self):
        from repro.core.bounds import release_aware_lower_bound

        # four unit jobs released at 10 on one machine: 10 + 4*1 = 14
        jobs = [TabulatedJob(f"j{i}", [1.0]) for i in range(4)]
        bound = release_aware_lower_bound(jobs, [10.0] * 4, 1)
        assert bound == pytest.approx(14.0)

    def test_base_is_respected(self):
        from repro.core.bounds import release_aware_lower_bound

        jobs = [TabulatedJob("a", [1.0])]
        assert release_aware_lower_bound(jobs, [0.0], 8, base=42.0) == 42.0

    def test_mismatched_lengths_rejected(self):
        from repro.core.bounds import release_aware_lower_bound

        with pytest.raises(ValueError, match="releases"):
            release_aware_lower_bound([TabulatedJob("a", [1.0])], [0.0, 1.0], 2)

    def test_empty(self):
        from repro.core.bounds import release_aware_lower_bound

        assert release_aware_lower_bound([], [], 4) == 0.0

    def test_certifies_an_online_schedule(self):
        from repro.core.bounds import release_aware_lower_bound
        from repro.online import OnlineScheduler
        from repro.workloads.generators import random_arrivals_instance

        inst = random_arrivals_instance(16, 24, seed=9)
        result = OnlineScheduler(24, eps=0.25).run(inst.arrivals)
        bound = release_aware_lower_bound(inst.jobs, inst.releases, 24)
        assert bound <= result.makespan + 1e-9
