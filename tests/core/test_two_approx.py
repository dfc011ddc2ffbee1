"""Tests for the 2-approximation baseline."""

import pytest

from repro.core.backend import MAX_VECTORIZED_M
from repro.core.bounds import ludwig_tiwari_estimator
from repro.core.exact_small import exact_makespan
from repro.core.job import AmdahlJob, TabulatedJob
from repro.core.two_approx import two_approximation
from repro.core.validation import assert_valid_schedule
from repro.workloads import generators
from repro.workloads.generators import (
    planted_partition_instance,
    random_mixed_instance,
    random_monotone_tabulated_instance,
)

from reference_list_scheduling import reference_list_schedule


def reference_two_approximation(jobs, m):
    """The 2-approximation as per-job calls, kept as an independent
    reference for :func:`repro.core.two_approx.two_approx_steps`, which every
    executor runs: the estimator's allotment, list scheduled longest
    processing time first by the heap reference scheduler."""
    estimate = ludwig_tiwari_estimator(jobs, m)
    allot = estimate.allotment
    order = sorted(jobs, key=lambda j: -j.processing_time(allot[j]))
    return reference_list_schedule(jobs, allot, m, order=order), estimate


#: the analytic families whose generators take any m
FAMILIES = ["amdahl", "power_law", "communication", "mixed", "power_work", "bimodal", "quantized", "chain"]
#: (n, m): small, moderate, past 2^53 and past int64
SIZES = [(20, 16), (50, 64), (8, 1 << 60), (12, 1 << 80)]


class TestMatchesReference:
    """Both executors against the reference body: the same entries, makespan
    and omega, at every magnitude (past 2^62 both run the scalar executor)."""

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    @pytest.mark.parametrize("n, m", SIZES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_both_executors(self, family, n, m, backend):
        for seed in (1, 2, 3):
            jobs = getattr(generators, f"random_{family}_instance")(n, m, seed=seed).jobs
            schedule, estimate = reference_two_approximation(jobs, m)
            result = two_approximation(jobs, m, backend=backend)
            got = [(e.job.name, e.start, e.spans) for e in result.schedule.entries]
            assert got == [(e.job.name, e.start, e.spans) for e in schedule.entries]
            assert result.makespan == schedule.makespan
            assert result.estimate.omega == estimate.omega
            ran = "vectorized" if backend == "vectorized" and m <= MAX_VECTORIZED_M else "scalar"
            assert result.schedule.metadata["backend"] == ran

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_span_ends_past_int64(self, backend):
        """Two jobs of ~7e18 processors each: every count and start fits
        int64, the second span's end does not."""
        m = 1 << 80
        jobs = [AmdahlJob("c", 1.0, 1.0), AmdahlJob("b0", 7e18, 0.0), AmdahlJob("b1", 7e18, 0.0)]
        schedule, estimate = reference_two_approximation(jobs, m)
        result = two_approximation(jobs, m, backend=backend)
        assert [(e.job.name, e.start, e.spans) for e in result.schedule.entries] == [
            (e.job.name, e.start, e.spans) for e in schedule.entries
        ]
        assert result.makespan == schedule.makespan
        assert max(e.processors for e in schedule.entries) < 1 << 63 < schedule.columns().span_end.max()


class TestTwoApproximation:
    def test_empty_instance(self):
        result = two_approximation([], 8)
        assert result.makespan == 0.0

    def test_single_job(self):
        job = AmdahlJob("a", 100.0, 0.2)
        result = two_approximation([job], 32)
        # a single job should simply run on its best processor count
        assert result.makespan <= job.processing_time(1)
        assert result.makespan >= job.processing_time(32) * (1 - 1e-9)

    def test_schedules_are_valid(self):
        for seed in range(4):
            instance = random_mixed_instance(30, 24, seed=seed)
            result = two_approximation(instance.jobs, 24)
            assert_valid_schedule(result.schedule, instance.jobs)

    def test_ratio_against_estimator(self):
        """makespan <= ratio * omega (the estimator's certified interval)."""
        for seed in range(4):
            instance = random_mixed_instance(40, 32, seed=seed + 10)
            result = two_approximation(instance.jobs, 32)
            assert result.makespan <= result.estimate.ratio * result.estimate.omega * (1 + 1e-9)

    def test_ratio_against_exact_optimum(self):
        for seed in range(4):
            instance = random_monotone_tabulated_instance(5, 4, seed=seed)
            opt = exact_makespan(instance.jobs, 4)
            result = two_approximation(instance.jobs, 4)
            assert result.makespan <= 2.0 * opt * (1 + 1e-6)

    def test_ratio_against_planted_optimum(self):
        instance = planted_partition_instance(12, seed=1)
        result = two_approximation(instance.jobs, instance.m)
        assert instance.known_optimum is not None
        assert result.makespan <= 2.0 * instance.known_optimum * (1 + 1e-6)

    def test_certified_ratio_property(self):
        instance = random_mixed_instance(20, 16, seed=2)
        result = two_approximation(instance.jobs, 16)
        assert result.certified_ratio >= 1.0 - 1e-9
        assert result.certified_ratio <= result.estimate.ratio * (1 + 1e-6)

    def test_sequential_jobs_on_one_machine(self):
        jobs = [TabulatedJob(f"j{i}", [5.0]) for i in range(6)]
        result = two_approximation(jobs, 1)
        assert result.makespan == pytest.approx(30.0)

    def test_large_m(self):
        jobs = [AmdahlJob(f"a{i}", 50.0, 0.05) for i in range(10)]
        result = two_approximation(jobs, 10 ** 8)
        assert_valid_schedule(result.schedule, jobs)
        # with effectively unlimited machines every job runs near its fastest
        assert result.makespan <= 2.0 * max(j.processing_time(10 ** 8) for j in jobs) * 2
