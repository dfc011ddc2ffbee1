"""Tests for the FPTAS (Theorem 2) and the PTAS dispatcher (Section 3.2)."""

import pytest

from repro.core.allotment import gamma
from repro.core.backend import resolve_backend
from repro.core.bounds import makespan_lower_bound, serial_upper_bound
from repro.core.dual import dual_binary_search
from repro.core.exact_small import exact_makespan
from repro.core.fptas import fptas_dual, fptas_machine_threshold, fptas_schedule, ptas_schedule
from repro.core.job import AmdahlJob, PowerLawJob
from repro.core.schedule import Schedule
from repro.core.validation import assert_valid_schedule
from repro.workloads import generators
from repro.workloads.generators import (
    random_amdahl_instance,
    random_monotone_tabulated_instance,
    random_power_law_instance,
)

BACKENDS = ["scalar", "vectorized"]


def executor(jobs, m, backend):
    """The executor ``backend`` names for ``(jobs, m)``."""
    return resolve_backend(jobs, m, backend, None)[1]


def reference_fptas_dual(jobs, m, d, eps):
    """The dual step as a per-job loop, kept as an independent reference for
    :func:`repro.core.fptas.fptas_dual_steps`, which every executor runs."""
    if d <= 0:
        return None
    threshold = (1.0 + eps) * d
    counts = []
    total = 0
    for job in jobs:
        g = gamma(job, threshold, m)
        if g is None:
            return None
        counts.append(g)
        total += g
        if total > m:
            return None
    schedule = Schedule(m=m, metadata={"algorithm": "fptas_dual", "d": d, "eps": eps})
    next_machine = 0
    for job, count in zip(jobs, counts):
        schedule.add(job, 0.0, [(next_machine, count)])
        next_machine += count
    return schedule


def reference_fptas_schedule(jobs, m, eps):
    inner = eps / 3.0
    return dual_binary_search(jobs, m, lambda d: reference_fptas_dual(jobs, m, d, inner), tolerance=inner)


def entries(schedule):
    return [(e.job.name, e.start, e.spans) for e in schedule.entries]


#: the analytic families whose generators take any m
FAMILIES = ["amdahl", "power_law", "communication", "mixed", "power_work", "bimodal", "quantized", "chain"]
#: m in the FPTAS regime for n = 10: moderate, past 2^53, past int64
MACHINES = [1 << 20, 1 << 60, 1 << 80]


def gamma_sum_past_int64(count, t1):
    """``count`` jobs whose γ-values each fit int64 while their sum does not,
    behind a serial job that pins d near 1: with three jobs of 6e18 the last
    machine offset passes 2^63 too, with two of 7e18 only the last span's
    end does."""
    return [AmdahlJob("c", 1.0, 1.0)] + [AmdahlJob(f"b{i}", t1, 0.0) for i in range(count)]


class TestMatchesReference:
    """Both executors against the reference loops: the same accept/reject
    decisions and the same entries, at every magnitude."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("m", MACHINES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_fptas_dual(self, family, m, backend):
        for seed in (1, 2, 3):
            jobs = getattr(generators, f"random_{family}_instance")(10, m, seed=seed).jobs
            lb = makespan_lower_bound(jobs, m)
            for factor in (0.5, 1.0, 1.3, 2.0):
                expected = reference_fptas_dual(jobs, m, factor * lb, 0.1)
                got = fptas_dual(jobs, m, factor * lb, 0.1, oracle=executor(jobs, m, backend))
                assert (got is None) == (expected is None)
                if got is not None:
                    assert entries(got) == entries(expected)
                    assert got.makespan == expected.makespan

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("m", MACHINES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_fptas_schedule(self, family, m, backend):
        for seed in (1, 2, 3):
            jobs = getattr(generators, f"random_{family}_instance")(10, m, seed=seed).jobs
            expected = reference_fptas_schedule(jobs, m, 0.2)
            got = fptas_schedule(jobs, m, 0.2, backend=backend)
            assert entries(got.schedule) == entries(expected.schedule)
            assert (got.makespan, got.accepted_d, got.lower_bound) == (
                expected.makespan,
                expected.accepted_d,
                expected.lower_bound,
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("count, t1", [(3, 6e18), (2, 7e18)])
    def test_gamma_sum_past_int64(self, count, t1, backend):
        """The machine offsets and span ends stay exact where the γ-values
        fit int64 but their running sum passes 2^63 (an int64 sum wraps)."""
        jobs = gamma_sum_past_int64(count, t1)
        m = 1 << 80
        expected = reference_fptas_schedule(jobs, m, 0.5)
        got = fptas_schedule(jobs, m, 0.5, backend=backend)
        assert entries(got.schedule) == entries(expected.schedule)
        assert got.makespan == expected.makespan
        counts = [e.processors for e in got.schedule.entries]
        assert max(counts) < 1 << 63 < sum(counts)
        d = 1.5 * got.accepted_d
        assert entries(fptas_dual(jobs, m, d, 0.1, oracle=executor(jobs, m, backend))) == entries(reference_fptas_dual(jobs, m, d, 0.1))


class TestFptasDual:
    def test_accepts_generous_target(self):
        jobs = [AmdahlJob(f"a{i}", 10.0, 0.1) for i in range(4)]
        m = 1000
        schedule = fptas_dual(jobs, m, 20.0, 0.1)
        assert schedule is not None
        assert_valid_schedule(schedule, jobs, max_makespan=(1.1) * 20.0)

    def test_all_jobs_start_at_zero(self):
        jobs = [PowerLawJob(f"p{i}", 30.0, 0.8) for i in range(5)]
        schedule = fptas_dual(jobs, 10 ** 6, 5.0, 0.1)
        assert schedule is not None
        assert all(e.start == 0.0 for e in schedule.entries)

    def test_rejects_when_too_many_processors_needed(self):
        # 4 sequential-ish jobs of length 10 on 2 machines cannot all meet d=6
        jobs = [AmdahlJob(f"a{i}", 10.0, 0.9) for i in range(4)]
        assert fptas_dual(jobs, 2, 6.0, 0.1) is None

    def test_rejects_unreachable_threshold(self):
        jobs = [AmdahlJob("a", 10.0, 1.0)]  # never faster than 10
        assert fptas_dual(jobs, 100, 5.0, 0.1) is None

    def test_rejects_nonpositive_target(self):
        jobs = [AmdahlJob("a", 10.0, 0.1)]
        assert fptas_dual(jobs, 100, 0.0, 0.1) is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_below_the_threshold_accepts_only_valid_schedules(self, backend):
        """m = 5 is far below 8n/eps, so the dual may reject targets a
        schedule exists for; every schedule it accepts must still be
        feasible and within (1+eps)d."""
        eps = 0.5
        for seed in range(3):
            jobs = random_monotone_tabulated_instance(3, 5, seed=seed).jobs
            lb = makespan_lower_bound(jobs, 5)
            targets = [lb * f for f in (1.0, 1.25, 1.5, 2.0)] + [serial_upper_bound(jobs)]
            accepted = 0
            for d in targets:
                schedule = fptas_dual(jobs, 5, d, eps, oracle=executor(jobs, 5, backend))
                if schedule is not None:
                    accepted += 1
                    assert_valid_schedule(schedule, jobs, max_makespan=(1 + eps) * d * (1 + 1e-9))
            # on one machine per job, every job meets the serial bound
            assert accepted >= 1

    def test_makespan_within_one_plus_eps_of_target(self):
        jobs = [PowerLawJob(f"p{i}", 50.0, 0.6) for i in range(6)]
        d = 12.0
        eps = 0.25
        schedule = fptas_dual(jobs, 10 ** 5, d, eps)
        assert schedule is not None
        assert schedule.makespan <= (1 + eps) * d * (1 + 1e-9)


class TestFptasSchedule:
    def test_threshold_check(self):
        jobs = [AmdahlJob(f"a{i}", 10.0, 0.1) for i in range(10)]
        eps = 0.1
        with pytest.raises(ValueError):
            fptas_schedule(jobs, 100, eps)  # 100 < 8*10/0.1 = 800

    def test_guarantee_vs_lower_bound_large_m(self):
        for eps in (0.05, 0.1, 0.3):
            instance = random_amdahl_instance(20, 10 ** 7, seed=8)
            result = fptas_schedule(instance.jobs, instance.m, eps)
            lb = makespan_lower_bound(instance.jobs, instance.m)
            assert result.makespan <= (1 + eps) * lb * (1 + 1e-6) or result.makespan <= (1 + eps) * lb * 1.01

    def test_schedules_are_valid(self):
        instance = random_power_law_instance(16, 1 << 16, seed=3)
        result = fptas_schedule(instance.jobs, instance.m, 0.2)
        assert_valid_schedule(result.schedule, instance.jobs)

    def test_eps_validation(self):
        jobs = [AmdahlJob("a", 10.0, 0.1)]
        with pytest.raises(ValueError):
            fptas_schedule(jobs, 1000, 0.0)
        with pytest.raises(ValueError):
            fptas_schedule(jobs, 1000, 1.5)

    def test_machine_threshold_formula(self):
        assert fptas_machine_threshold(10, 0.1) == pytest.approx(800.0)
        assert fptas_machine_threshold(0, 0.1) == 0.0


class TestPtasSchedule:
    def test_dispatch_to_fptas_for_large_m(self):
        instance = random_amdahl_instance(12, 10 ** 6, seed=1)
        result = ptas_schedule(instance.jobs, instance.m, 0.2)
        assert result.schedule.metadata["algorithm"] == "fptas"
        assert_valid_schedule(result.schedule, instance.jobs)

    def test_dispatch_to_exact_for_tiny_instances(self):
        instance = random_monotone_tabulated_instance(4, 4, seed=2)
        result = ptas_schedule(instance.jobs, 4, 0.3)
        assert result.schedule.metadata["algorithm"] == "ptas_exact"
        opt = exact_makespan(instance.jobs, 4)
        assert result.makespan == pytest.approx(opt, rel=1e-9)

    def test_dispatch_to_bounded_fallback(self):
        instance = random_monotone_tabulated_instance(20, 16, seed=3)
        result = ptas_schedule(instance.jobs, 16, 0.3)
        assert result.schedule.metadata["algorithm"] == "ptas_fallback_bounded"
        assert_valid_schedule(result.schedule, instance.jobs)
        # the substituted guarantee is 3/2 + eps
        lb = makespan_lower_bound(instance.jobs, 16)
        assert result.makespan <= (1.5 + 0.3) * lb * 2  # loose sanity bound

    def test_empty_instance(self):
        result = ptas_schedule([], 8, 0.1)
        assert result.makespan == 0.0
