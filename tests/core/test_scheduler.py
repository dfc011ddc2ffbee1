"""Tests for the top-level schedule_moldable facade."""

import math

import pytest

import repro.core.scheduler as scheduler_module
from repro import solve_mega
from repro.core.backend import MAX_VECTORIZED_M
from repro.core.bounds import makespan_lower_bound
from repro.core.job import AmdahlJob, PowerLawJob
from repro.core.scheduler import ALGORITHMS, schedule_moldable
from repro.core.validation import assert_valid_schedule
from repro.workloads.generators import random_amdahl_instance, random_mixed_instance, random_monotone_tabulated_instance


class TestFacade:
    def test_empty_instance(self):
        result = schedule_moldable([], 8)
        assert result.makespan == 0.0
        assert result.guarantee is None

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            schedule_moldable([], 0)

    def test_unknown_algorithm(self):
        instance = random_mixed_instance(5, 4, seed=0)
        with pytest.raises(ValueError):
            schedule_moldable(instance.jobs, 4, algorithm="quantum")

    @pytest.mark.parametrize("algorithm", ["two_approx", "mrt", "compressible", "bounded", "bounded_linear"])
    def test_all_algorithms_produce_valid_schedules(self, algorithm, small_mixed_instance):
        instance = small_mixed_instance
        result = schedule_moldable(instance.jobs, instance.m, 0.25, algorithm=algorithm)
        assert_valid_schedule(result.schedule, instance.jobs)
        assert result.algorithm == algorithm
        assert result.lower_bound > 0
        assert result.makespan >= result.lower_bound * (1 - 1e-9)

    def test_auto_prefers_fptas_for_large_m(self):
        instance = random_amdahl_instance(10, 10 ** 6, seed=1)
        result = schedule_moldable(instance.jobs, instance.m, 0.1, algorithm="auto")
        assert result.algorithm == "fptas"
        assert result.guarantee == pytest.approx(1.1)

    def test_auto_prefers_bounded_for_small_m(self):
        instance = random_mixed_instance(30, 16, seed=2)
        result = schedule_moldable(instance.jobs, instance.m, 0.2, algorithm="auto")
        assert result.algorithm == "bounded"
        assert result.guarantee == pytest.approx(1.7)

    def test_fptas_requires_threshold(self):
        instance = random_mixed_instance(30, 16, seed=3)
        with pytest.raises(ValueError):
            schedule_moldable(instance.jobs, 16, 0.1, algorithm="fptas")

    def test_exact_algorithm(self):
        instance = random_monotone_tabulated_instance(4, 4, seed=4)
        result = schedule_moldable(instance.jobs, 4, algorithm="exact")
        assert result.guarantee == 1.0
        assert_valid_schedule(result.schedule, instance.jobs)

    def test_exact_rejects_large_instances(self):
        instance = random_mixed_instance(30, 16, seed=5)
        with pytest.raises(ValueError):
            schedule_moldable(instance.jobs, 16, algorithm="exact")

    def test_ptas_algorithm(self):
        instance = random_amdahl_instance(8, 10 ** 5, seed=6)
        result = schedule_moldable(instance.jobs, instance.m, 0.2, algorithm="ptas")
        assert_valid_schedule(result.schedule, instance.jobs)

    def test_certified_ratio_consistency(self):
        instance = random_mixed_instance(25, 32, seed=7)
        result = schedule_moldable(instance.jobs, 32, 0.2, algorithm="bounded")
        assert result.certified_ratio == pytest.approx(result.makespan / result.lower_bound)

    def test_algorithm_list_is_stable(self):
        assert "auto" in ALGORITHMS
        assert set(ALGORITHMS) >= {"two_approx", "mrt", "compressible", "bounded", "fptas", "ptas", "exact"}

    def test_guarantees_hold_against_lower_bound_times_slack(self):
        """All algorithms stay within guarantee * (OPT/LB slack) on random instances."""
        instance = random_mixed_instance(40, 48, seed=8)
        for algorithm in ("two_approx", "mrt", "compressible", "bounded", "bounded_linear"):
            result = schedule_moldable(instance.jobs, 48, 0.2, algorithm=algorithm)
            assert result.guarantee is not None
            # the lower bound may be below OPT, so allow a generous 30% slack
            assert result.makespan <= result.guarantee * result.lower_bound * 1.3

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.nan])
    @pytest.mark.parametrize("algorithm", ["auto", "ptas"])
    def test_eps_outside_unit_interval_is_rejected(self, algorithm, eps):
        """Rejected before the FPTAS machine threshold divides by eps."""
        instance = random_mixed_instance(10, 16, seed=9)
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
            schedule_moldable(instance.jobs, 16, eps, algorithm=algorithm)


def _instance_for(algorithm):
    """``(fresh jobs factory, m)`` of an instance ``algorithm`` accepts.  The
    non-exact instance is too large for ptas's tiny exact branch."""
    if algorithm == "exact":
        return (lambda: random_monotone_tabulated_instance(4, 4, seed=4).jobs), 4
    m = 1024 if algorithm == "fptas" else 16  # fptas needs m >= 8n/eps
    return (lambda: random_mixed_instance(12, 16, seed=9).jobs), m


def _no_second_pass(jobs, m):
    raise AssertionError("the facade re-ran the estimator for its lower bound")


class TestLowerBound:
    """``lower_bound`` is the driver's own estimator omega, bit-identical to a
    fresh scalar :func:`makespan_lower_bound` on a separate instance."""

    @pytest.mark.parametrize("backend", ["vectorized", "scalar"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_equals_scalar_reference(self, algorithm, backend, monkeypatch):
        make_jobs, m = _instance_for(algorithm)
        if algorithm != "exact":
            monkeypatch.setattr(scheduler_module, "makespan_lower_bound", _no_second_pass)
        result = schedule_moldable(make_jobs(), m, 0.25, algorithm=algorithm, backend=backend)
        assert result.lower_bound == makespan_lower_bound(make_jobs(), m)

    def test_astronomical_m_on_the_scalar_fallback(self, monkeypatch):
        m = MAX_VECTORIZED_M + 1  # beyond the γ-arrays: vectorized runs scalar
        monkeypatch.setattr(scheduler_module, "makespan_lower_bound", _no_second_pass)
        result = schedule_moldable(random_mixed_instance(4, 8, seed=3).jobs, m, 0.25)
        assert result.algorithm == "fptas"
        assert result.lower_bound == makespan_lower_bound(random_mixed_instance(4, 8, seed=3).jobs, m)

    def test_ptas_exact_branch_estimates_afresh(self):
        result = schedule_moldable(random_monotone_tabulated_instance(4, 4, seed=4).jobs, 4, 0.25, algorithm="ptas")
        assert result.schedule.metadata["algorithm"] == "ptas_exact"
        assert result.lower_bound == makespan_lower_bound(random_monotone_tabulated_instance(4, 4, seed=4).jobs, 4)


class TestInstanceChecks:
    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    def test_nan_time_fails_at_the_job_constructor(self, backend):
        jobs = random_mixed_instance(10, 64, seed=1).jobs
        with pytest.raises(ValueError, match="t1 must be positive and finite"):
            schedule_moldable(jobs + [PowerLawJob("x", math.nan, 0.5)], 64, 0.1, backend=backend)

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    @pytest.mark.parametrize("algorithm", ["auto", "two_approx", "mrt", "compressible", "bounded", "fptas"])
    def test_repeated_job_object_is_rejected(self, algorithm, backend):
        jobs = random_mixed_instance(10, 64, seed=1).jobs
        m = 64 if algorithm != "fptas" else 2**16
        with pytest.raises(ValueError, match="the same job object was submitted twice"):
            schedule_moldable(jobs + [jobs[3]], m, 0.1, algorithm=algorithm, backend=backend)

    def test_repeated_job_object_is_rejected_by_solve_mega(self):
        jobs = random_mixed_instance(10, 64, seed=1).jobs
        with pytest.raises(ValueError, match="the same job object was submitted twice"):
            solve_mega([(jobs, 64), (jobs + [jobs[0]], 64)])

    def test_equal_but_distinct_jobs_are_fine(self):
        jobs = [AmdahlJob("same", 10.0, 0.1) for _ in range(3)]
        result = schedule_moldable(jobs, 4, 0.1)
        assert len(result.schedule.entries) == 3
