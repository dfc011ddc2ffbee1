"""Tests for the dual-approximation binary-search driver."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bounded_algorithm import bounded_schedule
from repro.core.bounds import geometric_midpoint
from repro.core.compressible_algorithm import compressible_schedule
from repro.core.dual import MAX_ITERATIONS, dual_binary_search
from repro.core.fptas import fptas_schedule
from repro.core.job import AmdahlJob, TabulatedJob
from repro.core.mrt import mrt_schedule
from repro.core.schedule import Schedule
from repro.workloads.generators import random_amdahl_instance, random_mixed_instance


def make_threshold_dual(jobs, m, threshold, factor=1.5):
    """A toy dual algorithm: accepts d >= threshold with makespan factor*d."""

    calls = []

    def dual(d):
        calls.append(d)
        if d < threshold:
            return None
        schedule = Schedule(m=m)
        start = 0.0
        for job in jobs:
            schedule.add(job, 0.0, [(0, 1)], duration_override=factor * d)
            break
        return schedule

    return dual, calls


class TestDualBinarySearch:
    def test_empty_jobs(self):
        result = dual_binary_search([], 4, lambda d: Schedule(m=4), tolerance=0.1)
        assert result.makespan == 0.0

    def test_converges_to_threshold(self):
        jobs = [TabulatedJob("a", [10.0])]
        m = 2
        threshold = 7.0
        dual, calls = make_threshold_dual(jobs, m, threshold)
        result = dual_binary_search(jobs, m, dual, tolerance=0.01, lower=1.0, upper=20.0)
        # the accepted d converges to within (1+tolerance) of the threshold
        assert threshold <= result.accepted_d <= threshold * 1.02
        assert result.dual_calls == len(calls)

    def test_tolerance_controls_accuracy(self):
        jobs = [TabulatedJob("a", [10.0])]
        dual, _ = make_threshold_dual(jobs, 2, 5.0)
        coarse = dual_binary_search(jobs, 2, dual, tolerance=0.5, lower=1.0, upper=20.0)
        fine = dual_binary_search(jobs, 2, dual, tolerance=0.01, lower=1.0, upper=20.0)
        assert fine.accepted_d <= coarse.accepted_d + 1e-9
        assert fine.iterations >= coarse.iterations

    def test_widens_bracket_when_upper_rejected(self):
        jobs = [TabulatedJob("a", [10.0])]
        dual, _ = make_threshold_dual(jobs, 2, 50.0)
        result = dual_binary_search(jobs, 2, dual, tolerance=0.05, lower=1.0, upper=2.0)
        assert result.accepted_d >= 50.0

    def test_raises_when_never_accepting(self):
        jobs = [TabulatedJob("a", [10.0])]
        with pytest.raises(RuntimeError):
            dual_binary_search(jobs, 2, lambda d: None, tolerance=0.1, lower=1.0, upper=2.0)

    def test_invalid_tolerance(self):
        jobs = [TabulatedJob("a", [10.0])]
        with pytest.raises(ValueError):
            dual_binary_search(jobs, 2, lambda d: None, tolerance=0.0)

    def test_default_bracket_from_estimator(self):
        instance = random_mixed_instance(15, 8, seed=4)

        def dual(d):
            # trivial dual: serial schedule if d is at least the serial time
            total = sum(j.processing_time(1) for j in instance.jobs)
            if d < total:
                return None
            schedule = Schedule(m=8)
            t = 0.0
            for job in instance.jobs:
                schedule.add(job, t, [(0, 1)])
                t += job.processing_time(1)
            return schedule

        result = dual_binary_search(instance.jobs, 8, dual, tolerance=0.05)
        total = sum(j.processing_time(1) for j in instance.jobs)
        assert result.makespan == pytest.approx(total)

    def test_iteration_count_logarithmic(self):
        """The number of dual calls grows like log(1/tolerance), not linearly."""
        jobs = [AmdahlJob("a", 100.0, 0.1)]
        dual, calls = make_threshold_dual(jobs, 4, 9.0)
        dual_binary_search(jobs, 4, dual, tolerance=1e-4, lower=1.0, upper=16.0)
        assert len(calls) <= 10 + math.ceil(math.log2(math.log(16.0) / math.log(1 + 1e-4)))


def reference_search(dual, lower, upper, tolerance):
    """The plain search the floor probe must agree with: accept ``upper``
    (doubling it on rejection), then bisect geometrically.  Returns
    ``(schedule, accepted_d, lower_bound, iterations, dual_calls)``."""
    lower = max(lower, 1e-300)
    upper = max(upper, lower)
    best = dual(upper)
    calls = 1
    while best is None and calls <= 64:
        upper *= 2.0
        best = dual(upper)
        calls += 1
    best_d = upper
    iterations = 0
    while upper > lower * (1.0 + tolerance) and iterations < MAX_ITERATIONS:
        mid = geometric_midpoint(lower, upper)
        candidate = dual(mid)
        calls += 1
        iterations += 1
        if candidate is not None:
            best, best_d, upper = candidate, mid, mid
        else:
            lower = mid
    return best, best_d, lower, iterations, calls


def placements(schedule):
    return [(e.job.name, e.start, e.spans, e.duration_override) for e in schedule.entries]


class TestFloorProbe:
    """The search probes the end of the all-accept path first."""

    JOBS = [TabulatedJob("a", [10.0])]

    def test_always_accept_makes_one_call_at_the_floor(self):
        dual, calls = make_threshold_dual(self.JOBS, 2, 0.0)
        result = dual_binary_search(self.JOBS, 2, dual, tolerance=0.01, lower=1.0, upper=20.0)
        _, ref_d, ref_lower, ref_iterations, _ = reference_search(
            make_threshold_dual(self.JOBS, 2, 0.0)[0], 1.0, 20.0, 0.01
        )
        assert calls == [result.accepted_d]
        assert result.dual_calls == 1
        assert result.accepted_d == ref_d
        assert result.lower_bound == ref_lower == 1.0
        assert result.iterations == ref_iterations

    def test_rejected_floor_falls_back_to_the_plain_search(self):
        dual, calls = make_threshold_dual(self.JOBS, 2, 7.0)
        result = dual_binary_search(self.JOBS, 2, dual, tolerance=0.01, lower=1.0, upper=20.0)
        ref_schedule, ref_d, ref_lower, ref_iterations, ref_calls = reference_search(
            make_threshold_dual(self.JOBS, 2, 7.0)[0], 1.0, 20.0, 0.01
        )
        assert calls[0] <= 1.01  # the floor, rejected
        assert result.accepted_d == ref_d
        assert result.lower_bound == ref_lower
        assert result.iterations == ref_iterations
        assert placements(result.schedule) == placements(ref_schedule)
        assert result.dual_calls == ref_calls + 1 == len(calls)

    def test_non_monotone_dual_keeps_the_floor_schedule(self):
        lower, upper, tolerance = 1.0, 20.0, 0.01

        def dual(d):
            # accepts near the lower end and at the top, rejects in between
            if lower * (1 + tolerance) < d < upper:
                return None
            schedule = Schedule(m=2)
            schedule.add(self.JOBS[0], 0.0, [(0, 1)], duration_override=d)
            return schedule

        result = dual_binary_search(self.JOBS, 2, dual, tolerance=tolerance, lower=lower, upper=upper)
        assert result.dual_calls == 1
        assert result.accepted_d <= (1 + tolerance) * lower
        assert result.makespan == result.accepted_d
        # the plain search would have climbed back to the top of the bracket
        assert reference_search(dual, lower, upper, tolerance)[1] > result.accepted_d

    def test_tight_bracket_probes_only_upper(self):
        dual, calls = make_threshold_dual(self.JOBS, 2, 0.0)
        result = dual_binary_search(self.JOBS, 2, dual, tolerance=0.1, lower=10.0, upper=10.5)
        assert calls == [10.5]
        assert (result.accepted_d, result.iterations, result.dual_calls) == (10.5, 0, 1)

    @settings(max_examples=150, deadline=None)
    @given(
        lower=st.floats(1e-3, 1e3),
        spread=st.floats(1.0, 64.0),
        position=st.floats(0.0, 1.5),
        tolerance=st.floats(1e-4, 1.0),
    )
    def test_matches_the_plain_search_on_monotone_duals(self, lower, spread, position, tolerance):
        upper = lower * spread
        threshold = lower * spread**position  # may sit past upper: widening
        dual, _ = make_threshold_dual(self.JOBS, 2, threshold)
        result = dual_binary_search(self.JOBS, 2, dual, tolerance=tolerance, lower=lower, upper=upper)
        _, ref_d, ref_lower, ref_iterations, _ = reference_search(dual, lower, upper, tolerance)
        assert (result.accepted_d, result.lower_bound, result.iterations) == (
            ref_d,
            ref_lower,
            ref_iterations,
        )


class TestOneDualCallPerSolve:
    """The search never rejects on these instances, so every dual driver
    accepts its first probe: a six-step search fails here, not only on a timer."""

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    @pytest.mark.parametrize("generator", [random_mixed_instance, random_amdahl_instance])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_shelf_drivers(self, backend, generator, seed):
        jobs = generator(20, 64, seed=seed).jobs
        for driver in (bounded_schedule, mrt_schedule, compressible_schedule):
            result = driver(jobs, 64, 0.2, backend=backend)
            assert result.dual_calls == 1, driver.__name__
            assert result.iterations > 0, driver.__name__

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    @pytest.mark.parametrize("generator", [random_mixed_instance, random_amdahl_instance])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_fptas(self, backend, generator, seed):
        eps = 0.5
        m = 2**12  # >= 8n/eps
        result = fptas_schedule(generator(20, m, seed=seed).jobs, m, eps, backend=backend)
        assert result.dual_calls == 1
