"""Property-based end-to-end guarantees of the scheduling algorithms.

These are the strongest tests in the suite: random monotone instances are
generated (with a valid-by-construction speedup profile), every algorithm is
run, and the invariants claimed by the paper are asserted:

* every produced schedule is feasible (validator + simulator);
* the makespan respects the algorithm's guarantee relative to the exact
  optimum on tiny instances;
* the dual algorithms never reject a target that the exact optimum shows to be
  feasible.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.bounded_algorithm import bounded_dual
from repro.core.compressible_algorithm import compressible_dual
from repro.core.exact_small import exact_makespan
from repro.core.fptas import fptas_schedule
from repro.core.job import TabulatedJob
from repro.core.mrt import mrt_dual
from repro.core.scheduler import schedule_moldable
from repro.core.validation import validate_schedule
from repro.simulator.engine import simulate_schedule
from repro.workloads.speedup_models import random_monotone_speedup


@st.composite
def tiny_monotone_instances(draw, max_jobs=4, max_m=4):
    m = draw(st.integers(min_value=1, max_value=max_m))
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(n):
        t1 = float(rng.uniform(1.0, 50.0))
        speedup = random_monotone_speedup(m, rng)
        jobs.append(TabulatedJob(f"j{i}", [t1 / s for s in speedup]))
    return jobs, m


@st.composite
def medium_monotone_instances(draw, max_jobs=25, max_m=24):
    m = draw(st.integers(min_value=2, max_value=max_m))
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(n):
        t1 = float(rng.uniform(0.5, 100.0))
        speedup = random_monotone_speedup(m, rng)
        jobs.append(TabulatedJob(f"j{i}", [t1 / s for s in speedup]))
    return jobs, m


class TestFeasibilityProperties:
    @given(medium_monotone_instances(), st.sampled_from(["two_approx", "mrt", "compressible", "bounded"]))
    @settings(max_examples=40, deadline=None)
    def test_all_algorithms_feasible(self, instance, algorithm):
        jobs, m = instance
        result = schedule_moldable(jobs, m, 0.3, algorithm=algorithm, validate=False)
        report = validate_schedule(result.schedule, jobs)
        assert report.ok, report.violations
        simulate_schedule(result.schedule)

    @given(medium_monotone_instances())
    @settings(max_examples=25, deadline=None)
    def test_fptas_feasible_when_applicable(self, instance):
        jobs, m = instance
        eps = 0.5
        big_m = max(m, int(8 * len(jobs) / eps) + 1)
        result = fptas_schedule(jobs, big_m, eps)
        report = validate_schedule(result.schedule, jobs)
        assert report.ok, report.violations


class TestGuaranteeProperties:
    @given(tiny_monotone_instances(), st.sampled_from(["mrt", "compressible", "bounded"]))
    @settings(max_examples=30, deadline=None)
    def test_three_halves_guarantee_vs_exact(self, instance, algorithm):
        jobs, m = instance
        eps = 0.3
        opt = exact_makespan(jobs, m)
        result = schedule_moldable(jobs, m, eps, algorithm=algorithm, validate=False)
        assert result.makespan <= (1.5 + eps) * opt * (1 + 1e-6)

    @given(tiny_monotone_instances())
    @settings(max_examples=30, deadline=None)
    def test_two_approx_guarantee_vs_exact(self, instance):
        jobs, m = instance
        opt = exact_makespan(jobs, m)
        result = schedule_moldable(jobs, m, algorithm="two_approx", validate=False)
        assert result.makespan <= 2.0 * opt * (1 + 1e-6)


class TestDualCompleteness:
    @given(tiny_monotone_instances(), st.floats(min_value=1.0, max_value=2.0))
    @settings(max_examples=30, deadline=None)
    def test_mrt_dual_accepts_feasible_targets(self, instance, factor):
        jobs, m = instance
        opt = exact_makespan(jobs, m)
        schedule = mrt_dual(jobs, m, opt * factor)
        assert schedule is not None
        assert schedule.makespan <= 1.5 * opt * factor * (1 + 1e-9)

    @given(tiny_monotone_instances(), st.floats(min_value=1.0, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_compressible_dual_accepts_feasible_targets(self, instance, factor):
        jobs, m = instance
        eps = 0.3
        opt = exact_makespan(jobs, m)
        schedule = compressible_dual(jobs, m, opt * factor, eps)
        assert schedule is not None
        assert schedule.makespan <= (1.5 + eps) * opt * factor * (1 + 1e-9)

    @given(tiny_monotone_instances(), st.floats(min_value=1.0, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_bounded_dual_accepts_feasible_targets(self, instance, factor):
        jobs, m = instance
        eps = 0.3
        opt = exact_makespan(jobs, m)
        schedule = bounded_dual(jobs, m, opt * factor, eps)
        assert schedule is not None
        assert schedule.makespan <= (1.5 + eps) * opt * factor * (1 + 1e-9)
