"""Tests for the exact branch-and-bound solver for tiny instances."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bounds import trivial_lower_bound
from repro.core.exact_small import exact_driver, exact_makespan, exact_schedule, exact_solver_applicable
from repro.core.job import TabulatedJob
from repro.core.scheduler import schedule_moldable
from repro.core.validation import assert_valid_schedule
from repro.workloads.generators import random_mixed_instance, random_monotone_tabulated_instance
from repro.workloads.speedup_models import random_monotone_speedup

from reference_exact import reference_exact_schedule


class TestApplicability:
    def test_limits(self):
        assert exact_solver_applicable(5, 4)
        assert not exact_solver_applicable(20, 4)
        assert not exact_solver_applicable(4, 100)
        assert not exact_solver_applicable(0, 4)

    @pytest.mark.parametrize("n, m", [(8, 4), (12, 4), (3, 9)])
    def test_too_large_raises(self, n, m):
        jobs = [TabulatedJob(f"j{i}", [1.0]) for i in range(n)]
        with pytest.raises(ValueError, match="only handles tiny instances"):
            exact_schedule(jobs, m)


class TestExactOptimum:
    def test_empty(self):
        schedule = exact_schedule([], 4)
        assert schedule.makespan == 0.0

    def test_single_job_uses_all_machines(self):
        job = TabulatedJob("j", [10.0, 6.0, 4.0])
        assert exact_makespan([job], 3) == pytest.approx(4.0)

    def test_two_sequential_jobs_two_machines(self):
        jobs = [TabulatedJob("a", [5.0]), TabulatedJob("b", [7.0])]
        assert exact_makespan(jobs, 2) == pytest.approx(7.0)

    def test_two_sequential_jobs_one_machine(self):
        jobs = [TabulatedJob("a", [5.0]), TabulatedJob("b", [7.0])]
        assert exact_makespan(jobs, 1) == pytest.approx(12.0)

    def test_known_tradeoff_instance(self):
        """Two moldable jobs on 2 machines: run both sequentially in parallel
        (makespan 8) rather than both wide one after the other (6+6=12)."""
        a = TabulatedJob("a", [8.0, 6.0])
        b = TabulatedJob("b", [8.0, 6.0])
        assert exact_makespan([a, b], 2) == pytest.approx(8.0)

    def test_wide_job_preferred_when_beneficial(self):
        """A single dominant job should be parallelised."""
        a = TabulatedJob("a", [12.0, 6.5, 4.5])
        b = TabulatedJob("b", [2.0])
        c = TabulatedJob("c", [2.0])
        # best: a on all 3 machines (4.5), then b and c in parallel (2) -> 6.5
        # alternative: a on 2 (6.5) with b,c stacked on third (4) -> 6.5
        assert exact_makespan([a, b, c], 3) == pytest.approx(6.5)

    def test_perfect_packing_found(self):
        """Four unit jobs on two machines pack perfectly."""
        jobs = [TabulatedJob(f"j{i}", [1.0]) for i in range(4)]
        assert exact_makespan(jobs, 2) == pytest.approx(2.0)

    def test_schedule_is_valid_and_matches_reported_makespan(self):
        for seed in range(4):
            instance = random_monotone_tabulated_instance(5, 3, seed=seed)
            schedule = exact_schedule(instance.jobs, 3)
            assert_valid_schedule(schedule, instance.jobs)

    def test_never_below_lower_bound(self):
        for seed in range(4):
            instance = random_monotone_tabulated_instance(4, 4, seed=seed + 10)
            opt = exact_makespan(instance.jobs, 4)
            assert opt >= trivial_lower_bound(instance.jobs, 4) * (1 - 1e-9)

    def test_monotone_in_machine_count(self):
        """More machines never increase the optimal makespan."""
        for seed in range(3):
            instance = random_monotone_tabulated_instance(4, 4, seed=seed + 20)
            opt2 = exact_makespan(instance.jobs, 2)
            opt4 = exact_makespan(instance.jobs, 4)
            assert opt4 <= opt2 * (1 + 1e-9)

    def test_non_monotone_job_takes_its_fastest_allotment(self):
        """Two machines are slower than one; three are fastest."""
        job = TabulatedJob("j", [3.0, 5.0, 1.0, 4.0])
        assert exact_makespan([job], 4) == 1.0

    #: makespans of the former backfilling solver (the tests' reference) on
    #: random_mixed_instance(6, 8, seed), which takes it 7-19 s each
    REFERENCE_6_BY_8 = {1: 96.90783271210947, 4: 159.29624349393987}

    @pytest.mark.parametrize("seed", sorted(REFERENCE_6_BY_8))
    def test_six_jobs_on_eight_machines_match_the_reference(self, seed):
        jobs = random_mixed_instance(6, 8, seed=seed).jobs
        schedule = exact_schedule(jobs, 8)
        assert schedule.makespan == self.REFERENCE_6_BY_8[seed]
        assert_valid_schedule(schedule, jobs)


class TestStrictOrder:
    """The placement rule and the pruning rules, seen in the schedules."""

    def test_starts_never_decrease_in_placement_order(self):
        for seed in range(4):
            jobs = random_mixed_instance(5, 4, seed=seed).jobs
            starts = [entry.start for entry in exact_schedule(jobs, 4).entries]
            assert starts == sorted(starts)

    def test_equal_starts_are_placed_in_index_order(self):
        jobs = [TabulatedJob(f"j{i}", [6.0, 4.0, 3.5, 3.0]) for i in range(4)]
        schedule = exact_schedule(jobs, 4)
        order = [(entry.start, int(entry.job.name[1:])) for entry in schedule.entries]
        assert order == [(0.0, i) for i in range(4)]
        assert schedule.makespan == 6.0

    def test_dominated_allotments_are_never_chosen(self):
        """No job runs on k machines when fewer run it no slower."""
        tables = [[2.0, 2.0, 1.0], [1.0, 3.0, 1.0], [4.0, 1.5, 1.5], [1.0, 1.0, 1.0]]
        jobs = [TabulatedJob(f"j{i}", table) for i, table in enumerate(tables)]
        schedule = exact_schedule(jobs, 3)
        for entry in schedule.entries:
            k = entry.processors
            assert all(entry.job.processing_time(k) < entry.job.processing_time(narrower) for narrower in range(1, k))
        assert_valid_schedule(schedule, jobs)


class TestExactDriver:
    def test_label_guarantee_and_bounds(self):
        jobs = random_monotone_tabulated_instance(4, 4, seed=4).jobs
        result = exact_driver(jobs, 4, label="ptas_exact")
        metadata = result.schedule.metadata
        assert (metadata["algorithm"], metadata["guarantee"], metadata["backend"]) == ("ptas_exact", 1.0, "scalar")
        assert result.accepted_d == result.lower_bound == result.schedule.makespan == exact_makespan(jobs, 4)

    @pytest.mark.parametrize("n, m", [(8, 4), (3, 9)])
    def test_facade_raises_the_solver_size_error(self, n, m):
        jobs = [TabulatedJob(f"j{i}", [1.0] * m) for i in range(n)]
        with pytest.raises(ValueError, match="only handles tiny instances"):
            schedule_moldable(jobs, m, algorithm="exact")


@st.composite
def tiny_instances(draw):
    """``(jobs, m)`` with n <= 5 and m <= 8: monotone tables, identical jobs
    (ties everywhere) or non-monotone tables from a small value grid.

    Identical jobs stop at n = 4: the reference tries allotment vectors in
    lexicographic order, and five identical linear jobs on seven machines
    have their only optimum (all seven machines each) last, which takes it
    about 25 s; ``test_identical_linear_jobs_fill_every_machine`` covers it."""
    m = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(["monotone", "identical", "non_monotone"]))
    n = draw(st.integers(min_value=1, max_value=4 if kind == "identical" else 5))
    if kind == "monotone":
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10 ** 6)))
        tables = [
            [t1 / s for s in random_monotone_speedup(m, rng)]
            for t1 in rng.uniform(1.0, 50.0, size=n)
        ]
    elif kind == "identical":
        t1 = draw(st.sampled_from([1.0, 2.5, 7.0]))
        tables = [[t1 / k for k in range(1, m + 1)]] * n
    else:
        grid = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])
        tables = [draw(st.lists(grid, min_size=m, max_size=m)) for _ in range(n)]
    return [TabulatedJob(f"j{i}", table) for i, table in enumerate(tables)], m


class TestAgainstReference:
    """The strict-order search against the backfilling search it replaced."""

    @given(tiny_instances())
    @settings(max_examples=60, deadline=None)
    def test_makespans_equal_and_schedules_valid(self, instance):
        jobs, m = instance
        schedule = exact_schedule(jobs, m)
        assert schedule.makespan == reference_exact_schedule(jobs, m).makespan
        assert_valid_schedule(schedule, jobs)

    def test_identical_linear_jobs_fill_every_machine(self):
        jobs = [TabulatedJob(f"j{i}", [1.0 / k for k in range(1, 8)]) for i in range(5)]
        schedule = exact_schedule(jobs, 7)
        assert schedule.makespan == pytest.approx(5 / 7, rel=1e-12)
        assert_valid_schedule(schedule, jobs)

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 8), (5, 1), (4, 2)])
    def test_edge_sizes(self, n, m):
        jobs = random_mixed_instance(n, m, seed=n * 10 + m).jobs
        schedule = exact_schedule(jobs, m)
        assert schedule.makespan == reference_exact_schedule(jobs, m).makespan
        assert_valid_schedule(schedule, jobs)
