"""Tests for Garey–Graham list scheduling with fixed allotments."""

import pytest

from repro.core.allotment import Allotment, canonical_allotment
from repro.core.job import TabulatedJob
from repro.core.list_scheduling import list_schedule, list_schedule_bound
from repro.core.validation import assert_valid_schedule
from repro.workloads.generators import random_mixed_instance

from reference_list_scheduling import reference_list_schedule

#: the library scheduler and the heap reference share their input checks
SCHEDULERS = [list_schedule, reference_list_schedule]


def make_rigid(name, duration, size, m):
    """A job that takes `duration` on any processor count (size fixed via allotment)."""
    return TabulatedJob(name, [duration] * m)


class TestListSchedule:
    def test_single_job_uses_requested_processors(self):
        m = 4
        job = make_rigid("a", 5.0, 2, m)
        allot = Allotment({job: 2})
        schedule = list_schedule([job], allot, m)
        entry = schedule.entry_for(job)
        assert entry.processors == 2
        assert entry.start == 0.0

    def test_sequentialises_when_not_enough_machines(self):
        m = 2
        a = make_rigid("a", 5.0, 2, m)
        b = make_rigid("b", 3.0, 2, m)
        allot = Allotment({a: 2, b: 2})
        schedule = list_schedule([a, b], allot, m)
        assert schedule.entry_for(b).start == pytest.approx(5.0)
        assert schedule.makespan == pytest.approx(8.0)

    def test_parallel_when_machines_available(self):
        m = 4
        a = make_rigid("a", 5.0, 2, m)
        b = make_rigid("b", 3.0, 2, m)
        allot = Allotment({a: 2, b: 2})
        schedule = list_schedule([a, b], allot, m)
        assert schedule.entry_for(b).start == 0.0
        assert schedule.makespan == pytest.approx(5.0)

    def test_order_matters(self):
        m = 2
        a = make_rigid("a", 10.0, 1, m)
        b = make_rigid("b", 1.0, 2, m)
        allot = Allotment({a: 1, b: 2})
        forward = list_schedule([a, b], allot, m, order=[a, b])
        backward = list_schedule([a, b], allot, m, order=[b, a])
        assert forward.makespan == pytest.approx(11.0)
        assert backward.makespan == pytest.approx(11.0)
        assert forward.entry_for(b).start == pytest.approx(10.0)
        assert backward.entry_for(b).start == pytest.approx(0.0)

    def test_garey_graham_bound(self):
        """makespan <= 2 * max(W/m, T_max) on random instances."""
        for seed in range(5):
            instance = random_mixed_instance(30, 16, seed=seed)
            allot = canonical_allotment(instance.jobs, 1e9, 16)
            assert allot is not None
            schedule = list_schedule(instance.jobs, allot, 16)
            assert_valid_schedule(schedule, instance.jobs)
            assert schedule.makespan <= list_schedule_bound(allot, 16) * (1 + 1e-9)

    def test_schedules_are_feasible(self):
        instance = random_mixed_instance(40, 8, seed=9)
        allot = canonical_allotment(instance.jobs, 1e9, 8)
        schedule = list_schedule(instance.jobs, allot, 8)
        assert_valid_schedule(schedule, instance.jobs)

    def test_missing_allotment_rejected(self):
        m = 2
        a = make_rigid("a", 1.0, 1, m)
        b = make_rigid("b", 1.0, 1, m)
        with pytest.raises(ValueError):
            list_schedule([a, b], Allotment({a: 1}), m)

    def test_oversized_allotment_rejected(self):
        m = 2
        a = make_rigid("a", 1.0, 1, m)
        with pytest.raises(ValueError):
            list_schedule([a], Allotment({a: 3}), m)

    def test_order_must_be_permutation(self):
        m = 2
        a = make_rigid("a", 1.0, 1, m)
        b = make_rigid("b", 1.0, 1, m)
        with pytest.raises(ValueError):
            list_schedule([a, b], Allotment({a: 1, b: 1}), m, order=[a])

    @pytest.mark.parametrize("schedule_fn", SCHEDULERS)
    def test_repeated_job_rejected(self, schedule_fn):
        """A job object listed twice is rejected up front, not scheduled
        twice."""
        m = 2
        a = make_rigid("a", 1.0, 1, m)
        b = make_rigid("b", 1.0, 1, m)
        allot = Allotment({a: 1, b: 1})
        with pytest.raises(ValueError, match="repeat"):
            schedule_fn([a, a, b], allot, m)
        with pytest.raises(ValueError, match="repeat"):
            schedule_fn([a, a, b], allot, m, order=[a, b, b])

    @pytest.mark.parametrize("schedule_fn", SCHEDULERS)
    def test_order_must_be_the_same_multiset(self, schedule_fn):
        """Same length and same set of objects is not enough: ``order`` may
        not swap one job for a second copy of another."""
        m = 2
        a = make_rigid("a", 1.0, 1, m)
        b = make_rigid("b", 1.0, 1, m)
        c = make_rigid("c", 1.0, 1, m)
        allot = Allotment({a: 1, b: 1, c: 1})
        for order in ([a, b, b], [a, b], [a, b, c, c], [a, b, make_rigid("c", 1.0, 1, m)]):
            with pytest.raises(ValueError, match="permutation"):
                schedule_fn([a, b, c], allot, m, order=order)
        schedule = schedule_fn([a, b, c], allot, m, order=[c, a, b])
        assert [e.job for e in schedule.entries] == [c, a, b]

    def test_invalid_m(self):
        a = make_rigid("a", 1.0, 1, 1)
        with pytest.raises(ValueError):
            list_schedule([a], Allotment({a: 1}), 0)

    def test_empty_jobs(self):
        schedule = list_schedule([], Allotment({}), 4)
        assert schedule.makespan == 0.0


class TestColumnarListScheduling:
    """The event-queue scheduler must be bit-identical to the scalar loop."""

    def test_columnar_matches_scalar_on_random_instances(self):
        from repro.workloads.generators import random_bimodal_instance, random_mixed_instance

        for generator, seed in [
            (random_mixed_instance, 1),
            (random_mixed_instance, 9),
            (random_bimodal_instance, 4),
        ]:
            instance = generator(80, 96, seed=seed)
            allotment = Allotment({job: (i % 7) + 1 for i, job in enumerate(instance.jobs)})
            scalar = reference_list_schedule(instance.jobs, allotment, 96)
            columnar = list_schedule(instance.jobs, allotment, 96)
            assert len(scalar.entries) == len(columnar.entries)
            for a, b in zip(scalar.entries, columnar.entries):
                assert a.job is b.job and a.start == b.start and a.spans == b.spans
            assert scalar.makespan == columnar.makespan

    def test_columnar_validates_allotment_like_scalar(self):
        job = TabulatedJob("j", [5.0, 3.0])
        with pytest.raises(ValueError):
            list_schedule([job], Allotment({}), 4)

    def test_columnar_empty(self):
        schedule = list_schedule([], Allotment({}), 4)
        assert len(schedule) == 0

    def test_durations_are_aligned_with_the_order(self):
        """``durations`` follows ``order`` position by position: handing over
        the allotted times in that order reproduces the schedule computed
        from ``processing_time``; a wrong length is rejected."""
        instance = random_mixed_instance(40, 64, seed=3)
        jobs = instance.jobs
        allotment = Allotment({job: (i % 5) + 1 for i, job in enumerate(jobs)})
        order = sorted(jobs, key=lambda j: -j.processing_time(allotment[j]))
        durations = [job.processing_time(allotment[job]) for job in order]
        given = list_schedule(jobs, allotment, 64, order=order, durations=durations)
        computed = list_schedule(jobs, allotment, 64, order=order)
        for a, b in zip(given.entries, computed.entries):
            assert a.job is b.job and a.start == b.start and a.spans == b.spans
        assert given.makespan == computed.makespan
        with pytest.raises(ValueError, match="durations"):
            list_schedule(jobs, allotment, 64, order=order, durations=durations[:-1])
