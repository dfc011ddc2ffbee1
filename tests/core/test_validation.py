"""Tests for schedule validation and job monotony checks."""

import pytest

from reference_validation import reference_validate

from repro.core.job import RigidJob, TabulatedJob
from repro.core.schedule import Schedule
from repro.core.validation import (
    BAD_SPAN,
    CONFLICT,
    MAKESPAN_EXCEEDED,
    MISSING_JOB,
    ValidationError,
    assert_valid_schedule,
    check_monotone_job,
    is_monotone_work,
    is_nonincreasing_time,
    placement_violations,
    validate_schedule,
)


def make_job(name="j", times=(10.0, 6.0, 4.0)):
    return TabulatedJob(name, list(times))


class TestValidateSchedule:
    def test_valid_schedule_passes(self):
        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=3)
        schedule.add(a, 0.0, [(0, 2)])
        schedule.add(b, 0.0, [(2, 1)])
        report = validate_schedule(schedule, [a, b])
        assert report.ok
        assert report.violations == []

    def test_machine_conflict_detected(self):
        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=3)
        schedule.add(a, 0.0, [(0, 2)])
        schedule.add(b, 1.0, [(1, 1)])  # overlaps machine 1 while a still runs
        report = validate_schedule(schedule, [a, b])
        assert not report.ok
        assert any("conflict" in v for v in report.violations)

    def test_sequential_use_of_same_machine_ok(self):
        a, b = make_job("a", (5.0,)), make_job("b", (5.0,))
        schedule = Schedule(m=1)
        schedule.add(a, 0.0, [(0, 1)])
        schedule.add(b, 5.0, [(0, 1)])
        assert validate_schedule(schedule, [a, b]).ok

    def test_missing_job_detected(self):
        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=2)
        schedule.add(a, 0.0, [(0, 1)])
        report = validate_schedule(schedule, [a, b])
        assert not report.ok
        assert any("missing" in v for v in report.violations)

    def test_duplicate_job_detected(self):
        a = make_job("a")
        schedule = Schedule(m=2)
        schedule.add(a, 0.0, [(0, 1)])
        schedule.add(a, 20.0, [(0, 1)])
        report = validate_schedule(schedule, [a])
        assert not report.ok
        assert any("scheduled 2 times" in v for v in report.violations)

    def test_foreign_job_detected(self):
        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=2)
        schedule.add(a, 0.0, [(0, 1)])
        schedule.add(b, 0.0, [(1, 1)])
        report = validate_schedule(schedule, [a])
        assert not report.ok
        assert any("not part of the instance" in v for v in report.violations)

    def test_span_out_of_range_detected(self):
        a = make_job("a")
        schedule = Schedule(m=2)
        schedule.add(a, 0.0, [(1, 2)])  # machines 1,2 but m=2 -> machine 2 invalid
        report = validate_schedule(schedule, [a])
        assert not report.ok
        assert any("exceeds machine count" in v for v in report.violations)

    def test_understated_duration_detected(self):
        a = make_job("a")
        schedule = Schedule(m=2)
        schedule.add(a, 0.0, [(0, 1)], duration_override=1.0)  # true time is 10
        report = validate_schedule(schedule, [a])
        assert not report.ok
        assert any("understates" in v for v in report.violations)

    def test_overstated_duration_allowed(self):
        a = make_job("a")
        schedule = Schedule(m=2)
        schedule.add(a, 0.0, [(0, 1)], duration_override=50.0)
        assert validate_schedule(schedule, [a]).ok

    def test_makespan_bound(self):
        a = make_job("a")
        schedule = Schedule(m=1)
        schedule.add(a, 0.0, [(0, 1)])
        assert validate_schedule(schedule, [a], max_makespan=10.0).ok
        assert not validate_schedule(schedule, [a], max_makespan=9.0).ok

    def test_assert_valid_raises(self):
        a = make_job("a")
        schedule = Schedule(m=1)
        with pytest.raises(ValidationError):
            assert_valid_schedule(schedule, [a])

    def test_report_metrics(self):
        a = make_job("a")
        schedule = Schedule(m=4)
        schedule.add(a, 0.0, [(0, 3)])
        report = validate_schedule(schedule, [a])
        assert report.makespan == pytest.approx(4.0)
        assert report.peak_processors == 3

    def test_conflict_on_huge_machine_counts(self):
        """Conflict detection works span-wise, not per machine."""
        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=10 ** 9)
        schedule.add(a, 0.0, [(0, 10 ** 8)])
        schedule.add(b, 1.0, [(10 ** 7, 10 ** 8)])
        report = validate_schedule(schedule, [a, b])
        assert not report.ok

    def test_conflict_hidden_behind_sub_tolerance_job(self):
        """A job shorter than the float tolerance between two overlapping
        ones must not hide their conflict: ``a`` and ``c`` share machine 0
        for 0.5 time units, and neither is start-adjacent to the other."""
        a = TabulatedJob("a", [3.0])
        b = TabulatedJob("b", [1e-10])
        c = TabulatedJob("c", [0.5])
        schedule = Schedule(m=1)
        schedule.add(a, 2.0, [(0, 1)])
        schedule.add(b, 4.0, [(0, 1)])
        schedule.add(c, 4.0000000001, [(0, 1)])
        report = validate_schedule(schedule, [a, b, c])
        assert not report.ok
        assert report.codes == [CONFLICT]
        assert "job 'a'" in report.violations[0] and "job 'c'" in report.violations[0]
        assert report.violations == reference_validate(schedule, [a, b, c]).violations

    def test_hidden_conflict_reported_alongside_the_adjacent_one(self):
        """``a`` overlaps both later jobs; ``b`` and ``c`` are start-adjacent
        and disjoint, so the ``a``/``c`` pair comes from the longest-running
        earlier entry."""
        a, b, c = TabulatedJob("a", [10.0]), TabulatedJob("b", [1.0]), TabulatedJob("c", [1.0])
        schedule = Schedule(m=1)
        schedule.add(a, 0.0, [(0, 1)])
        schedule.add(b, 1.0, [(0, 1)])
        schedule.add(c, 3.0, [(0, 1)])
        report = validate_schedule(schedule, [a, b, c])
        assert report.codes == [CONFLICT, CONFLICT]
        assert "job 'b'" in report.violations[0] and "job 'c'" in report.violations[1]
        assert report.violations == reference_validate(schedule, [a, b, c]).violations

    def test_empty_schedule_still_checks_jobs_and_bound(self):
        a = make_job("a")
        report = validate_schedule(Schedule(m=2), [a], max_makespan=-1.0)
        assert report.codes == [MISSING_JOB, MAKESPAN_EXCEEDED]
        assert (report.makespan, report.peak_processors) == (0.0, 0)
        assert report == reference_validate(Schedule(m=2), [a], max_makespan=-1.0)
        assert validate_schedule(Schedule(m=2), max_makespan=0.0).ok

    def test_peak_counts_a_sub_tolerance_job_as_touching(self):
        """A 1e-10 job and a 1.0 job start together on machine 0: the verdict
        treats them as touching, so the reported peak is 1, as the
        simulator's release rule counts it."""
        from repro.simulator.engine import simulate_schedule

        a, b = TabulatedJob("a", [1e-10]), TabulatedJob("b", [1.0])
        schedule = Schedule(m=1)
        schedule.add(a, 1.0, [(0, 1)])
        schedule.add(b, 1.0, [(0, 1)])
        report = validate_schedule(schedule, [a, b])
        assert (report.ok, report.peak_processors) == (True, 1)
        assert simulate_schedule(schedule).peak_busy == 1
        assert report == reference_validate(schedule, [a, b])

    @pytest.mark.parametrize("order", ["long_first", "nested"])
    def test_a_sub_tolerance_job_holds_no_machine(self, order):
        """Listed after a job that covers its start, a 1e-10 job is never
        released early, but it touches every job: it holds no machine under
        the verdict, so a clean report stays within m."""
        a, b = TabulatedJob("a", [1e-10]), TabulatedJob("b", [3.0])
        schedule = Schedule(m=1)
        schedule.add(b, 1.0 if order == "long_first" else 0.0, [(0, 1)])
        schedule.add(a, 1.0, [(0, 1)])
        report = validate_schedule(schedule, [a, b])
        assert (report.ok, report.peak_processors) == (True, 1)
        assert report == reference_validate(schedule, [a, b])

    def test_disjoint_spans_no_conflict(self):
        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=10 ** 9)
        schedule.add(a, 0.0, [(0, 10 ** 8)])
        schedule.add(b, 0.0, [(2 * 10 ** 8, 10 ** 8)])
        assert validate_schedule(schedule, [a, b]).ok


class TestMonotonyChecks:
    def test_monotone_job_passes(self):
        job = TabulatedJob("good", [10.0, 6.0, 4.5, 4.0])
        assert is_nonincreasing_time(job, 4)
        assert is_monotone_work(job, 4)
        check_monotone_job(job, 4)

    def test_increasing_time_detected(self):
        job = TabulatedJob("bad", [10.0, 11.0])
        assert not is_nonincreasing_time(job, 2)
        with pytest.raises(ValueError):
            check_monotone_job(job, 2)

    def test_decreasing_work_detected(self):
        # t(2) = 4 -> work 8 < work(1) = 10: super-linear speedup, not monotone
        job = TabulatedJob("bad", [10.0, 4.0])
        assert is_nonincreasing_time(job, 2)
        assert not is_monotone_work(job, 2)
        with pytest.raises(ValueError):
            check_monotone_job(job, 2)

    def test_rigid_job_not_monotone(self):
        job = RigidJob("r", duration=3.0, size=3)
        assert not is_monotone_work(job, 6)


class TestColumnarValidationParity:
    """The columnar checks must produce reports identical to the
    entry-by-entry reference (``reference_validation.py``) — including
    violation messages."""

    def _both(self, schedule, jobs, **kwargs):
        fast = validate_schedule(schedule, jobs, **kwargs)
        slow = reference_validate(schedule, jobs, **kwargs)
        assert fast.ok == slow.ok
        assert fast.violations == slow.violations
        assert fast.makespan == slow.makespan
        assert fast.peak_processors == slow.peak_processors
        return fast

    def test_parity_on_valid_schedule(self):
        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=3)
        schedule.add(a, 0.0, [(0, 2)])
        schedule.add(b, 0.0, [(2, 1)])
        assert self._both(schedule, [a, b]).ok

    def test_parity_on_conflict(self):
        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=3)
        schedule.add(a, 0.0, [(0, 2)])
        schedule.add(b, 1.0, [(1, 1)])
        assert not self._both(schedule, [a, b]).ok

    def test_parity_on_bounds_and_makespan(self):
        a = make_job("a")
        schedule = Schedule(m=2)
        schedule.add(a, 0.0, [(1, 2)])
        report = self._both(schedule, [a], max_makespan=1.0)
        assert any("exceeds machine count" in v for v in report.violations)
        assert any("exceeds bound" in v for v in report.violations)

    def test_parity_with_oracle_durations(self):
        from repro.perf.oracle import BatchedOracle

        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=4)
        schedule.add(a, 0.0, [(0, 2)])
        schedule.add(b, 0.0, [(2, 2)], duration_override=11.0)
        oracle = BatchedOracle([a, b], 4)
        fast = validate_schedule(schedule, [a, b], oracle=oracle)
        slow = reference_validate(schedule, [a, b])
        assert fast.ok == slow.ok
        assert fast.makespan == slow.makespan
        assert fast.peak_processors == slow.peak_processors


class TestPlacementViolations:
    """The bounds and conflict checks the validator and the simulator share."""

    def test_clean_schedule_materialises_no_entry(self):
        from repro.perf.schedule_builder import ArraySchedule

        builder = ArraySchedule(4)
        for i in range(4):
            builder.append(make_job(f"j{i}"), 0.0, [(i, 1)])
        schedule = builder.build()
        assert placement_violations(schedule, schedule.columns()) == ([], [])
        assert all(view is None for view in schedule._views)

    def test_bounds_and_conflicts_come_apart(self):
        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=2)
        schedule.add(a, 0.0, [(1, 2)])  # machine 2 does not exist
        schedule.add(b, 1.0, [(0, 2)])  # shares machine 1 with a
        bounds, conflicts = placement_violations(schedule, schedule.columns())
        assert [v.code for v in bounds] == [BAD_SPAN]
        assert [v.code for v in conflicts] == [CONFLICT]
        report = validate_schedule(schedule, [a, b])
        assert report.violations == bounds + conflicts

    def test_the_simulator_raises_the_first_violation(self):
        from repro.simulator.engine import SimulationError, simulate_schedule

        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=3)
        schedule.add(a, 0.0, [(0, 2)])
        schedule.add(b, 1.0, [(1, 1)])
        _, conflicts = placement_violations(schedule, schedule.columns())
        with pytest.raises(SimulationError) as info:
            simulate_schedule(schedule)
        assert str(info.value) == conflicts[0]
