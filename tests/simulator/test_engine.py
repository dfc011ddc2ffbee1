"""Tests for the discrete-event execution engine."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.job import TabulatedJob
from repro.core.schedule import Schedule
from repro.core.scheduler import schedule_moldable
from repro.core.validation import _first_start_within_tolerance
from repro.simulator.engine import (
    SimulationError,
    simulate_schedule,
)
from repro.workloads.generators import random_mixed_instance

from reference_sim import reference_simulate


def make_job(name="j", times=(10.0, 6.0, 4.0)):
    return TabulatedJob(name, list(times))


class TestSimulateSchedule:
    def test_empty_schedule(self):
        trace = simulate_schedule(Schedule(m=4))
        assert trace.makespan == 0.0
        assert trace.peak_busy == 0

    def test_simple_schedule(self):
        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=4)
        schedule.add(a, 0.0, [(0, 2)])
        schedule.add(b, 0.0, [(2, 2)])
        trace = simulate_schedule(schedule)
        assert trace.peak_busy == 4
        assert trace.events == 2
        assert trace.total_work == pytest.approx(2 * 2 * 6.0)

    def test_conflict_detected(self):
        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=4)
        schedule.add(a, 0.0, [(0, 2)])
        schedule.add(b, 1.0, [(1, 2)])
        with pytest.raises(SimulationError):
            simulate_schedule(schedule)

    def test_conflict_tolerated_when_not_strict(self):
        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=4)
        schedule.add(a, 0.0, [(0, 2)])
        schedule.add(b, 1.0, [(1, 2)])
        trace = simulate_schedule(schedule, strict=False)
        assert trace.peak_busy == 4

    def test_conflict_hidden_behind_sub_tolerance_job(self):
        """``a`` and ``c`` share machine 0 for 0.5 time units; the 1e-10 job
        ``b`` between them keeps the machine count within m."""
        a = make_job("a", (3.0,))
        b = make_job("b", (1e-10,))
        c = make_job("c", (0.5,))
        schedule = Schedule(m=2)
        schedule.add(a, 2.0, [(0, 1)])
        schedule.add(b, 4.0, [(0, 1)])
        schedule.add(c, 4.0000000001, [(0, 1)])
        with pytest.raises(SimulationError, match="job 'a'.*overlaps job 'c'"):
            simulate_schedule(schedule)
        with pytest.raises(SimulationError):
            reference_simulate(schedule)
        assert simulate_schedule(schedule, strict=False) == reference_simulate(
            schedule, strict=False
        )

    def test_out_of_range_span(self):
        a = make_job("a")
        schedule = Schedule(m=2)
        schedule.add(a, 0.0, [(1, 2)])
        with pytest.raises(SimulationError):
            simulate_schedule(schedule)

    def test_sequential_reuse_ok(self):
        a, b = make_job("a", (5.0,)), make_job("b", (5.0,))
        schedule = Schedule(m=1)
        schedule.add(a, 0.0, [(0, 1)])
        schedule.add(b, 5.0, [(0, 1)])
        trace = simulate_schedule(schedule)
        assert trace.makespan == pytest.approx(10.0)

    def test_utilization_profile(self):
        a = make_job("a", (10.0,))
        schedule = Schedule(m=2)
        schedule.add(a, 0.0, [(0, 1)])
        trace = simulate_schedule(schedule)
        assert trace.average_utilization(2) == pytest.approx(0.5)

    def test_agrees_with_validator_on_algorithm_output(self):
        """Schedules produced by the algorithms execute cleanly."""
        instance = random_mixed_instance(30, 24, seed=1)
        for algorithm in ("two_approx", "mrt", "bounded"):
            result = schedule_moldable(instance.jobs, 24, 0.25, algorithm=algorithm)
            trace = simulate_schedule(result.schedule)
            assert trace.makespan == pytest.approx(result.makespan)
            assert trace.peak_busy <= 24


class TestColumnarBackendParity:
    """The columnar replay must produce the trace of the reference event
    loop (``reference_sim.py``)."""

    def _traces(self, schedule):
        fast = simulate_schedule(schedule)
        slow = reference_simulate(schedule)
        return fast, slow

    def test_trace_parity_on_algorithm_schedules(self):
        from repro.core.mrt import mrt_schedule
        from repro.core.two_approx import two_approximation

        for seed in (1, 5):
            inst = random_mixed_instance(60, 480, seed=seed)
            for sched in (
                mrt_schedule(inst.jobs, 480, 0.1).schedule,
                two_approximation(inst.jobs, 480).schedule,
            ):
                fast, slow = self._traces(sched)
                assert fast.makespan == slow.makespan
                assert fast.total_work == slow.total_work
                assert fast.peak_busy == slow.peak_busy
                assert fast.events == slow.events
                assert fast.utilization_profile == slow.utilization_profile

    def test_conflicting_schedule_raises_for_both(self):
        a, b = make_job("a"), make_job("b")
        schedule = Schedule(m=4)
        schedule.add(a, 0.0, [(0, 2)])
        schedule.add(b, 1.0, [(1, 2)])
        with pytest.raises(SimulationError):
            simulate_schedule(schedule)
        with pytest.raises(SimulationError):
            reference_simulate(schedule)


class TestNearCoincidentEvents:
    """Float noise is replayed as the reference loop handles it: a job whose
    end lies within tolerance of a later start is released at that start,
    and profile points less than 1e-9 apart merge into the later one."""

    def _agree(self, schedule, strict=True):
        trace = simulate_schedule(schedule, strict=strict)
        assert trace == reference_simulate(schedule, strict=strict)
        return trace

    def test_sub_tolerance_job_released_at_next_start(self):
        b, c = make_job("b", (1e-10,)), make_job("c", (1.0,))
        schedule = Schedule(m=1)
        schedule.add(b, 1.0, [(0, 1)])
        schedule.add(c, 1.0, [(0, 1)])  # touches b within tolerance
        trace = self._agree(schedule)
        assert trace.peak_busy == 1
        # the starts at t=1 merge into b's finish event (now a no-op) 1e-10 later
        assert trace.utilization_profile == [(1.0 + 1e-10, 1), (2.0, 0)]

    def test_job_ending_at_its_start_holds_no_machine(self):
        a, b = make_job("a"), make_job("b", (1.0,))
        schedule = Schedule(m=2)
        schedule.add(a, 1.0, [(0, 1)], duration_override=0.0)
        schedule.add(b, 2.0, [(1, 1)])
        trace = self._agree(schedule)
        assert trace.utilization_profile == [(1.0, 0), (2.0, 1), (3.0, 0)]
        assert trace.peak_busy == 1
        alone = Schedule(m=2)
        alone.add(a, 1.0, [(0, 1)], duration_override=0.0)
        trace = self._agree(alone)
        assert trace.utilization_profile == [(1.0, 0)]
        assert trace.peak_busy == 0
        assert trace.average_utilization(2) == 0.0

    def test_profile_points_closer_than_tolerance_merge(self):
        a, b = make_job("a", (1.0,)), make_job("b", (1.0,))
        schedule = Schedule(m=2)
        schedule.add(a, 0.0, [(0, 1)])
        schedule.add(b, 1.0 + 5e-10, [(1, 1)])
        trace = self._agree(schedule)
        assert trace.utilization_profile == [(0.0, 1), (1.0 + 5e-10, 1), (2.0 + 5e-10, 0)]

    def test_family_sample_near_coincident_case(self):
        from repro.workloads.generators import random_communication_instance

        jobs = random_communication_instance(300, 2400, seed=2).jobs
        schedule = schedule_moldable(jobs, 2400, 0.1, algorithm="mrt").schedule
        trace = self._agree(schedule)
        # two pairs of distinct event times lie closer than 1e-9 and merge
        times = schedule.columns().event_sweep()[1]
        assert len(trace.utilization_profile) == len(np.unique(times)) - 2


class TestStrictVerdicts:
    """Strict mode rejects what the validator's bounds and conflict checks
    reject, with their messages, plus over-subscription."""

    def test_over_subscription_without_conflict(self):
        a, b = make_job("a", (3.0,)), make_job("b", (1e-10,))
        schedule = Schedule(m=1)
        schedule.add(a, 0.0, [(0, 1)])
        schedule.add(b, 1.0, [(0, 1)])  # too short to conflict, but busy
        message = "processor over-subscription at t=1: 2 busy machines but m=1"
        with pytest.raises(SimulationError, match=message):
            simulate_schedule(schedule)
        with pytest.raises(SimulationError, match=message):
            reference_simulate(schedule)
        trace = simulate_schedule(schedule, strict=False)
        assert trace == reference_simulate(schedule, strict=False)
        assert trace.peak_busy == 2

    def test_zero_length_record_inside_a_running_job_is_no_over_subscription(self):
        """A run recorded with duration 0 (a job killed at its start) on a
        machine another job holds takes no machine, so strict mode accepts
        the trace."""
        a, b = make_job("a", (2.0,)), make_job("b", (1.0,))
        schedule = Schedule(m=1)
        schedule.add(a, 0.0, [(0, 1)])
        schedule.add(b, 1.0, [(0, 1)], duration_override=0.0)
        trace = simulate_schedule(schedule)
        assert trace == reference_simulate(schedule)
        assert trace.peak_busy == 1
        assert trace.utilization_profile == [(0.0, 1), (1.0, 1), (2.0, 0)]

    def test_over_subscription_past_int64(self):
        m = 2**96
        a, b = make_job("a", (3.0,)), make_job("b", (1e-10,))
        schedule = Schedule(m=m)
        schedule.add(a, 0.0, [(0, m)])
        schedule.add(b, 1.0, [(0, 1)])
        with pytest.raises(SimulationError, match=f"{m + 1} busy machines"):
            simulate_schedule(schedule)
        trace = simulate_schedule(schedule, strict=False)
        assert trace == reference_simulate(schedule, strict=False)
        assert trace.peak_busy == m + 1

    def test_out_of_range_span_reports_the_validator_message(self):
        a = make_job("a")
        schedule = Schedule(m=2)
        schedule.add(a, 0.0, [(1, 2)])
        with pytest.raises(SimulationError, match=r"span \(1, 2\) exceeds machine count m=2"):
            simulate_schedule(schedule)
        assert simulate_schedule(schedule, strict=False) == reference_simulate(
            schedule, strict=False
        )

    def test_understated_duration_is_not_an_error(self):
        a = make_job("a")
        schedule = Schedule(m=2)
        schedule.add(a, 0.0, [(0, 1)], duration_override=1.0)  # true time is 10
        assert simulate_schedule(schedule) == reference_simulate(schedule)


class TestFirstStartWithinTolerance:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=4),
        st.lists(st.integers(min_value=-3, max_value=3), max_size=6),
        st.lists(st.sampled_from([0.0, 1.0, 1.0 + 1e-10, 5.0, 1e6]), max_size=4),
    )
    def test_matches_a_linear_scan(self, end, ulps, others):
        """The searchsorted answer equals the first start, scanning up, that
        the reference loop's release test accepts, also for starts a few
        ulps around the rounded threshold ``end - tol``."""
        end = np.array(end)
        threshold = float(end[0]) - (1e-9 + 1e-9 * max(1.0, float(end[0])))
        for u in ulps:
            value = threshold
            for _ in range(abs(u)):
                value = float(np.nextafter(value, np.copysign(np.inf, u)))
            others.append(value)
        starts = np.sort(np.array(others + [0.0]))

        def scan(e):
            for k, s in enumerate(starts.tolist()):
                if e - s <= 1e-9 + 1e-9 * max(1.0, abs(e), abs(s)):
                    return k
            return len(starts)

        got = _first_start_within_tolerance(starts, end)
        assert got.tolist() == [scan(e) for e in end.tolist()]
