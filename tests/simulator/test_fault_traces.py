"""Simulator parity with the reference event loop on fault-truncated traces.

The fault executor's :meth:`FaultyExecution.trace_schedule` produces the
mid-run-stop / partial-work trace shape: entries whose ``duration_override``
*understates* the oracle processing time (a validator violation by design —
the run genuinely stopped early).  The discrete-event simulator must replay
these identically to the reference event loop (``reference_sim.py``), and
must keep raising :class:`SimulationError` for genuinely invalid traces,
also past ``m = 2^62``.
"""

import pytest

from repro.core.schedule import MAX_COLUMNAR_M, Schedule
from repro.core.scheduler import schedule_moldable
from repro.core.bounds import trivial_lower_bound
from repro.resilience import (
    FaultPlan,
    MachineFailure,
    execute_with_faults,
    random_fault_plan,
    recover_with_faults,
)
from repro.simulator.engine import SimulationError, simulate_schedule
from repro.workloads.generators import random_mixed_instance

from reference_sim import reference_simulate


def assert_matches_reference(schedule):
    trace = simulate_schedule(schedule)
    reference = reference_simulate(schedule)
    assert trace.makespan == reference.makespan
    assert trace.total_work == reference.total_work
    assert trace.events == reference.events
    assert trace.peak_busy == reference.peak_busy
    return trace


class TestTruncatedTraceParity:
    @pytest.mark.parametrize("seed", [0, 1, 7, 23])
    def test_executor_traces_replay_identically(self, seed):
        inst = random_mixed_instance(20, 16, seed=seed)
        schedule = schedule_moldable(inst.jobs, 16, 0.25, algorithm="bounded").schedule
        horizon = 1.5 * trivial_lower_bound(inst.jobs, 16)
        plan = random_fault_plan(
            [j.name for j in inst.jobs], 16, seed=seed + 100, failures=3, kills=1,
            horizon=horizon,
        )
        trace_schedule = execute_with_faults(schedule, plan).trace_schedule()
        assert_matches_reference(trace_schedule)

    def test_manual_partial_work_entry(self):
        inst = random_mixed_instance(6, 8, seed=3)
        schedule = schedule_moldable(inst.jobs, 8, 0.25, algorithm="two_approx").schedule
        # truncate the longest entry to a third of its duration
        victim = max(schedule.entries, key=lambda e: e.duration)
        clone = Schedule(m=8)
        for e in schedule.entries:
            override = e.duration / 3.0 if e is victim else e.duration_override
            clone.add(e.job, e.start, e.spans, duration_override=override)
        trace = assert_matches_reference(clone)
        assert trace.total_work < schedule.total_work

    def test_stitched_recovery_schedules_replay_identically(self):
        inst = random_mixed_instance(15, 16, seed=5)
        horizon = 1.5 * trivial_lower_bound(inst.jobs, 16)
        plan = random_fault_plan(
            [j.name for j in inst.jobs], 16, seed=42, failures=2, kills=1, horizon=horizon
        )
        res = recover_with_faults(inst.jobs, 16, plan, eps=0.25, algorithm="two_approx")
        trace = assert_matches_reference(res.schedule)
        assert trace.makespan == res.makespan

    def test_overlapping_truncated_entries_still_raise(self):
        """Truncation must not mask genuine conflicts."""
        inst = random_mixed_instance(6, 8, seed=3)
        schedule = schedule_moldable(inst.jobs, 8, 0.25, algorithm="bounded").schedule
        entries = schedule.sorted_by_start()
        a, b = entries[0], entries[-1]
        clone = Schedule(m=8)
        for e in schedule.entries:
            if e is b:
                # same machines and start as `a`, truncated but overlapping
                clone.add(e.job, a.start, a.spans, duration_override=a.duration / 2.0)
            else:
                clone.add(e.job, e.start, e.spans, duration_override=e.duration_override)
        with pytest.raises(SimulationError):
            simulate_schedule(clone)
        with pytest.raises(SimulationError):
            reference_simulate(clone)

    def test_strict_false_keeps_going(self):
        j1, j2 = random_mixed_instance(2, 4, seed=1).jobs
        clone = Schedule(m=4)
        clone.add(j1, 0.0, [(0, 2)])
        clone.add(j2, 0.0, [(0, 2)])  # conflict
        trace = simulate_schedule(clone, strict=False)
        assert trace.makespan > 0.0


class TestAstronomicalMachineCounts:
    """Past m = 2^62 the schedule columns hold exact object-dtype machine
    indices; the replay must still match the reference loop there."""

    def test_simulator_falls_back_beyond_columnar_cap(self):
        m = MAX_COLUMNAR_M + 5
        inst = random_mixed_instance(4, 64, seed=11)
        schedule = schedule_moldable(inst.jobs, m, 0.5, algorithm="two_approx").schedule
        assert schedule.m > MAX_COLUMNAR_M
        assert_matches_reference(schedule)

    def test_truncated_trace_beyond_columnar_cap(self):
        m = MAX_COLUMNAR_M + 5
        inst = random_mixed_instance(4, 64, seed=11)
        schedule = schedule_moldable(inst.jobs, m, 0.5, algorithm="two_approx").schedule
        plan = FaultPlan(m=m, failures=(MachineFailure(time=0.5, first=0, count=m - 3),))
        trace_schedule = execute_with_faults(schedule, plan).trace_schedule()
        assert_matches_reference(trace_schedule)

    def test_recovery_beyond_columnar_cap_matches_small_m_shape(self):
        m = MAX_COLUMNAR_M + 5
        inst = random_mixed_instance(4, 64, seed=11)
        plan = FaultPlan(m=m, failures=(MachineFailure(time=0.5, first=0, count=m - 3),))
        res = recover_with_faults(inst.jobs, m, plan, eps=0.5, algorithm="two_approx")
        trace = assert_matches_reference(res.schedule)
        assert trace.makespan == res.makespan
