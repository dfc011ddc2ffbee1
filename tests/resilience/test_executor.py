"""Fault-aware replay: fates, preserved work, truncated traces."""

import os
import sys

import pytest

from repro.core.job import AmdahlJob
from repro.core.schedule import Schedule
from repro.resilience import (
    FATE_CONTINUING,
    FATE_FINISHED,
    FATE_LOST,
    FaultPlan,
    JobKill,
    MachineFailure,
    execute_with_faults,
)
from repro.simulator.engine import simulate_schedule

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "simulator"))
from reference_sim import reference_simulate  # noqa: E402


def constant_job(name: str, t: float) -> AmdahlJob:
    """serial_fraction=1 makes t(k) == t for every k — fully predictable."""
    return AmdahlJob(name, t1=t, serial_fraction=1.0)


@pytest.fixture()
def abc_schedule():
    """A on machines 0-1 [0,10), B on 2-3 [0,10), C on 0-1 [10,20)."""
    a, b, c = (constant_job(x, 10.0) for x in "ABC")
    sched = Schedule(m=4)
    sched.add(a, 0.0, [(0, 2)])
    sched.add(b, 0.0, [(2, 2)])
    sched.add(c, 10.0, [(0, 2)])
    return sched


class TestReplay:
    def test_no_faults_everything_completes(self, abc_schedule):
        ex = execute_with_faults(abc_schedule, FaultPlan(m=4))
        assert len(ex.completed) == 3 and not ex.lost and not ex.killed
        assert ex.work_completed == abc_schedule.total_work
        assert ex.work_lost == 0.0
        assert ex.unfinished_jobs == []

    def test_failure_cuts_running_job_and_strands_queued_one(self, abc_schedule):
        plan = FaultPlan(m=4, failures=(MachineFailure(time=5.0, first=0, count=2),))
        ex = execute_with_faults(abc_schedule, plan)
        assert [e.job.name for e in ex.completed] == ["B"]
        by_name = {r.job_name: r for r in ex.lost}
        # A ran [0,5) on the failed machines: 2 procs * 5 time units lost
        assert by_name["A"].cut == 5.0 and by_name["A"].work_lost == 10.0
        assert by_name["A"].cause == "failure"
        # C was scheduled at t=10 on machines that are down forever: it
        # never launches, losing zero work
        assert by_name["C"].cut == 10.0 and by_name["C"].work_lost == 0.0
        assert sorted(ex.unfinished_jobs) == ["A", "C"]
        (epoch,) = ex.epochs
        assert epoch.time == 5.0
        assert epoch.fates == {"A": FATE_LOST, "B": FATE_CONTINUING, "C": FATE_LOST}
        assert epoch.available_after == 2

    def test_transient_failure_spares_later_jobs(self, abc_schedule):
        plan = FaultPlan(
            m=4, failures=(MachineFailure(time=2.0, first=0, count=2, repair_time=3.0),)
        )
        ex = execute_with_faults(abc_schedule, plan)
        # A dies at t=2; the machines are back at t=5, so C (start 10) runs
        assert sorted(e.job.name for e in ex.completed) == ["B", "C"]
        assert [r.job_name for r in ex.lost] == ["A"]
        assert ex.lost[0].cut == 2.0

    def test_kill_discards_partial_work(self, abc_schedule):
        plan = FaultPlan(m=4, kills=(JobKill(time=4.0, job="B"),))
        ex = execute_with_faults(abc_schedule, plan)
        assert ex.killed == ["B"]
        assert [r.job_name for r in ex.lost] == ["B"]
        assert ex.lost[0].cause == "kill" and ex.lost[0].work_lost == 8.0
        assert sorted(e.job.name for e in ex.completed) == ["A", "C"]
        assert ex.unfinished_jobs == []  # killed jobs don't need recovery

    def test_kill_after_completion_is_noop(self, abc_schedule):
        plan = FaultPlan(m=4, kills=(JobKill(time=12.0, job="B"),))
        ex = execute_with_faults(abc_schedule, plan)
        assert not ex.killed and not ex.lost
        assert len(ex.completed) == 3
        (epoch,) = ex.epochs
        assert epoch.fates["B"] == FATE_FINISHED

    def test_unknown_kill_target_rejected(self, abc_schedule):
        with pytest.raises(ValueError, match="unknown job"):
            execute_with_faults(abc_schedule, FaultPlan(m=4, kills=(JobKill(time=1.0, job="Z"),)))

    def test_plan_machine_count_must_match(self, abc_schedule):
        with pytest.raises(ValueError, match="m="):
            execute_with_faults(abc_schedule, FaultPlan(m=8))


class TestTraceSchedule:
    def test_trace_preserves_completed_and_truncates_lost(self, abc_schedule):
        plan = FaultPlan(m=4, failures=(MachineFailure(time=5.0, first=0, count=2),))
        trace = execute_with_faults(abc_schedule, plan).trace_schedule()
        by_name = {e.job.name: e for e in trace.entries}
        # C never launched: omitted entirely
        assert set(by_name) == {"A", "B"}
        assert by_name["A"].duration == 5.0  # truncated at the failure
        assert by_name["B"].duration == 10.0
        # the simulator replays the truncated trace like the reference loop
        t_auto = simulate_schedule(trace)
        t_scalar = reference_simulate(trace)
        assert t_auto.makespan == t_scalar.makespan == 10.0

    def test_completed_schedule_contains_only_finished_runs(self, abc_schedule):
        plan = FaultPlan(m=4, failures=(MachineFailure(time=5.0, first=0, count=2),))
        done = execute_with_faults(abc_schedule, plan).completed_schedule()
        assert [e.job.name for e in done.entries] == ["B"]
        assert done.makespan == 10.0
