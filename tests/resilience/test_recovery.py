"""Recovery loop: stitched schedules, degradation accounting, warm starts."""

import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.bounds import trivial_lower_bound
from repro.core.schedule import MAX_COLUMNAR_M
from repro.core.validation import validate_schedule
from repro.resilience import (
    FaultPlan,
    JobKill,
    MachineFailure,
    RecoveryError,
    random_fault_plan,
    recover_with_faults,
)
from repro.resilience.executor import spans_hit
from repro.workloads.generators import random_mixed_instance

from .test_executor import constant_job

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "simulator"))
from reference_sim import reference_simulate  # noqa: E402


def _no_entry_runs_on_down_machines(schedule, plan):
    """Every stitched entry's run window must avoid every failure's down
    window on the machines it occupies."""
    for entry in schedule.entries:
        for f in plan.failures:
            if spans_hit(entry.spans, f):
                assert not (
                    f.time < entry.end - 1e-9 and f.down_until > entry.start + 1e-9
                ), (entry.job.name, entry.start, entry.end, f)


class TestRecoveryDeterministic:
    def test_empty_plan_reproduces_fault_free_schedule(self):
        inst = random_mixed_instance(12, 16, seed=3)
        res = recover_with_faults(inst.jobs, 16, FaultPlan(m=16), eps=0.25, algorithm="bounded")
        assert res.makespan == res.fault_free.schedule.makespan
        assert res.report.replans == 0
        assert res.report.makespan_regret == 0.0
        assert not res.killed and not res.lost

    def test_permanent_failure_replans_on_survivors(self):
        a, b, c = (constant_job(x, 10.0) for x in "ABC")
        # m=2: the fault-free plan runs jobs with some parallelism; machine 0
        # dies at t=5 and everything left must finish on machine 1
        plan = FaultPlan(m=2, failures=(MachineFailure(time=5.0, first=0, count=1),))
        res = recover_with_faults([a, b, c], 2, plan, eps=0.25, algorithm="two_approx")
        v = validate_schedule(res.schedule, [a, b, c])
        assert v.ok, v.violations
        _no_entry_runs_on_down_machines(res.schedule, plan)
        assert res.report.machines_lost == 1
        assert res.report.replans >= 1
        assert res.report.makespan_regret >= 0.0

    def test_kill_removes_job_from_stitched_schedule(self):
        inst = random_mixed_instance(10, 8, seed=4)
        victim = inst.jobs[0].name
        plan = FaultPlan(m=8, kills=(JobKill(time=0.0, job=victim),))
        res = recover_with_faults(inst.jobs, 8, plan, eps=0.25, algorithm="bounded")
        assert res.killed == [victim]
        names = [e.job.name for e in res.schedule.entries]
        assert victim not in names
        assert sorted(names) == sorted(j.name for j in inst.jobs if j.name != victim)
        assert validate_schedule(res.schedule, res.survivors).ok

    def test_transient_failure_machines_get_reused_after_repair(self):
        jobs = [constant_job(f"j{i}", 10.0) for i in range(6)]
        plan = FaultPlan(
            m=4, failures=(MachineFailure(time=1.0, first=1, count=3, repair_time=5.0),)
        )
        res = recover_with_faults(jobs, 4, plan, eps=0.25, algorithm="two_approx")
        assert validate_schedule(res.schedule, jobs).ok
        _no_entry_runs_on_down_machines(res.schedule, plan)
        # two epochs: the failure and the repair; both re-plan
        assert res.report.replans == 2
        # after the repair some entry runs on a repaired machine again
        assert any(
            entry.start >= 6.0 and any(first < 4 and first + c > 1 for first, c in entry.spans)
            for entry in res.schedule.entries
        )

    def test_mismatched_plan_m_rejected(self):
        inst = random_mixed_instance(4, 8, seed=1)
        with pytest.raises(ValueError, match="m="):
            recover_with_faults(inst.jobs, 16, FaultPlan(m=8))

    def test_unknown_kill_rejected(self):
        inst = random_mixed_instance(4, 8, seed=1)
        plan = FaultPlan(m=8, kills=(JobKill(time=1.0, job="nope"),))
        with pytest.raises(ValueError, match="unknown job"):
            recover_with_faults(inst.jobs, 8, plan)

    def test_all_machines_down_raises_recovery_error(self):
        jobs = [constant_job("a", 10.0)]
        plan = FaultPlan(m=2, failures=(MachineFailure(time=1.0, first=0, count=2),))
        with pytest.raises(RecoveryError, match="no machines"):
            recover_with_faults(jobs, 2, plan, algorithm="two_approx")

    def test_warm_and_cold_replans_are_bit_identical(self):
        inst = random_mixed_instance(20, 32, seed=9)
        names = [j.name for j in inst.jobs]
        horizon = 1.5 * trivial_lower_bound(inst.jobs, 32)
        plan = random_fault_plan(names, 32, seed=17, failures=3, kills=1, horizon=horizon)
        warm = recover_with_faults(
            inst.jobs, 32, plan, eps=0.25, algorithm="two_approx", backend="vectorized"
        )
        cold = recover_with_faults(
            inst.jobs, 32, plan, eps=0.25, algorithm="two_approx", backend="vectorized",
            warm_start=False,
        )
        assert warm.makespan == cold.makespan
        assert warm.report.replans == cold.report.replans
        assert [e.start for e in warm.schedule.entries] == [e.start for e in cold.schedule.entries]
        assert [e.spans for e in warm.schedule.entries] == [e.spans for e in cold.schedule.entries]
        # the whole point: warm re-plans probe strictly less
        assert warm.report.gamma_probes < cold.report.gamma_probes

    def test_fptas_falls_back_when_survivor_count_leaves_regime(self):
        # fptas needs m >= 8n/eps; keep it valid fault-free, then kill enough
        # machines that the regime breaks and the loop must fall back
        inst = random_mixed_instance(3, 512, seed=2)
        plan = FaultPlan(m=512, failures=(MachineFailure(time=0.5, first=16, count=496),))
        res = recover_with_faults(inst.jobs, 512, plan, eps=0.5, algorithm="fptas")
        assert validate_schedule(res.schedule, inst.jobs).ok
        assert any(e.replan_algorithm == "bounded" for e in res.report.epochs)

    def test_astronomical_machine_counts(self):
        # compact-encoding regime: m far beyond the columnar/vectorized caps;
        # the whole loop (interval arithmetic, remapping, scalar drivers)
        # must stay exact on python ints
        m = MAX_COLUMNAR_M + 1000
        inst = random_mixed_instance(4, 64, seed=5)
        plan = FaultPlan(m=m, failures=(MachineFailure(time=1.0, first=0, count=m - 7),))
        res = recover_with_faults(inst.jobs, m, plan, eps=0.5, algorithm="two_approx")
        assert validate_schedule(res.schedule, inst.jobs).ok
        _no_entry_runs_on_down_machines(res.schedule, plan)
        # post-failure entries live on the 7 surviving machines [m-7, m)
        late = [e for e in res.schedule.entries if e.start >= 1.0]
        assert late, "the failure must force at least one re-planned entry"
        for e in late:
            assert all(first >= m - 7 for first, _ in e.spans)

    def test_degradation_report_summary_lines(self):
        inst = random_mixed_instance(8, 8, seed=6)
        names = [j.name for j in inst.jobs]
        horizon = 1.5 * trivial_lower_bound(inst.jobs, 8)
        plan = random_fault_plan(names, 8, seed=1, failures=2, kills=1, horizon=horizon)
        res = recover_with_faults(inst.jobs, 8, plan, eps=0.25)
        lines = res.report.summary_lines()
        assert any("recovered makespan" in line for line in lines)
        assert any("re-plans" in line for line in lines)


class TestRecoveryEndToEndProperty:
    """The ISSUE acceptance property: every fuzzed (instance, FaultPlan)
    yields a stitched schedule that validates on the surviving machines and
    completes every non-killed job exactly once."""

    @given(
        n=st.integers(min_value=1, max_value=12),
        m=st.sampled_from([1, 2, 4, 8, 24, 64]),
        eps=st.sampled_from([0.1, 0.25, 0.5]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        algorithm=st.sampled_from(["two_approx", "bounded", "auto"]),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_recovery_end_to_end(self, n, m, eps, seed, algorithm):
        inst = random_mixed_instance(n, m, seed=seed)
        names = [j.name for j in inst.jobs]
        horizon = 1.5 * trivial_lower_bound(inst.jobs, m)
        plan = random_fault_plan(names, m, seed=seed ^ 0x5EED, horizon=max(horizon, 1.0))
        res = recover_with_faults(inst.jobs, m, plan, eps=eps, algorithm=algorithm)

        survivors = [j for j in inst.jobs if j.name not in set(res.killed)]
        verdict = validate_schedule(res.schedule, survivors)
        assert verdict.ok, verdict.violations
        # exactly-once completion for every non-killed job
        scheduled = sorted(e.job.name for e in res.schedule.entries)
        assert scheduled == sorted(j.name for j in survivors)
        # nothing ever runs on a down machine
        _no_entry_runs_on_down_machines(res.schedule, plan)
        # the reference event loop accepts the stitched schedule
        trace = reference_simulate(res.schedule)
        assert trace.makespan == res.schedule.makespan
        # degradation accounting is internally consistent
        assert res.report.jobs_killed == len(res.killed)
        assert res.report.work_lost >= 0.0
        assert res.report.replans == len(res.report.replan_latencies)
