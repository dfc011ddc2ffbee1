"""Acceptance tests for the fault-isolated fleet scheduler.

The contract under test (the robustness tentpole):

* ``schedule_many`` **always** returns a complete :class:`FleetReport` —
  every instance lands in exactly one of solved / degraded / quarantined,
  and no per-instance failure ever raises out of the fleet;
* solved and degraded outcomes re-validate against the paper's validator;
* outcomes that never left the backend-only ladder rungs reproduce the solo
  ``schedule_moldable`` makespan **bit-identically**;
* quarantined outcomes carry the captured failure (kind + traceback).
"""

import pytest

from repro import schedule_moldable
from repro.core.job import OracleJob
from repro.serve import (
    ChaosPolicy,
    FleetInstance,
    FleetReport,
    ServePolicy,
    STATUSES,
    schedule_many,
)
from repro.workloads.generators import random_mixed_instance

FAST = ServePolicy(timeout=60.0, backoff_base=0.0, seed=5)


def _fleet(count, n=16, m=32, algorithm="two_approx", seed0=100):
    return [
        FleetInstance(
            name=f"inst-{i:02d}",
            jobs=random_mixed_instance(n, m, seed=seed0 + i).jobs,
            m=m,
            algorithm=algorithm,
        )
        for i in range(count)
    ]


class TestHealthyFleet:
    def test_bit_identical_to_solo_and_validator_clean(self):
        instances = _fleet(6)
        report = schedule_many(
            instances, policy=FAST, max_workers=3, mp_context="fork"
        )
        assert report.complete
        assert len(report.solved) == 6 and not report.degraded and not report.quarantined
        for inst in instances:
            outcome = report.outcome(inst.name)
            solo = schedule_moldable(inst.jobs, inst.m, inst.eps, algorithm=inst.algorithm)
            assert outcome.makespan == solo.makespan  # bit-identical
            assert outcome.lower_bound == solo.lower_bound
            # re-attach and re-validate the shipped schedule
            schedule = outcome.schedule(inst.jobs, validate=True)
            assert schedule.makespan == solo.makespan

    def test_report_iteration_and_lookup(self):
        report = schedule_many(_fleet(3), policy=FAST, max_workers=2, mp_context="fork")
        assert len(report) == 3
        assert {o.instance for o in report} == {"inst-00", "inst-01", "inst-02"}
        with pytest.raises(KeyError):
            report.outcome("no-such-instance")

    def test_report_round_trips_through_dict(self):
        report = schedule_many(_fleet(2), policy=FAST, max_workers=1, mp_context="fork")
        clone = FleetReport.from_dict(report.to_dict())
        assert clone.comparable_dict() == report.comparable_dict()
        assert clone.complete


class TestChaoticFleet:
    def test_twenty_percent_chaos_report_still_complete(self):
        """The acceptance gate: seeded 20% kill/hang/raise chaos, and the
        report still accounts for every instance with a valid status."""
        instances = _fleet(10)
        chaos = ChaosPolicy(
            seed=5, kill_prob=0.07, hang_prob=0.07, raise_prob=0.07, hang_seconds=30.0
        )
        policy = ServePolicy(timeout=5.0, max_retries=3, backoff_base=0.0, seed=5)
        report = schedule_many(
            instances, policy=policy, chaos=chaos, max_workers=4, mp_context="fork"
        )
        assert report.complete
        statuses = {o.instance: o.status for o in report.outcomes}
        assert set(statuses.values()) <= set(STATUSES)
        # exactly-one-status partition
        assert sorted(statuses) == sorted(i.name for i in instances)
        assert len(report.solved) + len(report.degraded) + len(report.quarantined) == 10
        # with 3 retries at 20% chaos nothing should exhaust its attempts
        assert not report.quarantined
        for inst in instances:
            outcome = report.outcome(inst.name)
            schedule = outcome.schedule(inst.jobs, validate=True)  # validator-clean
            assert outcome.guarantee >= 1.0
            assert outcome.makespan <= outcome.guarantee * outcome.lower_bound * (1 + 1e-9)
            assert schedule.makespan == outcome.makespan
            if not outcome.degraded:
                solo = schedule_moldable(
                    inst.jobs, inst.m, inst.eps, algorithm=inst.algorithm
                )
                assert outcome.makespan == solo.makespan
            else:
                # degradation is recorded: rung > 0 and a failed attempt trail
                assert outcome.ladder_step > 0
                assert any(a.outcome != "ok" for a in outcome.attempts)

    def test_all_kill_chaos_quarantines_with_traceback(self):
        instances = _fleet(3, n=8, m=16)
        chaos = ChaosPolicy(seed=1, kill_prob=1.0)
        policy = ServePolicy(timeout=30.0, max_retries=1, backoff_base=0.0)
        report = schedule_many(
            instances, policy=policy, chaos=chaos, max_workers=2, mp_context="fork"
        )
        assert report.complete
        assert len(report.quarantined) == 3
        for outcome in report.outcomes:
            assert outcome.status == "quarantined"
            assert outcome.makespan is None
            assert "died mid-solve" in outcome.error and "-9" in outcome.error
            # the full attempt trail is preserved
            assert [a.outcome for a in outcome.attempts] == ["worker-death"] * 2

    def test_chaos_statuses_reproducible(self):
        instances = _fleet(6, n=8, m=16)
        chaos = ChaosPolicy(seed=7, kill_prob=0.2, raise_prob=0.2)
        policy = ServePolicy(timeout=30.0, max_retries=2, backoff_base=0.0, seed=7)
        runs = [
            schedule_many(
                instances, policy=policy, chaos=chaos, max_workers=2, mp_context="fork"
            )
            for _ in range(2)
        ]
        assert runs[0].comparable_dict() == runs[1].comparable_dict()

    def test_respawned_worker_reports_only_its_own_traceback(self):
        """Seed 1 draws kill on attempt 0 and raise on attempt 1.  The worker
        that replaces the killed one must not report the parent's EOFError
        (from noticing the death) as the context of its own ChaosError."""
        chaos = ChaosPolicy(
            seed=1, kill_prob=0.5, raise_prob=0.5, mid_solve=False, attempts=2
        )
        policy = ServePolicy(timeout=30.0, max_retries=2, backoff_base=0.0)
        report = schedule_many(
            _fleet(1, n=8, m=16), policy=policy, chaos=chaos, max_workers=1, mp_context="fork"
        )
        attempts = report.outcome("inst-00").attempts
        assert [a.outcome for a in attempts[:2]] == ["worker-death", "raise"]
        assert "ChaosError" in attempts[1].error
        assert "_collect" not in attempts[1].error


class TestQuarantine:
    def test_unpicklable_instance_quarantined_not_raised(self):
        """Oracle jobs close over arbitrary callables; a lambda cannot cross
        the process boundary.  That is a deterministic serialization failure:
        immediate quarantine, no retries burned, siblings unaffected."""
        poison = FleetInstance(
            name="poison",
            jobs=[OracleJob("opaque", lambda k: 10.0 / k)],
            m=8,
            algorithm="two_approx",
        )
        healthy = _fleet(2, n=8, m=16)
        report = schedule_many(
            [poison] + healthy, policy=FAST, max_workers=2, mp_context="fork"
        )
        assert report.complete
        outcome = report.outcome("poison")
        assert outcome.status == "quarantined"
        assert outcome.attempts[0].outcome == "serialization"
        assert "pickle" in outcome.error
        assert len(outcome.attempts) == 1  # deterministic: no retry loop
        assert len(report.solved) == 2


class TestMegaPack:
    """``mega_batch_size > 1``: workers solve packs via the lockstep mega
    batch; journalled outcomes stay per-instance and bit-identical."""

    def test_pack_outcomes_identical_to_solo_fleet(self):
        instances = _fleet(10, n=6, m=16)
        solo = schedule_many(instances, policy=FAST, max_workers=2, mp_context="fork")
        packed = schedule_many(
            instances,
            policy=ServePolicy(timeout=60.0, backoff_base=0.0, seed=5, mega_batch_size=4),
            max_workers=2,
            mp_context="fork",
        )
        assert solo.complete and packed.complete
        assert {o.instance: o.comparable_dict() for o in packed} == {
            o.instance: o.comparable_dict() for o in solo
        }
        assert len(packed.solved) == 10

    def test_pack_of_one_and_mixed_algorithms(self):
        """A pack smaller than mega_batch_size (including a single leftover)
        and auto/fptas/two_approx members all reproduce solo results."""
        instances = _fleet(3, n=5, m=16, algorithm="two_approx")
        instances += [
            FleetInstance(
                name=f"auto-{i}",
                jobs=random_mixed_instance(4, 1 << 10, seed=300 + i).jobs,
                m=1 << 10,
                algorithm="auto",
            )
            for i in range(2)
        ]
        report = schedule_many(
            instances,
            policy=ServePolicy(timeout=60.0, backoff_base=0.0, mega_batch_size=4),
            max_workers=2,
            mp_context="fork",
        )
        assert report.complete and len(report.solved) == 5
        for inst in instances:
            solo = schedule_moldable(inst.jobs, inst.m, inst.eps, algorithm=inst.algorithm)
            outcome = report.outcome(inst.name)
            assert outcome.makespan == solo.makespan
            assert outcome.algorithm == solo.algorithm

    def test_chaotic_pack_members_recover_solo(self):
        """A chaos action drawn for any member fails the whole pack; every
        member then retries individually and recovers (attempts=1 limits the
        chaos to first attempts)."""
        instances = _fleet(8, n=5, m=16)
        chaos = ChaosPolicy(seed=7, raise_prob=0.6, attempts=1, mid_solve=False)
        report = schedule_many(
            instances,
            policy=ServePolicy(timeout=60.0, backoff_base=0.0, mega_batch_size=4),
            chaos=chaos,
            max_workers=2,
            mp_context="fork",
        )
        assert report.complete
        assert not report.quarantined
        # at least one pack was chaos-failed, so some instances retried solo
        assert report.degraded
        for outcome in report.degraded:
            assert outcome.attempts[0].outcome == "raise"
            assert outcome.attempts[-1].outcome == "ok"

    def test_pack_journal_resume_is_per_instance(self, tmp_path):
        instances = _fleet(6, n=5, m=16)
        policy = ServePolicy(timeout=60.0, backoff_base=0.0, mega_batch_size=3)
        journal = tmp_path / "j.jsonl"
        first = schedule_many(
            instances, policy=policy, max_workers=2, mp_context="fork", journal=journal
        )
        assert first.complete and not first.resumed
        second = schedule_many(
            instances, policy=policy, max_workers=2, mp_context="fork", journal=journal
        )
        assert second.complete
        assert len(second.resumed) == 6  # every pack member journalled solo
        assert second.comparable_dict() == first.comparable_dict()


class TestNormalization:
    def test_bare_job_lists_with_shared_m(self):
        batches = [random_mixed_instance(8, 16, seed=s).jobs for s in (1, 2)]
        report = schedule_many(
            batches, 16, algorithm="two_approx", policy=FAST,
            max_workers=2, mp_context="fork",
        )
        assert report.complete and len(report.solved) == 2
        assert report.instances == ["instance-0", "instance-1"]

    def test_bare_job_lists_without_m_rejected(self):
        with pytest.raises(ValueError):
            schedule_many([random_mixed_instance(8, 16, seed=1).jobs], policy=FAST)

    def test_workload_instances_accepted(self):
        report = schedule_many(
            [random_mixed_instance(8, 16, seed=1)],
            algorithm="two_approx", policy=FAST, max_workers=1, mp_context="fork",
        )
        assert report.complete and len(report.solved) == 1
        assert report.instances == ["mixed-0"]

    def test_duplicate_names_rejected(self):
        inst = _fleet(1)[0]
        with pytest.raises(ValueError):
            schedule_many([inst, inst], policy=FAST)

    def test_bad_mp_context_rejected_eagerly(self):
        with pytest.raises(ValueError):
            schedule_many(_fleet(1), policy=FAST, mp_context="no-such-context")
