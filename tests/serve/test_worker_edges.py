"""Worker-death, mid-solve timeout, spawn pickling and journal-resume edges.

These are the failure modes the dispatcher must survive *deterministically*:
chaos is seeded and limited to the first attempt, so every test proves both
the failure and the recovery path.
"""

import json

import pytest

from repro import schedule_moldable
from repro.serve import (
    ChaosPolicy,
    FleetInstance,
    ServePolicy,
    schedule_many,
)
from repro.workloads.generators import (
    random_bimodal_instance,
    random_chain_instance,
    random_communication_instance,
    random_mixed_instance,
    random_power_work_instance,
    random_quantized_instance,
)


def _fleet(count, n=12, m=24, algorithm="two_approx", seed0=300):
    return [
        FleetInstance(
            name=f"edge-{i:02d}",
            jobs=random_mixed_instance(n, m, seed=seed0 + i).jobs,
            m=m,
            algorithm=algorithm,
        )
        for i in range(count)
    ]


class TestWorkerDeath:
    def test_sigkill_mid_solve_then_retry_succeeds(self):
        """Chaos SIGKILLs the worker inside the γ-bisection of attempt 0;
        the parent reaps the corpse, recycles the slot and attempt 1 (clean
        by construction) answers from one ladder rung further down."""
        instances = _fleet(2)
        chaos = ChaosPolicy(seed=2, kill_prob=1.0, attempts=1)
        policy = ServePolicy(timeout=60.0, max_retries=2, backoff_base=0.0)
        report = schedule_many(
            instances, policy=policy, chaos=chaos, max_workers=2, mp_context="fork"
        )
        assert report.complete and len(report.degraded) == 2
        for inst in instances:
            outcome = report.outcome(inst.name)
            assert [a.outcome for a in outcome.attempts] == ["worker-death", "ok"]
            assert outcome.ladder_step == 1
            # rung 1 differs only in backend, so the makespan is still
            # bit-identical to the solo run
            solo = schedule_moldable(inst.jobs, inst.m, inst.eps, algorithm=inst.algorithm)
            assert outcome.makespan == solo.makespan
            outcome.schedule(inst.jobs, validate=True)

    def test_timeout_during_gamma_bisection_then_retry(self):
        """Chaos hangs the worker *inside* the oracle's γ-array evaluation;
        the parent's deadline — not anything in the worker — must fire."""
        instances = _fleet(2, seed0=400)
        chaos = ChaosPolicy(seed=3, hang_prob=1.0, attempts=1, hang_seconds=30.0)
        policy = ServePolicy(timeout=1.0, max_retries=2, backoff_base=0.0)
        report = schedule_many(
            instances, policy=policy, chaos=chaos, max_workers=2, mp_context="fork"
        )
        assert report.complete and len(report.degraded) == 2
        for inst in instances:
            outcome = report.outcome(inst.name)
            assert [a.outcome for a in outcome.attempts] == ["timeout", "ok"]
            assert "deadline" in outcome.attempts[0].error
            solo = schedule_moldable(inst.jobs, inst.m, inst.eps, algorithm=inst.algorithm)
            assert outcome.makespan == solo.makespan


class TestSpawnPickling:
    def test_all_seven_families_cross_the_spawn_boundary(self):
        """Every workload family's job objects must pickle to a spawned
        worker (spawn shares nothing, unlike fork) and solve bit-identically
        to a solo run in this process."""
        m = 24
        fleet = [
            FleetInstance("mixed", random_mixed_instance(10, m, seed=1).jobs, m),
            FleetInstance("powerwork", random_power_work_instance(10, m, seed=2).jobs, m),
            FleetInstance("comm", random_communication_instance(10, m, seed=3).jobs, m),
            FleetInstance("bimodal", random_bimodal_instance(10, m, seed=4).jobs, m),
            FleetInstance(
                "tiny_n_huge_m", random_mixed_instance(6, 1 << 18, seed=5).jobs, 1 << 18
            ),
            FleetInstance("quantized", random_quantized_instance(10, m, seed=6).jobs, m),
            FleetInstance("chain", random_chain_instance(64, 8, seed=7).jobs, 8),
        ]
        report = schedule_many(
            fleet,
            policy=ServePolicy(timeout=120.0, backoff_base=0.0),
            max_workers=4,
            mp_context="spawn",
        )
        assert report.complete
        assert len(report.solved) == 7 and not report.degraded and not report.quarantined
        for inst in fleet:
            outcome = report.outcome(inst.name)
            solo = schedule_moldable(inst.jobs, inst.m, inst.eps, algorithm=inst.algorithm)
            assert outcome.makespan == solo.makespan, inst.name


class TestJournalResume:
    def test_interrupted_fleet_resumes_without_resolving(self, tmp_path):
        """Interrupt after N of 2N instances (simulated by journalling only
        the first half), resume the full fleet: the N decided instances come
        back from disk, the rest solve fresh, and the combined report equals
        an uninterrupted run modulo timings."""
        journal = tmp_path / "fleet.jsonl"
        policy = ServePolicy(timeout=60.0, backoff_base=0.0, seed=9)
        full = _fleet(6, seed0=500)

        first_half = schedule_many(
            full[:3], policy=policy, max_workers=2, mp_context="fork", journal=journal
        )
        assert len(first_half.solved) == 3
        lines_after_half = journal.read_text().count("\n")
        assert lines_after_half == 3

        resumed = schedule_many(
            full, policy=policy, max_workers=2, mp_context="fork", journal=journal
        )
        assert resumed.complete
        assert sorted(o.instance for o in resumed.resumed) == [
            "edge-00", "edge-01", "edge-02"
        ]
        # no instance solved twice: the journal grew only by the second half
        assert journal.read_text().count("\n") == 6

        uninterrupted = schedule_many(
            full, policy=policy, max_workers=2, mp_context="fork"
        )
        assert resumed.comparable_dict() == uninterrupted.comparable_dict()

    def test_resume_after_torn_journal_tail(self, tmp_path):
        """A parent killed mid-append leaves a truncated final line; resume
        drops exactly that instance's record and re-solves it."""
        journal = tmp_path / "fleet.jsonl"
        policy = ServePolicy(timeout=60.0, backoff_base=0.0, seed=9)
        fleet = _fleet(4, seed0=600)

        baseline = schedule_many(
            fleet, policy=policy, max_workers=2, mp_context="fork", journal=journal
        )
        assert len(baseline.solved) == 4

        # tear the final line mid-JSON, as a kill -9 during the append would
        text = journal.read_text()
        torn = text.rstrip("\n")[: len(text) - 40]
        journal.write_text(torn)
        torn_names = {
            json.loads(line)["instance"] for line in torn.splitlines()[:-1]
        }

        resumed = schedule_many(
            fleet, policy=policy, max_workers=2, mp_context="fork", journal=journal
        )
        assert resumed.complete
        resumed_names = {o.instance for o in resumed.resumed}
        assert resumed_names == torn_names  # the torn record was re-solved
        assert len(resumed_names) == 3
        assert resumed.comparable_dict() == baseline.comparable_dict()
        # the journal was healed: the re-solved outcome re-journalled
        healed = journal.read_text()
        assert healed.endswith("\n")
        assert healed.count("\n") == 4

    def test_no_journal_means_no_resume(self):
        fleet = _fleet(2, seed0=700)
        policy = ServePolicy(timeout=60.0, backoff_base=0.0)
        report = schedule_many(fleet, policy=policy, max_workers=1, mp_context="fork")
        assert not report.resumed


class TestDegradationLadderExhaustion:
    def test_persistent_raise_walks_the_whole_ladder(self):
        """Chaos raises on every attempt: the instance walks every rung and
        is quarantined with the final traceback once retries run out."""
        inst = _fleet(1, n=8, m=16, seed0=800)[0]
        chaos = ChaosPolicy(seed=4, raise_prob=1.0)
        policy = ServePolicy(timeout=60.0, max_retries=3, backoff_base=0.0)
        report = schedule_many(
            [inst], policy=policy, chaos=chaos, max_workers=1, mp_context="fork"
        )
        outcome = report.outcome(inst.name)
        assert outcome.status == "quarantined"
        assert [a.outcome for a in outcome.attempts] == ["raise"] * 4
        # one ladder rung per failed attempt, clamped at the last (the
        # three-rung default ladder: the fourth attempt stays on rung 2)
        assert [a.step for a in outcome.attempts] == [0, 1, 2, 2]
        assert "ChaosError" in outcome.error


class TestChaosOracleHandOff:
    """In-process ``solve_task``: a drawn ``raise`` fires inside the
    γ-bisection of every driver but ``exact`` on the vectorized rung."""

    @staticmethod
    def _task(algorithm, jobs, m):
        return {
            "name": "chaos",
            "attempt": 0,
            "step": {"backend": "vectorized", "algorithm": None},
            "jobs": jobs,
            "m": m,
            "eps": 0.1,
            "algorithm": algorithm,
        }

    @pytest.mark.parametrize("algorithm", ["two_approx", "mrt", "compressible", "bounded"])
    def test_raise_fires_mid_solve(self, algorithm):
        from repro.serve.worker import ChaosError, solve_task

        jobs = random_mixed_instance(12, 24, seed=5).jobs
        with pytest.raises(ChaosError) as info:
            solve_task(self._task(algorithm, jobs, 24), ChaosPolicy(raise_prob=1.0))
        assert any(entry.name == "gamma_array" for entry in info.traceback)

    def test_past_the_vectorized_boundary_the_raise_fires_after_the_solve(self):
        from repro import AmdahlJob
        from repro.serve.worker import ChaosError, solve_task

        jobs = [AmdahlJob(f"a{i}", 10.0 + i, 0.1) for i in range(4)]
        with pytest.raises(ChaosError) as info:
            solve_task(self._task("two_approx", jobs, 1 << 80), ChaosPolicy(raise_prob=1.0))
        assert not any(entry.name == "gamma_array" for entry in info.traceback)
