"""OnlineScheduler: epoch policies, release safety, warm starts, regret."""

import math

import pytest

from repro.core.bounds import makespan_lower_bound, release_aware_lower_bound
from repro.core.job import TabulatedJob
from repro.core.validation import validate_schedule
from repro.online import Arrival, OnlineScheduler, EPOCH_POLICIES
from repro.workloads.generators import random_arrivals_instance, random_mixed_instance


def constant_job(name: str, duration: float) -> TabulatedJob:
    return TabulatedJob(name, [duration])


def entry_tuples(schedule):
    return [(e.job.name, e.start, tuple(e.spans)) for e in schedule.entries]


@pytest.fixture(scope="module")
def arrivals_instance():
    return random_arrivals_instance(24, 32, seed=11)


class TestConstruction:
    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError, match="unknown epoch policy"):
            OnlineScheduler(4, policy="nope")

    def test_quantum_policy_needs_quantum(self):
        with pytest.raises(ValueError, match="quantum"):
            OnlineScheduler(4, policy="quantum")
        with pytest.raises(ValueError, match="quantum"):
            OnlineScheduler(4, policy="immediate", quantum=2.0)

    def test_count_policy_needs_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            OnlineScheduler(4, policy="count")
        with pytest.raises(ValueError, match="batch_size"):
            OnlineScheduler(4, policy="immediate", batch_size=3)

    def test_rejects_negative_release(self):
        with pytest.raises(ValueError, match="finite and >= 0"):
            Arrival(constant_job("a", 1.0), -1.0)

    def test_rejects_duplicate_job_object(self):
        job = constant_job("a", 1.0)
        with pytest.raises(ValueError, match="submitted twice"):
            OnlineScheduler(4).run([(job, 0.0), (job, 1.0)])


class TestEpochPolicies:
    def test_immediate_one_epoch_per_distinct_release(self):
        jobs = [constant_job(f"j{i}", 2.0) for i in range(4)]
        releases = [0.0, 0.0, 1.5, 3.0]
        result = OnlineScheduler(8, policy="immediate").run(list(zip(jobs, releases)))
        assert [e.time for e in result.report.epochs] == [0.0, 1.5, 3.0]
        assert [e.arrivals for e in result.report.epochs] == [2, 1, 1]

    def test_quantum_defers_to_the_next_tick(self):
        jobs = [constant_job(f"j{i}", 2.0) for i in range(4)]
        releases = [0.0, 0.4, 1.1, 1.9]
        result = OnlineScheduler(8, policy="quantum", quantum=1.0).run(list(zip(jobs, releases)))
        # 0.0 stays at tick 0; 0.4 -> 1.0; 1.1 and 1.9 -> 2.0
        assert [e.time for e in result.report.epochs] == [0.0, 1.0, 2.0]
        assert [e.arrivals for e in result.report.epochs] == [1, 1, 2]
        # deferred dispatch still respects releases (starts >= release)
        starts = {e.job.name: e.start for e in result.schedule.entries}
        for job, release in zip(jobs, releases):
            assert starts[job.name] >= release - 1e-9

    def test_count_batches_fire_at_the_last_release(self):
        jobs = [constant_job(f"j{i}", 2.0) for i in range(5)]
        releases = [0.0, 1.0, 2.0, 3.0, 4.0]
        result = OnlineScheduler(8, policy="count", batch_size=2).run(list(zip(jobs, releases)))
        assert [e.time for e in result.report.epochs] == [1.0, 3.0, 4.0]
        assert [e.arrivals for e in result.report.epochs] == [2, 2, 1]

    def test_unsorted_submission_order_is_normalised(self):
        jobs = [constant_job(f"j{i}", 2.0) for i in range(3)]
        releases = [4.0, 0.0, 2.0]
        result = OnlineScheduler(8).run(list(zip(jobs, releases)))
        assert [a.release for a in result.arrivals] == [0.0, 2.0, 4.0]

    def test_policies_are_exported(self):
        assert EPOCH_POLICIES == ("immediate", "quantum", "count")


class TestScheduleQuality:
    def test_validator_clean_and_release_respecting(self, arrivals_instance):
        inst = arrivals_instance
        result = OnlineScheduler(inst.m, eps=0.25).run(inst.arrivals)
        assert validate_schedule(result.schedule, inst.jobs).ok
        release_of = dict(zip((j.name for j in inst.jobs), inst.releases))
        for entry in result.schedule.entries:
            assert entry.start >= release_of[entry.job.name] - 1e-9

    def test_makespan_at_least_the_release_aware_lower_bound(self, arrivals_instance):
        inst = arrivals_instance
        result = OnlineScheduler(inst.m, eps=0.25).run(inst.arrivals)
        assert result.report.lower_bound <= result.makespan + 1e-9
        assert result.report.ratio_vs_lower_bound >= 1.0 - 1e-12

    def test_all_releases_zero_matches_offline_plan(self):
        inst = random_mixed_instance(12, 16, seed=3)
        result = OnlineScheduler(16, eps=0.25, algorithm="bounded").run(
            [(j, 0.0) for j in inst.jobs]
        )
        # one epoch at t=0, nothing to regret beyond the solve itself
        assert len(result.report.epochs) == 1
        assert result.makespan == result.report.offline_makespan
        assert result.report.regret == 0.0

    def test_empty_stream(self):
        result = OnlineScheduler(8).run([])
        assert result.makespan == 0.0
        assert result.report.epochs == []
        assert result.report.regret == 0.0

    def test_single_machine_serialises_behind_releases(self):
        a, b = constant_job("a", 5.0), constant_job("b", 5.0)
        result = OnlineScheduler(1).run([(a, 0.0), (b, 5.0)])
        starts = {e.job.name: e.start for e in result.schedule.entries}
        assert starts == {"a": 0.0, "b": 5.0}
        assert result.makespan == 10.0


class TestWarmStart:
    @pytest.mark.parametrize("policy,kwargs", [
        ("immediate", {}),
        ("quantum", {"quantum": 25.0}),
        ("count", {"batch_size": 5}),
    ])
    def test_warm_and_cold_are_bit_identical(self, arrivals_instance, policy, kwargs):
        inst = arrivals_instance
        warm = OnlineScheduler(
            inst.m, eps=0.25, algorithm="two_approx", backend="vectorized",
            policy=policy, **kwargs,
        ).run(inst.arrivals)
        cold = OnlineScheduler(
            inst.m, eps=0.25, algorithm="two_approx", backend="vectorized",
            policy=policy, warm_start=False, **kwargs,
        ).run(inst.arrivals)
        assert warm.makespan == cold.makespan
        assert entry_tuples(warm.schedule) == entry_tuples(cold.schedule)
        # the whole point: warm re-plans probe strictly less
        assert warm.report.gamma_probes < cold.report.gamma_probes

    def test_scalar_backend_matches_vectorized(self, arrivals_instance):
        inst = arrivals_instance
        vec = OnlineScheduler(
            inst.m, eps=0.25, algorithm="two_approx", backend="vectorized"
        ).run(inst.arrivals)
        scal = OnlineScheduler(
            inst.m, eps=0.25, algorithm="two_approx", backend="scalar"
        ).run(inst.arrivals)
        assert entry_tuples(vec.schedule) == entry_tuples(scal.schedule)
        assert scal.report.gamma_probes is None

    def test_vectorized_bounded_epochs_count_their_probes(self):
        """The default algorithm's epochs run on the executor the re-plan
        builds, so their probes reach the report."""
        inst = random_arrivals_instance(80, 64, seed=1)
        result = OnlineScheduler(64, backend="vectorized").run(inst.arrivals)
        # only the epochs that solved name a driver and a backend; the rest
        # were superseded by the next epoch before their barrier
        solved = [e for e in result.report.epochs if e.replanned]
        assert solved and result.report.replans == len(solved)
        assert {e.replan_algorithm for e in solved} == {"bounded"}
        assert {e.replan_backend for e in solved} == {"vectorized"}
        assert all(
            e.replan_algorithm is None and e.replan_backend is None
            for e in result.report.epochs
            if not e.replanned
        )
        assert result.report.gamma_probes > 0


class TestRegretReport:
    def test_summary_lines_mention_everything(self, arrivals_instance):
        inst = arrivals_instance
        result = OnlineScheduler(inst.m, eps=0.25, backend="vectorized").run(inst.arrivals)
        text = "\n".join(result.report.summary_lines())
        assert "online makespan" in text
        assert "clairvoyant makespan" in text
        assert "release-aware LB" in text
        assert "re-plans" in text
        assert "gamma probes" in text

    def test_lower_bound_is_the_release_aware_one(self, arrivals_instance):
        inst = arrivals_instance
        result = OnlineScheduler(inst.m, eps=0.25).run(inst.arrivals)
        expected = release_aware_lower_bound(
            inst.jobs, inst.releases, inst.m,
            base=makespan_lower_bound(inst.jobs, inst.m),
        )
        assert result.report.lower_bound == expected
        # releases push the bound strictly above the offline one here
        assert expected > makespan_lower_bound(inst.jobs, inst.m) or math.isclose(
            expected, makespan_lower_bound(inst.jobs, inst.m)
        )

    def test_epoch_records_are_consistent(self, arrivals_instance):
        inst = arrivals_instance
        result = OnlineScheduler(inst.m, eps=0.25, policy="count", batch_size=6).run(
            inst.arrivals
        )
        assert sum(e.arrivals for e in result.report.epochs) == inst.n
        times = [e.time for e in result.report.epochs]
        assert times == sorted(times)
        for epoch in result.report.epochs:
            assert epoch.barrier >= epoch.time
