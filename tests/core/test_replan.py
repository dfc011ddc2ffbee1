"""Unit tests for the shared incremental-replan core (repro.core.replan).

The barrier / partition / stitch edge cases the two clients (fault recovery,
online arrivals) depend on: empty pending sets, all-continuing epochs, an
epoch at time 0, arrivals tied exactly with a completion, and epochs whose
plan the next epoch supersedes before it starts.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_replan import every_epoch_online, every_epoch_recovery, placements
from repro.core.bounds import trivial_lower_bound
from repro.core.job import TabulatedJob
from repro.core.replan import (
    EPOCH_EPS,
    PlacedEntry,
    ReplanError,
    ReplanOutcome,
    ReplanState,
    availability_prefix,
    remap_spans,
    segment_algorithm,
)
from repro.core.fptas import fptas_machine_threshold
from repro.core.validation import validate_schedule
from repro.online import OnlineScheduler
from repro.resilience import random_fault_plan, recover_with_faults
from repro.workloads.generators import random_arrivals_instance, random_mixed_instance


def constant_job(name: str, duration: float) -> TabulatedJob:
    """A job taking ``duration`` on any processor count."""
    return TabulatedJob(name, [duration])


def placed(job, start, duration, spans=((0, 1),)):
    return PlacedEntry(
        job=job, start=start, spans=[tuple(s) for s in spans], duration=duration,
        duration_override=None,
    )


class TestCommitEpoch:
    def test_partition_with_exact_ties(self):
        a, b, c, d = (constant_job(x, 10.0) for x in "abcd")
        state = ReplanState(m=4)
        state.add_jobs([a, b, c, d])
        state.current = [
            placed(a, 0.0, 5.0, [(0, 1)]),   # ends exactly at tau -> finished
            placed(b, 0.0, 10.0, [(1, 1)]),  # straddles tau -> running
            placed(c, 5.0, 10.0, [(2, 1)]),  # starts exactly at tau -> queued
            placed(d, 7.0, 10.0, [(3, 1)]),  # starts after tau -> queued
        ]
        part = state.commit_epoch(5.0)
        assert [p.job.name for p in part.finished] == ["a"]
        assert [p.job.name for p in part.running] == ["b"]
        assert sorted(p.job.name for p in part.queued) == ["c", "d"]
        # finished jobs leave the pending pool; everyone else stays
        assert id(a) not in state.pending
        assert all(id(j) in state.pending for j in (b, c, d))
        assert [p.job.name for p in state.committed] == ["a"]

    def test_epoch_at_time_zero_with_nothing_placed(self):
        a = constant_job("a", 4.0)
        state = ReplanState(m=2)
        state.add_jobs([a])
        part = state.commit_epoch(0.0)
        assert part.finished == [] and part.running == [] and part.queued == []
        outcome = state.replan_pending(0.0, [], [(0, 2)])
        assert outcome.barrier == 0.0
        assert outcome.replanned == 1
        assert state.current[0].start == 0.0

    def test_empty_pending_set_is_a_no_op_replan(self):
        state = ReplanState(m=4)
        outcome = state.replan_pending(3.0, [], [(0, 4)])
        assert outcome.replanned == 0
        assert outcome.barrier == 3.0
        assert outcome.algorithm is None
        assert state.replan_latencies == []
        assert state.current == []

    def test_all_continuing_epoch_skips_the_solve(self):
        a, b = constant_job("a", 10.0), constant_job("b", 10.0)
        state = ReplanState(m=2)
        state.add_jobs([a, b])
        state.current = [placed(a, 0.0, 10.0, [(0, 1)]), placed(b, 0.0, 10.0, [(1, 1)])]
        part = state.commit_epoch(5.0)
        assert len(part.running) == 2
        outcome = state.replan_pending(5.0, part.running, [(0, 2)])
        # every pending job is draining: nothing to re-plan, barrier stays tau
        assert outcome.replanned == 0
        assert outcome.barrier == 5.0
        assert state.replan_latencies == []
        assert [p.job.name for p in state.current] == ["a", "b"]

    def test_barrier_is_latest_continuing_end(self):
        a, b, c = (constant_job(x, 6.0) for x in "abc")
        state = ReplanState(m=2)
        state.add_jobs([a, b, c])
        state.current = [placed(a, 0.0, 6.0, [(0, 1)]), placed(b, 2.0, 6.0, [(1, 1)])]
        part = state.commit_epoch(3.0)
        outcome = state.replan_pending(3.0, part.running, [(0, 2)])
        assert outcome.barrier == 8.0  # b ends at 2 + 6
        new = [p for p in state.current if p.job is c]
        assert new and new[0].start >= 8.0


class TestSupersededEpoch:
    """An epoch whose barrier lies past ``next_epoch + EPOCH_EPS`` is not
    solved: every entry of its plan would still be queued at the next
    epoch, which returns them all to the pool."""

    NEXT = 5.0
    BOUND = NEXT + EPOCH_EPS

    @staticmethod
    def draining(end, waiting=3.0):
        """Job ``a`` drains on machine 0 until ``end``; ``b`` waits."""
        a, b = constant_job("a", end), constant_job("b", waiting)
        state = ReplanState(m=2)
        state.add_jobs([a, b])
        state.current = [placed(a, 0.0, end, [(0, 1)])]
        return state, state.commit_epoch(1.0)

    def test_solves_only_up_to_the_bound(self, monkeypatch):
        import repro.core.replan as replan

        solved = []
        solve = replan.schedule_moldable

        def spy(*args, **kwargs):
            solved.append([j.name for j in args[0]])
            return solve(*args, **kwargs)

        monkeypatch.setattr(replan, "schedule_moldable", spy)
        state, part = self.draining(self.BOUND)
        outcome = state.replan_pending(1.0, part.running, [(0, 2)], self.NEXT)
        assert outcome.barrier == self.BOUND
        assert outcome.replanned == 1 and solved == [["b"]]

        past = math.nextafter(self.BOUND, math.inf)
        state, part = self.draining(past)
        sentinel = object()
        state.gamma_probes, state.prev_oracle = 7, sentinel
        outcome = state.replan_pending(1.0, part.running, [(0, 2)], self.NEXT)
        assert solved == [["b"]]
        assert outcome == ReplanOutcome(
            barrier=past, m_avail=2, replanned=0, latency=0.0, algorithm=None, backend=None
        )
        assert state.current == part.running
        assert state.replan_latencies == []
        assert state.gamma_probes == 7 and state.prev_oracle is sentinel

    def test_the_last_epoch_always_solves(self):
        state, part = self.draining(100.0)
        outcome = state.replan_pending(1.0, part.running, [(0, 2)], None)
        assert outcome.replanned == 1 and len(state.replan_latencies) == 1

    def test_next_epoch_sees_the_same_running_set_and_pool(self):
        def next_partition(next_epoch):
            state, part = self.draining(9.0)
            state.replan_pending(1.0, part.running, [(0, 2)], next_epoch)
            return state, state.commit_epoch(self.NEXT)

        def names(entries):
            return [(p.job.name, p.start, p.spans) for p in entries]

        skipped_state, skipped = next_partition(self.NEXT)
        solved_state, solved = next_partition(None)
        assert skipped.finished == solved.finished == []
        assert names(skipped.running) == names(solved.running) == [("a", 0.0, [(0, 1)])]
        assert skipped.queued == []
        assert [p.job.name for p in solved.queued] == ["b"]
        assert [j.name for j in skipped_state.pending.values()] == ["a", "b"]
        assert [j.name for j in solved_state.pending.values()] == ["a", "b"]

    def test_tiny_job_just_past_the_bound_never_finishes(self):
        """A job shorter than 2·EPOCH_EPS placed at a barrier one ulp past
        the bound still ends past it, so the solved plan reports it queued,
        never finished, and the skip loses nothing."""
        past = math.nextafter(self.BOUND, math.inf)

        def run(next_epoch):
            state, part = self.draining(past, waiting=1e-10)
            state.replan_pending(1.0, part.running, [(0, 2)], next_epoch)
            nxt = state.commit_epoch(self.NEXT)
            assert nxt.finished == []
            state.replan_pending(self.NEXT, nxt.running, [(0, 2)])
            state.finish()
            return state.stitch(), nxt

        skipped, skipped_part = run(self.NEXT)
        solved, solved_part = run(None)
        assert [p.job.name for p in solved_part.queued] == ["b"]
        assert skipped_part.queued == []
        assert placements(skipped) == placements(solved)


#: Epoch policies for the every-epoch comparison; ``quantum`` is scaled off
#: each instance's release span.
POLICIES = ("immediate", "quantum", "count")


class TestEveryEpochReference:
    """The clients' stitched schedules are bit-identical to re-solving
    every epoch, with no more solves."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 40),
        m=st.sampled_from([4, 16, 64]),
        policy=st.sampled_from(POLICIES),
        algorithm=st.sampled_from(["auto", "two_approx"]),
        backend=st.sampled_from(["scalar", "vectorized"]),
    )
    def test_online_matches_every_epoch_solves(self, seed, n, m, policy, algorithm, backend):
        inst = random_arrivals_instance(n, m, seed=seed)
        kwargs = {"policy": policy}
        if policy == "quantum":
            kwargs["quantum"] = (max(inst.releases) or 1.0) / 4
        elif policy == "count":
            kwargs["batch_size"] = 1 + seed % 4
        scheduler = OnlineScheduler(
            m, eps=0.25, algorithm=algorithm, backend=backend, **kwargs
        )
        result = scheduler.run(inst.arrivals)
        reference, replans = every_epoch_online(scheduler, inst.arrivals)
        assert placements(result.schedule) == placements(reference)
        assert result.report.replans <= replans
        assert result.report.replans == sum(1 for e in result.report.epochs if e.replanned)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 40),
        m=st.sampled_from([4, 16, 32]),
        algorithm=st.sampled_from(["auto", "two_approx"]),
        backend=st.sampled_from(["scalar", "vectorized"]),
    )
    def test_recovery_matches_every_epoch_solves(self, seed, n, m, algorithm, backend):
        jobs = random_mixed_instance(n, m, seed=seed).jobs
        horizon = 1.5 * trivial_lower_bound(jobs, m) or 1.0
        plan = random_fault_plan(
            [j.name for j in jobs], m, seed=seed, failures=3, kills=2, horizon=horizon
        )
        result = recover_with_faults(
            jobs, m, plan, eps=0.25, algorithm=algorithm, backend=backend
        )
        reference, replans = every_epoch_recovery(
            jobs, m, plan, eps=0.25, algorithm=algorithm, backend=backend
        )
        assert placements(result.schedule) == placements(reference)
        assert result.report.replans <= replans

    def test_a_draining_stream_solves_few_of_its_epochs(self):
        """While long jobs drain, each arrival's plan is superseded by the
        next arrival before its barrier, so most epochs do not solve."""
        inst = random_arrivals_instance(80, 64, seed=1)
        scheduler = OnlineScheduler(64)
        result = scheduler.run(inst.arrivals)
        reference, replans = every_epoch_online(scheduler, inst.arrivals)
        assert placements(result.schedule) == placements(reference)
        assert replans == len(result.report.epochs) == 80
        assert result.report.replans <= 8


class TestFinishAndStitch:
    def test_finish_commits_in_flight_and_stitches_clean(self):
        a, b = constant_job("a", 5.0), constant_job("b", 3.0)
        state = ReplanState(m=2)
        state.add_jobs([a, b])
        state.replan_pending(0.0, [], [(0, 2)])
        state.finish()
        schedule = state.stitch(metadata={"algorithm": "test"})
        assert validate_schedule(schedule, [a, b]).ok
        assert schedule.metadata["algorithm"] == "test"

    def test_finish_raises_on_unplanned_jobs(self):
        state = ReplanState(m=2)
        state.add_jobs([constant_job("orphan", 1.0)])
        with pytest.raises(ReplanError, match="orphan"):
            state.finish()

    def test_no_machines_raises_the_client_error_class(self):
        class ClientError(RuntimeError):
            pass

        state = ReplanState(m=2, error=ClientError)
        state.add_jobs([constant_job("a", 1.0)])
        with pytest.raises(ClientError, match="no machines available at epoch 4.0"):
            state.replan_pending(4.0, [], [])


class TestArrivalCompletionTie:
    def test_arrival_tied_exactly_with_a_completion(self):
        """A new job arriving at the exact instant an old one completes:
        the completion must commit (end <= tau + eps) before the arrival is
        planned, so the machine is free and no overlap is stitched."""
        a = constant_job("a", 5.0)
        b = constant_job("b", 5.0)
        state = ReplanState(m=1)
        state.add_jobs([a])
        state.replan_pending(0.0, [], [(0, 1)])
        assert state.current[0].end == 5.0

        state.add_jobs([b])  # arrives exactly at a's completion
        part = state.commit_epoch(5.0)
        assert [p.job.name for p in part.finished] == ["a"]
        assert part.running == []
        outcome = state.replan_pending(5.0, part.running, [(0, 1)])
        assert outcome.barrier == 5.0
        state.finish()
        schedule = state.stitch()
        assert validate_schedule(schedule, [a, b]).ok
        starts = {e.job.name: e.start for e in schedule.entries}
        assert starts == {"a": 0.0, "b": 5.0}

    def test_tie_within_epsilon_still_commits(self):
        a = constant_job("a", 5.0)
        state = ReplanState(m=1)
        state.add_jobs([a])
        state.replan_pending(0.0, [], [(0, 1)])
        part = state.commit_epoch(5.0 - EPOCH_EPS / 2)
        assert [p.job.name for p in part.finished] == ["a"]


class TestRemapSpans:
    def test_identity_on_full_availability(self):
        available = [(0, 8)]
        prefix = availability_prefix(available)
        assert prefix == [0, 8]
        assert remap_spans([(2, 3)], available, prefix) == [(2, 3)]

    def test_split_across_a_hole(self):
        # machines 2..4 are down: abstract positions 0..5 map to 0,1,5,6,7
        available = [(0, 2), (5, 9)]
        prefix = availability_prefix(available)
        assert remap_spans([(0, 4)], available, prefix) == [(0, 2), (5, 2)]
        assert remap_spans([(2, 2)], available, prefix) == [(5, 2)]

    def test_adjacent_pieces_merge(self):
        available = [(0, 4), (4, 8)]
        prefix = availability_prefix(available)
        assert remap_spans([(2, 4)], available, prefix) == [(2, 4)]

    def test_overflow_raises(self):
        available = [(0, 2)]
        prefix = availability_prefix(available)
        with pytest.raises(ReplanError, match="exceeds the available machines"):
            remap_spans([(1, 4)], available, prefix)


class TestSegmentAlgorithm:
    def test_auto_passes_through(self):
        assert segment_algorithm("auto", 50, 1, 0.1) == "auto"

    def test_fptas_falls_back_below_threshold(self):
        n, eps = 10, 0.25
        threshold = fptas_machine_threshold(n, eps)
        assert segment_algorithm("fptas", n, threshold, eps) == "fptas"
        assert segment_algorithm("fptas", n, threshold - 1, eps) == "bounded"

    def test_exact_falls_back_outside_regime(self):
        assert segment_algorithm("exact", 6, 8, 0.1) == "exact"
        assert segment_algorithm("exact", 7, 8, 0.1) == "bounded"
        assert segment_algorithm("exact", 6, 9, 0.1) == "bounded"

    @pytest.mark.parametrize(
        "n, m, ran", [(3, 8, "exact"), (6, 8, "exact"), (7, 8, "bounded"), (8, 8, "bounded"), (3, 9, "bounded")]
    )
    def test_exact_epoch_falls_back_past_the_solver_window(self, n, m, ran):
        """A pinned ``exact`` re-plan runs the exact solver inside the window
        ``ptas`` solves exactly (n <= PTAS_EXACT_LIMIT = 6, m <= 8) and
        Algorithm 3 from n = 7 or m = 9, although the solver itself would
        take n = 7: one such solve can take seconds."""
        state = ReplanState(m=m, algorithm="exact")
        state.add_jobs(random_mixed_instance(n, m, seed=n + m).jobs)
        outcome = state.replan_pending(0.0, [], [(0, m)])
        assert outcome.algorithm == ran and outcome.replanned == n

    def test_two_approx_untouched(self):
        assert segment_algorithm("two_approx", 100, 1, 0.1) == "two_approx"
