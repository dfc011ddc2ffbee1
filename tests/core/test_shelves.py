"""Tests for the two-/three-shelf constructions (Section 4.1)."""

import pytest

from repro.core.allotment import gamma
from repro.core.bounds import ludwig_tiwari_estimator, serial_upper_bound
from repro.core.job import AmdahlJob, TabulatedJob
from repro.core.shelves import (
    ThreeShelfDiagnostics,
    build_three_shelf_schedule,
    build_two_shelf_schedule,
    partition_small_big,
    shelf_items,
    shelf_profit,
    small_jobs_work,
)
from repro.core.validation import assert_valid_schedule, validate_schedule
from repro.perf.oracle import BatchedOracle
from repro.simulator.engine import simulate_schedule
from repro.workloads.generators import random_mixed_instance


class TestPartition:
    def test_small_vs_big(self):
        d = 10.0
        small = TabulatedJob("small", [4.0])
        boundary = TabulatedJob("boundary", [5.0])
        big = TabulatedJob("big", [9.0])
        s, b = partition_small_big([small, boundary, big], d)
        assert small in s and boundary in s
        assert big in b

    def test_small_jobs_work(self):
        jobs = [TabulatedJob("a", [2.0]), TabulatedJob("b", [3.0])]
        assert small_jobs_work(jobs) == pytest.approx(5.0)

    def test_empty(self):
        assert partition_small_big([], 5.0) == ([], [])


class TestShelfProfit:
    def test_profit_is_saved_work(self):
        # t: 10, 6, 4, 3 on 1..4 processors
        job = TabulatedJob("j", [10.0, 6.0, 4.0, 3.0])
        d = 10.0
        m = 4
        # gamma(d)=1 (work 10), gamma(d/2)=3 (work 12): profit 2
        assert shelf_profit(job, d, m) == pytest.approx(2.0)

    def test_profit_nonnegative_for_monotone_jobs(self):
        for seed in range(3):
            instance = random_mixed_instance(20, 16, seed=seed)
            d = serial_upper_bound(instance.jobs) / 4
            for job in instance.jobs:
                if job.processing_time(1) > d / 2 and gamma(job, d / 2, 16) is not None:
                    assert shelf_profit(job, d, 16) >= 0.0

    def test_raises_when_threshold_unreachable(self):
        job = AmdahlJob("a", 100.0, 1.0)
        with pytest.raises(ValueError):
            shelf_profit(job, 10.0, 64)


class TestShelfItems:
    def test_one_item_per_job_keyed_by_position(self):
        jobs = random_mixed_instance(12, 16, seed=3).jobs
        d = 1.2 * ludwig_tiwari_estimator(jobs, 16).omega
        big = partition_small_big(jobs, d)[1]
        items = shelf_items(big, d, 16)
        assert [item.key for item in items] == list(range(len(big)))
        for item, job in zip(items, big):
            assert item.payload is job
            assert item.size == gamma(job, d, 16)
            assert item.profit == shelf_profit(job, d, 16)

    def test_oracle_gives_the_same_items(self):
        jobs = random_mixed_instance(12, 16, seed=4).jobs
        d = 1.2 * ludwig_tiwari_estimator(jobs, 16).omega
        big = partition_small_big(jobs, d)[1]
        scalar = shelf_items(big, d, 16)
        columnar = shelf_items(big, d, 16, oracle=BatchedOracle(jobs, 16))
        assert [(i.key, i.size, i.profit, i.payload) for i in columnar] == [
            (i.key, i.size, i.profit, i.payload) for i in scalar
        ]


class TestTwoShelfSchedule:
    def test_structure(self):
        m = 4
        d = 10.0
        a = TabulatedJob("a", [9.0, 5.0, 4.0, 3.0])   # big
        b = TabulatedJob("b", [8.0, 4.5, 3.0, 2.5])   # big
        c = TabulatedJob("c", [4.0])                   # small
        two = build_two_shelf_schedule([a, b, c], m, d, shelf1_jobs=[a])
        assert two is not None
        assert a in two.shelf1 and b in two.shelf2
        assert two.shelf1[a] == gamma(a, d, m)
        assert two.shelf2[b] == gamma(b, d / 2, m)
        assert two.small == [c]
        assert two.work_bound() == pytest.approx(m * d - 4.0)

    def test_can_exceed_m_in_shelf2(self):
        """Figure 2: the two-shelf picture may be infeasible (S2 wider than m)."""
        m = 4
        d = 10.0
        # four big jobs that each need 2 processors to meet d/2
        jobs = [TabulatedJob(f"j{i}", [9.0, 4.9, 3.4, 2.6]) for i in range(4)]
        two = build_two_shelf_schedule(jobs, m, d, shelf1_jobs=[])
        assert two is not None
        assert two.shelf2_processors == 8 > m
        assert not two.is_feasible

    def test_none_when_job_cannot_meet_height(self):
        m = 2
        d = 10.0
        job = TabulatedJob("stubborn", [20.0, 18.0])
        assert build_two_shelf_schedule([job], m, d, shelf1_jobs=[job]) is None


class TestThreeShelfConstruction:
    def _build(self, n, m, seed, d_factor=1.2):
        instance = random_mixed_instance(n, m, seed=seed)
        omega = ludwig_tiwari_estimator(instance.jobs, m).omega
        d = d_factor * omega
        # shelf-1 selection: every big job that fits (greedy by profit density)
        _, big = partition_small_big(instance.jobs, d)
        shelf1 = []
        used = 0
        for job in sorted(big, key=lambda j: -j.processing_time(1)):
            g = gamma(job, d, m)
            if g is not None and used + g <= m:
                shelf1.append(job)
                used += g
        diag = ThreeShelfDiagnostics(d=d, m=m)
        schedule = build_three_shelf_schedule(instance.jobs, m, d, shelf1, diagnostics=diag)
        return instance, d, schedule, diag

    def test_feasible_and_within_bound(self):
        for seed in range(4):
            instance, d, schedule, _ = self._build(30, 16, seed)
            if schedule is None:
                continue  # the greedy selection may violate the work bound; that's a valid rejection
            assert_valid_schedule(schedule, instance.jobs, max_makespan=1.5 * d)
            simulate_schedule(schedule)

    def test_generous_target_always_builds(self):
        """With d equal to the serial upper bound everything fits trivially."""
        instance = random_mixed_instance(15, 8, seed=3)
        d = serial_upper_bound(instance.jobs)
        schedule = build_three_shelf_schedule(instance.jobs, 8, d, shelf1_jobs=[])
        assert schedule is not None
        assert_valid_schedule(schedule, instance.jobs, max_makespan=1.5 * d)

    def test_rejects_overfull_shelf1(self):
        m = 2
        d = 10.0
        jobs = [TabulatedJob(f"j{i}", [9.0, 6.0]) for i in range(4)]
        # all four in shelf 1 -> needs 4 > m processors
        schedule = build_three_shelf_schedule(jobs, m, d, shelf1_jobs=jobs)
        assert schedule is None

    def test_rejects_when_work_bound_violated(self):
        m = 2
        d = 10.0
        # three jobs, each 9 time units sequential and poorly parallelisable:
        # total minimal work 27 > m*d = 20, so d is correctly rejected
        jobs = [TabulatedJob(f"j{i}", [9.0, 8.0]) for i in range(3)]
        diag = ThreeShelfDiagnostics(d=d, m=m)
        schedule = build_three_shelf_schedule(jobs, m, d, shelf1_jobs=[jobs[0]], diagnostics=diag)
        assert schedule is None
        assert diag.rejected_reason is not None

    def test_small_jobs_fill_gaps(self):
        m = 4
        d = 10.0
        big = [TabulatedJob(f"big{i}", [9.0, 5.0, 3.5, 3.0]) for i in range(2)]
        small = [TabulatedJob(f"small{i}", [2.0]) for i in range(6)]
        jobs = big + small
        schedule = build_three_shelf_schedule(jobs, m, d, shelf1_jobs=big)
        assert schedule is not None
        report = validate_schedule(schedule, jobs, max_makespan=1.5 * d)
        assert report.ok, report.violations

    def test_diagnostics_populated(self):
        _, _, schedule, diag = self._build(40, 32, seed=7)
        if schedule is not None:
            assert diag.shelf0_processors + diag.shelf1_processors <= 32
            assert diag.small_jobs >= 0
            assert diag.shelf0_jobs + diag.shelf1_jobs + diag.shelf2_jobs >= 0

    def test_rule_i_moves_short_wide_jobs_to_s0(self):
        """A shelf-1 job with time <= 3d/4 and >1 processors gives one up."""
        m = 4
        d = 10.0
        # t(2) = 7 <= 7.5 = 3d/4, so rule (i) applies with gamma(d)=... t(1)=12>10 so gamma(d)=2
        wide = TabulatedJob("wide", [12.0, 7.0, 6.0, 5.5])
        schedule = build_three_shelf_schedule([wide], m, d, shelf1_jobs=[wide])
        assert schedule is not None
        entry = schedule.entry_for(wide)
        # moved to S0 with gamma(d) - 1 = 1 processor
        assert entry.processors == 1
        assert entry.duration <= 1.5 * d + 1e-9

    def test_rule_ii_pairs_single_processor_jobs(self):
        m = 4
        d = 10.0
        # both jobs: t(1) = 7 (> d/2 so big, <= 3d/4 so category 2, gamma(d)=1)
        a = TabulatedJob("a", [7.0, 6.9, 6.8, 6.7])
        b = TabulatedJob("b", [7.0, 6.9, 6.8, 6.7])
        schedule = build_three_shelf_schedule([a, b], m, d, shelf1_jobs=[a, b])
        assert schedule is not None
        ea, eb = schedule.entry_for(a), schedule.entry_for(b)
        # paired on the same machine, one after the other
        assert ea.spans == eb.spans
        assert {ea.start, eb.start} == {0.0, 7.0}
        assert_valid_schedule(schedule, [a, b], max_makespan=1.5 * d)
