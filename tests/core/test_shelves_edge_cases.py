"""Additional edge-case tests for the shelf construction."""

import signal

import pytest

from repro.core.job import AmdahlJob, OracleJob, TabulatedJob
from repro.core.scheduler import schedule_moldable
from repro.core.shelves import build_three_shelf_schedule, build_two_shelf_schedule
from repro.core.validation import assert_valid_schedule
from repro.simulator.engine import simulate_schedule


class TestDegenerateInstances:
    def test_only_small_jobs(self):
        """With only small jobs, the construction reduces to next-fit packing."""
        d = 10.0
        m = 3
        jobs = [TabulatedJob(f"s{i}", [3.0]) for i in range(10)]
        schedule = build_three_shelf_schedule(jobs, m, d, shelf1_jobs=[])
        assert schedule is not None
        assert_valid_schedule(schedule, jobs, max_makespan=1.5 * d)

    def test_only_small_jobs_too_much_work_rejected(self):
        d = 10.0
        m = 2
        # 9 small jobs of 3 time units each: work 27 > m*d = 20 -> reject
        jobs = [TabulatedJob(f"s{i}", [3.0]) for i in range(9)]
        assert build_three_shelf_schedule(jobs, m, d, shelf1_jobs=[]) is None

    def test_single_big_job_in_shelf1(self):
        d = 10.0
        m = 4
        job = TabulatedJob("big", [30.0, 16.0, 11.0, 9.0])
        schedule = build_three_shelf_schedule([job], m, d, shelf1_jobs=[job])
        assert schedule is not None
        entry = schedule.entry_for(job)
        assert entry.duration <= 1.5 * d + 1e-9

    def test_single_big_job_in_shelf2(self):
        d = 10.0
        m = 4
        job = TabulatedJob("big", [8.0, 4.5, 3.5, 3.0])
        schedule = build_three_shelf_schedule([job], m, d, shelf1_jobs=[])
        assert schedule is not None
        assert_valid_schedule(schedule, [job], max_makespan=1.5 * d)

    def test_empty_instance(self):
        schedule = build_three_shelf_schedule([], 4, 10.0, shelf1_jobs=[])
        assert schedule is not None
        assert schedule.makespan == 0.0

    def test_single_machine(self):
        d = 20.0
        jobs = [TabulatedJob("a", [12.0]), TabulatedJob("b", [6.0]), TabulatedJob("c", [9.0])]
        # work 27 > m*d = 20 -> must reject
        assert build_three_shelf_schedule(jobs, 1, d, shelf1_jobs=[jobs[0]]) is None
        # a roomier target succeeds
        schedule = build_three_shelf_schedule(jobs, 1, 28.0, shelf1_jobs=[jobs[0]])
        assert schedule is not None
        assert_valid_schedule(schedule, jobs, max_makespan=1.5 * 28.0)


class TestPiggybackSpecialCase:
    def test_unpaired_short_job_rides_on_tall_job(self):
        """Rule (ii) special case: one leftover 1-processor job of height
        <= 3d/4 is stacked on top of a tall shelf-1 job when they fit in 3d/2."""
        d = 10.0
        m = 3
        tall = TabulatedJob("tall", [16.0, 9.0, 8.5])      # gamma(d)=2, t=9 > 3d/4
        short = TabulatedJob("short", [6.0, 5.9, 5.8])     # gamma(d)=1, t=6 <= 7.5
        filler = TabulatedJob("filler", [4.0])             # small job
        schedule = build_three_shelf_schedule([tall, short, filler], m, d, shelf1_jobs=[tall, short])
        assert schedule is not None
        assert_valid_schedule(schedule, [tall, short, filler], max_makespan=1.5 * d)
        e_tall, e_short = schedule.entry_for(tall), schedule.entry_for(short)
        # 9 + 6 = 15 = 3d/2: the short job starts exactly when the tall one ends
        assert e_short.start == pytest.approx(e_tall.end)
        # and it runs on one of the tall job's machines
        shared = set(e_short.machines()) & set(e_tall.machines())
        assert shared

    def test_unpaired_short_job_without_partner_stays_in_shelf1(self):
        d = 10.0
        m = 3
        tall = TabulatedJob("tall", [16.0, 9.9, 9.8])      # 9.9 + 6 > 15: no piggyback possible
        short = TabulatedJob("short", [6.0, 5.9, 5.8])
        schedule = build_three_shelf_schedule([tall, short], m, d, shelf1_jobs=[tall, short])
        assert schedule is not None
        assert_valid_schedule(schedule, [tall, short], max_makespan=1.5 * d)
        e_short = schedule.entry_for(short)
        assert e_short.start == 0.0  # stays in shelf S1


class TestShelf2Placement:
    def test_shelf2_jobs_finish_at_three_halves_d(self):
        d = 10.0
        m = 6
        s1 = [TabulatedJob(f"one-{i}", [9.5, 8.0, 7.9, 7.8, 7.7, 7.6]) for i in range(2)]
        s2 = [TabulatedJob(f"two-{i}", [8.0, 4.8, 4.7, 4.6, 4.5, 4.4]) for i in range(2)]
        schedule = build_three_shelf_schedule(s1 + s2, m, d, shelf1_jobs=s1)
        assert schedule is not None
        for job in s2:
            entry = schedule.entry_for(job)
            # shelf-2 jobs are right-aligned at 3d/2 (unless moved by rule iii)
            assert entry.end <= 1.5 * d + 1e-9
        simulate_schedule(schedule)

    def test_two_shelf_reports_infeasibility_correctly(self):
        d = 10.0
        m = 2
        jobs = [TabulatedJob(f"j{i}", [9.0, 4.9]) for i in range(3)]
        two = build_two_shelf_schedule(jobs, m, d, shelf1_jobs=[])
        assert two is not None
        # each of the three jobs needs 2 processors to meet d/2
        assert two.shelf2_processors == 6 > m
        assert not two.is_feasible


class TestSmallJobInsertionAtHugeM:
    """A small job that misfits a fresh machine misfits its whole gap group
    (every machine of a group has the same gap); next-fit must skip the group
    in one step, not walk its ~2**80 machines one by one."""

    @staticmethod
    def _timeout(signum, frame):
        raise TimeoutError("small-job insertion walked the gap group machine by machine")

    @pytest.mark.parametrize("backend", ["scalar", "vectorized"])
    @pytest.mark.parametrize(
        "algorithm,makespan,small_entry",
        [
            ("mrt", 5.9999999999999995e38, (5e38, ((0, 1),))),
            ("bounded", 5e38, (0.0, ((2**60 + 1, 1),))),
            ("compressible", 5e38, (0.0, ((2**60 + 1, 1),))),
        ],
    )
    def test_misfit_skips_the_whole_group(self, algorithm, makespan, small_entry, backend):
        jobs = [
            OracleJob("step", lambda k: 1e39 if k < 2**60 + 1 else 5e38),
            AmdahlJob("a", 1e38, 0.0),
        ]
        previous = signal.signal(signal.SIGALRM, self._timeout)
        signal.alarm(5)  # fail instead of hanging the suite
        try:
            result = schedule_moldable(jobs, 2**80, 0.5, algorithm=algorithm, backend=backend)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert result.makespan == makespan
        placements = [(e.job.name, e.start, e.spans) for e in result.schedule.entries]
        assert placements == [("step", 0.0, ((0, 2**60 + 1),)), ("a", *small_entry)]
