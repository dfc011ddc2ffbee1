"""Tests for the columnar ``Schedule`` storage and the shared event sweep.

Covers the storage contract of the refactor (flat columns as the source of
truth, entry objects as lazy cached views, builder installation with zero
per-entry conversion) and pins the three peak-busy consumers — the
validator, the simulator and ``Schedule.peak_processor_usage`` — to the
*same* shared sweep result on near-tie event orderings.
"""

import os
import pickle
import sys

import numpy as np
import pytest

from repro.core.job import TabulatedJob
from repro.core.schedule import MAX_COLUMNAR_M, Schedule, ScheduleColumns
from repro.core.validation import validate_schedule
from repro.perf.schedule_builder import ArraySchedule
from repro.simulator.engine import simulate_schedule

from reference_validation import reference_validate

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "simulator"))
from reference_sim import reference_simulate  # noqa: E402


def make_job(name="j", times=(10.0, 6.0, 4.0, 3.0)):
    return TabulatedJob(name, list(times))


class TestColumnarStorage:
    def test_columns_view_is_cached(self):
        schedule = Schedule(m=4)
        schedule.add(make_job("a"), 0.0, [(0, 2)])
        assert schedule.columns() is schedule.columns()

    def test_add_invalidates_columns(self):
        schedule = Schedule(m=4)
        schedule.add(make_job("a"), 0.0, [(0, 2)])
        before = schedule.columns()
        schedule.add(make_job("b"), 1.0, [(2, 1)])
        after = schedule.columns()
        assert before.n == 1
        assert after.n == 2
        assert after.start.tolist() == [0.0, 1.0]
        # the old view is an immutable snapshot, untouched by the append
        assert before.start.tolist() == [0.0]

    def test_columns_layout(self):
        jobs = [make_job("t0", (8.0, 5.0)), make_job("t1", (4.0,))]
        schedule = Schedule(m=6)
        schedule.add(jobs[0], 0.0, [(0, 2)])
        schedule.add(jobs[1], 5.0, [(2, 1), (4, 2)], duration_override=9.0)
        cols = schedule.columns()
        assert cols.n == 2
        assert cols.start.tolist() == [0.0, 5.0]
        assert cols.duration.tolist() == [5.0, 9.0]
        assert cols.end.tolist() == [5.0, 14.0]
        assert cols.processors.tolist() == [2, 3]
        assert cols.has_override.tolist() == [False, True]
        assert cols.span_owner.tolist() == [0, 1, 1]
        assert cols.span_first.tolist() == [0, 2, 4]
        assert cols.span_end.tolist() == [2, 3, 6]

    def test_builder_installs_columns_without_entry_objects(self):
        """ArraySchedule.build must not materialise a single ScheduledJob."""
        builder = ArraySchedule(8)
        for i in range(5):
            builder.append(make_job(f"j{i}"), float(i), [(i, 1)])
        schedule = builder.build()
        assert all(view is None for view in schedule._views)
        # column reads keep the views unmaterialised
        schedule.columns()
        assert schedule.makespan > 0
        assert schedule.peak_processor_usage() >= 1
        assert all(view is None for view in schedule._views)
        # subscripting materialises exactly the touched row, and caches it
        entry = schedule.entries[2]
        assert entry.start == 2.0
        assert entry.spans == ((2, 1),)
        assert schedule.entries[2] is entry
        assert sum(view is not None for view in schedule._views) == 1

    def test_validation_and_simulation_stay_lazy(self):
        """The vectorized validator/simulator never touch entry objects on a
        clean columnar schedule."""
        jobs = [make_job(f"j{i}") for i in range(6)]
        builder = ArraySchedule(12)
        for i, job in enumerate(jobs):
            builder.append(job, 0.0, [(2 * i, 2)])
        schedule = builder.build()
        report = validate_schedule(schedule, jobs)
        assert report.ok
        simulate_schedule(schedule)
        assert all(view is None for view in schedule._views)

    def test_entries_sequence_protocol(self):
        schedule = Schedule(m=4)
        a = schedule.add(make_job("a"), 0.0, [(0, 1)])
        b = schedule.add(make_job("b"), 1.0, [(1, 1)])
        entries = schedule.entries
        assert len(entries) == 2
        assert entries[0] is a
        assert entries[-1] is b
        assert entries[:1] == [a]
        assert entries[::-1] == [b, a]
        assert list(iter(entries)) == [a, b]
        assert a in entries
        with pytest.raises(IndexError):
            entries[2]

    def test_schedule_equality_across_assembly_modes(self):
        jobs = [make_job("a"), make_job("b")]
        sequential = Schedule(m=4)
        sequential.add(jobs[0], 0.0, [(0, 2)])
        sequential.add(jobs[1], 2.0, [(2, 1)])
        builder = ArraySchedule(4)
        builder.append(jobs[0], 0.0, [(0, 2)])
        builder.append(jobs[1], 2.0, [(2, 1)])
        assert builder.build() == sequential

    def test_mixing_builder_and_incremental_adds(self):
        builder = ArraySchedule(8)
        builder.append(make_job("a"), 0.0, [(0, 2)])
        schedule = builder.build()
        schedule.add(make_job("b"), 6.0, [(0, 4)])
        cols = schedule.columns()
        assert cols.n == 2
        assert cols.processors.tolist() == [2, 4]
        assert schedule.makespan == pytest.approx(6.0 + 3.0)
        assert [e.job.name for e in schedule.entries] == ["a", "b"]

    def test_astronomical_span_counts_consolidate_exactly(self):
        """Span counts beyond int64 consolidate into exact object-dtype
        columns (they used to abort consolidation and divert every consumer
        to the per-entry scalar paths); the column values, the sweeps and
        the scalar aggregate properties all stay exact Python-int."""
        wide = 1 << 70
        job = TabulatedJob("wide", [100.0])
        schedule = Schedule(m=4 * wide)
        schedule.add(job, 0.0, [(0, wide)])
        schedule.add(job, 0.0, [(2 * wide, wide)])
        cols = schedule.columns()
        assert cols is not None
        assert cols.processors.dtype == object
        assert cols.processors.tolist() == [wide, wide]
        assert cols.span_first.tolist() == [0, 2 * wide]
        assert cols.fits_int64_sweep()  # object cumsum is exact
        assert cols.peak_busy() == 2 * wide
        assert schedule.makespan == pytest.approx(100.0)
        assert schedule.total_work == 2 * wide * 100.0
        assert schedule.peak_processor_usage() == 2 * wide
        assert schedule.m > MAX_COLUMNAR_M
        assert len(schedule.entries[:]) == 2

    def test_schedule_pickles(self):
        schedule = Schedule(m=4, metadata={"algorithm": "test"})
        schedule.add(make_job("a"), 0.0, [(0, 2)])
        schedule.columns()
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone.m == schedule.m
        assert clone.metadata == schedule.metadata
        assert clone.makespan == schedule.makespan
        # jobs compare by identity, so compare the placements structurally
        for a, b in zip(clone.entries, schedule.entries):
            assert (a.job.name, a.start, a.spans, a.duration_override) == (
                b.job.name,
                b.start,
                b.spans,
                b.duration_override,
            )

    def test_duration_column_resolves_lazily(self):
        """Consumers that never read durations (certificate extraction,
        serialisation) must not trigger per-job oracle calls."""
        from repro.core.certificates import extract_certificate
        from repro.io import schedule_to_dict

        calls = []

        class CountingJob(TabulatedJob):
            def processing_time(self, k):
                calls.append(k)
                return super().processing_time(k)

        jobs = [CountingJob(f"j{i}", [6.0, 5.0, 4.0]) for i in range(5)]
        schedule = Schedule(m=8)
        for i, job in enumerate(jobs):
            schedule.add(job, float(i), [(i, 1)])
        calls.clear()
        extract_certificate(schedule, jobs)
        schedule_to_dict(schedule)
        assert calls == []
        # touching the duration column resolves exactly once
        schedule.columns().duration
        assert len(calls) == 5
        calls.clear()
        schedule.columns().end
        assert calls == []

    def test_schedule_columns_compat_constructor(self):
        schedule = Schedule(m=4)
        schedule.add(make_job("a"), 0.0, [(0, 2)])
        cols = ScheduleColumns(schedule)
        assert cols.n == 1
        assert cols.processors.tolist() == [2]


class TestSharedSweepPinning:
    """The validator, the simulator and ``peak_processor_usage`` share one
    event sweep; near-tie event orderings must give one answer everywhere."""

    def _all_peaks(self, schedule, jobs):
        peaks = {
            "schedule": schedule.peak_processor_usage(),
            "validator_columnar": validate_schedule(schedule, jobs).peak_processors,
            "validator_reference": reference_validate(schedule, jobs).peak_processors,
            "simulator_columnar": simulate_schedule(schedule).peak_busy,
            "simulator_reference": reference_simulate(schedule).peak_busy,
        }
        return peaks

    def test_touching_intervals_do_not_double_count(self):
        """b starts exactly when a ends on the same machines."""
        a = TabulatedJob("a", [5.0, 5.0, 5.0])
        b = TabulatedJob("b", [5.0, 5.0, 5.0])
        schedule = Schedule(m=3)
        schedule.add(a, 0.0, [(0, 3)])
        schedule.add(b, 5.0, [(0, 3)])
        peaks = self._all_peaks(schedule, [a, b])
        assert set(peaks.values()) == {3}, peaks

    def test_simultaneous_starts_with_mixed_widths(self):
        jobs = [TabulatedJob(f"j{i}", [4.0] * 8) for i in range(3)]
        schedule = Schedule(m=8)
        schedule.add(jobs[0], 0.0, [(0, 1)])
        schedule.add(jobs[1], 0.0, [(1, 5)])
        schedule.add(jobs[2], 0.0, [(6, 2)])
        peaks = self._all_peaks(schedule, jobs)
        assert set(peaks.values()) == {8}, peaks

    def test_release_and_acquire_interleave_at_one_instant(self):
        """At t=4 a wide job ends while two narrow ones start: the busy count
        must dip before it rises (ends sort before starts)."""
        wide = TabulatedJob("wide", [4.0] * 6)
        n1 = TabulatedJob("n1", [3.0] * 6)
        n2 = TabulatedJob("n2", [3.0] * 6)
        schedule = Schedule(m=6)
        schedule.add(wide, 0.0, [(0, 6)])
        schedule.add(n1, 4.0, [(0, 2)])
        schedule.add(n2, 4.0, [(2, 2)])
        peaks = self._all_peaks(schedule, [wide, n1, n2])
        assert set(peaks.values()) == {6}, peaks

    def test_chain_of_back_to_back_placements(self):
        """A long chain of touching placements on one machine group stays at
        the width of the group, for every consumer."""
        jobs = [TabulatedJob(f"c{i}", [1.0, 1.0]) for i in range(10)]
        schedule = Schedule(m=2)
        for i, job in enumerate(jobs):
            schedule.add(job, float(i), [(0, 2)])
        peaks = self._all_peaks(schedule, jobs)
        assert set(peaks.values()) == {2}, peaks

    def test_event_sweep_helper_matches_consumers(self):
        jobs = [TabulatedJob(f"j{i}", [2.0] * 4) for i in range(4)]
        schedule = Schedule(m=4)
        for i, job in enumerate(jobs):
            schedule.add(job, float(i % 2), [(i, 1)])
        cols = schedule.columns()
        assert cols.peak_busy() == schedule.peak_processor_usage()
        _, times, running = cols.event_sweep()
        trace = simulate_schedule(schedule)
        # no two distinct event times lie within tolerance: one profile
        # point per instant, the busy count after its last event
        last = np.concatenate((times[1:] != times[:-1], [True]))
        assert trace.utilization_profile == list(zip(times[last].tolist(), running[last].tolist()))


class TestSpanEndsPastInt64:
    """Span starts and counts that each fit int64 while their ends pass 2^63:
    an int64 sum wraps negative, so the ends must go exact instead."""

    BIG = 3 << 61  # 1.5 * 2^62: BIG + BIG passes 2^63

    def jobs(self):
        return [TabulatedJob("a", [1.0]), TabulatedJob("b", [1.0])]

    def test_ends_are_exact_and_the_schedule_validates(self):
        jobs = self.jobs()
        schedule = Schedule(m=1 << 80)
        schedule.add(jobs[0], 0.0, [(0, self.BIG)])
        schedule.add(jobs[1], 0.0, [(self.BIG, self.BIG)])
        cols = schedule.columns()
        assert cols.span_end.tolist() == [self.BIG, 2 * self.BIG]
        assert cols.peak_busy() == 2 * self.BIG
        assert validate_schedule(schedule, jobs).ok

    def test_an_overlap_past_int64_is_reported(self):
        jobs = self.jobs()
        schedule = Schedule(m=1 << 80)
        schedule.add(jobs[0], 0.0, [(self.BIG, self.BIG)])
        schedule.add(jobs[1], 0.0, [(self.BIG + 1, 1)])
        assert not validate_schedule(schedule, jobs).ok

    def test_the_builder_sums_an_entrys_spans_exactly(self):
        """Two spans of one entry each fit int64 while their sum passes 2^63:
        an int64 segment sum would wrap negative."""
        job = self.jobs()[0]
        builder = ArraySchedule(1 << 80)
        builder.append(job, 0.0, [(0, self.BIG), (self.BIG + 5, self.BIG)])
        schedule = builder.build()
        assert schedule.columns().processors.tolist() == [2 * self.BIG]
        assert schedule.columns().duration.tolist() == [1.0]
        assert schedule.entries[0].processors == 2 * self.BIG
        assert validate_schedule(schedule, [job]).ok

    def test_the_builder_rejects_an_overlap_within_one_entry(self):
        builder = ArraySchedule(1 << 80)
        builder.append(self.jobs()[0], 0.0, [(self.BIG, self.BIG), (self.BIG + 1, 2)])
        with pytest.raises(ValueError, match="overlapping"):
            builder.build()
