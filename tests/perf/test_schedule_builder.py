"""Columnar schedule assembly: ArraySchedule / schedule_from_arrays parity.

The builder's contract is *identity* with sequential ``Schedule.add``: same
entry order, same floats, same normalized span tuples, same errors.  The
hypothesis suite drives random shelf-like layouts — including multi-span
placements reusing scattered leftover machines and exactly-adjacent spans
that must merge — through both assembly paths and compares entry by entry.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.job import AmdahlJob, TabulatedJob
from repro.core.schedule import Schedule
from repro.perf.schedule_builder import (
    ArraySchedule,
    ScheduleColumns,
    schedule_from_arrays,
    spans_time_overlap,
)


def make_job(i: int) -> AmdahlJob:
    return AmdahlJob(f"job-{i}", 10.0 + i, 0.1)


@st.composite
def layouts(draw):
    """(m, entries) with valid per-entry spans: disjoint, possibly adjacent."""
    n_jobs = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=4, max_value=64))
    entries = []
    for _ in range(n_jobs):
        start = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
        k = draw(st.integers(min_value=1, max_value=3))
        firsts = sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=m - 1),
                    min_size=k,
                    max_size=k,
                    unique=True,
                )
            )
        )
        spans = []
        for j, f in enumerate(firsts):
            max_count = (firsts[j + 1] - f) if j + 1 < len(firsts) else m - f
            spans.append((f, draw(st.integers(min_value=1, max_value=max_count))))
        override = draw(st.one_of(st.none(), st.floats(min_value=1.0, max_value=50.0)))
        entries.append((start, spans, override))
    return m, entries


class TestArrayScheduleParity:
    @given(layouts())
    @settings(max_examples=120, deadline=None)
    def test_row_mode_matches_sequential_add(self, layout):
        m, rows = layout
        jobs = [make_job(i) for i in range(len(rows))]
        reference = Schedule(m=m, metadata={"src": "reference"})
        builder = ArraySchedule(m, metadata={"src": "reference"})
        for job, (start, spans, override) in zip(jobs, rows):
            reference.add(job, start, spans, duration_override=override)
            builder.append(job, start, spans, duration_override=override)
        built = builder.build()
        assert built.m == reference.m
        assert built.metadata == reference.metadata
        assert len(built.entries) == len(reference.entries)
        for a, b in zip(reference.entries, built.entries):
            assert a.job is b.job
            assert a.start == b.start
            assert a.spans == b.spans
            assert a.duration_override == b.duration_override
            assert a.duration == b.duration
        assert built.makespan == reference.makespan

    @given(layouts())
    @settings(max_examples=60, deadline=None)
    def test_block_mode_matches_sequential_add(self, layout):
        m, rows = layout
        jobs = [make_job(i) for i in range(len(rows))]
        reference = Schedule(m=m)
        span_owner, span_first, span_count = [], [], []
        for i, (job, (start, spans, override)) in enumerate(zip(jobs, rows)):
            reference.add(job, start, spans, duration_override=override)
            for f, c in spans:
                span_owner.append(i)
                span_first.append(f)
                span_count.append(c)
        built = schedule_from_arrays(
            jobs,
            m,
            np.arange(len(jobs)),
            np.array([r[0] for r in rows]),
            np.array(span_first),
            np.array(span_count),
            span_owner=np.array(span_owner),
            duration_overrides=[r[2] for r in rows],
        )
        for a, b in zip(reference.entries, built.entries):
            assert a.job is b.job and a.start == b.start and a.spans == b.spans
            assert a.duration_override == b.duration_override
        assert built.makespan == reference.makespan

    def test_multi_span_leftover_reuse(self):
        """The shelf idiom: one job on scattered leftover machines, including
        a pair of exactly-adjacent pieces that must merge into one span."""
        jobs = [make_job(i) for i in range(3)]
        reference = Schedule(m=20)
        reference.add(jobs[0], 0.0, [(0, 4)])
        reference.add(jobs[1], 2.0, [(4, 2), (9, 3), (6, 3)])  # (4,2)+(6,3) adjacent
        reference.add(jobs[2], 5.0, [(15, 2), (18, 1)])
        builder = ArraySchedule(20)
        builder.append(jobs[0], 0.0, [(0, 4)])
        builder.append(jobs[1], 2.0, [(4, 2), (9, 3), (6, 3)])
        builder.append(jobs[2], 5.0, [(15, 2), (18, 1)])
        built = builder.build()
        assert built.entries[1].spans == reference.entries[1].spans == ((4, 8),)
        assert built.entries[2].spans == ((15, 2), (18, 1))
        for a, b in zip(reference.entries, built.entries):
            assert a.spans == b.spans and a.start == b.start and a.job is b.job

    @pytest.mark.parametrize(
        "spans,start,override",
        [
            ([(0, 3), (2, 2)], 0.0, None),  # overlapping spans double-book
            ([(0, 0)], 0.0, None),  # non-positive count
            ([(-1, 2)], 0.0, None),  # negative machine index
            ([], 0.0, None),  # no spans at all
            ([(0, 1)], -1.0, None),  # negative start
            ([(0, 1)], float("nan"), None),  # NaN start passes every ordering check
            ([(0, 1)], float("inf"), None),  # infinite start
            ([(0, 1)], 10**400, None),  # int beyond the float range
            ([(0, 1)], 0.0, float("nan")),  # NaN duration override
            ([(0, 1)], 0.0, float("-inf")),  # infinite duration override
            ([(0, 1)], 0.0, 10**400),  # override beyond the float range
            ([(0, 1)], "1.5", None),  # a numeric string is not a float start
            ([(0, 1)], 0.0, "2.0"),  # nor a float duration override
        ],
    )
    def test_error_parity_with_sequential_add(self, spans, start, override):
        job = make_job(0)
        reference_error = builder_error = None
        try:
            Schedule(m=10).add(job, start, spans, duration_override=override)
        except ValueError as exc:
            reference_error = str(exc)
        builder = ArraySchedule(10)
        builder.append(job, start, spans, duration_override=override)
        try:
            builder.build()
        except ValueError as exc:
            builder_error = str(exc)
        assert reference_error is not None
        assert builder_error == reference_error

    def test_extend_columns_validates_alignment(self):
        jobs = [make_job(0)]
        builder = ArraySchedule(4)
        with pytest.raises(ValueError):
            builder.extend_columns(jobs, [0.0, 1.0], [0], [1])
        with pytest.raises(ValueError):
            builder.extend_columns(jobs, [0.0], [0, 1], [1, 1])  # owner omitted
        with pytest.raises(ValueError):
            builder.extend_columns(jobs, [0.0], [0], [1], span_owner=[3])

    def test_empty_build(self):
        built = ArraySchedule(5, metadata={"a": 1}).build()
        assert len(built) == 0
        assert built.m == 5
        assert built.metadata == {"a": 1}


class TestScheduleColumns:
    def test_columns_match_entries(self):
        jobs = [TabulatedJob("t0", [8.0, 5.0]), TabulatedJob("t1", [4.0])]
        schedule = Schedule(m=6)
        schedule.add(jobs[0], 0.0, [(0, 2)])
        schedule.add(jobs[1], 5.0, [(2, 1), (4, 2)], duration_override=9.0)
        cols = ScheduleColumns(schedule)
        assert cols.n == 2
        assert cols.start.tolist() == [0.0, 5.0]
        assert cols.duration.tolist() == [5.0, 9.0]
        assert cols.end.tolist() == [5.0, 14.0]
        assert cols.processors.tolist() == [2, 3]
        assert cols.has_override.tolist() == [False, True]
        assert cols.span_owner.tolist() == [0, 1, 1]
        assert cols.span_first.tolist() == [0, 2, 4]
        assert cols.span_end.tolist() == [2, 3, 6]


class TestSpansTimeOverlap:
    def test_disjoint_machines_no_overlap(self):
        assert spans_time_overlap(
            np.array([0, 5]), np.array([5, 10]), np.array([0.0, 0.0]), np.array([9.0, 9.0])
        ).tolist() == [False]

    def test_touching_times_no_overlap(self):
        assert spans_time_overlap(
            np.array([0, 0]), np.array([3, 3]), np.array([0.0, 5.0]), np.array([5.0, 8.0])
        ).tolist() == [False]

    def test_true_overlap_detected(self):
        assert spans_time_overlap(
            np.array([0, 1]), np.array([3, 4]), np.array([0.0, 1.0]), np.array([5.0, 6.0])
        ).tolist() == [True]

    def test_group_key_keeps_schedules_apart(self):
        # groups 0 and 1 use the same machines at the same time; only
        # group 2 overlaps within itself
        group = np.array([0, 1, 2, 2, 1])
        flags = spans_time_overlap(
            np.array([0, 0, 4, 5, 8]),
            np.array([3, 3, 6, 7, 9]),
            np.array([0.0, 0.0, 0.0, 1.0, 0.0]),
            np.array([5.0, 5.0, 5.0, 6.0, 1.0]),
            group=group,
        )
        assert flags.tolist() == [False, False, True]

    def test_group_key_exact_near_int64(self):
        big = (1 << 62) - 8
        span_first = np.array([big, big + 4, big, 0], dtype=np.int64)
        span_end = span_first + 4
        starts, ends = np.zeros(4), np.ones(4)
        flags = spans_time_overlap(span_first, span_end, starts, ends, group=np.array([0, 0, 1, 1]))
        assert flags.tolist() == [False, False]
        flags = spans_time_overlap(span_first, span_end, starts, ends, group=np.array([0, 1, 0, 1]))
        assert flags.tolist() == [True, False]

    def test_incidence_cap_returns_none(self):
        span_first = np.arange(10, dtype=np.int64)
        span_end = span_first + 10
        starts = np.zeros(10)
        ends = np.full(10, 1.0)
        assert (
            spans_time_overlap(span_first, span_end, starts, ends, max_incidences=3)
            is None
        )
