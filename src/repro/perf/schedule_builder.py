"""Columnar schedule assembly: build a :class:`~repro.core.schedule.Schedule`
from flat NumPy columns in one pass.

The sequential path assembles schedules one :class:`ScheduledJob` at a time:
every ``Schedule.add`` re-validates its arguments and normalizes its machine
spans in Python.  For the vectorized algorithm drivers — which already hold
their whole answer in arrays (γ-counts, prefix-sum machine offsets, start
times) — that per-entry tour through Python is the dominant cost of producing
the result object.

:class:`ArraySchedule` keeps the placements as flat *columns* instead:

* per entry: the job, its start time and an optional duration override;
* per span: ``(owner_row, first_machine, machine_count)`` — an entry may own
  any number of spans, so multi-span placements (e.g. shelf constructions
  reusing scattered leftover machines) stay flat too.

:meth:`ArraySchedule.build` validates and normalizes **all** spans with a
handful of array operations (one ``lexsort`` + vectorized adjacency merge,
mirroring ``repro.core.schedule._normalize_spans`` including its rejection of
double-booked machines) and then *installs the columns directly* as the
built schedule's storage — since :class:`~repro.core.schedule.Schedule` is
itself columnar, no per-entry conversion happens at all; entry objects are
materialized lazily by the schedule only if someone subscripts them.  The
resulting :class:`Schedule` is *identical* (same entry order, same floats,
same span tuples) to one assembled through sequential ``Schedule.add`` calls.

:class:`~repro.core.schedule.ScheduleColumns` — the flat read-side view the
vectorized validator (:mod:`repro.core.validation`) and the event-sweep
simulator (:mod:`repro.simulator.engine`) consume — now lives in
:mod:`repro.core.schedule` next to the container; it is re-exported here for
backwards compatibility, together with the sweep helpers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.capacity import exact_add, index_array
from ..core.job import MoldableJob
from ..core.schedule import (
    MAX_COLUMNAR_M,
    MachineSpan,
    Schedule,
    ScheduleColumns,
    _ColumnBlock,
    _finite_float,
    grouped_running_count,
    spans_time_overlap,
)

__all__ = [
    "ArraySchedule",
    "ScheduleColumns",
    "schedule_from_arrays",
    "grouped_running_count",
    "spans_time_overlap",
    "MAX_COLUMNAR_M",
]


class ArraySchedule:
    """Columnar builder for a :class:`Schedule` on ``m`` machines.

    Rows can be appended one placement at a time (:meth:`append`, for
    loop-driven producers like the shelf constructions) or as whole column
    blocks (:meth:`extend_columns`, for producers that are already
    array-native like the FPTAS dual step).  :meth:`build` materializes the
    schedule once, with batched span normalization and validation.
    """

    __slots__ = (
        "m",
        "metadata",
        "_jobs",
        "_starts",
        "_overrides",
        "_any_override",
        "_span_owner",
        "_span_first",
        "_span_count",
    )

    def __init__(self, m: int, *, metadata: Optional[dict] = None) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = int(m)
        self.metadata = dict(metadata) if metadata else {}
        self._jobs: List[MoldableJob] = []
        self._starts: List[float] = []
        self._overrides: List[Optional[float]] = []
        self._any_override = False
        self._span_owner: List[int] = []
        self._span_first: List[int] = []
        self._span_count: List[int] = []

    def __len__(self) -> int:
        return len(self._jobs)

    def raw_columns(self):
        """The builder's mutable column lists, in row/span order:
        ``(jobs, starts, overrides, span_owner, span_first, span_count)``.

        For trusted in-package producers that stream rows from a hot loop
        (the event-queue list scheduler) and cannot afford one
        :meth:`append` call per placement.  Writers must keep the columns
        consistent (every row needs at least one span; overrides entry per
        row) — :meth:`build` re-validates everything anyway.  Duration
        overrides appended here must also be flagged via
        :meth:`mark_any_override`.
        """
        return (
            self._jobs,
            self._starts,
            self._overrides,
            self._span_owner,
            self._span_first,
            self._span_count,
        )

    def mark_any_override(self) -> None:
        """Tell :meth:`build` that :meth:`raw_columns` writers appended a
        non-``None`` duration override."""
        self._any_override = True

    # ------------------------------------------------------------------ edit
    def append(
        self,
        job: MoldableJob,
        start: float,
        spans: Sequence[MachineSpan],
        duration_override: Optional[float] = None,
    ) -> None:
        """Record one placement (row mode)."""
        row = len(self._jobs)
        self._jobs.append(job)
        self._starts.append(start)
        self._overrides.append(duration_override)
        if duration_override is not None:
            self._any_override = True
        owner = self._span_owner
        firsts = self._span_first
        counts = self._span_count
        for first, count in spans:
            owner.append(row)
            firsts.append(first)
            counts.append(count)

    def extend_columns(
        self,
        jobs: Sequence[MoldableJob],
        starts,
        span_first,
        span_count,
        *,
        span_owner=None,
        duration_overrides: Optional[Sequence[Optional[float]]] = None,
    ) -> None:
        """Record a block of placements from flat columns.

        ``jobs`` and ``starts`` are aligned per entry; ``span_first`` /
        ``span_count`` are aligned per span.  ``span_owner`` maps each span to
        an entry index *within this block* and defaults to one span per entry
        (``span_owner[i] = i``, requiring the span columns to have the same
        length as ``jobs``).
        """
        base = len(self._jobs)
        # kept as given: build() converts and checks every start at once
        starts = starts.tolist() if isinstance(starts, np.ndarray) else list(starts)
        span_first = span_first if isinstance(span_first, np.ndarray) else index_array(span_first)
        span_count = span_count if isinstance(span_count, np.ndarray) else index_array(span_count)
        if len(starts) != len(jobs):
            raise ValueError("jobs and starts must have the same length")
        if span_owner is None:
            if len(span_first) != len(jobs) or len(span_count) != len(jobs):
                raise ValueError(
                    "span columns must be entry-aligned when span_owner is omitted"
                )
            owner_list = range(base, base + len(jobs))
        else:
            span_owner = np.asarray(span_owner)
            if len(span_owner) != len(span_first):
                raise ValueError("span_owner must be span-aligned")
            if len(span_owner) and (
                span_owner.min() < 0 or span_owner.max() >= len(jobs)
            ):
                raise ValueError("span_owner indices out of range for this block")
            owner_list = (span_owner + base).tolist()
        if len(span_first) != len(span_count):
            raise ValueError("span_first and span_count must have the same length")
        self._jobs.extend(jobs)
        self._starts.extend(starts)
        if duration_overrides is None:
            self._overrides.extend([None] * len(jobs))
        else:
            if len(duration_overrides) != len(jobs):
                raise ValueError("duration_overrides must be entry-aligned")
            self._overrides.extend(duration_overrides)
            if any(o is not None for o in duration_overrides):
                self._any_override = True
        self._span_owner.extend(owner_list)
        self._span_first.extend(span_first.tolist())
        self._span_count.extend(span_count.tolist())

    # ----------------------------------------------------------------- build
    def build(self) -> Schedule:
        """Materialize the :class:`Schedule` (one batched pass, no entry objects).

        Raises :class:`ValueError` for exactly the inputs sequential
        ``Schedule.add`` would reject: non-positive span counts, negative
        machine indices, start times or duration overrides that are not
        finite floats, negative start times, entries without spans, and
        overlapping (double-booking) spans within one entry.
        """
        n = len(self._jobs)
        schedule = Schedule(m=self.m, metadata=self.metadata)
        if n == 0:
            return schedule

        owner = np.asarray(self._span_owner, dtype=np.int64)
        # machine indices / counts beyond int64 (astronomical m) land in
        # exact object-dtype columns; every array op below is dtype-agnostic
        first = index_array(self._span_first)
        count = index_array(self._span_count)

        invalid = (count <= 0) | (first < 0)
        if invalid.any():
            # report the first offending span in input order, like the scalar
            # per-span validation loop
            i = int(np.flatnonzero(invalid)[0])
            if count[i] <= 0:
                raise ValueError(f"span count must be positive, got {int(count[i])}")
            raise ValueError(f"span start must be non-negative, got {int(first[i])}")
        # Normalize: sort spans by (owner, first), reject overlaps, merge
        # exact adjacency — the batched twin of ``_normalize_spans``.
        order = np.lexsort((first, owner))
        of = first[order]
        oc = count[order]
        oo = owner[order]
        ends = exact_add(of, oc)
        same_owner = oo[1:] == oo[:-1]
        overlap = same_owner & (of[1:] < ends[:-1])
        if overlap.any():
            i = int(np.flatnonzero(overlap)[0])
            raise ValueError(
                f"overlapping machine spans ({int(of[i])}, {int(oc[i])}) and "
                f"({int(of[i + 1])}, {int(oc[i + 1])}) double-book a machine"
            )
        # only bool / int / float columns convert at once: a float64 cast
        # would also parse a numeric string, which ``Schedule.add`` rejects
        starts = np.asarray(self._starts)
        if starts.dtype.kind in "biuf" and np.isfinite(starts).all():
            starts = starts.astype(np.float64, copy=False)
        else:  # value by value (strings, ints past int64, NaN, ...); raises at a bad one
            starts = np.array([_finite_float(value, "start time") for value in self._starts])
        if starts.min() < 0:
            bad = float(starts[starts < 0][0])
            raise ValueError(f"start time must be non-negative, got {bad}")
        spans_per_entry = np.bincount(owner, minlength=n)
        if spans_per_entry.min() == 0:
            raise ValueError("a scheduled job needs at least one machine span")

        adjacent = same_owner & (of[1:] == ends[:-1])
        new_run = np.concatenate(([True], ~adjacent))
        run_start_idx = np.flatnonzero(new_run)
        run_first = of[run_start_idx]
        run_last_idx = np.concatenate((run_start_idx[1:], [len(of)])) - 1
        run_count = ends[run_last_idx] - run_first
        run_owner = oo[run_start_idx]

        # exact per-entry processor totals: segment sums over the sorted spans.
        # An entry's spans do not overlap, so its total is at most its last
        # span end: int64 sums cannot wrap unless some end already went exact
        entry_start = np.flatnonzero(np.concatenate(([True], oo[1:] != oo[:-1])))
        procs = np.add.reduceat(oc.astype(ends.dtype, copy=False), entry_start)

        runs_per_entry = np.bincount(run_owner, minlength=n)
        span_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(runs_per_entry, out=span_off[1:])

        duration = np.full(n, np.nan, dtype=np.float64)
        has_override = np.zeros(n, dtype=bool)
        if self._any_override:
            for i, override in enumerate(self._overrides):
                if override is not None:
                    has_override[i] = True
                    duration[i] = _finite_float(override, "duration override")

        block = _ColumnBlock(
            n, starts, procs, duration, has_override, span_off, run_first, run_count
        )
        schedule._install_block(list(self._jobs), block)
        return schedule


def schedule_from_arrays(
    jobs: Sequence[MoldableJob],
    m: int,
    job_idx,
    starts,
    span_first,
    span_count,
    *,
    span_owner=None,
    duration_overrides: Optional[Sequence[Optional[float]]] = None,
    metadata: Optional[dict] = None,
) -> Schedule:
    """One-shot columnar assembly: ``Schedule`` from flat NumPy columns.

    ``job_idx[i]`` indexes ``jobs`` for entry row ``i``; the remaining columns
    are as in :meth:`ArraySchedule.extend_columns`.  Equivalent to (but much
    faster than) the sequential loop ::

        schedule = Schedule(m=m, metadata=metadata)
        for i, j in enumerate(job_idx):
            schedule.add(jobs[j], starts[i], [(span_first[i], span_count[i])])
    """
    builder = ArraySchedule(m, metadata=metadata)
    job_idx = np.asarray(job_idx, dtype=np.int64)
    entry_jobs = [jobs[i] for i in job_idx.tolist()]
    builder.extend_columns(
        entry_jobs,
        starts,
        span_first,
        span_count,
        span_owner=span_owner,
        duration_overrides=duration_overrides,
    )
    return builder.build()
