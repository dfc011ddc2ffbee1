"""Schedules for moldable jobs — a fully *columnar* container.

A schedule assigns every job a start time and a concrete set of machines.
Machine sets are represented by *spans* ``(first_machine, count)`` so that
instances with billions of machines never materialise per-machine data
structures; a job almost always occupies one contiguous span, but unions of
spans are supported (e.g. when a shelf construction reuses scattered leftover
machines).

Storage model
-------------
The single source of truth is a set of flat NumPy columns (one value per
*entry*, plus span-block columns addressed through per-entry offsets):

======================  =====================================================
column                  meaning
======================  =====================================================
``start``               float64 start times
``procs``               int64 total processors per entry
``duration``            float64 durations (``NaN`` = not resolved yet;
                        resolved lazily from the jobs, in one batched kernel
                        pass when a :class:`repro.perf.oracle.BatchedOracle`
                        is supplied)
``has_override``        bool mask of explicit ``duration_override`` values
``span_off``            int64, length ``n+1``: entry ``i`` owns the span rows
                        ``span_off[i]:span_off[i+1]``
``span_first``          int64 first machine per span
``span_count``          int64 machine count per span
======================  =====================================================

plus a per-entry *object* column holding the :class:`MoldableJob` references.
Incremental ``add`` calls append to a small staging buffer which is
consolidated into the NumPy block the next time columns are read; the
columnar builders (:class:`repro.perf.schedule_builder.ArraySchedule`)
install a finished block directly, with zero per-entry conversion work.

:class:`ScheduledJob` entry objects are **views**: they are materialised
lazily from the columns the first time an entry is subscripted or iterated,
and cached.  Algorithms that only need the columns (validators, simulators,
renderers, analysis) never pay for the objects — read
``schedule.columns()`` arrays instead of iterating ``schedule.entries``
when writing vectorized consumers.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .capacity import MAX_COLUMNAR_M, exact_add, index_array, total_fits_int64
from .job import MoldableJob

__all__ = [
    "MachineSpan",
    "ScheduledJob",
    "Schedule",
    "ScheduleColumns",
    "MAX_COLUMNAR_M",
    "grouped_running_count",
    "spans_time_overlap",
]


MachineSpan = Tuple[int, int]
"""A half-open machine range ``(first, count)`` covering machines
``first, first+1, ..., first+count-1`` (0-indexed)."""


def _normalize_spans(spans: Sequence[MachineSpan]) -> Tuple[MachineSpan, ...]:
    cleaned: List[MachineSpan] = []
    for first, count in spans:
        first = int(first)
        count = int(count)
        if count <= 0:
            raise ValueError(f"span count must be positive, got {count}")
        if first < 0:
            raise ValueError(f"span start must be non-negative, got {first}")
        cleaned.append((first, count))
    cleaned.sort()
    # Merge exactly-adjacent spans; *overlapping* spans would allocate the same
    # machine twice to one placement and are rejected (a silent merge used to
    # hide double-booked machines in hand-built span lists).
    merged: List[MachineSpan] = []
    for first, count in cleaned:
        if merged:
            prev_first, prev_count = merged[-1]
            prev_end = prev_first + prev_count
            if first < prev_end:
                raise ValueError(
                    f"overlapping machine spans ({prev_first}, {prev_count}) and "
                    f"({first}, {count}) double-book a machine"
                )
            if first == prev_end:
                merged[-1] = (prev_first, prev_count + count)
                continue
        merged.append((first, count))
    return tuple(merged)


def _finite_float(value, what: str) -> float:
    """``float(value)`` for a finite real ``value``, else :class:`ValueError`:
    the columns hold float64, and a NaN or infinite start would pass every
    ordering check (an int beyond the float range would not convert)."""
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:
        raise ValueError(f"{what} must be a finite float, got an int beyond the float range") from None
    except TypeError:  # None, a string, ...
        raise ValueError(f"{what} must be a finite float, got {value!r}") from None
    raise ValueError(f"{what} must be a finite float, got {float(value)!r}")


class ScheduledJob:
    """One job placed in a schedule.

    Attributes
    ----------
    job:
        The moldable job.
    start:
        Start time (the job runs in ``[start, start + duration)``).
    spans:
        Machine spans; the job uses ``processors = sum(count for _, count in spans)``
        machines for its whole duration.
    duration_override:
        Normally the duration is ``job.processing_time(processors)``.  A few
        constructions (e.g. conceptually "split" jobs in the shelf
        transformation) need to pin the duration explicitly; tests assert that
        overrides never *understate* the true processing time.

    ``start`` and ``duration_override`` are stored as finite floats
    (anything else raises :class:`ValueError`).  Instances are immutable.
    Inside a :class:`Schedule` they are lazy *views* over the schedule's
    columns, materialised on first access.
    """

    __slots__ = ("job", "start", "spans", "duration_override")

    def __init__(
        self,
        job: MoldableJob,
        start: float,
        spans: Sequence[MachineSpan],
        duration_override: Optional[float] = None,
    ) -> None:
        spans = _normalize_spans(spans)
        start = _finite_float(start, "start time")
        if start < 0:
            raise ValueError(f"start time must be non-negative, got {start}")
        if not spans:
            raise ValueError("a scheduled job needs at least one machine span")
        if duration_override is not None:
            duration_override = _finite_float(duration_override, "duration override")
        object.__setattr__(self, "job", job)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "spans", spans)
        object.__setattr__(self, "duration_override", duration_override)

    def __setattr__(self, name, value):  # noqa: ANN001 - frozen semantics
        raise AttributeError(f"ScheduledJob is immutable (cannot set {name!r})")

    def __delattr__(self, name):  # noqa: ANN001 - frozen semantics
        raise AttributeError(f"ScheduledJob is immutable (cannot delete {name!r})")

    def __getstate__(self):
        return (self.job, self.start, self.spans, self.duration_override)

    def __setstate__(self, state) -> None:
        set_attr = object.__setattr__
        for name, value in zip(self.__slots__, state):
            set_attr(self, name, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduledJob):
            return NotImplemented
        return (
            self.job == other.job
            and self.start == other.start
            and self.spans == other.spans
            and self.duration_override == other.duration_override
        )

    def __hash__(self) -> int:
        return hash((self.job, self.start, self.spans, self.duration_override))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ScheduledJob(job={self.job!r}, start={self.start!r}, "
            f"spans={self.spans!r}, duration_override={self.duration_override!r})"
        )

    @property
    def processors(self) -> int:
        return sum(count for _, count in self.spans)

    @property
    def duration(self) -> float:
        if self.duration_override is not None:
            return self.duration_override
        return self.job.processing_time(self.processors)

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def work(self) -> float:
        return self.processors * self.duration

    def machines(self) -> Iterator[int]:
        """Iterate over the individual machine indices (avoid for huge spans)."""
        for first, count in self.spans:
            yield from range(first, first + count)

    def uses_machine(self, machine: int) -> bool:
        return any(first <= machine < first + count for first, count in self.spans)


def _blank_entry(
    job: MoldableJob,
    start: float,
    spans: Tuple[MachineSpan, ...],
    duration_override: Optional[float],
) -> ScheduledJob:
    """Materialise an entry view from already-normalized column data,
    bypassing the constructor's re-validation."""
    entry = ScheduledJob.__new__(ScheduledJob)
    set_attr = object.__setattr__
    set_attr(entry, "job", job)
    set_attr(entry, "start", start)
    set_attr(entry, "spans", spans)
    set_attr(entry, "duration_override", duration_override)
    return entry


class _ColumnBlock:
    """Consolidated flat columns for all entries of a schedule."""

    __slots__ = (
        "n",
        "start",
        "procs",
        "duration",
        "has_override",
        "span_off",
        "span_first",
        "span_count",
    )

    def __init__(
        self,
        n: int,
        start: np.ndarray,
        procs: np.ndarray,
        duration: np.ndarray,
        has_override: np.ndarray,
        span_off: np.ndarray,
        span_first: np.ndarray,
        span_count: np.ndarray,
    ) -> None:
        self.n = n
        self.start = start
        self.procs = procs
        self.duration = duration
        self.has_override = has_override
        self.span_off = span_off
        self.span_first = span_first
        self.span_count = span_count

    @classmethod
    def empty(cls) -> "_ColumnBlock":
        return cls(
            0,
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=bool),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )


class ScheduleColumns:
    """Flat array view of a schedule's columns (shared, not copied).

    Attributes
    ----------
    start, duration, end:
        Per-entry float64 arrays (``end = start + duration``; overrides
        respected).  Durations resolve *lazily*: touching ``duration`` or
        ``end`` (or the event sweep) triggers resolution, so consumers that
        only need starts, processors or spans (certificate extraction,
        serialisation) never pay for oracle calls.
    processors:
        Per-entry int64 processor counts.
    has_override:
        Per-entry bool mask of explicit duration overrides.
    span_owner, span_first, span_end:
        Per-span int64 columns (``span_end`` is exclusive; spans are sorted
        by owner, then by first machine).
    span_off:
        int64, length ``n+1``: entry ``i`` owns span rows
        ``span_off[i]:span_off[i+1]``.

    The peak-busy event sweep shared by the validator, the simulator's
    columnar backend and :meth:`Schedule.peak_processor_usage` lives here
    (:meth:`event_sweep` / :meth:`peak_busy` / :meth:`busy_profile`), so the
    three consumers cannot drift apart on tie-breaking rules.
    """

    __slots__ = (
        "n",
        "start",
        "processors",
        "has_override",
        "span_owner",
        "span_first",
        "span_end",
        "span_off",
        "_schedule",
        "_block",
        "_duration",
        "_end",
        "_sweep",
    )

    def __init__(self, schedule: "Schedule", *, oracle=None) -> None:
        cols = schedule.columns(oracle=oracle)
        for name in ScheduleColumns.__slots__:
            setattr(self, name, getattr(cols, name))

    @classmethod
    def _from_block(cls, block: _ColumnBlock, schedule: "Schedule") -> "ScheduleColumns":
        cols = cls.__new__(cls)
        cols.n = block.n
        cols.start = block.start
        cols.processors = block.procs
        cols.has_override = block.has_override
        spans_per_entry = np.diff(block.span_off)
        cols.span_owner = np.repeat(
            np.arange(block.n, dtype=np.int64), spans_per_entry
        )
        cols.span_first = block.span_first
        cols.span_end = exact_add(block.span_first, block.span_count)
        cols.span_off = block.span_off
        cols._schedule = schedule
        cols._block = block
        cols._duration = None
        cols._end = None
        cols._sweep = None
        return cols

    # --------------------------------------------------- lazy durations
    def _ensure_durations(self, oracle=None) -> np.ndarray:
        if self._duration is None:
            self._schedule._resolve_durations(self._block, oracle)
            self._duration = self._block.duration
        return self._duration

    @property
    def duration(self) -> np.ndarray:
        return self._ensure_durations()

    @property
    def end(self) -> np.ndarray:
        if self._end is None:
            self._end = self.start + self.duration
        return self._end

    def override_values(self) -> List[Optional[float]]:
        """Per-entry ``duration_override`` (``None`` when absent) without
        forcing resolution of the non-overridden durations (override rows
        are always concrete in the duration column)."""
        if not self.has_override.any():
            return [None] * self.n
        raw = self._block.duration
        return [
            float(raw[i]) if flag else None
            for i, flag in enumerate(self.has_override.tolist())
        ]

    # ------------------------------------------------------- event sweep
    def event_sweep(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The shared start/finish event sweep: ``(order, times, running)``.

        ``order`` indexes the concatenated ``(start, end)`` event columns
        (indices ``< n`` are start events), sorted by time with finish events
        before start events at equal times (so back-to-back placements never
        double-count) and *stable* within ties (so equal-time start events
        keep entry order, which downstream float accumulations rely on).
        ``running[k]`` is the number of busy processors after event ``k``;
        int64 columns whose prefix sums could overflow are swept in exact
        object dtype, so the sweep is exact at any magnitude.
        """
        if self._sweep is None:
            n = self.n
            times = np.concatenate((self.start, self.end))
            kinds = np.concatenate(
                (np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64))
            )
            order = np.lexsort((kinds, times))
            procs = self.processors
            if not self.fits_int64_sweep():
                procs = procs.astype(object)  # exact Python-int prefix sums
            deltas = np.concatenate((procs, -procs))[order]
            self._sweep = (order, times[order], np.cumsum(deltas))
        return self._sweep

    def fits_int64_sweep(self) -> bool:
        """Whether int64 prefix sums over the ``2n`` events cannot overflow
        (:meth:`event_sweep` upcasts to object dtype when they could).

        Object-dtype processor columns always pass: their cumsum is exact
        Python-int arithmetic.  For int64 columns the check is *exact* via
        :func:`repro.core.capacity.total_fits_int64` — the historical float
        sum was only trusted up to ``2**53`` and silently accepted totals in
        the ``(2**62, 2**62 + ulp]`` rounding gap."""
        if self.processors.dtype == object:
            return True
        return total_fits_int64(self.processors)

    def peak_busy(self) -> int:
        """Maximum number of simultaneously busy processors (exact at any
        total: see :meth:`event_sweep`)."""
        if self.n == 0:
            return 0
        _, _, running = self.event_sweep()
        return max(0, int(running.max()))

    def busy_profile(self) -> Tuple[np.ndarray, np.ndarray]:
        """Piecewise-constant utilisation: ``(times, busy)`` change points
        (the busy count after the last event of each distinct instant)."""
        if self.n == 0:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        _, t_sorted, running = self.event_sweep()
        change = np.concatenate((t_sorted[1:] != t_sorted[:-1], [True]))
        return t_sorted[change], running[change]


class _EntrySequence:
    """Read-only sequence view over a schedule's lazily materialised entries."""

    __slots__ = ("_schedule",)

    def __init__(self, schedule: "Schedule") -> None:
        self._schedule = schedule

    def __len__(self) -> int:
        return len(self._schedule._jobs)

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            return [self._schedule._entry(i) for i in range(*index.indices(n))]
        i = index.__index__()
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("schedule entry index out of range")
        return self._schedule._entry(i)

    def __iter__(self) -> Iterator[ScheduledJob]:
        schedule = self._schedule
        for i in range(len(schedule._jobs)):
            yield schedule._entry(i)

    def __contains__(self, item: object) -> bool:
        return any(entry is item or entry == item for entry in self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _EntrySequence):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{len(self)} schedule entries>"


class Schedule:
    """A complete schedule on ``m`` machines (columnar storage)."""

    __slots__ = (
        "m",
        "metadata",
        "_jobs",
        "_block",
        "_t_start",
        "_t_procs",
        "_t_override",
        "_t_spans",
        "_views",
        "_cols",
        "_entry_seq",
    )

    def __init__(
        self,
        m: int,
        entries: Optional[Iterable[ScheduledJob]] = None,
        metadata: Optional[dict] = None,
    ) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = m
        self.metadata = metadata if metadata is not None else {}
        self._jobs: List[MoldableJob] = []
        self._block: Optional[_ColumnBlock] = None
        # staging buffers for incremental appends (consolidated lazily)
        self._t_start: List[float] = []
        self._t_procs: List[int] = []
        self._t_override: List[Optional[float]] = []
        self._t_spans: List[Tuple[MachineSpan, ...]] = []
        self._views: List[Optional[ScheduledJob]] = []
        self._cols: Optional[ScheduleColumns] = None
        self._entry_seq = _EntrySequence(self)
        if entries is not None:
            self.extend(entries)

    # ----------------------------------------------------------------- edit
    def add(
        self,
        job: MoldableJob,
        start: float,
        spans: Sequence[MachineSpan],
        duration_override: Optional[float] = None,
    ) -> ScheduledJob:
        entry = ScheduledJob(job, start, tuple(spans), duration_override)
        self._ingest(entry)
        return entry

    def extend(self, entries: Iterable[ScheduledJob]) -> None:
        for entry in entries:
            self._ingest(entry)

    def _ingest(self, entry: ScheduledJob) -> None:
        """Append one (already validated) entry to the staging columns."""
        self._jobs.append(entry.job)
        self._t_start.append(entry.start)
        self._t_procs.append(entry.processors)
        self._t_override.append(entry.duration_override)
        self._t_spans.append(entry.spans)
        self._views.append(entry)
        self._cols = None

    def _install_block(self, jobs: List[MoldableJob], block: _ColumnBlock) -> None:
        """Adopt finished columns wholesale (the zero-conversion builder path)."""
        self._jobs = jobs
        self._block = block
        self._t_start = []
        self._t_procs = []
        self._t_override = []
        self._t_spans = []
        self._views = [None] * block.n
        self._cols = None

    # -------------------------------------------------------------- columns
    def _consolidate(self) -> _ColumnBlock:
        """Merge the staging buffers into the consolidated column block.

        Processor counts and machine indices beyond int64 (compact encodings
        of astronomically wide machines) land in exact object-dtype columns
        via :func:`repro.core.capacity.index_array` — the columnar view no
        longer overflows at any ``m``.
        """
        block = self._block
        if not self._t_start:
            if block is None:
                block = _ColumnBlock.empty()
                self._block = block
            return block
        t_n = len(self._t_start)
        t_start = np.asarray(self._t_start, dtype=np.float64)
        t_procs = index_array(self._t_procs)
        t_has_override = np.fromiter(
            (o is not None for o in self._t_override), dtype=bool, count=t_n
        )
        t_duration = np.fromiter(
            (o if o is not None else np.nan for o in self._t_override),
            dtype=np.float64,
            count=t_n,
        )
        spans_per_entry = np.fromiter(
            (len(s) for s in self._t_spans), dtype=np.int64, count=t_n
        )
        t_span_first = index_array(
            [f for spans in self._t_spans for f, _ in spans]
        )
        t_span_count = index_array(
            [c for spans in self._t_spans for _, c in spans]
        )
        if block is None or block.n == 0:
            span_off = np.zeros(t_n + 1, dtype=np.int64)
            np.cumsum(spans_per_entry, out=span_off[1:])
            merged = _ColumnBlock(
                t_n, t_start, t_procs, t_duration, t_has_override,
                span_off, t_span_first, t_span_count,
            )
        else:
            tail_off = np.empty(t_n, dtype=np.int64)
            np.cumsum(spans_per_entry, out=tail_off)
            merged = _ColumnBlock(
                block.n + t_n,
                np.concatenate((block.start, t_start)),
                np.concatenate((block.procs, t_procs)),
                np.concatenate((block.duration, t_duration)),
                np.concatenate((block.has_override, t_has_override)),
                np.concatenate((block.span_off, tail_off + block.span_off[-1])),
                np.concatenate((block.span_first, t_span_first)),
                np.concatenate((block.span_count, t_span_count)),
            )
        # commit only after every conversion succeeded
        self._block = merged
        self._t_start = []
        self._t_procs = []
        self._t_override = []
        self._t_spans = []
        return merged

    def _resolve_durations(self, block: _ColumnBlock, oracle=None) -> None:
        """Fill the NaN (unresolved) rows of the duration column.

        With an executor from :mod:`repro.perf.oracle` the durations of all
        oracle-known jobs come from one ``times_at`` call (one batched kernel
        pass on the vectorized one); remaining rows fall back to per-job
        ``processing_time`` calls (bit-identical values either way).
        """
        duration = block.duration
        unresolved = np.isnan(duration)
        if not unresolved.any():
            return
        rows = np.flatnonzero(unresolved).tolist()
        jobs = self._jobs
        procs = block.procs
        if oracle is not None:
            index_of = oracle.index_of
            batch_rows: List[int] = []
            batch_jobs: List[int] = []
            rest: List[int] = []
            for i in rows:
                try:
                    batch_jobs.append(index_of(jobs[i]))
                    batch_rows.append(i)
                except KeyError:  # job not part of the oracle's instance
                    rest.append(i)
            if batch_rows:
                r = np.asarray(batch_rows, dtype=np.int64)
                duration[r] = oracle.times_at(procs[r], np.asarray(batch_jobs, dtype=np.int64))
            rows = rest
        for i in rows:
            duration[i] = jobs[i].processing_time(int(procs[i]))

    def columns(self, *, oracle=None) -> ScheduleColumns:
        """The flat column view (cached; rebuilt after mutations).

        Durations stay unresolved until the view's ``duration``/``end``
        columns are touched — except when an ``oracle`` is supplied, in
        which case they are resolved immediately in one batched kernel pass
        (the oracle is at hand *now*; a later lazy access would fall back
        to per-job calls).

        Span values beyond int64 land in exact object-dtype columns (see
        :mod:`repro.core.capacity`), and every start time and duration
        override is a finite float by construction, so every consumer reads
        these columns at any ``m``.
        """
        block = self._consolidate()
        cols = self._cols
        if cols is None:
            cols = ScheduleColumns._from_block(block, self)
            self._cols = cols
        if oracle is not None:
            cols._ensure_durations(oracle)
        return cols

    # ---------------------------------------------------------------- query
    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterator[ScheduledJob]:
        return iter(self._entry_seq)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return (
            self.m == other.m
            and self.metadata == other.metadata
            and list(self.entries) == list(other.entries)
        )

    @property
    def entries(self) -> _EntrySequence:
        """Sequence view of the :class:`ScheduledJob` entries (lazy, cached)."""
        return self._entry_seq

    def _entry(self, i: int) -> ScheduledJob:
        entry = self._views[i]
        if entry is None:
            block = self._block
            lo = block.span_off[i]
            hi = block.span_off[i + 1]
            spans = tuple(
                zip(
                    block.span_first[lo:hi].tolist(),
                    block.span_count[lo:hi].tolist(),
                )
            )
            override = float(block.duration[i]) if block.has_override[i] else None
            entry = _blank_entry(self._jobs[i], float(block.start[i]), spans, override)
            self._views[i] = entry
        return entry

    @property
    def makespan(self) -> float:
        if not self._jobs:
            return 0.0
        return float(self.columns().end.max())

    @property
    def total_work(self) -> float:
        if not self._jobs:
            return 0.0
        cols = self.columns()
        # python-sum in entry order: bit-identical to a per-entry loop
        return sum((cols.processors * cols.duration).tolist())

    def jobs(self) -> List[MoldableJob]:
        return list(self._jobs)

    def entry_for(self, job: MoldableJob) -> ScheduledJob:
        for i, candidate in enumerate(self._jobs):
            if candidate is job:
                return self._entry(i)
        raise KeyError(f"job {job.name!r} is not in the schedule")

    def average_utilization(self) -> float:
        """Fraction of the ``m x makespan`` area covered by jobs."""
        ms = self.makespan
        if ms <= 0:
            return 0.0
        return self.total_work / (self.m * ms)

    def peak_processor_usage(self) -> int:
        """Maximum number of simultaneously busy machines (event sweep).

        The sweep is the shared :meth:`ScheduleColumns.peak_busy` sort +
        prefix sum over the ``2n`` start/finish events (releases sort before
        acquisitions at equal times, so back-to-back placements do not
        double-count).
        """
        return self.columns().peak_busy()

    def sorted_by_start(self) -> List[ScheduledJob]:
        return sorted(self.entries, key=lambda e: (e.start, -e.processors))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Schedule(m={self.m}, jobs={len(self._jobs)}, makespan={self.makespan:.4g})"


# --------------------------------------------------------------------------
# Columnar sweep helpers shared by the validator and the simulator
# --------------------------------------------------------------------------

def grouped_running_count(group_ids: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Per-group running sums of ``deltas`` (both sorted by group already).

    One global prefix sum, then each group is re-based by subtracting the
    prefix value just before its first element — the standard columnar
    substitute for a per-group Python loop.
    """
    run = np.cumsum(deltas)
    if len(run) == 0:
        return run
    new_group = np.concatenate(([True], group_ids[1:] != group_ids[:-1]))
    group_start = np.flatnonzero(new_group)
    base = np.concatenate(([deltas.dtype.type(0)], run[group_start[1:] - 1]))
    sizes = np.diff(np.concatenate((group_start, [len(run)])))
    return run - np.repeat(base, sizes)


def spans_time_overlap(
    span_first: np.ndarray,
    span_end: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    *,
    max_incidences: Optional[int] = None,
) -> Optional[bool]:
    """Detect whether any two busy rectangles (machine span × time interval)
    overlap with positive area.

    This is the O(P log P) sort/prefix-sum core of the vectorized conflict
    checks: machine spans are cut at every distinct span boundary, each piece
    is expanded to the elementary segments it covers, and per segment a
    time-sorted event sweep counts simultaneously active intervals (ends sort
    before starts, so touching intervals never count as two).

    Returns ``True``/``False``, or ``None`` when the expansion would exceed
    ``max_incidences`` (pathologically nested spans) — the caller should fall
    back to a scalar sweep.  The check is *exact* (no float tolerance): a
    ``True`` may still be a within-tolerance touch that a tolerant scalar
    checker would accept, so ``True`` means "re-check", not "infeasible".
    """
    p = len(span_first)
    if p < 2:
        return False
    cuts = np.unique(np.concatenate((span_first, span_end)))
    lo = np.searchsorted(cuts, span_first, side="left")
    hi = np.searchsorted(cuts, span_end, side="left")
    counts = hi - lo
    total = int(counts.sum())
    if max_incidences is not None and total > max_incidences:
        return None
    piece = np.repeat(np.arange(p, dtype=np.int64), counts)
    offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    seg = lo[piece] + within
    ev_seg = np.concatenate((seg, seg))
    ev_time = np.concatenate((start[piece], end[piece]))
    ev_delta = np.concatenate(
        (np.ones(total, dtype=np.int64), -np.ones(total, dtype=np.int64))
    )
    order = np.lexsort((ev_delta, ev_time, ev_seg))
    running = grouped_running_count(ev_seg[order], ev_delta[order])
    return bool(running.size) and int(running.max()) >= 2
