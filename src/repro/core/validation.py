"""Schedule and job validation.

Every algorithm in this library validates the schedules it returns;
:func:`validate_schedule` implements the checks:

* **Completeness** — every input job is scheduled exactly once.
* **Machine bounds** — all machine spans lie within ``[0, m)``.
* **No conflicts** — no machine executes two jobs at the same time.
* **Duration consistency** — the recorded duration of each placement is at
  least the oracle processing time for the allotted processor count
  (durations may be *over*-stated by shelf constructions but never
  under-stated).

The checks read the schedules' columns
(:class:`repro.core.schedule.ScheduleColumns`) and run as O(n log n)
sort/prefix-sum passes, so validating a 10^5-job schedule costs about as
much as building it, and no check iterates over the (possibly
astronomically many) machines.  They run over K schedules at once
(:func:`flag_schedules`, which the mega batch calls on its whole pack):
the schedules' column blocks are concatenated, bounds compare each row
with its own schedule's ``m``, completeness counts each scheduled job's
position in its instance with one ``bincount``, and the exact conflict
sweep (:func:`repro.core.schedule.spans_time_overlap`) keeps the schedules
apart with a group key, so machine indices are never offset and the sweep
stays exact at any ``m``.  :func:`validate_schedule` is the pack of one.
Only a check that flags a schedule runs its per-entry message path: the
tolerant sweep over machine-span boundaries (:func:`_machine_conflicts`)
decides a flagged overlap, treating overlaps within float tolerance as
touching, and words the messages.  :func:`placement_violations` bundles the
bounds and conflict checks; the discrete-event simulator
(:mod:`repro.simulator.engine`) takes its verdict from the same function,
and its busy-processor count from :func:`released_running`, which also
gives the validator's reported peak.

Job-level monotony checks (`non-increasing processing time`, `non-decreasing
work`) are also provided; they are O(k_max) and intended for tests and
instance sanity checks, not for the algorithms themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .job import MoldableJob
from .schedule import Schedule, ScheduleColumns, ScheduledJob, spans_time_overlap

__all__ = [
    "ValidationError",
    "ValidationReport",
    "Violation",
    "CONFLICT",
    "BAD_SPAN",
    "BAD_PROCS",
    "BAD_DURATION",
    "MISSING_JOB",
    "DUPLICATE_JOB",
    "FOREIGN_JOB",
    "MAKESPAN_EXCEEDED",
    "validate_schedule",
    "assert_valid_schedule",
    "flag_schedules",
    "job_positions",
    "placement_violations",
    "released_running",
    "is_nonincreasing_time",
    "is_monotone_work",
    "check_monotone_job",
]

#: Relative tolerance used when comparing floating-point times.
REL_TOL = 1e-9
#: Absolute tolerance used when comparing floating-point times.
ABS_TOL = 1e-9


class ValidationError(AssertionError):
    """Raised by :func:`assert_valid_schedule` when a schedule is infeasible."""


# Machine-readable violation codes (``Violation.code`` values).
CONFLICT = "CONFLICT"
BAD_SPAN = "BAD_SPAN"
BAD_PROCS = "BAD_PROCS"
BAD_DURATION = "BAD_DURATION"
MISSING_JOB = "MISSING_JOB"
DUPLICATE_JOB = "DUPLICATE_JOB"
FOREIGN_JOB = "FOREIGN_JOB"
MAKESPAN_EXCEEDED = "MAKESPAN_EXCEEDED"


class Violation(str):
    """A violation message carrying a machine-readable ``code``.

    A ``str`` subclass: violations compare, join (``"; ".join(...)``) and
    match substrings like plain messages, while tests can assert on
    ``violation.code`` instead of brittle message substrings.
    """

    __slots__ = ("code",)

    code: str

    def __new__(cls, code: str, message: str) -> "Violation":
        obj = super().__new__(cls, message)
        obj.code = code
        return obj


@dataclass
class ValidationReport:
    """Result of :func:`validate_schedule`."""

    ok: bool
    violations: List[str] = field(default_factory=list)
    makespan: float = 0.0
    peak_processors: int = 0

    def __bool__(self) -> bool:
        return self.ok

    @property
    def codes(self) -> List[str]:
        """Machine-readable codes of the violations, in report order."""
        return [getattr(v, "code", "UNKNOWN") for v in self.violations]

    def has(self, code: str) -> bool:
        """Whether any violation carries the given code."""
        return code in self.codes


def _approx_le(a: float, b: float) -> bool:
    return a <= b + ABS_TOL + REL_TOL * max(abs(a), abs(b))


def _overlap(a_start: float, a_end: float, b_start: float, b_end: float) -> bool:
    """Strict time-interval overlap with tolerance (touching intervals ok)."""
    lo = max(a_start, b_start)
    hi = min(a_end, b_end)
    return hi - lo > ABS_TOL + REL_TOL * max(abs(hi), abs(lo), 1.0)


def _machine_conflicts(entries: Sequence[ScheduledJob]) -> List[str]:
    """Detect conflicts via a sweep over machine-span boundaries.

    Spans are cut at every distinct boundary; within one elementary machine
    interval the covering placements must have pairwise disjoint time
    intervals, which we verify by sorting by start time and checking each
    entry against its predecessor and, when that pair does not overlap,
    against the longest-running earlier entry (an entry shorter than the
    tolerance between two others must not hide their overlap).
    """
    violations: List[str] = []
    # (machine_first, machine_end, entry)
    pieces: List[Tuple[int, int, ScheduledJob]] = []
    boundaries: set[int] = set()
    for entry in entries:
        for first, count in entry.spans:
            pieces.append((first, first + count, entry))
            boundaries.add(first)
            boundaries.add(first + count)
    if not pieces:
        return violations
    cuts = sorted(boundaries)
    # map each piece to the elementary intervals it covers; to stay near-linear
    # we sweep over cuts with an active list.
    pieces.sort(key=lambda p: p[0])

    active: List[Tuple[int, ScheduledJob]] = []  # (machine_end, entry)
    idx = 0
    reported: set[tuple[int, int]] = set()

    def report(a: ScheduledJob, b: ScheduledJob, lo: int, hi: int) -> None:
        key = (id(a), id(b))
        if key not in reported:
            reported.add(key)
            violations.append(
                Violation(
                    CONFLICT,
                    f"machine conflict on machines [{lo}, {hi}): "
                    f"job {a.job.name!r} [{a.start:.6g}, {a.end:.6g}) overlaps "
                    f"job {b.job.name!r} [{b.start:.6g}, {b.end:.6g})",
                )
            )

    for ci in range(len(cuts) - 1):
        seg_start = cuts[ci]
        # add pieces starting here
        while idx < len(pieces) and pieces[idx][0] <= seg_start:
            active.append((pieces[idx][1], pieces[idx][2]))
            idx += 1
        # drop pieces that ended
        active = [(end, e) for end, e in active if end > seg_start]
        if len(active) > 1:
            # check time overlap among active entries on this segment
            stacked = sorted(active, key=lambda p: p[1].start)
            longest = stacked[0][1]
            for i in range(len(stacked) - 1):
                a = stacked[i][1]
                b = stacked[i + 1][1]
                if a.end > longest.end:
                    longest = a
                if a is b:
                    continue
                if _overlap(a.start, a.end, b.start, b.end):
                    report(a, b, seg_start, cuts[ci + 1])
                elif longest is not a and _overlap(longest.start, longest.end, b.start, b.end):
                    report(longest, b, seg_start, cuts[ci + 1])
    return violations


def _bounds_violations(entries: Sequence[ScheduledJob], m: int) -> List[str]:
    violations: List[str] = []
    for entry in entries:
        for first, count in entry.spans:
            if first + count > m:
                violations.append(
                    Violation(
                        BAD_SPAN,
                        f"job {entry.job.name!r}: span ({first}, {count}) exceeds machine count m={m}",
                    )
                )
        if entry.processors > m:
            violations.append(
                Violation(
                    BAD_PROCS,
                    f"job {entry.job.name!r}: uses {entry.processors} > m={m} processors",
                )
            )
    return violations


def _understates(override: float, oracle: float) -> bool:
    """Whether a recorded duration understates the oracle time."""
    return override + ABS_TOL < oracle * (1 - REL_TOL)


def _duration_violation(entry: ScheduledJob, oracle: float) -> Optional[str]:
    if entry.duration_override is not None and _understates(entry.duration_override, oracle):
        return Violation(
            BAD_DURATION,
            f"job {entry.job.name!r}: recorded duration {entry.duration_override:.6g} understates "
            f"oracle time {oracle:.6g} on {entry.processors} processors",
        )
    return None


def _completeness_violations(
    scheduled: Sequence[MoldableJob], jobs: Iterable[MoldableJob]
) -> List[str]:
    violations: List[str] = []
    wanted = list(jobs)
    scheduled_ids: dict = {}
    for job in scheduled:
        scheduled_ids[id(job)] = scheduled_ids.get(id(job), 0) + 1
    for job in wanted:
        cnt = scheduled_ids.get(id(job), 0)
        if cnt == 0:
            violations.append(
                Violation(MISSING_JOB, f"job {job.name!r} is missing from the schedule")
            )
        elif cnt > 1:
            violations.append(
                Violation(DUPLICATE_JOB, f"job {job.name!r} is scheduled {cnt} times")
            )
    wanted_ids = {id(job) for job in wanted}
    for job in scheduled:
        if id(job) not in wanted_ids:
            violations.append(
                Violation(
                    FOREIGN_JOB,
                    f"job {job.name!r} was scheduled but is not part of the instance",
                )
            )
    return violations


def job_positions(scheduled: Sequence[MoldableJob], index: Dict[int, int]) -> np.ndarray:
    """Each scheduled job's position in the instance, ``-1`` for a job the
    instance lacks; ``index`` maps ``id(job)`` to the position (an
    executor's ``job_index`` over the instance, say)."""
    n = len(scheduled)
    return np.fromiter(map(index.get, map(id, scheduled), repeat(-1, n)), dtype=np.int64, count=n)


def _instance_index(jobs: Sequence[MoldableJob]) -> Dict[int, int]:
    """``id(job)`` → position over an instance's job list."""
    return dict(zip(map(id, jobs), range(len(jobs))))


#: Expansion budget of the columnar conflict sweep: schedules whose spans
#: nest so pathologically that cutting them at all boundaries exceeds this
#: many pieces go straight to the tolerant sweep instead.
_CONFLICT_INCIDENCE_CAP = 1_000_000


class _Flags(NamedTuple):
    """Per-schedule columnar verdicts, one bool array per check; a raised
    flag sends the schedule to that check's per-entry message path."""

    bounds: np.ndarray
    durations: np.ndarray
    completeness: np.ndarray
    conflicts: np.ndarray

    def any(self) -> np.ndarray:
        return self.bounds | self.durations | self.completeness | self.conflicts


def _packs_with_others(schedule: Schedule, cols: ScheduleColumns) -> bool:
    """Whether a schedule's columns can join a concatenated pack: int64
    spans and counts, and an ``m`` a per-row int64 column holds."""
    return (
        schedule.m <= np.iinfo(np.int64).max
        and cols.processors.dtype != object
        and cols.span_first.dtype != object
        and cols.span_end.dtype != object
    )


def _columnar_flags(
    schedules: Sequence[Schedule],
    positions: Sequence[Optional[np.ndarray]],
    sizes: Sequence[int],
    durations: bool,
) -> _Flags:
    """The columnar checks over the concatenated columns of ``schedules``
    (see :func:`flag_schedules`)."""
    k = len(schedules)
    cols = [s.columns() for s in schedules]
    members = np.arange(k)
    n_rows = [c.n for c in cols]
    first_row = np.cumsum([0] + n_rows[:-1])
    entry_owner = np.repeat(members, n_rows)
    span_member = np.repeat(members, [len(c.span_first) for c in cols])
    processors = np.concatenate([c.processors for c in cols])
    span_first = np.concatenate([c.span_first for c in cols])
    span_end = np.concatenate([c.span_end for c in cols])
    span_owner = np.concatenate([c.span_owner for c in cols]) + first_row[span_member]
    ms = [s.m for s in schedules]
    ms = np.array(ms, dtype=np.int64 if max(ms) <= np.iinfo(np.int64).max else object)

    def flagged(owners: np.ndarray) -> np.ndarray:
        out = np.zeros(k, dtype=bool)
        out[owners] = True
        return out

    bounds = flagged(entry_owner[processors > ms[entry_owner]]) | flagged(
        span_member[span_end > ms[span_member]]
    )

    bad_durations = np.zeros(k, dtype=bool)
    has_override = np.concatenate([c.has_override for c in cols])
    if durations and has_override.any():
        for row in np.flatnonzero(has_override).tolist():
            s = int(entry_owner[row])
            i = row - int(first_row[s])
            oracle = schedules[s]._jobs[i].processing_time(int(cols[s].processors[i]))
            if _understates(float(cols[s].duration[i]), oracle):
                bad_durations[s] = True

    completeness = np.zeros(k, dtype=bool)
    checked = [s for s in range(k) if positions[s] is not None]
    if checked:
        wanted_owner = np.repeat(checked, [sizes[s] for s in checked])
        first_wanted = np.cumsum([0] + [sizes[s] for s in checked[:-1]])
        pos = np.concatenate([positions[s] for s in checked])
        owner = np.repeat(checked, [len(positions[s]) for s in checked])
        foreign = pos < 0
        # a job's slot over the pack: its position plus its instance's offset
        slots = pos[~foreign] + np.repeat(first_wanted, [len(positions[s]) for s in checked])[~foreign]
        counts = np.bincount(slots, minlength=len(wanted_owner))
        completeness = flagged(owner[foreign]) | flagged(wanted_owner[counts != 1])

    start = np.concatenate([c.start for c in cols])
    end = np.concatenate([c.end for c in cols])
    overlap = spans_time_overlap(
        span_first,
        span_end,
        start[span_owner],
        end[span_owner],
        max_incidences=max(_CONFLICT_INCIDENCE_CAP, 8 * len(span_first)),
        group=span_member,
    )
    # too nested to expand: the tolerant sweep decides for every member
    conflicts = np.ones(k, dtype=bool) if overlap is None else flagged(np.flatnonzero(overlap))
    return _Flags(bounds, bad_durations, completeness, conflicts)


def flag_schedules(
    schedules: Sequence[Schedule],
    positions: Sequence[Optional[np.ndarray]],
    sizes: Sequence[int],
    *,
    durations: bool = True,
) -> _Flags:
    """The columnar verdict over K schedules at once, one flag array per
    check.  A schedule no check flags passes the bounds,
    understated-override, completeness and exact conflict checks outright,
    so :func:`validate_schedule` reports no violation for it (a
    ``max_makespan`` bound aside).  A flag sends it to that check's
    per-entry path, which words the violations, or finds none where the
    only flag is a within-tolerance touch.

    ``positions[k]`` is :func:`job_positions` of schedule ``k`` against its
    instance of ``sizes[k]`` jobs (``None`` skips the completeness check);
    ``durations=False`` skips the override check.  The schedules' columns
    are concatenated and each check runs once over the pack: bounds compare
    every row with its own schedule's ``m``, completeness counts the
    positions with one ``bincount``, and conflicts are one
    :func:`spans_time_overlap` sweep keyed by schedule.  Schedules whose
    columns need exact object dtype, or whose ``m`` passes int64, are
    checked one at a time.  Durations resolve the way
    :meth:`Schedule.columns` resolves them, so resolve them first where an
    executor is at hand.
    """
    k = len(schedules)
    flags = _Flags(*(np.zeros(k, dtype=bool) for _ in _Flags._fields))
    packs = [s for s in range(k) if _packs_with_others(schedules[s], schedules[s].columns())]
    alone = sorted(set(range(k)).difference(packs))
    for members in ([packs] if packs else []) + [[s] for s in alone]:
        part = _columnar_flags(
            [schedules[s] for s in members],
            [positions[s] for s in members],
            [sizes[s] for s in members],
            durations,
        )
        for out, flagged in zip(flags, part):
            out[members] = flagged
    return flags


def placement_violations(
    schedule: Schedule, cols: ScheduleColumns
) -> Tuple[List[str], List[str]]:
    """The machine-bounds and the machine-conflict violations of a schedule,
    as two lists, read from its columns ``cols``.

    Both lists are empty without any per-entry Python pass unless a span
    leaves ``[0, m)`` or the exact columnar sweep sees a potential overlap;
    only then are entries materialised, for the tolerant verdict and the
    messages.
    """
    flags = flag_schedules([schedule], [None], [0], durations=False)
    return _placement_messages(schedule, flags)


def _placement_messages(schedule: Schedule, flags: _Flags) -> Tuple[List[str], List[str]]:
    bounds = _bounds_violations(schedule.entries, schedule.m) if flags.bounds[0] else []
    conflicts = _machine_conflicts(schedule.entries) if flags.conflicts[0] else []
    return bounds, conflicts


def _touches(earlier: np.ndarray, later: np.ndarray) -> np.ndarray:
    """Elementwise ``later - earlier <= ABS_TOL + REL_TOL * max(1, |earlier|,
    |later|)``: the times touch under the verdict's tolerance (the negation
    of :func:`_overlap` for ``lo = earlier``, ``hi = later``)."""
    scale = np.maximum(np.maximum(np.abs(later), np.abs(earlier)), 1.0)
    return later - earlier <= ABS_TOL + REL_TOL * scale


def released_running(cols: ScheduleColumns, idle: Optional[np.ndarray] = None) -> np.ndarray:
    """Busy processors after each event of ``cols.event_sweep()``, with a
    running job released at the first later start its end lies within
    float tolerance of (the verdict's rule for when two times touch), and
    the jobs of the bool mask ``idle`` holding no machine (by default those
    whose end is not after their start)."""
    n = cols.n
    order, t_sorted, _ = cols.event_sweep()
    is_start = order < n
    start_order = order[is_start]
    starts = t_sorted[is_start]
    end = cols.end
    if idle is None:
        idle = end <= cols.start
    position = np.empty(n, dtype=np.int64)
    position[start_order] = np.arange(n, dtype=np.int64)
    # the -procs delta of an early-released job moves onto that start
    release = np.maximum(_first_start_within_tolerance(starts, end), position + 1)
    early = release < n
    early[early] = starts[release[early]] < end[early]
    procs = cols.processors
    if not cols.fits_int64_sweep():
        procs = procs.astype(object)  # exact Python-int prefix sums
    procs = np.where(idle, 0, procs)
    start_delta = procs.copy()
    np.subtract.at(start_delta, start_order[release[early]], procs[early])
    finish_delta = np.where(early, 0, -procs)
    return np.cumsum(np.concatenate((start_delta, finish_delta))[order])


def _first_start_within_tolerance(starts: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per end time, the first index into the sorted ``starts`` at which
    ``end - start <= ABS_TOL + REL_TOL * max(1, |end|, |start|)`` holds
    (``len(starts)`` when none does): the validator's rule for when two
    times touch.

    The test is monotone in the start time, so a ``searchsorted`` on the
    threshold at ``|start| = |end|`` lands next to the answer; rounding can
    put it a few distinct start times off, and the exact test settles it.
    """
    n = len(starts)

    def within(k: np.ndarray) -> np.ndarray:
        return (k >= 0) & (k < n) & _touches(starts[np.clip(k, 0, n - 1)], end)

    k = np.searchsorted(starts, end - (ABS_TOL + REL_TOL * np.maximum(np.abs(end), 1.0)))
    while True:
        back = within(k - 1)
        forward = ~back & (k < n) & ~within(k)
        if not (back.any() or forward.any()):
            return k
        k[back] = np.searchsorted(starts, starts[k[back] - 1], side="left")
        k[forward] = np.searchsorted(starts, starts[k[forward]], side="right")


def validate_schedule(
    schedule: Schedule,
    jobs: Optional[Iterable[MoldableJob]] = None,
    *,
    max_makespan: Optional[float] = None,
    require_all_jobs: bool = True,
    oracle=None,
) -> ValidationReport:
    """Check a schedule for feasibility.

    The pack of one of :func:`flag_schedules`: the columnar checks run
    first, and only the checks they flag run their per-entry message path.
    Exact at any ``m``: span values beyond int64 ride exact object-dtype
    columns (see :mod:`repro.core.capacity`), and every check is
    dtype-agnostic.  Entry objects are materialised only for the rows a
    violation message needs.

    ``peak_processors`` counts busy processors under the verdict's float
    tolerance (:func:`released_running`): a job whose end lies within
    tolerance of a later start is released there, as
    :func:`repro.simulator.engine.simulate_schedule` releases it, and a job
    shorter than the tolerance, which touches every other job, holds no
    machine.  So a valid schedule never reports more than ``m``.

    Parameters
    ----------
    schedule:
        The schedule to validate.
    jobs:
        If given and ``require_all_jobs`` is true, every job must appear in the
        schedule exactly once (and no foreign job may appear).
    max_makespan:
        Optional upper bound the makespan must respect.
    oracle:
        Optional :class:`repro.perf.oracle.BatchedOracle` covering the
        schedule's jobs; entry durations are then evaluated in one batched
        kernel pass instead of per-entry oracle calls (bit-identical values).
    """
    cols = schedule.columns(oracle=oracle)
    wanted = list(jobs) if jobs is not None and require_all_jobs else None
    positions = None
    if wanted is not None:
        # the executor's index serves when it is over this very job list
        index = oracle.job_index if oracle is not None and oracle.jobs == wanted else _instance_index(wanted)
        positions = job_positions(schedule._jobs, index)
    flags = flag_schedules([schedule], [positions], [0 if wanted is None else len(wanted)])
    violations: List[str] = []
    if flags.any()[0]:
        bounds, conflicts = _placement_messages(schedule, flags)
        violations.extend(bounds)
        # duration consistency (only overridden entries can violate; the
        # others' durations are the oracle times by construction)
        if flags.durations[0]:
            for i in np.flatnonzero(cols.has_override).tolist():
                entry = schedule.entries[i]
                message = _duration_violation(entry, entry.job.processing_time(entry.processors))
                if message is not None:
                    violations.append(message)
        if flags.completeness[0]:
            violations.extend(_completeness_violations(schedule.jobs(), wanted))
        violations.extend(conflicts)

    ms = float(cols.end.max()) if cols.n else 0.0
    if max_makespan is not None and not _approx_le(ms, max_makespan):
        violations.append(
            Violation(MAKESPAN_EXCEEDED, f"makespan {ms:.6g} exceeds bound {max_makespan:.6g}")
        )

    return ValidationReport(
        ok=not violations,
        violations=violations,
        makespan=ms,
        # a job shorter than the tolerance touches every other one, so it
        # holds no machine under the verdict
        peak_processors=(
            max(0, int(released_running(cols, _touches(cols.start, cols.end)).max())) if cols.n else 0
        ),
    )


def assert_valid_schedule(
    schedule: Schedule,
    jobs: Optional[Iterable[MoldableJob]] = None,
    *,
    max_makespan: Optional[float] = None,
    oracle=None,
) -> ValidationReport:
    """Like :func:`validate_schedule` but raises :class:`ValidationError`."""
    report = validate_schedule(schedule, jobs, max_makespan=max_makespan, oracle=oracle)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))
    return report


# --------------------------------------------------------------------------
# Job-level checks
# --------------------------------------------------------------------------

def is_nonincreasing_time(job: MoldableJob, k_max: int) -> bool:
    """True iff ``t_j(k)`` is non-increasing for ``k = 1..k_max``."""
    prev = job.processing_time(1)
    for k in range(2, k_max + 1):
        cur = job.processing_time(k)
        if cur > prev * (1 + REL_TOL) + ABS_TOL:
            return False
        prev = cur
    return True


def is_monotone_work(job: MoldableJob, k_max: int) -> bool:
    """True iff ``w_j(k) = k * t_j(k)`` is non-decreasing for ``k = 1..k_max``."""
    prev = job.work(1)
    for k in range(2, k_max + 1):
        cur = job.work(k)
        if cur < prev * (1 - REL_TOL) - ABS_TOL:
            return False
        prev = cur
    return True


def check_monotone_job(job: MoldableJob, k_max: int) -> None:
    """Raise :class:`ValueError` if the job violates either monotony property."""
    if not is_nonincreasing_time(job, k_max):
        raise ValueError(f"job {job.name!r}: processing time is not non-increasing up to k={k_max}")
    if not is_monotone_work(job, k_max):
        raise ValueError(f"job {job.name!r}: work is not non-decreasing up to k={k_max}")
