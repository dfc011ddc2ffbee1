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

The checks read the schedule's columns
(:class:`repro.core.schedule.ScheduleColumns`) and run as O(n log n)
sort/prefix-sum passes, so validating a 10^5-job schedule costs about as
much as building it, and no check iterates over the (possibly
astronomically many) machines.  The conflict check is a two-stage sweep:
the exact columnar sweep (:func:`repro.core.schedule.spans_time_overlap`)
flags any *potential* overlap, and only then does the tolerant sweep over
machine-span boundaries (:func:`_machine_conflicts`) decide, treating
overlaps within float tolerance as touching, and word the messages.
:func:`placement_violations` bundles the bounds and conflict checks; the
discrete-event simulator (:mod:`repro.simulator.engine`) takes its verdict
from the same function.

Job-level monotony checks (`non-increasing processing time`, `non-decreasing
work`) are also provided; they are O(k_max) and intended for tests and
instance sanity checks, not for the algorithms themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

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


def _duration_violation(entry: ScheduledJob, oracle: float) -> Optional[str]:
    if entry.duration_override is not None and entry.duration_override + ABS_TOL < oracle * (1 - REL_TOL):
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


#: Expansion budget of the columnar conflict sweep: schedules whose spans
#: nest so pathologically that cutting them at all boundaries exceeds this
#: many pieces go straight to the tolerant sweep instead.
_CONFLICT_INCIDENCE_CAP = 1_000_000


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
    m = schedule.m
    bounds: List[str] = []
    if (cols.span_end > m).any() or (cols.processors > m).any():
        bounds = _bounds_violations(schedule.entries, m)
    suspicious = spans_time_overlap(
        cols.span_first,
        cols.span_end,
        cols.start[cols.span_owner],
        cols.end[cols.span_owner],
        max_incidences=max(_CONFLICT_INCIDENCE_CAP, 8 * len(cols.span_first)),
    )
    conflicts: List[str] = []
    if suspicious is None or suspicious:
        conflicts = _machine_conflicts(schedule.entries)
    return bounds, conflicts


def validate_schedule(
    schedule: Schedule,
    jobs: Optional[Iterable[MoldableJob]] = None,
    *,
    max_makespan: Optional[float] = None,
    require_all_jobs: bool = True,
    oracle=None,
) -> ValidationReport:
    """Check a schedule for feasibility.

    Exact at any ``m``: span values beyond int64 ride exact object-dtype
    columns (see :mod:`repro.core.capacity`), and every check is
    dtype-agnostic.  Entry objects are materialised only for the rows a
    violation message needs.

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
    bounds, conflicts = placement_violations(schedule, cols)
    violations: List[str] = list(bounds)

    # duration consistency (only overridden entries can violate; the others'
    # durations are the oracle times by construction)
    for i in np.flatnonzero(cols.has_override).tolist():
        entry = schedule.entries[i]
        message = _duration_violation(entry, entry.job.processing_time(entry.processors))
        if message is not None:
            violations.append(message)

    if jobs is not None and require_all_jobs:
        violations.extend(_completeness_violations(schedule.jobs(), jobs))

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
        # peak busy machines: the shared event sort + prefix sum
        peak_processors=cols.peak_busy(),
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
