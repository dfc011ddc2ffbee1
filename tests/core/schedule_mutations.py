"""Ways to break a valid schedule, for the validator's tests.

Each mutation takes a schedule and its instance and returns a rebuilt copy
(and the instance it is to be checked against), or ``None`` where it does
not apply.  Some break the schedule for certain (a span past ``m``, a
missing job); others only may (an overlap can land on free machines), and
two leave it valid on purpose (a touch within float tolerance, an
overstated duration).  The copies are plain ``Schedule.add`` rebuilds, so
they work on any schedule the library builds.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.job import MoldableJob, TabulatedJob
from repro.core.schedule import Schedule, ScheduledJob

#: a time offset well inside the validator's float tolerance (1e-9)
SUB_TOLERANCE = 1e-10

Mutated = Optional[Tuple[Schedule, List[MoldableJob]]]


def rebuild(schedule: Schedule, entries) -> Schedule:
    """A copy of ``schedule`` holding ``entries`` (``ScheduledJob`` values)."""
    clone = Schedule(m=schedule.m, metadata=dict(schedule.metadata))
    clone.extend(entries)
    return clone


def _moved(entry: ScheduledJob, start: float, spans=None, override="keep") -> ScheduledJob:
    return ScheduledJob(
        entry.job,
        start,
        entry.spans if spans is None else spans,
        entry.duration_override if override == "keep" else override,
    )


def overlap(schedule, jobs) -> Mutated:
    """The last entry moves onto the first one's start and machines."""
    entries = list(schedule.entries)
    if len(entries) < 2:
        return None
    first = entries[0]
    entries[-1] = _moved(entries[-1], first.start, first.spans)
    return rebuild(schedule, entries), jobs


def sub_tolerance_touch(schedule, jobs) -> Mutated:
    """The last entry starts on the first one's machines a sub-tolerance
    moment before the first one ends."""
    entries = list(schedule.entries)
    if len(entries) < 2:
        return None
    first = entries[0]
    entries[-1] = _moved(entries[-1], max(0.0, first.end - SUB_TOLERANCE), first.spans)
    return rebuild(schedule, entries), jobs


def exact_touch(schedule, jobs) -> Mutated:
    """The last entry starts on the first one's machines as it ends."""
    entries = list(schedule.entries)
    if len(entries) < 2:
        return None
    first = entries[0]
    entries[-1] = _moved(entries[-1], first.end, first.spans)
    return rebuild(schedule, entries), jobs


def span_past_m(schedule, jobs) -> Mutated:
    """The first entry's machines shift so its last one is machine ``m``."""
    entries = list(schedule.entries)
    if not entries:
        return None
    first = entries[0]
    entries[0] = _moved(first, first.start, [(schedule.m - first.processors + 1, first.processors)])
    return rebuild(schedule, entries), jobs


def processors_past_m(schedule, jobs) -> Mutated:
    """The first entry runs on ``m + 1`` machines."""
    entries = list(schedule.entries)
    if not entries:
        return None
    entries[0] = _moved(entries[0], entries[0].start, [(0, schedule.m + 1)])
    return rebuild(schedule, entries), jobs


def missing_job(schedule, jobs) -> Mutated:
    """The last entry is dropped."""
    entries = list(schedule.entries)
    if not entries:
        return None
    return rebuild(schedule, entries[:-1]), jobs


def duplicate_job(schedule, jobs) -> Mutated:
    """The first entry runs a second time, after the makespan."""
    entries = list(schedule.entries)
    if not entries:
        return None
    entries.append(_moved(entries[0], schedule.makespan + 1.0, override=None))
    return rebuild(schedule, entries), jobs


def foreign_job(schedule, jobs) -> Mutated:
    """A job outside the instance runs on machine 0 after the makespan."""
    clone = rebuild(schedule, schedule.entries)
    clone.add(TabulatedJob("stranger", [1.0]), schedule.makespan + 1.0, [(0, 1)])
    return clone, jobs


def understated_override(schedule, jobs) -> Mutated:
    """The first entry records a millionth of its duration."""
    entries = list(schedule.entries)
    if not entries:
        return None
    entries[0] = _moved(entries[0], entries[0].start, override=entries[0].duration * 1e-6)
    return rebuild(schedule, entries), jobs


def overstated_override(schedule, jobs) -> Mutated:
    """The first entry records twice its duration (valid unless it then
    runs into a later entry)."""
    entries = list(schedule.entries)
    if not entries:
        return None
    entries[0] = _moved(entries[0], entries[0].start, override=entries[0].duration * 2.0)
    return rebuild(schedule, entries), jobs


def to_time_zero(schedule, jobs) -> Mutated:
    """The last entry starts at time 0."""
    entries = list(schedule.entries)
    if len(entries) < 2:
        return None
    entries[-1] = _moved(entries[-1], 0.0)
    return rebuild(schedule, entries), jobs


def sub_tolerance_job(schedule, jobs) -> Mutated:
    """A job shorter than the tolerance joins the instance and runs on the
    first entry's machines at its start: a touch, so still valid."""
    entries = list(schedule.entries)
    if not entries:
        return None
    tiny = TabulatedJob("blip", [SUB_TOLERANCE])
    clone = rebuild(schedule, entries)
    clone.add(tiny, entries[0].start, entries[0].spans)
    return clone, list(jobs) + [tiny]


MUTATIONS: Dict[str, Callable[..., Mutated]] = {
    f.__name__: f
    for f in (
        overlap,
        sub_tolerance_touch,
        exact_touch,
        span_past_m,
        processors_past_m,
        missing_job,
        duplicate_job,
        foreign_job,
        understated_override,
        overstated_override,
        to_time_zero,
        sub_tolerance_job,
    )
}
