"""Pure-Python reference validator, kept as the tests' baseline.

:func:`repro.core.validation.validate_schedule` reads the schedule's
columns: it flags machine-bound violations with array comparisons, asks
the exact columnar sweep whether any two placements may overlap before it
runs the tolerant conflict sweep, and takes the makespan and the peak from
the columns.  This module holds the entry-by-entry path it must match
report for report: every entry's spans and recorded duration are checked
one at a time, and the tolerant conflict sweep always runs.  The message
helpers are the library's own, so violation texts compare equal.  The peak
is the reference event loop's (``tests/simulator/reference_sim.py``), which
releases a job whose end lies within float tolerance of a later start, run
without the entries shorter than the tolerance: those touch every other
entry under the verdict, so they hold no machine.
"""

from __future__ import annotations

import os
import sys
from typing import Iterable, List, Optional

from repro.core.job import MoldableJob
from repro.core.schedule import Schedule
from repro.core.validation import (
    MAKESPAN_EXCEEDED,
    ValidationReport,
    Violation,
    _approx_le,
    _bounds_violations,
    _completeness_violations,
    _duration_violation,
    _machine_conflicts,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "simulator"))
from reference_sim import _time_tol, reference_simulate  # noqa: E402


def _tolerant_peak(schedule: Schedule) -> int:
    held = Schedule(m=schedule.m)
    held.extend(e for e in schedule.entries if e.end - e.start > _time_tol(e.end, e.start))
    return reference_simulate(held, strict=False).peak_busy


def reference_validate(
    schedule: Schedule,
    jobs: Optional[Iterable[MoldableJob]] = None,
    *,
    max_makespan: Optional[float] = None,
    require_all_jobs: bool = True,
) -> ValidationReport:
    """Entry-by-entry twin of :func:`repro.core.validation.validate_schedule`."""
    violations: List[str] = []
    entries = schedule.entries

    violations.extend(_bounds_violations(entries, schedule.m))

    for entry in entries:
        oracle = entry.job.processing_time(entry.processors)
        message = _duration_violation(entry, oracle)
        if message is not None:
            violations.append(message)

    if jobs is not None and require_all_jobs:
        violations.extend(_completeness_violations(schedule.jobs(), jobs))

    violations.extend(_machine_conflicts(entries))

    ms = schedule.makespan
    if max_makespan is not None and not _approx_le(ms, max_makespan):
        violations.append(
            Violation(MAKESPAN_EXCEEDED, f"makespan {ms:.6g} exceeds bound {max_makespan:.6g}")
        )

    return ValidationReport(
        ok=not violations,
        violations=violations,
        makespan=ms,
        peak_processors=_tolerant_peak(schedule),
    )
