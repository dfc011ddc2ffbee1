"""ASCII Gantt-chart and shelf renderings.

The paper's Figures 1–3 are structural diagrams of schedules; these helpers
render the corresponding pictures as text so that the figure-reproduction
experiments can print them.  Machine rows are grouped (a job occupying a
contiguous span of machines is drawn once with its height annotated), so the
output stays readable even for schedules on thousands of machines.

Rendering reads the schedule's flat columns directly (start / end /
processor arrays): the row geometry for a 10^5-job schedule is computed with
a handful of array operations, and job *objects* are only touched for the
``max_rows`` rows actually shown.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.schedule import Schedule

__all__ = ["render_gantt", "render_shelves"]


def render_gantt(
    schedule: Schedule,
    *,
    width: int = 72,
    max_rows: int = 40,
    label_width: int = 14,
) -> str:
    """Render a schedule as an ASCII Gantt chart.

    One row per scheduled job (grouped spans), time on the horizontal axis.
    """
    n = len(schedule)
    if n == 0:
        return "(empty schedule)"
    cols = schedule.columns()
    starts, ends, procs = cols.start, cols.end, cols.processors
    horizon = float(ends.max())
    if horizon <= 0:
        return "(zero-length schedule)"
    rows: List[str] = []
    header = f"{'job':<{label_width}} |" + f" 0 {'·' * (width - 10)} {horizon:.3g}"
    rows.append(header)
    # same ordering as ``Schedule.sorted_by_start``: by start, widest first
    order = np.lexsort((-procs, starts))
    shown = order[:max_rows].tolist()
    jobs = schedule.jobs()
    start_cols = np.rint(starts[order[:max_rows]] / horizon * width).astype(np.int64)
    end_cols = np.maximum(
        start_cols + 1, np.rint(ends[order[:max_rows]] / horizon * width).astype(np.int64)
    )
    for i, entry_idx in enumerate(shown):
        start_col = int(start_cols[i])
        end_col = int(end_cols[i])
        bar = " " * start_col + "█" * (end_col - start_col)
        name = jobs[entry_idx].name
        label = f"{name[:label_width - 1]:<{label_width - 1}}"
        rows.append(f"{label} |{bar[:width]}| p={int(procs[entry_idx])}")
    if n > max_rows:
        rows.append(f"... ({n - max_rows} more jobs not shown)")
    return "\n".join(rows)


def render_shelves(
    schedule: Schedule,
    d: float,
    *,
    width: int = 72,
    max_rows: int = 40,
) -> str:
    """Render a shelf-structured schedule (Figures 2 and 3).

    Jobs are classified by their start/end relative to the shelf boundaries
    ``0``, ``d`` and ``3d/2``: S1 jobs start at 0 and are at most ``d`` long,
    S2 jobs end at ``3d/2``, S0 jobs run alongside both shelves, and small
    jobs fill the remaining gaps.  The classification runs on the schedule's
    columns (one boolean mask per shelf), never on entry objects.
    """
    half = 1.5 * d
    cols = schedule.columns()
    start, duration, end, procs = cols.start, cols.duration, cols.end, cols.processors
    starts_at_zero = start <= 1e-9
    s0 = starts_at_zero & (duration > d * 1.0 + 1e-9)
    s1 = starts_at_zero & ~s0 & (duration > d / 2.0 + 1e-9)
    s2 = (
        ~s0
        & ~s1
        & (np.abs(end - half) <= 1e-6 * max(half, 1.0))
        & (duration > d / 4.0)
    )
    small = ~s0 & ~s1 & ~s2
    lines: List[str] = []
    lines.append(f"shelf structure for d = {d:.4g} (makespan bound 3d/2 = {half:.4g}, m = {schedule.m})")
    for shelf, mask in (("S0", s0), ("S1", s1), ("S2", s2), ("small", small)):
        # object-dtype sum: processor totals stay exact even when a shelf's
        # int64 counts would overflow a plain int64 sum
        shelf_procs = int(procs[mask].astype(object).sum())
        lines.append(f"  {shelf:<5} jobs={int(np.count_nonzero(mask)):<5} processors={shelf_procs}")
    lines.append("")
    lines.append(render_gantt(schedule, width=width, max_rows=max_rows))
    return "\n".join(lines)
