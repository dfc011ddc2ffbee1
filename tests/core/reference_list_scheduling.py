"""Pure-Python reference list scheduler, kept as the tests' baseline.

:func:`repro.core.list_scheduling.list_schedule` runs first-fit list
scheduling as batched event epochs over an incremental need-bucket index.
This module holds the scalar loop it must match bit for bit: a ``heapq`` of
``(end, seq, spans)`` wake-ups, a restart-from-the-head scan of the waiting
list after every start, and one ``Schedule.add`` per job.  Completions
within :func:`~repro.core.list_scheduling.epoch_tolerance` of the earliest
pending one are released together, the grouping rule the library shares.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from repro.core.allotment import Allotment
from repro.core.job import MoldableJob
from repro.core.list_scheduling import epoch_tolerance
from repro.core.schedule import MachineSpan, Schedule


def reference_list_schedule(
    jobs: Sequence[MoldableJob],
    allotment: Allotment,
    m: int,
    *,
    order: Optional[Sequence[MoldableJob]] = None,
) -> Schedule:
    """Heap wake-up twin of :func:`repro.core.list_scheduling.list_schedule`,
    with the same input checks."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ids = {id(j) for j in jobs}
    if len(ids) != len(jobs):
        raise ValueError("jobs must not repeat a job")
    sequence = list(jobs if order is None else order)
    if len(sequence) != len(ids) or {id(j) for j in sequence} != ids:
        raise ValueError("order must be a permutation of jobs")
    for job in sequence:
        k = allotment.get(job)
        if k is None:
            raise ValueError(f"job {job.name!r} has no allotment")
        if k > m:
            raise ValueError(f"job {job.name!r} is allotted {k} > m={m} processors")

    schedule = Schedule(m=m, metadata={"algorithm": "list_scheduling"})
    pending: List[MoldableJob] = sequence
    idle_spans: List[MachineSpan] = [(0, m)]
    idle_count = m
    #: running jobs: (end_time, seq, spans)
    running: List[Tuple[float, int, Tuple[MachineSpan, ...]]] = []
    seq = 0
    now = 0.0

    def take(need: int) -> List[MachineSpan]:
        nonlocal idle_count
        taken: List[MachineSpan] = []
        while need > 0:
            first, count = idle_spans.pop()
            use = min(count, need)
            taken.append((first, use))
            if use < count:
                idle_spans.append((first + use, count - use))
            idle_count -= use
            need -= use
        return taken

    while pending or running:
        # start every pending job (in list order) that fits right now
        progressed = True
        while progressed:
            progressed = False
            for index, job in enumerate(pending):
                need = allotment[job]
                if need <= idle_count:
                    spans = take(need)
                    entry = schedule.add(job, now, spans)
                    heapq.heappush(running, (entry.end, seq, tuple(spans)))
                    seq += 1
                    pending.pop(index)
                    progressed = True
                    break
        if not running:
            break
        # advance to the next completion and release its machines (plus any
        # other completions within the epoch window)
        end, _, spans = heapq.heappop(running)
        now = end
        released = list(spans)
        cut = now + epoch_tolerance(now)
        while running and running[0][0] <= cut:
            _, _, more = heapq.heappop(running)
            released.extend(more)
        for first, count in released:
            idle_spans.append((first, count))
            idle_count += count

    return schedule
