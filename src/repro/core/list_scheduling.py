"""List scheduling for jobs with a fixed allotment (Garey & Graham).

Once an allotment ``a`` is fixed, every moldable job becomes a *rigid*
parallel job (``a_j`` processors for ``t_j(a_j)`` time units).  The list
scheduling rule implemented here is the classical one used in the analyses of
Garey & Graham and Ludwig & Tiwari: **whenever machines become idle, scan the
list of unstarted jobs in order and start every job that currently fits.**
(The scan may skip over a wide job and start a later narrow one — without this
"first fit" behaviour the additive bound below does not hold.)

The produced schedule satisfies the classic factor-2 bound

    makespan  <=  2 * max( sum_j w_j(a_j) / m ,  max_j t_j(a_j) )

because at any moment before the last-finishing job starts, fewer than its
processor requirement machines are idle.  (The *additive* form
``W/m + T_max`` quoted in some expositions holds for single-processor jobs
but is false for rigid multi-processor jobs — the property-based tests
include a counterexample.)  The factor-2 bound is what the Ludwig–Tiwari
2-approximation and the NP-membership argument of the paper rely on.

The implementation tracks idle machines as *spans*, so it never materialises
per-machine state and works for astronomically large ``m``.

:func:`list_schedule` is a lean first-fit loop: one ``heapq`` of completion
events, a head pointer over the list and, only once a job has to overtake
the head, a lazily built need-bucket index of the waiting jobs
(:class:`_NeedBucketIndex`).  A wake-up that releases one job and admits the
next costs O(log n) instead of a re-scan of all ``n`` jobs.  Spans are taken
job by job in Python ints, exact at any ``m``, and a mass start pushes one
event per run of equal ends.  The scalar ``heapq`` wake-up loop it must
match bit for bit is kept as the tests' reference
(``tests/core/reference_list_scheduling.py``).
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain, islice
from typing import List, Optional, Sequence, Tuple

from .allotment import Allotment
from .job import MoldableJob
from .schedule import MachineSpan, Schedule

__all__ = [
    "list_schedule",
    "list_schedule_bound",
    "epoch_tolerance",
]

#: Absolute floor of the epoch-grouping tolerance; see
#: :func:`epoch_tolerance` for the effective window.
EPOCH_TOLERANCE = 1e-15

#: Relative part of the epoch-grouping tolerance: two float64 ulp per unit of
#: completion-time magnitude (``2 * 2**-52``).
EPOCH_REL_TOLERANCE = 2.0 ** -51

#: Magnitude at which the relative epoch window stops growing.  Without the
#: cap the two-ulp window reaches ``2**62 * 2**-51 = 2048`` at astronomical
#: completion times — wide enough to fuse *distinct representable* floats
#: (ulp near ``2**62`` is 1024) into one epoch, silently changing grouping
#: semantics exactly where compact-encoding instances live.  Pinning the
#: anchor at ``2**60`` keeps the window at 512 = half an ulp there, so only
#: exact ties group beyond the cap.
EPOCH_REL_MAGNITUDE_CAP = 2.0 ** 60


def epoch_tolerance(end: float) -> float:
    """Grouping tolerance of the wake-up epoch anchored at completion ``end``.

    Completions within this tolerance of the earliest pending one are
    processed in the same wake-up epoch.

    Historically this was the bare absolute ``EPOCH_TOLERANCE = 1e-15``,
    which float64 resolution outgrows just past magnitude 1: one ulp of
    ``16.0`` is already ``3.6e-15``, so epoch grouping silently degraded to
    exact-ties-only for any schedule whose completion times exceeded ~1.
    The tolerance is therefore *relative* to the epoch anchor —
    ``max(EPOCH_TOLERANCE, min(end, 2**60) * EPOCH_REL_TOLERANCE)``, i.e. two
    ulp at every magnitude up to :data:`EPOCH_REL_MAGNITUDE_CAP` (above which
    the window is pinned so it can never swallow adjacent representable
    floats), with the historical absolute floor taking over below magnitude
    ``EPOCH_TOLERANCE / EPOCH_REL_TOLERANCE`` (~2.25).

    :func:`list_schedule` calls it once per epoch;
    ``tests/core/test_event_queue.py`` pins both sides of it at every regime.
    """
    # conditional expressions rather than max()/min(): list_schedule calls
    # this once per epoch
    tol = (end if end < EPOCH_REL_MAGNITUDE_CAP else EPOCH_REL_MAGNITUDE_CAP) * EPOCH_REL_TOLERANCE
    return tol if tol > EPOCH_TOLERANCE else EPOCH_TOLERANCE


def list_schedule_bound(allotment: Allotment, m: int) -> float:
    """The list-scheduling guarantee ``2 * max(W/m, T_max)`` for an allotment."""
    return 2.0 * max(allotment.average_load(m), allotment.max_time())


def list_schedule(
    jobs: Sequence[MoldableJob],
    allotment: Allotment,
    m: int,
    *,
    order: Optional[Sequence[MoldableJob]] = None,
    durations: Optional[Sequence[float]] = None,
    stats: Optional[dict] = None,
) -> Schedule:
    """Greedy (first-fit) list scheduling of ``jobs`` with counts ``allotment``.

    Bit-identical to the scalar heap wake-up loop, which re-scans the whole
    waiting list on every wake-up; here a wake-up that releases one job and
    admits one costs O(log n):

    * **events** — one ``heapq`` keyed by ``(end, row)``.  Rows are numbered
      in start order, so the pop order is the heap loop's ``(end, seq)``
      order.  An epoch pops every event within :func:`epoch_tolerance` of
      its first one.  An admission pushes one event per run of consecutive
      rows sharing an end (see :data:`_Event`), so a mass tie costs one heap
      entry and one pop;
    * **admission** — a head pointer walks the list.  While the first
      waiting job fits, first fit takes it in O(1).  Only when it does not
      is the :class:`_NeedBucketIndex` asked (built on first use, over a
      ``started`` bytearray), in rounds of at most ``remaining`` candidates.
      A round admits the longest window prefix whose needs fit; the first
      rejected candidate's need exceeds the post-round remaining idle count,
      so the next round's tightened cap excludes it — idle only decreases
      within an epoch, which is why this reproduces the heap loop's
      restart-from-the-head scan exactly;
    * **spans** — every admitted job takes its spans off the top of the
      idle-span stack in Python ints, so allocation is exact at any ``m``
      with no overflow guard; the runs of equal ends are grouped in the
      same pass.

    Rows feed the :class:`ArraySchedule` columns directly (no per-entry
    ``Schedule.add``).

    Parameters
    ----------
    jobs:
        Distinct jobs to schedule (``ValueError`` if a job object repeats);
        each must appear in ``allotment`` with ``allotment[job] <= m``.
    order:
        Optional list priority, a permutation of ``jobs`` (``ValueError``
        otherwise); defaults to the order of ``jobs``.
    durations:
        Optional precomputed allotted processing times, aligned with
        ``order`` (or with ``jobs`` when ``order`` is omitted).  Callers that
        already evaluated them in one executor request (the
        two-approximation's LPT sort) hand them over instead of paying one
        ``processing_time`` call per job; values must equal
        ``processing_time`` bit for bit, which both executors guarantee.
    stats:
        Optional dict filled with instrumentation (``epochs``: completion
        epochs processed, ``events``: completions,
        ``max_epoch_completions``: largest simultaneous-completion group,
        ``candidate_scans``: admission queries — an admission taken from
        the head counts as one, ``candidates_visited``: entries those
        queries touched — one per head admission).

    Returns
    -------
    Schedule
        A feasible schedule satisfying :func:`list_schedule_bound`.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    ids = set(map(id, jobs))
    if len(ids) != len(jobs):
        raise ValueError("jobs must not repeat a job")
    if order is None:
        sequence = list(jobs)
    else:
        # with distinct jobs, equal length and equal id sets make ``order``
        # the same multiset, i.e. a permutation
        sequence = list(order)
        if len(sequence) != len(ids) or set(map(id, sequence)) != ids:
            raise ValueError("order must be a permutation of jobs")
    needs: List[int] = list(map(allotment.counts.get, sequence))
    if None in needs or max(needs, default=0) > m:
        for job, k in zip(sequence, needs):
            if k is None:
                raise ValueError(f"job {job.name!r} has no allotment")
            if k > m:
                raise ValueError(f"job {job.name!r} is allotted {k} > m={m} processors")
    n = len(sequence)
    if durations is None:
        durations = [job.processing_time(k) for job, k in zip(sequence, needs)]
    elif len(durations) != n:
        raise ValueError(f"durations has {len(durations)} entries for {n} jobs")
    from ..perf.schedule_builder import ArraySchedule

    builder = ArraySchedule(m, metadata={"algorithm": "list_scheduling"})
    if n == 0:
        if stats is not None:
            stats.update(
                epochs=0,
                events=0,
                max_epoch_completions=0,
                candidate_scans=0,
                candidates_visited=0,
            )
        return builder.build()

    # builder columns, written directly (block mode)
    (
        jobs_col,
        starts_col,
        overrides_col,
        span_owner_col,
        span_first_col,
        span_count_col,
    ) = builder.raw_columns()

    started = bytearray(n)
    head = 0  # first waiting list position; every position before it started
    index: Optional[_NeedBucketIndex] = None  # built when the head first blocks
    head_admissions = 0
    n_waiting = n
    #: lower bound on the smallest need among waiting jobs: it stays valid
    #: after admissions (the minimum can only grow) and is refreshed only when
    #: an admission comes back empty, so idle epochs skip in O(1)
    min_waiting_need = min(needs)
    idle_spans: List[MachineSpan] = [(0, m)]
    idle = m
    #: the event queue, ordered by its unique ``(end, row)`` prefix
    events_heap: List[_Event] = []
    now = 0.0
    epochs = 0
    events = 0
    max_epoch = 0

    while True:
        if n_waiting and idle >= min_waiting_need:
            remaining = idle
            # first fit from the head: while the first waiting job fits, the
            # scan picks it, and its successor becomes the first waiting job
            adm: List[int] = []
            while head < n and needs[head] <= remaining:
                remaining -= needs[head]
                started[head] = 1
                adm.append(head)
                head += 1
                while head < n and started[head]:
                    head += 1
            head_admissions += len(adm)
            if head < n and remaining >= min_waiting_need:
                # the head is blocked for the rest of the epoch: later jobs
                # overtake it through the index
                if index is None:
                    index = _NeedBucketIndex(needs, started)
                while remaining >= min_waiting_need:
                    window = index.gather(remaining, remaining)
                    if not window:
                        break
                    # the gather cap guarantees the first candidate fits
                    for ji in window:
                        need = needs[ji]
                        if need > remaining:
                            break
                        remaining -= need
                        started[ji] = 1
                        adm.append(ji)
            k = len(adm)
            if not k:
                # fruitless query (the head blocked, so the index exists):
                # the lower bound was stale — refresh it so later idle
                # wake-ups can skip the query in O(1)
                min_waiting_need = index.min_need()
            else:
                # spans job by job in Python ints (exact at any m), with one
                # event per run of consecutive rows sharing an end: the run's
                # pieces are one slice, and no other row falls between its
                # rows in (end, row) order
                row = run_row = len(jobs_col)
                run_end = _NO_END
                for ji in adm:
                    need = needs[ji]
                    end = now + durations[ji]
                    if end != run_end:
                        if row != run_row:
                            heappush(
                                events_heap,
                                (run_end, run_row, run_lo, len(span_first_col), run_need, row - run_row),
                            )
                            run_row = row
                        run_end = end
                        run_lo = len(span_first_col)
                        run_need = need
                    else:
                        run_need += need
                    while need:
                        first, count = idle_spans.pop()
                        if count > need:
                            idle_spans.append((first + need, count - need))
                            count = need
                        span_owner_col.append(row)
                        span_first_col.append(first)
                        span_count_col.append(count)
                        need -= count
                    jobs_col.append(sequence[ji])
                    starts_col.append(now)
                    row += 1
                heappush(
                    events_heap,
                    (run_end, run_row, run_lo, len(span_first_col), run_need, row - run_row),
                )
            n_waiting -= k
            idle = remaining
        if not events_heap:
            if n_waiting:  # pragma: no cover - cannot happen: every job fits on m >= a_j machines
                raise RuntimeError("deadlock in list scheduling")
            break
        # epoch pop: every completion within epoch_tolerance(now) of the
        # earliest one, in (end, row) order
        now = events_heap[0][0]
        cut = now + epoch_tolerance(now)
        released = 0
        while events_heap and events_heap[0][0] <= cut:
            _, _, lo, hi, need, count = heappop(events_heap)
            if hi - lo == 1:
                idle_spans.append((span_first_col[lo], span_count_col[lo]))
            else:
                idle_spans.extend(zip(span_first_col[lo:hi], span_count_col[lo:hi]))
            idle += need
            released += count
        epochs += 1
        events += released
        if released > max_epoch:
            max_epoch = released
    overrides_col.extend([None] * n)

    if stats is not None:
        stats.update(
            candidate_scans=head_admissions + (index.gathers if index else 0),
            candidates_visited=head_admissions + (index.visits if index else 0),
            epochs=epochs,
            events=events,
            max_epoch_completions=max_epoch,
        )
    return builder.build()


#: A completion event ``(end, row, lo, hi, need, count)``: the ``count``
#: consecutive rows from ``row`` on, all ending at ``end``, whose pieces are
#: the builder span-column slice ``[lo, hi)`` holding ``need`` processors.
#: An admission makes one event per run of equal ends, so a mass tie costs
#: one heap entry; ``(end, row)`` is unique, so the payload never takes
#: part in the ordering.
_Event = Tuple[float, int, int, int, int, int]

#: The end of no run: NaN equals no end, so an admission's first job always
#: opens a run (a float sentinel keeps the per-job test a float comparison).
_NO_END = float("nan")

class _NeedBucketIndex:
    """Candidate index over the waiting set (power-of-two need buckets).

    Bucket ``b`` holds the list positions whose processor need lies in
    ``[2**b, 2**(b+1))``, ascending.  Deletion is lazy: admitted positions
    stay in their bucket, flagged in the scheduler's shared ``started``
    bytearray, and every bucket keeps a head past its started prefix — so
    nothing is ever bisected or deleted.  A query for *the first ``limit``
    waiting jobs with need <= cap, in list order* is then a bucket **prefix
    walk**: every non-boundary bucket up to ``floor(log2 cap)`` contributes
    its first waiting entries wholesale (all of them fit by construction),
    the single boundary bucket is filtered by need, and the per-bucket
    prefixes merge by position.  A single-admission query costs O(log m)
    bucket probes plus the handful of entries it touches, instead of an
    O(n) ``need <= idle`` scan of the whole waiting set.

    ``gathers`` / ``visits`` count queries and touched entries for the
    ``stats=`` instrumentation (``candidate_scans`` / ``candidates_visited``).
    """

    __slots__ = ("needs", "started", "buckets", "heads", "lo", "hi", "visits", "gathers")

    def __init__(self, needs: Sequence[int], started: bytearray) -> None:
        self.needs = needs
        self.started = started
        # bucket count follows the widest need (needs are Python ints, so
        # compact-encoding instances with needs past 2**64 just get more
        # buckets — a fixed 64 would IndexError at astronomical m)
        width = max((need.bit_length() for need in needs), default=1)
        buckets: List[List[int]] = [[] for _ in range(width)]
        for pos, need in enumerate(needs):
            if not started[pos]:
                # positions arrive in ascending list order, so every bucket
                # is born sorted
                buckets[need.bit_length() - 1].append(pos)
        self.buckets = buckets
        self.heads = [0] * width
        self.lo = 0  # lazily-advanced lowest possibly-non-empty bucket
        self.hi = width - 1  # lazily-lowered highest possibly-non-empty bucket
        self.visits = 0
        self.gathers = 0

    def _head(self, b: int) -> int:
        """Advance bucket ``b``'s head past its started prefix; return it."""
        bucket, started = self.buckets[b], self.started
        h = self.heads[b]
        while h < len(bucket) and started[bucket[h]]:
            h += 1
        self.heads[b] = h
        return h

    def _bounds(self) -> Tuple[int, int]:
        """Advance the lazy non-empty bucket bounds and return them."""
        buckets = self.buckets
        lo, hi = self.lo, self.hi
        while lo < len(buckets) and self._head(lo) == len(buckets[lo]):
            lo += 1
        while hi >= lo and self._head(hi) == len(buckets[hi]):
            hi -= 1
        self.lo, self.hi = lo, hi
        return lo, hi

    def min_need(self) -> int:
        """Exact smallest waiting need (the lowest non-empty bucket holds it,
        since bucket ranges are disjoint and ordered).  Index must be
        non-empty."""
        lo, _ = self._bounds()
        bucket = self.buckets[lo]
        waiting = bucket[self.heads[lo]:]
        self.visits += len(waiting)
        needs, started = self.needs, self.started
        return min(needs[pos] for pos in waiting if not started[pos])

    def gather(self, cap: int, limit: int) -> List[int]:
        """First ``limit`` waiting positions with ``need <= cap``, ascending.

        The per-bucket prefix of length ``limit`` suffices: the global first
        ``limit`` matches draw at most ``limit`` entries from any one bucket,
        and always that bucket's position-smallest ones.
        """
        self.gathers += 1
        lo, hi = self._bounds()
        parts: List[List[int]] = []
        for b in range(lo, min(cap.bit_length() - 1, hi) + 1):
            part = self._take(b, cap, limit)
            if part:
                parts.append(part)
        if not parts:
            return []
        if len(parts) == 1:
            return parts[0]
        merged = sorted(chain.from_iterable(parts))
        del merged[limit:]
        return merged

    def _take(self, b: int, cap: int, limit: int) -> List[int]:
        """Bucket ``b``'s first ``limit`` waiting positions with need <= cap.

        Started entries walked past are dropped from the bucket once there
        are more than :data:`_MAX_HOLES` of them, so a later query does not
        walk them again."""
        bucket, started = self.buckets[b], self.started
        h = i = self._head(b)
        part: List[int] = []
        if (2 << b) - 1 <= cap:
            # every member fits: take waiting entries a chunk at a time
            while i < len(bucket) and len(part) < limit:
                chunk = bucket[i:i + limit - len(part)]
                i += len(chunk)
                part += [pos for pos in chunk if not started[pos]]
            holes = i - h - len(part)
        else:
            # boundary bucket: members span [2**b, 2**(b+1)), only those
            # with need <= cap qualify — filter in position order
            needs = self.needs
            holes = 0
            for pos in islice(bucket, h, None):
                i += 1
                if started[pos]:
                    holes += 1
                elif needs[pos] <= cap:
                    part.append(pos)
                    if len(part) == limit:
                        break
        self.visits += i - h
        if holes > _MAX_HOLES:
            bucket[h:i] = [pos for pos in bucket[h:i] if not started[pos]]
        return part


#: Started entries a bucket walk may leave behind before the walked stretch
#: is compacted (one C-level slice assignment): bounds how often lazily
#: deleted entries are walked again.
_MAX_HOLES = 16
