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

Two backends produce the bit-identical schedule:

* ``backend="heap"`` — the scalar reference: a Python ``heapq`` wake-up loop
  with per-entry ``Schedule.add`` calls;
* ``backend="event_queue_indexed"`` — the batched event-queue formulation:
  completions live in one ``(end, seq)``-sorted array and every epoch pops
  *all* simultaneous completions with a single sorted-array partition; the
  waiting set lives in an *incremental candidate index*
  (:class:`_NeedBucketIndex`) of power-of-two need buckets maintained across
  epochs, so an epoch's admission query walks only the bucket prefix with
  ``need <= idle`` instead of re-scanning all ``n`` jobs (O(log m) per
  single-completion epoch); machine spans for a whole epoch are cut with one
  cumulative-sum partition feeding the
  :class:`~repro.perf.schedule_builder.ArraySchedule` block install.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .allotment import Allotment
from .capacity import capacity_ops, index_array
from .job import MoldableJob
from .schedule import MachineSpan, Schedule

__all__ = [
    "list_schedule",
    "list_schedule_bound",
    "epoch_tolerance",
    "LIST_BACKENDS",
]

#: Selectable list-scheduling backends (bit-identical).
LIST_BACKENDS = ("heap", "event_queue_indexed")

#: Absolute floor of the epoch-grouping tolerance (the scalar heap loop
#: defined it first); see :func:`epoch_tolerance` for the effective window.
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
#: exact ties group beyond the cap; every backend shares the pin through
#: :func:`epoch_tolerance`.
EPOCH_REL_MAGNITUDE_CAP = 2.0 ** 60


def epoch_tolerance(end: float) -> float:
    """Grouping tolerance of the wake-up epoch anchored at completion ``end``.

    Completions within this tolerance of the earliest pending one are
    processed in the same wake-up epoch, by every backend (the grouping rule
    is shared, so the backends stay bit-identical among themselves).

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
    """
    return max(EPOCH_TOLERANCE, min(end, EPOCH_REL_MAGNITUDE_CAP) * EPOCH_REL_TOLERANCE)


def list_schedule_bound(allotment: Allotment, m: int) -> float:
    """The list-scheduling guarantee ``2 * max(W/m, T_max)`` for an allotment."""
    return 2.0 * max(allotment.average_load(m), allotment.max_time())


def list_schedule(
    jobs: Sequence[MoldableJob],
    allotment: Allotment,
    m: int,
    *,
    order: Optional[Sequence[MoldableJob]] = None,
    backend: str = "heap",
    allotted_times: Optional[Dict[MoldableJob, float]] = None,
    oracle=None,
    stats: Optional[dict] = None,
) -> Schedule:
    """Greedy (first-fit) list scheduling of ``jobs`` with counts ``allotment``.

    Parameters
    ----------
    jobs:
        Distinct jobs to schedule (``ValueError`` if a job object repeats);
        each must appear in ``allotment`` with ``allotment[job] <= m``.
    order:
        Optional list priority, a permutation of ``jobs`` (``ValueError``
        otherwise); defaults to the order of ``jobs``.
    backend:
        ``"heap"`` (scalar reference, default) or ``"event_queue_indexed"``
        (batched event epochs with the incremental need-bucket candidate
        index) — bit-identical; see the module docstring.  Both handle
        arbitrary-precision ``m``: beyond the int64 range the event queue
        switches its capacity columns to the exact wide-limb (then
        object-dtype) tier of :mod:`repro.core.capacity` instead of falling
        back to the heap.
    allotted_times:
        Optional precomputed ``{job: t_j(allotment[job])}`` durations (only
        used by the event-queue backend).  Callers that already evaluated the
        allotted processing times in a batched kernel pass (e.g. the
        two-approximation's LPT sort) hand them over instead of forcing one
        scalar oracle call per job; values must equal ``processing_time``
        bit for bit, which the batched kernels guarantee.
    oracle:
        Optional :class:`repro.perf.oracle.BatchedOracle` covering ``jobs``;
        the event-queue backend then resolves missing durations in one batched
        kernel pass instead of per-job Python calls.
    stats:
        Optional dict the event-queue backend fills with instrumentation
        (``epochs``: completion epochs processed, ``events``: completions,
        ``max_epoch_completions``: largest simultaneous-completion group,
        ``candidate_scans``: admission queries executed,
        ``candidates_visited``: bucket entries those queries touched,
        ``capacity_tier``: ``"int64"``/``"wide"``/``"object"``, the
        :mod:`repro.core.capacity` tier its capacity-axis arrays ran on).

    Returns
    -------
    Schedule
        A feasible schedule satisfying :func:`list_schedule_bound`.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if backend not in LIST_BACKENDS:
        raise ValueError(f"unknown list scheduling backend {backend!r}; choose from {LIST_BACKENDS}")
    ids = {id(j) for j in jobs}
    if len(ids) != len(jobs):
        raise ValueError("jobs must not repeat a job")
    if order is None:
        sequence = list(jobs)
    else:
        # with distinct jobs, equal length and equal id sets make ``order``
        # the same multiset, i.e. a permutation
        sequence = list(order)
        if len(sequence) != len(ids) or {id(j) for j in sequence} != ids:
            raise ValueError("order must be a permutation of jobs")
    total_need = 0
    for job in sequence:
        k = allotment.get(job)
        if k is None:
            raise ValueError(f"job {job.name!r} has no allotment")
        if k > m:
            raise ValueError(f"job {job.name!r} is allotted {k} > m={m} processors")
        total_need += k
    if backend == "event_queue_indexed":
        # The batch paths prefix-sum needs and popped span capacities
        # (bounded by total_need + m), so the capacity tier is chosen from
        # both.  Within int64 range this is the exact historical
        # ``total_need > MAX_COLUMNAR_M - m`` guard; beyond it the backend
        # keeps its batch structure on the wide-limb or object-dtype tier
        # instead of silently forking to the heap reference.
        ops = capacity_ops(m, total_need)
        return _list_schedule_event_queue(
            sequence, allotment, m, allotted_times, oracle, stats, ops
        )

    schedule = Schedule(m=m, metadata={"algorithm": "list_scheduling"})
    if not sequence:
        return schedule

    pending: List[MoldableJob] = list(sequence)
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
            if pending:  # pragma: no cover - cannot happen: every job fits on m >= a_j machines
                raise RuntimeError("deadlock in list scheduling")
            break
        # advance to the next completion and release its machines (plus any
        # other completions at the same instant)
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


def _resolve_durations(
    sequence: List[MoldableJob],
    needs: Sequence[int],
    allotted_times: Optional[Dict[MoldableJob, float]],
    oracle,
) -> List[float]:
    """Per-job allotted processing times (bit-identical however resolved)."""
    if allotted_times is not None:
        return [allotted_times[job] for job in sequence]
    if oracle is not None:
        return oracle.times_for(sequence, index_array(needs)).tolist()
    return [job.processing_time(k) for job, k in zip(sequence, needs)]


#: Below this many admitted jobs (or admission candidates) an epoch uses the
#: lean scalar inner path — the vectorized batch machinery only amortizes its
#: fixed per-call overhead on larger groups.  Both paths are bit-identical;
#: tier-1 crosses the boundary in both directions
#: (``tests/core/test_event_queue.py``: the large-epoch deterministic pin and
#: the hypothesis strategy draw instances well past this threshold).
_SMALL_EPOCH = 32


class _NeedBucketIndex:
    """Incremental candidate index over the waiting set (power-of-two buckets).

    Bucket ``b`` holds the waiting jobs whose processor need lies in
    ``[2**b, 2**(b+1))``, as a plain list of list positions kept ascending.
    A query for *the first ``limit`` waiting jobs with need <= cap, in list
    order* is then a bucket **prefix walk**: every non-boundary bucket up to
    ``floor(log2 cap)`` contributes a position-prefix wholesale (all its
    members fit by construction), the single boundary bucket is filtered by
    need, and the per-bucket prefixes merge by position.  Maintained
    incrementally across epochs (admitted jobs are removed, nothing is ever
    re-inserted), a single-admission epoch costs O(log m) bucket probes plus
    the handful of entries it returns — instead of an O(n) ``need <= idle``
    scan of the whole waiting set.

    ``gathers`` / ``visits`` count queries and touched entries for the
    ``stats=`` instrumentation (``candidate_scans`` / ``candidates_visited``).
    """

    __slots__ = ("needs", "buckets", "lo", "hi", "visits", "gathers")

    def __init__(self, needs: Sequence[int]) -> None:
        self.needs = needs
        # bucket count follows the widest need (needs are Python ints, so
        # compact-encoding instances with needs past 2**64 just get more
        # buckets — a fixed 64 would IndexError at astronomical m)
        width = max((need.bit_length() for need in needs), default=1)
        buckets: List[List[int]] = [[] for _ in range(width)]
        for pos, need in enumerate(needs):
            # positions arrive in ascending list order, so every bucket is
            # born sorted and removals keep it that way
            buckets[need.bit_length() - 1].append(pos)
        self.buckets = buckets
        self.lo = 0  # lazily-advanced lowest possibly-non-empty bucket
        self.hi = width - 1  # lazily-lowered highest possibly-non-empty bucket
        self.visits = 0
        self.gathers = 0

    def _bounds(self) -> Tuple[int, int]:
        """Advance the lazy non-empty bucket bounds and return them."""
        buckets = self.buckets
        lo, hi = self.lo, self.hi
        while lo < len(buckets) and not buckets[lo]:
            lo += 1
        while hi >= 0 and not buckets[hi]:
            hi -= 1
        self.lo, self.hi = lo, hi
        return lo, hi

    def min_need(self) -> int:
        """Exact smallest waiting need (the lowest non-empty bucket holds it,
        since bucket ranges are disjoint and ordered).  Index must be
        non-empty."""
        lo, _ = self._bounds()
        bucket = self.buckets[lo]
        self.visits += len(bucket)
        needs = self.needs
        return min(needs[pos] for pos in bucket)

    def gather(self, cap: int, limit: int) -> List[int]:
        """First ``limit`` waiting positions with ``need <= cap``, ascending.

        The per-bucket prefix of length ``limit`` suffices: the global first
        ``limit`` matches draw at most ``limit`` entries from any one bucket,
        and always that bucket's position-smallest ones.
        """
        self.gathers += 1
        lo, hi = self._bounds()
        top = min(cap.bit_length() - 1, hi)
        needs = self.needs
        visits = 0
        parts: List[List[int]] = []
        for b in range(lo, top + 1):
            bucket = self.buckets[b]
            if not bucket:
                continue
            if (2 << b) - 1 <= cap:
                part = bucket[:limit]
                visits += len(part)
            else:
                # boundary bucket: members span [2**b, 2**(b+1)), only those
                # with need <= cap qualify — filter in position order
                part = []
                for pos in bucket:
                    visits += 1
                    if needs[pos] <= cap:
                        part.append(pos)
                        if len(part) == limit:
                            break
            if part:
                parts.append(part)
        self.visits += visits
        if not parts:
            return []
        if len(parts) == 1:
            return parts[0]
        merged = sorted(chain.from_iterable(parts))
        del merged[limit:]
        return merged

    def remove(self, pos: int) -> None:
        bucket = self.buckets[self.needs[pos].bit_length() - 1]
        del bucket[bisect_left(bucket, pos)]

    def remove_many(self, positions: Sequence[int]) -> None:
        """Remove admitted positions, batching per-bucket for mass epochs."""
        if len(positions) <= 8:
            for pos in positions:
                self.remove(pos)
            return
        needs = self.needs
        by_bucket: Dict[int, set] = {}
        for pos in positions:
            by_bucket.setdefault(needs[pos].bit_length() - 1, set()).add(pos)
        for b, gone in by_bucket.items():
            bucket = self.buckets[b]
            if len(gone) * 8 < len(bucket):
                for pos in sorted(gone, reverse=True):
                    del bucket[bisect_left(bucket, pos)]
            else:
                self.buckets[b] = [pos for pos in bucket if pos not in gone]


def _list_schedule_event_queue(
    sequence: List[MoldableJob],
    allotment: Allotment,
    m: int,
    allotted_times: Optional[Dict[MoldableJob, float]],
    oracle,
    stats: Optional[dict],
    ops,
) -> Schedule:
    """Batched event-queue twin of the scalar first-fit loop.

    Bit-identical to the heap backend, but the per-completion ``heapq`` is
    replaced by one ``(end, seq)``-sorted event queue processed in *epochs*:

    * **epoch pop** — all completions within :func:`epoch_tolerance` of the
      earliest pending one leave the queue via a single sorted-array
      partition (``bisect_right`` + one slice deletion; the heap backend
      pops them one by one with the same grouping rule, so the
      released-span order is identical);
    * **admission** — candidates come from a :class:`_NeedBucketIndex`
      maintained across epochs, gathered in rounds of at most ``remaining``
      candidates.  A round's window is the position-prefix of the jobs with
      ``need <= remaining``; the admitted prefix is the longest whose need
      prefix-sum fits (one cumulative sum for large windows).  The first
      rejected candidate's need provably exceeds the post-round remaining
      idle count, so the next round's tightened gather cap excludes it —
      idle only decreases within an epoch, which is why this reproduces the
      heap loop's restart-from-the-head scan exactly;
    * **span allocation** — a large admitted batch consumes the popped idle
      spans as one capacity axis: cutting it at every job boundary and
      every span boundary with two ``searchsorted`` calls yields exactly
      the pieces the sequential ``take`` loop produces, in the same order,
      and the rows feed the :class:`ArraySchedule` columns directly (no
      per-entry ``Schedule.add``);
    * **event merge** — a large epoch's new completions are sorted once and
      merged into the queue with a single ``searchsorted``/``insert`` pass
      (new events carry strictly larger ``seq``, so ``side="right"``
      preserves the heap's ``(end, seq)`` tie order).

    Epochs below :data:`_SMALL_EPOCH` jobs take lean scalar inner paths
    (identical decisions, same column writes) — the batch passes above only
    pay for themselves on mass starts and mass completions.

    Every capacity-axis array (needs, their prefix sums, popped span
    capacities, cut boundaries) lives in the ``ops`` tier chosen by
    :func:`repro.core.capacity.capacity_ops` — plain int64 within the
    historical range, exact wide-limb pairs or object dtype beyond it — so
    the identical batch structure runs at astronomical ``m``.  Row/position
    arrays (candidate indices, span owners, event sequence numbers) are
    always plain int64: they count *jobs*, not machines.
    """
    from ..perf.schedule_builder import ArraySchedule

    builder = ArraySchedule(m, metadata={"algorithm": "list_scheduling"})
    n = len(sequence)
    counts = allotment.counts
    needs_list = [counts[job] for job in sequence]
    if stats is not None:
        stats.update(
            backend="event_queue_indexed",
            capacity_tier=ops.name,
            epochs=0,
            events=0,
            max_epoch_completions=0,
            candidate_scans=0,
            candidates_visited=0,
        )
    if n == 0:
        return builder.build()

    needs = ops.asarray(needs_list)
    durations = _resolve_durations(sequence, needs_list, allotted_times, oracle)
    index = _NeedBucketIndex(needs_list)

    # builder columns, written directly (block mode)
    (
        jobs_col,
        starts_col,
        overrides_col,
        span_owner_col,
        span_first_col,
        span_count_col,
    ) = builder.raw_columns()

    n_waiting = n
    #: lower bound on the smallest need among waiting jobs: it stays valid
    #: after admissions (the minimum can only grow) and is refreshed only when
    #: an admission query comes back empty, so idle epochs skip in O(1)
    min_waiting_need = min(needs_list)
    idle_spans: List[MachineSpan] = [(0, m)]
    idle = m
    #: the event queue: parallel lists sorted lexicographically by
    #: (end, seq); per started row, its piece slice
    #: [pieces_lo[row], pieces_hi[row]) in the builder span columns and its
    #: processor total for the release
    ev_end: List[float] = []
    ev_seq: List[int] = []
    pieces_lo: List[int] = []
    pieces_hi: List[int] = []
    row_need: List[int] = []
    now = 0.0
    epochs = 0
    events = 0
    max_epoch = 0

    while n_waiting or ev_end:
        if n_waiting and idle >= min_waiting_need:
            remaining = idle
            adm_list: List[int] = []
            while remaining >= min_waiting_need:
                window = index.gather(remaining, remaining)
                if not window:
                    break
                if len(window) <= _SMALL_EPOCH:
                    taken = 0
                    k = 0
                    for ji in window:
                        need = needs_list[ji]
                        if taken + need > remaining:
                            break
                        taken += need
                        k += 1
                else:
                    csum = ops.cumsum(ops.take(needs, np.asarray(window, dtype=np.int64)))
                    k = ops.count_le(csum, remaining)
                    taken = ops.item(csum, k - 1)
                # k >= 1: the gather cap guarantees the first fits
                admitted_now = window[:k]
                adm_list.extend(admitted_now)
                index.remove_many(admitted_now)
                remaining -= taken
            if adm_list:
                k = len(adm_list)
                row_base = len(jobs_col)
                if k <= _SMALL_EPOCH:
                    # lean inner path: sequential take() per admitted job,
                    # single-event insertion into the sorted queue
                    for ji in adm_list:
                        need = needs_list[ji]
                        row = len(jobs_col)
                        p_lo = len(span_first_col)
                        while need > 0:
                            first, count = idle_spans.pop()
                            if count <= need:
                                span_owner_col.append(row)
                                span_first_col.append(first)
                                span_count_col.append(count)
                                need -= count
                            else:
                                span_owner_col.append(row)
                                span_first_col.append(first)
                                span_count_col.append(need)
                                idle_spans.append((first + need, count - need))
                                need = 0
                        jobs_col.append(sequence[ji])
                        starts_col.append(now)
                        overrides_col.append(None)
                        pieces_lo.append(p_lo)
                        pieces_hi.append(len(span_first_col))
                        row_need.append(needs_list[ji])
                        end = now + durations[ji]
                        pos = bisect_right(ev_end, end)
                        ev_end.insert(pos, end)
                        ev_seq.insert(pos, row)
                else:
                    adm = np.asarray(adm_list, dtype=np.int64)
                    adm_needs = ops.take(needs, adm)
                    ncum = ops.cumsum(adm_needs)
                    total = ops.item(ncum, -1)
                    # pop idle spans (stack order) until the batch is covered
                    popped_first: List[int] = []
                    popped_count: List[int] = []
                    acc = 0
                    while acc < total:
                        f, c = idle_spans.pop()
                        popped_first.append(f)
                        popped_count.append(c)
                        acc += c
                    if acc > total:
                        # the unused tail of the last popped span goes back on
                        # top of the stack, exactly like the sequential take()
                        used = popped_count[-1] - (acc - total)
                        idle_spans.append((popped_first[-1] + used, acc - total))
                        popped_count[-1] = used
                    pf = ops.asarray(popped_first)
                    ccum = ops.cumsum(ops.asarray(popped_count))
                    # cut the capacity axis at every job and span boundary:
                    # each resulting piece belongs to exactly one
                    # (job, idle-span) pair — the same pieces, in the same
                    # order, as the sequential take() loop emits
                    bounds = ops.merge_bounds(ncum, ccum)
                    lo_b = ops.head(ops.prepend_zero(bounds), len(bounds))
                    owner_local = ops.cut_positions(ncum, lo_b)
                    span_idx = ops.cut_positions(ccum, lo_b)
                    base = ops.take(ops.prepend_zero(ccum), span_idx)
                    piece_first = ops.add(ops.take(pf, span_idx), ops.sub(lo_b, base))
                    piece_count = ops.sub(bounds, lo_b)

                    piece_base = len(span_first_col)
                    jobs_col.extend([sequence[ji] for ji in adm_list])
                    starts_col.extend([now] * k)
                    overrides_col.extend([None] * k)
                    span_owner_col.extend((owner_local + row_base).tolist())
                    span_first_col.extend(ops.tolist(piece_first))
                    span_count_col.extend(ops.tolist(piece_count))
                    # per-row piece slices (pieces are grouped by owner)
                    row_ids = np.arange(k, dtype=np.int64)
                    pieces_lo.extend(
                        (np.searchsorted(owner_local, row_ids, side="left") + piece_base).tolist()
                    )
                    pieces_hi.extend(
                        (np.searchsorted(owner_local, row_ids, side="right") + piece_base).tolist()
                    )
                    row_need.extend(ops.tolist(adm_needs))

                    # merge the new completions into the sorted event queue
                    new_ends = now + np.array(
                        [durations[ji] for ji in adm_list], dtype=np.float64
                    )
                    order = np.argsort(new_ends, kind="stable")
                    new_ends = new_ends[order]
                    new_seqs = row_base + order
                    old_ends = np.asarray(ev_end, dtype=np.float64)
                    pos = np.searchsorted(old_ends, new_ends, side="right")
                    ev_end = np.insert(old_ends, pos, new_ends).tolist()
                    ev_seq = np.insert(
                        np.asarray(ev_seq, dtype=np.int64), pos, new_seqs
                    ).tolist()
                n_waiting -= k
                idle = remaining
            elif n_waiting:
                # fruitless query: the lower bound was stale — refresh it so
                # later idle wake-ups can skip the query in O(1)
                min_waiting_need = index.min_need()
        if not ev_end:
            if n_waiting:  # pragma: no cover - cannot happen: every job fits on m >= a_j machines
                raise RuntimeError("deadlock in list scheduling")
            break
        # epoch pop: one sorted-array partition takes every completion
        # within tolerance of the earliest one out of the queue at once
        now = ev_end[0]
        cut = bisect_right(ev_end, now + epoch_tolerance(now))
        for s in ev_seq[:cut]:
            for p in range(pieces_lo[s], pieces_hi[s]):
                idle_spans.append((span_first_col[p], span_count_col[p]))
            idle += row_need[s]
        del ev_end[:cut]
        del ev_seq[:cut]
        epochs += 1
        events += cut
        if cut > max_epoch:
            max_epoch = cut

    if stats is not None:
        stats.update(
            candidate_scans=index.gathers,
            candidates_visited=index.visits,
            epochs=epochs,
            events=events,
            max_epoch_completions=max_epoch,
        )
    return builder.build()

