"""Per-job reference for the Algorithm 3 dual step, kept as the tests' baseline.

The library runs the per-job parts of one shelf dual step on the executor's
columns: :func:`repro.core.rounding.round_jobs_to_types` groups jobs into
item types inside one loop over γ and time columns and rounds onto the
geometric grids in batches, :func:`repro.knapsack.bounded.expand_bounded_items`
builds the containers without a second validation pass, and
:func:`repro.core.shelves.build_three_shelf_schedule` applies rules
(i)-(iii) to time columns and emits the small-job gap groups straight from
its machine layout.  This module holds the per-job code they must match bit
for bit: one :class:`~repro.core.rounding.RoundedJob` per job and one scalar
geometric rounding per value, one validated ``KnapsackItem`` per container,
and a three-shelf construction that asks every job for its processing time,
records every busy piece and recovers the gaps with a sort-and-sweep over
the pieces (:func:`referencereference_machine_gap_index`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.backend import resolve_backend
from repro.core.compression import params_for_delta
from repro.core.job import MoldableJob
from repro.core.rounding import RoundedJob
from repro.core.schedule import MachineSpan, Schedule
from repro.core.shelves import _ABS, ThreeShelfDiagnostics, TwoShelfSchedule, _leq, _leq_array
from repro.knapsack.bounded import binary_split
from repro.knapsack.compressible import round_down_geom, round_up_geom
from repro.knapsack.items import ItemType, KnapsackItem
from repro.perf.schedule_builder import ArraySchedule


def _round_count(count: int, b: float, m: int, rho: float) -> int:
    """Round a processor count down onto ``geom(b, m, 1+rho)`` if it exceeds
    the wide-job threshold ``b`` (Eq. (25))."""
    if count <= b:
        return count
    return int(math.floor(round_down_geom(float(count), b, float(m), 1.0 + rho) + 1e-9))


def reference_round_jobs_to_types(
    big_jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    delta: float,
    *,
    oracle=None,
) -> Tuple[List[RoundedJob], List[ItemType]]:
    """Round the big jobs of a target ``d`` into bounded-knapsack item types:
    the per-job :class:`RoundedJob` records and the types, as
    :func:`repro.core.rounding.round_jobs_to_types` returns them in its
    scheme's ``rounded`` and ``types``.

    Every job must satisfy ``gamma_j(d)`` and ``gamma_j(d/2)`` defined (the
    caller removes forced shelf-1 jobs beforehand).  The γ-allotments and
    processing times come from the ``oracle``'s columns: two γ-arrays and
    two time columns per target.
    """
    params = params_for_delta(delta)
    rho = params.rho
    b = params.b
    half = d / 2.0
    jobs = list(big_jobs)
    if oracle is None:
        _, oracle = resolve_backend(jobs, m, "scalar", None)
    pos = oracle.positions(jobs)
    g_full_col = oracle.gamma_at(d, pos)
    g_half_col = oracle.gamma_at(half, pos)
    missing = np.flatnonzero((g_full_col > m) | (g_half_col > m))
    if len(missing):
        raise ValueError(
            f"job {jobs[missing[0]].name!r} cannot meet the shelf heights; "
            "forced jobs must be removed before rounding"
        )
    g_fulls = g_full_col.tolist()
    g_halves = g_half_col.tolist()
    t_fulls = oracle.times_at(g_full_col, pos).tolist()
    t_halves = oracle.times_at(g_half_col, pos).tolist()

    # many jobs share a processor count, so round each distinct count once
    counts: Dict[int, int] = {}
    profit_low = delta / 2.0 * d
    rounded_jobs: List[RoundedJob] = []
    for job, g_full, g_half, time_full, time_half in zip(jobs, g_fulls, g_halves, t_fulls, t_halves):
        size = counts.get(g_full)
        if size is None:
            size = counts[g_full] = _round_count(g_full, b, m, rho)
        rounded_half_count = counts.get(g_half)
        if rounded_half_count is None:
            rounded_half_count = counts[g_half] = _round_count(g_half, b, m, rho)

        if rounded_half_count < b:
            # narrow in shelf S2: round the original profit v_j(d) = w_j(d/2) - w_j(d)
            profit_raw = max(0.0, g_half * time_half - g_full * time_full)
            if profit_raw < profit_low:
                profit = 0.0
            else:
                profit = round_up_geom(profit_raw, profit_low, b / 2.0 * d, 1.0 + delta / b)
            t_full = time_full
            t_half = time_half
            type_key = ("narrow", size, round(profit, 12))
        else:
            # wide in shelf S2: round the processing times of both shelves
            t_full = round_down_geom(time_full, d / 2.0, d, 1.0 + 4.0 * rho)
            t_half = round_down_geom(time_half, half / 2.0, half, 1.0 + 4.0 * rho)
            profit = max(0.0, t_half * rounded_half_count - t_full * size)
            type_key = ("wide", size, rounded_half_count, round(t_full, 12), round(t_half, 12))

        rounded_jobs.append(
            RoundedJob(
                job=job,
                size=size,
                profit=profit,
                type_key=type_key,
                gamma_full=g_full,
                gamma_half=g_half,
                rounded_time_full=t_full,
                rounded_time_half=t_half,
            )
        )

    # group into types in first-seen order; members sorted by true size so
    # that narrow members are preferred when a type is only partially selected.
    groups: Dict[Hashable, List[RoundedJob]] = {}
    for rj in rounded_jobs:
        groups.setdefault(rj.type_key, []).append(rj)
    types: List[ItemType] = []
    for key, members in groups.items():
        members.sort(key=lambda rj: rj.gamma_full)
        types.append(
            ItemType(
                key=key,
                size=members[0].size,
                profit=members[0].profit,
                count=len(members),
                members=[rj.job for rj in members],
            )
        )
    return rounded_jobs, types


def reference_expand_bounded_items(types: Sequence[ItemType]) -> List[KnapsackItem]:
    """Expand bounded item types into 0/1 *container* items.

    The container for ``q`` copies of type ``t`` has size ``q * size_t``,
    profit ``q * profit_t`` and payload ``(t.key, q)``.
    """
    containers: List[KnapsackItem] = []
    for t in types:
        for part_index, multiplicity in enumerate(binary_split(t.count)):
            containers.append(
                KnapsackItem(
                    key=(t.key, part_index),
                    size=t.size * multiplicity,
                    profit=t.profit * multiplicity,
                    payload=(t.key, multiplicity),
                )
            )
    return containers


@dataclass
class _S0Entry:
    """A column of the S0 shelf: `procs` dedicated machines running the listed
    placements (job, processors, start offset) back to back."""

    procs: int
    placements: List[Tuple[MoldableJob, int, float]] = field(default_factory=list)


class _ScheduleAssembler:
    """Placement collector: the placements accumulate as flat rows in an
    :class:`repro.perf.schedule_builder.ArraySchedule` and the ``Schedule``
    is materialized once in :meth:`finish`, with one batched
    span-normalization pass.

    The assembler also records the busy *pieces* ``(machine_first,
    machine_end, start, end)`` that the small-job gap recovery sweeps, so the
    gap index never needs the not yet materialized entry objects.
    """

    __slots__ = ("m", "pieces", "_builder")

    def __init__(self, m: int, metadata: dict) -> None:
        self.m = m
        self.pieces: List[Tuple[int, int, float, float]] = []
        self._builder = ArraySchedule(m, metadata=metadata)

    def add(
        self,
        job: MoldableJob,
        start: float,
        spans: Sequence[MachineSpan],
        duration: float,
    ) -> None:
        end = start + duration
        pieces = self.pieces
        for first, count in spans:
            pieces.append((first, first + count, start, end))
        self._builder.append(job, start, spans)

    def finish(self) -> Schedule:
        return self._builder.build()



def _two_shelf_columns(jobs, m, d, shelf1_jobs, oracle):
    """The two-shelf picture, its total work, the small jobs' ``t_j(1)`` and
    the oracle positions of the shelf-2 jobs, or ``None`` when a big job
    cannot meet its shelf's height.

    Reads the small/big partition, the shelf allotments γ(d) / γ(d/2) and
    the works from whole-instance oracle columns, with the arithmetic of
    :func:`partition_small_big` and :class:`TwoShelfSchedule` (``_leq``,
    ``k * t_j(k)``, left-to-right sums).
    """
    pos = oracle.positions(jobs)
    t1 = oracle.t1[pos]
    small = _leq_array(t1, d / 2.0)
    shelf1_ids = {id(j) for j in shelf1_jobs}
    in_s1 = np.fromiter((id(j) in shelf1_ids for j in jobs), dtype=bool, count=len(jobs))
    s1 = np.flatnonzero(~small & in_s1)
    s2 = np.flatnonzero(~small & ~in_s1)
    # a threshold is only searched when some job needs it
    g1 = oracle.gamma_at(d, pos[s1]) if len(s1) else s1
    g2 = oracle.gamma_at(d / 2.0, pos[s2]) if len(s2) else s2
    if (g1 > m).any() or (g2 > m).any():
        return None

    def shelf_work(idx: np.ndarray, g: np.ndarray) -> float:
        return oracle.sequential_sum(g * oracle.times_at(g, pos[idx]))

    two_shelf = TwoShelfSchedule(
        d=d,
        m=m,
        shelf1=dict(zip([jobs[i] for i in s1.tolist()], g1.tolist())),
        shelf2=dict(zip([jobs[i] for i in s2.tolist()], g2.tolist())),
        small=[jobs[i] for i in np.flatnonzero(small).tolist()],
    )
    return two_shelf, shelf_work(s1, g1) + shelf_work(s2, g2), t1[small].tolist(), pos[s2]


def reference_build_three_shelf_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    shelf1_jobs: Iterable[MoldableJob],
    *,
    diagnostics: Optional[ThreeShelfDiagnostics] = None,
    oracle=None,
) -> Optional[Schedule]:
    """Turn a shelf-1 selection into a feasible schedule of length ``<= 3d/2``.

    Parameters
    ----------
    jobs:
        All jobs of the instance (small jobs are re-inserted at the end).
    m:
        Number of machines.
    d:
        Target makespan of the dual step; shelf heights are ``d`` and ``d/2``
        and the result has makespan at most ``3d/2``.
    shelf1_jobs:
        Big jobs placed in shelf S1 (any small members are ignored, as in
        Corollary 10).
    oracle:
        The executor over ``(jobs, m)`` (:mod:`repro.perf.oracle`) whose
        columns give the partition, the γ-allotments at ``d``, ``d/2`` and
        ``3d/2``, the shelf works and the small jobs' times; a
        :class:`~repro.perf.oracle.ScalarOracle` when omitted.

    Returns ``None`` when the selection violates the Lemma 6 work bound, shelf
    S1 does not fit, or (defensively) the construction cannot complete — the
    caller should then reject the target ``d``.
    """
    diag = diagnostics if diagnostics is not None else ThreeShelfDiagnostics(d=d, m=m)
    diag.d = d
    diag.m = m

    if oracle is None:
        _, oracle = resolve_backend(jobs, m, "scalar", None)
    columns = _two_shelf_columns(jobs, m, d, shelf1_jobs, oracle)
    if columns is None:
        diag.rejected_reason = "a big job cannot meet its shelf height on m machines"
        return None
    two_shelf, total_work, small_times, s2_pos = columns
    small = two_shelf.small
    diag.small_jobs = len(small)
    diag.two_shelf_feasible = two_shelf.is_feasible

    if two_shelf.shelf1_processors > m:
        diag.rejected_reason = "shelf S1 needs more than m processors"
        return None
    # the Lemma 6 threshold m*d - W_S(d), as TwoShelfSchedule.work_bound
    if not _leq(total_work, m * d - sum(small_times)):
        diag.rejected_reason = "total work exceeds m*d - W_S(d)"
        return None

    half = d / 2.0
    three_half = 1.5 * d
    three_quarter = 0.75 * d

    s1_alloc: Dict[MoldableJob, int] = dict(two_shelf.shelf1)
    s2_alloc: Dict[MoldableJob, int] = dict(two_shelf.shelf2)
    s0_entries: List[_S0Entry] = []
    piggyback: List[Tuple[MoldableJob, MoldableJob]] = []  # (host in S1, rider)
    cat2_pending: Optional[MoldableJob] = None
    # running processor totals of S0 and S1 (before piggybacking), kept in
    # step with every change to s0_entries / s1_alloc below
    s0_procs = 0
    s1_procs = two_shelf.shelf1_processors

    def _time_in_s1(job: MoldableJob) -> float:
        return job.processing_time(s1_alloc[job])

    def add_s0(entry: _S0Entry) -> None:
        nonlocal s0_procs
        s0_entries.append(entry)
        s0_procs += entry.procs

    # ---------------------------------------------------------------- rules
    def apply_rules_i_ii(job: MoldableJob, procs: int) -> None:
        """Apply rules (i)/(ii) to a job destined for S1 with `procs` procs.

        Leaves the job either in S0 (entry appended), paired in S0, pending as
        the unpaired 1-processor job, or in S1.
        """
        nonlocal cat2_pending, s1_procs
        t = job.processing_time(procs)
        if _leq(t, three_quarter) and procs > 1:
            # rule (i): give up one processor, run alongside S1+S2
            add_s0(_S0Entry(procs - 1, [(job, procs - 1, 0.0)]))
        elif _leq(t, three_quarter) and procs == 1:
            # rule (ii): pair 1-processor jobs of height <= 3d/4
            if cat2_pending is None:
                cat2_pending = job
                s1_alloc[job] = 1
                s1_procs += 1
            else:
                partner = cat2_pending
                cat2_pending = None
                s1_procs -= s1_alloc.pop(partner, 0)
                t_partner = partner.processing_time(1)
                add_s0(_S0Entry(1, [(partner, 1, 0.0), (job, 1, t_partner)]))
        else:
            s1_alloc[job] = procs
            s1_procs += procs

    # Step A: scan shelf S1
    for job in list(s1_alloc.keys()):
        procs = s1_alloc.pop(job)
        s1_procs -= procs
        apply_rules_i_ii(job, procs)

    # Step B: rule (iii) — pull S2 jobs alongside while processors are free
    def current_p0() -> int:
        return s0_procs + len(piggyback)

    def current_p1() -> int:
        return s1_procs - len(piggyback)

    needs = oracle.gamma_at(three_half, s2_pos).tolist() if s2_alloc else []
    # S2 jobs satisfy t_j(m) <= d/2 <= 3d/2, so every need is defined.
    assert all(g <= m for g in needs)
    move_heap: List[Tuple[int, int, MoldableJob]] = [
        (g, idx, job) for idx, (g, job) in enumerate(zip(needs, s2_alloc))
    ]
    heapq.heapify(move_heap)

    while move_heap:
        q = m - current_p0() - current_p1()
        need, _, job = move_heap[0]
        if need > q:
            break
        heapq.heappop(move_heap)
        if job not in s2_alloc:
            continue
        del s2_alloc[job]
        diag.moved_from_shelf2 += 1
        t = job.processing_time(need)
        if t > d:
            # runs alongside both shelves for up to 3d/2
            add_s0(_S0Entry(need, [(job, need, 0.0)]))
        else:
            apply_rules_i_ii(job, need)

    # Resolve the unpaired category-2 job via the special case of rule (ii):
    # pair it on top of a tall 1-shelf job if their heights fit into 3d/2.
    if cat2_pending is not None:
        rider = cat2_pending
        rider_time = rider.processing_time(1)
        hosts = [j for j in s1_alloc if j is not rider and _time_in_s1(j) > three_quarter]
        host: Optional[MoldableJob] = None
        if hosts:
            # one linear scan: the shortest host fits iff any host does
            candidate = min(hosts, key=_time_in_s1)
            if _leq(rider_time + _time_in_s1(candidate), three_half):
                host = candidate
        if host is not None:
            piggyback.append((host, rider))
            s1_procs -= s1_alloc.pop(rider, 0)
            cat2_pending = None
            diag.piggybacked_jobs += 1
        else:
            # stays in S1 on one processor
            cat2_pending = None

    # ------------------------------------------------------- machine layout
    diag.shelf0_processors = current_p0()
    diag.shelf1_processors = sum(s1_alloc.values())
    diag.shelf2_processors = sum(s2_alloc.values())
    diag.shelf0_jobs = sum(len(e.placements) for e in s0_entries) + len(piggyback)
    diag.shelf1_jobs = len(s1_alloc)
    diag.shelf2_jobs = len(s2_alloc)

    if current_p0() + current_p1() > m:
        diag.rejected_reason = "shelves S0+S1 exceed m processors after transformation"
        return None

    assembler = _ScheduleAssembler(m, {"construction": "three_shelf", "d": d})
    next_machine = 0

    def take(count: int) -> MachineSpan:
        nonlocal next_machine
        if next_machine + count > m:
            raise _LayoutOverflow()
        span = (next_machine, count)
        next_machine += count
        return span

    class _LayoutOverflow(Exception):
        pass

    riders_by_host: Dict[MoldableJob, MoldableJob] = {host: rider for host, rider in piggyback}

    try:
        # Shelf S0 columns
        for entry in s0_entries:
            span = take(entry.procs)
            for job, procs, start in entry.placements:
                assembler.add(job, start, [(span[0], procs)], job.processing_time(procs))

        # Shelf S1 jobs (including piggyback hosts)
        s1_spans: List[Tuple[MoldableJob, MachineSpan, float]] = []  # (job, span of *reusable* machines, busy_until)
        for job, procs in s1_alloc.items():
            span = take(procs)
            t = job.processing_time(procs)
            assembler.add(job, 0.0, [span], t)
            rider = riders_by_host.get(job)
            if rider is not None:
                # one machine of the host also runs the rider afterwards
                rider_time = rider.processing_time(1)
                assembler.add(rider, t, [(span[0], 1)], rider_time)
                if procs > 1:
                    s1_spans.append((job, (span[0] + 1, procs - 1), t))
            else:
                s1_spans.append((job, span, t))

        # Shelf S2 jobs — placed on machines *not* used by S0/piggyback,
        # finishing exactly at 3d/2.
        free_pool: List[Tuple[MachineSpan, float]] = [(span, busy) for _, span, busy in s1_spans]
        if next_machine < m:
            free_pool.append(((next_machine, m - next_machine), 0.0))
            next_machine = m
        pool_idx = 0
        for job, procs in s2_alloc.items():
            needed = procs
            spans: List[MachineSpan] = []
            while needed > 0:
                if pool_idx >= len(free_pool):
                    raise _LayoutOverflow()
                (first, count), busy = free_pool[pool_idx]
                taken = min(count, needed)
                spans.append((first, taken))
                if taken < count:
                    free_pool[pool_idx] = ((first + taken, count - taken), busy)
                else:
                    pool_idx += 1
                needed -= taken
            t = job.processing_time(procs)
            start = three_half - t
            assembler.add(job, start, spans, t)
    except _LayoutOverflow:
        diag.rejected_reason = "machine layout overflow (construction could not fit all shelves)"
        return None

    # ------------------------------------------------- small-job insertion
    # Next-fit over machine groups (Lemma 9): within a group all machines have
    # the same gap; a machine that cannot take the current job is discarded.
    small_ok = reference_insert_small_jobs(assembler, small, small_times, three_half)
    if not small_ok:
        diag.rejected_reason = "small jobs did not fit (work bound violated)"
        return None

    schedule = assembler.finish()
    schedule.metadata["shelves"] = {
        "s0_processors": diag.shelf0_processors,
        "s1_processors": diag.shelf1_processors,
        "s2_processors": diag.shelf2_processors,
    }
    return schedule


def reference_insert_small_jobs(
    assembler: _ScheduleAssembler,
    small: Sequence[MoldableJob],
    times: Sequence[float],
    horizon: float,
) -> bool:
    """Next-fit insertion of the small jobs into per-machine gaps (Lemma 9).

    The gaps are recovered from the assembler's busy pieces with
    :func:`reference_machine_gap_index`: each maximal range of machines with identical
    occupancy forms a *group* whose machines share the same contiguous free
    gap.  The next-fit rule of the paper is followed literally: the current
    job goes onto the current machine if it still fits, otherwise the machine
    is discarded and the next machine of the group (or the next group) is
    tried; machines are never revisited.  A job that does not fit a fresh
    machine fits no machine of its group, so the rest of the group is
    discarded in one step (the placements are the same as discarding its
    machines one by one, without the O(m) walk at large ``m``).
    """
    if not small:
        return True
    # Recover, for every machine that appears in the assembly, its busy
    # intervals; machines not appearing are entirely free.  We avoid iterating
    # over all m machines by working span-wise.
    gaps = reference_machine_gap_index(assembler.pieces, assembler.m, horizon)
    # next-fit over the recovered gap groups
    idx = 0
    fill: Optional[float] = None
    span_offset = 0
    for job, t in zip(small, times):
        placed = False
        while idx < len(gaps):
            (first, count), gap_start, gap_end = gaps[idx]
            if fill is None:
                fill = gap_start
            if span_offset >= count:
                idx += 1
                span_offset = 0
                fill = None
                continue
            machine = first + span_offset
            if _leq(fill + t, gap_end):
                assembler.add(job, fill, [(machine, 1)], t)
                fill = fill + t
                placed = True
                break
            if fill == gap_start:
                # a fresh machine cannot take the job, and every machine of
                # the group has the same gap: discard the whole group at once
                idx += 1
                span_offset = 0
            else:
                # discard this machine, move to the next in the group
                span_offset += 1
            fill = None
        if not placed:
            return False
    return True


def reference_machine_gap_index(
    busy_pieces: Sequence[Tuple[int, int, float, float]],
    m: int,
    horizon: float,
) -> List[Tuple[MachineSpan, float, float]]:
    """Compute contiguous free gaps ``(span, gap_start, gap_end)`` per group of
    identical machines.

    ``busy_pieces`` are ``(machine_first, machine_end, start, finish)``
    rectangles (one per placed span).  The shelf constructions guarantee each
    machine's busy time is a prefix ``[0, x)`` plus possibly a suffix
    ``[horizon - y, horizon)``; the gap is the middle.  We build the index by
    sweeping span boundaries.
    """
    boundaries: set[int] = {0, m}
    for first, end, _, _ in busy_pieces:
        boundaries.add(first)
        boundaries.add(end)
    cuts = sorted(boundaries)
    # For each elementary machine range, compute the union of busy intervals.
    pieces: List[Tuple[int, int, float, float]] = sorted(busy_pieces, key=lambda p: p[0])

    result: List[Tuple[MachineSpan, float, float]] = []
    active: List[Tuple[int, float, float]] = []  # (machine_end, start, finish)
    pi = 0
    for ci in range(len(cuts) - 1):
        seg_start, seg_end = cuts[ci], cuts[ci + 1]
        if seg_end <= seg_start:
            continue
        while pi < len(pieces) and pieces[pi][0] <= seg_start:
            active.append((pieces[pi][1], pieces[pi][2], pieces[pi][3]))
            pi += 1
        active = [a for a in active if a[0] > seg_start]
        busy = sorted((s, f) for _, s, f in active)
        # merge the prefix chain starting at time 0 to find the gap start,
        # then the gap ends at the first busy interval after the prefix.
        gap_start = 0.0
        gap_end = horizon
        for s, f in busy:
            if s <= gap_start + _ABS:
                gap_start = max(gap_start, f)
            else:
                gap_end = min(gap_end, s)
        if gap_end < gap_start:
            gap_end = gap_start
        result.append(((seg_start, seg_end - seg_start), gap_start, gap_end))
    return result
