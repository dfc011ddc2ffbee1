"""Two- and three-shelf schedule constructions (Section 4.1 of the paper).

The `(3/2)`-dual algorithm of Mounié, Rapine & Trystram — and all of the
paper's accelerated variants — share the same schedule *construction*: given a
target makespan ``d`` and a choice of which big jobs go into shelf ``S1``
(height ``d``) versus shelf ``S2`` (height ``d/2``), the construction

1. checks that shelf ``S1`` fits into ``m`` machines and that the total work
   respects the bound ``m*d - W_S(d)`` (Lemma 6);
2. applies the transformation rules (i)–(iii) that move jobs into a third
   shelf ``S0`` running alongside ``S1 + S2`` so that the whole picture fits
   into ``m`` machines (Lemmas 7 and 8, Figure 3);
3. re-inserts the small jobs greedily into the per-machine gaps (Lemma 9);
4. assigns concrete machine spans and returns a feasible :class:`Schedule`
   with makespan at most ``3*d/2``.

Only the *selection* of shelf-1 jobs differs between the algorithms (exact
knapsack for the original MRT algorithm, compressible / bounded knapsack for
the accelerated ones); they all run it through
:func:`repro.core.bounded_algorithm.shelf_dual`.

The construction is written once, against the column interface of the
executors in :mod:`repro.perf.oracle`: the small/big partition, the
γ-allotments at ``d``, ``d/2`` and ``3d/2`` with their processing times
(``gamma_times`` pairs), the shelf works and the rule (i) times at
``γ - 1`` are read as columns, the rules'
``<= 3d/4`` tests run on whole columns, and the placements are collected in
an :class:`~repro.perf.schedule_builder.ArraySchedule`.  The machine layout
itself yields the small jobs' gap groups: S0 columns and S1 spans are busy
prefixes, and S2 carves at most one suffix per machine, so no sweep over
the placed pieces is needed.  The driver's oracle decides which backend
answers; a function called without one runs on a
:class:`~repro.perf.oracle.ScalarOracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..knapsack.items import KnapsackItem
from .allotment import gamma
from .backend import resolve_backend
from .capacity import index_array
from .job import MoldableJob
from .schedule import MachineSpan, Schedule

__all__ = [
    "partition_small_big",
    "split_big_jobs",
    "small_jobs_work",
    "shelf_profit",
    "shelf_items",
    "TwoShelfSchedule",
    "build_two_shelf_schedule",
    "ThreeShelfDiagnostics",
    "build_three_shelf_schedule",
]

_REL = 1e-9
_ABS = 1e-9


def _leq(a: float, b: float) -> bool:
    return a <= b + _ABS + _REL * max(abs(a), abs(b))


def _leq_array(a: np.ndarray, b: float) -> np.ndarray:
    """Elementwise :func:`_leq` with the same float operations, so the
    comparison is bit-for-bit the scalar one."""
    return a <= b + _ABS + _REL * np.maximum(np.abs(a), abs(b))


# --------------------------------------------------------------------------
# Partitioning and knapsack profits
# --------------------------------------------------------------------------

def partition_small_big(jobs: Iterable[MoldableJob], d: float) -> Tuple[List[MoldableJob], List[MoldableJob]]:
    """Split jobs into small (``t_j(1) <= d/2``) and big (the rest)."""
    small: List[MoldableJob] = []
    big: List[MoldableJob] = []
    for job in jobs:
        if _leq(job.processing_time(1), d / 2.0):
            small.append(job)
        else:
            big.append(job)
    return small, big


def split_big_jobs(
    jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    *,
    oracle=None,
) -> Optional[Tuple[List[MoldableJob], List[MoldableJob], int]]:
    """The big jobs of one dual step at target ``d``, split for the knapsack.

    Returns ``None`` when some big job cannot finish within ``d`` even on
    all ``m`` machines (the target must be rejected).  Otherwise returns
    ``(forced, knapsack_jobs, capacity)``: the big jobs that cannot meet
    ``d/2`` and so must run in shelf S1, the remaining big jobs, and the
    ``m - sum gamma_j(d)`` processors the forced jobs leave (possibly
    negative).  The split is made with masks over the ``oracle``'s
    ``t_j(1)``, γ(d) and γ(d/2) columns.
    """
    if oracle is None:
        _, oracle = resolve_backend(jobs, m, "scalar", None)
    pos = oracle.positions(jobs)
    big = np.flatnonzero(~_leq_array(oracle.t1[pos], d / 2.0))
    if not len(big):
        return [], [], m
    g_full = oracle.gamma_at(d, pos[big])
    if (g_full > m).any():
        return None
    is_forced = oracle.gamma_at(d / 2.0, pos[big]) > m
    forced = [jobs[i] for i in big[is_forced].tolist()]
    knapsack_jobs = [jobs[i] for i in big[~is_forced].tolist()]
    return forced, knapsack_jobs, m - sum(g_full[is_forced].tolist())  # exact at any m


def small_jobs_work(small: Iterable[MoldableJob]) -> float:
    """``W_S(d) = sum of t_j(1)`` over the small jobs."""
    return sum(job.processing_time(1) for job in small)


def shelf_profit(job: MoldableJob, d: float, m: int) -> float:
    """Knapsack profit ``v_j(d) = w_j(gamma_j(d/2)) - w_j(gamma_j(d))``.

    The work saved by promoting a big job from shelf S2 to shelf S1.  Requires
    both gammas to be defined; monotony guarantees non-negativity (we clamp
    tiny negative values caused by floating point).
    """
    g_half = gamma(job, d / 2.0, m)
    g_full = gamma(job, d, m)
    if g_half is None or g_full is None:
        raise ValueError(f"job {job.name!r} cannot meet the threshold with m={m} machines")
    return max(0.0, job.work(g_half) - job.work(g_full))


def shelf_items(jobs: Sequence[MoldableJob], d: float, m: int, *, oracle=None) -> List[KnapsackItem]:
    """The shelf-1 knapsack over ``jobs`` at target ``d``: one item per job,
    keyed by position, with size ``gamma_j(d)``, profit :func:`shelf_profit`
    and the job as payload, read from the ``oracle``'s columns."""
    if not jobs:
        return []
    if oracle is None:
        _, oracle = resolve_backend(jobs, m, "scalar", None)
    pos = oracle.positions(jobs)
    g_full, t_full = oracle.gamma_times(d, pos)
    g_half, t_half = oracle.gamma_times(d / 2.0, pos)
    missing = np.flatnonzero((g_full > m) | (g_half > m))
    if len(missing):
        raise ValueError(f"job {jobs[missing[0]].name!r} cannot meet the threshold with m={m} machines")
    # k * t_j(k) per job, as MoldableJob.work
    works_full = (g_full * t_full).tolist()
    works_half = (g_half * t_half).tolist()
    return [
        KnapsackItem(key=idx, size=size, profit=max(0.0, w_half - w_full), payload=job)
        for idx, (job, size, w_full, w_half) in enumerate(zip(jobs, g_full.tolist(), works_full, works_half))
    ]


# --------------------------------------------------------------------------
# Two-shelf schedule (Figure 2) — may be infeasible (S2 wider than m)
# --------------------------------------------------------------------------

@dataclass
class TwoShelfSchedule:
    """The (possibly infeasible) two-shelf picture of Figure 2."""

    d: float
    m: int
    shelf1: Dict[MoldableJob, int]  # job -> processors (gamma_j(d))
    shelf2: Dict[MoldableJob, int]  # job -> processors (gamma_j(d/2))
    small: List[MoldableJob]

    @property
    def shelf1_processors(self) -> int:
        return sum(self.shelf1.values())

    @property
    def shelf2_processors(self) -> int:
        return sum(self.shelf2.values())

    @property
    def total_work(self) -> float:
        w1 = sum(job.work(k) for job, k in self.shelf1.items())
        w2 = sum(job.work(k) for job, k in self.shelf2.items())
        return w1 + w2

    @property
    def is_feasible(self) -> bool:
        """Whether both shelves fit into ``m`` machines simultaneously (the
        final, transformed schedule can be feasible even when this is not)."""
        return self.shelf1_processors <= self.m and self.shelf2_processors <= self.m

    def work_bound(self) -> float:
        """The Lemma 6 threshold ``m*d - W_S(d)``."""
        return self.m * self.d - small_jobs_work(self.small)


def build_two_shelf_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    shelf1_jobs: Iterable[MoldableJob],
) -> Optional[TwoShelfSchedule]:
    """Assemble the two-shelf picture for a given shelf-1 selection.

    Returns ``None`` if some big job cannot meet its shelf's height at all
    (``t_j(m) > d`` for shelf 1 or ``t_j(m) > d/2`` for shelf 2), in which
    case the target ``d`` must be rejected or the job forced into shelf 1 by
    the caller.
    """
    _, oracle = resolve_backend(jobs, m, "scalar", None)
    columns = _shelf_columns(jobs, m, d, shelf1_jobs, oracle)
    if columns is None:
        return None
    _, _, small, s1, g1, _, s2, g2, _ = columns
    return TwoShelfSchedule(
        d=d,
        m=m,
        shelf1=dict(zip([jobs[i] for i in s1.tolist()], g1.tolist())),
        shelf2=dict(zip([jobs[i] for i in s2.tolist()], g2.tolist())),
        small=[jobs[i] for i in np.flatnonzero(small).tolist()],
    )


def _shelf_columns(jobs, m, d, shelf1_jobs, oracle):
    """The two-shelf picture as oracle columns, or ``None`` when a big job
    cannot meet its shelf's height.

    Returns ``(pos, t1, small, s1, g1, t_s1, s2, g2, t_s2)``: the oracle
    positions of ``jobs``, every job's ``t_j(1)`` and small mask
    (``t_j(1) <= d/2`` with :func:`_leq`), the positions in ``jobs`` of the
    shelf-1 and shelf-2 big jobs, their allotments γ(d) / γ(d/2) and their
    processing times there.  A threshold
    is only searched when some job needs it.
    """
    pos = oracle.positions(jobs)
    t1 = oracle.t1[pos]
    small = _leq_array(t1, d / 2.0)
    # flag the oracle positions of the shelf-1 jobs (a job outside the
    # instance is ignored), then read the flags at the positions of `jobs`
    flags = np.zeros(oracle.n, dtype=bool)
    flags[[p for p in map(oracle.job_index.get, map(id, shelf1_jobs)) if p is not None]] = True
    in_s1 = flags[pos]
    s1 = np.flatnonzero(~small & in_s1)
    s2 = np.flatnonzero(~small & ~in_s1)
    g1, t_s1 = oracle.gamma_times(d, pos[s1]) if len(s1) else (s1, t1[s1])
    g2, t_s2 = oracle.gamma_times(d / 2.0, pos[s2]) if len(s2) else (s2, t1[s2])
    if (g1 > m).any() or (g2 > m).any():
        return None
    return pos, t1, small, s1, g1, t_s1, s2, g2, t_s2


# --------------------------------------------------------------------------
# Three-shelf construction (Lemmas 7-9, Figure 3)
# --------------------------------------------------------------------------

@dataclass
class ThreeShelfDiagnostics:
    """Structural information about a three-shelf construction (used by the
    Figure 2/3 experiments and by tests)."""

    d: float
    m: int
    shelf0_processors: int = 0
    shelf1_processors: int = 0
    shelf2_processors: int = 0
    shelf0_jobs: int = 0
    shelf1_jobs: int = 0
    shelf2_jobs: int = 0
    small_jobs: int = 0
    piggybacked_jobs: int = 0
    moved_from_shelf2: int = 0
    two_shelf_feasible: bool = False
    rejected_reason: Optional[str] = None


def build_three_shelf_schedule(
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
        ``3d/2``, the shelf works and every processing time the construction
        uses; a :class:`~repro.perf.oracle.ScalarOracle` when omitted.

    Returns ``None`` when the selection violates the Lemma 6 work bound, shelf
    S1 does not fit, or (defensively) the construction cannot complete — the
    caller should then reject the target ``d``.
    """
    diag = diagnostics if diagnostics is not None else ThreeShelfDiagnostics(d=d, m=m)
    diag.d = d
    diag.m = m

    if oracle is None:
        _, oracle = resolve_backend(jobs, m, "scalar", None)
    columns = _shelf_columns(jobs, m, d, shelf1_jobs, oracle)
    if columns is None:
        diag.rejected_reason = "a big job cannot meet its shelf height on m machines"
        return None
    pos, t1, small, s1, g1, t_s1, s2, g2, t_s2 = columns
    small_idx = np.flatnonzero(small).tolist()
    small_times = t1[small].tolist()
    diag.small_jobs = len(small_idx)
    s1_list, g1_list = s1.tolist(), g1.tolist()
    s2_list, g2_list = s2.tolist(), g2.tolist()
    s1_total = sum(g1_list)  # exact at any m
    diag.two_shelf_feasible = s1_total <= m and sum(g2_list) <= m

    if s1_total > m:
        diag.rejected_reason = "shelf S1 needs more than m processors"
        return None
    # the Lemma 6 bound: shelf works k * t_j(k) summed left to right, against
    # m*d - W_S(d)
    total_work = oracle.sequential_sum(g1 * t_s1) + oracle.sequential_sum(g2 * t_s2)
    if not _leq(total_work, m * d - sum(small_times)):
        diag.rejected_reason = "total work exceeds m*d - W_S(d)"
        return None

    three_half = 1.5 * d
    three_quarter = 0.75 * d

    # Jobs are positions in `jobs`.  S0 is a list of columns (processors,
    # placements); a placement is (job, start, duration) on all of its
    # column's processors, with the duration of a rule (i) placement read
    # after both steps.
    s0_procs_list: List[int] = []
    s0_rows: List[Optional[list]] = []
    shrunk: List[Tuple[int, int, int]] = []  # (S0 column, job, processors) of rule (i)
    s1_alloc: Dict[int, Tuple[int, float]] = {}  # job -> (processors, time), in S1 order
    pending: Optional[int] = None  # the unpaired 1-processor job of rule (ii)
    s0_procs = 0
    s1_procs = 0

    def apply_rules_i_ii(i: int, procs: int, t: float, short: bool) -> None:
        """Rules (i)/(ii) for job ``i`` destined for S1 on ``procs``
        processors, taking ``t``; ``short`` is ``t <= 3d/4``.  The job ends
        in S0 (alone or paired), pending as the unpaired 1-processor job, or
        in S1."""
        nonlocal pending, s0_procs, s1_procs
        if short and procs > 1:
            # rule (i): give up one processor, run alongside S1+S2
            shrunk.append((len(s0_rows), i, procs - 1))
            s0_procs_list.append(procs - 1)
            s0_rows.append(None)
            s0_procs += procs - 1
        elif short and procs == 1:
            # rule (ii): pair 1-processor jobs of height <= 3d/4
            if pending is None:
                pending = i
                s1_alloc[i] = (1, t)
                s1_procs += 1
            else:
                partner = pending
                pending = None
                t_partner = s1_alloc.pop(partner)[1]
                s1_procs -= 1
                s0_procs_list.append(1)
                s0_rows.append([(partner, 0.0, t_partner), (i, t_partner, t)])
                s0_procs += 1
        else:
            s1_alloc[i] = (procs, t)
            s1_procs += procs

    # Step A: scan shelf S1
    if s1_list:
        shorts = _leq_array(t_s1, three_quarter).tolist()
        for i, procs, t, short in zip(s1_list, g1_list, t_s1.tolist(), shorts):
            if short:
                apply_rules_i_ii(i, procs, t, short)
            else:  # stays in S1, as apply_rules_i_ii would leave it
                s1_alloc[i] = (procs, t)
                s1_procs += procs

    # Step B: rule (iii) — pull S2 jobs alongside while processors are free,
    # smallest need γ(3d/2) first (ties in S2 order).  The free processors
    # only shrink, so the jobs moved are a prefix of the candidates that fit
    # the processors free before the step.
    moved = set()
    if s2_list:
        needs, need_times = oracle.gamma_times(three_half, pos[s2])
        # S2 jobs satisfy t_j(m) <= d/2 <= 3d/2, so every need is defined.
        assert not (needs > m).any()
        order = np.argsort(needs, kind="stable")
        candidates = order[: np.count_nonzero(needs <= m - s0_procs - s1_procs)]
        if len(candidates):
            t_need = need_times[candidates]
            shorts = _leq_array(t_need, three_quarter).tolist()
            for k, need, t, short in zip(candidates.tolist(), needs[candidates].tolist(), t_need.tolist(), shorts):
                if need > m - s0_procs - s1_procs:
                    break
                moved.add(k)
                diag.moved_from_shelf2 += 1
                if t > d:
                    # runs alongside both shelves for up to 3d/2
                    s0_procs_list.append(need)
                    s0_rows.append([(s2_list[k], 0.0, t)])
                    s0_procs += need
                else:
                    apply_rules_i_ii(s2_list[k], need, t, short)

    if shrunk:
        ks = index_array([procs for _, _, procs in shrunk])
        times = oracle.times_at(ks, pos[[i for _, i, _ in shrunk]]).tolist()
        for (col, i, _), t in zip(shrunk, times):
            s0_rows[col] = [(i, 0.0, t)]

    # Resolve the unpaired category-2 job via the special case of rule (ii):
    # pair it on top of a tall 1-shelf job if their heights fit into 3d/2.
    # The shortest host fits iff any host does; ties go to the first in S1.
    rider: Optional[int] = None
    host: Optional[int] = None
    if pending is not None:
        rider_time = s1_alloc[pending][1]
        best: Optional[float] = None
        for i, (_, t) in s1_alloc.items():
            if i != pending and t > three_quarter and (best is None or t < best):
                host, best = i, t
        if host is not None and _leq(rider_time + best, three_half):
            rider = pending
            del s1_alloc[rider]
            s1_procs -= 1
            diag.piggybacked_jobs += 1
        else:
            host = None  # the job stays in S1 on one processor
    piggybacked = 0 if rider is None else 1

    # ------------------------------------------------------- machine layout
    s2_alloc = [(s2_list[k], g2_list[k], t) for k, t in enumerate(t_s2.tolist()) if k not in moved]
    diag.shelf0_processors = s0_procs + piggybacked
    diag.shelf1_processors = s1_procs
    diag.shelf2_processors = sum(procs for _, procs, _ in s2_alloc)
    diag.shelf0_jobs = sum(len(row) for row in s0_rows) + piggybacked
    diag.shelf1_jobs = len(s1_alloc)
    diag.shelf2_jobs = len(s2_alloc)

    # S0 with the rider's machine, S1 without it
    if s0_procs + s1_procs > m:
        diag.rejected_reason = "shelves S0+S1 exceed m processors after transformation"
        return None

    from ..perf.schedule_builder import ArraySchedule  # repro.perf imports repro.core

    builder = ArraySchedule(m, metadata={"construction": "three_shelf", "d": d})
    out_jobs, out_starts, out_overrides, out_owner, out_first, out_count = builder.raw_columns()

    def place(job: MoldableJob, start: float, spans: Sequence[MachineSpan]) -> None:
        out_owner.extend([len(out_jobs)] * len(spans))
        out_jobs.append(job)
        out_starts.append(start)
        for first, count in spans:
            out_first.append(first)
            out_count.append(count)

    def place_rows(rows: Sequence[MoldableJob], starts, firsts, counts) -> None:
        """Placements with one span each, as columns."""
        out_owner.extend(range(len(out_jobs), len(out_jobs) + len(rows)))
        out_jobs.extend(rows)
        out_starts.extend(starts)
        out_first.extend(firsts)
        out_count.extend(counts)

    # The layout lists the machine ranges in machine order with what their
    # machines share: (first, count, pieces) for an S0 column or the rider's
    # machine, busy during the (start, end) pieces, and a pool entry
    # [first, count, busy_until, carved] for machines S2 may reuse, busy on
    # [0, busy_until) (None: idle) before S2 carves (first, count, (start,
    # end)) sub-ranges from its front.  S0 and S1 fit: they take
    # s0_procs + s1_procs <= m machines.
    # Shelf S0 columns, back to back from machine 0
    s0_firsts = list(accumulate(s0_procs_list, initial=0))
    next_machine = s0_firsts.pop()
    s0_columns = list(zip(s0_firsts, s0_procs_list, s0_rows))
    layout: list = [
        (first, procs, [(start, start + t) for _, start, t in placements]) for first, procs, placements in s0_columns
    ]
    rows = [(jobs[i], start, first, procs) for first, procs, placements in s0_columns for i, start, _ in placements]
    if rows:
        place_rows(*zip(*rows))
    # Shelf S1 jobs: one span each, back to back from the first free machine
    s1_jobs = list(s1_alloc)
    s1_procs_list = [procs for procs, _ in s1_alloc.values()]
    firsts = list(accumulate(s1_procs_list, initial=next_machine))
    next_machine = firsts.pop()
    pool = [[first, procs, t, None] for first, (procs, t) in zip(firsts, s1_alloc.values())]
    rows = [jobs[i] for i in s1_jobs]
    starts = [0.0] * len(rows)
    counts = s1_procs_list
    if host is not None:
        # one machine of the host also runs the rider afterwards
        h = s1_jobs.index(host)
        first, procs, t, _ = pool[h]
        rows.insert(h + 1, jobs[rider])
        starts.insert(h + 1, t)
        firsts.insert(h + 1, first)
        counts.insert(h + 1, 1)
        if procs > 1:
            pool[h][:2] = [first + 1, procs - 1]
        else:
            del pool[h]
        layout.extend(pool[:h])
        layout.append((first, 1, [(0.0, 0.0 + t), (t, t + rider_time)]))
        layout.extend(pool[h:])
    else:
        layout.extend(pool)
    place_rows(rows, starts, firsts, counts)
    if next_machine < m:
        pool.append([next_machine, m - next_machine, None, None])
        layout.append(pool[-1])

    # Shelf S2 jobs — placed on machines *not* used by S0/piggyback,
    # finishing exactly at 3d/2.
    pool_idx = 0
    for i, procs, t in s2_alloc:
        start = three_half - t
        piece = (start, start + t)
        needed = procs
        spans: List[MachineSpan] = []
        while needed > 0:
            if pool_idx >= len(pool):
                diag.rejected_reason = _OVERFLOW
                return None
            entry = pool[pool_idx]
            first, count, _, carved = entry
            taken = min(count, needed)
            spans.append((first, taken))
            if carved is None:
                carved = entry[3] = []
            carved.append((first, taken, piece))
            entry[0] = first + taken
            entry[1] = count - taken
            if taken == count:
                pool_idx += 1
            needed -= taken
        place(jobs[i], start, spans)

    # ------------------------------------------------- small-job insertion
    # Next-fit over machine groups (Lemma 9): within a group all machines have
    # the same gap; a machine that cannot take the current job is discarded.
    if small_idx and not _insert_small_jobs(
        place, [jobs[i] for i in small_idx], small_times, _gap_groups(layout, three_half)
    ):
        diag.rejected_reason = "small jobs did not fit (work bound violated)"
        return None

    out_overrides.extend([None] * len(out_jobs))
    schedule = builder.build()
    schedule.metadata["shelves"] = {
        "s0_processors": diag.shelf0_processors,
        "s1_processors": diag.shelf1_processors,
        "s2_processors": diag.shelf2_processors,
    }
    return schedule


_OVERFLOW = "machine layout overflow (construction could not fit all shelves)"


def _gap(pieces: Sequence[Tuple[float, float]], horizon: float) -> Tuple[float, float]:
    """The free gap ``(gap_start, gap_end)`` of a machine busy during the
    ``(start, end)`` ``pieces``: the chain of pieces starting within
    :data:`_ABS` of time 0 or of the chain's end is merged into the busy
    prefix, and the gap ends where the first later piece starts (or at the
    ``horizon``), never before it begins."""
    gap_start = 0.0
    gap_end = horizon
    for s, f in sorted(pieces):
        if s <= gap_start + _ABS:
            gap_start = max(gap_start, f)
        else:
            gap_end = min(gap_end, s)
    if gap_end < gap_start:
        gap_end = gap_start
    return gap_start, gap_end


def _gap_groups(layout: list, horizon: float):
    """Yield the gap groups ``(first, count, gap_start, gap_end)`` of the
    machine ``layout`` in machine order, each when the next-fit reaches it:
    a range with fixed busy pieces as one group, a pool entry as the
    sub-ranges S2 carved (busy until ``busy_until``, then with their S2
    piece) followed by its uncarved rest."""
    for entry in layout:
        if isinstance(entry, tuple):
            first, count, pieces = entry
            yield (first, count) + _gap(pieces, horizon)
            continue
        first, count, busy_until, carved = entry
        prefix = [] if busy_until is None else [(0.0, 0.0 + busy_until)]
        for sub_first, sub_count, piece in carved or ():
            yield (sub_first, sub_count) + _gap(prefix + [piece], horizon)
        if count:
            yield (first, count) + _gap(prefix, horizon)


def _insert_small_jobs(place, small: Sequence[MoldableJob], times: Sequence[float], groups) -> bool:
    """Next-fit insertion of the small jobs into the per-machine gaps of the
    gap ``groups`` (Lemma 9), placing each with ``place``.

    All machines of a group share the same contiguous free gap.  The next-fit
    rule of the paper is followed literally: the current job goes onto the
    current machine if it still fits, otherwise the machine is discarded and
    the next machine of the group (or the next group) is tried; machines are
    never revisited.  A job that does not fit a fresh machine fits no machine
    of its group, so the rest of the group is discarded in one step (the
    placements are the same as discarding its machines one by one, without
    the O(m) walk at large ``m``, and the same for any split of the machines
    into groups of equal gaps).
    """
    group = next(groups, None)
    fill: Optional[float] = None
    offset = 0
    for job, t in zip(small, times):
        while group is not None:
            first, count, gap_start, gap_end = group
            if fill is None:
                fill = gap_start
            if offset >= count:
                group = next(groups, None)
                offset = 0
                fill = None
                continue
            end = fill + t
            if end <= gap_end + _ABS + _REL * max(abs(end), abs(gap_end)):  # _leq
                place(job, fill, [(first + offset, 1)])
                fill = end
                break
            if fill == gap_start:
                # a fresh machine cannot take the job, and every machine of
                # the group has the same gap: discard the whole group at once
                group = next(groups, None)
                offset = 0
            else:
                # discard this machine, move to the next in the group
                offset += 1
            fill = None
        else:
            return False
    return True
