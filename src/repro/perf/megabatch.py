"""Mega-batch fleet solving: N independent instances, one lockstep γ-search.

``repro.serve`` (the process fleet) isolates instances in worker subprocesses;
each worker still pays the per-call Python dispatch of its own dual search.
This module removes that per-instance dispatch *within* a process: it packs
many independent instances' jobs into one shared
:class:`~repro.perf.arrays.JobArrayBundle` and drives every instance's full
dual search + list-scheduling phase in lockstep, so each γ-bisection level and
each estimator evaluation is one batched kernel call per job class across the
*whole fleet*.  On small-n instances — where per-call dispatch dominates — the
batched kernels amortise across the fleet and throughput scales with the pack
size; the process fleet composes on top (each worker solves a pack).

Bit-identity contract
---------------------
``solve_mega(instances)`` returns, per instance, exactly the
:class:`~repro.core.scheduler.SchedulingResult` that a solo
``schedule_moldable(jobs, m, eps, algorithm=...)`` call produces — the same
schedule columns, makespan, lower bound, metadata and per-oracle probe
accounting.  This holds because

* each instance's jobs occupy a contiguous *segment* of the shared bundle,
  and every kernel is elementwise in ``(job, k)`` — a segment view evaluates
  the same formulas on the same parameters as a private bundle;
* the γ-bisection advances every job's ``(lo, hi, mid)`` trajectory
  independently, so interleaving many instances' searches in one
  :func:`~repro.perf.oracle.lockstep_gamma_round` changes neither the probed
  counts nor the results (per-segment ``stats`` are attributed back exactly);
* each segment runs the solo drivers' own request generators
  (:func:`~repro.core.two_approx.two_approx_steps`,
  :func:`~repro.core.fptas.fptas_steps`, built on
  :func:`~repro.core.bounds.estimator_steps` and
  :func:`~repro.core.dual.dual_search_steps`) — the very code a solo
  vectorized solve runs through :meth:`BatchedOracle.run
  <repro.perf.oracle.BatchedOracle.run>`.  The request streams are
  therefore identical by construction; only their execution is batched
  across segments.

The differential harness's ``mega`` mode enforces the contract: every fuzz
case is solved solo and inside a random co-batch, and the schedules must be
bit-identical column for column.

Instances whose algorithm resolves to something other than ``two_approx`` /
``fptas`` (or whose ``m`` exceeds the vectorized boundary) fall back to a solo
``schedule_moldable`` call — trivially identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.backend import MAX_VECTORIZED_M
from ..core.fptas import check_fptas_instance, fptas_steps
from ..core.job import MoldableJob
from ..core.schedule import Schedule
from ..core.scheduler import (
    ALGORITHMS,
    SchedulingResult,
    auto_algorithm,
    check_distinct_jobs,
    check_machine_count,
    driver_result,
    schedule_moldable,
)
from ..core.two_approx import two_approx_steps
from .arrays import JobArrayBundle
from .oracle import BatchedOracle, lockstep_gamma_round

# Not called here: the benchmark's traced run (perfbench/layers.py) patches
# these names on this module, so they must stay importable from it.
from ..core.list_scheduling import list_schedule  # noqa: F401
from ..core.validation import assert_valid_schedule  # noqa: F401
from .schedule_builder import schedule_from_arrays  # noqa: F401

__all__ = ["MegaBatch", "MegaOracle", "solve_mega"]


class _SegmentView(JobArrayBundle):
    """A contiguous-slice view of a parent bundle, presenting the
    :class:`JobArrayBundle` interface over one instance's jobs.

    ``groups`` aliases the parent's group list (the lockstep round requires
    one shared kernel table), while ``group_of`` / ``pos_in_group`` are slices
    of the parent's arrays — so segment-local job indices map straight to the
    parent's kernel parameters and every evaluation is bit-identical to a
    private bundle over the same jobs.
    """

    def __init__(self, parent: JobArrayBundle, start: int, stop: int) -> None:
        # deliberately does NOT call JobArrayBundle.__init__: no re-grouping
        self.jobs = parent.jobs[start:stop]
        self.group_of = parent.group_of[start:stop]
        self.pos_in_group = parent.pos_in_group[start:stop]
        self.groups = parent.groups
        self._parts = self._partition()


class _Segment:
    """One instance inside a mega batch."""

    __slots__ = (
        "slot",
        "jobs",
        "m",
        "eps",
        "chosen",
        "validate",
        "start",
        "stop",
        "n",
        "index",
        "oracle",
    )

    def __init__(self, slot, jobs, m, eps, chosen, validate):
        self.slot = slot
        self.jobs = jobs
        self.m = m
        self.eps = eps
        self.chosen = chosen
        self.validate = validate
        self.n = len(jobs)
        self.start = 0
        self.stop = 0
        #: the segment's job positions in the shared bundle
        self.index: Optional[np.ndarray] = None
        self.oracle: Optional[BatchedOracle] = None


class MegaBatch:
    """N instances' jobs concatenated into one shared bundle with per-instance
    segment offsets; each segment gets a :class:`BatchedOracle` over its own
    ``(jobs, m)`` whose evaluations run through a segment view of the shared
    bundle."""

    def __init__(self, segments: Sequence[_Segment], *, warm_start: bool = True) -> None:
        self.segments: List[_Segment] = list(segments)
        all_jobs: List[MoldableJob] = []
        for seg in self.segments:
            seg.start = len(all_jobs)
            all_jobs.extend(seg.jobs)
            seg.stop = len(all_jobs)
            seg.index = np.arange(seg.start, seg.stop, dtype=np.int64)
        self.bundle = JobArrayBundle(all_jobs)
        for seg in self.segments:
            view = _SegmentView(self.bundle, seg.start, seg.stop)
            seg.oracle = BatchedOracle(
                seg.jobs, seg.m, warm_start=warm_start, bundle=view
            )

    def __len__(self) -> int:
        return len(self.segments)


class MegaOracle:
    """Batches one round of the segments' oracle requests.

    γ-requests go through :func:`lockstep_gamma_round` (one kernel evaluation
    per job class per bisection level across all requesting segments, with
    each segment's threshold cache and warm-start brackets intact);
    whole-segment time evaluations are concatenated into a single
    ``eval_at`` on the shared bundle.
    """

    def __init__(self, batch: MegaBatch) -> None:
        self.batch = batch
        self.stats = {"gamma_rounds": 0, "eval_rounds": 0}

    def gamma_round(self, requests: Sequence[Tuple[_Segment, float]]) -> List[np.ndarray]:
        self.stats["gamma_rounds"] += 1
        return lockstep_gamma_round([(seg.oracle, t) for seg, t in requests])

    def eval_round(self, requests: Sequence[Tuple[_Segment, np.ndarray]]) -> List[np.ndarray]:
        self.stats["eval_rounds"] += 1
        flat = self.batch.bundle.eval_at(
            np.concatenate([seg.index for seg, _ in requests]),
            np.concatenate([ks for _, ks in requests]),
        )
        stops = np.cumsum([seg.n for seg, _ in requests]).tolist()
        return [flat[a:b] for a, b in zip([0] + stops, stops)]


def _solve_steps(seg: _Segment):
    """One segment's ``schedule_moldable`` as a request generator: the solo
    driver's generator, then the facade's result assembly."""
    if seg.chosen == "two_approx":
        res = yield from two_approx_steps(seg.jobs, seg.oracle, validate=seg.validate)
    else:  # fptas
        res = yield from fptas_steps(seg.jobs, seg.oracle, seg.eps, validate=seg.validate)
    return driver_result(seg.jobs, seg.m, seg.eps, seg.chosen, res.schedule, res.estimate)


def _drive(batch: MegaBatch, oracle: MegaOracle) -> List[SchedulingResult]:
    """Advance every segment's solve generator one request per round,
    batching each round's γ-requests into one lockstep search and its
    evaluation requests into one shared-bundle pass."""
    gens = {seg.slot: _solve_steps(seg) for seg in batch.segments}
    seg_of = {seg.slot: seg for seg in batch.segments}
    results: Dict[int, SchedulingResult] = {}
    replies: Dict[int, Any] = {}
    live = sorted(gens)
    while live:
        gamma_reqs: List[Tuple[int, float]] = []
        eval_reqs: List[Tuple[int, np.ndarray]] = []
        still_live = []
        for slot in live:
            try:
                kind, payload = gens[slot].send(replies.pop(slot, None))
            except StopIteration as stop:
                results[slot] = stop.value
                continue
            still_live.append(slot)
            if kind == "gamma":
                gamma_reqs.append((slot, payload))
            else:
                eval_reqs.append((slot, payload))
        if gamma_reqs:
            answers = oracle.gamma_round(
                [(seg_of[slot], t) for slot, t in gamma_reqs]
            )
            for (slot, _), ans in zip(gamma_reqs, answers):
                replies[slot] = ans
        if eval_reqs:
            answers = oracle.eval_round(
                [(seg_of[slot], ks) for slot, ks in eval_reqs]
            )
            for (slot, _), ans in zip(eval_reqs, answers):
                replies[slot] = ans
        live = still_live
    return [results[seg.slot] for seg in batch.segments]


# ---------------------------------------------------------------------------
# public entry point
# ---------------------------------------------------------------------------


def _coerce_instance(item, eps, algorithm):
    """Accept ``(jobs, m)`` tuples or objects with ``jobs``/``m`` attributes
    (``eps`` / ``algorithm`` attributes override the call defaults when
    present and non-None, e.g. :class:`repro.serve.FleetInstance`)."""
    if isinstance(item, tuple):
        jobs, m = item
        i_eps = i_alg = None
    else:
        jobs, m = item.jobs, item.m
        i_eps = getattr(item, "eps", None)
        i_alg = getattr(item, "algorithm", None)
    check_machine_count(m)
    jobs = list(jobs)
    check_distinct_jobs(jobs)
    return (
        jobs,
        int(m),
        float(eps if i_eps is None else i_eps),
        algorithm if i_alg is None else i_alg,
    )


def solve_mega(
    instances: Sequence[Any],
    eps: float = 0.1,
    *,
    algorithm: str = "auto",
    validate: bool = True,
    warm_start: bool = True,
    stats: Optional[dict] = None,
) -> List[SchedulingResult]:
    """Solve many independent instances, sharing every batched kernel call.

    Each element of ``instances`` is a ``(jobs, m)`` tuple or an object with
    ``jobs`` / ``m`` (and optionally ``eps`` / ``algorithm``) attributes.
    Returns one :class:`~repro.core.scheduler.SchedulingResult` per instance,
    in order, bit-identical to solo ``schedule_moldable`` calls.

    Instances whose resolved algorithm is batchable (``two_approx`` or
    ``fptas``, ``m`` within the vectorized boundary) are packed into one
    :class:`MegaBatch` and solved in lockstep; the rest fall back to solo
    vectorized solves.  Invalid parameters raise exactly the solo errors
    (``m`` that is a ``bool`` or not an integer included), before any work
    starts.

    ``stats``, when a dict, receives ``mega_size`` (packed instance count),
    ``gamma_rounds`` / ``eval_rounds`` (batched oracle rounds) and
    ``segments`` (each packed oracle's solo-equivalent probe counters).
    """
    normalized = []
    for item in instances:
        jobs, m, i_eps, i_alg = _coerce_instance(item, eps, algorithm)
        if i_alg not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {i_alg!r}; choose one of {ALGORITHMS}")
        chosen = i_alg
        if jobs and i_alg == "auto":
            chosen = auto_algorithm(len(jobs), m, i_eps)
        mega = bool(jobs) and chosen in ("two_approx", "fptas") and m <= MAX_VECTORIZED_M
        if mega and chosen == "fptas":
            # solo fptas_schedule raises these before touching the oracle
            check_fptas_instance(len(jobs), m, i_eps)
        normalized.append((jobs, m, i_eps, i_alg, chosen, mega))

    segments = []
    for slot, (jobs, m, i_eps, i_alg, chosen, mega) in enumerate(normalized):
        if mega:
            segments.append(_Segment(slot, jobs, m, i_eps, chosen, validate))

    mega_results: Dict[int, SchedulingResult] = {}
    if segments:
        batch = MegaBatch(segments, warm_start=warm_start)
        oracle = MegaOracle(batch)
        for seg, result in zip(batch.segments, _drive(batch, oracle)):
            mega_results[seg.slot] = result
        if stats is not None:
            stats["mega_size"] = len(segments)
            stats.update(oracle.stats)
            stats["segments"] = [dict(seg.oracle.stats) for seg in batch.segments]
    elif stats is not None:
        stats["mega_size"] = 0
        stats["gamma_rounds"] = 0
        stats["eval_rounds"] = 0
        stats["segments"] = []

    out: List[SchedulingResult] = []
    for slot, (jobs, m, i_eps, i_alg, chosen, mega) in enumerate(normalized):
        if mega:
            out.append(mega_results[slot])
        elif not jobs:
            # solo empty-instance path: algorithm is reported as given
            out.append(SchedulingResult(Schedule(m=m), i_alg, i_eps, 0.0, None))
        else:
            out.append(
                schedule_moldable(
                    jobs, m, i_eps, algorithm=i_alg, validate=validate, backend="vectorized"
                )
            )
    return out
