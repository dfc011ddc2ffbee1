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
* the drivers here are line-for-line transcriptions of the solo drivers
  (:func:`~repro.core.bounds.ludwig_tiwari_estimator`,
  :func:`~repro.core.dual.dual_binary_search`,
  :func:`~repro.core.two_approx.two_approximation`,
  :func:`~repro.core.fptas.fptas_schedule`) rewritten as generators that
  *yield* their oracle requests — the request streams are identical, only
  their execution is batched across segments.

The differential harness's ``mega`` mode enforces the contract: every fuzz
case is solved solo and inside a random co-batch, and the schedules must be
bit-identical column for column.

Instances whose algorithm resolves to something other than ``two_approx`` /
``fptas`` (or whose ``m`` exceeds the vectorized boundary) fall back to a solo
``schedule_moldable`` call — trivially identical.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.allotment import Allotment
from ..core.backend import MAX_VECTORIZED_M
from ..core.bounds import EstimatorResult
from ..core.dual import DualSearchResult
from ..core.fptas import fptas_machine_threshold
from ..core.job import MoldableJob
from ..core.list_scheduling import list_schedule
from ..core.schedule import Schedule
from ..core.scheduler import (
    ALGORITHMS,
    SchedulingResult,
    auto_algorithm,
    check_distinct_jobs,
    check_machine_count,
    schedule_moldable,
)
from ..core.two_approx import TwoApproxResult
from ..core.validation import assert_valid_schedule
from .arrays import JobArrayBundle
from .oracle import BatchedOracle, lockstep_gamma_round
from .schedule_builder import schedule_from_arrays

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
        # static partition over the segment; groups absent from the segment
        # are skipped (the parent's eval_all never sees an empty group, some
        # kernels reject empty position arrays)
        self._parts = []
        for gid in np.unique(self.group_of).tolist():
            idx = np.flatnonzero(self.group_of == gid)
            self._parts.append((self.groups[gid], idx, self.pos_in_group[idx]))

    def eval_all(self, ks) -> np.ndarray:
        n = len(self.jobs)
        ks = np.broadcast_to(np.asarray(ks, dtype=np.float64), (n,))
        out = np.empty(n, dtype=np.float64)
        for group, idx, pos in self._parts:
            out[idx] = group.eval(pos, ks[idx])
        return out


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
        idx_parts = []
        ks_parts = []
        for seg, ks in requests:
            idx_parts.append(np.arange(seg.start, seg.stop, dtype=np.int64))
            ks_parts.append(np.broadcast_to(np.asarray(ks, dtype=np.float64), (seg.n,)))
        flat = self.batch.bundle.eval_at(
            np.concatenate(idx_parts), np.concatenate(ks_parts)
        )
        out: List[np.ndarray] = []
        offset = 0
        for seg, _ in requests:
            out.append(flat[offset : offset + seg.n])
            offset += seg.n
        return out


# ---------------------------------------------------------------------------
# generator transcriptions of the solo drivers
#
# Each generator yields ("gamma", threshold) or ("eval", per-job counts) and
# receives the answer back via .send(); the request sequence is exactly the
# solo driver's oracle-call sequence, so caches, warm starts and stats evolve
# identically.  Return values travel on StopIteration.
# ---------------------------------------------------------------------------


def _trivial(seg: _Segment) -> float:
    """``trivial_lower_bound`` on the batched path (no oracle requests: t1/tm
    are cached on first access)."""
    oracle = seg.oracle
    return max(float(oracle.tm.max()), oracle.sequential_sum(oracle.t1) / seg.m)


def _gen_phi(seg: _Segment, tau: float):
    """``_phi`` (bounds.py): average canonical load at ``tau`` or ``None``."""
    gammas = yield ("gamma", tau)
    if len(gammas) and gammas.max() > seg.m:
        return None
    ks = np.broadcast_to(np.asarray(gammas, dtype=np.float64), (seg.n,))
    times = yield ("eval", ks)
    return BatchedOracle.sequential_sum(ks * times) / seg.m


def _gen_allot(seg: _Segment, tau: float):
    """``_canonical_allotment`` (bounds.py) on the batched path."""
    gammas = yield ("gamma", tau)
    if len(gammas) and gammas.max() > seg.m:
        return None
    return Allotment.from_trusted_counts(dict(zip(seg.jobs, gammas.tolist())))


def _gen_estimator(seg: _Segment):
    """``ludwig_tiwari_estimator`` (oracle path, default tol/max_iter)."""
    tol = 1e-6
    m = seg.m
    oracle = seg.oracle
    lo = max(float(oracle.tm.max()), 1e-300)
    hi = max(oracle.sequential_sum(oracle.t1), lo)

    phi_lo = yield from _gen_phi(seg, lo)
    if phi_lo is not None and phi_lo <= lo:
        allot = yield from _gen_allot(seg, lo)
        assert allot is not None
        return EstimatorResult(omega=max(phi_lo, lo, _trivial(seg)), allotment=allot)

    for _ in range(128):
        if hi <= lo * (1.0 + tol):
            break
        mid = math.sqrt(lo * hi)
        phi_mid = yield from _gen_phi(seg, mid)
        if phi_mid is None or phi_mid > mid:
            lo = mid
        else:
            hi = mid

    allot = yield from _gen_allot(seg, hi)
    assert allot is not None, "upper end of the bracket must always be feasible"
    # solo reads gamma_array(hi) again (a threshold-cache hit) and evaluates
    # works_at + times_at; the same times array serves both here.
    gammas = yield ("gamma", hi)
    ks = np.broadcast_to(np.asarray(gammas, dtype=np.float64), (seg.n,))
    times = yield ("eval", ks)
    omega = max(BatchedOracle.sequential_sum(ks * times) / m, float(times.max()))
    lower = max(_trivial(seg), lo)
    omega = max(omega / (1.0 + tol), lower)
    return EstimatorResult(omega=omega, allotment=allot, ratio=2.0 * (1.0 + 2.0 * tol))


def _gen_two_approx(seg: _Segment):
    """``two_approximation`` (vectorized path); returns its
    :class:`TwoApproxResult`."""
    jobs = seg.jobs
    estimate = yield from _gen_estimator(seg)
    counts = estimate.allotment.counts
    ks = np.array([counts[j] for j in jobs], dtype=np.float64)
    times = yield ("eval", ks)
    order = [jobs[i] for i in np.argsort(-times, kind="stable").tolist()]
    allotted_times = dict(zip(jobs, times.tolist()))
    schedule = list_schedule(
        jobs,
        estimate.allotment,
        seg.m,
        order=order,
        backend="event_queue_indexed",
        allotted_times=allotted_times,
        oracle=seg.oracle,
    )
    schedule.metadata["algorithm"] = "two_approximation"
    schedule.metadata["omega"] = estimate.omega
    schedule.metadata["backend"] = "vectorized"
    if seg.validate:
        assert_valid_schedule(schedule, jobs, oracle=seg.oracle)
    return TwoApproxResult(schedule, estimate, seg.oracle.gamma_probes)


def _gen_fptas_dual(seg: _Segment, d: float, inner: float):
    """``fptas_dual`` (vectorized, defer_build=True): a thunk or ``None``."""
    if d <= 0:
        return None
    threshold = (1.0 + inner) * d
    m = seg.m
    gammas = yield ("gamma", threshold)
    if len(gammas) and int(gammas.max()) > m:
        return None
    if sum(gammas.tolist()) > m:  # exact (Python int) total
        return None
    jobs = seg.jobs
    metadata = {"algorithm": "fptas_dual", "d": d, "eps": inner}

    def build() -> Schedule:
        n = len(gammas)
        offsets = np.zeros(n, dtype=np.int64)
        if n > 1:
            np.cumsum(gammas[:-1], out=offsets[1:])
        return schedule_from_arrays(
            jobs,
            m,
            np.arange(n, dtype=np.int64),
            np.zeros(n, dtype=np.float64),
            offsets,
            gammas,
            metadata=metadata,
        )

    return build


def _gen_dual_search(seg: _Segment, inner: float):
    """``dual_binary_search`` with the FPTAS dual step; the result carries
    the bracket estimate, like the solo search."""
    tolerance = inner
    estimate = yield from _gen_estimator(seg)
    lower = estimate.omega
    upper = max(estimate.upper_bound, lower * (1 + tolerance))
    lower = max(lower, 1e-300)
    upper = max(upper, lower)

    dual_calls = 0
    schedule = yield from _gen_fptas_dual(seg, upper, inner)
    dual_calls += 1
    widen = 0
    while schedule is None and widen < 64:
        upper *= 2.0
        schedule = yield from _gen_fptas_dual(seg, upper, inner)
        dual_calls += 1
        widen += 1
    if schedule is None:
        raise RuntimeError(
            "dual algorithm rejected every target makespan; cannot bracket the optimum"
        )
    best = schedule
    best_d = upper

    iterations = 0
    while upper > lower * (1.0 + tolerance) and iterations < 200:
        mid = math.sqrt(lower * upper)
        candidate = yield from _gen_fptas_dual(seg, mid, inner)
        dual_calls += 1
        iterations += 1
        if candidate is not None:
            best = candidate
            best_d = mid
            upper = mid
        else:
            lower = mid

    if callable(best):
        best = best()
    return DualSearchResult(
        schedule=best,
        accepted_d=best_d,
        lower_bound=lower,
        iterations=iterations,
        dual_calls=dual_calls,
        gamma_probes=seg.oracle.gamma_probes,
        estimate=estimate,
    )


def _gen_fptas(seg: _Segment):
    """``fptas_schedule`` (vectorized); returns its
    :class:`DualSearchResult`.  The eps / machine-threshold preconditions were
    checked at pack time."""
    inner = seg.eps / 3.0
    result = yield from _gen_dual_search(seg, inner)
    result.schedule.metadata["algorithm"] = "fptas"
    result.schedule.metadata["eps"] = seg.eps
    result.schedule.metadata["guarantee"] = 1.0 + seg.eps
    result.schedule.metadata["backend"] = "vectorized"
    if seg.validate and seg.jobs:
        assert_valid_schedule(result.schedule, seg.jobs, oracle=seg.oracle)
    return result


def _gen_solve(seg: _Segment):
    """``schedule_moldable`` for the batched algorithms; returns the solo
    :class:`SchedulingResult` bit for bit."""
    if seg.chosen == "two_approx":
        res = yield from _gen_two_approx(seg)
        guarantee: Optional[float] = 2.0
    else:  # fptas
        res = yield from _gen_fptas(seg)
        guarantee = 1.0 + seg.eps
    schedule = res.schedule
    # the facade's rule: the driver's estimate is the certified lower bound
    lower = res.estimate.omega
    schedule.metadata.setdefault("algorithm", seg.chosen)
    return SchedulingResult(
        schedule=schedule,
        algorithm=seg.chosen,
        eps=seg.eps,
        lower_bound=lower,
        guarantee=guarantee,
    )


def _drive(batch: MegaBatch, oracle: MegaOracle) -> List[SchedulingResult]:
    """Advance every segment's solve generator one request per round,
    batching each round's γ-requests into one lockstep search and its
    evaluation requests into one shared-bundle pass."""
    gens = {seg.slot: _gen_solve(seg) for seg in batch.segments}
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
            # solo fptas_schedule raises these before touching the oracle;
            # surface them at pack time with identical messages
            if not 0 < i_eps <= 1:
                raise ValueError("eps must lie in (0, 1]")
            if i_alg == "fptas" and m < fptas_machine_threshold(len(jobs), i_eps):
                raise ValueError(
                    f"the FPTAS requires m >= 8n/eps = "
                    f"{fptas_machine_threshold(len(jobs), i_eps):.1f}, got m={m}; "
                    "use ptas_schedule() for the general case"
                )
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
