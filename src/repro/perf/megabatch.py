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
* a generator sends four kinds of request: ``("gamma", threshold)`` (every
  job's γ), ``("eval", ks)`` (every job's ``t_j(ks_j)``), ``("rows",
  threshold, rows, lo, hi)`` (γ and its time for the jobs at ``rows`` only,
  inside the bracket ``lo <= γ <= hi``; the estimator's open jobs) and,
  last, ``("build", builder)`` (the schedule of an unbuilt
  :class:`~repro.perf.schedule_builder.ArraySchedule`).  Each round answers
  one kind, for every segment waiting on it, in one batched call:
  γ-requests in one lockstep round, evaluations in one ``eval_at``, row
  requests in one :func:`~repro.perf.oracle.lockstep_gamma_rows` over the
  concatenated rows of every segment, whatever their number (a solo oracle
  answers a small row request per job instead; row answers are exact
  either way, and ``stats`` counts the rows answered, not probes, so it
  agrees too), and builds in one
  :func:`~repro.perf.schedule_builder.build_schedules` pass, whose
  schedules equal the solo ``builder.build()`` column for column.  Builds
  go last, in one round: a build is each generator's last request, and
  :func:`_drive` answers builds only once nothing else waits.  A request's
  answer does not depend on the round it waits for, so :func:`_drive` is
  free to pick the kind;
* each segment runs the solo drivers' own request generators
  (:func:`~repro.core.two_approx.two_approx_steps`,
  :func:`~repro.core.fptas.fptas_steps`, built on
  :func:`~repro.core.bounds.estimator_steps` and
  :func:`~repro.core.dual.dual_search_steps`) — the very code a solo
  vectorized solve runs through :meth:`BatchedOracle.run
  <repro.perf.oracle.BatchedOracle.run>`.  The request streams are
  therefore identical by construction; only their execution is batched
  across segments;
* validation is one pack pass after the last round, not one per segment:
  every unresolved duration resolves in one ``eval_at`` on the shared
  bundle (the values the segment oracles give), and
  :func:`~repro.core.validation.flag_schedules` runs each check once over
  the concatenated columns.  A flagged instance re-runs the solo
  :func:`~repro.core.validation.assert_valid_schedule`, in slot order, so a
  failing pack raises the first failing instance's solo
  :class:`~repro.core.validation.ValidationError`, and every returned
  schedule has its columns built and its durations resolved, as after a
  solo validated solve.

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
from ..core.job import MONOTONE_CLASSES, MoldableJob
from ..core.schedule import Schedule, resolve_shared_durations
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
from ..core.validation import assert_valid_schedule, flag_schedules, job_positions
from .arrays import JobArrayBundle
from .oracle import BatchedOracle, lockstep_gamma_round, lockstep_gamma_rows
from .schedule_builder import build_schedules

# Not called here: the benchmark's traced run (perfbench/layers.py) patches
# these names on this module, so they must stay importable from it.
from ..core.list_scheduling import list_schedule  # noqa: F401
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
        self._view_parts: Optional[list] = None

    @property
    def monotone(self) -> bool:
        # ``groups`` is the whole pack's: a segment reads its own jobs' classes
        return set(map(type, self.jobs)) <= MONOTONE_CLASSES

    @property
    def _parts(self) -> list:
        # built on first use: a packed solve evaluates through the shared
        # bundle, so most views never need their own partition
        if self._view_parts is None:
            self._view_parts = self._partition()
        return self._view_parts


class _Segment:
    """One instance inside a mega batch."""

    __slots__ = (
        "slot",
        "jobs",
        "m",
        "eps",
        "chosen",
        "start",
        "stop",
        "n",
        "index",
        "oracle",
    )

    def __init__(self, slot, jobs, m, eps, chosen):
        self.slot = slot
        self.jobs = jobs
        self.m = m
        self.eps = eps
        self.chosen = chosen
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
        self.warm_start = bool(warm_start)
        all_jobs: List[MoldableJob] = []
        for seg in self.segments:
            seg.start = len(all_jobs)
            all_jobs.extend(seg.jobs)
            seg.stop = len(all_jobs)
            seg.index = np.arange(seg.start, seg.stop, dtype=np.int64)
        self.bundle = JobArrayBundle(all_jobs)
        #: every segment's t_j(1) and t_j(m) in bundle order, evaluated in one
        #: pass each; each oracle's t1 / tm columns are slices of them
        ms = np.array([seg.m for seg in self.segments], dtype=np.int64)
        self.t1 = self.bundle.eval_all(1)
        self.tm = self.bundle.eval_all(np.repeat(ms, [seg.n for seg in self.segments]))
        self.t1.setflags(write=False)
        self.tm.setflags(write=False)
        for seg in self.segments:
            view = _SegmentView(self.bundle, seg.start, seg.stop)
            seg.oracle = BatchedOracle(
                seg.jobs, seg.m, warm_start=warm_start, bundle=view
            )
            # the columns a solo oracle evaluates on first use, bit for bit
            seg.oracle._t1 = self.t1[seg.start : seg.stop]
            seg.oracle._tm = self.tm[seg.start : seg.stop]

    def __len__(self) -> int:
        return len(self.segments)


class MegaOracle:
    """Batches one round of the segments' oracle requests.

    γ-requests go through :func:`lockstep_gamma_round` (one kernel evaluation
    per job class per bisection level across all requesting segments, with
    each segment's threshold cache and warm-start brackets intact);
    whole-segment time evaluations are concatenated into a single
    ``eval_at`` on the shared bundle; row requests go through one
    :func:`lockstep_gamma_rows`; builds through one :func:`build_schedules`.
    """

    def __init__(self, batch: MegaBatch) -> None:
        self.batch = batch
        self.stats = {"gamma_rounds": 0, "eval_rounds": 0, "rows_rounds": 0, "build_rounds": 0}

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

    def rows_round(self, requests: Sequence[Tuple[_Segment, float, np.ndarray, np.ndarray, np.ndarray]]):
        """Every segment's row request in one :func:`lockstep_gamma_rows`
        over their concatenated rows, at any size: per-job answers inside a
        mega round would pay a cold processing-time call per probe that the
        shared kernels amortise."""
        self.stats["rows_rounds"] += 1
        batch = self.batch
        sizes = [len(rows) for _, _, rows, _, _ in requests]
        for (seg, *_), size in zip(requests, sizes):
            seg.oracle.stats["gamma_rows"] += size
        owner = np.repeat(np.arange(len(requests)), sizes)
        at = np.concatenate([rows for _, _, rows, _, _ in requests])
        at += np.array([seg.start for seg, *_ in requests])[owner]
        bundle = batch.bundle
        found, times = lockstep_gamma_rows(
            bundle.groups,
            batch.warm_start,
            np.array([t for _, t, _, _, _ in requests])[owner],
            np.array([seg.m for seg, *_ in requests], dtype=np.int64)[owner],
            np.concatenate([lo for _, _, _, lo, _ in requests]),
            np.concatenate([hi for _, _, _, _, hi in requests]),
            batch.t1[at],
            batch.tm[at],
            bundle.group_of[at],
            bundle.pos_in_group[at],
        )
        stops = np.cumsum(sizes).tolist()
        return [(found[a:b], times[a:b]) for a, b in zip([0] + stops, stops)]

    def build_round(self, requests: Sequence[Tuple[_Segment, Any]]) -> List[Schedule]:
        """Every segment's unbuilt schedule in one :func:`build_schedules`
        pass."""
        self.stats["build_rounds"] += 1
        return build_schedules([builder for _, builder in requests])


def _solve_steps(seg: _Segment):
    """One segment's ``schedule_moldable`` as a request generator: the solo
    driver's generator, then the facade's result assembly.  Validation is
    left to the pack pass (:func:`_validate_pack`)."""
    if seg.chosen == "two_approx":
        res = yield from two_approx_steps(seg.jobs, seg.oracle, validate=False)
    else:  # fptas
        res = yield from fptas_steps(seg.jobs, seg.oracle, seg.eps, validate=False)
    return driver_result(seg.jobs, seg.m, seg.eps, seg.chosen, res.schedule, res.estimate)


def _validate_pack(batch: MegaBatch, results: Sequence[SchedulingResult]) -> None:
    """Validate every packed schedule in one columnar pass.

    The unresolved durations of all schedules resolve in one ``eval_at`` on
    the shared bundle (each segment's oracle evaluates through a view of
    it, so the values are the solo ones), then
    :func:`~repro.core.validation.flag_schedules` checks the pack against
    each instance's job index.  A flagged instance re-runs the solo
    :func:`assert_valid_schedule`, in slot order, so a failing pack raises
    the first failing instance's solo :class:`ValidationError`.
    """
    segments = batch.segments
    schedules = [result.schedule for result in results]
    positions = [job_positions(s.jobs(), seg.oracle.job_index) for s, seg in zip(schedules, segments)]
    pos = np.concatenate(positions)
    offset = np.repeat([seg.start for seg in segments], [len(p) for p in positions])
    resolve_shared_durations(
        [s.columns() for s in schedules], np.where(pos >= 0, pos + offset, -1), batch.bundle.eval_at
    )
    flags = flag_schedules(schedules, positions, [seg.n for seg in segments]).any()
    for seg, schedule, flagged in zip(segments, schedules, flags.tolist()):
        if flagged:
            assert_valid_schedule(schedule, seg.jobs, oracle=seg.oracle)


def _drive(batch: MegaBatch, oracle: MegaOracle) -> List[SchedulingResult]:
    """Advance every segment's solve generator, one batched round at a time.

    A round answers one kind of request for every segment waiting on it:
    row requests while any segment waits on one, else whichever of γ and
    eval requests more segments wait on (γ on a tie), and builds, last, in
    one round once nothing else waits.  γ-requests share one lockstep
    search, row requests another, evaluations one shared-bundle pass,
    builds one columnar pass.  Every batched driver opens with the
    estimator, whose number of row requests differs from segment to
    segment; answering rows first lets every estimator finish before any
    dual search starts, so the dual searches run in lockstep and share
    their γ rounds.  A build is each driver's last request, so holding
    builds back until the other kinds are done gathers every segment's into
    the one round.  A segment's requests, answers and ``stats`` do not
    depend on how long a request waits, only the rounds' make-up does."""
    gens = {seg.slot: _solve_steps(seg) for seg in batch.segments}
    seg_of = {seg.slot: seg for seg in batch.segments}
    results: Dict[int, SchedulingResult] = {}
    waiting: Dict[str, List[Tuple[int, list]]] = {"gamma": [], "eval": [], "rows": [], "build": []}
    rounds = {
        "gamma": oracle.gamma_round,
        "eval": oracle.eval_round,
        "rows": oracle.rows_round,
        "build": oracle.build_round,
    }

    def advance(slot: int, reply: Any) -> None:
        try:
            kind, *args = gens[slot].send(reply)
        except StopIteration as stop:
            results[slot] = stop.value
        else:
            waiting[kind].append((slot, args))

    for slot in sorted(gens):
        advance(slot, None)
    while any(waiting.values()):
        if waiting["rows"]:
            kind = "rows"
        elif waiting["gamma"] or waiting["eval"]:
            kind = max(("gamma", "eval"), key=lambda k: len(waiting[k]))
        else:
            kind = "build"
        requests, waiting[kind] = waiting[kind], []
        answers = rounds[kind]([(seg_of[slot], *args) for slot, args in requests])
        for (slot, _), answer in zip(requests, answers):
            advance(slot, answer)
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
    ``gamma_rounds`` / ``eval_rounds`` / ``rows_rounds`` (batched oracle
    rounds), ``build_rounds`` (columnar schedule builds: 1 for a non-empty
    pack, every schedule built in one pass) and ``segments`` (each packed
    oracle's solo-equivalent probe counters).
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
            segments.append(_Segment(slot, jobs, m, i_eps, chosen))

    mega_results: Dict[int, SchedulingResult] = {}
    if segments:
        batch = MegaBatch(segments, warm_start=warm_start)
        oracle = MegaOracle(batch)
        results = _drive(batch, oracle)
        if validate:
            _validate_pack(batch, results)
        for seg, result in zip(batch.segments, results):
            mega_results[seg.slot] = result
        if stats is not None:
            stats["mega_size"] = len(segments)
            stats.update(oracle.stats)
            stats["segments"] = [dict(seg.oracle.stats) for seg in batch.segments]
    elif stats is not None:
        stats["mega_size"] = 0
        stats["gamma_rounds"] = 0
        stats["eval_rounds"] = 0
        stats["rows_rounds"] = 0
        stats["build_rounds"] = 0
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
