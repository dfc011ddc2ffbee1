"""The two executors of the drivers' γ-allotments and processing times.

The algorithms of Jansen & Land evaluate the canonical processor count

    gamma_j(t) = min { k in [m] : t_j(k) <= t }

for every job at many thresholds ``t`` (the dual binary search probes
``O(log 1/eps)`` targets ``d``, and each dual step needs ``gamma_j(d)``,
``gamma_j(d/2)`` and ``gamma_j(3d/2)``).  Both executors cache γ per
threshold and keep the cached thresholds sorted, and both warm-start a new
threshold from the same **brackets** (:meth:`_Executor._neighbours`):
``t' > t`` implies ``gamma_j(t') <= gamma_j(t)`` for non-increasing
``t_j``, so the cached γ-values of the two nearest neighbouring thresholds
are valid per-job lower/upper brackets.

:class:`ScalarOracle` runs one Python-level binary search per job, exactly
at any ``m``, but only inside the job's bracket: a job whose two neighbours
agree costs no probe, and only a job with no cached neighbour pays the cold
``log m`` search of :func:`repro.core.allotment.gamma`.

:class:`BatchedOracle` instead advances *all* jobs' bisections together: one
vectorized oracle evaluation (via :class:`~repro.perf.arrays.JobArrayBundle`)
per bisection level, ``O(log m)`` array operations total.  Besides the
brackets, its warm start has **a predicted γ**, probed by the first two
bisection levels instead of the bracket midpoint: the prediction, then its
neighbour on the side the first probe points to — so a prediction off by at
most one closes the bracket in two evaluations regardless of its width.
Closed-form job classes (Amdahl, power law, communication) predict by
inverting their curve at the threshold (the ``guess`` kernels of
:mod:`repro.perf.arrays`); tabulated, rigid and callable jobs interpolate
the two neighbouring γ-arrays in log-threshold space.

``warm_start=False`` disables brackets and predictions on a batched oracle
(every threshold runs the full cold ``log m`` lockstep bisection); probe
counts are instrumented either way in ``stats`` (``oracle_evals`` is the
total number of per-job kernel probes, ``warm_probes`` the subset spent on
predictions) so regression tests can pin the savings.
:func:`lockstep_gamma_round` runs many oracles' searches as one flat
bisection over their concatenated jobs — the mega batch's round.

A dual step of the shelf algorithms reads γ and ``t_j(γ)`` at thresholds
it knows up front (``d``, ``d/2``, ``d'``, ``d'/2`` and ``3d'/2``).
:meth:`_Executor.gamma_times` returns such a pair of columns, ``inf`` as the
time at the sentinel, and :meth:`_Executor.prefetch` announces the
thresholds: :class:`BatchedOracle` then searches all of them in one
:func:`lockstep_gamma_round` and evaluates their time columns in one
``eval_at``, so a dual step costs one lockstep round instead of one per
threshold.  Thresholds searched together see the cache as it stood before
the round, so they bracket each other no tighter than the cache did; the
answers are exact either way.  :class:`ScalarOracle` ignores the
announcement and still searches only the jobs a step asks about.

Row requests (:meth:`_Executor.gamma_rows`) ask for γ and its processing
time at one threshold for a few jobs only, each inside a bracket the caller
knows (the estimator's open jobs).  They bypass the γ-cache: the scalar
executor and a small batched request search per job, a large one and the
mega batch's round (:func:`lockstep_gamma_rows`) in lockstep over the rows.

γ-arrays use the sentinel ``m + 1`` for "infeasible even on all m machines"
(where the scalar :func:`repro.core.allotment.gamma` returns ``None``); the
sentinel keeps the arrays monotone in the threshold, which the bracket
narrowing relies on.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.allotment import gamma
from ..core.capacity import MAX_COLUMNAR_M, index_array
from ..core.job import MONOTONE_CLASSES, MoldableJob
from .arrays import JobArrayBundle

__all__ = ["BatchedOracle", "ScalarOracle", "lockstep_gamma_round", "lockstep_gamma_rows"]


class _Executor:
    """What both executors share: the instance, the ``t_j(1)`` / ``t_j(m)``
    columns, positional job lookup, the request loop, the per-job answer to
    row requests and the exact left-to-right sum.  A subclass answers
    :meth:`gamma_array` and :meth:`times_at`.

    The instance must not change while the oracle is alive: γ-arrays are
    cached per threshold and job indices are positional.
    """

    def __init__(self, jobs: Sequence[MoldableJob], m: int) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        self.jobs: List[MoldableJob] = list(jobs)
        self.m = int(m)
        self.n = len(self.jobs)
        self._index: Dict[int, int] = {id(job): i for i, job in enumerate(self.jobs)}
        self._gamma_cache: Dict[float, Sequence[int]] = {}
        #: the cached thresholds in ascending order, for :meth:`_neighbours`
        self._sorted_thresholds: List[float] = []
        self._t1: Optional[np.ndarray] = None
        self._tm: Optional[np.ndarray] = None

    @property
    def t1(self) -> np.ndarray:
        """``t_j(1)`` for all jobs (evaluated once)."""
        if self._t1 is None:
            self._t1 = self.times_at(1)
            self._t1.setflags(write=False)
        return self._t1

    @property
    def tm(self) -> np.ndarray:
        """``t_j(m)`` for all jobs (evaluated once)."""
        if self._tm is None:
            self._tm = self.times_at(self.m)
            self._tm.setflags(write=False)
        return self._tm

    def gamma_at(self, threshold: float, idx: np.ndarray) -> np.ndarray:
        """``gamma_j(threshold)`` for the jobs at positions ``idx`` (``m + 1``
        where even ``m`` machines are not enough)."""
        return self.gamma_array(threshold)[idx]

    def gamma_times(self, threshold: float, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(gamma_j(threshold), t_j(gamma_j(threshold)))`` for the jobs at
        positions ``idx``: :meth:`gamma_at` and the processing times there,
        ``inf`` where γ is the sentinel ``m + 1``."""
        found = self.gamma_at(threshold, idx)
        feasible = found <= self.m
        if feasible.all():
            return found, self.times_at(found, idx)
        times = np.full(len(found), math.inf)
        if feasible.any():
            times[feasible] = self.times_at(found[feasible], idx[feasible])
        return found, times

    def prefetch(self, thresholds: Sequence[float]) -> None:
        """Announce the thresholds the next :meth:`gamma_times` reads ask
        for.  The per-job searches of the scalar executor gain nothing from
        knowing them, so it ignores the announcement."""

    def _neighbours(self, threshold: float) -> Tuple[Optional[float], Optional[float]]:
        """The nearest cached thresholds strictly above and strictly below
        ``threshold`` (``None`` where there is none): the γ warm start.

        ``t' > t`` implies ``gamma_j(t') <= gamma_j(t)`` for non-increasing
        ``t_j``, so their γ-values bracket every job's ``gamma_j(threshold)``
        from below and above."""
        ts = self._sorted_thresholds
        i, j = bisect_left(ts, threshold), bisect_right(ts, threshold)
        return (ts[j] if j < len(ts) else None), (ts[i - 1] if i else None)

    @property
    def monotone(self) -> bool:
        """Whether every job is of a class in
        :data:`~repro.core.job.MONOTONE_CLASSES`, so that φ, the estimator's
        average load, is non-increasing in the threshold by construction."""
        return set(map(type, self.jobs)) <= MONOTONE_CLASSES

    @property
    def job_index(self) -> Dict[int, int]:
        """``id(job)`` → position over this oracle's job list (read-only)."""
        return self._index

    def positions(self, jobs: Sequence[MoldableJob]) -> np.ndarray:
        """Positional indices of ``jobs`` in this oracle's job list."""
        return np.fromiter(map(self._index.__getitem__, map(id, jobs)), dtype=np.int64, count=len(jobs))

    def times_for(self, jobs: Sequence[MoldableJob], ks) -> np.ndarray:
        """``t_j(ks_i)`` for an arbitrary job subset/permutation ``jobs``.

        One batched kernel call per job class present — the event-queue
        list scheduler uses this to resolve durations for a
        priority-ordered job sequence without per-job Python calls."""
        return self.times_at(ks, self.positions(jobs))

    def run(self, steps):
        """The solo executor: drive a driver's request generator on this
        oracle and return the generator's return value.

        The request-generator drivers (:func:`~repro.core.bounds.estimator_steps`,
        :func:`~repro.core.two_approx.two_approx_steps`,
        :func:`~repro.core.fptas.fptas_steps`) yield one request at a time, a
        tuple whose first entry names its kind:

        * ``("gamma", threshold)``, answered with :meth:`gamma_array`: the
          γ-array of every job;
        * ``("eval", ks)``, answered with :meth:`times_at`: ``t_j(ks_j)`` for
          every job (a scalar ``ks`` broadcasts);
        * ``("rows", threshold, rows, lo, hi)``, answered with
          :meth:`gamma_rows`: ``(γ, t)`` for the jobs at positions ``rows``
          only, each inside the caller's bracket ``lo <= γ <= hi``.

        :func:`repro.perf.megabatch.solve_mega` answers the same requests for
        many generators in batched rounds, so caches, ``stats`` and results
        agree solo and in a mega batch.  Answers go through ``self``'s
        methods, so a subclass overriding them sees every request.
        """
        reply = None
        while True:
            try:
                kind, *args = steps.send(reply)
            except StopIteration as stop:
                return stop.value
            if kind == "gamma":
                reply = self.gamma_array(*args)
            elif kind == "eval":
                reply = self.times_at(*args)
            else:
                reply = self.gamma_rows(*args)

    def gamma_rows(self, threshold: float, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        """``(gamma_j(threshold), t_j(gamma_j(threshold)))`` for the jobs at
        positions ``rows``, given ``lo[i] <= gamma <= hi[i]`` for the job at
        ``rows[i]`` (``hi[i] = m + 1``: possibly infeasible).  An infeasible
        job gets γ ``m + 1`` and time ``inf``.  Neither the γ-cache nor the
        cache's brackets are consulted or filled: the caller's bracket is the
        warm start.

        Answered per job, with :func:`repro.core.allotment.gamma` inside the
        bracket and ``processing_time``, which the batched kernels match bit
        for bit."""
        m, jobs = self.m, self.jobs
        threshold = float(threshold)
        found, times = [], []
        for i, a, b in zip(rows.tolist(), lo.tolist(), hi.tolist()):
            g = gamma(jobs[i], threshold, m, _bracket=(a, b))
            if g is None:
                found.append(m + 1)
                times.append(math.inf)
            else:
                found.append(g)
                times.append(jobs[i].processing_time(g))
        return index_array(found), np.array(times, dtype=np.float64)

    @staticmethod
    def sequential_sum(values: np.ndarray) -> float:
        """Left-to-right float sum, matching the scalar ``sum()`` over jobs
        bit for bit (``np.sum`` pairwise summation would not)."""
        return sum(values.tolist())


class ScalarOracle(_Executor):
    """The scalar executor: the column interface of :class:`BatchedOracle`
    over a fixed instance ``(jobs, m)``, answered per job by
    :func:`repro.core.allotment.gamma` and ``processing_time``.

    γ-values use the same sentinel ``m + 1`` and are cached per threshold
    and job: a γ-search runs only for the jobs a step asks about
    (:meth:`gamma_at`), and only inside the bracket the γ-values of the
    nearest cached thresholds give it (``None`` entries, for jobs a
    neighbour was not asked about, bracket nothing).  The answers equal the
    cold search's for non-increasing ``t_j``.  Count columns are int64 while
    they fit and exact Python ints beyond
    (:func:`repro.core.capacity.index_array`), so any ``m`` the compact
    encoding allows runs exactly.  The scalar executor counts no γ-probes.
    """

    backend = "scalar"
    gamma_probes = None

    def gamma_array(self, threshold: float) -> np.ndarray:
        """``gamma_j(threshold)`` for all jobs, ``m + 1`` where
        :func:`~repro.core.allotment.gamma` returns ``None``."""
        return self.gamma_at(threshold, np.arange(self.n))

    def gamma_at(self, threshold: float, idx: np.ndarray) -> np.ndarray:
        threshold = float(threshold)
        if threshold != threshold:
            raise ValueError("gamma threshold must be a number, got NaN")
        known = self._gamma_cache.get(threshold)
        if known is None:
            known = self._gamma_cache[threshold] = [None] * self.n
            insort(self._sorted_thresholds, threshold)
        t_above, t_below = self._neighbours(threshold)
        above = self._gamma_cache[t_above] if t_above is not None else None
        below = self._gamma_cache[t_below] if t_below is not None else None
        m, jobs, rows = self.m, self.jobs, idx.tolist()
        for i in rows:
            if known[i] is None:
                # a neighbour's entry is None where no step asked about job i
                lo = above[i] if above is not None and above[i] is not None else 1
                hi = below[i] if below is not None and below[i] is not None else m + 1
                if lo == hi:
                    known[i] = lo  # both neighbours agree: no probe
                else:
                    g = gamma(jobs[i], threshold, m, _bracket=(lo, hi))
                    known[i] = m + 1 if g is None else g
        return index_array([known[i] for i in rows])

    def times_at(self, ks, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """``t_j(ks_j)`` for all jobs at per-job processor counts, or only for
        the jobs at positions ``idx`` (then ``ks`` is aligned with ``idx``)."""
        jobs = self.jobs if idx is None else [self.jobs[i] for i in idx.tolist()]
        ks = np.asarray(ks)
        ks = ks.tolist() if ks.ndim else [ks.item()] * len(jobs)
        return np.array([job.processing_time(k) for job, k in zip(jobs, ks)], dtype=np.float64)


class BatchedOracle(_Executor):
    """Vectorized γ/processing-time oracle over a fixed instance ``(jobs, m)``."""

    backend = "vectorized"

    def __init__(
        self,
        jobs: Sequence[MoldableJob],
        m: int,
        *,
        warm_start: bool = True,
        bundle=None,
    ) -> None:
        if m > MAX_COLUMNAR_M:
            # γ-arrays store the sentinel m + 1 in int64, and tm / times_at
            # hand int64 counts to the kernels — the same int64 contract
            # boundary as repro.core.capacity.MAX_COLUMNAR_M (2^62).  The
            # compact input encoding allows larger m, but those instances must
            # use the scalar path (resolve_backend falls back automatically).
            raise ValueError(
                f"m={m} exceeds the int64 range of the batched oracle; use the scalar backend"
            )
        super().__init__(jobs, m)
        self.warm_start = bool(warm_start)
        #: ``bundle`` is internal plumbing for the mega-batch layer: a
        #: segment view of a shared bundle may be injected so evaluations of
        #: many oracles coalesce; defaults to a private bundle over ``jobs``.
        self.bundle = bundle if bundle is not None else JobArrayBundle(self.jobs)
        #: the time columns of the latest :meth:`prefetch`, per threshold
        self._times_cache: Dict[float, np.ndarray] = {}
        #: instrumentation: lockstep searches run, bisection levels spent
        #: (counted per job class, so a mixed instance counts each class's
        #: levels separately), vectorized oracle values computed (= γ-probes),
        #: warm-start prediction probes among them, threshold-cache hits, and
        #: the rows :meth:`gamma_rows` answered (rows, not probes: how a row
        #: request is answered depends on its size and the executor).
        self.stats = {
            "gamma_batches": 0,
            "bisection_levels": 0,
            "oracle_evals": 0,
            "warm_probes": 0,
            "threshold_cache_hits": 0,
            "gamma_rows": 0,
        }

    @property
    def monotone(self) -> bool:
        """:attr:`_Executor.monotone`, read from the bundle's groups."""
        return self.bundle.monotone

    @property
    def gamma_probes(self) -> int:
        """Total per-job oracle probes spent by the γ-searches so far (each
        probe is one ``t_j(k)`` kernel evaluation inside a lockstep search)."""
        return self.stats["oracle_evals"]

    # the γ-arrays at thresholds +inf and 0: the warm-start neighbours where
    # no cached threshold lies above / below a new one, built only when read
    @property
    def _ones(self) -> np.ndarray:
        return np.broadcast_to(np.int64(1), (self.n,))

    @property
    def _sentinels(self) -> np.ndarray:
        return np.broadcast_to(np.int64(self.m + 1), (self.n,))

    # ------------------------------------------------------------- raw times
    def _warm_start(self, threshold: float) -> Tuple[np.ndarray, np.ndarray, float]:
        """The γ-arrays of the :meth:`_neighbours` of a new ``threshold`` (or
        the edge arrays), and its position between the two in log space when
        both are cached and positive (else NaN)."""
        if not self.warm_start:
            return self._ones, self._sentinels, math.nan
        t_above, t_below = self._neighbours(threshold)
        cache = self._gamma_cache
        above = self._ones if t_above is None else cache[t_above]
        below = self._sentinels if t_below is None else cache[t_below]
        frac = math.nan
        if t_above is not None and t_below is not None and t_below > 0.0:
            base = math.log(t_below)
            span = math.log(t_above) - base
            frac = (math.log(threshold) - base) / span if span > 0 else 0.5
        return above, below, frac

    def times_at(self, ks, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """``t_j(ks_j)`` for all jobs at per-job processor counts, or only for
        the jobs at positions ``idx`` (then ``ks`` is aligned with ``idx``)."""
        if idx is None:
            return self.bundle.eval_all(ks)
        return self.bundle.eval_at(idx, ks)

    def prefetch(self, thresholds: Sequence[float]) -> None:
        """Search every threshold in ``thresholds`` in one
        :func:`lockstep_gamma_round` and evaluate the time columns
        ``t_j(gamma_j(threshold))`` of all of them in one ``eval_at`` (``inf``
        at the sentinel), for :meth:`gamma_times` to read.

        Only the time columns of the latest call are kept: a dual step's
        thresholds are not read again by the next step, and the γ-arrays stay
        in the γ-cache anyway.  A threshold whose time column is already held
        is neither searched nor evaluated again.  A NaN threshold raises
        ``ValueError`` as :meth:`gamma_array` does."""
        wanted = list(dict.fromkeys(map(float, thresholds)))
        held = self._times_cache
        new = [t for t in wanted if t not in held]
        cache = {t: held[t] for t in wanted if t in held}
        if new:
            n, m = self.n, self.m
            ks = np.concatenate(lockstep_gamma_round([(self, t) for t in new]))
            flat = self.bundle.eval_at(np.tile(np.arange(n), len(new)), np.minimum(ks, m))
            flat[ks > m] = math.inf
            flat.setflags(write=False)
            for i, t in enumerate(new):
                cache[t] = flat[i * n : (i + 1) * n]
        self._times_cache = cache

    def gamma_times(self, threshold: float, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`_Executor.gamma_times`, read from the columns of the latest
        :meth:`prefetch` when it announced ``threshold``."""
        threshold = float(threshold)
        times = self._times_cache.get(threshold)
        if times is None:
            return super().gamma_times(threshold, idx)
        return self._gamma_cache[threshold][idx], times[idx]

    # ---------------------------------------------------------- cache priming
    def prime_from(self, other: "BatchedOracle") -> int:
        """Transfer ``other``'s cached γ-thresholds to this oracle.

        The recovery loop re-plans a shrinking pending set on a changing
        machine count; each re-plan builds a fresh oracle (γ-arrays are
        positional over a fixed ``(jobs, m)``), which would discard the
        previous epoch's γ-searches.  Priming transfers them *exactly*:

        * rows are remapped by job identity (a no-op returning 0 if any of
          this oracle's jobs is unknown to ``other``);
        * for ``m_new <= m_old``, ``gamma(t)`` on fewer machines is the old
          value when it still fits and the sentinel ``m_new + 1`` otherwise —
          an exact rewrite, every threshold transfers;
        * for ``m_new > m_old``, old non-sentinel values are still exact
          (``gamma <= m_old < m_new`` is unchanged by adding machines), but a
          sentinel row is unknown on the larger machine set, so thresholds
          containing one are skipped.

        Transferred thresholds join ``_sorted_thresholds`` and therefore feed
        the bracket/prediction warm start of every subsequent
        :meth:`gamma_array` call.  Returns the number of thresholds
        transferred.
        """
        if self.n == 0:
            return 0
        try:
            rows = np.fromiter(
                (other._index[id(job)] for job in self.jobs),
                dtype=np.int64,
                count=self.n,
            )
        except KeyError:
            return 0
        transferred = 0
        for threshold, arr in other._gamma_cache.items():
            if threshold in self._gamma_cache:
                continue
            vals = arr[rows]  # fancy indexing copies
            if self.m < other.m:
                np.minimum(vals, np.int64(self.m + 1), out=vals)
            elif self.m > other.m and (vals > other.m).any():
                continue
            vals.setflags(write=False)
            self._gamma_cache[threshold] = vals
            insort(self._sorted_thresholds, threshold)
            transferred += 1
        return transferred

    # ------------------------------------------------------------ gamma batch
    def gamma_array(self, threshold: float) -> np.ndarray:
        """``gamma_j(threshold)`` for all jobs as a read-only int64 array.

        Entries equal to ``m + 1`` mean the job cannot meet the threshold even
        on all ``m`` machines (scalar ``gamma`` returns ``None`` there).

        This is the N=1 case of :func:`lockstep_gamma_round` — the mega-batch
        layer runs the same search over many instances' thresholds at once.
        """
        return lockstep_gamma_round([(self, threshold)])[0]

    def gamma_rows(self, threshold: float, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        """:meth:`_Executor.gamma_rows` in one :func:`lockstep_gamma_rows`,
        or per job below :data:`ROWS_LOCKSTEP_MIN` rows, where a lockstep
        level's fixed NumPy cost exceeds the few Python probes it replaces.
        Both give the same answers; ``stats`` counts the rows answered, not
        γ-probes, so it does not depend on the path."""
        n = len(rows)
        self.stats["gamma_rows"] += n
        if n < ROWS_LOCKSTEP_MIN:
            return super().gamma_rows(threshold, rows, lo, hi)
        bundle = self.bundle
        return lockstep_gamma_rows(
            bundle.groups,
            self.warm_start,
            np.full(n, float(threshold)),
            np.full(n, self.m, dtype=np.int64),
            lo,
            hi,
            self.t1[rows],
            self.tm[rows],
            bundle.group_of[rows],
            bundle.pos_in_group[rows],
        )

    def gamma(self, job: MoldableJob, threshold: float, m: Optional[int] = None) -> Optional[int]:
        """Scalar drop-in for :func:`repro.core.allotment.gamma`.

        Answered from the per-threshold γ-array cache: the first call for a
        new threshold computes the whole array in one lockstep search, every
        further call is an O(1) lookup.
        """
        if m is not None and int(m) != self.m:
            raise ValueError(f"oracle was built for m={self.m}, got query with m={m}")
        gammas = self._gamma_cache.get(float(threshold))
        if gammas is None:
            gammas = self.gamma_array(threshold)
        else:
            self.stats["threshold_cache_hits"] += 1
        g = int(gammas[self._index[id(job)]])
        return None if g > self.m else g


# ---------------------------------------------------------------------------
# lockstep γ-search core — shared by the solo oracle (N=1) and the mega batch
# ---------------------------------------------------------------------------


def _finish(oracle: BatchedOracle, threshold: float, out: np.ndarray) -> np.ndarray:
    out.setflags(write=False)
    insort(oracle._sorted_thresholds, threshold)
    oracle._gamma_cache[threshold] = out
    return out


def lockstep_gamma_round(
    requests: Sequence[Tuple[BatchedOracle, float]],
) -> List[np.ndarray]:
    """Run one γ-array evaluation per ``(oracle, threshold)`` request, all in
    a single flat lockstep bisection.

    Every request behaves exactly as its oracle's solo ``gamma_array`` call
    would — same cache lookups, same warm-start brackets and predictions,
    same probe trajectory, same ``stats`` accounting — because each job's
    ``(lo, hi, mid)`` trajectory is independent of every other job's.  A
    repeated ``(oracle, threshold)`` pair counts as a cache hit on the first,
    as the repeated solo call would; distinct thresholds of one oracle in one
    round each see the cache as it stood when the round began.  The
    mega-batch layer passes many segments' requests whose oracles share one
    underlying :class:`~repro.perf.arrays.JobArrayBundle`, so every bisection
    level costs one kernel evaluation per job class across *all* instances.

    Raises ``ValueError`` for a NaN threshold before touching any cache or
    ``stats``.
    """
    thresholds = [float(t) for _, t in requests]
    if any(math.isnan(t) for t in thresholds):
        raise ValueError("gamma threshold must be a number, got NaN")
    results: List[Optional[np.ndarray]] = [None] * len(requests)
    pending: Dict[Tuple[int, float], int] = {}
    repeats: List[Tuple[int, int]] = []
    for slot, ((oracle, _), threshold) in enumerate(zip(requests, thresholds)):
        cached = oracle._gamma_cache.get(threshold)
        key = (id(oracle), threshold)
        if cached is not None or key in pending:
            # a repeat within the round is a hit too, as its solo call would be
            oracle.stats["threshold_cache_hits"] += 1
            results[slot] = cached
            if cached is None:
                repeats.append((slot, pending[key]))
        elif threshold > 0.0 and oracle.n:
            oracle.stats["gamma_batches"] += 1
            pending[key] = slot
        else:
            results[slot] = _finish(oracle, threshold, np.full(oracle.n, oracle.m + 1))
    if pending:
        slots = list(pending.values())
        oracles = [requests[s][0] for s in slots]
        outs = _flat_search(oracles, [thresholds[s] for s in slots])
        for slot, oracle, out in zip(slots, oracles, outs):
            results[slot] = _finish(oracle, thresholds[slot], out)
    for slot, first in repeats:
        results[slot] = results[first]
    return results  # type: ignore[return-value]


def _flat_search(oracles: List[BatchedOracle], thresholds: List[float]) -> List[np.ndarray]:
    """γ-arrays for N ``(oracle, threshold)`` searches (``threshold > 0``,
    ``oracle.n > 0``) as one bisection over the concatenation of all N
    oracles' jobs: a fixed number of NumPy calls for any N, and N = 1 skips
    the concatenation."""
    groups = oracles[0].bundle.groups
    # lockstep across oracles requires one shared kernel table: the mega
    # bundle's segment views all alias the parent's group list
    assert all(o.bundle.groups is groups for o in oracles), "lockstep round requires one shared bundle"
    n_req = len(oracles)
    cat = np.concatenate if n_req > 1 else itemgetter(0)
    sizes = [o.n for o in oracles]
    above, below, fracs = zip(*[o._warm_start(t) for o, t in zip(oracles, thresholds)])
    owner = np.repeat(np.arange(n_req), sizes)
    thr = np.array(thresholds)[owner]
    m = np.array([o.m for o in oracles], dtype=np.int64)[owner]
    out = m + 1
    fits = cat([o.tm for o in oracles]) <= thr
    one = cat([o.t1 for o in oracles]) <= thr
    out[fits & one] = 1
    act = np.flatnonzero(fits & ~one)
    if len(act):
        # sorted by job class (stably, so then by owner): one run per class
        gof = cat([o.bundle.group_of for o in oracles])[act]
        order = np.argsort(gof, kind="stable")
        act, gof = act[order], gof[order]
        runs = _class_runs(gof)
        pos = cat([o.bundle.pos_in_group for o in oracles])[act]
        above, below = cat(above)[act], cat(below)[act]
        warm = np.array([o.warm_start for o in oracles])[owner[act]]
        pred = None
        if warm.any():
            pred = _predict(groups, runs, pos, thr[act], m[act], warm, np.array(fracs)[owner[act]], above, below)
        # bracket invariant t(lo) > threshold >= t(hi), from the neighbouring
        # thresholds: t' > t => gamma(t') <= gamma(t), so t(gamma(t') - 1) >
        # t' > t; and t' < t => t(gamma(t')) <= t' < t
        lo = np.maximum(above - 1, 1)
        hi = np.minimum(below, m[act])
        out[act], probes, guided = _bisect(groups, runs, pos, thr[act], lo, hi, pred)
        _count_probes(oracles, owner[act], gof, probes, guided)
    if n_req == 1:
        return [out]
    stops = np.cumsum(sizes).tolist()
    return [out[a:b] for a, b in zip([0] + stops, stops)]


def _class_runs(gof: np.ndarray) -> list:
    """``(class, start, stop)`` per run of equal ``gof``, which is sorted."""
    bounds = [0, *(np.flatnonzero(gof[1:] != gof[:-1]) + 1).tolist(), len(gof)]
    return list(zip(gof[bounds[:-1]].tolist(), bounds, bounds[1:]))


#: The fewest rows a batched oracle answers with a lockstep bisection
#: (:meth:`BatchedOracle.gamma_rows`); fewer go per job through the memoised
#: ``processing_time``.  Measured on the estimator's row requests (Python
#: 3.11, NumPy 2.4, 2-core shared VM, fresh jobs): on 500 mixed jobs at
#: m = 4000 a lockstep answer that bisects costs 160-290 µs whatever its
#: size (1-323 rows), a per-job one about 11 µs plus 1.5-2 µs a row, so
#: they meet between 120 and 200 rows there.  Over whole estimator runs (mixed
#: 500 x 4000, 40 x 64 and 6 x 2^20, Amdahl 200 x 2^20, power law
#: 200 x 4000, chains 2000 x 125) every setting from 64 to 160 was within
#: about 10% of the best, 16 was up to 1.7x slower and 256 up to 2x slower
#: (wide power-law brackets).
ROWS_LOCKSTEP_MIN = 96


def lockstep_gamma_rows(
    groups, warm: bool, thr, m, lo, hi, t1, tm, gof, pos
) -> Tuple[np.ndarray, np.ndarray]:
    """γ and its processing time for flat rows, each a job to search at its
    own threshold ``thr`` (``> 0``) and machine count ``m`` inside its
    caller's bracket ``lo <= γ <= hi``, in one lockstep bisection: every
    level costs one kernel call per job class present.  ``t1``, ``tm``,
    ``gof`` and ``pos`` are the row's job's ``t_j(1)``, ``t_j(m)``, class
    in ``groups`` and position in that class; all but ``groups`` and
    ``warm`` are per-row arrays.

    The search neither reads nor fills a γ-cache: the bracket is its warm
    start, and with ``warm`` a bracket of five or more counts first probes
    its class's closed-form guess.  :meth:`BatchedOracle.gamma_rows` runs
    it over one oracle's rows and the mega batch's round over every
    segment's."""
    out = m + 1
    times = np.full(len(out), math.inf)
    fits = tm <= thr
    one = fits & (t1 <= thr)
    out[one] = 1
    times[one] = t1[one]
    act = np.flatnonzero(fits & ~one)
    if len(act):
        gof = gof[act]
        order = np.argsort(gof, kind="stable")
        act, gof = act[order], gof[order]
        runs = _class_runs(gof)
        pos, thr, m = pos[act], thr[act], m[act]
        # the bracket invariant t(lo) > threshold >= t(hi) of _flat_search
        lo, hi = np.maximum(lo[act] - 1, 1), np.minimum(hi[act], m)
        pred = None
        # a guess saves levels only on brackets of five or more counts: four
        # or fewer take at most two probes either way
        wide = hi - lo > 4
        if warm and wide.any():
            # no threshold brackets the caller's γ-bounds: closed-form guesses only
            nan = np.full(len(act), math.nan)
            pred = _predict(groups, runs, pos, thr, m, wide, nan, lo + 1, hi)
        found, _, _ = _bisect(groups, runs, pos, thr, lo, hi, pred)
        out[act] = found
        for gid, a, b in runs:
            times[act[a:b]] = groups[gid].eval(pos[a:b], found[a:b])
    return out, times


#: relative shave applied to a closed-form guess before rounding it up
_GUESS_SHAVE = 1e-9


def _predict(groups, runs, pos, thr, m, warm, frac, above, below):
    """Per-job predicted γ for the warm rows, as ``(pred, has)``: the job's
    closed-form ``guess`` rounded up where its class has one, else the
    interpolation of the neighbouring γ-arrays (where both are cached and
    positive, i.e. ``frac`` is not NaN).  The prediction only steers *which*
    counts the first probes evaluate; the bracket alone decides the answer."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        has = warm & ~np.isnan(frac)
        # interpolate log γ against log t: exact for power-law speedups and
        # the right curvature for the other monotone families — linear
        # interpolation of raw γ would overshoot (arithmetic vs geometric
        # mean) on the dual search's sqrt-midpoint probes
        lg_b = np.log(below.astype(np.float64))
        g = np.rint(np.exp(lg_b + frac * (np.log(above.astype(np.float64)) - lg_b)))
        for gid, a, b in runs:
            guess = getattr(groups[gid], "guess", None)
            if guess is not None:
                # shaved: a threshold equal to t_j(k) inverts to k plus float
                # noise, and the plain ceiling would predict k + 1, one past
                # γ; shaved, the prediction is γ or γ - 1, both of which the
                # two guided probes confirm
                g[a:b] = np.ceil(guess(pos[a:b], thr[a:b]) * (1.0 - _GUESS_SHAVE))
                has[a:b] = warm[a:b]
        # NaN, infinite and out-of-range predictions are none
        has &= (g > 0.0) & (g <= m)
        return np.where(has, g, 0.0).astype(np.int64), has


def _bisect(groups, runs, pos, thr, lo, hi, pred):
    """Shut every bracket ``(lo, hi]`` with one kernel call per job class and
    level; return ``hi`` and each row's probes and guided probes."""
    probes = np.zeros(len(lo), dtype=np.int64)
    guided_probes = np.zeros(len(lo), dtype=np.int64)
    starts = [a for _, a, _ in runs] + [len(lo)]
    level = 0
    while True:
        sub = np.flatnonzero(hi - lo > 1)
        if not len(sub):
            break
        probes[sub] += 1
        slo, shi = lo[sub], hi[sub]
        mid = (slo + shi) // 2
        if pred is not None and level < 2:
            p, has = pred[0][sub], pred[1][sub]
            if level == 0:
                # probe the prediction — only where it lies inside (or on the
                # edge of) the bracket: one further out is stale.  pred == hi
                # probes hi-1 (the "γ unchanged" confirmation), pred == lo
                # symmetrically lo+1.
                guided = has & (p >= slo) & (p <= shi)
                step = np.clip(p, slo + 1, shi - 1)
            else:
                # confirm it: after a first probe at or below the threshold
                # test hi-1, after one above it lo+1 — either closes the
                # bracket when the prediction was off by at most one
                step = np.where(went_le[sub], shi - 1, slo + 1)
                guided = has & (np.abs(step - p) <= 1)
            mid = np.where(guided, step, mid)
            guided_probes[sub[guided]] += 1
        times = np.empty(len(sub))
        cuts = np.searchsorted(sub, starts).tolist()
        for (gid, _, _), a, b in zip(runs, cuts, cuts[1:]):
            if a < b:
                # int64 counts upcast to float64 inside the kernels exactly
                # like an explicit astype would
                times[a:b] = groups[gid].eval(pos[sub[a:b]], mid[a:b])
        le = times <= thr[sub]
        if level == 0:
            went_le = np.zeros(len(lo), dtype=bool)
            went_le[sub] = le
        hi[sub[le]] = mid[le]
        lo[sub[~le]] = mid[~le]
        level += 1
    return hi, probes, guided_probes


def _count_probes(oracles, own, gof, probes, guided_probes) -> None:
    """Add each owner's probes to its oracle's ``stats``, as the solo
    searches would have counted them."""
    n_req = len(oracles)
    evals = np.bincount(own, weights=probes, minlength=n_req)
    warm = np.bincount(own, weights=guided_probes, minlength=n_req)
    # a solo search counts each class's levels separately: per (class, owner)
    # run, the deepest job's probe count
    key = gof * n_req + own
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    levels = np.bincount(own[first], weights=np.maximum.reduceat(probes, first), minlength=n_req)
    for oracle, e, w, lv in zip(oracles, evals.tolist(), warm.tolist(), levels.tolist()):
        oracle.stats["oracle_evals"] += int(e)
        oracle.stats["warm_probes"] += int(w)
        oracle.stats["bisection_levels"] += int(lv)
