"""The two executors of the drivers' γ-allotments and processing times.

The algorithms of Jansen & Land evaluate the canonical processor count

    gamma_j(t) = min { k in [m] : t_j(k) <= t }

for every job at many thresholds ``t`` (the dual binary search probes
``O(log 1/eps)`` targets ``d``, and each dual step needs ``gamma_j(d)``,
``gamma_j(d/2)`` and ``gamma_j(3d/2)``).  :class:`ScalarOracle` runs ``n``
separate binary searches of ``log m`` Python-level oracle calls each, exactly
at any ``m``.

:class:`BatchedOracle` instead advances *all* jobs' bisections together: one
vectorized oracle evaluation (via :class:`~repro.perf.arrays.JobArrayBundle`)
per bisection level, ``O(log m)`` array operations total.  Results are cached
per threshold, and every new threshold starts from two kinds of γ *warm
start*:

* **brackets**: ``t' > t`` implies ``gamma_j(t') <= gamma_j(t)``, so the
  cached γ-arrays of the two nearest neighbouring thresholds are valid
  per-job lower/upper brackets;
* **a predicted γ**, probed by the first two bisection levels instead of the
  bracket midpoint: the prediction, then its neighbour on the side the first
  probe points to — so a prediction off by at most one closes the bracket in
  two evaluations regardless of its width.  Closed-form job classes (Amdahl,
  power law, communication) predict by inverting their curve at the
  threshold (the ``guess`` kernels of :mod:`repro.perf.arrays`);
  tabulated, rigid and callable jobs interpolate the two neighbouring
  γ-arrays in log-threshold space.

``warm_start=False`` disables both (every threshold runs the full cold
``log m`` lockstep bisection); probe counts are instrumented either way in
``stats`` (``oracle_evals`` is the total number of per-job kernel probes,
``warm_probes`` the subset spent on predictions) so regression tests can pin
the savings.  :func:`lockstep_gamma_round` runs many oracles' searches as
one flat bisection over their concatenated jobs — the mega batch's round.

γ-arrays use the sentinel ``m + 1`` for "infeasible even on all m machines"
(where the scalar :func:`repro.core.allotment.gamma` returns ``None``); the
sentinel keeps the arrays monotone in the threshold, which the bracket
narrowing relies on.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.allotment import gamma
from ..core.capacity import MAX_COLUMNAR_M, index_array
from ..core.job import MoldableJob
from .arrays import JobArrayBundle

__all__ = ["BatchedOracle", "ScalarOracle", "lockstep_gamma_round"]


class _Executor:
    """What both executors share: the instance, the ``t_j(1)`` / ``t_j(m)``
    columns, positional job lookup, the request loop and the exact
    left-to-right sum.  A subclass answers :meth:`gamma_array` and
    :meth:`times_at`.

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

    def index_of(self, job: MoldableJob) -> int:
        """Positional index of ``job`` in this oracle's job list."""
        return self._index[id(job)]

    def positions(self, jobs: Sequence[MoldableJob]) -> np.ndarray:
        """Positional indices of ``jobs`` in this oracle's job list."""
        index = self._index
        return np.fromiter((index[id(job)] for job in jobs), dtype=np.int64, count=len(jobs))

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
        :func:`~repro.core.fptas.fptas_steps`) yield one request at a time:
        ``("gamma", threshold)`` is answered with :meth:`gamma_array`,
        ``("eval", ks)`` with :meth:`times_at` (``t_j(ks_j)`` for every job;
        a scalar ``ks`` broadcasts).  :func:`repro.perf.megabatch.solve_mega`
        answers the same requests for many generators in batched rounds, so
        caches, ``stats`` and results agree solo and in a mega batch.  Answers go
        through ``self``'s methods, so a subclass overriding them sees every
        request.
        """
        reply = None
        while True:
            try:
                kind, payload = steps.send(reply)
            except StopIteration as stop:
                return stop.value
            reply = self.gamma_array(payload) if kind == "gamma" else self.times_at(payload)

    @staticmethod
    def sequential_sum(values: np.ndarray) -> float:
        """Left-to-right float sum, matching the scalar ``sum()`` over jobs
        bit for bit (``np.sum`` pairwise summation would not)."""
        return sum(values.tolist())


class ScalarOracle(_Executor):
    """The scalar executor: the column interface of :class:`BatchedOracle`
    over a fixed instance ``(jobs, m)``, answered per job by the reference
    :func:`repro.core.allotment.gamma` and ``processing_time``.

    γ-values use the same sentinel ``m + 1`` and are cached per threshold
    and job: as on the scalar reference, a γ-search runs only for the jobs
    a step asks about (:meth:`gamma_at`).  Count columns are int64 while
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
        known = self._gamma_cache.get(threshold)
        if known is None:
            known = self._gamma_cache[threshold] = [None] * self.n
        m, jobs, rows = self.m, self.jobs, idx.tolist()
        for i in rows:
            if known[i] is None:
                g = gamma(jobs[i], threshold, m)
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
            # boundary as repro.core.capacity.capacity_tier (2^62).  The
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
        #: the γ-arrays at thresholds +inf and 0: the warm-start neighbours
        #: where no cached threshold lies above / below a new one
        self._ones = np.broadcast_to(np.int64(1), (self.n,))
        self._sentinels = np.broadcast_to(np.int64(self.m + 1), (self.n,))
        self._sorted_thresholds: List[float] = []
        #: instrumentation: lockstep searches run, bisection levels spent
        #: (counted per job class, so a mixed instance counts each class's
        #: levels separately), vectorized oracle values computed (= γ-probes),
        #: warm-start prediction probes among them, and threshold-cache hits.
        self.stats = {
            "gamma_batches": 0,
            "bisection_levels": 0,
            "oracle_evals": 0,
            "warm_probes": 0,
            "threshold_cache_hits": 0,
        }

    @property
    def gamma_probes(self) -> int:
        """Total per-job oracle probes spent by the γ-searches so far (each
        probe is one ``t_j(k)`` kernel evaluation inside a lockstep search)."""
        return self.stats["oracle_evals"]

    # ------------------------------------------------------------- raw times
    def _neighbours(self, threshold: float) -> Tuple[np.ndarray, np.ndarray, float]:
        """The γ-arrays of the nearest cached thresholds above and below a new
        ``threshold`` (or the edge arrays), and its position between the two
        in log space when both are cached and positive (else NaN)."""
        if not self.warm_start:
            return self._ones, self._sentinels, math.nan
        ts = self._sorted_thresholds
        i = bisect_right(ts, threshold)
        above = self._gamma_cache[ts[i]] if i < len(ts) else self._ones
        below = self._gamma_cache[ts[i - 1]] if i else self._sentinels
        frac = math.nan
        if 0 < i < len(ts) and ts[i - 1] > 0.0:
            base = math.log(ts[i - 1])
            span = math.log(ts[i]) - base
            frac = (math.log(threshold) - base) / span if span > 0 else 0.5
        return above, below, frac

    def times_at(self, ks, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """``t_j(ks_j)`` for all jobs at per-job processor counts, or only for
        the jobs at positions ``idx`` (then ``ks`` is aligned with ``idx``)."""
        if idx is None:
            return self.bundle.eval_all(ks)
        return self.bundle.eval_at(idx, ks)

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
    above, below, fracs = zip(*[o._neighbours(t) for o, t in zip(oracles, thresholds)])
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
        starts = np.flatnonzero(np.r_[True, gof[1:] != gof[:-1]])
        bounds = starts.tolist() + [len(act)]
        runs = list(zip(gof[starts].tolist(), bounds, bounds[1:]))
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
        out[act] = _bisect(oracles, groups, runs, owner[act], gof, pos, thr[act], lo, hi, pred)
    if n_req == 1:
        return [out]
    stops = np.cumsum(sizes).tolist()
    return [out[a:b] for a, b in zip([0] + stops, stops)]


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


def _bisect(oracles, groups, runs, own, gof, pos, thr, lo, hi, pred) -> np.ndarray:
    """Shut every bracket ``(lo, hi]`` with one kernel call per job class and
    level, and return ``hi``; then add each owner's probes to its oracle's
    ``stats``, as the solo searches would have counted them."""
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
    return hi
