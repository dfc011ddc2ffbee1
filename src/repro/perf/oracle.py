"""Batched γ-allotments: all n binary searches in lockstep on arrays.

The algorithms of Jansen & Land evaluate the canonical processor count

    gamma_j(t) = min { k in [m] : t_j(k) <= t }

for every job at many thresholds ``t`` (the dual binary search probes
``O(log 1/eps)`` targets ``d``, and each dual step needs ``gamma_j(d)``,
``gamma_j(d/2)`` and ``gamma_j(3d/2)``).  The scalar path runs ``n`` separate
binary searches of ``log m`` Python-level oracle calls each.

:class:`BatchedOracle` instead advances *all* jobs' bisections together: one
vectorized oracle evaluation (via :class:`~repro.perf.arrays.JobArrayBundle`)
per bisection level, ``O(log m)`` array operations total.  Results are cached
per threshold, and — the γ *warm start* — every new threshold initialises its
lockstep search from the previously evaluated thresholds in two ways:

* **brackets**: ``t' > t`` implies ``gamma_j(t') <= gamma_j(t)``, so the
  cached γ-arrays of the two nearest neighbouring thresholds are valid
  per-job lower/upper brackets;
* **monotone interpolation**: across the sorted dual-search thresholds the
  per-job γ curve is monotone, so interpolating the two neighbouring
  γ-arrays in log-threshold space predicts the answer directly.  The first
  two bisection levels probe the prediction and its adjacent boundary
  instead of the bracket midpoint — when the prediction is exact (the common
  case for the dual search's geometrically converging probes) the bracket
  closes in one or two evaluations regardless of its width.

``warm_start=False`` disables both (every threshold runs the full cold
``log m`` lockstep bisection); probe counts are instrumented either way in
``stats`` (``oracle_evals`` is the total number of per-job kernel probes,
``warm_probes`` the subset spent on warm-start guesses) so regression tests
can pin the savings.

γ-arrays use the sentinel ``m + 1`` for "infeasible even on all m machines"
(where the scalar :func:`repro.core.allotment.gamma` returns ``None``); the
sentinel keeps the arrays monotone in the threshold, which the bracket
narrowing relies on.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.capacity import MAX_COLUMNAR_M
from ..core.job import MoldableJob
from .arrays import JobArrayBundle

__all__ = ["BatchedOracle", "lockstep_gamma_round"]


class BatchedOracle:
    """Vectorized γ/processing-time oracle over a fixed instance ``(jobs, m)``.

    The instance must not change while the oracle is alive: γ-arrays are
    cached per threshold and job indices are positional.
    """

    def __init__(
        self,
        jobs: Sequence[MoldableJob],
        m: int,
        *,
        warm_start: bool = True,
        bundle=None,
    ) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        if m > MAX_COLUMNAR_M:
            # γ-arrays store the sentinel m + 1 in int64, and tm / times_at
            # funnel counts through float64 — the same int64 contract
            # boundary as repro.core.capacity.capacity_tier (2^62).  The
            # compact input encoding allows larger m, but those instances must
            # use the scalar path (resolve_backend falls back automatically).
            raise ValueError(
                f"m={m} exceeds the int64 range of the batched oracle; use the scalar backend"
            )
        self.jobs: List[MoldableJob] = list(jobs)
        self.m = int(m)
        self.n = len(self.jobs)
        self.warm_start = bool(warm_start)
        #: ``bundle`` is internal plumbing for the mega-batch layer: a
        #: segment view of a shared bundle may be injected so evaluations of
        #: many oracles coalesce; defaults to a private bundle over ``jobs``.
        self.bundle = bundle if bundle is not None else JobArrayBundle(self.jobs)
        self._index: Dict[int, int] = {id(job): i for i, job in enumerate(self.jobs)}
        self._t1: Optional[np.ndarray] = None
        self._tm: Optional[np.ndarray] = None
        self._gamma_cache: Dict[float, np.ndarray] = {}
        self._sorted_thresholds: List[float] = []
        #: instrumentation: lockstep searches run, bisection levels spent
        #: (summed over the per-job-class group loops, so a mixed instance
        #: counts each class's levels separately), vectorized oracle values
        #: computed (= γ-probes), warm-start guess probes among them, and
        #: threshold-cache hits.
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
    @property
    def t1(self) -> np.ndarray:
        """``t_j(1)`` for all jobs (evaluated once)."""
        if self._t1 is None:
            self._t1 = self.bundle.eval_all(1.0)
            self._t1.setflags(write=False)
        return self._t1

    @property
    def tm(self) -> np.ndarray:
        """``t_j(m)`` for all jobs (evaluated once)."""
        if self._tm is None:
            self._tm = self.bundle.eval_all(float(self.m))
            self._tm.setflags(write=False)
        return self._tm

    def times_at(self, ks, idx: Optional[np.ndarray] = None) -> np.ndarray:
        """``t_j(ks_j)`` for all jobs at per-job processor counts, or only for
        the jobs at positions ``idx`` (then ``ks`` is aligned with ``idx``)."""
        if idx is None:
            return self.bundle.eval_all(ks)
        return self.bundle.eval_at(idx, np.asarray(ks, dtype=np.float64))

    def times_for(self, jobs: Sequence[MoldableJob], ks) -> np.ndarray:
        """``t_j(ks_i)`` for an arbitrary job subset/permutation ``jobs``.

        One batched kernel call per job class present — the event-queue
        list scheduler uses this to resolve durations for a
        priority-ordered job sequence without per-job Python calls."""
        return self.times_at(ks, self.positions(jobs))

    def index_of(self, job: MoldableJob) -> int:
        """Positional index of ``job`` in this oracle's job list."""
        return self._index[id(job)]

    def positions(self, jobs: Sequence[MoldableJob]) -> np.ndarray:
        """Positional indices of ``jobs`` in this oracle's job list."""
        index = self._index
        return np.fromiter((index[id(job)] for job in jobs), dtype=np.int64, count=len(jobs))

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
        the bracket/interpolation warm start of every subsequent
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

    # ------------------------------------------------------------- executor
    def run(self, steps):
        """The solo executor: drive a driver's request generator on this
        oracle and return the generator's return value.

        The vectorized drivers (:func:`~repro.core.bounds.estimator_steps`,
        :func:`~repro.core.two_approx.two_approx_steps`,
        :func:`~repro.core.fptas.fptas_steps`) yield one request at a time:
        ``("gamma", threshold)`` is answered with :meth:`gamma_array`,
        ``("eval", ks)`` with :meth:`times_at` (``t_j(ks_j)`` for every job;
        a scalar ``ks`` broadcasts).  :func:`repro.perf.megabatch.solve_mega`
        answers the same requests for many generators in batched rounds, so
        caches, ``stats`` and results agree on both executors.  Answers go
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

    # ------------------------------------------------------------ aggregates
    @staticmethod
    def sequential_sum(values: np.ndarray) -> float:
        """Left-to-right float sum, matching the scalar ``sum()`` over jobs
        bit for bit (``np.sum`` pairwise summation would not)."""
        return sum(values.tolist())


# ---------------------------------------------------------------------------
# lockstep γ-search core — shared by the solo oracle (N=1) and the mega batch
# ---------------------------------------------------------------------------


class _LiveSearch:
    """One oracle's in-flight γ-search inside a lockstep round."""

    __slots__ = ("slot", "oracle", "threshold", "out", "idx", "lo", "hi", "pred")

    def __init__(self, slot, oracle, threshold, out, idx, lo, hi, pred):
        self.slot = slot
        self.oracle = oracle
        self.threshold = threshold
        self.out = out
        self.idx = idx
        self.lo = lo
        self.hi = hi
        self.pred = pred


def _finish(oracle: BatchedOracle, threshold: float, out: np.ndarray) -> None:
    out.setflags(write=False)
    if threshold not in oracle._gamma_cache:
        # a round may carry the same (oracle, threshold) twice; only the
        # first result enters the sorted-threshold warm-start index
        insort(oracle._sorted_thresholds, threshold)
    oracle._gamma_cache[threshold] = out


def lockstep_gamma_round(
    requests: Sequence[Tuple[BatchedOracle, float]],
) -> List[np.ndarray]:
    """Run one γ-array evaluation per ``(oracle, threshold)`` request, all in
    a single lockstep bisection.

    Every request behaves exactly as its oracle's solo ``gamma_array`` call
    would — same cache lookups, same warm-start brackets/predictions, same
    probe trajectory, same ``stats`` accounting — because each job's
    ``(lo, hi, mid)`` trajectory is independent of every other job's.  The
    mega-batch layer passes many segments' requests whose oracles share one
    underlying :class:`~repro.perf.arrays.JobArrayBundle`, so every bisection
    level costs one kernel evaluation per job class across *all* instances.
    """
    results: List[Optional[np.ndarray]] = [None] * len(requests)
    live: List[_LiveSearch] = []
    for slot, (oracle, threshold) in enumerate(requests):
        threshold = float(threshold)
        cached = oracle._gamma_cache.get(threshold)
        if cached is not None:
            oracle.stats["threshold_cache_hits"] += 1
            results[slot] = cached
            continue
        m = oracle.m
        n = oracle.n
        out = np.full(n, m + 1, dtype=np.int64)
        if threshold > 0.0 and n > 0:
            oracle.stats["gamma_batches"] += 1
            feasible = oracle.tm <= threshold
            one_enough = oracle.t1 <= threshold
            out[feasible & one_enough] = 1
            active = feasible & ~one_enough
            if active.any():
                idx = np.nonzero(active)[0]
                # bisection invariant: t(lo) > threshold, t(hi) <= threshold
                lo = np.ones(len(idx), dtype=np.int64)
                hi = np.full(len(idx), m, dtype=np.int64)
                #: per-job warm-start prediction of γ (None = cold search)
                pred: Optional[np.ndarray] = None
                if oracle.warm_start:
                    # γ warm start, part 1 — brackets from the two nearest
                    # neighbouring thresholds.
                    pos = bisect_right(oracle._sorted_thresholds, threshold)
                    above = below = None
                    if pos < len(oracle._sorted_thresholds):
                        above = oracle._gamma_cache[oracle._sorted_thresholds[pos]][idx]
                        # t' > t  =>  gamma(t') <= gamma(t); t(gamma(t') - 1) > t' > t
                        above = np.minimum(above, np.int64(m + 1))
                        lo = np.maximum(lo, above - 1)
                    if pos > 0:
                        below = oracle._gamma_cache[oracle._sorted_thresholds[pos - 1]][idx]
                        # t' < t  =>  gamma(t') >= gamma(t); t(gamma(t')) <= t' < t
                        hi = np.minimum(hi, below)
                    # γ warm start, part 2 — monotone interpolation across the
                    # sorted thresholds: with both neighbours present,
                    # interpolate their γ-arrays at the new threshold's
                    # position in log space.  The prediction only steers
                    # *which* count the first probes evaluate — correctness
                    # rests on the bracket invariant alone.
                    t_below = oracle._sorted_thresholds[pos - 1] if pos > 0 else 0.0
                    if above is not None and below is not None and t_below > 0.0:
                        t_above = oracle._sorted_thresholds[pos]
                        span = np.log(t_above) - np.log(t_below)
                        frac = (np.log(threshold) - np.log(t_below)) / span if span > 0 else 0.5
                        # interpolate log γ against log t: exact for power-law
                        # speedups (log γ is linear in log t there) and the
                        # right curvature for the other monotone families —
                        # linear interpolation of the raw γ values would
                        # systematically overshoot (arithmetic vs geometric
                        # mean) on the dual search's sqrt-midpoint probes.
                        lg_b = np.log(below.astype(np.float64))
                        lg_a = np.log(above.astype(np.float64))
                        pred = np.rint(np.exp(lg_b + frac * (lg_a - lg_b))).astype(np.int64)
                    # a single neighbour narrows the bracket but carries no
                    # positional information about the new threshold between
                    # the remaining [1, m] mass — predicting its γ unchanged
                    # degrades to a linear probe there, so no prediction.
                live.append(_LiveSearch(slot, oracle, threshold, out, idx, lo, hi, pred))
                continue
        _finish(oracle, threshold, out)
        results[slot] = out
    if live:
        _bisect_lockstep(live)
        for search in live:
            _finish(search.oracle, search.threshold, search.out)
            results[search.slot] = search.out
    return results  # type: ignore[return-value]


def _bisect_lockstep(live: List[_LiveSearch]) -> None:
    """Advance every live search to completion, one kernel evaluation per
    (job-class group, bisection level) across *all* searches at once.

    Each job's trajectory is independent, so grouping jobs from many oracles
    into one kernel call changes neither the probed counts nor the results;
    per-oracle ``stats`` stay exact by attributing each probe back to its
    owner (``np.bincount`` over owner ids, or a direct bump when N=1).
    """
    groups = live[0].oracle.bundle.groups
    for search in live:
        # lockstep across oracles requires one shared kernel table: the mega
        # bundle's segment views all alias the parent's group list
        assert search.oracle.bundle.groups is groups, (
            "lockstep round requires all oracles to share one bundle"
        )
    one = len(live) == 1

    own_all = np.concatenate(
        [np.full(len(s.idx), i, dtype=np.int64) for i, s in enumerate(live)]
    )
    gof_all = np.concatenate([s.oracle.bundle.group_of[s.idx] for s in live])
    pos_all = np.concatenate([s.oracle.bundle.pos_in_group[s.idx] for s in live])
    outidx_all = np.concatenate([s.idx for s in live])
    lo_all = np.concatenate([s.lo for s in live])
    hi_all = np.concatenate([s.hi for s in live])
    thr_all = np.concatenate(
        [np.full(len(s.idx), s.threshold, dtype=np.float64) for s in live]
    )
    pred_all = np.concatenate(
        [
            s.pred if s.pred is not None else np.zeros(len(s.idx), dtype=np.int64)
            for s in live
        ]
    )
    has_all = np.concatenate(
        [np.full(len(s.idx), s.pred is not None, dtype=bool) for s in live]
    )

    def bump(key: str, owners: np.ndarray) -> None:
        if one:
            live[0].oracle.stats[key] += len(owners)
        elif len(owners):
            for i, c in enumerate(np.bincount(owners, minlength=len(live)).tolist()):
                if c:
                    live[i].oracle.stats[key] += c

    # Dispatch the job-class groups once, then run each group's bisection in
    # a tight loop over its own kernel — every job's (lo, hi, mid) trajectory
    # is independent, so the per-job results are identical to a combined
    # lockstep search, without re-partitioning the active set on every level.
    for gid in np.unique(gof_all):
        gsel = np.nonzero(gof_all == gid)[0]
        glo = lo_all[gsel]
        ghi = hi_all[gsel]
        gpos = pos_all[gsel]
        gthr = thr_all[gsel]
        gown = own_all[gsel]
        goutidx = outidx_all[gsel]
        gpred = pred_all[gsel]
        ghas = has_all[gsel]
        any_pred = bool(ghas.any())
        last_le: Optional[np.ndarray] = None
        eval_kernel = groups[gid].eval
        level = 0
        while True:
            open_mask = ghi - glo > 1
            if not open_mask.any():
                break
            sub = np.nonzero(open_mask)[0]
            # a level is counted once per oracle that still has open jobs in
            # this group — exactly what each solo per-group loop would count
            if one:
                live[0].oracle.stats["bisection_levels"] += 1
            else:
                for i in np.unique(gown[sub]).tolist():
                    live[i].oracle.stats["bisection_levels"] += 1
            mid = (glo[sub] + ghi[sub]) // 2
            if any_pred and level == 0:
                # probe the interpolated prediction itself — but
                # only where it lies inside (or on the edge of)
                # the bracket; a prediction further out is stale
                # and clipping it would degenerate into a linear
                # probe at the bracket edge, which loses to the
                # midpoint.  pred == hi probes hi-1 (the "γ
                # unchanged from the neighbour" confirmation),
                # pred == lo symmetrically probes lo+1.
                guided = ghas[sub] & (gpred[sub] >= glo[sub]) & (gpred[sub] <= ghi[sub])
                mid = np.where(
                    guided, np.clip(gpred[sub], glo[sub] + 1, ghi[sub] - 1), mid
                )
                bump("warm_probes", gown[sub][guided])
            elif any_pred and level == 1 and last_le is not None:
                # confirm-the-prediction probe: when t(pred) <=
                # threshold the answer is likely pred itself, so
                # testing hi-1 (== pred-1) closes the bracket in
                # one more evaluation.  When the first probe went
                # the other way the prediction undershot and the
                # remaining bracket is genuinely uncertain —
                # midpoint bisection resumes immediately.
                went_le = last_le[sub]
                guess = ghi[sub] - 1
                near = went_le & ghas[sub] & (np.abs(guess - gpred[sub]) <= 1)
                mid = np.where(near, np.clip(guess, glo[sub] + 1, ghi[sub] - 1), mid)
                bump("warm_probes", gown[sub][near])
            bump("oracle_evals", gown[sub])
            # int64 counts upcast to float64 inside the kernels
            # exactly like an explicit astype would
            t_mid = eval_kernel(gpos[sub], mid)
            le = t_mid <= gthr[sub]
            ghi[sub[le]] = mid[le]
            ge = ~le
            glo[sub[ge]] = mid[ge]
            if any_pred and level == 0:
                last_le = np.zeros(len(glo), dtype=bool)
                last_le[sub] = le
            level += 1
        if one:
            live[0].out[goutidx] = ghi
        else:
            for i in np.unique(gown).tolist():
                mask = gown == i
                live[i].out[goutidx[mask]] = ghi[mask]
