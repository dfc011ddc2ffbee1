"""Makespan bounds and the Ludwig–Tiwari style estimator.

The dual-approximation framework (Hochbaum & Shmoys) needs an interval
``[omega, rho * omega]`` guaranteed to contain the optimal makespan.  The
paper uses the estimator of Ludwig & Tiwari [18] with estimation ratio 2:

* for every allotment ``a``, any schedule needs makespan at least
  ``max( sum_j w_j(a_j) / m , max_j t_j(a_j) )``;
* minimising this quantity over all allotments yields ``omega <= OPT``;
* list scheduling with the minimising allotment produces a schedule of length
  at most ``2 * omega`` (Garey & Graham), hence ``OPT <= 2 * omega``.

For monotone jobs the minimising allotment for a fixed time threshold ``tau``
is the canonical allotment ``gamma_j(tau)`` (fewest processors = least work),
so the optimisation reduces to a one-dimensional search over ``tau`` which we
solve by geometric bisection in ``O(n log m log(1/tol))`` oracle calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .allotment import Allotment
from .backend import check_oracle
from .job import MoldableJob, max_sequential_time, total_minimal_work

__all__ = [
    "trivial_lower_bound",
    "serial_upper_bound",
    "EstimatorResult",
    "ludwig_tiwari_estimator",
    "estimator_steps",
    "ESTIMATOR_TOL",
    "geometric_midpoint",
    "makespan_lower_bound",
    "release_aware_lower_bound",
]


def geometric_midpoint(lo: float, hi: float) -> float:
    """``sqrt(lo * hi)`` for positive ``lo <= hi`` without overflow.

    The plain product overflows to ``inf`` above ~1.3e154 and underflows to
    ``0`` below ~1e-154, either of which would stall a bisection at one end
    of its bracket.  Outside those ranges the result is bit-identical to
    ``math.sqrt(lo * hi)``.
    """
    product = lo * hi
    if 0.0 < product < math.inf:
        return math.sqrt(product)
    return math.sqrt(lo) * math.sqrt(hi)


def trivial_lower_bound(jobs: Sequence[MoldableJob], m: int) -> float:
    """``max( max_j t_j(m), sum_j t_j(1) / m )``.

    Valid for monotone jobs: every job needs at least ``t_j(m)`` time, and the
    total work of any schedule is at least ``sum_j w_j(1)`` because the work is
    minimised on one processor.
    """
    if not jobs:
        return 0.0
    return max(max_sequential_time(jobs, m), total_minimal_work(jobs) / m)


def serial_upper_bound(jobs: Sequence[MoldableJob]) -> float:
    """``sum_j t_j(1)`` — running every job alone on one machine, one after the
    other, is always feasible."""
    return total_minimal_work(jobs)


@dataclass(frozen=True)
class EstimatorResult:
    """Result of :func:`ludwig_tiwari_estimator`.

    ``omega <= OPT <= ratio * omega`` and ``allotment`` witnesses the upper
    bound (list scheduling it yields makespan at most ``ratio * omega``).
    """

    omega: float
    allotment: Allotment
    ratio: float = 2.0

    @property
    def upper_bound(self) -> float:
        return self.ratio * self.omega


#: The estimator's bisection stops at relative bracket width ESTIMATOR_TOL
#: or after ESTIMATOR_MAX_ITER halvings.
ESTIMATOR_TOL = 1e-6
ESTIMATOR_MAX_ITER = 128


def ludwig_tiwari_estimator(
    jobs: Sequence[MoldableJob],
    m: int,
    *,
    oracle=None,
) -> EstimatorResult:
    """2-estimator for the optimal makespan of monotone moldable jobs.

    Finds (approximately) the threshold ``tau`` minimising
    ``g(tau) = max(phi(tau), tau)`` where ``phi(tau)`` is the average machine
    load of the canonical allotment for ``tau``.  Because ``phi`` is
    non-increasing and ``tau`` increasing, the minimiser sits at the crossover
    which we bracket by geometric bisection.

    The returned ``omega`` satisfies ``omega * (1 - tol) <= OPT`` and list
    scheduling the returned allotment yields makespan at most
    ``2 * omega * (1 + tol)`` with ``tol =`` :data:`ESTIMATOR_TOL`; the small
    slack is absorbed by the callers (they widen their binary-search interval
    accordingly).

    Runs :func:`estimator_steps` on ``oracle``, the executor
    (:mod:`repro.perf.oracle`) for exactly ``(jobs, m)``, or without one on a
    :class:`~repro.perf.oracle.ScalarOracle`, which is exact at any ``m``.
    Every executor gives the same result bit for bit.
    """
    if not jobs:
        empty = Allotment({})
        return EstimatorResult(omega=0.0, allotment=empty)
    if m < 1:
        raise ValueError("m must be >= 1")
    if oracle is None:
        # imported lazily: repro.perf imports the driver modules, which import this one
        from ..perf.oracle import ScalarOracle

        oracle = ScalarOracle(jobs, m)
    else:
        check_oracle(oracle, jobs, m)
    return oracle.run(estimator_steps(jobs, oracle))


def estimator_steps(jobs: Sequence[MoldableJob], oracle):
    """:func:`ludwig_tiwari_estimator` as a request generator (the protocol
    of :meth:`repro.perf.oracle.BatchedOracle.run`) for non-empty ``jobs``
    and an oracle built for exactly ``(jobs, m)``.

    The bisection keeps the γ-array, processing times, works and φ at the
    upper end of its bracket.  γ is non-increasing in the threshold, so at
    a midpoint only the *open* jobs, those with ``γ(lo) != γ(hi)``, can
    differ from ``γ(hi)``: a midpoint sends one ``("rows", mid, rows,
    γ(hi)[rows], γ(lo)[rows])`` request for them and takes every other
    job's γ and time from the upper end.  The sum runs over all jobs in
    order, so φ is bit for bit the full round's.  Once no job is open, φ on
    the whole bracket is φ(hi) and the bisection finishes without requests.
    At ``hi = sum_j t_j(1)`` every γ is 1, so the only full ``("gamma", …)``
    / ``("eval", …)`` pair is the one at the floor.

    When every job is of a class monotone by construction
    (:attr:`~repro.perf.oracle.ScalarOracle.monotone`), φ is non-increasing
    in the threshold, and a midpoint that φ at the known ends already
    settles sends no request: ``φ(lo)·(1 + s) <= mid`` moves ``hi`` to it,
    ``φ(hi)·(1 − s) > mid`` moves ``lo``.  The slack ``s = 8(n + 2)·2⁻⁵³``
    covers the rounding of φ.  Each time ``t_j(k)`` of these classes is at
    most four roundings from the exact value of a model whose work is
    non-decreasing (a per-job rounding such as ``1 − f`` only changes the
    model), and ``k·t_j(k)`` adds two more, so each work carries a relative
    error of at most ``6u`` (``u = 2⁻⁵³``); the left-to-right sum of ``n``
    positive works adds ``(n − 1)u``, and both ends divide by the same
    ``m``.  So a computed φ is ``(1 ± (n + 6)u)`` times a non-increasing
    exact one, two of them differ by less than ``2(n + 6)u`` past their
    order, and ``2(n + 6) <= 8(n + 2)``.  The bound needs every value in
    float64's normal range; the shortcut is off unless every
    ``t_j(m) >= 2⁻⁹⁶⁰`` and ``m·Σ t_j(1) <= 2⁹⁶⁰``.  This covers the
    ulp-level jitter of works whose exact value is flat (Amdahl ``f = 0``,
    power law ``α = 1``, communication ``c = 0``).

    An end moved without a request is *late*: its known columns are those
    of an earlier threshold, so the open jobs and the bracket stay wider.
    The next midpoint that needs a request first resolves the late end with
    one ordinary row request at it (the upper end first), which restores
    its exact columns and closes rows, then looks at the same midpoint
    again.  A late upper end with open jobs left after the bisection gets
    one closing request, so the allotment, φ(hi) and ω are those of the
    request-per-midpoint bisection bit for bit.  Every request is at one of
    that bisection's midpoints, each at most once.  That bisection asks at
    each midpoint until the first one with no open job; past it, a request
    here can only resolve an end moved past it, and once both ends are
    exact no job is open, so at most two requests (one per end) are extra."""
    tol = ESTIMATOR_TOL
    m, n = oracle.m, len(jobs)
    tm = oracle.tm
    tm_max = float(tm.max())
    t1_sum = oracle.sequential_sum(oracle.t1)
    lo = max(tm_max, 1e-300)
    hi = max(t1_sum, lo)
    trivial = max(tm_max, t1_sum / m)

    gammas_lo = yield ("gamma", lo)
    phi_lo = None
    if gammas_lo.max() <= m:
        # the exact counts, not a float64 copy: past 2^53 a float would round k
        times_lo = yield ("eval", gammas_lo)
        # left-to-right, as Allotment.total_work() sums
        phi_lo = oracle.sequential_sum(gammas_lo * times_lo) / m
        if phi_lo <= lo:
            allotment = _allotment(jobs, gammas_lo.tolist())
            return EstimatorResult(omega=max(phi_lo, lo, trivial), allotment=allotment)

    # every t_j(1) <= hi: γ(hi) is all ones, its times and works are t_j(1);
    # the upper end's columns are lists, updated in place when it moves
    gammas_hi = [1] * n
    times_hi = oracle.t1.tolist()
    works_hi = times_hi.copy()
    phi_hi = t1_sum / m
    # the open jobs, and their γ at the bracket's known ends: least = γ(hi), most = γ(lo)
    rows = np.flatnonzero(gammas_lo != 1)
    least, most = np.ones(len(rows), dtype=np.int64), gammas_lo[rows]
    slack = None
    if oracle.monotone and float(tm.min()) >= 2.0**-960 and t1_sum * m <= 2.0**960:
        slack = 8 * (n + 2) * 2.0**-53
    late_lo = late_hi = False
    halvings = 0
    while True:
        if halvings == ESTIMATOR_MAX_ITER or hi <= lo * (1.0 + tol):
            if not (late_hi and len(rows)):
                break
            # the allotment is the upper end's: resolve it
            at, upper, late_hi = hi, True, False
        else:
            mid = geometric_midpoint(lo, hi)
            if not len(rows):
                # γ(lo) == γ(hi): γ(mid) == γ(hi), so φ(mid) is φ(hi) bit for bit
                halvings += 1
                if phi_hi > mid:
                    lo = mid
                else:
                    hi = mid
                continue
            if slack is not None and phi_lo is not None and phi_lo * (1.0 + slack) <= mid:
                halvings += 1
                hi, late_hi = mid, True
                continue
            if slack is not None and phi_hi * (1.0 - slack) > mid:
                halvings += 1
                lo, late_lo = mid, True
                continue
            if late_hi:
                # resolve a late end first, then look at this midpoint again
                at, upper, late_hi = hi, True, False
            elif late_lo:
                at, upper, late_lo = lo, False, False
            else:
                halvings += 1
                at, upper = mid, None
        found, found_times = yield ("rows", at, rows, least, most)
        idx, counts, times = rows.tolist(), found.tolist(), found_times.tolist()
        phi_at = None
        if max(counts) <= m:
            # the works γ_j t_j at the threshold, summed left to right in job
            # order as oracle.sequential_sum sums a whole γ * t column
            works = works_hi.copy()
            for i, k, t in zip(idx, counts, times):
                works[i] = k * t
            phi_at = sum(works) / m
        if upper is None:
            upper = phi_at is not None and phi_at <= mid
            if upper:
                hi = mid
            else:
                lo = mid
        # a job stays open while its γ differs from γ at the other end
        if upper:
            phi_hi, works_hi = phi_at, works
            for i, k, t in zip(idx, counts, times):
                gammas_hi[i] = k
                times_hi[i] = t
            least, keep = found, found != most
        else:
            most, phi_lo, keep = found, phi_at, found != least
        if not keep.all():
            rows, least, most = rows[keep], least[keep], most[keep]

    # the upper end is always feasible: its allotment witnesses the bound
    omega = max(phi_hi, max(times_hi))
    omega = max(omega / (1.0 + tol), trivial, lo)
    allotment = _allotment(jobs, gammas_hi)
    return EstimatorResult(omega=omega, allotment=allotment, ratio=2.0 * (1.0 + 2.0 * tol))


def _allotment(jobs: Sequence[MoldableJob], counts: Sequence[int]) -> Allotment:
    """The canonical allotment of feasible γ-values (``canonical_allotment``)."""
    # the counts are already validated (>= 1): skip the Allotment re-check
    return Allotment.from_trusted_counts(dict(zip(jobs, counts)))


def makespan_lower_bound(jobs: Sequence[MoldableJob], m: int) -> float:
    """Best certified lower bound available: the Ludwig–Tiwari ``omega``,
    which already dominates the trivial bound (on the scalar executor)."""
    if not jobs:
        return 0.0
    return ludwig_tiwari_estimator(jobs, m).omega


def release_aware_lower_bound(
    jobs: Sequence[MoldableJob],
    releases: Sequence[float],
    m: int,
    *,
    base: Optional[float] = None,
) -> float:
    """Certified makespan lower bound for jobs with release times.

    Three valid bounds are combined (releases only delay work, so each is a
    relaxation of the true online optimum):

    * per job: ``release_j + t_j(m)`` — a job cannot finish before it
      arrives plus its fastest possible execution;
    * per release instant ``r``: ``r + (sum of t_j(1) over release_j >= r) / m``
      — all work released at or after ``r`` must fit into ``m`` machines
      after ``r``, and ``t_j(1)`` minimises each job's work;
    * optionally ``base``, any release-free lower bound of the same instance
      (e.g. :func:`makespan_lower_bound`), which stays valid because
      dropping releases is a relaxation.

    This is what makes ``ratio_vs_lower_bound`` meaningful for online
    schedules: the classic bounds assume everything is available at time 0
    and overstate the gap for late-arriving work.
    """
    if len(releases) != len(jobs):
        raise ValueError(
            f"got {len(releases)} releases for {len(jobs)} jobs"
        )
    if not jobs:
        return 0.0 if base is None else max(0.0, base)
    if m < 1:
        raise ValueError("m must be >= 1")
    bound = max(r + j.processing_time(m) for j, r in zip(jobs, releases))
    # suffix-work sweep over releases in descending order: after adding job j,
    # the accumulator holds the t1-work of every job released at or after r_j
    suffix = 0.0
    for r, t1 in sorted(
        ((r, j.processing_time(1)) for j, r in zip(jobs, releases)),
        key=lambda pair: -pair[0],
    ):
        suffix += t1
        bound = max(bound, r + suffix / m)
    if base is not None:
        bound = max(bound, base)
    return bound
