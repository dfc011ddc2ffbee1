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


def _phi_steps(oracle, tau: float):
    """Average-load value ``sum_j w_j(gamma_j(tau)) / m``, or ``None`` if
    some job cannot meet ``tau``."""
    gammas = yield ("gamma", tau)
    if len(gammas) and gammas.max() > oracle.m:
        return None
    # the exact counts, not a float64 copy: past 2^53 a float would round k
    times = yield ("eval", gammas)
    # left-to-right, as Allotment.total_work() sums
    return oracle.sequential_sum(gammas * times) / oracle.m


def _allotment_steps(jobs: Sequence[MoldableJob], oracle, tau: float):
    """The canonical allotment for ``tau`` (``canonical_allotment``), or
    ``None`` if some job cannot meet ``tau``."""
    gammas = yield ("gamma", tau)
    if len(gammas) and gammas.max() > oracle.m:
        return None
    # the γ-array is already validated (>= 1): skip the Allotment re-check
    return Allotment.from_trusted_counts(dict(zip(jobs, gammas.tolist())))


def estimator_steps(jobs: Sequence[MoldableJob], oracle):
    """:func:`ludwig_tiwari_estimator` as a request generator (the protocol
    of :meth:`repro.perf.oracle.BatchedOracle.run`) for non-empty ``jobs``
    and an oracle built for exactly ``(jobs, m)``."""
    tol = ESTIMATOR_TOL
    m = oracle.m
    tm_max = float(oracle.tm.max())
    t1_sum = oracle.sequential_sum(oracle.t1)
    lo = max(tm_max, 1e-300)
    hi = max(t1_sum, lo)
    trivial = max(tm_max, t1_sum / m)

    phi_lo = yield from _phi_steps(oracle, lo)
    if phi_lo is not None and phi_lo <= lo:
        allot = yield from _allotment_steps(jobs, oracle, lo)
        assert allot is not None
        return EstimatorResult(omega=max(phi_lo, lo, trivial), allotment=allot)

    for _ in range(ESTIMATOR_MAX_ITER):
        if hi <= lo * (1.0 + tol):
            break
        mid = geometric_midpoint(lo, hi)
        phi_mid = yield from _phi_steps(oracle, mid)
        if phi_mid is None or phi_mid > mid:
            lo = mid
        else:
            hi = mid

    allot = yield from _allotment_steps(jobs, oracle, hi)
    assert allot is not None, "upper end of the bracket must always be feasible"
    # batched average_load / max_time; the repeated γ(hi) is a cache hit
    gammas = yield ("gamma", hi)
    times = yield ("eval", gammas)
    omega = max(oracle.sequential_sum(gammas * times) / m, float(times.max()))
    omega = max(omega / (1.0 + tol), trivial, lo)
    return EstimatorResult(omega=omega, allotment=allot, ratio=2.0 * (1.0 + 2.0 * tol))


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
