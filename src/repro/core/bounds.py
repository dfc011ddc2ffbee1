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

from .allotment import Allotment, canonical_allotment
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


def _phi(jobs: Sequence[MoldableJob], m: int, tau: float) -> Optional[float]:
    """Average-load value ``sum_j w_j(gamma_j(tau)) / m`` or ``None`` if some
    job cannot meet ``tau``."""
    allot = canonical_allotment(jobs, tau, m)
    if allot is None:
        return None
    return allot.average_load(m)


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

    This body is the scalar reference.  ``oracle`` optionally supplies a
    :class:`repro.perf.oracle.BatchedOracle` for exactly ``(jobs, m)`` to run
    :func:`estimator_steps` on instead (bit-identical result).
    """
    if not jobs:
        empty = Allotment({})
        return EstimatorResult(omega=0.0, allotment=empty)
    if m < 1:
        raise ValueError("m must be >= 1")
    if oracle is not None:
        check_oracle(oracle, jobs, m)
        return oracle.run(estimator_steps(jobs, oracle))

    tol = ESTIMATOR_TOL
    lo = max(max_sequential_time(jobs, m), 1e-300)
    hi = max(serial_upper_bound(jobs), lo)

    # g(hi) is finite (every job fits on one machine within the serial bound).
    # Invariant we move towards: phi(hi) <= hi  and  (phi(lo) > lo or lo is the
    # global max_j t_j(m) floor).
    phi_lo = _phi(jobs, m, lo)
    if phi_lo is not None and phi_lo <= lo:
        # the crossover is at or below the floor; the floor itself is optimal
        allot = canonical_allotment(jobs, lo, m)
        assert allot is not None
        # like the bisection exit below, never report less than the trivial
        # bound: a float work sum may round a hair under sum_j t_j(1) / m
        omega = max(phi_lo, lo, trivial_lower_bound(jobs, m))
        return EstimatorResult(omega=omega, allotment=allot)

    for _ in range(ESTIMATOR_MAX_ITER):
        if hi <= lo * (1.0 + tol):
            break
        mid = geometric_midpoint(lo, hi)
        phi_mid = _phi(jobs, m, mid)
        if phi_mid is None or phi_mid > mid:
            lo = mid
        else:
            hi = mid

    allot = canonical_allotment(jobs, hi, m)
    assert allot is not None, "upper end of the bracket must always be feasible"
    omega = max(allot.average_load(m), allot.max_time())
    # omega as computed is an achievable value of g, hence >= min g >= ... but
    # we also need a certified lower bound; combine with the trivial bound.
    lower = max(trivial_lower_bound(jobs, m), lo)
    omega = max(omega / (1.0 + tol), lower)
    # The bisection slack means the witnessing allotment only guarantees a
    # schedule of length 2 * omega * (1 + 2 tol); record that honestly.
    return EstimatorResult(omega=omega, allotment=allot, ratio=2.0 * (1.0 + 2.0 * tol))


def _phi_steps(oracle, tau: float):
    """Request-generator twin of :func:`_phi`."""
    gammas = yield ("gamma", tau)
    if len(gammas) and gammas.max() > oracle.m:
        return None
    ks = gammas.astype(np.float64)
    times = yield ("eval", ks)
    # left-to-right sum matches the scalar Allotment.total_work() bit for bit
    return oracle.sequential_sum(ks * times) / oracle.m


def _allotment_steps(jobs: Sequence[MoldableJob], oracle, tau: float):
    """Request-generator twin of ``canonical_allotment``."""
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
    ks = gammas.astype(np.float64)
    times = yield ("eval", ks)
    omega = max(oracle.sequential_sum(ks * times) / m, float(times.max()))
    omega = max(omega / (1.0 + tol), trivial, lo)
    return EstimatorResult(omega=omega, allotment=allot, ratio=2.0 * (1.0 + 2.0 * tol))


def makespan_lower_bound(jobs: Sequence[MoldableJob], m: int) -> float:
    """Best certified lower bound available: the Ludwig–Tiwari ``omega``,
    which already dominates the trivial bound (scalar path)."""
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
