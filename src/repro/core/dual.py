"""Dual-approximation binary-search driver (Hochbaum & Shmoys framework).

A *c-dual approximate* algorithm takes a target makespan ``d`` and either
returns a feasible schedule of length at most ``c*d`` or rejects, with the
promise that it never rejects a ``d`` for which a schedule of length ``d``
exists.  Combined with a constant-factor estimator bracketing the optimum, a
geometric binary search over ``d`` turns the dual algorithm into a
``c*(1+tolerance)``-approximation using ``O(log(1/tolerance))`` dual calls.

A dual function may also return a zero-argument *thunk* instead of a built
``Schedule``: acceptance is then decided by the non-``None`` return alone and
the search materializes only the final accepted schedule — dual steps whose
feasibility check is separate from schedule construction (the FPTAS) skip
building the intermediate schedules the search would discard anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bounds import EstimatorResult, ludwig_tiwari_estimator
from .job import MoldableJob
from .schedule import Schedule

__all__ = ["DualSearchResult", "dual_binary_search"]

DualFunction = Callable[[float], Optional[Schedule]]


@dataclass
class DualSearchResult:
    """Outcome of :func:`dual_binary_search`."""

    schedule: Schedule
    accepted_d: float
    lower_bound: float
    iterations: int
    dual_calls: int
    #: total γ-probes spent by the batched oracle across the search (the
    #: estimator bracket plus every dual step); ``None`` on the scalar path.
    gamma_probes: Optional[int] = None
    #: the Ludwig–Tiwari estimate behind the initial bracket; ``None`` when
    #: the caller supplied the whole bracket (or the instance is empty).
    #: Its ``omega`` is the certified lower bound the facade reports.
    estimate: Optional[EstimatorResult] = None

    @property
    def makespan(self) -> float:
        return self.schedule.makespan


def dual_binary_search(
    jobs: Sequence[MoldableJob],
    m: int,
    dual_fn: DualFunction,
    *,
    tolerance: float,
    lower: Optional[float] = None,
    upper: Optional[float] = None,
    max_iterations: int = 200,
    oracle=None,
) -> DualSearchResult:
    """Run the dual-approximation binary search.

    Parameters
    ----------
    jobs, m:
        The instance (used only to compute the initial bracket when ``lower``
        / ``upper`` are not supplied).
    dual_fn:
        The dual algorithm: ``dual_fn(d)`` returns a schedule or ``None``.
    tolerance:
        Relative precision of the search; the accepted target satisfies
        ``accepted_d <= (1 + tolerance) * OPT`` provided ``dual_fn`` is a
        correct dual algorithm and the initial bracket contains ``OPT``.
    lower, upper:
        Optional initial bracket.  Defaults to the Ludwig–Tiwari estimator
        interval ``[omega, 2(1+)omega]``.
    oracle:
        Optional :class:`repro.perf.oracle.BatchedOracle` for ``(jobs, m)``;
        passed through to the estimator so the initial bracket is computed
        with lockstep γ-searches.
    """
    jobs = list(jobs)
    if not jobs:
        return DualSearchResult(Schedule(m=m), 0.0, 0.0, 0, 0)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")

    estimate: Optional[EstimatorResult] = None
    if lower is None or upper is None:
        # omega already dominates the trivial bound (see the estimator)
        estimate = ludwig_tiwari_estimator(jobs, m, oracle=oracle)
        lower = lower if lower is not None else estimate.omega
        upper = upper if upper is not None else max(estimate.upper_bound, lower * (1 + tolerance))
    lower = max(lower, 1e-300)
    upper = max(upper, lower)

    dual_calls = 0
    best: Optional[Schedule] = None
    best_d = upper

    # Make sure the upper end of the bracket is accepted; widen defensively if
    # the estimator slack made it marginally too small.
    schedule = dual_fn(upper)
    dual_calls += 1
    widen = 0
    while schedule is None and widen < 64:
        upper *= 2.0
        schedule = dual_fn(upper)
        dual_calls += 1
        widen += 1
    if schedule is None:
        raise RuntimeError("dual algorithm rejected every target makespan; cannot bracket the optimum")
    best = schedule
    best_d = upper

    iterations = 0
    while upper > lower * (1.0 + tolerance) and iterations < max_iterations:
        mid = math.sqrt(lower * upper)
        candidate = dual_fn(mid)
        dual_calls += 1
        iterations += 1
        if candidate is not None:
            best = candidate
            best_d = mid
            upper = mid
        else:
            lower = mid

    assert best is not None
    if callable(best):
        best = best()
    return DualSearchResult(
        schedule=best,
        accepted_d=best_d,
        lower_bound=lower,
        iterations=iterations,
        dual_calls=dual_calls,
        gamma_probes=oracle.gamma_probes if oracle is not None else None,
        estimate=estimate,
    )
