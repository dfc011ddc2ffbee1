"""Dual-approximation binary-search driver (Hochbaum & Shmoys framework).

A *c-dual approximate* algorithm takes a target makespan ``d`` and either
returns a feasible schedule of length at most ``c*d`` or rejects, with the
promise that it never rejects a ``d`` for which a schedule of length ``d``
exists.  Combined with a constant-factor estimator bracketing the optimum, a
geometric binary search over ``d`` turns the dual algorithm into a
``c*(1+tolerance)``-approximation.

The search first probes ``floor_d``, where it would end if every probe
accepted (a point within ``(1+tolerance)`` of the bracket's lower end, found
without a call).  When the floor accepts, that one call is the whole search;
otherwise the plain search runs — accept the bracket's upper end, then bisect
— at one call more than that search alone.  For a dual that is monotone in
``d`` both routes return the same schedule.  A non-monotone dual may get the
floor's schedule where the plain search would have ended higher; it is still
within the guarantee, since ``floor_d <= (1+tolerance)*lower <=
(1+tolerance)*OPT``.

The search loop is written once, as the request generator
:func:`dual_search_steps`; :func:`dual_binary_search` runs it with a dual
step that sends no requests.  A dual step may also return a zero-argument
*thunk* instead of a built ``Schedule``: acceptance is then decided by the
non-``None`` return alone, and only the final accepted thunk is called.  It
returns an unbuilt :class:`~repro.perf.schedule_builder.ArraySchedule`,
which the search hands to its executor as one ``("build", builder)``
request — dual steps whose feasibility check is separate from schedule
construction (the FPTAS) skip building the intermediate schedules the
search would discard anyway, and a mega batch builds every segment's
schedule in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .backend import check_oracle
from .bounds import EstimatorResult, geometric_midpoint, ludwig_tiwari_estimator
from .job import MoldableJob
from .schedule import Schedule

__all__ = ["DualSearchResult", "check_eps", "dual_binary_search", "dual_search_steps", "run_requestless"]

DualFunction = Callable[[float], Optional[Schedule]]


def check_eps(eps: float) -> None:
    """Reject an accuracy parameter outside ``(0, 1]`` (NaN included): every
    eps-driven driver splits ``eps`` between its dual step and its search on
    the assumption ``eps <= 1``."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")


@dataclass
class DualSearchResult:
    """Outcome of :func:`dual_binary_search`."""

    schedule: Schedule
    accepted_d: float
    lower_bound: float
    #: bisection midpoints walked; when the floor probe accepts, these are
    #: the midpoints walked to find ``floor_d``, with no call at any of them.
    iterations: int
    #: dual step calls actually made (the traced ``core.dual.dual_calls``
    #: reads it): 1 when the floor accepts, else the floor probe plus the
    #: upper-end probes plus one per midpoint.
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


#: Cap on the bisection iterations once the upper end is accepted, and on
#: the midpoints walked to find the floor.
MAX_ITERATIONS = 200


def dual_search_steps(step, lower, upper, tolerance: float, estimate=None):
    """The dual binary search as a request generator (the protocol of
    :meth:`repro.perf.oracle.BatchedOracle.run`).

    ``step(d)`` is a generator returning a ``Schedule``, a thunk returning
    an unbuilt ``ArraySchedule`` (sent as a ``("build", builder)`` request),
    or ``None`` to reject.  A ``lower`` / ``upper`` of ``None`` comes
    from ``estimate``.  The result's ``gamma_probes`` is left to the caller.
    """
    if lower is None:
        lower = estimate.omega
    if upper is None:
        upper = max(estimate.upper_bound, lower * (1 + tolerance))
    lower = max(lower, 1e-300)
    upper = max(upper, lower)

    # If every probe accepts, the search only ever lowers ``upper`` to the
    # midpoint, so it ends at ``floor_d``, which needs no call to find.  Probe
    # it first: for a dual monotone in ``d`` an accept there means the whole
    # search would have accepted, with the same final step.
    floor_d, walked = upper, 0
    while floor_d > lower * (1.0 + tolerance) and walked < MAX_ITERATIONS:
        floor_d = geometric_midpoint(lower, floor_d)
        walked += 1
    floor_calls = 0
    if walked:
        best = yield from step(floor_d)
        if best is not None:
            if callable(best):
                best = yield ("build", best())
            return DualSearchResult(best, floor_d, lower, walked, 1, estimate=estimate)
        floor_calls = 1

    # Make sure the upper end of the bracket is accepted; widen defensively if
    # the estimator slack made it marginally too small.
    best = yield from step(upper)
    dual_calls = 1
    while best is None and dual_calls <= 64:
        upper *= 2.0
        best = yield from step(upper)
        dual_calls += 1
    if best is None:
        raise RuntimeError("dual algorithm rejected every target makespan; cannot bracket the optimum")
    best_d = upper

    iterations = 0
    while upper > lower * (1.0 + tolerance) and iterations < MAX_ITERATIONS:
        mid = geometric_midpoint(lower, upper)
        candidate = yield from step(mid)
        dual_calls += 1
        iterations += 1
        if candidate is not None:
            best = candidate
            best_d = mid
            upper = mid
        else:
            lower = mid

    if callable(best):
        best = yield ("build", best())
    return DualSearchResult(best, best_d, lower, iterations, floor_calls + dual_calls, estimate=estimate)


def _requestless(dual_fn: DualFunction):
    def step(d):
        return dual_fn(d)
        yield  # pragma: no cover - makes ``step`` a generator function

    return step


def run_requestless(steps):
    """Drive a request generator that must not send a request (one that does
    raises ``RuntimeError``) and return its result."""
    try:
        request = next(steps)
    except StopIteration as stop:
        return stop.value
    steps.close()
    raise RuntimeError(f"a scalar dual step sent the oracle request {request[0]!r}")


def dual_binary_search(
    jobs: Sequence[MoldableJob],
    m: int,
    dual_fn: DualFunction,
    *,
    tolerance: float,
    lower: Optional[float] = None,
    upper: Optional[float] = None,
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
        Optional :class:`repro.perf.oracle.BatchedOracle` for exactly
        ``(jobs, m)``; passed through to the estimator so the initial bracket
        is computed with lockstep γ-searches.
    """
    jobs = list(jobs)
    if not jobs:
        return DualSearchResult(Schedule(m=m), 0.0, 0.0, 0, 0)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if oracle is not None:
        check_oracle(oracle, jobs, m)

    estimate: Optional[EstimatorResult] = None
    if lower is None or upper is None:
        # omega already dominates the trivial bound (see the estimator)
        estimate = ludwig_tiwari_estimator(jobs, m, oracle=oracle)
    result = run_requestless(dual_search_steps(_requestless(dual_fn), lower, upper, tolerance, estimate))
    if oracle is not None:
        result.gamma_probes = oracle.gamma_probes
    return result
