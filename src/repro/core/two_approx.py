"""The 2-approximation baseline (Ludwig & Tiwari / Turek, Wolf & Yu).

Combines the 2-estimator of :mod:`repro.core.bounds` with Garey–Graham list
scheduling: the estimator's allotment ``a`` minimises
``max(sum_j w_j(a_j)/m, max_j t_j(a_j))`` (approximately), and list scheduling
that allotment gives a schedule of length at most twice the minimum — hence a
2-approximation for the optimal makespan.

Running time: ``O(n log m (log m + log 1/tol))`` oracle calls, i.e. fully
polynomial even with compact input encodings.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .backend import resolve_backend
from .bounds import EstimatorResult, estimator_steps, ludwig_tiwari_estimator
from .job import MoldableJob
from .list_scheduling import list_schedule
from .schedule import Schedule
from .validation import assert_valid_schedule

__all__ = ["two_approximation", "two_approx_steps", "TwoApproxResult"]


class TwoApproxResult:
    """Schedule plus the estimator evidence that certifies the ratio."""

    __slots__ = ("schedule", "estimate", "gamma_probes")

    def __init__(
        self,
        schedule: Schedule,
        estimate: EstimatorResult,
        gamma_probes: Optional[int] = None,
    ) -> None:
        self.schedule = schedule
        self.estimate = estimate
        #: total γ-probes the batched oracle spent (None on the scalar path)
        self.gamma_probes = gamma_probes

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def certified_ratio(self) -> float:
        """Upper bound on makespan / OPT implied by the estimator's lower bound."""
        if self.estimate.omega <= 0:
            return 1.0
        return self.makespan / self.estimate.omega


def two_approximation(
    jobs: Sequence[MoldableJob],
    m: int,
    *,
    validate: bool = True,
    backend: str = "vectorized",
    oracle=None,
) -> TwoApproxResult:
    """Compute a 2-approximate schedule for monotone moldable jobs.

    ``backend="vectorized"`` (default) runs :func:`two_approx_steps` on a
    batched oracle, the estimator's γ-searches in lockstep on arrays;
    ``backend="scalar"`` is the bit-identical reference body below.
    ``oracle`` optionally supplies a pre-built
    :class:`repro.perf.oracle.BatchedOracle` for exactly ``(jobs, m)``
    (implies the vectorized backend; lets callers read its probe
    instrumentation afterwards).  The list-scheduling phase follows the
    backend: the vectorized path runs the batched ``"event_queue_indexed"``
    list scheduler, the scalar path the ``"heap"`` reference loop
    (bit-identical schedules).
    """
    jobs = list(jobs)
    backend, oracle = resolve_backend(jobs, m, backend, oracle, "two_approx")
    if not jobs:
        return TwoApproxResult(
            Schedule(m=m, metadata={"algorithm": "two_approximation", "backend": backend}),
            ludwig_tiwari_estimator(jobs, m),
            oracle.gamma_probes if oracle is not None else None,
        )
    if oracle is not None:
        return oracle.run(two_approx_steps(jobs, oracle, validate=validate))
    estimate = ludwig_tiwari_estimator(jobs, m)
    # Sort longest-processing-time first: not required for the bound but a
    # standard practical improvement.
    order = sorted(jobs, key=lambda j: estimate.allotment[j] * 0 - j.processing_time(estimate.allotment[j]))
    schedule = list_schedule(jobs, estimate.allotment, m, order=order, backend="heap")
    return _finish(schedule, jobs, estimate, "scalar", validate, None)


def two_approx_steps(jobs: Sequence[MoldableJob], oracle, *, validate: bool = True):
    """:func:`two_approximation` as a request generator (the protocol of
    :meth:`repro.perf.oracle.BatchedOracle.run`) for non-empty ``jobs`` and
    an oracle built for exactly ``(jobs, m)``."""
    estimate = yield from estimator_steps(jobs, oracle)
    # columnar: evaluate all allotted processing times in one batched kernel
    # pass; argsort(stable) reproduces the scalar LPT sorted() order.  The
    # same times double as the list scheduler's durations.
    counts = estimate.allotment.counts
    times = yield ("eval", np.array([counts[j] for j in jobs], dtype=np.float64))
    order = [jobs[i] for i in np.argsort(-times, kind="stable").tolist()]
    schedule = list_schedule(
        jobs,
        estimate.allotment,
        oracle.m,
        order=order,
        backend="event_queue_indexed",
        allotted_times=dict(zip(jobs, times.tolist())),
        oracle=oracle,
    )
    return _finish(schedule, jobs, estimate, "vectorized", validate, oracle)


def _finish(schedule, jobs, estimate, backend, validate, oracle) -> TwoApproxResult:
    schedule.metadata.update(algorithm="two_approximation", omega=estimate.omega, backend=backend)
    if validate:
        assert_valid_schedule(schedule, jobs, oracle=oracle)
    return TwoApproxResult(schedule, estimate, oracle.gamma_probes if oracle is not None else None)
