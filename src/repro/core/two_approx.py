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
# perfbench/layers.py patches ludwig_tiwari_estimator by name in this module
from .bounds import EstimatorResult, estimator_steps, ludwig_tiwari_estimator
from .capacity import index_array
from .job import MoldableJob
from .list_scheduling import list_schedule_builder
from .schedule import Schedule
from .validation import assert_valid_schedule

# Not called here: the benchmark's traced run (perfbench/layers.py) patches
# this name on this module, so it must stay importable from it.
from .list_scheduling import list_schedule  # noqa: F401

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

    Runs :func:`two_approx_steps` on ``oracle``, a pre-built executor from
    :mod:`repro.perf.oracle` for exactly ``(jobs, m)`` (lets callers read a
    batched oracle's probe instrumentation afterwards), or on the executor
    ``backend`` names: ``"vectorized"`` (default) a batched oracle, the
    estimator's γ-searches in lockstep on arrays, ``"scalar"`` the per-job
    reference.  Both give bit-identical schedules.
    """
    jobs = list(jobs)
    backend, oracle = resolve_backend(jobs, m, backend, oracle, "two_approx")
    if not jobs:
        return TwoApproxResult(
            Schedule(m=m, metadata={"algorithm": "two_approximation", "backend": backend}),
            ludwig_tiwari_estimator(jobs, m),
            oracle.gamma_probes,
        )
    return oracle.run(two_approx_steps(jobs, oracle, validate=validate))


def two_approx_steps(jobs: Sequence[MoldableJob], oracle, *, validate: bool = True):
    """:func:`two_approximation` as a request generator (the protocol of
    :meth:`repro.perf.oracle.BatchedOracle.run`) for non-empty ``jobs`` and
    an oracle built for exactly ``(jobs, m)``.

    The executor answers the estimator's γ requests and one ``eval`` request
    for the allotted processing times; those times give the LPT order and
    are handed to :func:`~repro.core.list_scheduling.list_schedule_builder`
    as its durations, so the list-scheduling phase is the same on every
    executor.  The last request, ``("build", builder)``, hands the unbuilt
    schedule to the executor, which answers with the built one."""
    estimate = yield from estimator_steps(jobs, oracle)
    # evaluate all allotted processing times in one request, at the exact
    # counts; argsort(stable) is the stable LPT order of sorted() by -t_j.
    # The same times double as the list scheduler's durations.
    counts = estimate.allotment.counts
    times = yield ("eval", index_array([counts[j] for j in jobs]))
    perm = np.argsort(-times, kind="stable")
    schedule = yield (
        "build",
        list_schedule_builder(
            jobs,
            estimate.allotment,
            oracle.m,
            order=[jobs[i] for i in perm.tolist()],
            durations=times[perm].tolist(),
        ),
    )
    return _finish(schedule, jobs, estimate, validate, oracle)


def _finish(schedule, jobs, estimate, validate, oracle) -> TwoApproxResult:
    schedule.metadata.update(
        algorithm="two_approximation", guarantee=2.0, omega=estimate.omega, backend=oracle.backend
    )
    if validate:
        assert_valid_schedule(schedule, jobs, oracle=oracle)
    return TwoApproxResult(schedule, estimate, oracle.gamma_probes)
