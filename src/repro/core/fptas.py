"""The FPTAS for large machine counts (Section 3, Theorem 2) and the PTAS
dispatcher for the general case (Section 3.2).

The dual step is remarkably simple: allot ``gamma_j((1+eps)*d)`` processors to
every job and start all jobs at time 0.  If that requires more than ``m``
machines, reject.  The analysis (Lemma 4 + Lemma 5 of the paper) shows that
whenever ``m >= 8n/eps`` and a schedule of length ``d`` exists the allotment
fits, so the step is a `(1+eps)`-dual algorithm.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .backend import resolve_backend
from .bounds import estimator_steps
from .capacity import index_array
# dual_binary_search is unused here but stays importable: perfbench/layers.py patches it by name
from .dual import DualSearchResult, check_eps, dual_binary_search, dual_search_steps  # noqa: F401
from .exact_small import exact_schedule, exact_solver_applicable
from .job import MoldableJob
from .schedule import Schedule
from .validation import assert_valid_schedule

__all__ = [
    "fptas_machine_threshold",
    "check_fptas_instance",
    "fptas_dual",
    "fptas_dual_steps",
    "fptas_schedule",
    "fptas_steps",
    "ptas_schedule",
    "PTAS_EXACT_LIMIT",
]


def fptas_machine_threshold(n: int, eps: float) -> float:
    """The paper's condition for the FPTAS: ``m >= 8n/eps``."""
    return 8.0 * n / eps


def check_fptas_instance(n: int, m: int, eps: float) -> None:
    """Raise ``ValueError`` unless ``eps`` lies in (0, 1] and a non-empty
    instance of ``n`` jobs meets the FPTAS condition ``m >= 8n/eps``."""
    check_eps(eps)
    if n > 0 and m < fptas_machine_threshold(n, eps):
        raise ValueError(
            f"the FPTAS requires m >= 8n/eps = {fptas_machine_threshold(n, eps):.1f}, got m={m}; "
            "use ptas_schedule() for the general case"
        )


def fptas_dual(
    jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    eps: float,
    *,
    oracle=None,
) -> Optional[Schedule]:
    """One `(1+eps)`-dual step (Section 3): all jobs start at 0 with
    ``gamma_j((1+eps)d)`` processors, or reject.

    Runs :func:`fptas_dual_steps` on ``oracle``, an executor for exactly
    ``(jobs, m)``, or on a :class:`~repro.perf.oracle.ScalarOracle`."""
    if d <= 0:
        return None
    jobs = list(jobs)  # before resolve_backend: the oracle build iterates jobs
    _, oracle = resolve_backend(jobs, m, "scalar", oracle)
    build = oracle.run(fptas_dual_steps(jobs, oracle, d, eps))
    return None if build is None else build()


def fptas_dual_steps(jobs: Sequence[MoldableJob], oracle, d: float, eps: float):
    """:func:`fptas_dual` as a request generator (the protocol of
    :meth:`repro.perf.oracle.BatchedOracle.run`): all γ-values in one
    lockstep search.  Returns ``None`` or, since acceptance needs only the
    γ-sum, a thunk that builds the schedule from arrays."""
    if d <= 0:
        return None
    m = oracle.m
    gammas = yield ("gamma", (1.0 + eps) * d)
    if len(gammas) and int(gammas.max()) > m:
        return None
    # exact (Python int) machine offsets: past int64 the counts may fit while
    # their running total does not
    offsets = list(accumulate(gammas.tolist(), initial=0))
    if offsets[-1] > m:
        return None
    metadata = {"algorithm": "fptas_dual", "d": d, "eps": eps}

    def build() -> Schedule:
        from ..perf.schedule_builder import schedule_from_arrays

        n = len(gammas)
        rows = np.arange(n, dtype=np.int64)
        starts = np.zeros(n, dtype=np.float64)
        return schedule_from_arrays(jobs, m, rows, starts, index_array(offsets[:-1]), gammas, metadata=metadata)

    return build


def fptas_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float,
    *,
    validate: bool = True,
    backend: str = "vectorized",
    oracle=None,
) -> DualSearchResult:
    """`(1+eps)`-approximation for instances with ``m >= 8n/eps`` (Theorem 2).

    The internal dual accuracy and binary-search tolerance are set to
    ``eps/3`` each so that the overall factor ``(1+eps/3)^2 <= 1+eps`` holds
    for ``eps <= 1``.

    Runs :func:`fptas_steps` on ``oracle``, a pre-built executor from
    :mod:`repro.perf.oracle` for exactly ``(jobs, m)``, or on the executor
    ``backend`` names: ``"vectorized"`` (default) one batched γ-oracle,
    ``"scalar"`` the per-job reference (bit-identical results).  A batched
    oracle's probe count lands in the result's ``gamma_probes``.
    """
    jobs = list(jobs)
    check_fptas_instance(len(jobs), m, eps)
    _, oracle = resolve_backend(jobs, m, backend, oracle, "fptas")
    if not jobs:
        result = DualSearchResult(Schedule(m=m), 0.0, 0.0, 0, 0)
        return _finish(result, jobs, eps, validate, oracle)
    return oracle.run(fptas_steps(jobs, oracle, eps, validate=validate))


def fptas_steps(jobs: Sequence[MoldableJob], oracle, eps: float, *, validate: bool = True):
    """:func:`fptas_schedule` as a request generator (the protocol of
    :meth:`repro.perf.oracle.BatchedOracle.run`) for non-empty ``jobs`` that
    pass :func:`check_fptas_instance` and an oracle for exactly ``(jobs, m)``."""
    inner = eps / 3.0
    estimate = yield from estimator_steps(jobs, oracle)
    result = yield from dual_search_steps(
        lambda d: fptas_dual_steps(jobs, oracle, d, inner), None, None, inner, estimate
    )
    result.gamma_probes = oracle.gamma_probes
    return _finish(result, jobs, eps, validate, oracle)


def _finish(result, jobs, eps, validate, oracle) -> DualSearchResult:
    result.schedule.metadata.update(algorithm="fptas", eps=eps, guarantee=1.0 + eps, backend=oracle.backend)
    if validate and jobs:
        assert_valid_schedule(result.schedule, jobs, oracle=oracle)
    return result


#: :func:`ptas_schedule` solves instances of at most this many jobs exactly
PTAS_EXACT_LIMIT = 6


def ptas_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float,
    *,
    validate: bool = True,
    backend: str = "vectorized",
    oracle=None,
) -> DualSearchResult:
    """PTAS dispatcher for the general case (Section 3.2).

    * ``m >= 8n/eps`` — use the FPTAS (fully faithful to the paper);
    * otherwise, if the instance is tiny (:data:`PTAS_EXACT_LIMIT`), solve
      it exactly by branch and bound;
    * otherwise fall back to the `(3/2+eps)` bounded-knapsack algorithm.

    The last branch substitutes the Jansen–Thöle PTAS the paper cites; the
    returned schedule records the actual guarantee in
    ``schedule.metadata['guarantee']``.  ``backend`` and
    ``oracle`` are passed through as given, so ``"auto"`` resolves on the
    row of the driver that runs; the exact branch runs without either.
    """
    check_eps(eps)
    jobs = list(jobs)
    n = len(jobs)
    if n == 0:
        return DualSearchResult(Schedule(m=m), 0.0, 0.0, 0, 0)
    if m >= fptas_machine_threshold(n, eps):
        return fptas_schedule(jobs, m, eps, validate=validate, backend=backend, oracle=oracle)
    if exact_solver_applicable(n, m, max_jobs=PTAS_EXACT_LIMIT):
        schedule = exact_schedule(jobs, m)
        schedule.metadata["algorithm"] = "ptas_exact"
        schedule.metadata["guarantee"] = 1.0
        schedule.metadata["backend"] = "scalar"
        if validate:
            assert_valid_schedule(schedule, jobs)
        return DualSearchResult(schedule, schedule.makespan, schedule.makespan, 0, 0)
    # documented substitution: the (3/2+eps) algorithm instead of Jansen-Thöle
    from .bounded_algorithm import bounded_schedule

    result = bounded_schedule(jobs, m, eps, validate=validate, backend=backend, oracle=oracle)
    result.schedule.metadata["algorithm"] = "ptas_fallback_bounded"
    return result
