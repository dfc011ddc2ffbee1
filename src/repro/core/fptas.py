"""The FPTAS for large machine counts (Section 3, Theorem 2) and the PTAS
dispatcher for the general case (Section 3.2).

The dual step is remarkably simple: allot ``gamma_j((1+eps)*d)`` processors to
every job and start all jobs at time 0.  If that requires more than ``m``
machines, reject.  The analysis (Lemma 4 + Lemma 5 of the paper) shows that
whenever ``m >= 8n/eps`` and a schedule of length ``d`` exists the allotment
fits, so the step is a `(1+eps)`-dual algorithm.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .allotment import gamma
from .backend import auto_backend, resolve_backend
from .bounds import estimator_steps
from .dual import DualSearchResult, dual_binary_search, dual_search_steps
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
]


def fptas_machine_threshold(n: int, eps: float) -> float:
    """The paper's condition for the FPTAS: ``m >= 8n/eps``."""
    return 8.0 * n / eps


def check_fptas_instance(n: int, m: int, eps: float) -> None:
    """Raise ``ValueError`` unless ``eps`` lies in (0, 1] and a non-empty
    instance of ``n`` jobs meets the FPTAS condition ``m >= 8n/eps``."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
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
    backend: str = "scalar",
    oracle=None,
) -> Optional[Schedule]:
    """One `(1+eps)`-dual step (Section 3): all jobs start at 0 with
    ``gamma_j((1+eps)d)`` processors, or reject.

    This body is the scalar reference; ``backend="vectorized"`` runs
    :func:`fptas_dual_steps` (bit-identical decision and schedule)."""
    if d <= 0:
        return None
    jobs = list(jobs)  # before resolve_backend: the oracle build iterates jobs
    backend, oracle = resolve_backend(jobs, m, backend, oracle, "fptas")
    if oracle is not None:
        build = oracle.run(fptas_dual_steps(jobs, oracle, d, eps))
        return None if build is None else build()
    threshold = (1.0 + eps) * d
    counts = []
    total = 0
    for job in jobs:
        g = gamma(job, threshold, m)
        if g is None:
            return None
        counts.append(g)
        total += g
        if total > m:
            return None
    schedule = Schedule(m=m, metadata={"algorithm": "fptas_dual", "d": d, "eps": eps})
    next_machine = 0
    for job, count in zip(jobs, counts):
        schedule.add(job, 0.0, [(next_machine, count)])
        next_machine += count
    return schedule


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
    if sum(gammas.tolist()) > m:  # exact (Python int) total
        return None
    metadata = {"algorithm": "fptas_dual", "d": d, "eps": eps}

    def build() -> Schedule:
        from ..perf.schedule_builder import schedule_from_arrays

        n = len(gammas)
        offsets = np.zeros(n, dtype=np.int64)
        if n > 1:
            np.cumsum(gammas[:-1], out=offsets[1:])
        rows = np.arange(n, dtype=np.int64)
        starts = np.zeros(n, dtype=np.float64)
        return schedule_from_arrays(jobs, m, rows, starts, offsets, gammas, metadata=metadata)

    return build


def fptas_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float,
    *,
    validate: bool = True,
    enforce_threshold: bool = True,
    backend: str = "vectorized",
    oracle=None,
) -> DualSearchResult:
    """`(1+eps)`-approximation for instances with ``m >= 8n/eps`` (Theorem 2).

    The internal dual accuracy and binary-search tolerance are set to
    ``eps/3`` each so that the overall factor ``(1+eps/3)^2 <= 1+eps`` holds
    for ``eps <= 1``.

    ``backend="vectorized"`` (default) runs :func:`fptas_steps` on one
    batched γ-oracle; ``backend="scalar"`` is the bit-identical reference.
    ``oracle`` optionally supplies a pre-built
    :class:`repro.perf.oracle.BatchedOracle` for exactly ``(jobs, m)``
    (implies the vectorized backend; its probe instrumentation lands in the
    result's ``gamma_probes``).
    """
    jobs = list(jobs)
    check_fptas_instance(len(jobs) if enforce_threshold else 0, m, eps)
    backend, oracle = resolve_backend(jobs, m, backend, oracle, "fptas")
    if oracle is not None and jobs:
        return oracle.run(fptas_steps(jobs, oracle, eps, validate=validate))
    inner = eps / 3.0
    result = dual_binary_search(jobs, m, lambda d: fptas_dual(jobs, m, d, inner), tolerance=inner)
    return _finish(result, jobs, eps, backend, validate, None)


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
    return _finish(result, jobs, eps, "vectorized", validate, oracle)


def _finish(result, jobs, eps, backend, validate, oracle) -> DualSearchResult:
    result.schedule.metadata.update(algorithm="fptas", eps=eps, guarantee=1.0 + eps, backend=backend)
    if validate and jobs:
        assert_valid_schedule(result.schedule, jobs, oracle=oracle)
    return result


def ptas_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float,
    *,
    validate: bool = True,
    exact_limit: int = 6,
    backend: str = "vectorized",
) -> DualSearchResult:
    """PTAS dispatcher for the general case (Section 3.2).

    * ``m >= 8n/eps`` — use the FPTAS (fully faithful to the paper);
    * otherwise, if the instance is tiny, solve it exactly by branch and bound;
    * otherwise fall back to the `(3/2+eps)` bounded-knapsack algorithm.

    The last branch substitutes the Jansen–Thöle PTAS the paper cites (see
    DESIGN.md, "Substitutions"); the returned schedule records the actual
    guarantee in ``schedule.metadata['guarantee']``.  ``backend="auto"``
    resolves on the ``"ptas"`` row of
    :data:`~repro.core.backend.AUTO_VECTORIZED_MIN_N` before dispatching.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    jobs = list(jobs)
    n = len(jobs)
    if n == 0:
        return DualSearchResult(Schedule(m=m), 0.0, 0.0, 0, 0)
    if backend == "auto":
        backend = auto_backend("ptas", n, m)
    if m >= fptas_machine_threshold(n, eps):
        return fptas_schedule(jobs, m, eps, validate=validate, backend=backend)
    if exact_solver_applicable(n, m, max_jobs=exact_limit):
        schedule = exact_schedule(jobs, m)
        schedule.metadata["algorithm"] = "ptas_exact"
        schedule.metadata["guarantee"] = 1.0
        schedule.metadata["backend"] = "scalar"
        if validate:
            assert_valid_schedule(schedule, jobs)
        return DualSearchResult(schedule, schedule.makespan, schedule.makespan, 0, 0)
    # documented substitution: the (3/2+eps) algorithm instead of Jansen-Thöle
    from .bounded_algorithm import bounded_schedule

    result = bounded_schedule(jobs, m, eps, validate=validate, backend=backend)
    result.schedule.metadata["algorithm"] = "ptas_fallback_bounded"
    result.schedule.metadata["guarantee"] = 1.5 + eps
    return result
