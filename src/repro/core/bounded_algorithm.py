"""The shelf dual step (Section 4.1), the search around it, and Algorithm 3
(Section 4.3).

:func:`shelf_dual` is the Mounié–Rapine–Trystram step all the `(3/2+eps)`
algorithms share; they differ only in the shelf-1 knapsack they pass it.  It
has one body for both backends: the split, the rounding and the shelf build
read columns of the executor (:mod:`repro.perf.oracle`) the driver holds.
:func:`shelf_schedule` is the driver body MRT, Algorithm 1 and Algorithm 3
share: one executor, one dual binary search, the metadata and the
validation; each driver supplies only its dual step and its eps split.

Compared to Algorithm 1 the knapsack gets *much* smaller: the big jobs are
first rounded into ``O(poly(1/eps) polylog(m))`` item **types**
(:mod:`repro.core.rounding`), the resulting *bounded* knapsack is converted to
a 0/1 instance with ``O(log m)`` container items per type, and that instance
is handed to the compressible-items solver (Algorithm 2).  The containers in
the solution are finally mapped back to concrete jobs.

The accuracy bookkeeping follows Lemma 16 / Lemma 19: with ``delta = eps/5``
and ``rho = (sqrt(1+delta)-1)/4`` the selected jobs are scheduled for the
inflated target ``d' = (1+delta)^2 d``, giving makespan at most
``(3/2)(1+delta)^2 d <= (3/2+eps) d``.

The facade's ``"bounded_linear"`` (Section 4.3.3) is an alias: its bucketed
piggyback-host search returns the shortest host, the one a linear scan finds.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

from ..knapsack.bounded import assign_members, expand_bounded_items, selected_counts
from ..knapsack.compressible import solve_compressible_knapsack
from ..knapsack.items import KnapsackItem
from .backend import resolve_backend
from .dual import DualSearchResult, check_eps, dual_binary_search
from .fptas import fptas_dual
from .job import MoldableJob
from .rounding import round_jobs_to_types
from .schedule import Schedule
from .shelves import build_three_shelf_schedule, split_big_jobs
from .validation import assert_valid_schedule

__all__ = ["shelf_dual", "shelf_schedule", "bounded_dual", "bounded_schedule", "LARGE_M_FACTOR"]

#: Above ``m >= LARGE_M_FACTOR * n`` the compressible and bounded dual steps
#: delegate to the FPTAS dual with ``eps = 1/2`` (Section 4.2.5: "we only use
#: Algorithm 1 if m < 16n").
LARGE_M_FACTOR = 16


def shelf_dual(
    jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    select: Callable,
    *,
    d_prime: Optional[float] = None,
    algorithm: str,
    large_m: bool = False,
    oracle=None,
) -> Optional[Schedule]:
    """One shelf dual step at target ``d`` (Section 4.1): a schedule, or
    ``None`` to reject ``d``.

    Big jobs that cannot meet ``d/2`` are forced into shelf S1.
    ``select(knapsack_jobs, capacity, oracle)`` returns ``(jobs,
    metadata)``: which other big jobs join them within the ``capacity``
    processors left, and extra schedule metadata.  The three-shelf schedule
    is built for the driver's target ``d_prime`` (``d`` when omitted, as in
    MRT; the inflated ``d'`` of Lemma 16 / Corollary 10 for the accelerated
    algorithms).  ``algorithm`` names the step in the metadata; ``large_m``
    sends ``m >= LARGE_M_FACTOR * n`` to the FPTAS dual with ``eps = 1/2``,
    whose makespan is at most ``3d/2`` there.

    ``oracle`` is the executor for ``(jobs, m)`` shared by repeated dual
    calls: a :class:`~repro.perf.oracle.BatchedOracle` evaluates
    γ-allotments with lockstep batched binary searches, a
    :class:`~repro.perf.oracle.ScalarOracle` (the default) is the
    bit-identical per-job reference.  Since ``d'`` is known before the split,
    the step announces its five thresholds ``d``, ``d/2``, ``d'``, ``d'/2``
    and ``3d'/2`` to the executor once (:meth:`~repro.perf.oracle.BatchedOracle.prefetch`):
    the batched one answers them in a single lockstep round.  The knapsack
    is the same on both: the NumPy dominance-list engine of
    :mod:`repro.knapsack.dp`.
    """
    if d <= 0:
        return None
    jobs = list(jobs)  # before resolve_backend: the oracle build iterates jobs
    n = len(jobs)
    if n == 0:
        return Schedule(m=m)
    _, oracle = resolve_backend(jobs, m, "scalar", oracle)

    if large_m and m >= LARGE_M_FACTOR * n:
        schedule = fptas_dual(jobs, m, d, 0.5, oracle=oracle)
        if schedule is not None:
            schedule.metadata["algorithm"] = f"{algorithm}_dual(large_m)"
        return schedule
    if d_prime is None:
        d_prime = d
    oracle.prefetch((d, d / 2.0, d_prime, d_prime / 2.0, 1.5 * d_prime))

    # Jobs that cannot finish within d even on all machines force rejection;
    # jobs that cannot fit the d/2 shelf at all must run in shelf S1.
    split = split_big_jobs(jobs, m, d, oracle=oracle)
    if split is None:
        return None
    shelf1, knapsack_jobs, capacity = split
    if capacity < 0:
        return None

    chosen, metadata = select(knapsack_jobs, capacity, oracle)
    shelf1.extend(chosen)
    schedule = build_three_shelf_schedule(jobs, m, d_prime, shelf1, oracle=oracle)
    if schedule is not None:
        schedule.metadata["algorithm"] = f"{algorithm}_dual"
        schedule.metadata["d"] = d
        schedule.metadata["d_prime"] = d_prime
        schedule.metadata.update(metadata)
    return schedule


def compressible_knapsack(items: Sequence[KnapsackItem], capacity: int, rho: float) -> List[KnapsackItem]:
    """Algorithm 2 over ``items`` (Corollary 10): items of size at least
    ``1/rho`` are compressible by a ``rho`` fraction."""
    compressible_keys = {item.key for item in items if item.size >= 1.0 / rho}
    n_bar = max(1, int(math.floor(capacity * rho / (1.0 - rho))) + 1)
    solution = solve_compressible_knapsack(
        items,
        compressible_keys,
        capacity,
        rho,
        alpha_min=1.0 / rho,
        beta_max=float(capacity),
        n_bar=n_bar,
    )
    return solution.items


def bounded_dual(
    jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    eps: float,
    *,
    oracle=None,
) -> Optional[Schedule]:
    """One `(3/2+eps)`-dual step of Algorithm 3; ``oracle`` is as in
    :func:`shelf_dual`."""
    delta = eps / 5.0
    d_prime = (1.0 + delta) ** 2 * d

    def select(knapsack_jobs, capacity, oracle):
        if not knapsack_jobs:
            return [], {}
        scheme = round_jobs_to_types(knapsack_jobs, m, d, delta, oracle=oracle)
        containers = expand_bounded_items(scheme.types)
        chosen = compressible_knapsack(containers, capacity, scheme.params.rho)
        members = assign_members(selected_counts(chosen), scheme.types)
        return members, {"num_item_types": scheme.num_types}

    return shelf_dual(jobs, m, d, select, d_prime=d_prime, algorithm="bounded", large_m=True, oracle=oracle)


def shelf_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float,
    step: Callable,
    tolerance: float,
    *,
    algorithm: str,
    validate: bool,
    backend: str,
    oracle,
) -> DualSearchResult:
    """The `(3/2+eps)`-approximation around the dual step ``step(jobs, d,
    oracle)``, searched to the relative ``tolerance``.

    The whole dual search, the estimator bracket and the validation share
    one executor: ``oracle`` (checked against ``(jobs, m)``), or the one
    ``backend`` names on the ``algorithm`` row of
    :data:`~repro.core.backend.AUTO_VECTORIZED_MIN_N`.
    """
    check_eps(eps)
    jobs = list(jobs)
    backend, oracle = resolve_backend(jobs, m, backend, oracle, algorithm)
    result = dual_binary_search(jobs, m, lambda d: step(jobs, d, oracle), tolerance=tolerance, oracle=oracle)
    result.schedule.metadata.update(algorithm=algorithm, eps=eps, guarantee=1.5 + eps, backend=backend)
    if validate and jobs:
        assert_valid_schedule(result.schedule, jobs, oracle=oracle)
    return result


def bounded_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float = 0.1,
    *,
    validate: bool = True,
    backend: str = "vectorized",
    oracle=None,
) -> DualSearchResult:
    """`(3/2+eps)`-approximation via Algorithm 3 and dual binary search, run
    by :func:`shelf_schedule` on ``oracle`` or on the executor ``backend``
    names (``"vectorized"`` by default)."""
    # (3/2)(1+eps/10)^2 (1+eps/4) <= 3/2 + eps for eps <= 1: the dual step gets
    # eps/2 (of which delta = eps/10) and the binary search eps/4.
    return shelf_schedule(
        jobs,
        m,
        eps,
        lambda jobs, d, oracle: bounded_dual(jobs, m, d, eps / 2.0, oracle=oracle),
        eps / 4.0,
        algorithm="bounded",
        validate=validate,
        backend=backend,
        oracle=oracle,
    )
