"""Algorithm 3 (Section 4.3) and its linear-time variant (Section 4.3.3).

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

The ``transform="bucket"`` flag switches the three-shelf construction to the
bucketed piggyback search of Section 4.3.3, which removes the remaining
``O(n log n)`` term and makes the whole dual step linear in ``n``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..knapsack.bounded import assign_members, expand_bounded_items, selected_counts
from ..knapsack.compressible import solve_compressible_knapsack
from .backend import resolve_backend
from .dual import DualSearchResult, dual_binary_search
from .fptas import fptas_dual
from .job import MoldableJob
from .rounding import round_jobs_to_types
from .schedule import Schedule
from .shelves import build_three_shelf_schedule, split_big_jobs
from .validation import assert_valid_schedule

__all__ = ["bounded_dual", "bounded_schedule"]

#: Same large-m dispatch as Algorithm 1 (Section 4.2.5).
LARGE_M_FACTOR = 16


def _algorithm(transform: str) -> str:
    """The facade name of the variant ``transform`` selects."""
    return "bounded" if transform == "heap" else "bounded_linear"


def bounded_dual(
    jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    eps: float,
    *,
    transform: str = "heap",
    backend: str = "scalar",
    oracle=None,
) -> Optional[Schedule]:
    """One `(3/2+eps)`-dual step of Algorithm 3 (or its linear variant).

    ``backend="vectorized"`` computes γ-allotments with lockstep batched
    binary searches and runs the container knapsack on the NumPy array engine
    (bit-identical results); ``oracle`` lets repeated dual calls share one
    :class:`repro.perf.oracle.BatchedOracle`.
    """
    if d <= 0:
        return None
    jobs = list(jobs)
    n = len(jobs)
    if n == 0:
        return Schedule(m=m)
    backend, oracle = resolve_backend(jobs, m, backend, oracle, _algorithm(transform))

    if m >= LARGE_M_FACTOR * n:
        schedule = fptas_dual(jobs, m, d, 0.5, backend=backend, oracle=oracle)
        if schedule is not None:
            schedule.metadata["algorithm"] = "bounded_dual(large_m)"
        return schedule

    delta = eps / 5.0
    split = split_big_jobs(jobs, m, d, oracle=oracle)
    if split is None:
        return None
    shelf1, knapsack_jobs, capacity = split
    if capacity < 0:
        return None

    rho = None
    if knapsack_jobs:
        scheme = round_jobs_to_types(knapsack_jobs, m, d, delta, oracle=oracle)
        rho = scheme.params.rho
        containers = expand_bounded_items(scheme.types)
        compressible_keys = {c.key for c in containers if c.size >= 1.0 / rho}
        n_bar = max(1, int(math.floor(capacity * rho / (1.0 - rho))) + 1)
        solution = solve_compressible_knapsack(
            containers,
            compressible_keys,
            capacity,
            rho,
            alpha_min=1.0 / rho,
            beta_max=float(capacity),
            n_bar=n_bar,
            backend=backend,
        )
        counts = selected_counts(solution.items)
        shelf1.extend(assign_members(counts, scheme.types))
    else:
        scheme = None

    d_prime = (1.0 + delta) ** 2 * d
    schedule = build_three_shelf_schedule(
        jobs,
        m,
        d_prime,
        shelf1,
        transform=transform,
        bucket_ratio=(1.0 + 4.0 * rho) if rho is not None else None,
        oracle=oracle,
    )
    if schedule is not None:
        schedule.metadata["algorithm"] = f"bounded_dual({transform})"
        schedule.metadata["d"] = d
        schedule.metadata["d_prime"] = d_prime
        if scheme is not None:
            schedule.metadata["num_item_types"] = scheme.num_types
    return schedule


def bounded_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float = 0.1,
    *,
    transform: str = "heap",
    validate: bool = True,
    backend: str = "vectorized",
) -> DualSearchResult:
    """`(3/2+eps)`-approximation via Algorithm 3 (``transform="heap"``) or the
    linear-time variant of Section 4.3.3 (``transform="bucket"``).

    ``backend="vectorized"`` (default) shares one batched γ-oracle across the
    whole dual search; ``backend="scalar"`` is the bit-identical reference.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    jobs = list(jobs)
    backend, oracle = resolve_backend(jobs, m, backend, None, _algorithm(transform))
    # (3/2)(1+eps/10)^2 (1+eps/4) <= 3/2 + eps for eps <= 1: the dual step gets
    # eps/2 (of which delta = eps/10) and the binary search eps/4.
    dual_eps = eps / 2.0
    tolerance = eps / 4.0
    result = dual_binary_search(
        jobs,
        m,
        lambda d: bounded_dual(jobs, m, d, dual_eps, transform=transform, backend=backend, oracle=oracle),
        tolerance=tolerance,
        oracle=oracle,
    )
    result.schedule.metadata["algorithm"] = _algorithm(transform)
    result.schedule.metadata["eps"] = eps
    result.schedule.metadata["guarantee"] = 1.5 + eps
    result.schedule.metadata["backend"] = backend
    if validate and jobs:
        assert_valid_schedule(result.schedule, jobs, oracle=oracle)
    return result
