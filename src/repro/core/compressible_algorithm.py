"""Algorithm 1 (Section 4.2.5): the `(3/2+eps)`-dual algorithm based on the
knapsack problem with compressible items.

The shelf-1 selection knapsack is solved *approximately in the sizes* (never
in the profits): wide jobs — those using at least ``1/rho`` processors in
shelf S1 — are treated as compressible because Lemma 4 lets them give up a
``rho`` fraction of their processors at the cost of a ``(1+4rho)`` slowdown.
The selected jobs are then scheduled with their ``gamma_j(d')`` processor
counts for the slightly larger target ``d' = (1+4rho)d``, which is exactly
what the compression argument pays for (Corollary 10).

Running time of the dual step: ``O(n (log m + n log(eps*m)))`` oracle calls —
polynomial in ``log m``, in contrast to the ``O(n*m)`` MRT baseline.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..knapsack.compressible import solve_compressible_knapsack
from ..knapsack.items import KnapsackItem
from .allotment import gamma
from .backend import resolve_backend
from .dual import DualSearchResult, dual_binary_search
from .fptas import fptas_dual, fptas_machine_threshold
from .job import MoldableJob
from .schedule import Schedule
from .shelves import build_three_shelf_schedule, shelf_profit, split_big_jobs
from .validation import assert_valid_schedule

__all__ = ["compressible_dual", "compressible_schedule", "LARGE_M_FACTOR"]

#: Above ``m >= LARGE_M_FACTOR * n`` the dual step delegates to the FPTAS dual
#: with ``eps = 1/2`` (Section 4.2.5: "we only use Algorithm 1 if m < 16n").
LARGE_M_FACTOR = 16


def compressible_dual(
    jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    eps: float,
    *,
    backend: str = "scalar",
    oracle=None,
) -> Optional[Schedule]:
    """One `(3/2+eps)`-dual step of Algorithm 1: schedule with makespan at most
    ``(3/2)(1+4rho)d <= (3/2+eps)d`` (with ``rho = eps/6``) or reject ``d``.

    ``backend="vectorized"`` computes γ-allotments with lockstep batched
    binary searches and runs the compressible knapsack on the NumPy array
    engine (bit-identical results); ``oracle`` lets repeated dual calls share
    one :class:`repro.perf.oracle.BatchedOracle`.
    """
    if d <= 0:
        return None
    jobs = list(jobs)
    n = len(jobs)
    if n == 0:
        return Schedule(m=m)
    backend, oracle = resolve_backend(jobs, m, backend, oracle, "compressible")
    gamma_fn = oracle.gamma if oracle is not None else gamma

    if m >= LARGE_M_FACTOR * n:
        # m >= 16n = 8n/(1/2): the FPTAS dual with eps=1/2 yields makespan <= 3d/2.
        schedule = fptas_dual(jobs, m, d, 0.5, backend=backend, oracle=oracle)
        if schedule is not None:
            schedule.metadata["algorithm"] = "compressible_dual(large_m)"
        return schedule

    rho = eps / 6.0
    d_prime = (1.0 + 4.0 * rho) * d
    split = split_big_jobs(jobs, m, d, oracle=oracle)
    if split is None:
        return None
    shelf1, knapsack_jobs, capacity = split
    if capacity < 0:
        return None

    items = [
        KnapsackItem(
            key=idx,
            size=gamma_fn(job, d, m),
            profit=shelf_profit(job, d, m, gamma_fn=gamma_fn),
            payload=job,
        )
        for idx, job in enumerate(knapsack_jobs)
    ]
    compressible_keys = {item.key for item in items if item.size >= 1.0 / rho}

    if items:
        n_bar = max(1, int(math.floor(capacity * rho / (1.0 - rho))) + 1)
        solution = solve_compressible_knapsack(
            items,
            compressible_keys,
            capacity,
            rho,
            alpha_min=1.0 / rho,
            beta_max=float(capacity),
            n_bar=n_bar,
            backend=backend,
        )
        shelf1.extend(item.payload for item in solution.items)

    # Corollary 10: schedule the selection for the inflated target d'.
    schedule = build_three_shelf_schedule(jobs, m, d_prime, shelf1, oracle=oracle)
    if schedule is not None:
        schedule.metadata["algorithm"] = "compressible_dual"
        schedule.metadata["d"] = d
        schedule.metadata["d_prime"] = d_prime
    return schedule


def compressible_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float = 0.1,
    *,
    validate: bool = True,
    backend: str = "vectorized",
) -> DualSearchResult:
    """`(3/2+eps)`-approximation via Algorithm 1 and dual binary search.

    The accuracy budget is split between the dual step (``eps/2``) and the
    binary search (``eps/4``): the final makespan is at most
    ``(3/2 + eps/2)(1 + eps/4) <= (3/2 + eps)`` times the optimum for
    ``eps <= 1``.

    ``backend="vectorized"`` (default) shares one batched γ-oracle across the
    whole dual search; ``backend="scalar"`` is the bit-identical reference.
    """
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    jobs = list(jobs)
    backend, oracle = resolve_backend(jobs, m, backend, None, "compressible")
    dual_eps = eps / 2.0
    tolerance = eps / 4.0
    result = dual_binary_search(
        jobs,
        m,
        lambda d: compressible_dual(jobs, m, d, dual_eps, backend=backend, oracle=oracle),
        tolerance=tolerance,
        oracle=oracle,
    )
    result.schedule.metadata["algorithm"] = "compressible"
    result.schedule.metadata["eps"] = eps
    result.schedule.metadata["guarantee"] = 1.5 + eps
    result.schedule.metadata["backend"] = backend
    if validate and jobs:
        assert_valid_schedule(result.schedule, jobs, oracle=oracle)
    return result
