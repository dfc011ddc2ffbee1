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

from typing import Optional, Sequence

from .bounded_algorithm import LARGE_M_FACTOR, compressible_knapsack, shelf_dual, shelf_schedule
# unused here but importable: perfbench/layers.py patches them by name
from .dual import DualSearchResult, dual_binary_search  # noqa: F401
from .job import MoldableJob
from .schedule import Schedule
from .shelves import shelf_items
from .validation import assert_valid_schedule  # noqa: F401

__all__ = ["compressible_dual", "compressible_schedule", "LARGE_M_FACTOR"]


def compressible_dual(
    jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    eps: float,
    *,
    oracle=None,
) -> Optional[Schedule]:
    """One `(3/2+eps)`-dual step of Algorithm 1: schedule with makespan at most
    ``(3/2)(1+4rho)d <= (3/2+eps)d`` (with ``rho = eps/6``) or reject ``d``;
    ``oracle`` is as in :func:`~repro.core.bounded_algorithm.shelf_dual`."""
    rho = eps / 6.0
    # Corollary 10: the selection is scheduled for the inflated target d'.
    d_prime = (1.0 + 4.0 * rho) * d

    def select(knapsack_jobs, capacity, oracle):
        items = shelf_items(knapsack_jobs, d, m, oracle=oracle)
        chosen = compressible_knapsack(items, capacity, rho) if items else []
        return [item.payload for item in chosen], d_prime, {}

    return shelf_dual(jobs, m, d, select, algorithm="compressible", large_m=True, oracle=oracle)


def compressible_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float = 0.1,
    *,
    validate: bool = True,
    backend: str = "vectorized",
    oracle=None,
) -> DualSearchResult:
    """`(3/2+eps)`-approximation via Algorithm 1 and dual binary search.

    The accuracy budget is split between the dual step (``eps/2``) and the
    binary search (``eps/4``): the final makespan is at most
    ``(3/2 + eps/2)(1 + eps/4) <= (3/2 + eps)`` times the optimum for
    ``eps <= 1``.  Runs :func:`~repro.core.bounded_algorithm.shelf_schedule`
    on ``oracle`` or on the executor ``backend`` names (``"vectorized"`` by
    default).
    """
    return shelf_schedule(
        jobs,
        m,
        eps,
        lambda jobs, d, oracle: compressible_dual(jobs, m, d, eps / 2.0, oracle=oracle),
        eps / 4.0,
        algorithm="compressible",
        validate=validate,
        backend=backend,
        oracle=oracle,
    )
