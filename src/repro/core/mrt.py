"""The Mounié–Rapine–Trystram `(3/2)`-dual algorithm (Section 4.1).

This is the paper's starting point and the `O(n*m)` baseline against which the
accelerated algorithms are compared: the shelf-1 selection is an *exact* 0/1
knapsack over the big jobs (size ``gamma_j(d)``, profit ``v_j(d)``, capacity
``m``), solved by dynamic programming in time proportional to ``m``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..knapsack.dp import solve_knapsack, solve_knapsack_dense
from .backend import resolve_backend
from .bounded_algorithm import shelf_dual
from .dual import DualSearchResult, dual_binary_search
from .job import MoldableJob
from .schedule import Schedule
from .shelves import shelf_items
from .validation import assert_valid_schedule

__all__ = ["mrt_dual", "mrt_schedule"]


#: Above this capacity the exact knapsack falls back from the dense O(n*m)
#: table to the dominance-list engine (same optimum, far less memory).
DENSE_KNAPSACK_LIMIT = 1 << 17


def mrt_dual(
    jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    *,
    knapsack: str = "auto",
    backend: str = "scalar",
    oracle=None,
) -> Optional[Schedule]:
    """One dual step of the MRT algorithm: schedule with makespan ``<= 3d/2``
    or reject the target ``d``.

    Rejection is correct in the dual sense: if a schedule with makespan ``d``
    exists, the step never rejects (Lemma 6).

    Parameters
    ----------
    knapsack:
        ``"dense"`` uses the classical ``O(n*m)`` table DP (the running time
        the paper attributes to the original algorithm), ``"pairs"`` the
        dominance-list DP (same optimum), ``"auto"`` picks dense for moderate
        capacities and pairs otherwise.
    backend, oracle:
        As in :func:`~repro.core.bounded_algorithm.shelf_dual`.
    """
    if knapsack not in ("auto", "dense", "pairs"):
        raise ValueError(f"unknown knapsack engine {knapsack!r}")

    def select(knapsack_jobs, capacity, oracle):
        items = shelf_items(knapsack_jobs, d, m, oracle=oracle)
        use_dense = knapsack == "dense" or (knapsack == "auto" and capacity <= DENSE_KNAPSACK_LIMIT)
        solve = solve_knapsack_dense if use_dense else solve_knapsack
        _, chosen = solve(items, capacity)
        return [item.payload for item in chosen], d, {}

    return shelf_dual(jobs, m, d, select, algorithm="mrt", backend=backend, oracle=oracle)


def mrt_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float = 0.1,
    *,
    validate: bool = True,
    backend: str = "vectorized",
) -> DualSearchResult:
    """`(3/2 + eps)`-approximation via the MRT dual algorithm and binary search.

    The binary-search tolerance is chosen so that the final makespan is at most
    ``(3/2)(1 + 2*eps/3) <= 3/2 + eps`` times the optimum.

    ``backend="vectorized"`` (default) shares one batched γ-oracle across the
    whole dual search, so successive thresholds reuse earlier γ-arrays as
    bisection brackets; ``backend="scalar"`` is the bit-identical reference, run the same way on
    one :class:`~repro.perf.oracle.ScalarOracle`.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    jobs = list(jobs)
    backend, oracle = resolve_backend(jobs, m, backend, None, "mrt")
    tolerance = 2.0 * eps / 3.0
    result = dual_binary_search(
        jobs,
        m,
        lambda d: mrt_dual(jobs, m, d, backend=backend, oracle=oracle),
        tolerance=tolerance,
        oracle=oracle,
    )
    result.schedule.metadata["algorithm"] = "mrt"
    result.schedule.metadata["eps"] = eps
    result.schedule.metadata["guarantee"] = 1.5 + eps
    result.schedule.metadata["backend"] = backend
    if validate and jobs:
        assert_valid_schedule(result.schedule, jobs, oracle=oracle)
    return result
