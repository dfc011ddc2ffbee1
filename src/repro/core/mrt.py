"""The Mounié–Rapine–Trystram `(3/2)`-dual algorithm (Section 4.1).

This is the paper's starting point and the `O(n*m)` baseline against which the
accelerated algorithms are compared: the shelf-1 selection is an *exact* 0/1
knapsack over the big jobs (size ``gamma_j(d)``, profit ``v_j(d)``, capacity
``m``), solved by dynamic programming in time proportional to ``m``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..knapsack.dp import solve_knapsack, solve_knapsack_dense
from .bounded_algorithm import shelf_dual, shelf_schedule
# unused here but importable: perfbench/layers.py patches them by name
from .dual import DualSearchResult, dual_binary_search  # noqa: F401
from .job import MoldableJob
from .schedule import Schedule
from .shelves import shelf_items
from .validation import assert_valid_schedule  # noqa: F401

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
    oracle:
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

    return shelf_dual(jobs, m, d, select, algorithm="mrt", oracle=oracle)


def mrt_schedule(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float = 0.1,
    *,
    validate: bool = True,
    backend: str = "vectorized",
    oracle=None,
) -> DualSearchResult:
    """`(3/2 + eps)`-approximation via the MRT dual algorithm and binary search.

    The binary-search tolerance is chosen so that the final makespan is at most
    ``(3/2)(1 + 2*eps/3) <= 3/2 + eps`` times the optimum.  Runs
    :func:`~repro.core.bounded_algorithm.shelf_schedule` on ``oracle`` or on
    the executor ``backend`` names (``"vectorized"`` by default).
    """
    return shelf_schedule(
        jobs,
        m,
        eps,
        lambda jobs, d, oracle: mrt_dual(jobs, m, d, oracle=oracle),
        2.0 * eps / 3.0,
        algorithm="mrt",
        validate=validate,
        backend=backend,
        oracle=oracle,
    )
