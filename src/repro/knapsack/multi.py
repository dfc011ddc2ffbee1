"""Solving one knapsack instance for many capacities in a single pass.

Section 4.2.4 of the paper observes that the dominance-list dynamic program
naturally answers *all* capacities at once: build the list up to the largest
capacity, then, for each requested capacity ``beta``, report the most
profitable pair whose size does not exceed ``beta``.  When all items fit
together under the smallest capacity, the pass is skipped:
:func:`repro.knapsack.dp.all_fit_solution` gives every capacity the DP's own
answer in ``O(n)``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .dp import SIZE_EPS, DominanceList, all_fit_solution
from .items import KnapsackItem

__all__ = ["solve_knapsack_multi"]


def solve_knapsack_multi(
    items: Sequence[KnapsackItem],
    capacities: Sequence[float],
    *,
    backend: str = "scalar",
) -> Dict[float, Tuple[float, List[KnapsackItem]]]:
    """Solve the 0/1 knapsack for each capacity in ``capacities``.

    Returns a dict mapping each capacity to ``(profit, chosen_items)``.
    The work is a single dominance-list pass up to ``max(capacities)``, or
    none when :func:`repro.knapsack.dp.all_fit_solution` answers because
    every item fits under the smallest capacity; every capacity then maps
    to the same ``(profit, chosen_items)`` tuple.
    ``backend="vectorized"`` runs the pass on the NumPy array engine.
    """
    if any(c < 0 for c in capacities):
        raise ValueError("capacities must be non-negative")
    if not capacities:
        return {}
    solution = all_fit_solution(items, capacities)
    if solution is not None:
        return {cap: solution for cap in capacities}
    if backend == "vectorized":
        from .array_dp import solve_knapsack_multi_array

        return solve_knapsack_multi_array(items, capacities)
    max_cap = max(capacities)
    dom = DominanceList()
    for index, item in enumerate(items):
        # a zero-profit state ties its parent at a size no smaller: pruned
        if item.size > max_cap + SIZE_EPS or item.profit == 0:
            continue
        dom.add_item(item, index, max_cap)

    # prefix maxima over the size-sorted pair list
    pairs = dom.pairs
    best_prefix: List[int] = []
    best_idx = 0
    for i, pair in enumerate(pairs):
        if pair.profit > pairs[best_idx].profit:
            best_idx = i
        best_prefix.append(best_idx)

    sizes = [p.size for p in pairs]
    from bisect import bisect_right

    results: Dict[float, Tuple[float, List[KnapsackItem]]] = {}
    for cap in capacities:
        idx = bisect_right(sizes, cap + SIZE_EPS) - 1
        if idx < 0:
            results[cap] = (0.0, [])
            continue
        pair = pairs[best_prefix[idx]]
        results[cap] = (pair.profit, pair.backtrack(items))
    return results
