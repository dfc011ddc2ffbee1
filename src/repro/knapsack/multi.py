"""Solving one knapsack instance for many capacities in a single pass.

Section 4.2.4 of the paper observes that the dominance-list dynamic program
naturally answers *all* capacities at once: build the list up to the largest
capacity, then, for each requested capacity ``beta``, report the most
profitable state whose size does not exceed ``beta`` (states are kept with
strictly increasing sizes and profits, so it is the last one that fits).
When all items fit together under the smallest capacity, the pass is
skipped: :func:`repro.knapsack.dp.all_fit_solution` gives every capacity the
DP's own answer in ``O(n)``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .dp import SIZE_EPS, DominanceList, all_fit_solution, check_capacities
from .items import KnapsackItem

__all__ = ["solve_knapsack_multi"]


def solve_knapsack_multi(
    items: Sequence[KnapsackItem],
    capacities: Sequence[float],
) -> Dict[float, Tuple[float, List[KnapsackItem]]]:
    """Solve the 0/1 knapsack for each capacity in ``capacities``.

    Returns a dict mapping each capacity to ``(profit, chosen_items)``.
    The work is a single dominance-list pass up to ``max(capacities)``, or
    none when :func:`repro.knapsack.dp.all_fit_solution` answers because
    every item fits under the smallest capacity; every capacity then maps
    to the same ``(profit, chosen_items)`` tuple.
    """
    check_capacities(capacities)
    if not capacities:
        return {}
    solution = all_fit_solution(items, capacities)
    if solution is not None:
        return {cap: solution for cap in capacities}
    max_cap = max(capacities)
    dom = DominanceList()
    for index, item in enumerate(items):
        # a zero-profit state ties its parent at a size no smaller: pruned
        if item.size > max_cap + SIZE_EPS or item.profit == 0:
            continue
        dom.add_item(item, index, max_cap)

    results: Dict[float, Tuple[float, List[KnapsackItem]]] = {}
    backtracked: Dict[int, Tuple[float, List[KnapsackItem]]] = {}
    for cap in capacities:
        idx = dom.best_index_for_capacity(cap)
        if idx not in backtracked:
            backtracked[idx] = (float(dom.profits[idx]), dom.backtrack(idx, items))
        results[cap] = backtracked[idx]
    return results
