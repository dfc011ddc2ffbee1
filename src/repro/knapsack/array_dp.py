"""Array (NumPy) engines for the dominance-list knapsack DPs.

:class:`ArrayDominanceList` is the vectorized counterpart of
:class:`repro.knapsack.dp.DominanceList`: the undominated ``(profit, size)``
states live in flat float64 arrays and adding an item is a constant number of
whole-array operations (shift, cut at the capacity, merge via a stable size
sort, prune via a running maximum) instead of a Python loop over states.
Backtracking information is kept in an append-only node pool (one item index
per chunk, a parent per node), so solutions are recovered exactly like the
scalar engine's parent pointers.

Pruning semantics match the scalar engine: in ``(size, -profit)`` order, old
states first on full ties, a state is kept only if its profit exceeds the
last kept state's by more than ``1e-15``, and among states with
(near-)identical sizes the most profitable survives.  The two engines keep
identical states after every item, so the solvers below are drop-in
replacements for :func:`repro.knapsack.dp.solve_knapsack`,
:func:`repro.knapsack.multi.solve_knapsack_multi` and the compressible
multi-capacity solver.  Those two entry points try
:func:`repro.knapsack.dp.all_fit_solution` before dispatching to either
engine, so the solvers below run only when some capacity may bind.  Like
the scalar loops, they skip zero-profit items, whose states always tie
their parents and are pruned.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dp import PROFIT_EPS, SIZE_EPS, TIE_EPS
from .items import KnapsackItem

__all__ = [
    "ArrayDominanceList",
    "solve_knapsack_array",
    "solve_knapsack_multi_array",
]


class ArrayDominanceList:
    """Undominated ``(profit, size)`` states in flat arrays.

    Invariant (as in the scalar engine): ``sizes`` strictly increasing and
    ``profits`` strictly increasing; state 0 is the empty root ``(0, 0)``.
    """

    def __init__(self) -> None:
        self.sizes = np.zeros(1, dtype=np.float64)
        self.profits = np.zeros(1, dtype=np.float64)
        self.nodes = np.zeros(1, dtype=np.int64)
        # node pool, one chunk per add_item call: the item index every node of
        # the chunk added, and each node's parent.  Node 0 is the root.
        self._pool_items: List[int] = [-1]
        self._pool_parents: List[np.ndarray] = [np.array([-1], dtype=np.int64)]
        self._pool_offsets: List[int] = [0, 1]

    def __len__(self) -> int:
        return len(self.sizes)

    # ------------------------------------------------------------------ pool
    def _register_nodes(self, item_index: int, parents: np.ndarray) -> np.ndarray:
        base = self._pool_offsets[-1]
        count = len(parents)
        self._pool_items.append(item_index)
        # ``parents`` is a slice of ``self.nodes``, which is only ever
        # replaced, never written to, so the chunk may share its memory
        self._pool_parents.append(parents)
        self._pool_offsets.append(base + count)
        return np.arange(base, base + count, dtype=np.int64)

    def _node(self, node_id: int) -> Tuple[int, int]:
        chunk = bisect_right(self._pool_offsets, node_id) - 1
        offset = node_id - self._pool_offsets[chunk]
        return self._pool_items[chunk], int(self._pool_parents[chunk][offset])

    def backtrack(self, state_index: int, items: Sequence[KnapsackItem]) -> List[KnapsackItem]:
        """Chosen items of the state at ``state_index`` (engine order)."""
        chosen: List[KnapsackItem] = []
        node = int(self.nodes[state_index])
        while node >= 0:
            item_index, parent = self._node(node)
            if item_index < 0:
                break
            chosen.append(items[item_index])
            node = parent
        chosen.reverse()
        return chosen

    # ------------------------------------------------------------------- add
    def add_item(
        self,
        item: KnapsackItem,
        item_index: int,
        capacity: float,
        *,
        size_transform: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> None:
        """Merge in the states obtained by adding ``item`` to every state.

        ``size_transform``, when given, must be the *vectorized* counterpart
        of the scalar engine's transform (it receives the raw new sizes array
        and returns the recorded sizes).  It must be monotone, as
        :meth:`repro.knapsack.compressible.AdaptiveNormalizer.normalize_array`
        is: the new sizes then never decrease, so the states that fit the
        capacity are a prefix, cut with one binary search.
        """
        new_sizes = self.sizes + item.size
        if size_transform is not None:
            new_sizes = size_transform(new_sizes)
        fit = int(new_sizes.searchsorted(capacity + SIZE_EPS, side="right"))
        if fit == 0:
            return
        profits = np.concatenate((self.profits, self.profits[:fit] + item.profit))
        sizes = np.concatenate((self.sizes, new_sizes[:fit]))
        nodes = np.concatenate((self.nodes, self._register_nodes(item_index, self.nodes[:fit])))

        # Both runs are sorted by size, so a stable size sort is one merge:
        # size ascending, old states before new on equal sizes.  The scalar
        # merge orders equal sizes by profit descending instead, and prunes
        # against the last state it kept rather than the running maximum.
        # Neither difference changes the survivors unless some state beats
        # the running maximum by PROFIT_EPS or less; only then does the
        # merge fall back to the scalar rule itself.
        order = sizes.argsort(kind="stable")
        keep = _prune_dominated(profits[order])
        if keep is None:
            order = _scalar_merge(sizes, profits)
            sizes = sizes[order]
        else:
            order = order[keep]
            sizes = sizes[order]
            # prune 2: among runs of (near-)equal sizes keep the last
            # survivor — the scalar engine's same-size "replace" rule.
            # Profits strictly increase after prune 1, so the last of a run
            # is the best.
            ties = sizes[1:] - sizes[:-1] < TIE_EPS
            if ties.any():
                keep = np.empty(len(sizes), dtype=bool)
                np.logical_not(ties, out=keep[:-1])
                keep[-1] = True
                order = order[keep]
                sizes = sizes[keep]

        self.sizes = sizes
        self.profits = profits[order]
        self.nodes = nodes[order]

    # ---------------------------------------------------------------- queries
    def best_index_for_capacity(self, capacity: float, tol: float = SIZE_EPS) -> int:
        """Index of the most profitable state with size ``<= capacity + tol``
        (profits strictly increase, so it is the last admissible state)."""
        idx = int(np.searchsorted(self.sizes, capacity + tol, side="right")) - 1
        return max(idx, 0)


def _prune_dominated(profits: np.ndarray) -> Optional[np.ndarray]:
    """Prune 1: the mask of the states whose profit exceeds the running
    maximum of everything before them by more than ``PROFIT_EPS``.

    Returns ``None`` instead when some state beats that maximum by
    ``PROFIT_EPS`` or less (a near tie): the merge order and the scalar
    engine's compare-with-the-last-kept-state rule can then decide which
    states survive.
    """
    prev_max = np.maximum.accumulate(profits)[:-1]
    keep = np.empty(len(profits), dtype=bool)
    keep[0] = True
    np.greater(profits[1:], prev_max + PROFIT_EPS, out=keep[1:])
    if np.count_nonzero(profits[1:] > prev_max) != np.count_nonzero(keep) - 1:
        return None
    return keep


def _scalar_merge(sizes: np.ndarray, profits: np.ndarray) -> np.ndarray:
    """The positions :func:`repro.knapsack.dp._merge_and_prune` keeps, in
    order: its ``(size, -profit)`` merge order (old states first on full
    ties) and its loop, for the rare merges with near-tied profits."""
    order = np.lexsort((-profits, sizes)).tolist()
    size_of = sizes.tolist()
    profit_of = profits.tolist()
    kept: List[int] = []
    for i in order:
        if kept:
            last = kept[-1]
            if profit_of[i] <= profit_of[last] + PROFIT_EPS:
                continue
            if abs(size_of[i] - size_of[last]) < TIE_EPS:
                kept[-1] = i
                continue
        kept.append(i)
    return np.array(kept, dtype=np.int64)


def solve_knapsack_array(
    items: Sequence[KnapsackItem],
    capacity: float,
) -> Tuple[float, List[KnapsackItem]]:
    """Array-engine counterpart of :func:`repro.knapsack.dp.solve_knapsack`."""
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    dom = ArrayDominanceList()
    for index, item in enumerate(items):
        # a zero-profit state ties its parent at a size no smaller: pruned
        if item.size > capacity + SIZE_EPS or item.profit == 0:
            continue
        dom.add_item(item, index, capacity)
    best = int(np.argmax(dom.profits)) if len(dom) else 0
    return float(dom.profits[best]), dom.backtrack(best, items)


def solve_knapsack_multi_array(
    items: Sequence[KnapsackItem],
    capacities: Sequence[float],
) -> Dict[float, Tuple[float, List[KnapsackItem]]]:
    """Array-engine counterpart of
    :func:`repro.knapsack.multi.solve_knapsack_multi`."""
    if any(c < 0 for c in capacities):
        raise ValueError("capacities must be non-negative")
    if not capacities:
        return {}
    max_cap = max(capacities)
    dom = ArrayDominanceList()
    for index, item in enumerate(items):
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
