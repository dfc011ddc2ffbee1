"""Knapsack substrate used by the scheduling algorithms.

The `(3/2+ε)`-dual algorithms of the paper reduce shelf selection to (variants
of) the knapsack problem:

* :mod:`repro.knapsack.dp` — exact 0/1 knapsack: the dense table and
  Lawler's dominance-list dynamic program, both on NumPy arrays.  The
  dominance list (:class:`~repro.knapsack.dp.DominanceList`) is the one
  engine behind every solver below, whichever executor a scheduling
  algorithm runs on;
* :mod:`repro.knapsack.multi` — solving one knapsack for *many* capacities in
  a single pass (Section 4.2.4 of the paper);
* :mod:`repro.knapsack.compressible` — the knapsack problem with compressible
  items: geometric capacity sets, adaptive normalization (Lemma 12) and
  Algorithm 2 (Theorem 15);
* :mod:`repro.knapsack.bounded` — bounded knapsack → 0/1 conversion by binary
  splitting of item counts (Section 4.3).
"""

from .items import KnapsackItem, ItemType
from .dp import solve_knapsack, solve_knapsack_dense
from .multi import solve_knapsack_multi
from .compressible import (
    geom,
    round_down_geom,
    round_up_geom,
    AdaptiveNormalizer,
    solve_compressible_multi,
    CompressibleSolution,
    solve_compressible_knapsack,
)
from .bounded import binary_split, expand_bounded_items, assign_members

__all__ = [
    "KnapsackItem",
    "ItemType",
    "solve_knapsack",
    "solve_knapsack_dense",
    "solve_knapsack_multi",
    "geom",
    "round_down_geom",
    "round_up_geom",
    "AdaptiveNormalizer",
    "solve_compressible_multi",
    "CompressibleSolution",
    "solve_compressible_knapsack",
    "binary_split",
    "expand_bounded_items",
    "assign_members",
]
