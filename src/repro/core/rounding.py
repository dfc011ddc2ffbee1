"""Geometric rounding of jobs into item *types* (Section 4.3).

Algorithm 3 reduces the shelf-selection knapsack to a **bounded** knapsack by
grouping big jobs into `O(poly(1/eps) * polylog(m))` item types:

* processor counts ``gamma_j(d)`` and ``gamma_j(d/2)`` above the wide-job
  threshold ``b`` are rounded **down** onto the geometric grid
  ``geom(b, m, 1+rho)`` (counts below ``b`` are kept exact);
* for jobs that stay *narrow* in shelf S2 the profit ``v_j(d)`` is rounded
  **up** onto ``geom(delta*d/2, b*d/2, 1+delta/b)`` (tiny profits below
  ``delta*d/2`` are dropped to zero);
* for jobs that are *wide* in shelf S2 the processing times are rounded
  **down** onto ``geom(s/2, s, 1+4rho)`` for the shelf heights
  ``s ∈ {d, d/2}`` and the profit is the saved work in rounded terms.

Two jobs with identical rounded data form the same type, so the bounded
knapsack only sees the type multiset.

The γ-allotments and processing times are read as columns of whichever
executor (:mod:`repro.perf.oracle`) the driver holds.  Each geometric grid
rounds its values in one batch (:func:`~repro.knapsack.compressible.round_up_geom_batch`,
each distinct processor count once), and one loop over the jobs groups them
into types; the per-job results stay columns until someone reads
:attr:`RoundingScheme.rounded`.  Both backends produce identical schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from ..knapsack.compressible import round_down_geom, round_down_geom_batch, round_up_geom_batch
from ..knapsack.items import ItemType
from .backend import resolve_backend
from .compression import CompressionParams, params_for_delta
from .job import MoldableJob

__all__ = ["RoundedJob", "RoundingScheme", "round_jobs_to_types"]


@dataclass(frozen=True)
class RoundedJob:
    """Rounded knapsack data of one big job."""

    job: MoldableJob
    size: int  # rounded gamma_j(d)
    profit: float  # rounded v_j(d)
    type_key: Hashable
    gamma_full: int  # exact gamma_j(d)
    gamma_half: int  # exact gamma_j(d/2)
    rounded_time_full: float  # \check t_j(d)   (equals the exact time for narrow jobs)
    rounded_time_half: float  # \check t_j(d/2)


@dataclass
class RoundingScheme:
    """Rounding parameters and the resulting job types.

    ``columns`` holds the per-job data in input order, one list per
    :class:`RoundedJob` field; :attr:`rounded` builds the records from them
    on first access.
    """

    d: float
    m: int
    delta: float
    params: CompressionParams
    types: List[ItemType]
    columns: Tuple[list, ...] = field(default=(), repr=False, compare=False)

    @cached_property
    def rounded(self) -> List[RoundedJob]:
        """One :class:`RoundedJob` per rounded job, in input order."""
        return [RoundedJob(*row) for row in zip(*self.columns)]

    @property
    def num_types(self) -> int:
        return len(self.types)

    def theoretical_type_bound(self) -> float:
        """The paper's bound ``O(1/delta^3 * log m)`` on the number of types
        (Section 4.3.1); returned as the concrete expression for reporting."""
        delta = self.delta
        m = max(self.m, 2)
        return (1.0 / delta ** 3) * (math.log(max(1.0 / delta, 2.0)) + math.log(max(delta * m, 2.0))) + (
            1.0 / delta ** 2
        ) * math.log(max(delta * m, 2.0)) ** 2


def round_jobs_to_types(
    big_jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    delta: float,
    *,
    oracle=None,
) -> RoundingScheme:
    """Round the big jobs of a target ``d`` into bounded-knapsack item types.

    Every job must satisfy ``gamma_j(d)`` and ``gamma_j(d/2)`` defined (the
    caller removes forced shelf-1 jobs beforehand).  The γ-allotments and
    processing times come from the ``oracle``'s columns: γ and its time at
    ``d`` and at ``d/2`` (:meth:`~repro.perf.oracle.BatchedOracle.gamma_times`).

    Types are listed in first-seen order; a type's members are sorted by
    their exact ``gamma_j(d)`` (ties in input order), so that narrow members
    are preferred when a type is only partially selected, and the first
    member gives the type its size and profit.
    """
    params = params_for_delta(delta)
    rho = params.rho
    b = params.b
    half = d / 2.0
    jobs = list(big_jobs)
    if oracle is None:
        _, oracle = resolve_backend(jobs, m, "scalar", None)
    pos = oracle.positions(jobs)
    g_full_col, t_full_col = oracle.gamma_times(d, pos)
    g_half_col, t_half_col = oracle.gamma_times(half, pos)
    missing = np.flatnonzero((g_full_col > m) | (g_half_col > m))
    if len(missing):
        raise ValueError(
            f"job {jobs[missing[0]].name!r} cannot meet the shelf heights; "
            "forced jobs must be removed before rounding"
        )
    g_fulls = g_full_col.tolist()
    g_halves = g_half_col.tolist()

    # counts up to b stay exact; each distinct count above b is rounded down
    # onto geom(b, m, 1+rho) once (Eq. (25))
    over = np.concatenate((g_full_col[g_full_col > b], g_half_col[g_half_col > b])).tolist()
    if over:
        above = list(set(over))
        on_grid = round_down_geom_batch([float(g) for g in above], b, float(m), 1.0 + rho).tolist()
        rounded = {g: int(math.floor(c + 1e-9)) for g, c in zip(above, on_grid)}
        sizes = [rounded.get(g, g) for g in g_fulls]
        half_sizes = [rounded.get(g, g) for g in g_halves]
        narrow = np.array([h < b for h in half_sizes], dtype=bool)
    else:
        sizes, half_sizes = g_fulls, g_halves
        narrow = g_half_col < b
    wide = ~narrow

    # narrow in shelf S2: the original profit v_j(d) = w_j(d/2) - w_j(d),
    # dropped to 0 below delta*d/2 and rounded up above it.  Counts convert
    # to float as in Python's int * float.
    profit_low = delta / 2.0 * d
    gain = g_half_col.astype(np.float64) * t_half_col - g_full_col.astype(np.float64) * t_full_col
    gain = np.where(gain > 0.0, gain, 0.0)  # max(0.0, gain)
    raised = narrow & (gain >= profit_low)
    profits = np.zeros(len(jobs))
    profits[raised] = round_up_geom_batch(gain[raised], profit_low, b / 2.0 * d, 1.0 + delta / b)

    # wide in shelf S2: round the processing times of both shelves down and
    # take the saved work in rounded terms
    r_full_col, r_half_col = t_full_col, t_half_col
    if wide.any():
        ratio = 1.0 + 4.0 * rho
        r_full_col, r_half_col = t_full_col.copy(), t_half_col.copy()
        try:
            r_full_col[wide] = round_down_geom_batch(t_full_col[wide], d / 2.0, d, ratio)
            r_half_col[wide] = round_down_geom_batch(t_half_col[wide], half / 2.0, half, ratio)
        except ValueError:
            # raise for the first job in input order, as one job at a time would
            for t_full, t_half in zip(t_full_col[wide].tolist(), t_half_col[wide].tolist()):
                round_down_geom(t_full, d / 2.0, d, ratio)
                round_down_geom(t_half, half / 2.0, half, ratio)
            raise
        size_col = np.array(sizes, dtype=np.float64)[wide]
        half_size_col = np.array(half_sizes, dtype=np.float64)[wide]
        saved = r_half_col[wide] * half_size_col - r_full_col[wide] * size_col
        profits[wide] = np.where(saved > 0.0, saved, 0.0)
    profit_list = profits.tolist()
    r_fulls = r_full_col.tolist()
    r_halves = r_half_col.tolist()

    # group into types in first-seen order; round(x, 12) once per value
    keys: List[Hashable] = []
    groups: Dict[Hashable, List[int]] = {}
    digits: Dict[float, float] = {}
    for i, is_narrow in enumerate(narrow.tolist()):
        if is_narrow:
            profit = profit_list[i]
            r = digits.get(profit)
            if r is None:
                r = digits[profit] = round(profit, 12)
            key = ("narrow", sizes[i], r)
        else:
            key = ("wide", sizes[i], half_sizes[i], round(r_fulls[i], 12), round(r_halves[i], 12))
        keys.append(key)
        members = groups.get(key)
        if members is None:
            groups[key] = [i]
        else:
            members.append(i)
    types: List[ItemType] = []
    for key, members in groups.items():
        if len(members) > 1:
            members.sort(key=g_fulls.__getitem__)  # stable: ties keep input order
        first = members[0]
        types.append(ItemType(key, sizes[first], profit_list[first], len(members), [jobs[i] for i in members]))
    columns = (jobs, sizes, profit_list, keys, g_fulls, g_halves, r_fulls, r_halves)
    return RoundingScheme(d=d, m=m, delta=delta, params=params, types=types, columns=columns)
