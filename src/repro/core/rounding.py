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
executor (:mod:`repro.perf.oracle`) the driver holds; the rounding itself
runs per value, so both backends produce identical schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence

import numpy as np

from ..knapsack.compressible import round_down_geom, round_up_geom
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
    """Rounding parameters and the resulting job types."""

    d: float
    m: int
    delta: float
    params: CompressionParams
    rounded: List[RoundedJob]
    types: List[ItemType]

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


def _round_count(count: int, b: float, m: int, rho: float) -> int:
    """Round a processor count down onto ``geom(b, m, 1+rho)`` if it exceeds
    the wide-job threshold ``b`` (Eq. (25))."""
    if count <= b:
        return count
    return int(math.floor(round_down_geom(float(count), b, float(m), 1.0 + rho) + 1e-9))


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
    processing times come from the ``oracle``'s columns: two γ-arrays and
    two time columns per target.
    """
    params = params_for_delta(delta)
    rho = params.rho
    b = params.b
    half = d / 2.0
    jobs = list(big_jobs)
    if oracle is None:
        _, oracle = resolve_backend(jobs, m, "scalar", None)
    pos = oracle.positions(jobs)
    g_full_col = oracle.gamma_at(d, pos)
    g_half_col = oracle.gamma_at(half, pos)
    missing = np.flatnonzero((g_full_col > m) | (g_half_col > m))
    if len(missing):
        raise ValueError(
            f"job {jobs[missing[0]].name!r} cannot meet the shelf heights; "
            "forced jobs must be removed before rounding"
        )
    g_fulls = g_full_col.tolist()
    g_halves = g_half_col.tolist()
    t_fulls = oracle.times_at(g_full_col, pos).tolist()
    t_halves = oracle.times_at(g_half_col, pos).tolist()

    # many jobs share a processor count, so round each distinct count once
    counts: Dict[int, int] = {}
    profit_low = delta / 2.0 * d
    rounded_jobs: List[RoundedJob] = []
    for job, g_full, g_half, time_full, time_half in zip(jobs, g_fulls, g_halves, t_fulls, t_halves):
        size = counts.get(g_full)
        if size is None:
            size = counts[g_full] = _round_count(g_full, b, m, rho)
        rounded_half_count = counts.get(g_half)
        if rounded_half_count is None:
            rounded_half_count = counts[g_half] = _round_count(g_half, b, m, rho)

        if rounded_half_count < b:
            # narrow in shelf S2: round the original profit v_j(d) = w_j(d/2) - w_j(d)
            profit_raw = max(0.0, g_half * time_half - g_full * time_full)
            if profit_raw < profit_low:
                profit = 0.0
            else:
                profit = round_up_geom(profit_raw, profit_low, b / 2.0 * d, 1.0 + delta / b)
            t_full = time_full
            t_half = time_half
            type_key = ("narrow", size, round(profit, 12))
        else:
            # wide in shelf S2: round the processing times of both shelves
            t_full = round_down_geom(time_full, d / 2.0, d, 1.0 + 4.0 * rho)
            t_half = round_down_geom(time_half, half / 2.0, half, 1.0 + 4.0 * rho)
            profit = max(0.0, t_half * rounded_half_count - t_full * size)
            type_key = ("wide", size, rounded_half_count, round(t_full, 12), round(t_half, 12))

        rounded_jobs.append(
            RoundedJob(
                job=job,
                size=size,
                profit=profit,
                type_key=type_key,
                gamma_full=g_full,
                gamma_half=g_half,
                rounded_time_full=t_full,
                rounded_time_half=t_half,
            )
        )

    # group into types in first-seen order; members sorted by true size so
    # that narrow members are preferred when a type is only partially selected.
    groups: Dict[Hashable, List[RoundedJob]] = {}
    for rj in rounded_jobs:
        groups.setdefault(rj.type_key, []).append(rj)
    types: List[ItemType] = []
    for key, members in groups.items():
        members.sort(key=lambda rj: rj.gamma_full)
        types.append(
            ItemType(
                key=key,
                size=members[0].size,
                profit=members[0].profit,
                count=len(members),
                members=[rj.job for rj in members],
            )
        )
    return RoundingScheme(d=d, m=m, delta=delta, params=params, rounded=rounded_jobs, types=types)
