"""Capacity policy: the single owner of every machine-count exactness decision.

The paper's headline is a running time polynomial in ``n`` and ``log m`` —
machine counts are *data*, never loop bounds — so ``m`` can be astronomically
large (``examples/compact_encoding_large_m.py`` runs at ``m = 2**80``).  The
columnar fast paths, however, keep processor counts, machine indices and their
prefix sums in NumPy arrays, and NumPy arithmetic is only exact within a
dtype-dependent range.  This module centralises the two boundaries so no
caller hardcodes an overflow guard again:

int64 boundary (``MAX_COLUMNAR_M = 2**62``)
    Plain ``np.int64`` columns are safe while every value **and every prefix
    sum** the consumer forms stays within it (one bit of headroom under the
    int64 limit).  Past it, :func:`index_array` and :func:`exact_add` fall
    back to object-dtype arrays of Python ints, exact at any magnitude, and
    :func:`total_fits_int64` decides the cut on exact integer totals.

float boundary (``MAX_EXACT_FLOAT_M = 2**53``)
    float64 represents integers exactly only up to here.  Any code that
    funnels a processor-count column through float64 (sum guards, oracle
    batch calls) must check :func:`total_fits_int64` or this constant instead
    of assuming the int64 range — trusting the 2**53..2**62 band was the
    overflow-boundary bug this module exists to fix.

The list scheduler needs neither: it allocates spans in Python ints.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "MAX_EXACT_FLOAT_M",
    "MAX_COLUMNAR_M",
    "index_array",
    "exact_add",
    "total_fits_int64",
]

#: Largest integer float64 represents exactly (2**53); beyond it, casting a
#: processor count or capacity total to float silently rounds.
MAX_EXACT_FLOAT_M = 1 << 53

#: Largest machine count / capacity prefix sum the int64 columns may hold
#: (one bit of headroom under the int64 limit, as the historical guards had).
MAX_COLUMNAR_M = 1 << 62


def total_fits_int64(procs: np.ndarray) -> bool:
    """Exact check that prefix sums over ``procs`` stay ``<= MAX_COLUMNAR_M``.

    The historical guard compared ``float(np.sum(procs.astype(float64)))``
    against ``2**62`` — inexact in the 2**53..2**62 band, where the float sum
    can round *below* the cap while the true integer total sits above it.
    Here the float sum is only trusted while it stays within the exact-float
    range; past that, the total is re-summed in Python ints.
    """
    if procs.dtype == object:
        total = sum(procs.tolist(), 0)
        return total <= MAX_COLUMNAR_M
    approx = float(np.sum(procs.astype(np.float64)))
    if approx <= float(MAX_EXACT_FLOAT_M):
        return True  # exact float arithmetic: the true total is under 2**53
    # the float sum is a rounded estimate — decide on the exact integer total
    return sum(procs.tolist(), 0) <= MAX_COLUMNAR_M


def index_array(values: Sequence[int]) -> np.ndarray:
    """Machine-index/processor-count column as int64 when it fits, else as an
    object-dtype array of Python ints (exact at any magnitude)."""
    try:
        return np.asarray(values, dtype=np.int64)
    except (OverflowError, TypeError):
        return np.array([int(v) for v in values], dtype=object)


def exact_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a + b`` for non-negative index/count columns: int64 while every sum
    fits, else exact Python ints (two int64 columns can each fit while their
    sum passes 2^63 and wraps negative)."""
    total = a + b
    if total.dtype == np.int64 and (total < a).any():
        return a.astype(object) + b.astype(object)
    return total
