"""Capacity policy: the single owner of every machine-count exactness decision.

The paper's headline is a running time polynomial in ``n`` and ``log m`` —
machine counts are *data*, never loop bounds — so ``m`` can be astronomically
large (``examples/compact_encoding_large_m.py`` runs at ``m = 2**80``).  The
columnar fast paths, however, keep processor counts, machine indices and their
prefix sums in NumPy arrays, and NumPy arithmetic is only exact within a
dtype-dependent range.  This module centralises those ranges and hands out the
matching *capacity ops* so no caller hardcodes an overflow guard again:

``int64`` tier (``capacity_tier`` → ``"int64"``)
    Plain ``np.int64`` columns.  Safe while every value **and every prefix
    sum** the consumer forms stays ``<= MAX_COLUMNAR_M = 2**62`` (one bit of
    headroom under the int64 limit, shared by all historical guards).

``wide`` tier (→ ``"wide"``)
    Split-limb pairs ``value = hi * 2**32 + lo`` with ``lo ∈ [0, 2**32)``,
    both int64 arrays (:class:`WideArray`).  Every operation the event-queue
    scheduler needs — cumulative sums with exact carry propagation,
    lexicographic comparisons, sorted merges, rank queries — vectorises over
    the limbs, so the batch paths run at full NumPy speed for totals up to
    ``MAX_WIDE_TOTAL = 2**93`` (sums of the low limbs stay exact for any
    ``n < 2**31`` elements, sums of the high limbs stay below ``2**62``
    plus at most ``n`` carries).

``object`` tier (→ ``"object"``)
    Object-dtype arrays of Python ints — arbitrary precision, still
    vectorised through NumPy's per-element dispatch.  The escape hatch for
    totals beyond ``2**93``.

Float casts are a separate, stricter boundary: float64 represents integers
exactly only up to ``MAX_EXACT_FLOAT_M = 2**53``.  Any code that funnels a
processor-count column through float64 (sum guards, oracle batch calls) must
check :func:`float_exact` / :func:`total_fits_int64` instead of assuming the
int64 range — trusting the 2**53..2**62 band was the overflow-boundary bug
this module exists to fix.

All three tiers expose the same ops surface (:class:`_DtypeOps` /
:class:`_WideOps`), so consumers write one batch algorithm and select the
ops object once per call via :func:`capacity_ops`.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

__all__ = [
    "MAX_EXACT_FLOAT_M",
    "MAX_COLUMNAR_M",
    "MAX_WIDE_TOTAL",
    "LIMB_BITS",
    "LIMB_MASK",
    "capacity_tier",
    "capacity_ops",
    "index_array",
    "exact_add",
    "float_exact",
    "total_fits_int64",
    "WideArray",
]

#: Largest integer float64 represents exactly (2**53); beyond it, casting a
#: processor count or capacity total to float silently rounds.
MAX_EXACT_FLOAT_M = 1 << 53

#: Largest machine count / capacity prefix sum the int64 columns may hold
#: (one bit of headroom under the int64 limit, as the historical guards had).
MAX_COLUMNAR_M = 1 << 62

#: Limb split of the wide tier: ``value = hi * 2**LIMB_BITS + lo``.
LIMB_BITS = 32
LIMB_MASK = (1 << LIMB_BITS) - 1

#: Largest value/prefix-sum the wide tier sums exactly: the high-limb cumsum
#: must stay under ``2**62`` after adding the low-limb carries (at most one
#: per element, ``n < 2**31``), so ``hi <= 2**61`` i.e. values ``<= 2**93``.
MAX_WIDE_TOTAL = 1 << 93


def capacity_tier(m: int, total_need: int = 0) -> str:
    """The columnar tier for machine count ``m`` and capacity total
    ``total_need`` (the largest prefix sum a consumer will form beyond the
    machine axis itself): ``"int64"``, ``"wide"`` or ``"object"``.

    The int64 boundary is the exact historical guard
    ``total_need <= MAX_COLUMNAR_M - m`` (prefix sums over needs and popped
    span capacities are bounded by ``total_need + m``).
    """
    m = int(m)
    total_need = int(total_need)
    if m <= MAX_COLUMNAR_M and total_need <= MAX_COLUMNAR_M - m:
        return "int64"
    if m <= MAX_WIDE_TOTAL and total_need <= MAX_WIDE_TOTAL - m:
        return "wide"
    return "object"


def float_exact(bound: int) -> bool:
    """Whether every integer in ``[0, bound]`` survives a float64 round-trip
    (i.e. float casts of capacity values bounded by ``bound`` are exact)."""
    return int(bound) <= MAX_EXACT_FLOAT_M


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


class WideArray:
    """Split-limb integer vector: ``value[i] = hi[i] * 2**LIMB_BITS + lo[i]``
    with canonical ``lo ∈ [0, 2**LIMB_BITS)``; both limbs int64."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        self.lo = lo
        self.hi = hi

    def __len__(self) -> int:
        return len(self.lo)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WideArray({_WideOps().tolist(self)!r})"


class _DtypeOps:
    """Capacity ops over a plain ndarray tier (int64 or object dtype).

    Object-dtype arrays hold Python ints: comparisons return bool arrays,
    ``np.cumsum``/``np.unique``/``np.searchsorted`` dispatch to the exact
    arbitrary-precision ``int`` operators, so the one batch algorithm written
    against this surface is exact on both tiers.
    """

    __slots__ = ("name", "dtype")

    def __init__(self, name: str, dtype) -> None:
        self.name = name
        self.dtype = dtype

    def asarray(self, values: Sequence[int]):
        return np.array(list(values), dtype=self.dtype)

    def take(self, a, idx: np.ndarray):
        return a[idx]

    def head(self, a, k):
        return a[:k]

    def cumsum(self, a):
        return np.cumsum(a)

    def le_mask(self, a, bound: int) -> np.ndarray:
        return a <= bound

    def count_le(self, sorted_a, bound: int) -> int:
        return int(np.searchsorted(sorted_a, bound, side="right"))

    def item(self, a, i: int) -> int:
        return int(a[i])

    def tolist(self, a) -> List[int]:
        return a.tolist()

    def merge_bounds(self, a, b):
        """Sorted unique union of two sorted vectors."""
        return np.unique(np.concatenate((a, b)))

    def cut_positions(self, sorted_a, sorted_b) -> np.ndarray:
        """``np.searchsorted(sorted_a, sorted_b, side="right")`` (int64)."""
        return np.searchsorted(sorted_a, sorted_b, side="right")

    def prepend_zero(self, a):
        return np.concatenate((np.zeros(1, dtype=a.dtype), a))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b


class _WideOps:
    """Capacity ops over :class:`WideArray` split-limb vectors.

    Exactness bounds (values/prefix sums ``<= MAX_WIDE_TOTAL``, ``n < 2**31``
    elements): low-limb sums stay under ``n * 2**32 < 2**63``; high-limb sums
    stay under ``2**61`` plus at most ``n`` carries — both inside int64.
    """

    __slots__ = ()
    name = "wide"

    def asarray(self, values: Sequence[int]) -> WideArray:
        vals = values if isinstance(values, list) else list(values)
        n = len(vals)
        lo = np.fromiter((int(v) & LIMB_MASK for v in vals), dtype=np.int64, count=n)
        hi = np.fromiter((int(v) >> LIMB_BITS for v in vals), dtype=np.int64, count=n)
        return WideArray(lo, hi)

    def take(self, a: WideArray, idx) -> WideArray:
        return WideArray(a.lo[idx], a.hi[idx])

    def head(self, a: WideArray, k) -> WideArray:
        return WideArray(a.lo[:k], a.hi[:k])

    def cumsum(self, a: WideArray) -> WideArray:
        cl = np.cumsum(a.lo)
        hi = np.cumsum(a.hi) + (cl >> LIMB_BITS)
        return WideArray(cl & LIMB_MASK, hi)

    def le_mask(self, a: WideArray, bound: int) -> np.ndarray:
        blo = bound & LIMB_MASK
        bhi = bound >> LIMB_BITS
        return (a.hi < bhi) | ((a.hi == bhi) & (a.lo <= blo))

    def count_le(self, sorted_a: WideArray, bound: int) -> int:
        # O(n) instead of O(log n), but every sorted vector queried here was
        # just produced by an O(n) cumsum — the mask does not change the
        # asymptotics of any caller.
        return int(np.count_nonzero(self.le_mask(sorted_a, bound)))

    def item(self, a: WideArray, i: int) -> int:
        return (int(a.hi[i]) << LIMB_BITS) | int(a.lo[i])

    def tolist(self, a: WideArray) -> List[int]:
        if not len(a):
            return []
        return (a.hi.astype(object) * (1 << LIMB_BITS) + a.lo.astype(object)).tolist()

    def merge_bounds(self, a: WideArray, b: WideArray) -> WideArray:
        lo = np.concatenate((a.lo, b.lo))
        hi = np.concatenate((a.hi, b.hi))
        order = np.lexsort((lo, hi))
        lo = lo[order]
        hi = hi[order]
        keep = np.empty(len(lo), dtype=bool)
        keep[:1] = True
        keep[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        return WideArray(lo[keep], hi[keep])

    def cut_positions(self, sorted_a: WideArray, sorted_b: WideArray) -> np.ndarray:
        # merge-rank searchsorted: one stable lexsort of both vectors with the
        # a-elements marked 0 (sorting *before* equal b-elements = side
        # "right"); the running count of a-elements at each b-position is the
        # rank.  b is sorted, so the stable sort keeps its original order and
        # no scatter back is needed.
        na = len(sorted_a)
        lo = np.concatenate((sorted_a.lo, sorted_b.lo))
        hi = np.concatenate((sorted_a.hi, sorted_b.hi))
        mark = np.zeros(len(lo), dtype=np.int64)
        mark[na:] = 1
        order = np.lexsort((mark, lo, hi))
        is_a = mark[order] == 0
        a_before = np.cumsum(is_a)
        return a_before[~is_a]

    def prepend_zero(self, a: WideArray) -> WideArray:
        zero = np.zeros(1, dtype=np.int64)
        return WideArray(np.concatenate((zero, a.lo)), np.concatenate((zero, a.hi)))

    def add(self, a: WideArray, b: WideArray) -> WideArray:
        lo = a.lo + b.lo
        return WideArray(lo & LIMB_MASK, a.hi + b.hi + (lo >> LIMB_BITS))

    def sub(self, a: WideArray, b: WideArray) -> WideArray:
        # elementwise a >= b (the only way the schedulers call it)
        lo = a.lo - b.lo
        borrow = (lo < 0).astype(np.int64)
        return WideArray(lo + (borrow << LIMB_BITS), a.hi - b.hi - borrow)


CapacityOps = Union[_DtypeOps, _WideOps]

INT64_OPS = _DtypeOps("int64", np.int64)
OBJECT_OPS = _DtypeOps("object", object)
WIDE_OPS = _WideOps()

_TIER_OPS = {"int64": INT64_OPS, "wide": WIDE_OPS, "object": OBJECT_OPS}


def capacity_ops(m: int, total_need: int = 0) -> CapacityOps:
    """The capacity-ops object for :func:`capacity_tier`'s choice."""
    return _TIER_OPS[capacity_tier(m, total_need)]
