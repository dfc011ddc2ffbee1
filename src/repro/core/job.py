"""Moldable job models.

A *moldable job* can be executed on an arbitrary number ``k`` of processors;
its processing time ``t_j(k)`` is accessed through an oracle (this module).
Throughout the library we follow the conventions of Jansen & Land (2018):

* processing times are non-increasing in ``k`` (more processors never hurt);
* a job is *monotone* if its work ``w_j(k) = k * t_j(k)`` is non-decreasing in
  ``k`` (parallelisation has an overhead).

All job classes in this module expose ``processing_time(k)`` as an O(1) oracle
so that instances with an astronomically large machine count ``m`` (compact
input encoding) can be handled in time polylogarithmic in ``m``.  Answers are
memoised per job: a processor count is validated on its first evaluation, and
every later call for it is one dict lookup.

For batched evaluation the classes additionally expose
:meth:`MoldableJob.times_for`, which maps a whole NumPy array of processor
counts to processing times in one vectorized pass.  The closed-form models
(:class:`AmdahlJob`, :class:`PowerLawJob`, :class:`CommunicationJob`,
:class:`TabulatedJob`, :class:`RigidJob`) implement it without any per-``k``
Python call; arbitrary :class:`OracleJob` callables fall back to a loop.  The
vectorized kernels are written so their float64 arithmetic is bit-for-bit
identical to the scalar ``processing_time`` path (same operations in the same
order — e.g. ``numpy.float_power`` instead of ``numpy.power``, which may
differ from CPython's ``**`` by one ulp).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Iterable, Sequence

import numpy as np

from .capacity import MAX_EXACT_FLOAT_M, index_array

__all__ = [
    "MoldableJob",
    "TabulatedJob",
    "OracleJob",
    "AmdahlJob",
    "PowerLawJob",
    "CommunicationJob",
    "RigidJob",
    "total_minimal_work",
    "max_sequential_time",
]


class MoldableJob(ABC):
    """Abstract moldable job.

    Subclasses implement :meth:`_time` returning the processing time on ``k``
    processors for ``k >= 1``.  The public entry point
    :meth:`processing_time` memoises oracle calls and validates ``k`` on the
    first evaluation of each count; a repeated ``t_j(k)`` is one dict lookup.
    :meth:`clear_memo` empties the memo.

    Parameters
    ----------
    name:
        Identifier used in schedules, reports and error messages.
    """

    __slots__ = ("name", "_cache", "_cache_evictions")

    #: Maximum number of memoised ``(k, t_j(k))`` pairs per job.  When the
    #: memo is full it behaves as an LRU: hits refresh the entry's recency and
    #: the least-recently-used entry is evicted, so hot anchors like
    #: ``t_j(1)``/``t_j(m)`` survive long sweeps.  (Below capacity, hits skip
    #: the bookkeeping — lookups stay a bare dict get.)  Evictions are counted
    #: in :attr:`memo_stats`.
    MEMO_CAPACITY = 4096

    def __init__(self, name: str) -> None:
        self.name = str(name)
        self._cache: dict[int, float] = {}
        self._cache_evictions: int = 0

    # ------------------------------------------------------------------ API
    @abstractmethod
    def _time(self, k: int) -> float:
        """Return the processing time on ``k >= 1`` processors."""

    def processing_time(self, k: int) -> float:
        """Processing time ``t_j(k)`` on ``k`` processors.

        A memo hit is one dict lookup.  ``k`` is validated and normalised to
        an ``int`` only on a miss, before the oracle runs: the memo holds
        only ints ``>= 1``, so any ``k`` that hashes and compares equal to a
        key (an int, bool, NumPy integer or integral float) is itself a valid
        count.

        Raises
        ------
        ValueError
            If ``k`` is not a positive integer or the oracle returns a
            non-positive / non-finite value.
        """
        cache = self._cache
        try:
            cached = cache.get(k)
        except TypeError:  # unhashable, so not a processor count
            cached = None
        if cached is not None:
            if len(cache) >= self.MEMO_CAPACITY:
                # LRU refresh (dicts preserve insertion order, so delete +
                # re-insert moves the entry to the newest position); skipped
                # below capacity where eviction can never bite.  Re-insert
                # under the int key, not an equal float or NumPy scalar.
                del cache[k]
                cache[int(k)] = cached
            return cached
        try:
            count = int(k)
            valid = count == k and count >= 1
        except (TypeError, ValueError, OverflowError):  # None, inf, NaN, "x", ...
            valid = False
        if not valid:
            raise ValueError(f"processor count must be a positive integer, got {k!r}")
        k = count
        value = float(self._time(k))
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(
                f"job {self.name!r}: oracle returned invalid processing time {value!r} for k={k}"
            )
        if len(cache) >= self.MEMO_CAPACITY:
            # Evict the least-recently-used entry instead of silently refusing
            # to memoise new counts forever.
            del cache[next(iter(cache))]
            self._cache_evictions += 1
        cache[k] = value
        return value

    def clear_memo(self) -> None:
        """Forget every memoised ``t_j(k)`` and reset the eviction count, so
        the next evaluations start cold (e.g. between timed runs)."""
        self._cache.clear()
        self._cache_evictions = 0

    def memo_stats(self) -> dict:
        """Instrumentation for the oracle memo: current size, capacity and the
        number of evictions performed so far."""
        return {
            "size": len(self._cache),
            "capacity": self.MEMO_CAPACITY,
            "evictions": self._cache_evictions,
        }

    # ------------------------------------------------------------ batched API
    def times_for(self, ks) -> np.ndarray:
        """Processing times ``t_j(k)`` for a whole array of processor counts.

        This is the batched counterpart of :meth:`processing_time`: one call
        evaluates the oracle for every entry of ``ks`` (a sequence or ndarray
        of positive integers) and returns a float64 array of the same length.
        Closed-form job models answer without any per-``k`` Python call, and
        the results are bit-for-bit identical to the scalar path.

        The counts go through this job's kernel of
        :class:`repro.perf.arrays.JobArrayBundle`, the one every vectorized
        driver uses.  Unlike :meth:`processing_time`, values are not memoised
        (callers batch precisely to avoid per-``k`` bookkeeping) and
        closed-form kernels skip the per-value finiteness check — their
        constructor validation already guarantees positive finite times.  The
        exception is an object array (how counts past int64 arrive): each
        entry is answered by :meth:`processing_time` as the exact Python int
        it is.
        """
        from ..perf.arrays import JobArrayBundle  # lazy: repro.perf imports this module

        arr = np.asarray(ks)
        if arr.ndim != 1:
            raise ValueError(f"ks must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            return np.empty(0, dtype=np.float64)
        if arr.dtype != object and not np.issubdtype(arr.dtype, np.integer):
            if not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
                raise ValueError("processor counts must be positive integers")
            # integral floats as exact ints: int64, or Python ints past it
            arr = index_array([int(k) for k in arr.tolist()])
        if arr.dtype == object:
            # a float64 copy would round counts past 2^53 to another count
            return np.array([self.processing_time(k) for k in arr.tolist()], dtype=np.float64)
        if np.any(arr < 1):
            raise ValueError("processor counts must be positive integers")
        return JobArrayBundle([self]).eval_at(np.zeros(len(arr), dtype=np.int64), arr)

    def work(self, k: int) -> float:
        """Work ``w_j(k) = k * t_j(k)``."""
        return k * self.processing_time(k)

    def speedup(self, k: int) -> float:
        """Speedup ``s_j(k) = t_j(1) / t_j(k)``."""
        return self.processing_time(1) / self.processing_time(k)

    def efficiency(self, k: int) -> float:
        """Parallel efficiency ``s_j(k) / k`` (equals ``w_j(1)/w_j(k)``)."""
        return self.speedup(k) / k

    # --------------------------------------------------------------- dunder
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


class TabulatedJob(MoldableJob):
    """Job defined by an explicit table of processing times.

    ``times[k-1]`` is the processing time on ``k`` processors.  For processor
    counts beyond the table the last entry is used (the job stops speeding
    up), which preserves non-increasing processing times and non-decreasing
    work.

    This is the "classical" (non-compact) encoding used by most prior work,
    where the input explicitly lists ``t_j(1), ..., t_j(m)``.
    """

    __slots__ = ("times",)

    def __init__(self, name: str, times: Sequence[float]) -> None:
        super().__init__(name)
        if len(times) == 0:
            raise ValueError("times table must be non-empty")
        self.times = tuple(float(t) for t in times)
        if any(t <= 0 or not math.isfinite(t) for t in self.times):
            raise ValueError(f"job {name!r}: all tabulated times must be positive and finite")

    def _time(self, k: int) -> float:
        if k <= len(self.times):
            return self.times[k - 1]
        return self.times[-1]


class OracleJob(MoldableJob):
    """Job whose processing time is given by an arbitrary callable.

    This is the compact-encoding model of the paper: ``t_j(k)`` is computed on
    demand in O(1), so ``m`` only enters running times through ``log m``.

    Parameters
    ----------
    name:
        Job identifier.
    func:
        The scalar oracle ``k -> t_j(k)``.
    times_vectorized:
        Optional batched oracle: receives a float64 NumPy array of processor
        counts and returns the corresponding processing times as an array of
        the same length.  When supplied, the vectorized layer
        (:meth:`MoldableJob.times_for`, :class:`repro.perf.arrays.JobArrayBundle`
        and therefore every ``backend="vectorized"`` driver) calls it instead
        of looping over ``func`` — the user promises it is *bit-for-bit*
        consistent with ``func`` (same float operations in the same order),
        exactly like the built-in closed-form kernels.
    """

    __slots__ = ("func", "times_vectorized")

    def __init__(
        self,
        name: str,
        func: Callable[[int], float],
        times_vectorized: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        super().__init__(name)
        self.func = func
        self.times_vectorized = times_vectorized

    def _time(self, k: int) -> float:
        return self.func(k)

    def _times_batch(self, ks: np.ndarray) -> np.ndarray:
        """``times_vectorized`` at exact counts ``ks`` (the hook group of
        :mod:`repro.perf.arrays` calls this)."""
        out = np.array(self.times_vectorized(np.asarray(ks, dtype=np.float64)), dtype=np.float64)
        # the hook takes float64 counts, which round past 2^53: ask func there
        for i in np.flatnonzero(ks > MAX_EXACT_FLOAT_M).tolist():
            out[i] = self.processing_time(int(ks[i]))
        return out


def _check_positive_finite(name: str, value: float) -> None:
    """Reject a model parameter that is not a positive finite number (NaN
    passes a bare ``value <= 0`` test)."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


class AmdahlJob(MoldableJob):
    """Amdahl's-law job: ``t(k) = t1 * (f + (1-f)/k)``.

    ``f`` is the sequential fraction.  The speedup ``1/(f + (1-f)/k)`` is
    concave, hence the job is monotone (concavity implies monotony, see the
    paper's footnote 2).
    """

    __slots__ = ("t1", "serial_fraction")

    def __init__(self, name: str, t1: float, serial_fraction: float) -> None:
        super().__init__(name)
        _check_positive_finite("t1", t1)
        if not 0.0 <= serial_fraction <= 1.0:
            raise ValueError("serial_fraction must lie in [0, 1]")
        self.t1 = float(t1)
        self.serial_fraction = float(serial_fraction)

    def _time(self, k: int) -> float:
        f = self.serial_fraction
        return self.t1 * (f + (1.0 - f) / k)


class PowerLawJob(MoldableJob):
    """Power-law job: ``t(k) = t1 / k**alpha`` with ``0 <= alpha <= 1``.

    ``alpha = 1`` gives perfect (linear) speedup, ``alpha = 0`` a sequential
    job.  The work ``k**(1-alpha) * t1`` is non-decreasing, so the job is
    monotone.
    """

    __slots__ = ("t1", "alpha")

    def __init__(self, name: str, t1: float, alpha: float) -> None:
        super().__init__(name)
        _check_positive_finite("t1", t1)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        self.t1 = float(t1)
        self.alpha = float(alpha)

    def _time(self, k: int) -> float:
        return self.t1 / (k ** self.alpha)


class CommunicationJob(MoldableJob):
    """Job with per-processor communication overhead.

    The raw model ``t1/k + c*(k-1)`` eventually slows down when adding
    processors, which would violate the non-increasing-time convention.  We
    therefore cap the useful parallelism at ``k* = argmin_k t1/k + c*(k-1)``
    and keep the processing time constant beyond ``k*``:

    * for ``k <= k*``: ``t(k) = t1/k + c*(k-1)`` (non-increasing by choice of
      ``k*``), work ``t1 + c*k*(k-1)`` (non-decreasing);
    * for ``k > k*``: ``t(k) = t(k*)`` (constant), work grows linearly.

    Both regimes give a monotone moldable job.
    """

    __slots__ = ("t1", "overhead", "k_star")

    def __init__(self, name: str, t1: float, overhead: float) -> None:
        super().__init__(name)
        _check_positive_finite("t1", t1)
        if not math.isfinite(overhead) or overhead < 0:
            raise ValueError(f"overhead must be non-negative and finite, got {overhead!r}")
        self.t1 = float(t1)
        self.overhead = float(overhead)
        if overhead == 0:
            self.k_star = None  # unbounded perfect scaling of the 1/k term
        else:
            # t(k) decreasing as long as t1/(k(k+1)) >= c  <=>  k(k+1) <= t1/c
            k = int(math.floor((math.sqrt(1.0 + 4.0 * t1 / overhead) - 1.0) / 2.0))
            self.k_star = max(1, k)

    def _raw(self, k: int) -> float:
        return self.t1 / k + self.overhead * (k - 1)

    def _time(self, k: int) -> float:
        if self.k_star is None:
            return self.t1 / k
        k_eff = min(k, self.k_star)
        return self._raw(k_eff)


class RigidJob(MoldableJob):
    """A "rigid" parallel job disguised as a moldable one.

    The job needs at least ``size`` processors; on fewer processors its
    processing time is a large penalty value (it does not fit).  On ``size``
    or more processors the time is constant.  These jobs are **not** monotone
    (their work jumps down at ``k = size``); they model the reduction from
    scheduling parallel jobs mentioned in the paper's introduction and are
    used to exercise the non-monotone code paths and validation logic.
    """

    __slots__ = ("duration", "size", "penalty")

    def __init__(self, name: str, duration: float, size: int, penalty: float | None = None) -> None:
        super().__init__(name)
        _check_positive_finite("duration", duration)
        if size < 1:
            raise ValueError("size must be >= 1")
        self.duration = float(duration)
        self.size = int(size)
        self.penalty = float(penalty) if penalty is not None else duration * 1e6
        if not math.isfinite(self.penalty):
            raise ValueError(f"penalty must be finite, got {self.penalty!r}")

    def _time(self, k: int) -> float:
        if k >= self.size:
            return self.duration
        return self.penalty


# --------------------------------------------------------------------------
# Aggregate helpers
# --------------------------------------------------------------------------

def total_minimal_work(jobs: Iterable[MoldableJob]) -> float:
    """Sum of the single-processor works ``sum_j w_j(1) = sum_j t_j(1)``.

    For monotone jobs this is the minimum possible total work of any schedule
    and hence ``total_minimal_work(jobs) / m`` is a valid makespan lower
    bound.
    """
    return sum(job.processing_time(1) for job in jobs)


def max_sequential_time(jobs: Iterable[MoldableJob], m: int) -> float:
    """``max_j t_j(m)``: the largest processing time when every job gets all
    ``m`` machines.  A valid makespan lower bound for any schedule."""
    return max((job.processing_time(m) for job in jobs), default=0.0)
