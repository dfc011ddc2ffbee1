"""Allotments and the canonical processor count :func:`gamma`.

An *allotment* fixes, for every job, the number of processors it will use.
The paper's algorithms repeatedly need the *canonical* allotment for a time
threshold ``t``::

    gamma_j(t) = min { p in [m] : t_j(p) <= t }

i.e. the least number of processors on which job ``j`` finishes within ``t``.
Because processing times are non-increasing, ``gamma_j(t)`` is found by binary
search in ``O(log m)`` oracle calls (the key to running times polylogarithmic
in ``m``).

:func:`gamma_batch` computes the γ-values of *all* jobs at once by running the
``n`` binary searches in lockstep on NumPy arrays — one vectorized oracle
evaluation per bisection level, ``O(log m)`` array operations total instead of
``n log m`` Python calls (see :mod:`repro.perf.oracle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence

from .backend import check_oracle
from .job import MoldableJob

__all__ = ["gamma", "gamma_batch", "Allotment", "canonical_allotment"]


def gamma(job: MoldableJob, threshold: float, m: int, *, _bracket=None) -> Optional[int]:
    """Return ``gamma_j(threshold)`` or ``None`` if even ``m`` processors are
    not enough (``t_j(m) > threshold``).

    Parameters
    ----------
    job:
        The moldable job (non-increasing processing times assumed).
    threshold:
        Target processing time ``t``.
    m:
        Number of available machines.

    Raises ``ValueError`` for a NaN ``threshold``.

    ``_bracket`` is internal to the executors: a pair ``(lo, hi)`` with
    ``lo <= gamma_j(threshold) <= hi``, where ``hi = m + 1`` stands for
    "possibly infeasible" (:class:`repro.perf.oracle.ScalarOracle` reads it
    off the γ-values of neighbouring thresholds).  Omitted, the bracket is
    ``(1, m + 1)``: the cold search of ``O(log m)`` oracle calls.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not threshold > 0:
        if threshold != threshold:
            raise ValueError("gamma threshold must be a number, got NaN")
        return None
    lo, hi = (1, m + 1) if _bracket is None else _bracket
    if hi > m:
        if job.processing_time(m) > threshold:
            return None
        hi = m
    if job.processing_time(lo) <= threshold:
        return lo
    while hi - lo > 1:  # t(lo) > threshold, t(hi) <= threshold
        mid = (lo + hi) // 2
        if job.processing_time(mid) <= threshold:
            hi = mid
        else:
            lo = mid
    return hi


def gamma_batch(jobs: Sequence[MoldableJob], threshold: float, m: int, *, oracle=None):
    """``gamma_j(threshold)`` for every job, computed in lockstep on arrays.

    Returns an int64 NumPy array aligned with ``jobs``; entries equal to
    ``m + 1`` mark jobs for which even ``m`` processors are not enough (where
    :func:`gamma` returns ``None``).  Results are bit-for-bit identical to the
    scalar binary search.

    Parameters
    ----------
    oracle:
        An existing executor (:mod:`repro.perf.oracle`) for exactly ``(jobs,
        m)`` to reuse its per-threshold γ-cache (``ValueError`` otherwise); a
        transient :class:`~repro.perf.oracle.BatchedOracle` is built when
        omitted.
    """
    if oracle is None:
        from ..perf.oracle import BatchedOracle

        oracle = BatchedOracle(jobs, m)
    else:
        check_oracle(oracle, jobs, m)
    return oracle.gamma_array(threshold)


def canonical_allotment(jobs: Iterable[MoldableJob], threshold: float, m: int) -> Optional["Allotment"]:
    """Build the canonical allotment ``a_j = gamma_j(threshold)`` for all jobs.

    Returns ``None`` if any job cannot meet the threshold even on all ``m``
    machines.
    """
    counts: Dict[MoldableJob, int] = {}
    for job in jobs:
        g = gamma(job, threshold, m)
        if g is None:
            return None
        counts[job] = g
    return Allotment(counts)


def _positive_count(job: MoldableJob, k) -> int:
    """``k`` as an ``int``, or ``ValueError`` unless it is a positive integer."""
    if k < 1 or k != int(k):
        raise ValueError(f"allotment for job {job.name!r} must be a positive integer, got {k!r}")
    return int(k)


@dataclass
class Allotment:
    """A mapping from jobs to processor counts.

    The class is a thin, validated wrapper around a ``dict`` with convenience
    aggregates used throughout the algorithms (total work, total processors,
    longest processing time).
    """

    counts: Dict[MoldableJob, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for job, k in self.counts.items():
            self.counts[job] = _positive_count(job, k)

    # -------------------------------------------------------------- mapping
    def __getitem__(self, job: MoldableJob) -> int:
        return self.counts[job]

    def __setitem__(self, job: MoldableJob, k: int) -> None:
        self.counts[job] = _positive_count(job, k)

    def __contains__(self, job: MoldableJob) -> bool:
        return job in self.counts

    def __iter__(self) -> Iterator[MoldableJob]:
        return iter(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def items(self):
        return self.counts.items()

    def get(self, job: MoldableJob, default: Optional[int] = None) -> Optional[int]:
        return self.counts.get(job, default)

    def copy(self) -> "Allotment":
        return Allotment(dict(self.counts))

    # ----------------------------------------------------------- aggregates
    def total_processors(self) -> int:
        """``sum_j a_j`` — processors needed to run all jobs simultaneously."""
        return sum(self.counts.values())

    def total_work(self) -> float:
        """``sum_j w_j(a_j)``."""
        return sum(job.work(k) for job, k in self.counts.items())

    def max_time(self) -> float:
        """``max_j t_j(a_j)``."""
        return max((job.processing_time(k) for job, k in self.counts.items()), default=0.0)

    def average_load(self, m: int) -> float:
        """``total_work / m`` — the area lower bound induced by this allotment."""
        if m < 1:
            raise ValueError("m must be >= 1")
        return self.total_work() / m

    @classmethod
    def from_mapping(cls, mapping: Mapping[MoldableJob, int]) -> "Allotment":
        return cls(dict(mapping))

    @classmethod
    def from_trusted_counts(cls, counts: Dict[MoldableJob, int]) -> "Allotment":
        """Wrap an already-validated ``{job: processors}`` dict without the
        per-entry re-validation loop (perf hook for the vectorized paths,
        whose γ-arrays are positive integers by construction)."""
        allot = cls.__new__(cls)
        allot.counts = counts
        return allot
