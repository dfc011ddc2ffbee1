"""Flat-array job state for cross-job vectorized oracle evaluation.

:class:`JobArrayBundle` partitions a job list into groups by *exact* job
class and stores each group's model parameters in flat NumPy arrays.  The
central operation is :meth:`JobArrayBundle.eval_at`: given an array of job
indices and an equally long array of processor counts, return the processing
times ``t_{j_i}(k_i)`` with one vectorized kernel invocation per job class —
no per-job Python call for the closed-form models.

The kernels replicate the scalar ``MoldableJob._time`` formulas operation by
operation so that results are bit-for-bit identical to
``MoldableJob.processing_time`` (see the parity tests in
``tests/perf/test_parity.py``).  Jobs of unknown subclasses — and
:class:`~repro.core.job.OracleJob`, whose oracle is an arbitrary callable —
land in a fallback group that loops over the scalar (memoised) oracle.

Processor counts reach every group as the caller's exact integers: the
closed-form kernels upcast them to float64 themselves, while the fallback,
rigid and hook groups compare and call with the exact count wherever a
float64 would round it (past 2^53).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.job import (
    MONOTONE_CLASSES,
    AmdahlJob,
    CommunicationJob,
    MoldableJob,
    OracleJob,
    PowerLawJob,
    RigidJob,
    TabulatedJob,
)

__all__ = ["JobArrayBundle"]


class _Group:
    """One job-class group: parameter arrays plus the vectorized kernel.

    Closed-form classes add ``guess(pos, thr)``: the real ``k`` with
    ``t_j(k) = thr`` (NaN if none; the caller silences float warnings),
    which the warm γ-search of :mod:`repro.perf.oracle` probes first."""

    __slots__ = ("jobs",)

    def __init__(self) -> None:
        self.jobs: List[MoldableJob] = []

    def finalize(self) -> None:  # pragma: no cover - overridden
        pass

    def eval(self, pos: np.ndarray, ks: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class _AmdahlGroup(_Group):
    __slots__ = ("t1", "f")

    def finalize(self) -> None:
        self.t1 = np.array([j.t1 for j in self.jobs], dtype=np.float64)
        self.f = np.array([j.serial_fraction for j in self.jobs], dtype=np.float64)

    def eval(self, pos: np.ndarray, ks: np.ndarray) -> np.ndarray:
        f = self.f[pos]
        return self.t1[pos] * (f + (1.0 - f) / ks)

    def guess(self, pos: np.ndarray, thr: np.ndarray) -> np.ndarray:
        # t(k) = thr  <=>  k = (1-f) / (thr/t1 - f); none when thr/t1 <= f
        f = self.f[pos]
        d = thr / self.t1[pos] - f
        return np.where(d > 0.0, (1.0 - f) / d, np.nan)


class _PowerLawGroup(_Group):
    __slots__ = ("t1", "alpha")

    def finalize(self) -> None:
        self.t1 = np.array([j.t1 for j in self.jobs], dtype=np.float64)
        self.alpha = np.array([j.alpha for j in self.jobs], dtype=np.float64)

    def eval(self, pos: np.ndarray, ks: np.ndarray) -> np.ndarray:
        # float_power (libm pow) matches CPython's ``**`` bit for bit;
        # numpy's SIMD ``power`` may be one ulp off.
        return self.t1[pos] / np.float_power(ks, self.alpha[pos])

    def guess(self, pos: np.ndarray, thr: np.ndarray) -> np.ndarray:
        # t(k) = thr  <=>  k = (t1/thr)^(1/alpha); none for alpha = 0
        alpha = self.alpha[pos]
        return np.where(alpha > 0.0, np.power(self.t1[pos] / thr, 1.0 / alpha), np.nan)


class _CommunicationGroup(_Group):
    __slots__ = ("t1", "overhead", "k_star")

    def finalize(self) -> None:
        self.t1 = np.array([j.t1 for j in self.jobs], dtype=np.float64)
        self.overhead = np.array([j.overhead for j in self.jobs], dtype=np.float64)
        # k_star is None exactly when overhead == 0, in which case the
        # overhead term is exactly zero and min(k, inf) == k.  A k_star past
        # int64 lies above every count the kernels see, so it is inf too.
        self.k_star = np.array(
            [np.inf if j.k_star is None or j.k_star > 2**63 else float(j.k_star) for j in self.jobs],
            dtype=np.float64,
        )

    def eval(self, pos: np.ndarray, ks: np.ndarray) -> np.ndarray:
        k_eff = np.minimum(ks, self.k_star[pos])
        return self.t1[pos] / k_eff + self.overhead[pos] * (k_eff - 1)

    def guess(self, pos: np.ndarray, thr: np.ndarray) -> np.ndarray:
        # t(k) = thr  <=>  c k^2 - (thr + c) k + t1 = 0; the smaller root in
        # the cancellation-free form 2 t1 / (b + sqrt(b^2 - 4 c t1)), which
        # is t1/thr for c = 0 and NaN when there is no real root
        t1 = self.t1[pos]
        c = self.overhead[pos]
        b = thr + c
        return 2.0 * t1 / (b + np.sqrt(b * b - 4.0 * c * t1))


class _TabulatedGroup(_Group):
    __slots__ = ("flat", "offsets", "lengths")

    def finalize(self) -> None:
        tables = [np.asarray(j.times, dtype=np.float64) for j in self.jobs]
        self.flat = np.concatenate(tables) if tables else np.empty(0, dtype=np.float64)
        self.lengths = np.array([len(t) for t in tables], dtype=np.int64)
        self.offsets = np.zeros(len(tables), dtype=np.int64)
        if len(tables) > 1:
            np.cumsum(self.lengths[:-1], out=self.offsets[1:])

    def eval(self, pos: np.ndarray, ks: np.ndarray) -> np.ndarray:
        lengths = self.lengths[pos]
        # clamp in float space *before* the int64 cast: a float64 k >= 2**63
        # overflows ``astype(np.int64)`` into a negative table index
        idx = np.minimum(ks, lengths.astype(np.float64)).astype(np.int64) - 1
        return self.flat[self.offsets[pos] + idx]


class _RigidGroup(_Group):
    __slots__ = ("size", "duration", "penalty")

    def finalize(self) -> None:
        # exact int64 sizes, compared with exact counts: a float64 size or
        # count rounds past 2^53.  A size past int64 exceeds every count the
        # batched oracle sees (m <= 2^62), so clamping it keeps every answer.
        cap = np.iinfo(np.int64).max
        self.size = np.array([min(j.size, cap) for j in self.jobs], dtype=np.int64)
        self.duration = np.array([j.duration for j in self.jobs], dtype=np.float64)
        self.penalty = np.array([j.penalty for j in self.jobs], dtype=np.float64)

    def eval(self, pos: np.ndarray, ks: np.ndarray) -> np.ndarray:
        return np.where(ks >= self.size[pos], self.duration[pos], self.penalty[pos])


class _FallbackGroup(_Group):
    """Jobs without a cross-job closed form: loop over the scalar oracle."""

    __slots__ = ()

    def eval(self, pos: np.ndarray, ks: np.ndarray) -> np.ndarray:
        jobs = self.jobs
        return np.array(
            [jobs[p].processing_time(int(k)) for p, k in zip(pos, ks)],
            dtype=np.float64,
        )


class _OracleHookGroup(_Group):
    """:class:`OracleJob` instances carrying a user-supplied
    ``times_vectorized`` callable: one batched call per *job* present in the
    query (each job has its own callable, but all its processor counts go
    through in a single array) instead of one Python call per ``(job, k)``
    pair."""

    __slots__ = ()

    def eval(self, pos: np.ndarray, ks: np.ndarray) -> np.ndarray:
        out = np.empty(len(pos), dtype=np.float64)
        order = np.argsort(pos, kind="stable")
        sorted_pos = pos[order]
        sorted_ks = ks[order]
        breaks = np.flatnonzero(sorted_pos[1:] != sorted_pos[:-1]) + 1
        starts = np.concatenate(([0], breaks))
        stops = np.concatenate((breaks, [len(sorted_pos)]))
        jobs = self.jobs
        for a, b in zip(starts.tolist(), stops.tolist()):
            # OracleJob._times_batch: the float64 hook call, exact past 2^53
            out[order[a:b]] = jobs[sorted_pos[a]]._times_batch(sorted_ks[a:b])
        return out


#: Exact-type kernel registry.  ``type(job) is cls`` (not isinstance) so that
#: user subclasses with overridden ``_time`` safely fall back to the loop.
_GROUP_FOR_TYPE = {
    AmdahlJob: _AmdahlGroup,
    PowerLawJob: _PowerLawGroup,
    CommunicationJob: _CommunicationGroup,
    TabulatedJob: _TabulatedGroup,
    RigidJob: _RigidGroup,
}


#: the groups of the job classes monotone by construction
_MONOTONE_GROUPS = frozenset(_GROUP_FOR_TYPE[cls] for cls in MONOTONE_CLASSES)


def _group_class_for(job: MoldableJob) -> type:
    cls = _GROUP_FOR_TYPE.get(type(job))
    if cls is not None:
        return cls
    if type(job) is OracleJob and job.times_vectorized is not None:
        return _OracleHookGroup
    return _FallbackGroup


class JobArrayBundle:
    """Per-class flat parameter arrays over a fixed job list.

    Parameters
    ----------
    jobs:
        The instance's jobs; their order defines the job indices used by
        :meth:`eval_at` / :meth:`eval_all`.
    """

    def __init__(self, jobs: Sequence[MoldableJob]) -> None:
        self.jobs: List[MoldableJob] = list(jobs)
        n = len(self.jobs)
        # number the classes in first-seen order, then build each group from
        # its members' indices in one pass per class
        classes = list(map(_group_class_for, self.jobs))
        slot_of_type = {cls: slot for slot, cls in enumerate(dict.fromkeys(classes))}
        self.group_of = np.fromiter(map(slot_of_type.__getitem__, classes), dtype=np.int64, count=n)
        self.pos_in_group = np.empty(n, dtype=np.int64)
        groups: List[_Group] = []
        members = {}
        for slot, cls in enumerate(slot_of_type):
            idx = members[slot] = np.flatnonzero(self.group_of == slot)
            self.pos_in_group[idx] = np.arange(len(idx))
            group = cls()
            group.jobs = list(map(self.jobs.__getitem__, idx.tolist()))
            group.finalize()
            groups.append(group)
        self.groups = groups
        self._parts = self._partition(members)

    def _partition(self, members: Optional[dict] = None) -> list:
        """``(group, job indices, positions)`` per group present: the static
        partition that lets whole-instance evaluations skip the per-call
        masks of :meth:`eval_at` (and the kernels never see an empty group).
        ``members`` maps each group present to its job indices when the
        caller has them already."""
        if members is None:
            members = {gid: np.flatnonzero(self.group_of == gid) for gid in np.unique(self.group_of).tolist()}
        return [(self.groups[gid], idx, self.pos_in_group[idx]) for gid, idx in members.items()]

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def monotone(self) -> bool:
        """Whether every job is of a class in
        :data:`~repro.core.job.MONOTONE_CLASSES`, read from the groups, not
        per job."""
        return all(type(group) in _MONOTONE_GROUPS for group in self.groups)

    @property
    def vectorized_fraction(self) -> float:
        """Fraction of jobs served by a closed-form kernel (1.0 = no fallback)."""
        if not self.jobs:
            return 1.0
        fallback = sum(len(g.jobs) for g in self.groups if isinstance(g, _FallbackGroup))
        return 1.0 - fallback / len(self.jobs)

    def eval_at(self, job_idx: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """``t_{jobs[job_idx[i]]}(ks[i])`` for all ``i``, one kernel call per
        job-class group present among ``job_idx``."""
        job_idx = np.asarray(job_idx, dtype=np.int64)
        ks = np.asarray(ks)
        out = np.empty(len(job_idx), dtype=np.float64)
        if len(job_idx) == 0:
            return out
        gof = self.group_of[job_idx]
        for gid, group in enumerate(self.groups):
            mask = gof == gid
            if not mask.any():
                continue
            pos = self.pos_in_group[job_idx[mask]]
            out[mask] = group.eval(pos, ks[mask])
        return out

    def eval_all(self, ks) -> np.ndarray:
        """Processing times of *all* jobs at per-job counts ``ks`` (scalar or
        length-``n`` array).

        Uses the static group partition computed at construction, so a
        whole-instance evaluation is exactly one kernel call per job class
        with no per-call masking."""
        n = len(self.jobs)
        ks = np.broadcast_to(np.asarray(ks), (n,))
        out = np.empty(n, dtype=np.float64)
        for group, idx, pos in self._parts:
            out[idx] = group.eval(pos, ks[idx])
        return out
