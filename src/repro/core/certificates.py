"""NP-membership certificates (Theorem 1, first half).

The paper's NP-membership argument: a schedule of makespan at most ``d`` can
be certified by (a) the number of processors allotted to each job and (b) the
order in which the jobs start; list scheduling the jobs in that order with
those allotments reproduces a schedule of makespan at most ``d``.

This module implements exactly that certificate: :func:`verify_certificate`
replays the certificate deterministically and checks the makespan, and
:func:`extract_certificate` produces a certificate from any feasible schedule
(so certifying and re-verifying a schedule produced by the approximation
algorithms is a built-in regression check — note that replaying uses *greedy*
list scheduling, so the replayed makespan can only be certified not to exceed
the original one when the original schedule is itself list-generated; for
arbitrary schedules the verifier answers the decision question "is there a
schedule of makespan at most d with these allotments and this order").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .allotment import Allotment
from .job import MoldableJob
from .list_scheduling import list_schedule
from .schedule import Schedule

__all__ = ["Certificate", "extract_certificate", "replay_certificate", "verify_certificate"]


@dataclass(frozen=True)
class Certificate:
    """An NP certificate for "the jobs can be scheduled with makespan <= d".

    ``allotment[i]`` is the processor count of ``jobs[i]`` and ``order`` lists
    job indices by non-decreasing start time.  The encoding length is
    ``n (log m + log n)`` bits, as counted in the paper's proof.
    """

    allotment: Tuple[int, ...]
    order: Tuple[int, ...]

    def encoded_bits(self, m: int) -> int:
        """Length of the certificate in bits (the quantity the proof counts)."""
        import math

        n = len(self.allotment)
        if n == 0:
            return 0
        return n * (max(1, math.ceil(math.log2(max(m, 2)))) + max(1, math.ceil(math.log2(max(n, 2)))))


def extract_certificate(schedule: Schedule, jobs: Sequence[MoldableJob]) -> Certificate:
    """Read a certificate (allotments + start order) off a schedule.

    Reads the schedule's flat columns (processor counts, start times)
    directly; entry objects are never materialised.
    """
    index_of = {id(job): i for i, job in enumerate(jobs)}
    allotment: List[int] = [1] * len(jobs)
    starts: List[Tuple[float, int]] = []
    cols = schedule.columns()
    for job, processors, start in zip(schedule.jobs(), cols.processors.tolist(), cols.start.tolist()):
        idx = index_of.get(id(job))
        if idx is None:
            raise ValueError(f"schedule contains a job not in the instance: {job.name!r}")
        allotment[idx] = processors
        starts.append((start, idx))
    starts.sort()
    return Certificate(allotment=tuple(allotment), order=tuple(idx for _, idx in starts))


def replay_certificate(jobs: Sequence[MoldableJob], m: int, certificate: Certificate) -> Schedule:
    """Deterministically rebuild a schedule from a certificate (list scheduling
    the jobs in certificate order with the certified allotments)."""
    if len(certificate.allotment) != len(jobs):
        raise ValueError("certificate allotment length does not match the number of jobs")
    if sorted(certificate.order) != list(range(len(jobs))):
        raise ValueError("certificate order must be a permutation of the job indices")
    allot = Allotment({job: count for job, count in zip(jobs, certificate.allotment)})
    order = [jobs[i] for i in certificate.order]
    return list_schedule(list(jobs), allot, m, order=order)


def verify_certificate(
    jobs: Sequence[MoldableJob],
    m: int,
    d: float,
    certificate: Certificate,
) -> Tuple[bool, Schedule]:
    """Verify a certificate for the decision problem "makespan <= d?".

    Returns ``(accepted, replayed_schedule)``; the verification itself runs in
    polynomial time (list scheduling), as required for NP membership.
    """
    schedule = replay_certificate(jobs, m, certificate)
    return schedule.makespan <= d * (1 + 1e-9), schedule
