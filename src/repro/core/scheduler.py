"""Top-level scheduling facade.

:func:`schedule_moldable` is the single entry point most users need: pick an
algorithm (or let ``"auto"`` pick one), get back a feasible schedule together
with a certified lower bound on the optimum and the implied ratio.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

from .bounded_algorithm import bounded_schedule
from .bounds import makespan_lower_bound
from .compressible_algorithm import compressible_schedule
from .exact_small import exact_schedule, exact_solver_applicable
from .fptas import fptas_machine_threshold, fptas_schedule, ptas_schedule
from .job import MoldableJob
from .mrt import mrt_schedule
from .schedule import Schedule
from .two_approx import two_approximation
from .validation import assert_valid_schedule

__all__ = [
    "ALGORITHMS",
    "SchedulingResult",
    "auto_algorithm",
    "check_distinct_jobs",
    "check_machine_count",
    "driver_result",
    "schedule_moldable",
]

ALGORITHMS = (
    "auto",
    "two_approx",
    "mrt",
    "compressible",
    "bounded",
    "bounded_linear",
    "fptas",
    "ptas",
    "exact",
)


@dataclass
class SchedulingResult:
    """Schedule plus certification data."""

    schedule: Schedule
    algorithm: str
    eps: float
    lower_bound: float
    guarantee: Optional[float]

    @property
    def makespan(self) -> float:
        return self.schedule.makespan

    @property
    def certified_ratio(self) -> float:
        """Upper bound on makespan / OPT obtained from the lower bound.

        This is a *pessimistic* figure (the true ratio is usually better); it
        is the quantity reported in the quality experiments.
        """
        if self.lower_bound <= 0:
            return 1.0
        return self.makespan / self.lower_bound

    @property
    def backend(self) -> Optional[str]:
        """The backend the driver actually ran (``None`` when no driver ran:
        empty instances and ``"exact"``)."""
        return self.schedule.metadata.get("backend")


def check_machine_count(m) -> None:
    """Reject a machine count that is not a positive integer.

    ``bool`` is refused although it subclasses ``int`` (``m=True`` would
    silently solve on one machine), and so is every non-integral type
    (``m=2.5`` would solve a different instance); NumPy integers pass.
    """
    if isinstance(m, bool) or not isinstance(m, numbers.Integral):
        raise ValueError(f"m must be an integer, got {m!r}")
    if m < 1:
        raise ValueError("m must be >= 1")


def check_distinct_jobs(jobs: Sequence[MoldableJob]) -> None:
    """Reject a job list that holds one job object more than once.

    The drivers index jobs by identity and by position, so a repeated object
    would otherwise be scheduled once and silently dropped the second time.
    """
    if len({id(job) for job in jobs}) != len(jobs):
        raise ValueError("the same job object was submitted twice")


def auto_algorithm(n: int, m: int, eps: float) -> str:
    """The driver ``algorithm="auto"`` runs: the FPTAS when ``m >= 8n/eps``
    (Theorem 2), otherwise the bounded-knapsack algorithm (Theorem 3)."""
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    return "fptas" if m >= fptas_machine_threshold(n, eps) else "bounded"


def schedule_moldable(
    jobs: Sequence[MoldableJob],
    m: int,
    eps: float = 0.1,
    *,
    algorithm: str = "auto",
    validate: bool = True,
    backend: str = "auto",
    oracle=None,
) -> SchedulingResult:
    """Schedule monotone moldable jobs on ``m`` machines.

    Parameters
    ----------
    jobs:
        The moldable jobs (monotone work functions assumed; use
        :func:`repro.core.validation.check_monotone_job` to verify instances).
    m:
        Number of identical machines: a positive integer (``bool`` and
        non-integral values raise ``ValueError``; NumPy integers are fine).
    eps:
        Accuracy parameter of the chosen algorithm.
    algorithm:
        One of :data:`ALGORITHMS`:

        ``"auto"``
            FPTAS when ``m >= 8n/eps`` (Theorem 2), otherwise the
            bounded-knapsack `(3/2+eps)` algorithm (Theorem 3).
        ``"two_approx"``
            Ludwig–Tiwari estimator + list scheduling (ratio 2).
        ``"mrt"``
            Mounié–Rapine–Trystram with the exact ``O(nm)`` knapsack.
        ``"compressible"``
            Algorithm 1 of Section 4.2.5.
        ``"bounded"`` / ``"bounded_linear"``
            Algorithm 3 of Section 4.3; ``"bounded_linear"`` (Section 4.3.3)
            is an alias that runs the same code and returns the same schedule.
        ``"fptas"`` / ``"ptas"``
            Section 3 algorithms.
        ``"exact"``
            Branch-and-bound optimum (tiny instances only).
    backend:
        ``"vectorized"`` runs γ-allotments on the NumPy fast path,
        ``"scalar"`` on the bit-identical per-job reference (see
        :mod:`repro.perf`); both run the same knapsack DPs.  ``"auto"`` (default) picks the faster of the two
        by instance size: scalar below the chosen driver's row of
        :data:`repro.core.backend.AUTO_VECTORIZED_MIN_N`, vectorized at or
        above it.  A supplied ``oracle`` is an executor and implies its own
        backend (``oracle.backend``), and ``m > MAX_VECTORIZED_M`` always
        runs scalar.  The backend that ran is
        :attr:`SchedulingResult.backend`.  Ignored by ``"exact"``.
    oracle:
        Optional pre-built executor from :mod:`repro.perf.oracle` (a
        ``BatchedOracle`` or a ``ScalarOracle``) for exactly ``(jobs, m)``.
        Threaded to the drivers that accept one
        (``"two_approx"`` and ``"fptas"``) so callers issuing *consecutive*
        solves — the fault-recovery loop re-planning survivors epoch after
        epoch — can carry γ-caches across calls (see
        ``BatchedOracle.prime_from``).  The remaining drivers build their own
        oracles internally and ignore this argument.
    """
    jobs = list(jobs)
    check_machine_count(m)
    check_distinct_jobs(jobs)
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose one of {ALGORITHMS}")

    if not jobs:
        return SchedulingResult(Schedule(m=m), algorithm, eps, 0.0, None)

    chosen = auto_algorithm(len(jobs), m, eps) if algorithm == "auto" else algorithm

    if chosen == "exact":
        if not exact_solver_applicable(len(jobs), m):
            raise ValueError("the exact algorithm only handles tiny instances (n <= 7, m <= 8)")
        schedule = exact_schedule(jobs, m)
        if validate:
            assert_valid_schedule(schedule, jobs)
        estimate = None
        guarantee: Optional[float] = 1.0
    else:
        if chosen == "two_approx":
            res = two_approximation(jobs, m, validate=validate, backend=backend, oracle=oracle)
            guarantee = 2.0
        elif chosen == "mrt":
            res = mrt_schedule(jobs, m, eps, validate=validate, backend=backend)
            guarantee = 1.5 + eps
        elif chosen == "compressible":
            res = compressible_schedule(jobs, m, eps, validate=validate, backend=backend)
            guarantee = 1.5 + eps
        elif chosen in ("bounded", "bounded_linear"):
            res = bounded_schedule(jobs, m, eps, validate=validate, backend=backend)
            res.schedule.metadata["algorithm"] = chosen
            guarantee = 1.5 + eps
        elif chosen == "fptas":
            res = fptas_schedule(jobs, m, eps, validate=validate, backend=backend, oracle=oracle)
            guarantee = 1.0 + eps
        elif chosen == "ptas":
            res = ptas_schedule(jobs, m, eps, validate=validate, backend=backend)
            guarantee = res.schedule.metadata.get("guarantee")
        else:  # pragma: no cover - exhaustiveness guard
            raise AssertionError(chosen)
        schedule, estimate = res.schedule, res.estimate

    return driver_result(jobs, m, eps, chosen, schedule, estimate, guarantee)


def driver_result(jobs, m, eps, chosen, schedule, estimate, guarantee) -> SchedulingResult:
    """The facade's :class:`SchedulingResult` for a driver's ``schedule`` and
    ``estimate`` (shared with :func:`repro.perf.megabatch.solve_mega`)."""
    # The driver's Ludwig–Tiwari omega already dominates the trivial bound and
    # is bit-identical on every backend, so it *is* makespan_lower_bound(jobs,
    # m); only drivers that never estimated (exact, ptas's tiny exact branch)
    # pay for a fresh one.
    lower = estimate.omega if estimate is not None else makespan_lower_bound(jobs, m)
    schedule.metadata.setdefault("algorithm", chosen)
    return SchedulingResult(schedule=schedule, algorithm=chosen, eps=eps, lower_bound=lower, guarantee=guarantee)
