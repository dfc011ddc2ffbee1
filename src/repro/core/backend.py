"""Backend selection shared by the algorithm drivers.

Every driver accepts ``backend="vectorized" | "scalar" | "auto"`` and runs
one body on the executor the backend names: a
:class:`repro.perf.oracle.BatchedOracle` (γ-allotments by lockstep batched
bisection) or a :class:`repro.perf.oracle.ScalarOracle` (per-job γ-searches,
exact at any ``m``).  The knapsack DPs are the same NumPy engines on both.
Both produce bit-for-bit identical schedules; this module and the two
oracle classes are the only places that know which one runs.

``"auto"`` is a measured size dispatch: the vectorized backend pays a fixed
NumPy dispatch cost per γ-bisection level, so below a per-algorithm job
count (:data:`AUTO_VECTORIZED_MIN_N`) the scalar reference is faster.
``"auto"`` resolves to ``"scalar"`` under that threshold and to
``"vectorized"`` at or above it.  An explicit ``"vectorized"`` or
``"scalar"`` always means exactly that, a supplied oracle always means its
own backend, and ``m > MAX_VECTORIZED_M`` always falls back to scalar.
"""

from __future__ import annotations

import operator

from .capacity import MAX_COLUMNAR_M

__all__ = ["resolve_backend", "auto_backend", "check_oracle", "AUTO_VECTORIZED_MIN_N", "MAX_VECTORIZED_M"]

#: Largest machine count the vectorized backend supports: γ-arrays and the
#: counts handed to the kernels are int64 (with the sentinel ``m + 1``), so
#: the boundary is the shared int64-contract limit from
#: :mod:`repro.core.capacity` (2^62).  Astronomically larger ``m`` (the
#: compact input encoding allows it) silently falls back to the scalar
#: executor, which handles arbitrary Python ints — results are bit-identical
#: either way.
MAX_VECTORIZED_M = MAX_COLUMNAR_M

# Smallest job count at which backend="auto" runs the vectorized backend, per
# algorithm: the n where the two backends' wall times cross.  Measured
# through the facade, fresh jobs per call, scalar and vectorized calls
# interleaved, best of 9 per (n, backend) cell (best of 3 is too noisy on a
# shared 2-core box), seeds 1-3:
#   jobs = random_mixed_instance(n, m, seed=s).jobs
#   schedule_moldable(jobs, m, 0.1, algorithm=alg, backend=backend)
# On a 2-core Xeon, Python 3.11, with the scalar executor's bracketed γ
# searches and both executors on the same NumPy knapsack engine and the same
# event-queue list scheduler.
# Scalar/vectorized time ratios (seeds 1 / 2 / 3; above 1 the vectorized
# backend is faster):
#   fptas        m=2**20  n=192: 0.91/0.83/0.84  n=240: 0.98/0.98/0.96  n=256: 1.06/1.01/1.00
#                m=2**22  n=200: 0.93/0.88/0.89  n=256: 1.08/1.02/1.05
#   two_approx   m=8n     n=160: 0.64/0.66/0.69  n=224: 0.77/0.79/0.70  n=288: 1.00/0.70/0.95
#                         n=352: 1.06/1.02/1.01  n=416: 1.30/1.30/1.14
#                m=64     n=96:  0.72/0.60/0.70  n=128: 0.88/1.07/0.99  n=160: 1.06/1.16/1.10
#                         n=192: 1.31/1.23/1.30  n=224: 1.33/1.31/1.31
#   bounded      m=8n     n=160: 0.77/0.75/0.76  n=224: 0.89/0.87/0.88  n=288: 1.03/1.03/1.03
#                         n=352: 1.15/1.13/1.11
#                m=64     n=128: 0.83/0.86/0.86  n=160: 0.92/0.94/0.92  n=192: 1.08/1.03/1.04
#                         n=224: 1.10/1.08/1.07
#   mrt          m=8n     n=112: 0.67/0.64/0.66  n=160: 0.81/0.80/0.80  n=192: 0.89/0.87/0.87
#                         n=208: 0.91/0.92/0.89  n=224: 0.97/0.92/0.92  n=288: 1.08/1.07/1.08
#                m=64     n=112: 0.73/0.76/0.74  n=160: 0.98/1.00/0.99  n=192: 1.11/1.11/1.10
#                         n=208: 1.16/1.15/1.13  n=224: 1.21/1.17/1.18
#   compressible m=8n     n=176: 0.82/0.80/0.81  n=256: 1.02/1.00/1.01  n=320: 1.17/1.13/1.13
#                m=64     n=96:  0.70/0.62/0.70  n=128: 0.81/0.95/0.90  n=176: 1.10/1.06/1.07
# Where the m=8n and m=64 crossovers differ, the threshold sits between
# them, so neither regime loses more than ~1.4x.  fptas at m=2**20 is also
# the m >= 16n branch of bounded and compressible.
AUTO_VECTORIZED_MIN_N = {
    "fptas": 240,
    "two_approx": 224,
    "bounded": 224,
    "mrt": 208,
    "compressible": 176,
}


def auto_backend(algorithm: str, n: int, m: int) -> str:
    """The backend ``"auto"`` resolves to for ``algorithm`` on ``n`` jobs and
    ``m`` machines."""
    if int(m) > MAX_VECTORIZED_M:
        return "scalar"
    row = algorithm
    if algorithm in ("bounded", "compressible"):
        from .bounded_algorithm import LARGE_M_FACTOR

        if m >= LARGE_M_FACTOR * n:
            row = "fptas"  # the shelf dual's large-m branch runs the FPTAS dual
    return "scalar" if n < AUTO_VECTORIZED_MIN_N[row] else "vectorized"


def check_oracle(oracle, jobs, m) -> None:
    """Reject a supplied oracle that was not built for exactly ``(jobs, m)``.

    γ-arrays are positional, so an oracle over other jobs, a subset or a
    reordering would silently answer for the wrong job at every index.
    """
    if oracle.m != int(m):
        raise ValueError(f"oracle was built for m={oracle.m}, got m={m}")
    if len(oracle.jobs) != len(jobs) or not all(map(operator.is_, oracle.jobs, jobs)):
        raise ValueError("oracle was built for other jobs; it must hold the same job objects in order")


def resolve_backend(jobs, m, backend, oracle, algorithm=None):
    """Normalise a driver's ``(backend, oracle)`` pair.

    A supplied oracle must pass :func:`check_oracle` and implies its own
    ``backend``.  ``"auto"`` becomes :func:`auto_backend` of ``algorithm``
    (the driver's row of :data:`AUTO_VECTORIZED_MIN_N`), ``len(jobs)`` and
    ``m``.  ``"vectorized"`` gets a freshly built
    :class:`~repro.perf.oracle.BatchedOracle` — unless ``m`` exceeds the
    int64 range of its γ-arrays — and ``"scalar"`` a
    :class:`~repro.perf.oracle.ScalarOracle`.
    """
    if backend not in ("scalar", "vectorized", "auto"):
        raise ValueError(f"unknown backend {backend!r}")
    if oracle is not None:
        check_oracle(oracle, jobs, m)
        return oracle.backend, oracle
    if backend == "auto":
        backend = auto_backend(algorithm, len(jobs), m)
    # Imported lazily: repro.perf pulls in repro.core.job, and the driver
    # modules are themselves imported by repro.core's package init.
    from ..perf.oracle import BatchedOracle, ScalarOracle

    if backend == "vectorized" and int(m) <= MAX_VECTORIZED_M:
        return backend, BatchedOracle(jobs, m)
    return "scalar", ScalarOracle(jobs, m)
