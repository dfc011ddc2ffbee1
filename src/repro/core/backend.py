"""Backend selection shared by the algorithm drivers.

Every driver accepts ``backend="vectorized" | "scalar" | "auto"``.  The
vectorized backend evaluates γ-allotments through a shared
:class:`repro.perf.oracle.BatchedOracle` and runs the knapsack DPs on the
NumPy array engines; the scalar backend is the pure-Python reference.  Both
produce bit-for-bit identical schedules.

``"auto"`` is a measured size dispatch: the vectorized backend pays a fixed
NumPy dispatch cost per γ-bisection level, so below a per-algorithm job
count (:data:`AUTO_VECTORIZED_MIN_N`) the scalar reference is faster.
``"auto"`` resolves to ``"scalar"`` under that threshold and to
``"vectorized"`` at or above it.  An explicit ``"vectorized"`` or
``"scalar"`` always means exactly that, a supplied oracle always means
vectorized, and ``m > MAX_VECTORIZED_M`` always falls back to scalar.
"""

from __future__ import annotations

import operator

from .capacity import MAX_COLUMNAR_M

__all__ = ["resolve_backend", "auto_backend", "check_oracle", "AUTO_VECTORIZED_MIN_N", "MAX_VECTORIZED_M"]

#: Largest machine count the vectorized backend supports: γ-arrays use the
#: sentinel ``m + 1`` in int64 and the oracle funnels counts through float64,
#: so the boundary is the shared int64-contract limit from
#: :mod:`repro.core.capacity` (2^62), not the raw int64 ceiling — counts in
#: (2^53, 2^63) would round under a lossy ``float(m)`` cast.  Astronomically
#: larger ``m`` (the compact input encoding allows it) silently falls back to
#: the scalar path, which handles arbitrary Python ints — results are
#: bit-identical either way.
MAX_VECTORIZED_M = MAX_COLUMNAR_M

# Smallest job count at which backend="auto" runs the vectorized backend, per
# algorithm: the n where the two backends' wall times cross.  Measured
# through the facade, fresh jobs per call, best of 3 per (n, backend) cell:
#   jobs = random_mixed_instance(n, m, seed=1).jobs
#   schedule_moldable(jobs, m, 0.1, algorithm=alg, backend=backend)
# On a 2-core Xeon, Python 3.11: bounded at m=64 (Algorithm 3 proper) crosses
# at n~100; fptas at m=2**20 (also bounded's m >= 16n branch) at n~40;
# two_approx at m=64 and m=4000 at n~55-70.  A 0 keeps the vectorized backend
# until the algorithm is measured.
AUTO_VECTORIZED_MIN_N = {
    "fptas": 40,
    "two_approx": 64,
    "bounded": 96,
    "bounded_linear": 96,
    "mrt": 0,
    "compressible": 0,
    "ptas": 0,
}


def auto_backend(algorithm: str, n: int, m: int) -> str:
    """The backend ``"auto"`` resolves to for ``algorithm`` on ``n`` jobs and
    ``m`` machines."""
    if int(m) > MAX_VECTORIZED_M:
        return "scalar"
    row = algorithm
    if algorithm in ("bounded", "bounded_linear"):
        from .bounded_algorithm import LARGE_M_FACTOR

        if m >= LARGE_M_FACTOR * n:
            row = "fptas"  # Algorithm 3's large-m branch runs the FPTAS dual
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

    A supplied :class:`~repro.perf.oracle.BatchedOracle` must pass
    :func:`check_oracle` and implies the vectorized backend (that is what the
    oracle exists for).  ``"auto"`` becomes :func:`auto_backend` of
    ``algorithm`` (the driver's row of
    :data:`AUTO_VECTORIZED_MIN_N`), ``len(jobs)`` and ``m``.
    ``"vectorized"`` gets a freshly built oracle — unless ``m`` exceeds the
    int64 range of the γ-arrays, in which case the scalar path is used.  The
    scalar backend returns ``("scalar", None)``: it must not touch batched
    state.
    """
    if backend not in ("scalar", "vectorized", "auto"):
        raise ValueError(f"unknown backend {backend!r}")
    if oracle is not None:
        check_oracle(oracle, jobs, m)
        return "vectorized", oracle
    if backend == "auto":
        backend = auto_backend(algorithm, len(jobs), m)
    if backend == "vectorized":
        if int(m) > MAX_VECTORIZED_M:
            return "scalar", None
        # Imported lazily: repro.perf pulls in repro.core.job, and the driver
        # modules are themselves imported by repro.core's package init.
        from ..perf.oracle import BatchedOracle

        oracle = BatchedOracle(jobs, m)
    return backend, oracle
