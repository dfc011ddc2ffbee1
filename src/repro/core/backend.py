"""Backend selection shared by the algorithm drivers.

Every driver accepts ``backend="vectorized" | "scalar" | "auto"`` and runs
one body on the executor the backend names: a
:class:`repro.perf.oracle.BatchedOracle` (γ-allotments by lockstep batched
bisection, knapsack DPs on the NumPy array engines) or a
:class:`repro.perf.oracle.ScalarOracle` (the pure-Python reference, exact at
any ``m``).  Both produce bit-for-bit identical schedules; this module and
the two oracle classes are the only places that know which one runs.

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
# through the facade, fresh jobs per call, scalar and vectorized calls
# interleaved, best of 9 per (n, backend) cell (best of 3 is too noisy on a
# shared 2-core box):
#   jobs = random_mixed_instance(n, m, seed=1).jobs
#   schedule_moldable(jobs, m, 0.1, algorithm=alg, backend=backend)
# On a 2-core Xeon, Python 3.11: bounded at m=64 (Algorithm 3 proper) crosses
# at n~128; fptas at m=2**20 (also the m >= 16n branch of bounded and
# compressible) at n~40-44; two_approx at m=64 at n~104 and at m=4000 at
# n~64-72, so its row sits between the two.  Scalar/vectorized time ratios
# of two passes:
#   bounded    m=64     n=112: 0.95 / 1.00   n=128: 1.04 / 1.06
#   fptas      m=2**20  n=36:  0.84 / 0.95   n=40:  0.96 / 1.07   n=44: 1.07 / 1.18
#   two_approx m=64     n=80:  0.84 / 0.82   n=104: 1.00 / 0.99
#   two_approx m=4000   n=64:  1.03 / 0.76   n=72:  1.30 / 1.05   n=80: 1.30 / 1.09
# A 0 keeps the vectorized backend until the algorithm is measured.
AUTO_VECTORIZED_MIN_N = {
    "fptas": 40,
    "two_approx": 80,
    "bounded": 128,
    "mrt": 0,
    "compressible": 0,
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
