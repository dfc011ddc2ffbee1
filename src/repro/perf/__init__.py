"""Vectorized oracle layer (the perf subsystem).

This package makes *batched* evaluation the fast path of the library:

* :mod:`repro.perf.arrays` — :class:`JobArrayBundle` keeps per-job model
  parameters in flat NumPy arrays grouped by job class (the SimSo idiom of
  per-entity state in arrays rather than object graphs), so the processing
  time ``t_j(k_j)`` of *many* jobs at *per-job* processor counts is one
  vectorized pass per job class.
* :mod:`repro.perf.oracle` — :class:`BatchedOracle` runs all ``n``
  γ-binary-searches in lockstep (``O(log m)`` array operations instead of
  ``n·log m`` Python calls) and caches the γ-arrays per threshold; successive
  thresholds of a dual search reuse earlier results as bisection brackets
  (the γ-breakpoint cache).  :class:`ScalarOracle` answers the same column
  interface per job (``allotment.gamma`` and ``processing_time``), exactly
  at any ``m``.
* :mod:`repro.perf.schedule_builder` — :class:`ArraySchedule` /
  :func:`schedule_from_arrays` assemble a :class:`~repro.core.schedule.Schedule`
  from flat columns (job index, start, span first/count) in one batched pass
  with vectorized span normalization, so the vectorized drivers never leave
  array-land until the final object; :class:`ScheduleColumns` is the read-side
  view consumed by the vectorized validator and simulator sweeps.

The scalar-vs-vectorized regression harness that times these paths
(``BENCH_perf.json``) lives outside the package, in
``benchmarks/bench_perf_suite.py``.

Every algorithm driver is one body that runs on either executor, bit for
bit the same; the drivers' ``backend="vectorized" | "scalar" | "auto"`` flag
picks the executor, where ``"auto"`` picks by instance size
(:mod:`repro.core.backend`).
"""

from .arrays import JobArrayBundle
from .megabatch import MegaBatch, MegaOracle, solve_mega
from .oracle import BatchedOracle, ScalarOracle, lockstep_gamma_round
from .schedule_builder import ArraySchedule, ScheduleColumns, schedule_from_arrays

__all__ = [
    "JobArrayBundle",
    "BatchedOracle",
    "ScalarOracle",
    "lockstep_gamma_round",
    "MegaBatch",
    "MegaOracle",
    "solve_mega",
    "ArraySchedule",
    "ScheduleColumns",
    "schedule_from_arrays",
]
