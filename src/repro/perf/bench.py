"""Scalar-vs-vectorized performance regression harness.

Times every algorithm driver on a *multi-family* instance sweep (the mixed
Table-1 workload of the paper's running-time study plus power-law-work,
communication-bound, bimodal and tiny-n/huge-m families) under both backends
and writes the results to ``BENCH_perf.json``:

* per row: wall-clock seconds for ``backend="scalar"`` and
  ``backend="vectorized"``, the speedup, and whether the two backends produced
  *identical* makespans (they must — the vectorized layer is bit-compatible);
* aggregates: per-algorithm speedups, the geometric-mean speedup over the
  `(3/2+eps)` Table-1 algorithms on the ``n >= 1000`` instances, and the
  fptas/two_approx ``n >= 1000`` geomean that the columnar-assembly gate
  checks (``--min-fptas-two-approx``, default 8x).

Each (algorithm, family, n, m) configuration is one *shard*: ``--processes``
fans the shards across a ``multiprocessing`` pool (both backends of a shard
stay in the same worker so their ratio is unaffected by pool contention) and
the per-shard rows are merged back in configuration order.

``--smoke`` runs a small fixed configuration suitable for CI — combined with
``--families`` it assigns one family per algorithm round-robin, so a short
run still touches every requested family.  ``--check`` compares against a
checked-in baseline: the gate fails when an algorithm's *speedup* drops below
``baseline / regression_factor`` (speedups, unlike absolute seconds, transfer
across machines), when the baseline lacks an aggregate the run produces
(a stale baseline is a named failure, not a silent pass), when the backends
disagree on any makespan, or when an absolute floor is undershot (the
fptas/two_approx geomean, the list_schedule geomean — which includes the
no-tie deep-queue ``chain`` rows — or the re-plan γ-probe reduction the
fault-recovery warm start must deliver on the ``recovery`` rows — cold vs
warm ``recover_with_faults`` on a seeded fault plan, ``--min-recovery`` —
or the fleet-serving throughput floor on the ``serve`` rows,
``--min-serve-throughput`` — or the astronomical-m floor on the ``huge_m``
rows, scalar heap loop vs wide-integer columnar event-queue at m in
{2^53+1, 2^64, 2^80}, ``--min-huge-m``).

``serve`` rows time :func:`repro.serve.schedule_many` over a small fleet
twice — once healthy and once under seeded 10% kill/hang/raise chaos — and
reuse the scalar/vectorized column pair for the healthy/chaos wall clocks;
because the fleet spawns worker processes of its own, serve shards always
run in the bench parent rather than the (daemonic) ``--processes`` pool.
Pooled shards are collected with a per-shard ``--shard-timeout`` deadline so
one hung configuration fails loudly with its row named instead of stalling
the whole run.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.bounded_algorithm import bounded_schedule
from ..core.compressible_algorithm import compressible_schedule
from ..core.fptas import fptas_schedule
from ..core.mrt import mrt_schedule
from ..core.two_approx import two_approximation
from ..knapsack.compressible import _geom_cached
from ..workloads.generators import (
    random_bimodal_instance,
    random_chain_instance,
    random_communication_instance,
    random_mixed_instance,
    random_power_work_instance,
)

__all__ = ["BenchRow", "BenchReport", "run_suite", "main", "FAMILIES"]

#: Algorithms whose n>=1000 speedups form the headline geometric mean (the
#: paper's Table 1 covers the (3/2+eps) dual algorithms; MRT is its baseline).
TABLE1_ALGORITHMS = ("mrt", "compressible", "bounded_heap", "bounded_bucket")

#: Algorithms whose γ-probe counts are recorded warm vs cold (the oracle
#: warm-start instrumentation rows).
PROBE_ALGORITHMS = ("fptas", "two_approx")

#: All timed algorithms: the Table-1 set, the columnar-assembly headliners
#: and the isolated list-scheduling phase (scalar heap loop vs batched
#: event-queue backend on a fixed estimator allotment).
#: The ``recovery`` shard (fault-driven survivor re-planning, warm vs cold
#: γ-cache) is swept separately — it is an end-to-end loop, not a
#: backend-vs-backend ratio, so it stays out of the tiny_n_huge_m sweep.
ALL_ALGORITHMS = TABLE1_ALGORITHMS + (
    "fptas",
    "two_approx",
    "list_schedule",
)

SCHEDULE_EPS = 0.1
FPTAS_EPS = 0.5

#: Instance families of the sweep.  ``tiny_n_huge_m`` reuses the mixed
#: generator but with a config shape (n=64, m=2^22) that drives every
#: algorithm through its large-m dispatch (FPTAS regime); ``chain`` (run
#: with n >> m) is the no-tie single-completion regime that sweeps only the
#: list_schedule rows.
FAMILIES: Dict[str, Callable] = {
    "mixed": random_mixed_instance,
    "powerwork": random_power_work_instance,
    "comm": random_communication_instance,
    "bimodal": random_bimodal_instance,
    "tiny_n_huge_m": random_mixed_instance,
    "chain": random_chain_instance,
}

DEFAULT_FAMILIES = tuple(FAMILIES)

_TINY_N = 64
_TINY_M = 1 << 22

#: Machine counts of the ``huge_m`` rows (scalar heap loop vs the
#: wide-integer columnar event-queue backend): just past the exact-float
#: boundary, past int64, and firmly in the wide-limb tier.  Kept out of
#: :data:`ALL_ALGORITHMS` — the rows pin their own m axis instead of
#: sweeping the family configs.
_HUGE_MS = ((1 << 53) + 1, 1 << 64, 1 << 80)

#: Fleet sizes of the ``megabatch`` rows (per-instance solo vectorized loop
#: vs one lockstep ``solve_mega`` pack): the lockstep win comes from
#: amortising per-call dispatch across the fleet, so the rows sweep the
#: fleet-size axis on small-n instances where dispatch dominates.  The gated
#: ``megabatch_speedup`` geomean reads the fleet >= 32 rows.
_MEGA_FLEETS = (8, 32, 128)
_MEGA_N = 6


def _chain_m(n: int) -> int:
    """Machine count of the chain family: n >> m forces a deep waiting queue
    (the single-completion no-tie regime the event queue's candidate index
    targets)."""
    return max(64, n // 16)


@dataclass
class BenchRow:
    algorithm: str
    family: str
    n: int
    m: int
    eps: float
    scalar_seconds: float
    vectorized_seconds: float
    speedup: float
    scalar_makespan: float
    vectorized_makespan: float
    makespans_identical: bool
    #: γ-probes the vectorized run spent with the warm-start policy on /
    #: off (0 for algorithms without probe instrumentation).
    gamma_probes_warm: int = 0
    gamma_probes_cold: int = 0
    #: Fault-epoch re-plans of the ``recovery`` rows (0 for every other
    #: algorithm) — with the row's warm seconds this yields re-plans/sec.
    replans: int = 0
    #: Fleet size of the ``serve`` rows (0 for every other algorithm): the
    #: row's scalar slot times the healthy fleet, the vectorized slot the
    #: same fleet under ~10% injected kill/hang/raise chaos, so
    #: ``serve_instances / seconds`` is the instances/sec throughput either
    #: way.  ``serve_degraded``/``serve_quarantined`` count the chaos run's
    #: non-clean outcomes (the report must still be complete).
    serve_instances: int = 0
    serve_degraded: int = 0
    serve_quarantined: int = 0
    #: Fleet size of the ``megabatch`` rows (0 for every other algorithm):
    #: the row's scalar slot times a per-instance solo vectorized loop over
    #: the fleet, the vectorized slot one lockstep ``solve_mega`` pack of the
    #: same instances — bit-identical per-instance results, so the speedup is
    #: pure dispatch amortisation.
    mega_fleet: int = 0


@dataclass
class BenchReport:
    mode: str
    seed: int
    python: str = field(default_factory=platform.python_version)
    platform: str = field(default_factory=platform.platform)
    families: List[str] = field(default_factory=lambda: list(DEFAULT_FAMILIES))
    processes: int = 1
    rows: List[BenchRow] = field(default_factory=list)
    aggregates: Dict[str, float] = field(default_factory=dict)
    identical_makespans: bool = True

    def to_json(self) -> str:
        payload = asdict(self)
        return json.dumps(payload, indent=2, sort_keys=True)


def _runner_for(algorithm: str) -> Callable:
    if algorithm == "mrt":
        return lambda jobs, m, backend: mrt_schedule(jobs, m, SCHEDULE_EPS, backend=backend)
    if algorithm == "compressible":
        return lambda jobs, m, backend: compressible_schedule(jobs, m, SCHEDULE_EPS, backend=backend)
    if algorithm == "bounded_heap":
        return lambda jobs, m, backend: bounded_schedule(
            jobs, m, SCHEDULE_EPS, transform="heap", backend=backend
        )
    if algorithm == "bounded_bucket":
        return lambda jobs, m, backend: bounded_schedule(
            jobs, m, SCHEDULE_EPS, transform="bucket", backend=backend
        )
    if algorithm == "fptas":
        return lambda jobs, m, backend: fptas_schedule(jobs, m, FPTAS_EPS, backend=backend)
    if algorithm == "two_approx":
        return lambda jobs, m, backend: two_approximation(jobs, m, backend=backend)
    raise KeyError(algorithm)


def _eps_for(algorithm: str) -> float:
    return FPTAS_EPS if algorithm == "fptas" else SCHEDULE_EPS


def _timed(fn: Callable[[], object], repeat: int, jobs) -> tuple[float, object]:
    best = math.inf
    result = None
    for _ in range(max(1, repeat)):
        # Clear every cross-run memo so neither backend benefits from a
        # previous (possibly other-backend) run of the same instance: the
        # geometric-grid cache and the per-job processing-time memos.
        _geom_cached.cache_clear()
        for job in jobs:
            job._cache.clear()
            job._cache_evictions = 0
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def _normalize_families(families: Optional[Sequence[str]]) -> List[str]:
    names = list(families) if families else list(DEFAULT_FAMILIES)
    unknown = [f for f in names if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown families {unknown}; available: {sorted(FAMILIES)}")
    return names


def _fptas_m(n: int) -> int:
    return max(1 << 21, int(8 * n / FPTAS_EPS) + 1)


def _configs(mode: str, families: Sequence[str]) -> List[dict]:
    """Instance configurations (shards) per mode.

    The full suite keeps ``m = 8n < 16n`` for the knapsack-based algorithms so
    their shelf-selection machinery is actually exercised, and ``m >= 8n/eps``
    for the FPTAS rows (its applicability regime); the ``tiny_n_huge_m``
    family instead pins ``n = 64, m = 2^22`` to cover every algorithm's
    large-m dispatch.  Smoke mode assigns one family per algorithm
    (round-robin over the requested families) so CI stays fast but still
    touches every family.
    """
    if mode == "smoke":
        configs = []
        for i, alg in enumerate(TABLE1_ALGORITHMS):
            family = families[i % len(families)]
            if family == "tiny_n_huge_m":
                configs.append(dict(algorithm=alg, family=family, n=_TINY_N, m=_TINY_M))
            elif family == "chain":
                configs.append(dict(algorithm=alg, family=family, n=120, m=_chain_m(120)))
            else:
                configs.append(dict(algorithm=alg, family=family, n=120, m=960))
        # fptas / two_approx run at n >= 1000 so the columnar-assembly floor
        # (--min-fptas-two-approx) is measured on meaningful instances.  Only
        # requested families are ever swept: a tiny_n_huge_m-only run gets
        # tiny-shaped coverage rows instead (and therefore no n>=1000 floor
        # measurement — there is nothing honest to measure there); the chain
        # family only ever sweeps the list_schedule shard below.
        gate_families = [f for f in families if f not in ("tiny_n_huge_m", "chain")]
        if gate_families:
            configs.append(
                dict(algorithm="fptas", family=gate_families[0], n=2000, m=_fptas_m(2000))
            )
            configs.append(
                dict(algorithm="two_approx", family=gate_families[0], n=2000, m=16000)
            )
            configs.append(
                dict(algorithm="list_schedule", family=gate_families[0], n=2000, m=16000)
            )
            # the recovery floor (--min-recovery) is measured on a moderate
            # cluster: the seeded fault plan forces several re-plan epochs
            configs.append(
                dict(algorithm="recovery", family=gate_families[0], n=80, m=64)
            )
            # the online floor (--min-online): cold vs warm-started γ
            # re-planning across the arrival epochs of one seeded stream
            configs.append(
                dict(algorithm="online", family=gate_families[0], n=80, m=64)
            )
            # the serve floor (--min-serve-throughput) is measured on a small
            # fleet of independent instances (healthy vs 10%-chaos legs)
            configs.append(
                dict(algorithm="serve", family=gate_families[0], n=40, m=64)
            )
            # the astronomical-m floor (--min-huge-m): scalar heap loop vs
            # the wide-integer columnar event-queue backend past 2^53/2^64
            configs += [
                dict(algorithm="huge_m", family=gate_families[0], n=2000, m=m)
                for m in _HUGE_MS
            ]
            # the mega-batch floor (--min-megabatch): per-instance solo
            # vectorized loop vs one lockstep solve_mega pack, swept over the
            # fleet-size axis on small-n instances
            configs += [
                dict(
                    algorithm="megabatch",
                    family=gate_families[0],
                    n=_MEGA_N,
                    m=8 * _MEGA_N,
                    fleet=fleet,
                )
                for fleet in _MEGA_FLEETS
            ]
        elif "tiny_n_huge_m" in families:
            configs.append(
                dict(algorithm="fptas", family="tiny_n_huge_m", n=_TINY_N, m=_TINY_M)
            )
            configs.append(
                dict(algorithm="two_approx", family="tiny_n_huge_m", n=_TINY_N, m=_TINY_M)
            )
            configs.append(
                dict(algorithm="list_schedule", family="tiny_n_huge_m", n=_TINY_N, m=_TINY_M)
            )
        if "chain" in families:
            # keeps the deep-queue no-tie regime under --min-list-schedule
            configs.append(
                dict(algorithm="list_schedule", family="chain", n=2000, m=_chain_m(2000))
            )
        # families the round-robin did not reach still get one cheap shard
        covered = {c["family"] for c in configs}
        for family in families:
            if family not in covered:
                n, m = (_TINY_N, _TINY_M) if family == "tiny_n_huge_m" else (120, _fptas_m(120))
                configs.append(dict(algorithm="fptas", family=family, n=n, m=m))
        return configs

    configs: List[dict] = []
    for family in families:
        if family == "tiny_n_huge_m":
            configs += [
                dict(algorithm=alg, family=family, n=_TINY_N, m=_TINY_M)
                for alg in ALL_ALGORITHMS
            ]
            continue
        if family == "chain":
            # deep-queue no-tie regime: only the list-scheduling phase is
            # meaningful here (n >> m starves every other algorithm's
            # vectorized machinery of work, so their ratios would be noise)
            configs += [
                dict(algorithm="list_schedule", family=family, n=n, m=_chain_m(n))
                for n in (1000, 2000)
            ]
            continue
        table1_sizes = (1000, 2000) if family == "mixed" else (1000,)
        configs += [
            dict(algorithm=alg, family=family, n=n, m=8 * n)
            for alg in TABLE1_ALGORITHMS
            for n in table1_sizes
        ]
        gate_sizes = (1000, 2000) if family == "mixed" else (2000,)
        configs += [
            dict(algorithm="fptas", family=family, n=n, m=_fptas_m(n))
            for n in gate_sizes
        ]
        configs += [
            dict(algorithm="two_approx", family=family, n=n, m=8 * n)
            for n in gate_sizes
        ]
        configs += [
            dict(algorithm="list_schedule", family=family, n=n, m=8 * n)
            for n in gate_sizes
        ]
        # fault-recovery loop: warm vs cold γ-cache across re-plan epochs
        configs.append(dict(algorithm="recovery", family=family, n=200, m=256))
        # online arrival-epoch loop: warm vs cold γ re-planning per stream
        configs.append(dict(algorithm="online", family=family, n=200, m=256))
        # fleet serving throughput: healthy vs 10%-chaos instances/sec
        configs.append(dict(algorithm="serve", family=family, n=60, m=96))
        # astronomical-m list scheduling (once, on the first eligible family):
        # the m axis is the variable here, not the instance family
        if family == next(
            (f for f in families if f not in ("tiny_n_huge_m", "chain")), None
        ):
            configs += [
                dict(algorithm="huge_m", family=family, n=n, m=m)
                for n in (1000, 2000)
                for m in _HUGE_MS
            ]
            # mega-batch lockstep fleet solving (once, on the first eligible
            # family): the fleet size is the variable here, not the instance
            configs += [
                dict(
                    algorithm="megabatch", family=family, n=_MEGA_N, m=8 * _MEGA_N,
                    fleet=fleet,
                )
                for fleet in _MEGA_FLEETS
            ]
    return configs


def _list_schedule_shard(instance, m: int, repeat: int) -> tuple:
    """Time the isolated list-scheduling phase: scalar heap loop vs batched
    ``event_queue_indexed`` backend on the *same* estimator allotment and LPT
    order (prepared once, untimed, with the batched estimator)."""
    import numpy as np

    from ..core.bounds import ludwig_tiwari_estimator
    from ..core.list_scheduling import list_schedule
    from ..perf.oracle import BatchedOracle

    oracle = BatchedOracle(instance.jobs, m)
    estimate = ludwig_tiwari_estimator(instance.jobs, m, oracle=oracle)
    allotment = estimate.allotment
    counts = allotment.counts
    times = oracle.times_at(np.array([counts[j] for j in instance.jobs], dtype=np.float64))
    order = [instance.jobs[i] for i in np.argsort(-times, kind="stable").tolist()]
    allotted = dict(zip(instance.jobs, times.tolist()))
    scalar_seconds, scalar_result = _timed(
        lambda: list_schedule(
            instance.jobs, allotment, m, order=order, backend="heap"
        ),
        repeat,
        instance.jobs,
    )
    vec_seconds, vec_result = _timed(
        lambda: list_schedule(
            instance.jobs,
            allotment,
            m,
            order=order,
            backend="event_queue_indexed",
            allotted_times=allotted,
        ),
        repeat,
        instance.jobs,
    )
    return scalar_seconds, scalar_result, vec_seconds, vec_result


def _huge_m_shard(instance, m: int, repeat: int) -> tuple:
    """Time the list-scheduling phase at astronomical m: the scalar heap
    loop (arbitrary-precision Python ints) vs the wide-integer columnar
    ``event_queue_indexed`` backend on the same allotment and LPT order.

    The allotment comes from the *scalar* estimator — ``BatchedOracle``
    (and with it :func:`_list_schedule_shard`'s setup) rejects m beyond the
    float64 integer range, which is exactly the regime these rows measure."""
    import numpy as np

    from ..core.bounds import ludwig_tiwari_estimator
    from ..core.list_scheduling import list_schedule

    # both legs finish in tens of milliseconds, so best-of-3 is essentially
    # free and keeps the gated ratio out of cold-start timing noise
    repeat = max(repeat, 3)
    estimate = ludwig_tiwari_estimator(instance.jobs, m)
    allotment = estimate.allotment
    counts = allotment.counts
    times = np.array(
        [job.processing_time(counts[job]) for job in instance.jobs], dtype=np.float64
    )
    order = [instance.jobs[i] for i in np.argsort(-times, kind="stable").tolist()]
    allotted = dict(zip(instance.jobs, times.tolist()))
    scalar_seconds, scalar_result = _timed(
        lambda: list_schedule(
            instance.jobs, allotment, m, order=order, backend="heap"
        ),
        repeat,
        instance.jobs,
    )
    vec_seconds, vec_result = _timed(
        lambda: list_schedule(
            instance.jobs,
            allotment,
            m,
            order=order,
            backend="event_queue_indexed",
            allotted_times=allotted,
        ),
        repeat,
        instance.jobs,
    )
    return scalar_seconds, scalar_result, vec_seconds, vec_result


def _probe_counts(instance, m: int, algorithm: str) -> tuple:
    """γ-probe totals of one vectorized run with the warm-start policy on
    (brackets + predictions) and off (cold full bisection) — results are
    bit-identical, only the probe counts differ."""
    from ..perf.oracle import BatchedOracle

    counts = []
    for warm in (True, False):
        oracle = BatchedOracle(instance.jobs, m, warm_start=warm)
        for job in instance.jobs:
            job._cache.clear()
        if algorithm == "fptas":
            fptas_schedule(instance.jobs, m, FPTAS_EPS, oracle=oracle)
        else:
            two_approximation(instance.jobs, m, oracle=oracle)
        counts.append(oracle.gamma_probes)
    return counts[0], counts[1]


def _recovery_shard(instance, m: int, repeat: int, seed: int) -> tuple:
    """Time the fault-recovery loop cold vs warm on the *same* fault plan.

    Both runs drain-and-replan through the identical seeded
    :func:`random_fault_plan`; the only difference is the γ-cache policy of
    the per-epoch re-plan oracles (``warm_start`` + cross-epoch priming on
    vs cold full bisection).  The stitched schedules are bit-identical, so
    the cold run fills the row's ``scalar_seconds`` slot and the warm run
    its ``vectorized_seconds`` slot; the probe counters come from each
    run's :class:`DegradationReport`.  Both runs pin
    ``backend="vectorized"``: under ``"auto"`` small re-plans run scalar and
    build no oracle, and the rows would stop measuring the warm start.
    """
    from ..core.bounds import trivial_lower_bound
    from ..resilience import random_fault_plan, recover_with_faults

    horizon = 1.5 * trivial_lower_bound(instance.jobs, m)
    plan = random_fault_plan(
        [job.name for job in instance.jobs],
        m,
        seed=seed ^ 0x5EED,
        failures=3,
        kills=2,
        horizon=max(horizon, 1.0),
    )
    cold_seconds, cold_result = _timed(
        lambda: recover_with_faults(
            instance.jobs, m, plan, eps=SCHEDULE_EPS,
            algorithm="two_approx", backend="vectorized", warm_start=False,
        ),
        repeat,
        instance.jobs,
    )
    warm_seconds, warm_result = _timed(
        lambda: recover_with_faults(
            instance.jobs, m, plan, eps=SCHEDULE_EPS,
            algorithm="two_approx", backend="vectorized",
        ),
        repeat,
        instance.jobs,
    )
    return (
        cold_seconds,
        cold_result,
        warm_seconds,
        warm_result,
        int(warm_result.report.gamma_probes or 0),
        int(cold_result.report.gamma_probes or 0),
        int(warm_result.report.replans),
    )


#: Arrival-base of the ``online`` shards per bench family (the bench family
#: names predate the arrivals generator's base registry).
_ONLINE_BASES = {
    "mixed": "mixed",
    "powerwork": "power_work",
    "comm": "communication",
    "bimodal": "bimodal",
    "tiny_n_huge_m": "mixed",
    "chain": "chain",
}


def _online_shard(family: str, n: int, m: int, repeat: int, seed: int) -> tuple:
    """Time the online arrival-epoch loop cold vs warm on the *same* stream.

    Both runs consume the identical seeded :func:`random_arrivals_instance`
    stream under the ``immediate`` epoch policy; the only difference is the
    γ-cache policy of the per-epoch re-plan oracles (``warm_start`` bracket +
    prediction reuse on vs cold full bisection).  The stitched schedules
    must be bit-identical — the warm start is a pure accelerator — so the
    cold run fills the row's ``scalar_seconds`` slot and the warm run its
    ``vectorized_seconds`` slot; the probe counters come from each run's
    :class:`RegretReport`.  Both runs pin ``backend="vectorized"``, as the
    recovery rows do.
    """
    from ..online import OnlineScheduler
    from ..workloads.generators import random_arrivals_instance

    instance = random_arrivals_instance(
        n, m, seed=seed ^ 0x0411E, base=_ONLINE_BASES.get(family, "mixed")
    )
    arrivals = instance.arrivals
    cold_seconds, cold_result = _timed(
        lambda: OnlineScheduler(
            m, eps=SCHEDULE_EPS, algorithm="two_approx", backend="vectorized",
            warm_start=False,
        ).run(arrivals),
        repeat,
        instance.jobs,
    )
    warm_seconds, warm_result = _timed(
        lambda: OnlineScheduler(
            m, eps=SCHEDULE_EPS, algorithm="two_approx", backend="vectorized"
        ).run(arrivals),
        repeat,
        instance.jobs,
    )
    warm_entries = [
        (e.job.name, e.start, tuple(e.spans)) for e in warm_result.schedule.entries
    ]
    cold_entries = [
        (e.job.name, e.start, tuple(e.spans)) for e in cold_result.schedule.entries
    ]
    if warm_entries != cold_entries:
        raise RuntimeError(
            f"online/{family} (n={n}, m={m}): warm-started re-planning "
            f"stitched a different schedule than cold — the warm start must "
            f"be a pure accelerator"
        )
    return (
        cold_seconds,
        cold_result,
        warm_seconds,
        warm_result,
        int(warm_result.report.gamma_probes or 0),
        int(cold_result.report.gamma_probes or 0),
        int(warm_result.report.replans),
    )


#: Fleet shape of the ``serve`` shards: instances per fleet and worker count.
_SERVE_FLEET = 12
_SERVE_WORKERS = 4
#: Injected failure probability of the chaos leg (split kill/hang/raise).
_SERVE_CHAOS = 0.10


def _serve_shard(family: str, n: int, m: int, repeat: int, seed: int) -> tuple:
    """Time the fleet scheduler healthy vs under ~10% injected chaos.

    One fleet of ``_SERVE_FLEET`` seeded instances is built once; the healthy
    leg fills the row's ``scalar_seconds`` slot, the chaos leg (seeded 10%
    kill/hang/raise, deadlines + retries live) its ``vectorized_seconds``
    slot.  The makespan identity check compares the healthy fleet's summed
    makespans against solo ``two_approximation`` runs of the same instances —
    the isolation layer must be bit-transparent.  Both legs must return a
    *complete* report; an unaccounted instance fails the shard loudly.
    """
    from ..serve import ChaosPolicy, FleetInstance, ServePolicy, schedule_many

    generator = FAMILIES[family]
    instances = [
        FleetInstance(
            name=f"serve-{family}-{i}",
            jobs=generator(n, m, seed=seed * 1000 + i).jobs,
            m=m,
            algorithm="two_approx",
        )
        for i in range(_SERVE_FLEET)
    ]
    solo_total = 0.0
    for inst in instances:
        for job in inst.jobs:
            job._cache.clear()
        solo_total += two_approximation(inst.jobs, m).makespan
    # generous healthy deadline (no false timeouts on slow CI runners); the
    # chaos leg runs a tight one so injected hangs cost ~2s, not an hour
    healthy_policy = ServePolicy(timeout=60.0, backoff_base=0.0, seed=seed)
    chaos_policy = ServePolicy(timeout=2.0, backoff_base=0.0, seed=seed)
    chaos = ChaosPolicy(
        seed=seed,
        kill_prob=_SERVE_CHAOS / 3,
        hang_prob=_SERVE_CHAOS / 3,
        raise_prob=_SERVE_CHAOS / 3,
        hang_seconds=30.0,
    )

    def _fleet(policy, chaos_policy):
        return schedule_many(
            instances,
            policy=policy,
            chaos=chaos_policy,
            max_workers=_SERVE_WORKERS,
            mp_context="fork",
        )

    healthy_seconds, healthy_report = _timed(
        lambda: _fleet(healthy_policy, None), repeat, []
    )
    chaos_seconds, chaos_report = _timed(
        lambda: _fleet(chaos_policy, chaos), repeat, []
    )
    for label, report in (("healthy", healthy_report), ("chaos", chaos_report)):
        if not report.complete:
            accounted = {o.instance for o in report.outcomes}
            missing = sorted(set(report.instances) - accounted)
            raise RuntimeError(
                f"serve/{family} (n={n}, m={m}): {label} fleet report is "
                f"incomplete — unaccounted instances {missing}"
            )
    if healthy_report.quarantined or healthy_report.degraded:
        raise RuntimeError(
            f"serve/{family} (n={n}, m={m}): healthy fleet run was not clean "
            f"({len(healthy_report.degraded)} degraded, "
            f"{len(healthy_report.quarantined)} quarantined)"
        )
    healthy_total = sum(o.makespan for o in healthy_report.outcomes)
    return (
        healthy_seconds,
        solo_total,
        chaos_seconds,
        healthy_total,
        len(chaos_report.degraded),
        len(chaos_report.quarantined),
    )


def _megabatch_shard(family: str, n: int, m: int, fleet: int, repeat: int, seed: int) -> tuple:
    """Time a fleet of small instances solo-vectorized vs one lockstep pack.

    The solo leg runs ``schedule_moldable`` per instance (vectorized backend,
    one γ-bisection per instance); the mega leg hands the *same* fleet to
    ``solve_mega`` as a single :class:`~repro.perf.megabatch.MegaBatch`, so
    every batched kernel call is shared across instances.  Results must be
    bit-identical per instance — the speedup is pure dispatch amortisation.
    Both legs clear the per-job memo caches between repeats via ``_timed``.
    """
    from ..core.scheduler import schedule_moldable
    from .megabatch import solve_mega

    # both legs are sub-second even at fleet 128; best-of-3 minimum keeps
    # the gated ratio out of scheduler-jitter territory
    repeat = max(repeat, 3)
    generator = FAMILIES[family]
    instances = [generator(n, m, seed=seed * 10_000 + i) for i in range(fleet)]
    all_jobs = [job for inst in instances for job in inst.jobs]

    def _solo():
        return [
            schedule_moldable(
                inst.jobs, m, SCHEDULE_EPS, algorithm="two_approx",
                backend="vectorized",
            )
            for inst in instances
        ]

    def _mega():
        return solve_mega(
            [(inst.jobs, m) for inst in instances],
            eps=SCHEDULE_EPS,
            algorithm="two_approx",
        )

    solo_seconds, solo_results = _timed(_solo, repeat, all_jobs)
    mega_seconds, mega_results = _timed(_mega, repeat, all_jobs)
    identical = all(
        a.makespan == b.makespan and a.lower_bound == b.lower_bound
        for a, b in zip(solo_results, mega_results)
    )
    solo_total = sum(r.makespan for r in solo_results)
    mega_total = sum(r.makespan for r in mega_results)
    return (solo_seconds, solo_total, mega_seconds, mega_total, identical)


def _bench_shard(task: tuple) -> BenchRow:
    """Time one (algorithm, family, n, m) shard under both backends.

    Module-level so a ``multiprocessing`` pool can pickle it; the instance is
    regenerated inside the worker from (family, n, m, seed), and both backends
    run in the *same* worker so pool contention cancels out of the ratio.
    ``fptas``/``two_approx`` shards additionally record the vectorized run's
    γ-probe totals warm vs cold (separate untimed passes).
    """
    config, seed, repeat = task
    algorithm = config["algorithm"]
    n, m, family = config["n"], config["m"], config["family"]
    probes_warm = probes_cold = replans = 0
    if algorithm == "serve":
        (
            healthy_seconds,
            solo_total,
            chaos_seconds,
            healthy_total,
            degraded,
            quarantined,
        ) = _serve_shard(family, n, m, repeat, seed)
        return BenchRow(
            algorithm=algorithm,
            family=family,
            n=n,
            m=m,
            eps=SCHEDULE_EPS,
            scalar_seconds=healthy_seconds,
            vectorized_seconds=chaos_seconds,
            speedup=healthy_seconds / chaos_seconds if chaos_seconds > 0 else math.inf,
            scalar_makespan=solo_total,
            vectorized_makespan=healthy_total,
            makespans_identical=solo_total == healthy_total,
            serve_instances=_SERVE_FLEET,
            serve_degraded=degraded,
            serve_quarantined=quarantined,
        )
    if algorithm == "megabatch":
        fleet = config["fleet"]
        solo_seconds, solo_total, mega_seconds, mega_total, identical = (
            _megabatch_shard(family, n, m, fleet, repeat, seed)
        )
        return BenchRow(
            algorithm=algorithm,
            family=family,
            n=n,
            m=m,
            eps=SCHEDULE_EPS,
            scalar_seconds=solo_seconds,
            vectorized_seconds=mega_seconds,
            speedup=solo_seconds / mega_seconds if mega_seconds > 0 else math.inf,
            scalar_makespan=solo_total,
            vectorized_makespan=mega_total,
            makespans_identical=identical,
            mega_fleet=fleet,
        )
    if algorithm == "online":
        (
            cold_seconds,
            cold_result,
            warm_seconds,
            warm_result,
            probes_warm,
            probes_cold,
            replans,
        ) = _online_shard(family, n, m, repeat, seed)
        return BenchRow(
            algorithm=algorithm,
            family=family,
            n=n,
            m=m,
            eps=SCHEDULE_EPS,
            scalar_seconds=cold_seconds,
            vectorized_seconds=warm_seconds,
            speedup=cold_seconds / warm_seconds if warm_seconds > 0 else math.inf,
            scalar_makespan=cold_result.makespan,
            vectorized_makespan=warm_result.makespan,
            makespans_identical=cold_result.makespan == warm_result.makespan,
            gamma_probes_warm=probes_warm,
            gamma_probes_cold=probes_cold,
            replans=replans,
        )
    instance = FAMILIES[family](n, m, seed=seed)
    if algorithm == "recovery":
        (
            scalar_seconds,
            scalar_result,
            vec_seconds,
            vec_result,
            probes_warm,
            probes_cold,
            replans,
        ) = _recovery_shard(instance, m, repeat, seed)
    elif algorithm == "list_schedule":
        scalar_seconds, scalar_result, vec_seconds, vec_result = _list_schedule_shard(
            instance, m, repeat
        )
    elif algorithm == "huge_m":
        scalar_seconds, scalar_result, vec_seconds, vec_result = _huge_m_shard(
            instance, m, repeat
        )
    else:
        runner = _runner_for(algorithm)
        scalar_seconds, scalar_result = _timed(
            lambda: runner(instance.jobs, m, "scalar"), repeat, instance.jobs
        )
        vec_seconds, vec_result = _timed(
            lambda: runner(instance.jobs, m, "vectorized"), repeat, instance.jobs
        )
    if algorithm in PROBE_ALGORITHMS:
        probes_warm, probes_cold = _probe_counts(instance, m, algorithm)
    return BenchRow(
        algorithm=algorithm,
        family=family,
        n=n,
        m=m,
        eps=_eps_for(algorithm),
        scalar_seconds=scalar_seconds,
        vectorized_seconds=vec_seconds,
        speedup=scalar_seconds / vec_seconds if vec_seconds > 0 else math.inf,
        scalar_makespan=scalar_result.makespan,
        vectorized_makespan=vec_result.makespan,
        makespans_identical=scalar_result.makespan == vec_result.makespan,
        gamma_probes_warm=probes_warm,
        gamma_probes_cold=probes_cold,
        replans=replans,
    )


class BenchShardTimeout(RuntimeError):
    """A pooled bench shard exceeded ``--shard-timeout`` (names the rows)."""


def _task_label(task: tuple) -> str:
    config = task[0]
    return f"{config['algorithm']}/{config['family']} (n={config['n']}, m={config['m']})"


def _collect_pool_rows(
    handles: Sequence[tuple], shard_timeout: Optional[float]
) -> List[BenchRow]:
    """Collect ``(task, AsyncResult)`` pairs with a per-shard deadline.

    One hung shard must fail *that shard* with a named-row message instead of
    stalling the whole run until a job-level CI kill: every shard whose
    result does not arrive within its own :class:`~repro.serve.deadlines.Deadline`
    is recorded, and after the sweep a :class:`BenchShardTimeout` names them
    all (slower-finishing healthy shards collected meanwhile are unaffected).
    """
    from ..serve.deadlines import Deadline

    rows: List[BenchRow] = []
    hung: List[str] = []
    for task, handle in handles:
        deadline = Deadline(shard_timeout)
        try:
            remaining = None if shard_timeout is None else deadline.remaining()
            rows.append(handle.get(remaining))
        except multiprocessing.TimeoutError:
            hung.append(_task_label(task))
    if hung:
        raise BenchShardTimeout(
            f"bench shard(s) exceeded the per-shard timeout of {shard_timeout}s "
            f"and were abandoned (pool terminated) — rows: {', '.join(hung)}"
        )
    return rows


def run_suite(
    mode: str = "full",
    *,
    seed: int = 7,
    repeat: int = 1,
    verbose: bool = True,
    families: Optional[Sequence[str]] = None,
    processes: int = 1,
    shard_timeout: Optional[float] = 900.0,
) -> BenchReport:
    """Run the scalar-vs-vectorized suite and return the report.

    ``families`` selects the instance families (default: all).  ``processes``
    > 1 fans the shards across a ``multiprocessing`` pool; per-shard rows are
    merged back in configuration order either way, and each pooled shard must
    deliver its row within ``shard_timeout`` seconds (``None`` disables) or
    the run fails with a :class:`BenchShardTimeout` naming the hung rows.
    """
    if mode not in ("full", "smoke"):
        raise ValueError(f"unknown mode {mode!r}")
    family_names = _normalize_families(families)
    processes = max(1, int(processes))
    report = BenchReport(mode=mode, seed=seed, families=family_names, processes=processes)
    configs = _configs(mode, family_names)
    tasks = [(config, seed, repeat) for config in configs]
    if processes > 1:
        try:
            # fork inherits sys.path (the CLI entry point extends it at
            # runtime); spawn is the fallback for platforms without fork.
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context("spawn")
        # serve shards spawn worker fleets of their own, which daemonic pool
        # workers may not do — they run in the parent after the pool drains
        pool_tasks = [t for t in tasks if t[0]["algorithm"] != "serve"]
        with ctx.Pool(processes) as pool:
            handles = [(t, pool.apply_async(_bench_shard, (t,))) for t in pool_tasks]
            pool_rows = _collect_pool_rows(handles, shard_timeout)
        pooled = iter(pool_rows)
        rows = [
            _bench_shard(task) if task[0]["algorithm"] == "serve" else next(pooled)
            for task in tasks
        ]
    else:
        rows = []
        for task in tasks:
            row = _bench_shard(task)
            rows.append(row)
            if verbose:
                _print_row(row)
    if processes > 1 and verbose:
        for row in rows:
            _print_row(row)
    for row in rows:
        report.rows.append(row)
        report.identical_makespans &= row.makespans_identical
    report.aggregates = _aggregate(report.rows)
    return report


def _print_row(row: BenchRow) -> None:
    if row.algorithm == "serve":
        print(
            f"  {row.algorithm:15s} {row.family:13s} n={row.n:<5d} m={row.m:<8d} "
            f"healthy {row.scalar_seconds:7.3f}s  chaos {row.vectorized_seconds:7.3f}s  "
            f"{row.serve_instances} instances "
            f"({row.serve_degraded} degraded, {row.serve_quarantined} quarantined)  "
            f"makespans {'identical' if row.makespans_identical else 'DIFFER'}"
        )
        return
    if row.algorithm == "megabatch":
        print(
            f"  {row.algorithm:15s} {row.family:13s} n={row.n:<5d} m={row.m:<8d} "
            f"solo {row.scalar_seconds:7.3f}s  mega {row.vectorized_seconds:7.3f}s  "
            f"speedup {row.speedup:5.1f}x  fleet={row.mega_fleet}  "
            f"makespans {'identical' if row.makespans_identical else 'DIFFER'}"
        )
        return
    if row.algorithm == "online":
        print(
            f"  {row.algorithm:15s} {row.family:13s} n={row.n:<5d} m={row.m:<8d} "
            f"cold {row.scalar_seconds:7.3f}s  warm {row.vectorized_seconds:7.3f}s  "
            f"probes {row.gamma_probes_warm} vs {row.gamma_probes_cold}  "
            f"re-plans {row.replans}  "
            f"makespans {'identical' if row.makespans_identical else 'DIFFER'}"
        )
        return
    print(
        f"  {row.algorithm:15s} {row.family:13s} n={row.n:<5d} m={row.m:<8d} "
        f"scalar {row.scalar_seconds:7.3f}s  vectorized {row.vectorized_seconds:7.3f}s  "
        f"speedup {row.speedup:5.1f}x  "
        f"makespans {'identical' if row.makespans_identical else 'DIFFER'}"
    )


def _aggregate(rows: Sequence[BenchRow]) -> Dict[str, float]:
    aggregates: Dict[str, float] = {}
    by_algorithm: Dict[str, List[float]] = {}
    by_algorithm_n1000: Dict[str, List[float]] = {}
    for row in rows:
        if row.algorithm in ("serve", "megabatch"):
            # serve rows time healthy-vs-chaos fleet legs and megabatch rows
            # solo-vs-lockstep packing — neither is a backend ratio; they
            # feed their dedicated aggregates below instead
            continue
        by_algorithm.setdefault(row.algorithm, []).append(row.speedup)
        if row.n >= 1000:
            by_algorithm_n1000.setdefault(row.algorithm, []).append(row.speedup)
    for algorithm, speedups in by_algorithm.items():
        aggregates[f"speedup_{algorithm}"] = _geomean(speedups)
    for algorithm, speedups in by_algorithm_n1000.items():
        aggregates[f"speedup_{algorithm}_n1000"] = _geomean(speedups)
    headline = [
        row.speedup
        for row in rows
        if row.algorithm in TABLE1_ALGORITHMS and row.n >= 1000
    ]
    if headline:
        aggregates["table1_speedup_geomean_n1000"] = _geomean(headline)
        aggregates["table1_speedup_min_n1000"] = min(headline)
    assembly_all = [
        row.speedup
        for row in rows
        if row.algorithm in ("fptas", "two_approx") and row.n >= 1000
    ]
    if assembly_all:
        aggregates["fptas_two_approx_geomean_n1000"] = _geomean(assembly_all)
    # The gated number: Table-1 (mixed-family) instances only — the easy
    # families (heavy-tailed powerwork in particular) finish so fast under
    # the scalar backend that their ratios say little about assembly cost.
    assembly_table1 = [
        row.speedup
        for row in rows
        if row.algorithm in ("fptas", "two_approx") and row.n >= 1000 and row.family == "mixed"
    ]
    if assembly_table1:
        aggregates["fptas_two_approx_table1_geomean_n1000"] = _geomean(assembly_table1)
    # γ-probe warm-start accounting over the instrumented (fptas/two_approx)
    # rows: total probes with the warm-start policy on vs off, and the
    # relative reduction the policy buys.  Recovery rows carry the same
    # counters but measure a different policy (cross-epoch priming), so they
    # are aggregated separately below rather than folded in here.
    warm_total = sum(row.gamma_probes_warm for row in rows if row.algorithm in PROBE_ALGORITHMS)
    cold_total = sum(row.gamma_probes_cold for row in rows if row.algorithm in PROBE_ALGORITHMS)
    if cold_total > 0:
        aggregates["gamma_probes_warm_total"] = float(warm_total)
        aggregates["gamma_probes_cold_total"] = float(cold_total)
        aggregates["gamma_probe_reduction"] = 1.0 - warm_total / cold_total
    # Fault-recovery accounting over the ``recovery`` rows: total re-plan
    # γ-probes warm (cross-epoch priming + bracket narrowing) vs cold, the
    # relative reduction, and the warm loop's re-planning throughput.
    recovery_rows = [row for row in rows if row.algorithm == "recovery"]
    if recovery_rows:
        rec_warm = sum(row.gamma_probes_warm for row in recovery_rows)
        rec_cold = sum(row.gamma_probes_cold for row in recovery_rows)
        rec_replans = sum(row.replans for row in recovery_rows)
        rec_seconds = sum(row.vectorized_seconds for row in recovery_rows)
        if rec_cold > 0:
            aggregates["recovery_probes_warm_total"] = float(rec_warm)
            aggregates["recovery_probes_cold_total"] = float(rec_cold)
            aggregates["recovery_probe_reduction"] = 1.0 - rec_warm / rec_cold
        aggregates["recovery_replans_total"] = float(rec_replans)
        if rec_seconds > 0:
            aggregates["recovery_replans_per_sec"] = rec_replans / rec_seconds
    # Online arrival-epoch accounting over the ``online`` rows: total re-plan
    # γ-probes warm (bracket + prediction reuse across epochs) vs cold,
    # the relative reduction, and the warm loop's re-planning throughput.
    online_rows = [row for row in rows if row.algorithm == "online"]
    if online_rows:
        onl_warm = sum(row.gamma_probes_warm for row in online_rows)
        onl_cold = sum(row.gamma_probes_cold for row in online_rows)
        onl_replans = sum(row.replans for row in online_rows)
        onl_seconds = sum(row.vectorized_seconds for row in online_rows)
        if onl_cold > 0:
            aggregates["online_probes_warm_total"] = float(onl_warm)
            aggregates["online_probes_cold_total"] = float(onl_cold)
            aggregates["online_probe_reduction"] = 1.0 - onl_warm / onl_cold
        aggregates["online_replans_total"] = float(onl_replans)
        if onl_seconds > 0:
            aggregates["online_replans_per_sec"] = onl_replans / onl_seconds
    # Fleet-serving accounting over the ``serve`` rows: instances solved per
    # second with a healthy fleet vs the same fleet under seeded 10% chaos
    # (retries, kills and deadline recycling included in the wall clock).
    serve_rows = [row for row in rows if row.algorithm == "serve"]
    if serve_rows:
        serve_total = sum(row.serve_instances for row in serve_rows)
        healthy_seconds = sum(row.scalar_seconds for row in serve_rows)
        chaos_seconds = sum(row.vectorized_seconds for row in serve_rows)
        if healthy_seconds > 0:
            aggregates["serve_throughput_healthy"] = serve_total / healthy_seconds
        if chaos_seconds > 0:
            aggregates["serve_throughput_chaos"] = serve_total / chaos_seconds
        aggregates["serve_instances_total"] = float(serve_total)
        aggregates["serve_degraded_total"] = float(
            sum(row.serve_degraded for row in serve_rows)
        )
        aggregates["serve_quarantined_total"] = float(
            sum(row.serve_quarantined for row in serve_rows)
        )
    # Mega-batch accounting over the ``megabatch`` rows: the gated geomean
    # reads the fleet >= 32 rows (the regime the lockstep amortisation is
    # promised for); the all-fleet geomean is recorded for the curve.
    mega_rows = [row for row in rows if row.algorithm == "megabatch"]
    if mega_rows:
        aggregates["megabatch_speedup_all"] = _geomean(
            [row.speedup for row in mega_rows]
        )
        gated = [row.speedup for row in mega_rows if row.mega_fleet >= 32]
        if gated:
            aggregates["megabatch_speedup"] = _geomean(gated)
    aggregates["speedup_geomean_all"] = _geomean(
        [row.speedup for row in rows if row.algorithm not in ("serve", "megabatch")]
    )
    return aggregates


def _geomean(values: Sequence[float]) -> float:
    finite = [v for v in values if v > 0 and math.isfinite(v)]
    if not finite:
        return float("nan")
    return math.exp(sum(math.log(v) for v in finite) / len(finite))


def _row_label(row: BenchRow) -> str:
    return f"{row.algorithm}/{row.family} (n={row.n}, m={row.m})"


def _contributing_rows(rows: Sequence[BenchRow], algorithms, family=None) -> List[BenchRow]:
    out = [
        row
        for row in rows
        if row.algorithm in algorithms
        and row.n >= 1000
        and (family is None or row.family == family)
    ]
    return sorted(out, key=lambda r: r.speedup)


def check_regression(
    report: BenchReport,
    baseline_path: str,
    *,
    regression_factor: float = 2.0,
    min_fptas_two_approx: Optional[float] = 8.0,
    min_list_schedule: Optional[float] = 2.0,
    min_recovery: Optional[float] = 0.5,
    min_online: Optional[float] = 0.5,
    min_serve_throughput: Optional[float] = 0.5,
    min_huge_m: Optional[float] = 2.0,
    min_megabatch: Optional[float] = 2.25,
) -> List[str]:
    """Compare per-algorithm speedups against a baseline report.

    Returns a list of human-readable failures (empty = gate passes); every
    aggregate failure also names the contributing (algorithm, family) rows,
    slowest first, so a red gate points at the offending configuration
    directly.  Speedup ratios are used rather than absolute seconds so the
    gate is meaningful on hardware other than the machine that recorded the
    baseline.  A per-algorithm speedup aggregate the current run produced
    but the baseline lacks is itself a *named* failure (the baseline is
    stale — e.g. freshly added rows vs an old ``BENCH_perf_baseline.json``)
    rather than a silent skip or a ``KeyError``.  In addition to the
    relative baseline check, absolute floors are enforced: the
    fptas/two_approx ``n >= 1000`` geomean (``min_fptas_two_approx``, the
    columnar schedule-assembly guarantee), the list_schedule ``n >= 1000``
    geomean (``min_list_schedule``, the event-queue backend guarantee,
    no-tie chain rows included) and the recovery probe reduction (``min_recovery``, the γ-probes the
    cross-epoch warm start must save the fault-recovery re-plans over cold
    bisection) and the online probe reduction (``min_online``, the same
    guarantee for the arrival-epoch re-plans of ``OnlineScheduler``, whose
    warm and cold runs must also stitch identical schedules — an online row
    with diverging makespans fails the identity check below) and the
    fleet-serving throughputs (``min_serve_throughput``,
    instances/sec both healthy and under seeded 10% chaos — the chaos leg
    includes kills, hangs-to-deadline and retries in its wall clock) and the
    astronomical-m geomean (``min_huge_m``, scalar heap loop vs the
    wide-integer columnar event-queue backend at m past 2^53/2^64/2^80) and
    the mega-batch geomean (``min_megabatch``, per-instance solo vectorized
    loop vs one lockstep ``solve_mega`` pack over the fleet >= 32 rows);
    pass ``None`` to skip any of them.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures: List[str] = []
    baseline_aggregates = baseline.get("aggregates", {})
    # a baseline with no speedup aggregates at all records no reference run
    # (floors-only checking); one with *some* is stale when keys are missing
    baseline_has_speedups = any(k.startswith("speedup_") for k in baseline_aggregates)

    def _algorithm_rows(algorithm: str) -> str:
        return ", ".join(
            f"{_row_label(r)}: {r.speedup:.2f}x"
            for r in sorted(
                (r for r in report.rows if r.algorithm == algorithm),
                key=lambda r: r.speedup,
            )
        )

    for key, current in report.aggregates.items():
        if not key.startswith("speedup_"):
            continue
        algorithm = key[len("speedup_") :].removesuffix("_n1000")
        reference = baseline_aggregates.get(key)
        if reference is None:
            # the baseline predates rows the current run produces: name the
            # missing aggregate and its rows instead of silently passing.
            # Only the bare per-algorithm keys are required — every mode
            # records one for each algorithm it sweeps, so a missing one
            # genuinely means the baseline predates the algorithm's rows;
            # the ``_n1000`` refinements and the all-row geomean depend on
            # the recording mode's instance sizes and stay a silent skip.
            if (
                baseline_has_speedups
                and key != "speedup_geomean_all"
                and not key.endswith("_n1000")
            ):
                detail = _algorithm_rows(algorithm)
                failures.append(
                    f"{key}: baseline {baseline_path!r} has no reference for "
                    f"this aggregate — re-record the baseline to cover the "
                    f"new rows" + (f" — rows: {detail}" if detail else "")
                )
            continue
        if not math.isfinite(reference):
            continue
        floor = reference / regression_factor
        if current < floor:
            detail = _algorithm_rows(algorithm)
            failures.append(
                f"{key}: speedup {current:.2f}x fell below {floor:.2f}x "
                f"(baseline {reference:.2f}x / factor {regression_factor})"
                + (f" — rows: {detail}" if detail else "")
            )
    if min_fptas_two_approx is not None:
        # Gate on the Table-1 (mixed-family) geomean; when the run swept no
        # mixed n>=1000 rows, fall back to the all-family geomean rather than
        # silently passing a requested floor without measuring anything.
        key = "fptas_two_approx_table1_geomean_n1000"
        family = "mixed"
        assembly = report.aggregates.get(key)
        if assembly is None:
            key = "fptas_two_approx_geomean_n1000"
            family = None
            assembly = report.aggregates.get(key)
        if assembly is not None and assembly < min_fptas_two_approx:
            detail = ", ".join(
                f"{_row_label(r)}: {r.speedup:.2f}x"
                for r in _contributing_rows(report.rows, ("fptas", "two_approx"), family)
            )
            failures.append(
                f"{key}: {assembly:.2f}x fell below the "
                f"columnar-assembly floor {min_fptas_two_approx:.2f}x — rows: {detail}"
            )
    if min_list_schedule is not None:
        ls = report.aggregates.get("speedup_list_schedule_n1000")
        if ls is not None and ls < min_list_schedule:
            detail = ", ".join(
                f"{_row_label(r)}: {r.speedup:.2f}x"
                for r in _contributing_rows(report.rows, ("list_schedule",))
            )
            failures.append(
                f"speedup_list_schedule_n1000: {ls:.2f}x fell below the "
                f"event-queue floor {min_list_schedule:.2f}x — rows: {detail}"
            )
    if min_recovery is not None:
        reduction = report.aggregates.get("recovery_probe_reduction")
        if reduction is not None and reduction < min_recovery:
            detail = ", ".join(
                f"{_row_label(r)}: warm {r.gamma_probes_warm} vs cold "
                f"{r.gamma_probes_cold} over {r.replans} re-plans"
                for r in sorted(
                    (r for r in report.rows if r.algorithm == "recovery"),
                    key=lambda r: r.gamma_probes_cold - r.gamma_probes_warm,
                )
            )
            failures.append(
                f"recovery_probe_reduction: {100.0 * reduction:.1f}% fell "
                f"below the re-plan warm-start floor "
                f"{100.0 * min_recovery:.1f}% — rows: {detail}"
            )
    if min_online is not None:
        reduction = report.aggregates.get("online_probe_reduction")
        if reduction is not None and reduction < min_online:
            detail = ", ".join(
                f"{_row_label(r)}: warm {r.gamma_probes_warm} vs cold "
                f"{r.gamma_probes_cold} over {r.replans} re-plans"
                for r in sorted(
                    (r for r in report.rows if r.algorithm == "online"),
                    key=lambda r: r.gamma_probes_cold - r.gamma_probes_warm,
                )
            )
            failures.append(
                f"online_probe_reduction: {100.0 * reduction:.1f}% fell "
                f"below the arrival-epoch warm-start floor "
                f"{100.0 * min_online:.1f}% — rows: {detail}"
            )
    if min_huge_m is not None:
        hm = report.aggregates.get("speedup_huge_m")
        if hm is not None and hm < min_huge_m:
            detail = ", ".join(
                f"{_row_label(r)}: {r.speedup:.2f}x"
                for r in sorted(
                    (r for r in report.rows if r.algorithm == "huge_m"),
                    key=lambda r: r.speedup,
                )
            )
            failures.append(
                f"speedup_huge_m: {hm:.2f}x fell below the astronomical-m "
                f"floor {min_huge_m:.2f}x — rows: {detail}"
            )
    if min_megabatch is not None:
        mb = report.aggregates.get("megabatch_speedup")
        if mb is not None and mb < min_megabatch:
            detail = ", ".join(
                f"{_row_label(r)}: {r.speedup:.2f}x (fleet={r.mega_fleet})"
                for r in sorted(
                    (r for r in report.rows if r.algorithm == "megabatch"),
                    key=lambda r: r.speedup,
                )
            )
            failures.append(
                f"megabatch_speedup: {mb:.2f}x fell below the mega-batch "
                f"lockstep floor {min_megabatch:.2f}x — rows: {detail}"
            )
    if min_serve_throughput is not None:
        serve_rows = sorted(
            (r for r in report.rows if r.algorithm == "serve"),
            key=lambda r: r.serve_instances / r.scalar_seconds if r.scalar_seconds else 0.0,
        )
        for key, leg in (
            ("serve_throughput_healthy", "healthy"),
            ("serve_throughput_chaos", "chaos"),
        ):
            throughput = report.aggregates.get(key)
            if throughput is None or throughput >= min_serve_throughput:
                continue
            detail = ", ".join(
                f"{_row_label(r)}: {r.serve_instances} instances in healthy "
                f"{r.scalar_seconds:.2f}s / chaos {r.vectorized_seconds:.2f}s "
                f"({r.serve_degraded} degraded, {r.serve_quarantined} quarantined)"
                for r in serve_rows
            )
            failures.append(
                f"{key}: {throughput:.2f} instances/s ({leg} fleet) fell below "
                f"the fleet-serving floor {min_serve_throughput:.2f} — rows: "
                f"{detail}"
            )
    if not report.identical_makespans:
        mismatched = ", ".join(
            f"{_row_label(r)}: scalar {r.scalar_makespan!r} != "
            f"vectorized {r.vectorized_makespan!r}"
            for r in report.rows
            if not r.makespans_identical
        )
        failures.append(
            "scalar and vectorized backends produced different makespans — "
            f"rows: {mismatched}"
        )
    return failures


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="scalar-vs-vectorized perf regression suite")
    parser.add_argument("--smoke", action="store_true", help="small CI configuration")
    parser.add_argument("--output", default="BENCH_perf.json", help="where to write the report")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=1, help="timing repeats (best-of)")
    parser.add_argument(
        "--families",
        default=None,
        help="comma-separated instance families to sweep "
        f"(default: all of {','.join(DEFAULT_FAMILIES)}); smoke mode assigns "
        "one family per algorithm round-robin",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=1,
        help="fan the per-configuration shards across a multiprocessing pool "
        "(default 1: sequential, best for clean timings); serve shards spawn "
        "worker fleets of their own and always run in the parent",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        default=900.0,
        help="per-shard deadline [s] when --processes > 1: a pooled shard "
        "that does not deliver its row in time fails the run with a named "
        "BenchShardTimeout instead of stalling it (0 disables)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a baseline BENCH_perf.json and exit non-zero on >2x speedup regression",
    )
    parser.add_argument("--regression-factor", type=float, default=2.0)
    parser.add_argument(
        "--min-fptas-two-approx",
        type=float,
        default=8.0,
        help="absolute floor for the fptas/two_approx n>=1000 speedup geomean "
        "on Table-1 (mixed-family) rows, enforced by --check; falls back to "
        "the all-family geomean when the run swept no mixed rows (0 disables)",
    )
    parser.add_argument(
        "--min-list-schedule",
        type=float,
        default=2.0,
        help="absolute floor for the list_schedule n>=1000 speedup geomean "
        "(scalar heap loop vs batched event-queue backend, chain rows "
        "included), enforced by --check (0 disables)",
    )
    parser.add_argument(
        "--min-recovery",
        type=float,
        default=0.5,
        help="absolute floor for recovery_probe_reduction (relative γ-probe "
        "work the cross-epoch warm start saves the fault-recovery re-plans "
        "over cold bisection), enforced by --check (0 disables)",
    )
    parser.add_argument(
        "--min-online",
        type=float,
        default=0.5,
        help="absolute floor for online_probe_reduction (relative γ-probe "
        "work the cross-epoch warm start saves the arrival-epoch re-plans "
        "over cold bisection; warm and cold must stitch identical "
        "schedules), enforced by --check (0 disables)",
    )
    parser.add_argument(
        "--min-serve-throughput",
        type=float,
        default=0.5,
        help="absolute floor for serve_throughput_healthy and "
        "serve_throughput_chaos (fleet instances/sec, healthy and under "
        "seeded 10%% chaos), enforced by --check (0 disables)",
    )
    parser.add_argument(
        "--min-huge-m",
        type=float,
        default=2.0,
        help="absolute floor for the huge_m speedup geomean (scalar heap "
        "loop vs wide-integer columnar event-queue backend at astronomical "
        "machine counts), enforced by --check (0 disables)",
    )
    parser.add_argument(
        "--min-megabatch",
        type=float,
        default=2.25,
        help="absolute floor for the megabatch speedup geomean (per-instance "
        "solo vectorized loop vs one lockstep solve_mega pack, fleet >= 32 "
        "rows), enforced by --check (0 disables)",
    )
    args = parser.parse_args(argv)

    families = [f.strip() for f in args.families.split(",") if f.strip()] if args.families else None
    mode = "smoke" if args.smoke else "full"
    print(f"perf suite ({mode} mode, seed {args.seed})")
    report = run_suite(
        mode,
        seed=args.seed,
        repeat=args.repeat,
        families=families,
        processes=args.processes,
        shard_timeout=args.shard_timeout or None,
    )
    with open(args.output, "w") as fh:
        fh.write(report.to_json() + "\n")
    print(f"wrote {args.output}")
    for key in sorted(report.aggregates):
        value = report.aggregates[key]
        if key in (
            "gamma_probe_reduction",
            "recovery_probe_reduction",
            "online_probe_reduction",
        ):
            print(f"  {key}: {100.0 * value:.1f}%")
        elif key in ("recovery_replans_per_sec", "online_replans_per_sec"):
            print(f"  {key}: {value:.1f}/s")
        elif key.startswith("serve_throughput_"):
            print(f"  {key}: {value:.2f}/s")
        elif key.startswith(
            ("gamma_probes_", "recovery_", "serve_", "online_")
        ):
            print(f"  {key}: {value:.0f}")
        else:
            print(f"  {key}: {value:.2f}x")
    print(f"  identical makespans: {report.identical_makespans}")

    if args.check:
        try:
            failures = check_regression(
                report,
                args.check,
                regression_factor=args.regression_factor,
                min_fptas_two_approx=args.min_fptas_two_approx or None,
                min_list_schedule=args.min_list_schedule or None,
                min_recovery=args.min_recovery or None,
                min_online=args.min_online or None,
                min_serve_throughput=args.min_serve_throughput or None,
                min_huge_m=args.min_huge_m or None,
                min_megabatch=args.min_megabatch or None,
            )
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read baseline {args.check!r}: {exc}", file=sys.stderr)
            return 2
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("regression gate passed")
    return 0 if report.identical_makespans else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
