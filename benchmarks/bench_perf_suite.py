#!/usr/bin/env python
"""Scalar-vs-vectorized performance regression suite.

Times every algorithm driver on a *multi-family* instance sweep (the mixed
Table-1 workload of the paper's running-time study plus power-law-work,
communication-bound, bimodal, tiny-n/huge-m and chain families) under both
backends and writes ``BENCH_perf.json``: per row the wall clock of each
backend, the speedup and whether the two backends produced *identical*
makespans (they must — the vectorized layer is bit-compatible); per report
the aggregates (per-algorithm speedup geomeans, γ-probe and re-plan
accounting, fleet throughput).

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_suite.py            # full suite
    PYTHONPATH=src python benchmarks/bench_perf_suite.py --smoke \\
        --check benchmarks/BENCH_perf_baseline.json                 # CI gate

Each (algorithm, family, n, m) configuration is one *shard*: ``--processes``
fans the shards across a ``multiprocessing`` pool (both legs of a shard stay
in the same worker so their ratio is unaffected by pool contention), each
pooled shard must deliver its row within ``--shard-timeout``, and the rows
are merged back in configuration order.  ``serve`` shards spawn worker fleets
of their own, so they always run in the parent.  ``--smoke`` runs a small
configuration suitable for CI; with ``--families`` it assigns one family per
algorithm round-robin, so a short run still touches every requested family.

``--check BASELINE`` fails (exit 1) when either timed leg of a row takes more
than ``REGRESSION_FACTOR`` times its baseline row's seconds, when the baseline
lacks a row the run produces, when any absolute floor of :data:`GATES` is
undershot, or when the two legs of any row disagree on the makespan.  Every
failure names its rows.  Seconds do not transfer across machines or across
phases of a shared host, so every row also records a :func:`yardstick`
reading (a fixed pure-Python job timed around the row), and a leg is compared
at the baseline row's speed: scaled by ``baseline yardstick / row
yardstick``.  Each leg is gated on its own, so a faster scalar reference
cannot read as a vectorized regression.  A leg's seconds are per call: each
repeat calls it until the calls fill :data:`_MIN_LEG_SECONDS`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
# the scalar leg of the list-scheduling rows times the tests' reference loop
sys.path.insert(0, os.path.join(_ROOT, "tests", "core"))

from repro.core.fptas import fptas_schedule  # noqa: E402
from repro.core.scheduler import DRIVERS  # noqa: E402
from repro.core.two_approx import two_approximation  # noqa: E402
from repro.knapsack.compressible import _geom_cached  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    random_bimodal_instance,
    random_chain_instance,
    random_communication_instance,
    random_mixed_instance,
    random_power_work_instance,
)
from reference_list_scheduling import reference_list_schedule  # noqa: E402

#: Algorithms whose n>=1000 speedups form the headline geometric mean (the
#: paper's Table 1 covers the (3/2+eps) dual algorithms; MRT is its baseline).
TABLE1_ALGORITHMS = ("mrt", "compressible", "bounded_heap")

#: Algorithms whose γ-probe counts are recorded warm vs cold (the oracle
#: warm-start instrumentation rows).
PROBE_ALGORITHMS = ("fptas", "two_approx")

#: All backend-swept algorithms: the Table-1 set, the columnar-assembly
#: headliners and the isolated list-scheduling phase (the tests' scalar heap
#: reference vs the library's event-queue scheduler on a fixed estimator
#: allotment).  The recovery, online, serve, huge_m and megabatch shards are
#: end-to-end loops or pin their own axis, so they stay out of the
#: tiny_n_huge_m sweep.
ALL_ALGORITHMS = TABLE1_ALGORITHMS + (
    "fptas",
    "two_approx",
    "list_schedule",
)

SCHEDULE_EPS = 0.1
FPTAS_EPS = 0.5

#: A row's leg may take up to ``REGRESSION_FACTOR`` times its baseline seconds
#: (both at the baseline row's machine speed).
REGRESSION_FACTOR = 2.0

#: Yardstick readings taken before and after each row's legs.  The row keeps
#: the fastest, as its legs keep their fastest repeat: a transient slowdown
#: then moves neither.
_YARDSTICK_READINGS = 3

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

#: Machine counts of the ``huge_m`` rows (scalar heap reference vs the
#: event-queue scheduler, exact in Python ints): just past the exact-float
#: boundary, past int64, and far past it.
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
    #: Re-plans of the ``recovery``/``online`` rows (0 for every other
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
    #: Fastest :func:`yardstick` seconds around the row's legs: the machine
    #: speed the seconds gate scales them by (0 = not measured).
    yardstick_seconds: float = 0.0


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
    """The row's timed call: its facade driver (``bounded_heap``, the Table 1
    row, is Algorithm 3) straight from :data:`repro.core.scheduler.DRIVERS`."""
    name = "bounded" if algorithm == "bounded_heap" else algorithm
    run = DRIVERS[name].run
    eps = FPTAS_EPS if name == "fptas" else SCHEDULE_EPS
    return lambda jobs, m, backend: run(jobs, m, eps, backend=backend)


def yardstick() -> float:
    """Seconds a fixed pure-Python job (build, hash and sort 10k tuples) takes
    now.  Other tenants of a shared host slow this process for phases of
    seconds to minutes; the yardstick slows with it, so a leg's seconds
    divided by the yardstick's compare across runs and machines.  Collected
    first, so a garbage backlog left by the previous row is not timed."""
    gc.collect()
    t0 = time.perf_counter()
    items = [((i * 7919) % 10007, str(i)) for i in range(10000)]
    dict(items)
    items.sort()
    return time.perf_counter() - t0


#: Least wall time of one repeat of a leg: the repeat's seconds are the mean
#: over as many back-to-back calls as that takes.  Single calls of 5-30 ms
#: are too short for the 2x seconds gate on a shared host.
_MIN_LEG_SECONDS = 0.2


def _timed(fn: Callable[[], object], repeat: int, jobs) -> tuple[float, object]:
    """Best over ``repeat`` repeats of the mean seconds per call of ``fn``,
    where each repeat calls ``fn`` until the calls add up to
    :data:`_MIN_LEG_SECONDS`; returns it with the last call's result."""
    best = math.inf
    result = None
    for _ in range(max(1, repeat)):
        total, calls = 0.0, 0
        while calls == 0 or total < _MIN_LEG_SECONDS:
            # Clear every cross-run memo so neither backend benefits from a
            # previous (possibly other-backend) run of the same instance: the
            # geometric-grid cache and the per-job processing-time memos.
            _geom_cached.cache_clear()
            for job in jobs:
                job.clear_memo()
            start = time.perf_counter()
            result = fn()
            total += time.perf_counter() - start
            calls += 1
        best = min(best, total / calls)
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
        # is measured on meaningful instances.  Only requested families are
        # ever swept: a tiny_n_huge_m-only run gets tiny-shaped coverage rows
        # instead (and therefore no n>=1000 floor measurement — there is
        # nothing honest to measure there); the chain family only ever
        # sweeps the list_schedule shard below.
        gate_families = [f for f in families if f not in ("tiny_n_huge_m", "chain")]
        if gate_families:
            family = gate_families[0]
            configs += [
                dict(algorithm="fptas", family=family, n=2000, m=_fptas_m(2000)),
                dict(algorithm="two_approx", family=family, n=2000, m=16000),
                dict(algorithm="list_schedule", family=family, n=2000, m=16000),
                # the seeded fault plan forces several re-plan epochs
                dict(algorithm="recovery", family=family, n=80, m=64),
                # cold vs warm-started γ re-planning across arrival epochs
                dict(algorithm="online", family=family, n=80, m=64),
                # a small fleet of independent instances, healthy vs chaos
                dict(algorithm="serve", family=family, n=40, m=64),
            ]
            configs += [
                dict(algorithm="huge_m", family=family, n=2000, m=m) for m in _HUGE_MS
            ]
            configs += [
                dict(algorithm="megabatch", family=family, n=_MEGA_N, m=8 * _MEGA_N, fleet=fleet)
                for fleet in _MEGA_FLEETS
            ]
        elif "tiny_n_huge_m" in families:
            configs += [
                dict(algorithm=alg, family="tiny_n_huge_m", n=_TINY_N, m=_TINY_M)
                for alg in ("fptas", "two_approx", "list_schedule")
            ]
        if "chain" in families:
            # keeps the deep-queue no-tie regime under the event-queue floor
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
    first_gate_family = next((f for f in families if f not in ("tiny_n_huge_m", "chain")), None)
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
            dict(algorithm=alg, family=family, n=n, m=8 * n)
            for alg in ("two_approx", "list_schedule")
            for n in gate_sizes
        ]
        configs += [
            dict(algorithm="recovery", family=family, n=200, m=256),
            dict(algorithm="online", family=family, n=200, m=256),
            dict(algorithm="serve", family=family, n=60, m=96),
        ]
        # the m axis (huge_m) and the fleet axis (megabatch) are the
        # variables of these rows, not the family: sweep them once
        if family == first_gate_family:
            configs += [
                dict(algorithm="huge_m", family=family, n=n, m=m)
                for n in (1000, 2000)
                for m in _HUGE_MS
            ]
            configs += [
                dict(algorithm="megabatch", family=family, n=_MEGA_N, m=8 * _MEGA_N, fleet=fleet)
                for fleet in _MEGA_FLEETS
            ]
    return configs


# Every shard returns ``(scalar_seconds, scalar_makespan, vectorized_seconds,
# vectorized_makespan, extra)``: the two timed legs fill the row's
# scalar/vectorized slots and ``extra`` holds the row's remaining fields
# (``makespans_identical`` defaults to the two makespans being equal).


def _backend_shard(config: dict, seed: int, repeat: int) -> tuple:
    """Time one driver under ``backend="scalar"`` and ``"vectorized"``;
    ``fptas``/``two_approx`` also record the vectorized run's γ-probe totals
    warm vs cold (separate untimed passes, results bit-identical)."""
    from repro.perf.oracle import BatchedOracle

    algorithm, m = config["algorithm"], config["m"]
    jobs = FAMILIES[config["family"]](config["n"], m, seed=seed).jobs
    runner = _runner_for(algorithm)
    scalar_seconds, scalar_result = _timed(lambda: runner(jobs, m, "scalar"), repeat, jobs)
    vec_seconds, vec_result = _timed(lambda: runner(jobs, m, "vectorized"), repeat, jobs)
    extra = {}
    if algorithm in PROBE_ALGORITHMS:
        probes = []
        for warm in (True, False):
            oracle = BatchedOracle(jobs, m, warm_start=warm)
            for job in jobs:
                job.clear_memo()
            if algorithm == "fptas":
                fptas_schedule(jobs, m, FPTAS_EPS, oracle=oracle)
            else:
                two_approximation(jobs, m, oracle=oracle)
            probes.append(oracle.gamma_probes)
        extra = dict(gamma_probes_warm=probes[0], gamma_probes_cold=probes[1])
    return scalar_seconds, scalar_result.makespan, vec_seconds, vec_result.makespan, extra


def _list_schedule_shard(config: dict, seed: int, repeat: int) -> tuple:
    """Time the isolated list-scheduling phase: the tests' scalar heap
    reference (``tests/core/reference_list_scheduling.py``) vs the library's
    event-queue scheduler on the *same* estimator allotment and LPT order
    (prepared once, untimed).

    ``huge_m`` rows time the same pair at astronomical m, where both
    schedulers allocate spans in Python ints.  ``BatchedOracle`` rejects m
    beyond the float64 integer range — exactly the regime those rows measure
    — so their allotment comes from the scalar estimator.
    """
    import numpy as np

    from repro.core.bounds import ludwig_tiwari_estimator
    from repro.core.list_scheduling import list_schedule
    from repro.perf.oracle import BatchedOracle

    m = config["m"]
    jobs = FAMILIES[config["family"]](config["n"], m, seed=seed).jobs
    oracle = None if config["algorithm"] == "huge_m" else BatchedOracle(jobs, m)
    allotment = ludwig_tiwari_estimator(jobs, m, oracle=oracle).allotment
    counts = allotment.counts
    times = np.array([job.processing_time(counts[job]) for job in jobs], dtype=np.float64)
    perm = np.argsort(-times, kind="stable")
    order = [jobs[i] for i in perm.tolist()]
    durations = times[perm].tolist()
    # a single repeat of the huge_m scalar leg has read 0.0225 s against a
    # 0.0220 s gate on a shared host: keep the best of at least three
    repeat = max(repeat, 3)
    scalar_seconds, scalar_result = _timed(
        lambda: reference_list_schedule(jobs, allotment, m, order=order), repeat, jobs
    )
    vec_seconds, vec_result = _timed(
        lambda: list_schedule(jobs, allotment, m, order=order, durations=durations),
        repeat,
        jobs,
    )
    return scalar_seconds, scalar_result.makespan, vec_seconds, vec_result.makespan, {}


def _replan_legs(cold: tuple, warm: tuple) -> tuple:
    """Shard result of a re-planning loop timed cold (full γ bisection) and
    warm-started: the cold run fills the row's scalar slot, the warm run its
    vectorized slot, and the probe counters come from each run's report."""
    (cold_seconds, cold_result), (warm_seconds, warm_result) = cold, warm
    extra = dict(
        gamma_probes_warm=int(warm_result.report.gamma_probes or 0),
        gamma_probes_cold=int(cold_result.report.gamma_probes or 0),
        replans=int(warm_result.report.replans),
    )
    return cold_seconds, cold_result.makespan, warm_seconds, warm_result.makespan, extra


def _recovery_shard(config: dict, seed: int, repeat: int) -> tuple:
    """Time the fault-recovery loop cold vs warm on the *same* fault plan.

    Both runs drain-and-replan through the identical seeded
    :func:`random_fault_plan`; the only difference is the γ-cache policy of
    the per-epoch re-plan oracles (``warm_start`` + cross-epoch priming on
    vs cold full bisection), and the stitched schedules are bit-identical.
    Both runs pin ``backend="vectorized"``: under ``"auto"`` small re-plans
    run scalar and build no oracle, and the rows would stop measuring the
    warm start.  A fault epoch whose drain barrier lies past the next fault
    epoch does not solve, so the row's ``replans`` and probe totals count
    only the solves that ran, and priming hands each solve the oracle of
    the solve before it.
    """
    from repro.core.bounds import trivial_lower_bound
    from repro.resilience import random_fault_plan, recover_with_faults

    m = config["m"]
    jobs = FAMILIES[config["family"]](config["n"], m, seed=seed).jobs
    horizon = 1.5 * trivial_lower_bound(jobs, m)
    plan = random_fault_plan(
        [job.name for job in jobs],
        m,
        seed=seed ^ 0x5EED,
        failures=3,
        kills=2,
        horizon=max(horizon, 1.0),
    )

    def _recover(warm_start):
        return lambda: recover_with_faults(
            jobs, m, plan, eps=SCHEDULE_EPS, algorithm="two_approx",
            backend="vectorized", warm_start=warm_start,
        )

    return _replan_legs(
        _timed(_recover(False), repeat, jobs), _timed(_recover(True), repeat, jobs)
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


def _online_shard(config: dict, seed: int, repeat: int) -> tuple:
    """Time the online arrival-epoch loop cold vs warm on the *same* stream.

    Both runs consume the identical seeded :func:`random_arrivals_instance`
    stream under the ``immediate`` epoch policy; the only difference is the
    γ-cache policy of the per-epoch re-plan oracles (``warm_start`` bracket +
    prediction reuse on vs cold full bisection).  The stitched schedules
    must be bit-identical — the warm start is a pure accelerator.  Both runs
    pin ``backend="vectorized"``, as the recovery rows do.  While a long job
    drains, each arrival's plan would be returned unstarted by the next
    arrival, so such epochs do not solve: the row's ``replans`` and probe
    totals count one solve per drained batch plus the last epoch, not one
    per arrival.
    """
    from repro.online import OnlineScheduler
    from repro.workloads.generators import random_arrivals_instance

    family, n, m = config["family"], config["n"], config["m"]
    instance = random_arrivals_instance(
        n, m, seed=seed ^ 0x0411E, base=_ONLINE_BASES.get(family, "mixed")
    )

    def _run(warm_start):
        return lambda: OnlineScheduler(
            m, eps=SCHEDULE_EPS, algorithm="two_approx", backend="vectorized",
            warm_start=warm_start,
        ).run(instance.arrivals)

    cold = _timed(_run(False), repeat, instance.jobs)
    warm = _timed(_run(True), repeat, instance.jobs)
    cold_entries, warm_entries = (
        [(e.job.name, e.start, tuple(e.spans)) for e in result.schedule.entries]
        for _, result in (cold, warm)
    )
    if warm_entries != cold_entries:
        raise RuntimeError(
            f"online/{family} (n={n}, m={m}): warm-started re-planning "
            f"stitched a different schedule than cold — the warm start must "
            f"be a pure accelerator"
        )
    return _replan_legs(cold, warm)


#: Fleet shape of the ``serve`` shards: instances per fleet and worker count.
_SERVE_FLEET = 12
_SERVE_WORKERS = 4
#: Injected failure probability of the chaos leg (split kill/hang/raise).
_SERVE_CHAOS = 0.10


def _serve_shard(config: dict, seed: int, repeat: int) -> tuple:
    """Time the fleet scheduler healthy vs under ~10% injected chaos.

    One fleet of ``_SERVE_FLEET`` seeded instances is built once; the healthy
    leg fills the row's scalar slot, the chaos leg (seeded 10%
    kill/hang/raise, deadlines + retries live) its vectorized slot.  The
    makespan identity check compares solo ``two_approximation`` runs of the
    instances (the scalar makespan) against the healthy fleet's summed
    makespans — the isolation layer must be bit-transparent.  The healthy leg
    keeps the best of at least three repeats.  Both legs must return a
    *complete* report; an unaccounted instance fails the shard loudly.
    """
    from repro.serve import ChaosPolicy, FleetInstance, ServePolicy, schedule_many

    family, n, m = config["family"], config["n"], config["m"]
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
            job.clear_memo()
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

    # one healthy run is ~0.1 s, mostly forking workers and IPC, and single
    # readings of it spread 2x: keep the best of at least three
    healthy_seconds, healthy_report = _timed(
        lambda: _fleet(healthy_policy, None), max(repeat, 3), []
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
    extra = dict(
        serve_instances=_SERVE_FLEET,
        serve_degraded=len(chaos_report.degraded),
        serve_quarantined=len(chaos_report.quarantined),
    )
    return healthy_seconds, solo_total, chaos_seconds, healthy_total, extra


def _megabatch_shard(config: dict, seed: int, repeat: int) -> tuple:
    """Time a fleet of small instances solo-vectorized vs one lockstep pack.

    The solo leg runs ``schedule_moldable`` per instance (vectorized backend,
    one γ-bisection per instance); the mega leg hands the *same* fleet to
    ``solve_mega`` as a single :class:`~repro.perf.megabatch.MegaBatch`, so
    every batched kernel call is shared across instances.  Results must be
    bit-identical per instance — the speedup is pure dispatch amortisation.
    """
    from repro.core.scheduler import schedule_moldable
    from repro.perf.megabatch import solve_mega

    n, m, fleet = config["n"], config["m"], config["fleet"]
    # both legs are sub-second even at fleet 128; best-of-3 minimum keeps
    # the gated ratio out of scheduler-jitter territory
    repeat = max(repeat, 3)
    generator = FAMILIES[config["family"]]
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
    extra = dict(mega_fleet=fleet, makespans_identical=identical)
    return solo_seconds, solo_total, mega_seconds, mega_total, extra


_SHARDS: Dict[str, Callable[[dict, int, int], tuple]] = {
    "list_schedule": _list_schedule_shard,
    "huge_m": _list_schedule_shard,
    "recovery": _recovery_shard,
    "online": _online_shard,
    "serve": _serve_shard,
    "megabatch": _megabatch_shard,
}


def _bench_shard(task: tuple) -> BenchRow:
    """Time one (algorithm, family, n, m) shard and return its row.

    Module-level so a ``multiprocessing`` pool can pickle it; the instance is
    regenerated inside the worker from (family, n, m, seed), and both legs
    run in the *same* worker so pool contention cancels out of the ratio.
    """
    config, seed, repeat = task
    algorithm = config["algorithm"]
    shard = _SHARDS.get(algorithm, _backend_shard)
    speed = [yardstick() for _ in range(_YARDSTICK_READINGS)]
    scalar_seconds, scalar_makespan, vec_seconds, vec_makespan, extra = shard(
        config, seed, repeat
    )
    speed += [yardstick() for _ in range(_YARDSTICK_READINGS)]
    extra.setdefault("makespans_identical", scalar_makespan == vec_makespan)
    return BenchRow(
        algorithm=algorithm,
        family=config["family"],
        n=config["n"],
        m=config["m"],
        eps=FPTAS_EPS if algorithm == "fptas" else SCHEDULE_EPS,
        scalar_seconds=scalar_seconds,
        vectorized_seconds=vec_seconds,
        speedup=scalar_seconds / vec_seconds if vec_seconds > 0 else math.inf,
        scalar_makespan=scalar_makespan,
        vectorized_makespan=vec_makespan,
        yardstick_seconds=min(speed),
        **extra,
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
    from repro.serve.deadlines import Deadline

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
    tasks = [(config, seed, repeat) for config in _configs(mode, family_names)]
    if processes > 1:
        try:
            # fork inherits sys.path (this script extends it at runtime);
            # spawn is the fallback for platforms without fork.
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
        if verbose:
            for row in rows:
                _print_row(row)
    else:
        rows = []
        for task in tasks:
            rows.append(_bench_shard(task))
            if verbose:
                _print_row(rows[-1])
    for row in rows:
        report.rows.append(row)
        report.identical_makespans &= row.makespans_identical
    report.aggregates = _aggregate(report.rows)
    return report


#: Names of a row's two timed legs, where they are not the two backends.
_LEG_NAMES = {
    "serve": ("healthy", "chaos"),
    "megabatch": ("solo", "mega"),
    "online": ("cold", "warm"),
    "recovery": ("cold", "warm"),
}


def _print_row(row: BenchRow) -> None:
    first, second = _LEG_NAMES.get(row.algorithm, ("scalar", "vectorized"))
    if row.algorithm == "serve":
        tail = (
            f"{row.serve_instances} instances "
            f"({row.serve_degraded} degraded, {row.serve_quarantined} quarantined)"
        )
    elif row.algorithm in ("online", "recovery"):
        tail = (
            f"probes {row.gamma_probes_warm} vs {row.gamma_probes_cold}  "
            f"re-plans {row.replans}"
        )
    else:
        tail = f"speedup {row.speedup:5.1f}x"
        if row.mega_fleet:
            tail += f"  fleet={row.mega_fleet}"
    print(
        f"  {row.algorithm:15s} {row.family:13s} n={row.n:<5d} m={row.m:<8d} "
        f"{first} {row.scalar_seconds:7.3f}s  {second} {row.vectorized_seconds:7.3f}s  "
        f"{tail}  makespans {'identical' if row.makespans_identical else 'DIFFER'}"
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
    # relative reduction the policy buys.
    warm_total = sum(row.gamma_probes_warm for row in rows if row.algorithm in PROBE_ALGORITHMS)
    cold_total = sum(row.gamma_probes_cold for row in rows if row.algorithm in PROBE_ALGORITHMS)
    if cold_total > 0:
        aggregates["gamma_probes_warm_total"] = float(warm_total)
        aggregates["gamma_probes_cold_total"] = float(cold_total)
        aggregates["gamma_probe_reduction"] = 1.0 - warm_total / cold_total
    # Re-plan accounting over the ``recovery`` (fault epochs) and ``online``
    # (arrival epochs) rows: total re-plan γ-probes warm vs cold, the
    # relative reduction, and the warm loop's re-planning throughput.  The
    # two loops warm-start differently, so they never share an aggregate.
    for loop in ("recovery", "online"):
        loop_rows = [row for row in rows if row.algorithm == loop]
        if not loop_rows:
            continue
        warm = sum(row.gamma_probes_warm for row in loop_rows)
        cold = sum(row.gamma_probes_cold for row in loop_rows)
        replans = sum(row.replans for row in loop_rows)
        seconds = sum(row.vectorized_seconds for row in loop_rows)
        if cold > 0:
            aggregates[f"{loop}_probes_warm_total"] = float(warm)
            aggregates[f"{loop}_probes_cold_total"] = float(cold)
            aggregates[f"{loop}_probe_reduction"] = 1.0 - warm / cold
        aggregates[f"{loop}_replans_total"] = float(replans)
        if seconds > 0:
            aggregates[f"{loop}_replans_per_sec"] = replans / seconds
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


#: How an aggregate (and a gate's floor) prints, per unit.
_FORMATS: Dict[str, Callable[[float], str]] = {
    "x": lambda v: f"{v:.2f}x",
    "%": lambda v: f"{100.0 * v:.1f}%",
    "/s": lambda v: f"{v:.2f}/s",
    "count": lambda v: f"{v:.0f}",
}


@dataclass(frozen=True)
class Gate:
    """One absolute floor ``--check`` enforces on an aggregate."""

    #: The gated aggregate: the first of these keys the report carries (a
    #: run that produced none of them has nothing to gate).
    keys: Tuple[str, ...]
    floor: float
    #: What the floor guarantees, as the failure message names it.
    name: str
    #: Key of :data:`_FORMATS` for the aggregate and the floor.
    unit: str
    #: The rows that feed the aggregate, worst first.
    rows: Callable[[Sequence[BenchRow]], List[BenchRow]]
    #: One row's entry in the failure message, after its label.
    detail: Callable[[BenchRow], str]


def _rows_of(*algorithms: str, n1000: bool = False, worst=lambda r: r.speedup) -> Callable:
    def select(rows: Sequence[BenchRow]) -> List[BenchRow]:
        chosen = (r for r in rows if r.algorithm in algorithms and (r.n >= 1000 or not n1000))
        return sorted(chosen, key=worst)

    return select


def _speedup(row: BenchRow) -> str:
    return f"{row.speedup:.2f}x"


def _probes(row: BenchRow) -> str:
    return (
        f"warm {row.gamma_probes_warm} vs cold {row.gamma_probes_cold} "
        f"over {row.replans} re-plans"
    )


def _probes_saved(row: BenchRow) -> int:
    return row.gamma_probes_cold - row.gamma_probes_warm


def _fleet_legs(row: BenchRow) -> str:
    return (
        f"{row.serve_instances} instances in healthy {row.scalar_seconds:.2f}s / "
        f"chaos {row.vectorized_seconds:.2f}s "
        f"({row.serve_degraded} degraded, {row.serve_quarantined} quarantined)"
    )


def _healthy_rate(row: BenchRow) -> float:
    return row.serve_instances / row.scalar_seconds if row.scalar_seconds else 0.0


#: The absolute floors of ``--check``.
GATES: Tuple[Gate, ...] = (
    # scalar heap reference vs event-queue list scheduling (no-tie chain
    # rows included)
    Gate(
        ("speedup_list_schedule_n1000",), 2.0, "event-queue floor", "x",
        _rows_of("list_schedule", n1000=True), _speedup,
    ),
    # γ-probes the cross-epoch warm start saves the fault-recovery re-plans
    Gate(
        ("recovery_probe_reduction",), 0.5, "re-plan warm-start floor", "%",
        _rows_of("recovery", worst=_probes_saved), _probes,
    ),
    # the same for the arrival-epoch re-plans of OnlineScheduler
    Gate(
        ("online_probe_reduction",), 0.5, "arrival-epoch warm-start floor", "%",
        _rows_of("online", worst=_probes_saved), _probes,
    ),
    # fleet instances/sec, healthy and under seeded 10% chaos (kills,
    # hangs-to-deadline and retries in the wall clock)
    Gate(
        ("serve_throughput_healthy",), 0.5, "fleet-serving floor", "/s",
        _rows_of("serve", worst=_healthy_rate), _fleet_legs,
    ),
    Gate(
        ("serve_throughput_chaos",), 0.5, "fleet-serving floor", "/s",
        _rows_of("serve", worst=_healthy_rate), _fleet_legs,
    ),
    # scalar heap reference vs the event queue at m past 2^53
    Gate(
        ("speedup_huge_m",), 2.0, "astronomical-m floor", "x",
        _rows_of("huge_m"), _speedup,
    ),
    # per-instance solo vectorized loop vs one lockstep solve_mega pack
    Gate(
        ("megabatch_speedup",), 2.25, "mega-batch lockstep floor", "x",
        _rows_of("megabatch"), lambda r: f"{r.speedup:.2f}x (fleet={r.mega_fleet})",
    ),
)


def _unit(key: str) -> str:
    for gate in GATES:
        if key in gate.keys:
            return gate.unit
    if key.endswith("_reduction"):
        return "%"
    if key.endswith("_per_sec"):
        return "/s"
    if key.endswith("_total"):
        return "count"
    return "x"


#: Rows the seconds gate skips: the serve legs time process start-up and
#: injected chaos waits, and the fleet-serving floors gate them instead.
_UNGATED_LEGS = ("serve",)


def _row_key(row: dict) -> tuple:
    """What identifies a row across runs: its configuration."""
    return (row["algorithm"], row["family"], row["n"], row["m"], row.get("mega_fleet", 0))


def _leg_failures(row: BenchRow, reference: dict) -> List[str]:
    """``row``'s legs that take more than ``REGRESSION_FACTOR`` times their
    ``reference`` (baseline row) seconds, both at the reference's speed."""
    speed, reference_speed = row.yardstick_seconds, reference.get("yardstick_seconds", 0.0)
    scale = reference_speed / speed if speed > 0 and reference_speed > 0 else 1.0
    failures = []
    names = _LEG_NAMES.get(row.algorithm, ("scalar", "vectorized"))
    for name, leg in zip(names, ("scalar_seconds", "vectorized_seconds")):
        seconds, limit = getattr(row, leg) * scale, reference[leg] * REGRESSION_FACTOR
        if seconds > limit:
            failures.append(
                f"{_row_label(row)}: {name} leg {seconds:.4f}s at baseline speed "
                f"exceeds {limit:.4f}s (baseline {reference[leg]:.4f}s x factor "
                f"{REGRESSION_FACTOR:g})"
            )
    return failures


def check_regression(
    report: BenchReport, baseline_path: str, *, gates: Sequence[Gate] = GATES
) -> List[str]:
    """Compare a report against a baseline report and the absolute floors.

    Returns human-readable failures (empty = gate passes), each naming its
    rows.  Each timed leg of a row (both backends, or the row's two
    :data:`_LEG_NAMES`) fails when it takes more than ``REGRESSION_FACTOR``
    times the baseline row's seconds, scaled to the baseline row's
    :func:`yardstick` speed; a row the baseline lacks fails too (the
    baseline is stale and must be re-recorded).  A baseline with no rows at
    all means "floors only".  Each of ``gates`` fails when its aggregate is
    under its floor, and any row whose two legs disagree on the makespan
    fails the identity check.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures: List[str] = []
    references = {_row_key(row): row for row in baseline.get("rows", [])}

    def _named(rows: Sequence[BenchRow], detail: Callable[[BenchRow], str]) -> str:
        return ", ".join(f"{_row_label(r)}: {detail(r)}" for r in rows)

    if references:
        for row in report.rows:
            if row.algorithm in _UNGATED_LEGS:
                continue
            reference = references.get(_row_key(asdict(row)))
            if reference is None:
                failures.append(
                    f"{_row_label(row)}: baseline {baseline_path!r} has no such row "
                    f"— re-record the baseline to cover the new rows"
                )
            else:
                failures += _leg_failures(row, reference)
    for gate in gates:
        key = next((k for k in gate.keys if k in report.aggregates), None)
        # a NaN aggregate (no finite ratio to average) is not a breach
        if key is None or not report.aggregates[key] < gate.floor:
            continue
        fmt = _FORMATS[gate.unit]
        failures.append(
            f"{key}: {fmt(report.aggregates[key])} fell below the {gate.name} "
            f"{fmt(gate.floor)} — rows: {_named(gate.rows(report.rows), gate.detail)}"
        )
    if not report.identical_makespans:
        mismatched = _named(
            [r for r in report.rows if not r.makespans_identical],
            lambda r: f"scalar {r.scalar_makespan!r} != vectorized {r.vectorized_makespan!r}",
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
        help="compare against a baseline BENCH_perf.json and exit non-zero when a "
        f"leg takes over {REGRESSION_FACTOR:g}x its baseline seconds (at the "
        "baseline's yardstick speed), on a stale baseline, an undershot floor "
        "(GATES) or a makespan mismatch",
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
        print(f"  {key}: {_FORMATS[_unit(key)](report.aggregates[key])}")
    print(f"  identical makespans: {report.identical_makespans}")

    if args.check:
        try:
            failures = check_regression(report, args.check)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read baseline {args.check!r}: {exc}", file=sys.stderr)
            return 2
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("regression gate passed")
    return 0 if report.identical_makespans else 1


if __name__ == "__main__":
    raise SystemExit(main())
