"""Cross-backend differential testing harness.

Every algorithm driver is one body that runs on two bit-identical
executors (:mod:`repro.perf.oracle`) — exactly the structure differential
testing exploits: run both on the same random instance and *any*
disagreement is a bug in one of them, no oracle needed.  The comparison
covers :data:`BACKENDS`:

* ``"scalar"`` — the body on the per-job ``ScalarOracle``;
* ``"vectorized"`` — the body on the lockstep ``BatchedOracle``.

A *case* is a small JSON-able dict ``{driver, family, n, m, eps, seed}``:
the instance is regenerated from the family generator and the seed, so a
failing case costs a few dozen bytes to persist.  :func:`run_case` executes
every backend and asserts

* identical schedules: same entry order, job names, start times, processor
  counts and machine spans (compared columnar, so a 10^3-entry schedule
  costs a handful of array comparisons);
* identical makespans (also re-checked via the schedule columns);
* identical validator verdicts: the library validator and the
  entry-by-entry reference (``tests/core/reference_validation.py``) must
  return the same ``ok``, the same violation messages, the same makespan
  and the same peak processor count on every schedule;
* an agreeing replay by the reference event loop
  (``tests/simulator/reference_sim.py``, which shares no code with the
  validator's conflict check), and the identical trace from
  :func:`repro.simulator.engine.simulate_schedule`, for every non-scalar
  backend;
* an identical list-schedule replay: every case whose result is one
  allotment per job (all but the ``faulty`` family, whose stitched traces
  restart killed jobs) replays that allotment in start order through
  :func:`repro.core.certificates.replay_certificate` and through the heap
  reference loop (``tests/core/reference_list_scheduling.py``), and the two
  schedules must be identical;
* for the ``online`` and ``faulty`` families, a stitched schedule
  identical to the every-epoch reference loop
  (``tests/core/reference_replan.py``), which solves each epoch's plan even
  where the next epoch discards it unstarted, with no more solves.

:func:`save_failure` serialises a failing case into ``corpus/`` — the
hypothesis fuzzer in ``test_cross_backend.py`` calls it from its exception
path, and ``test_corpus_replay.py`` replays every corpus file as a
deterministic tier-1 regression test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict

import numpy as np

from repro.core.allotment import Allotment
from repro.core.bounded_algorithm import bounded_schedule
from repro.core.bounds import makespan_lower_bound, trivial_lower_bound
from repro.core.certificates import extract_certificate, replay_certificate
from repro.core.compressible_algorithm import compressible_schedule
from repro.core.fptas import fptas_schedule
from repro.core.mrt import mrt_schedule
from repro.core.schedule import Schedule
from repro.core.scheduler import schedule_moldable
from repro.core.two_approx import two_approximation
from repro.core.validation import validate_schedule
from repro.online import OnlineResult, OnlineScheduler
from repro.perf.megabatch import solve_mega
from repro.resilience import FaultPlan, RecoveryResult, random_fault_plan, recover_with_faults
from repro.simulator.engine import SimulationError, simulate_schedule
from repro.workloads.generators import (
    random_arrivals_instance,
    random_bimodal_instance,
    random_chain_instance,
    random_communication_instance,
    random_mixed_instance,
    random_power_work_instance,
    random_quantized_instance,
)

_TESTS = os.path.join(os.path.dirname(__file__), "..")
sys.path[:0] = [os.path.join(_TESTS, "core"), os.path.join(_TESTS, "simulator")]
from reference_list_scheduling import reference_list_schedule  # noqa: E402
from reference_replan import every_epoch_online, every_epoch_recovery  # noqa: E402
from reference_sim import reference_simulate  # noqa: E402
from reference_validation import reference_validate  # noqa: E402

CORPUS_DIR = Path(__file__).parent / "corpus"

#: Instance families: the bench suite's sweep (``tiny_n_huge_m`` reuses the
#: mixed generator but pins an m that forces every driver through its
#: large-m dispatch) plus the differential-only ``quantized`` family, whose
#: discrete duration grid makes exact completion-time ties — the fuel of the
#: event-queue backend's simultaneous-completion epochs — common instead of
#: measure-zero, and the ``chain`` family (strongly serial jobs, no ties:
#: the single-completion regime whose admission queries the candidate index
#: answers from bucket prefix walks).
FAMILIES: Dict[str, Callable] = {
    "mixed": random_mixed_instance,
    "powerwork": random_power_work_instance,
    "comm": random_communication_instance,
    "bimodal": random_bimodal_instance,
    "tiny_n_huge_m": random_mixed_instance,
    "quantized": random_quantized_instance,
    "chain": random_chain_instance,
    # fault-recovery family: mixed instances executed through the
    # drain-and-replan recovery loop against a seed-derived FaultPlan; the
    # comparison pins the *stitched* schedules bit-identical across backends
    "faulty": random_mixed_instance,
    # astronomical-m family: the drawn m only *selects* one of the
    # HUGE_M_CHOICES boundary straddlers (2^53 and 2^62 plus ±1, and far
    # beyond), so the exact-float cut and the int64 → object-dtype column
    # fallback are fuzzed, not just regression-pinned
    "huge_m": random_mixed_instance,
    # mega-batch family: the case's instance is solved solo and again inside
    # a seed-derived random co-batch via solve_mega's lockstep loop; the two
    # results (schedule, makespan, certification, validator verdicts) must be
    # bit-identical regardless of what it was co-batched with
    "mega": random_mixed_instance,
    # online-arrival family: mixed instances with seed-derived release times
    # driven through the whole OnlineScheduler epoch loop (the epoch policy
    # is also seed-derived); the comparison pins the *stitched* online
    # schedules bit-identical across backends and warm vs cold re-planning
    "online": random_arrivals_instance,
}

TINY_N_HUGE_M = 1 << 20

#: ``huge_m``-family machine counts: both overflow boundaries with their
#: off-by-one neighbours (2^53 = exact-float limit, 2^62 = int64 columnar
#: limit), plus magnitudes far past int64.
HUGE_M_CHOICES = (
    (1 << 53) - 1,
    1 << 53,
    (1 << 53) + 1,
    (1 << 62) - 1,
    1 << 62,
    (1 << 62) + 1,
    1 << 64,
    1 << 80,
    1 << 96,
)

DRIVERS = ("mrt", "compressible", "bounded", "fptas", "two_approx")

#: The comparison: the scalar executor, and the vectorized executor compared
#: against it.
BACKENDS = ("scalar", "vectorized")

#: The ``online`` family also runs ``"auto"``, whose per-epoch size dispatch
#: mixes scalar and vectorized re-plans within one stitched schedule.
ONLINE_BACKENDS = BACKENDS + ("auto",)


def effective_m(case: dict) -> int:
    """The machine count a case actually runs with.

    ``tiny_n_huge_m`` pins the huge machine count; ``huge_m`` maps the drawn
    m onto one of the :data:`HUGE_M_CHOICES` boundary straddlers (the drawn
    value acts as the fuzz selector); the FPTAS additionally needs
    ``m >= 8n/eps`` (its applicability regime), so its cases are lifted to
    the threshold when the drawn m is below it.
    """
    if case["family"] == "tiny_n_huge_m":
        m = TINY_N_HUGE_M
    elif case["family"] == "huge_m":
        m = HUGE_M_CHOICES[int(case["m"]) % len(HUGE_M_CHOICES)]
    else:
        m = int(case["m"])
    if case["driver"] == "fptas":
        m = max(m, int(math.ceil(8.0 * case["n"] / case["eps"])) + 1)
    return m


def build_instance(case: dict):
    family = FAMILIES[case["family"]]
    return family(int(case["n"]), effective_m(case), seed=int(case["seed"]))


def run_driver(case: dict, backend: str, jobs=None) -> Schedule:
    if backend not in BACKENDS:
        raise KeyError(backend)
    if jobs is None:
        jobs = build_instance(case).jobs
    m = effective_m(case)
    eps = float(case["eps"])
    driver = case["driver"]
    if driver == "two_approx":
        return two_approximation(jobs, m, backend=backend).schedule
    if driver == "mrt":
        return mrt_schedule(jobs, m, eps, backend=backend).schedule
    if driver == "compressible":
        return compressible_schedule(jobs, m, eps, backend=backend).schedule
    if driver == "bounded":
        return bounded_schedule(jobs, m, eps, backend=backend).schedule
    if driver == "fptas":
        return fptas_schedule(jobs, m, eps, backend=backend).schedule
    raise KeyError(driver)


def _assert_schedules_identical(
    reference: Schedule, other: Schedule, case: dict, backend: str
) -> None:
    context = f"case {case!r}, backend {backend!r} vs scalar"
    assert reference.m == other.m, context
    assert len(reference) == len(other), context
    s_names = [job.name for job in reference.jobs()]
    v_names = [job.name for job in other.jobs()]
    assert s_names == v_names, context
    if len(reference) == 0:
        return
    s_cols = reference.columns()
    v_cols = other.columns()
    assert np.array_equal(s_cols.start, v_cols.start), context
    assert np.array_equal(s_cols.processors, v_cols.processors), context
    assert np.array_equal(s_cols.duration, v_cols.duration), context
    assert np.array_equal(s_cols.span_owner, v_cols.span_owner), context
    assert np.array_equal(s_cols.span_first, v_cols.span_first), context
    assert np.array_equal(s_cols.span_end, v_cols.span_end), context


def _assert_validator_verdicts_agree(schedule: Schedule, jobs, case: dict) -> None:
    columnar = validate_schedule(schedule, jobs)
    reference = reference_validate(schedule, jobs)
    context = f"case {case!r}"
    assert columnar.ok == reference.ok, context
    assert columnar.violations == reference.violations, context
    assert columnar.makespan == reference.makespan, context
    assert columnar.peak_processors == reference.peak_processors, context
    assert columnar.ok, f"{context}: {columnar.violations}"


def _assert_replay_agrees(schedule: Schedule, context: str) -> None:
    """Independent cross-check: the reference event loop accepts the
    schedule and reproduces its makespan, and the library's replay gives
    the identical trace."""
    try:
        reference = reference_simulate(schedule)
    except SimulationError as exc:  # pragma: no cover - a real finding
        raise AssertionError(f"reference event loop rejected the schedule of {context}: {exc}")
    assert reference.makespan == schedule.makespan, context
    assert simulate_schedule(schedule) == reference, context


def _assert_list_schedule_matches_reference(schedule: Schedule, jobs, case: dict) -> None:
    """The schedule's allotment, list scheduled in its start order, gives
    the identical schedule from the library and from the heap reference."""
    certificate = extract_certificate(schedule, jobs)
    allotment = Allotment(dict(zip(jobs, certificate.allotment)))
    order = [jobs[i] for i in certificate.order]
    _assert_schedules_identical(
        reference_list_schedule(jobs, allotment, schedule.m, order=order),
        replay_certificate(jobs, schedule.m, certificate),
        case,
        "list_schedule",
    )


def fault_plan_for(case: dict, jobs) -> FaultPlan:
    """Seed-derived fault plan for a ``faulty``-family case.

    Deterministic in the case alone (the horizon comes from the instance's
    trivial lower bound, itself seed-deterministic), so every backend of the
    comparison regenerates the identical plan.
    """
    m = effective_m(case)
    horizon = 1.5 * trivial_lower_bound(jobs, m)
    if horizon <= 0:
        horizon = 1.0
    return random_fault_plan(
        [j.name for j in jobs], m, seed=int(case["seed"]) ^ 0x5EED, horizon=horizon
    )


def run_recovery(case: dict, backend: str, jobs, plan: FaultPlan) -> RecoveryResult:
    """Run the drain-and-replan recovery loop under one backend."""
    if backend not in BACKENDS:
        raise KeyError(backend)
    m = effective_m(case)
    eps = float(case["eps"])
    return recover_with_faults(
        jobs, m, plan, eps=eps, algorithm=case["driver"], backend=backend
    )


def _run_recovery_case(case: dict) -> None:
    """The ``faulty``-family differential check: every backend must produce
    the identical *stitched* recovery schedule, agreeing validator verdicts
    on the surviving jobs, and matching degradation accounting."""
    scalar_jobs = build_instance(case).jobs
    plan = fault_plan_for(case, scalar_jobs)
    scalar = run_recovery(case, "scalar", scalar_jobs, plan)
    scalar_survivors = [j for j in scalar_jobs if j.name not in set(scalar.killed)]
    _assert_validator_verdicts_agree(scalar.schedule, scalar_survivors, case)
    reference, replans = every_epoch_recovery(
        scalar_jobs,
        effective_m(case),
        plan,
        eps=float(case["eps"]),
        algorithm=case["driver"],
        backend="scalar",
    )
    _assert_schedules_identical(reference, scalar.schedule, case, "every-epoch reference")
    assert scalar.report.replans <= replans, f"case {case!r}: recovery solved more epochs"

    for backend in BACKENDS[1:]:
        jobs = build_instance(case).jobs
        result = run_recovery(case, backend, jobs, fault_plan_for(case, jobs))
        context = f"case {case!r}, backend {backend!r} vs scalar (recovery)"
        assert scalar.killed == result.killed, context
        assert scalar.makespan == result.makespan, (
            f"{context}: makespan {scalar.makespan!r} != {result.makespan!r}"
        )
        _assert_schedules_identical(scalar.schedule, result.schedule, case, backend)
        survivors = [j for j in jobs if j.name not in set(result.killed)]
        _assert_validator_verdicts_agree(result.schedule, survivors, case)
        # degradation accounting must be backend-independent (latencies and
        # probe counts legitimately differ; everything else must not)
        assert scalar.report.replans == result.report.replans, context
        assert scalar.report.fault_free_makespan == result.report.fault_free_makespan, context
        assert scalar.report.recovered_makespan == result.report.recovered_makespan, context
        assert scalar.report.work_lost == result.report.work_lost, context
        assert scalar.report.jobs_killed == result.report.jobs_killed, context
        assert scalar.report.jobs_restarted == result.report.jobs_restarted, context

        _assert_replay_agrees(result.schedule, context)


def online_policy_for(case: dict, instance) -> dict:
    """Seed-derived epoch-policy kwargs for an ``online``-family case.

    Deterministic in the case alone (the quantum is scaled off the
    instance's seed-deterministic release span), so every backend of the
    comparison groups the identical arrival stream into identical epochs.
    """
    seed = int(case["seed"])
    kind = ("immediate", "quantum", "count")[seed % 3]
    if kind == "quantum":
        span = max(instance.releases) if instance.releases else 0.0
        if span <= 0:
            span = 1.0
        return {"policy": "quantum", "quantum": span / (2 + seed % 5)}
    if kind == "count":
        return {"policy": "count", "batch_size": 1 + seed % 4}
    return {"policy": "immediate"}


def online_scheduler(
    case: dict, backend: str, instance, *, warm_start: bool = True
) -> OnlineScheduler:
    """The case's online scheduler under one backend."""
    if backend not in ONLINE_BACKENDS:
        raise KeyError(backend)
    return OnlineScheduler(
        effective_m(case),
        eps=float(case["eps"]),
        algorithm=case["driver"],
        backend=backend,
        warm_start=warm_start,
        **online_policy_for(case, instance),
    )


def run_online(
    case: dict, backend: str, instance, *, warm_start: bool = True
) -> OnlineResult:
    """Run the whole online arrival-epoch loop under one backend."""
    return online_scheduler(case, backend, instance, warm_start=warm_start).run(
        instance.arrivals
    )


def _run_online_case(case: dict) -> None:
    """The ``online``-family differential check: every backend must produce
    the identical *stitched* online schedule through the whole arrival-epoch
    loop, with agreeing validator verdicts, and warm-started re-planning
    must be bit-identical to cold re-solving while probing no more."""
    scalar_inst = build_instance(case)
    scalar = run_online(case, "scalar", scalar_inst)
    _assert_validator_verdicts_agree(scalar.schedule, scalar_inst.jobs, case)
    _assert_list_schedule_matches_reference(scalar.schedule, scalar_inst.jobs, case)
    reference, replans = every_epoch_online(
        online_scheduler(case, "scalar", scalar_inst), scalar_inst.arrivals
    )
    _assert_schedules_identical(reference, scalar.schedule, case, "every-epoch reference")
    assert scalar.report.replans <= replans, f"case {case!r}: online solved more epochs"

    for backend in ONLINE_BACKENDS[1:]:
        inst = build_instance(case)
        result = run_online(case, backend, inst)
        context = f"case {case!r}, backend {backend!r} vs scalar (online)"
        assert scalar.makespan == result.makespan, (
            f"{context}: makespan {scalar.makespan!r} != {result.makespan!r}"
        )
        _assert_schedules_identical(scalar.schedule, result.schedule, case, backend)
        _assert_validator_verdicts_agree(result.schedule, inst.jobs, case)
        # regret accounting must be backend-independent (latencies and probe
        # counts legitimately differ; everything else must not)
        assert scalar.report.replans == result.report.replans, context
        assert scalar.report.offline_makespan == result.report.offline_makespan, context
        assert scalar.report.lower_bound == result.report.lower_bound, context
        assert [e.barrier for e in scalar.report.epochs] == [
            e.barrier for e in result.report.epochs
        ], context

        _assert_replay_agrees(result.schedule, context)

        if backend == "vectorized":
            # the warm-start toggle must never change the schedule, only the
            # γ-probe count (cold re-solves probe at least as much)
            cold_inst = build_instance(case)
            cold = run_online(case, "vectorized", cold_inst, warm_start=False)
            wc = f"case {case!r}, warm vs cold (online)"
            assert result.makespan == cold.makespan, wc
            _assert_schedules_identical(result.schedule, cold.schedule, case, "cold")
            if result.report.gamma_probes is not None:
                assert result.report.gamma_probes <= cold.report.gamma_probes, wc


#: Co-batch companion generators for ``mega``-family cases (kept small so a
#: mega case stays cheap; variety matters more than size here).
_MEGA_COMPANIONS = (
    random_mixed_instance,
    random_power_work_instance,
    random_communication_instance,
    random_bimodal_instance,
)


def mega_co_batch(case: dict, jobs):
    """A seed-derived random co-batch embedding the case's instance.

    Returns ``(items, pos)``: the batch items for :func:`solve_mega` and the
    index of the case's own instance within them.  Deterministic in the case
    alone, so a failing mega case replays from its corpus line.
    """
    rng = random.Random(int(case["seed"]) ^ 0x3E6A)
    eps = float(case["eps"])
    companions = []
    for _ in range(rng.randint(2, 5)):
        gen = _MEGA_COMPANIONS[rng.randrange(len(_MEGA_COMPANIONS))]
        inst = gen(rng.randint(1, 8), rng.choice([2, 8, 24, 64]), seed=rng.randrange(2**31))
        companions.append(
            SimpleNamespace(jobs=inst.jobs, m=inst.m, eps=eps, algorithm="auto")
        )
    pos = rng.randrange(len(companions) + 1)
    own = SimpleNamespace(
        jobs=jobs, m=effective_m(case), eps=eps, algorithm=case["driver"]
    )
    return companions[:pos] + [own] + companions[pos:], pos


def _run_mega_case(case: dict) -> None:
    """The ``mega``-family differential check: solving an instance inside a
    random lockstep co-batch must be bit-identical to solving it solo —
    schedule, makespan, certification numbers and validator verdicts."""
    solo_jobs = build_instance(case).jobs
    solo = schedule_moldable(
        solo_jobs, effective_m(case), float(case["eps"]), algorithm=case["driver"]
    )
    _assert_validator_verdicts_agree(solo.schedule, solo_jobs, case)
    _assert_list_schedule_matches_reference(solo.schedule, solo_jobs, case)

    # a fresh instance for the mega run: separate job objects rule out memo
    # pollution hiding a real divergence, exactly like the backend comparison
    mega_jobs = build_instance(case).jobs
    items, pos = mega_co_batch(case, mega_jobs)
    result = solve_mega(items)[pos]
    context = f"case {case!r}, mega co-batch (position {pos} of {len(items)})"
    assert solo.makespan == result.makespan, (
        f"{context}: makespan {solo.makespan!r} != {result.makespan!r}"
    )
    assert solo.lower_bound == result.lower_bound, context
    # neither leg re-estimates its bound, so pin it to a fresh scalar one
    reference = makespan_lower_bound(build_instance(case).jobs, effective_m(case))
    assert solo.lower_bound == reference, (
        f"{context}: lower bound {solo.lower_bound!r} != scalar reference {reference!r}"
    )
    assert solo.guarantee == result.guarantee, context
    assert solo.algorithm == result.algorithm, context
    assert solo.eps == result.eps, context
    _assert_schedules_identical(solo.schedule, result.schedule, case, "mega")
    _assert_validator_verdicts_agree(result.schedule, mega_jobs, case)


def run_case(case: dict) -> None:
    """Execute one differential case; raises AssertionError on any mismatch.

    Every backend in :data:`BACKENDS` runs on its own regenerated
    instance (the generators are seed-deterministic, and separate job
    objects rule out cross-backend memo pollution hiding a real divergence)
    and is compared against the scalar reference.  ``faulty``-family cases
    run the whole fault-recovery loop instead of a single solve; ``mega``
    cases compare a solo solve against the same instance solved inside a
    random lockstep co-batch.
    """
    if case["family"] == "faulty":
        _run_recovery_case(case)
        return
    if case["family"] == "mega":
        _run_mega_case(case)
        return
    if case["family"] == "online":
        _run_online_case(case)
        return
    scalar_jobs = build_instance(case).jobs
    scalar = run_driver(case, "scalar", scalar_jobs)
    # validator verdicts: columnar and scalar validation backends must agree
    # on every schedule, checked against the full instance (completeness too)
    _assert_validator_verdicts_agree(scalar, scalar_jobs, case)
    _assert_list_schedule_matches_reference(scalar, scalar_jobs, case)

    for backend in BACKENDS[1:]:
        jobs = build_instance(case).jobs
        schedule = run_driver(case, backend, jobs)
        assert scalar.makespan == schedule.makespan, (
            f"makespan mismatch for case {case!r}: "
            f"scalar {scalar.makespan!r} != {backend} {schedule.makespan!r}"
        )
        _assert_schedules_identical(scalar, schedule, case, backend)
        _assert_validator_verdicts_agree(schedule, jobs, case)
        _assert_replay_agrees(schedule, f"case {case!r}, backend {backend!r}")


def case_id(case: dict) -> str:
    """Stable short identifier for a case (used for corpus filenames)."""
    payload = json.dumps(
        {k: case[k] for k in ("driver", "family", "n", "m", "eps", "seed")},
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:10]
    return f"{case['driver']}-{case['family']}-{digest}"


def save_failure(case: dict, error: BaseException) -> Path:
    """Persist a failing case into the replay corpus (idempotent)."""
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    path = CORPUS_DIR / f"{case_id(case)}.json"
    payload = {
        "driver": case["driver"],
        "family": case["family"],
        "n": int(case["n"]),
        "m": int(case["m"]),
        "eps": float(case["eps"]),
        "seed": int(case["seed"]),
        "error": str(error)[:2000],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_corpus():
    """All persisted corpus cases, sorted for deterministic test order."""
    if not CORPUS_DIR.is_dir():
        return []
    return sorted(CORPUS_DIR.glob("*.json"))
