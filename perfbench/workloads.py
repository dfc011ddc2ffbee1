"""The four workloads: how a request is generated, sent and checked.

Every request is built from ``(seed, index)`` with fresh job objects, so the
per-job memo caches start cold, as a user's do.  A workload calls one public
entry point, looked up on the ``repro`` package at call time so the traced
run can wrap it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List

import numpy as np

import repro
import repro.online
from repro.core.validation import validate_schedule
from repro.io import schedule_to_dict
from repro.serve import FleetInstance
from repro.workloads.generators import (
    random_arrivals_instance,
    random_chain_instance,
    random_mixed_instance,
)

EPS = 0.1
# slack for float round-off in the certified-ratio and release checks
TOL = 1e-9


def rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[np.random.Generator], Any]
    call: Callable[[Any], Any]
    reference: Callable[[Any], Any]
    check: Callable[[Any, Any], List[str]]
    fingerprint: Callable[[Any], Any]
    ratio: Callable[[Any], float]
    jobs: int
    # distinct requests per run; each is sent once per round
    requests: int
    # wall seconds of one round at reference speed, as first measured; it
    # fixes the number of rounds a run of a given length makes
    round_s: float


def _entries(schedule) -> list:
    return schedule_to_dict(schedule)["entries"]


def _solved(result) -> tuple:
    return (_entries(result.schedule), result.makespan, result.lower_bound, result.algorithm)


def _check_solve(result, jobs, algorithm: str) -> List[str]:
    errors = []
    if result.algorithm != algorithm:
        errors.append(f"ran {result.algorithm}, expected {algorithm}")
    verdict = validate_schedule(result.schedule, jobs)
    if not verdict.ok:
        errors.append("invalid schedule: " + "; ".join(verdict.violations[:3]))
    if not result.lower_bound * (1 - TOL) <= result.makespan <= result.guarantee * result.lower_bound * (1 + TOL):
        errors.append(
            f"makespan {result.makespan} outside [lb, {result.guarantee} x lb], lb={result.lower_bound}"
        )
    return errors


# -- solve-bounded / solve-two-approx ---------------------------------------


def _solve_workload(name, generate, m, algorithm, expected, n, requests, round_s):
    def call(jobs, backend="vectorized"):
        return repro.schedule_moldable(jobs, m, EPS, algorithm=algorithm, backend=backend)

    return Workload(
        name=name,
        make=lambda r: generate(n, m, seed=r).jobs,
        call=call,
        reference=lambda jobs: call(jobs, backend="scalar"),
        check=lambda jobs, result: _check_solve(result, jobs, expected),
        fingerprint=_solved,
        ratio=lambda result: result.certified_ratio,
        jobs=n,
        requests=requests,
        round_s=round_s,
    )


# -- online-stream ------------------------------------------------------------

ONLINE_M = 64
ONLINE_N = 80


def _online_call(arrivals, warm_start=True):
    return repro.online.OnlineScheduler(ONLINE_M, warm_start=warm_start).run(arrivals)


def _online_check(arrivals, result) -> List[str]:
    errors = []
    jobs = [job for job, _ in arrivals]
    verdict = validate_schedule(result.schedule, jobs)
    if not verdict.ok:
        errors.append("invalid stitched schedule: " + "; ".join(verdict.violations[:3]))
    release = {id(job): r for job, r in arrivals}
    early = [e.job.name for e in result.schedule.entries if e.start < release[id(e.job)] - TOL]
    if early:
        errors.append(f"{len(early)} jobs start before their release, e.g. {early[0]}")
    if result.report.replans < 1:
        errors.append("no re-plans")
    if not result.report.lower_bound * (1 - TOL) <= result.makespan:
        errors.append(f"makespan {result.makespan} below lower bound {result.report.lower_bound}")
    errors += [f"offline plan: {e}" for e in _check_solve(result.offline, jobs, "bounded")]
    return errors


# -- fleet-mega ----------------------------------------------------------------

FLEET = 64
FLEET_FPTAS = (6, 2**20)
FLEET_CHAIN = (12, 4)


def _fleet_make(r) -> List[FleetInstance]:
    half = FLEET // 2
    fleet = [
        FleetInstance(f"fptas-{i}", random_mixed_instance(*FLEET_FPTAS, seed=r).jobs, FLEET_FPTAS[1], EPS)
        for i in range(half)
    ]
    fleet += [
        FleetInstance(
            f"chain-{i}", random_chain_instance(*FLEET_CHAIN, seed=r).jobs, FLEET_CHAIN[1], EPS, "two_approx"
        )
        for i in range(half)
    ]
    return fleet


def _fleet_reference(fleet):
    return [repro.schedule_moldable(f.jobs, f.m, f.eps, algorithm=f.algorithm) for f in fleet]


def _fleet_check(fleet, results) -> List[str]:
    errors = []
    if len(results) != len(fleet):
        return [f"{len(results)} results for {len(fleet)} instances"]
    for inst, result in zip(fleet, results):
        expected = "fptas" if inst.algorithm == "auto" else inst.algorithm
        errors += [f"{inst.name}: {e}" for e in _check_solve(result, inst.jobs, expected)]
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        _solve_workload("solve-bounded", random_mixed_instance, 4000, "auto", "bounded", 500, 16, 4.6),
        _solve_workload("solve-two-approx", random_chain_instance, 125, "two_approx", "two_approx", 2000, 40, 6.0),
        Workload(
            name="online-stream",
            make=lambda r: random_arrivals_instance(ONLINE_N, ONLINE_M, seed=r).arrivals,
            call=_online_call,
            reference=lambda arrivals: _online_call(arrivals, warm_start=False),
            check=_online_check,
            fingerprint=lambda result: (_entries(result.schedule), result.makespan, result.report.lower_bound),
            ratio=lambda result: result.report.ratio_vs_lower_bound,
            jobs=ONLINE_N,
            requests=6,
            round_s=8.5,
        ),
        Workload(
            name="fleet-mega",
            make=_fleet_make,
            call=lambda fleet: repro.solve_mega(fleet, eps=EPS),
            reference=_fleet_reference,
            check=_fleet_check,
            fingerprint=lambda results: [_solved(r) for r in results],
            ratio=lambda results: float(np.mean([r.certified_ratio for r in results])),
            jobs=(FLEET // 2) * (FLEET_FPTAS[0] + FLEET_CHAIN[0]),
            requests=40,
            round_s=6.0,
        ),
    )
}
