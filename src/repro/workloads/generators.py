"""Random instance generators and scenario presets.

Every generator takes a seed (or an ``numpy.random.Generator``) and returns a
:class:`WorkloadInstance` bundling the jobs, the machine count and provenance
metadata.  Generators with analytic speedup models (Amdahl, power law,
communication) produce oracle jobs usable with astronomically large ``m``;
the tabulated generator produces classical explicit-encoding jobs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..core.bounds import trivial_lower_bound
from ..core.job import AmdahlJob, CommunicationJob, MoldableJob, PowerLawJob, TabulatedJob
from .speedup_models import random_monotone_speedup

__all__ = [
    "InstanceSpec",
    "WorkloadInstance",
    "random_amdahl_instance",
    "random_power_law_instance",
    "random_communication_instance",
    "random_mixed_instance",
    "random_power_work_instance",
    "random_bimodal_instance",
    "random_monotone_tabulated_instance",
    "random_quantized_instance",
    "random_chain_instance",
    "random_arrivals_instance",
    "ARRIVAL_BASES",
    "planted_partition_instance",
    "scenario",
    "SCENARIOS",
]

SeedLike = Union[int, np.random.Generator, None]


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters describing a generated instance (for provenance/reporting)."""

    kind: str
    n: int
    m: int
    seed: Optional[int] = None
    params: Dict[str, float] = field(default_factory=dict)


@dataclass
class WorkloadInstance:
    """A generated scheduling instance.

    ``releases`` (when set) aligns with ``jobs``: job ``i`` becomes known to
    the scheduler at ``releases[i]``.  ``None`` means the classic offline
    setting where everything is available at time 0.
    """

    jobs: List[MoldableJob]
    m: int
    spec: InstanceSpec
    known_optimum: Optional[float] = None
    releases: Optional[List[float]] = None

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def arrivals(self) -> List[tuple[MoldableJob, float]]:
        """``(job, release)`` pairs for :class:`repro.online.OnlineScheduler`
        (release 0 for every job when the instance has no release times)."""
        releases = self.releases if self.releases is not None else [0.0] * self.n
        return list(zip(self.jobs, releases))


# --------------------------------------------------------------------------
# Analytic-model generators
# --------------------------------------------------------------------------

def random_amdahl_instance(
    n: int,
    m: int,
    *,
    seed: SeedLike = None,
    t1_range: tuple[float, float] = (1.0, 100.0),
    serial_fraction_range: tuple[float, float] = (0.01, 0.3),
) -> WorkloadInstance:
    """Jobs following Amdahl's law with random base times and serial fractions."""
    rng = _rng(seed)
    jobs: List[MoldableJob] = []
    for i in range(n):
        t1 = float(rng.uniform(*t1_range))
        f = float(rng.uniform(*serial_fraction_range))
        jobs.append(AmdahlJob(f"amdahl-{i}", t1=t1, serial_fraction=f))
    spec = InstanceSpec("amdahl", n, m, params={"t1_lo": t1_range[0], "t1_hi": t1_range[1]})
    return WorkloadInstance(jobs, m, spec)


def random_power_law_instance(
    n: int,
    m: int,
    *,
    seed: SeedLike = None,
    t1_range: tuple[float, float] = (1.0, 100.0),
    alpha_range: tuple[float, float] = (0.5, 1.0),
) -> WorkloadInstance:
    """Jobs with power-law (sub-linear) speedups."""
    rng = _rng(seed)
    jobs: List[MoldableJob] = []
    for i in range(n):
        t1 = float(rng.uniform(*t1_range))
        alpha = float(rng.uniform(*alpha_range))
        jobs.append(PowerLawJob(f"powerlaw-{i}", t1=t1, alpha=alpha))
    spec = InstanceSpec("power_law", n, m, params={"alpha_lo": alpha_range[0], "alpha_hi": alpha_range[1]})
    return WorkloadInstance(jobs, m, spec)


def random_communication_instance(
    n: int,
    m: int,
    *,
    seed: SeedLike = None,
    t1_range: tuple[float, float] = (10.0, 500.0),
    overhead_range: tuple[float, float] = (1e-4, 1e-2),
) -> WorkloadInstance:
    """Jobs with per-processor communication overhead (speedup saturates)."""
    rng = _rng(seed)
    jobs: List[MoldableJob] = []
    for i in range(n):
        t1 = float(rng.uniform(*t1_range))
        c = float(rng.uniform(*overhead_range))
        jobs.append(CommunicationJob(f"comm-{i}", t1=t1, overhead=c))
    spec = InstanceSpec("communication", n, m)
    return WorkloadInstance(jobs, m, spec)


def random_mixed_instance(
    n: int,
    m: int,
    *,
    seed: SeedLike = None,
    t1_range: tuple[float, float] = (1.0, 200.0),
) -> WorkloadInstance:
    """A mix of Amdahl, power-law and communication jobs (one third each)."""
    rng = _rng(seed)
    jobs: List[MoldableJob] = []
    for i in range(n):
        t1 = float(rng.uniform(*t1_range))
        kind = i % 3
        if kind == 0:
            jobs.append(AmdahlJob(f"mixed-amdahl-{i}", t1=t1, serial_fraction=float(rng.uniform(0.01, 0.4))))
        elif kind == 1:
            jobs.append(PowerLawJob(f"mixed-powerlaw-{i}", t1=t1, alpha=float(rng.uniform(0.4, 1.0))))
        else:
            jobs.append(CommunicationJob(f"mixed-comm-{i}", t1=t1, overhead=float(rng.uniform(1e-4, 5e-2))))
    spec = InstanceSpec("mixed", n, m)
    return WorkloadInstance(jobs, m, spec)


def random_power_work_instance(
    n: int,
    m: int,
    *,
    seed: SeedLike = None,
    shape: float = 1.4,
    t1_scale: float = 3.0,
    t1_cap: float = 5000.0,
) -> WorkloadInstance:
    """Power-law (Pareto) distributed sequential works.

    Real cluster traces have heavy-tailed job sizes: most jobs are tiny, a few
    dominate the total work.  ``t_j(1)`` is drawn from a Pareto distribution
    with tail index ``shape`` (smaller = heavier tail), capped at ``t1_cap``
    to keep instances numerically tame; the speedup models rotate through the
    same Amdahl / power-law / communication mix as
    :func:`random_mixed_instance`.
    """
    rng = _rng(seed)
    jobs: List[MoldableJob] = []
    for i in range(n):
        t1 = min(float(t1_scale * (1.0 + rng.pareto(shape))), t1_cap)
        kind = i % 3
        if kind == 0:
            jobs.append(AmdahlJob(f"powerwork-amdahl-{i}", t1=t1, serial_fraction=float(rng.uniform(0.01, 0.4))))
        elif kind == 1:
            jobs.append(PowerLawJob(f"powerwork-powerlaw-{i}", t1=t1, alpha=float(rng.uniform(0.4, 1.0))))
        else:
            jobs.append(CommunicationJob(f"powerwork-comm-{i}", t1=t1, overhead=float(rng.uniform(1e-4, 5e-2))))
    spec = InstanceSpec("power_work", n, m, params={"shape": shape, "t1_scale": t1_scale})
    return WorkloadInstance(jobs, m, spec)


def random_bimodal_instance(
    n: int,
    m: int,
    *,
    seed: SeedLike = None,
    small_range: tuple[float, float] = (1.0, 8.0),
    big_range: tuple[float, float] = (300.0, 600.0),
    big_fraction: float = 0.15,
) -> WorkloadInstance:
    """Bimodal job sizes: a sea of short jobs plus a slab of long ones.

    This is the classic "interactive + batch" mix; the long jobs force the
    shelf constructions to exercise both shelves while the short ones stress
    the small-job insertion path.  Speedup models rotate through the mixed
    set.
    """
    rng = _rng(seed)
    jobs: List[MoldableJob] = []
    for i in range(n):
        if float(rng.uniform()) < big_fraction:
            t1 = float(rng.uniform(*big_range))
        else:
            t1 = float(rng.uniform(*small_range))
        kind = i % 3
        if kind == 0:
            jobs.append(AmdahlJob(f"bimodal-amdahl-{i}", t1=t1, serial_fraction=float(rng.uniform(0.01, 0.3))))
        elif kind == 1:
            jobs.append(PowerLawJob(f"bimodal-powerlaw-{i}", t1=t1, alpha=float(rng.uniform(0.5, 1.0))))
        else:
            jobs.append(CommunicationJob(f"bimodal-comm-{i}", t1=t1, overhead=float(rng.uniform(1e-4, 2e-2))))
    spec = InstanceSpec(
        "bimodal", n, m, params={"big_fraction": big_fraction, "big_lo": big_range[0], "big_hi": big_range[1]}
    )
    return WorkloadInstance(jobs, m, spec)


def random_quantized_instance(
    n: int,
    m: int,
    *,
    seed: SeedLike = None,
    grid: Sequence[float] = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0),
    table_cap: int = 64,
) -> WorkloadInstance:
    """Tabulated jobs with perfectly linear speedup and *quantized* base times.

    ``t_j(1)`` is drawn from a small discrete grid and ``t_j(k) = t_j(1)/k``,
    so distinct jobs frequently share bit-identical processing times at their
    allotted counts — unlike the continuous families, which almost never
    produce exact duration ties.  The differential fuzzer uses this family to
    exercise simultaneous-completion *epochs* in the list-scheduling
    backends (many jobs finishing at exactly the same float instant) and the
    multi-span leftover reuse that mass wake-ups trigger.  Tables are capped
    at ``table_cap`` columns (``TabulatedJob`` clamps wider allotments to the
    last column, keeping the family usable at huge ``m``).
    """
    rng = _rng(seed)
    length = max(1, min(int(m), int(table_cap)))
    jobs: List[MoldableJob] = []
    for i in range(n):
        t1 = float(rng.choice(np.asarray(grid, dtype=np.float64)))
        times = [t1 / k for k in range(1, length + 1)]
        jobs.append(TabulatedJob(f"quantized-{i}", times))
    spec = InstanceSpec(
        "quantized", n, m, params={"grid_lo": float(min(grid)), "grid_hi": float(max(grid))}
    )
    return WorkloadInstance(jobs, m, spec)


def random_chain_instance(
    n: int,
    m: int,
    *,
    seed: SeedLike = None,
    t1_range: tuple[float, float] = (8.0, 64.0),
    serial_range: tuple[float, float] = (0.5, 0.95),
) -> WorkloadInstance:
    """Single-completion chains: a no-tie, deep-queue list-scheduling regime.

    Strongly serial Amdahl jobs (serial fractions drawn from
    ``serial_range``) with continuous-uniform base times: useful parallelism
    is capped by the serial fraction, so allotments stay tiny and — run with
    ``n`` well above ``m`` — far more jobs queue behind the running set than
    machines exist.  Completion instants are then distinct with probability
    one, so the list scheduler's event queue degenerates to one completion
    per epoch: the adversarial workload for any per-epoch O(n) candidate
    scan (n epochs × O(n) = O(n²) scans), and the showcase for the
    incremental candidate index of
    :func:`~repro.core.list_scheduling.list_schedule`, which answers each
    epoch's admission query from its need buckets instead.
    """
    rng = _rng(seed)
    jobs: List[MoldableJob] = []
    for i in range(n):
        t1 = float(rng.uniform(*t1_range))
        f = float(rng.uniform(*serial_range))
        jobs.append(AmdahlJob(f"chain-{i}", t1=t1, serial_fraction=f))
    spec = InstanceSpec(
        "chain",
        n,
        m,
        params={"serial_lo": serial_range[0], "serial_hi": serial_range[1]},
    )
    return WorkloadInstance(jobs, m, spec)


#: Base families an ``arrivals`` instance can draw its jobs from.
ARRIVAL_BASES: Dict[str, Callable[..., "WorkloadInstance"]] = {}


def random_arrivals_instance(
    n: int,
    m: int,
    *,
    seed: SeedLike = None,
    base: str = "mixed",
    span: Optional[float] = None,
    span_factor: float = 0.75,
) -> WorkloadInstance:
    """An online instance: a base family's jobs plus seeded release times.

    Jobs come from the ``base`` generator (any :data:`ARRIVAL_BASES` key)
    driven by the same RNG stream, so one seed pins both the jobs and the
    arrival pattern.  Releases are sorted uniform draws over ``[0, span]``;
    by default ``span`` is ``span_factor`` times the instance's trivial
    makespan lower bound, which keeps the stream busy — new work keeps
    arriving while earlier work is still running, the regime where
    incremental re-planning (and its γ warm start) actually matters.
    """
    if base not in ARRIVAL_BASES:
        raise ValueError(f"unknown arrivals base {base!r}; available: {sorted(ARRIVAL_BASES)}")
    if span is not None and span < 0:
        raise ValueError("span must be >= 0")
    rng = _rng(seed)
    inst = ARRIVAL_BASES[base](n, m, seed=rng)
    if span is None:
        span = span_factor * trivial_lower_bound(inst.jobs, m)
    releases = [float(r) for r in np.sort(rng.uniform(0.0, span, size=n))] if span > 0 else [0.0] * n
    spec = InstanceSpec(
        f"arrivals[{base}]", n, m, params={"span": float(span), "span_factor": span_factor}
    )
    return WorkloadInstance(inst.jobs, m, spec, releases=releases)


def random_monotone_tabulated_instance(
    n: int,
    m: int,
    *,
    seed: SeedLike = None,
    t1_range: tuple[float, float] = (1.0, 100.0),
    efficiency_floor: float = 0.0,
) -> WorkloadInstance:
    """Explicit-encoding jobs with arbitrary random monotone speedup tables.

    ``m`` should be modest here (the tables have ``m`` entries) — this is the
    classical input encoding against which the compact encoding is compared.
    """
    if m > 1 << 16:
        raise ValueError("tabulated instances are limited to m <= 65536 (use an analytic model instead)")
    rng = _rng(seed)
    jobs: List[MoldableJob] = []
    for i in range(n):
        t1 = float(rng.uniform(*t1_range))
        speedup = random_monotone_speedup(m, rng, efficiency_floor=efficiency_floor)
        times = [t1 / s for s in speedup]
        jobs.append(TabulatedJob(f"tab-{i}", times))
    spec = InstanceSpec("tabulated", n, m)
    return WorkloadInstance(jobs, m, spec)


# --------------------------------------------------------------------------
# Planted-optimum instances
# --------------------------------------------------------------------------

def planted_partition_instance(
    groups: int,
    *,
    seed: SeedLike = None,
    target: float = 100.0,
    jobs_per_group: int = 4,
) -> WorkloadInstance:
    """An instance whose optimum is known exactly by construction.

    ``groups`` machines are each filled by ``jobs_per_group`` sequential jobs
    whose single-processor times sum to exactly ``target``; the jobs do not
    speed up at all (constant processing time), so every schedule has total
    work at least ``groups * target`` and the planted packing with makespan
    ``target`` is optimal.  Used to certify approximation ratios on instances
    far larger than the exact solver can handle.
    """
    if groups < 1 or jobs_per_group < 1:
        raise ValueError("groups and jobs_per_group must be >= 1")
    rng = _rng(seed)
    jobs: List[MoldableJob] = []
    for g in range(groups):
        cuts = np.sort(rng.uniform(0.05, 0.95, size=jobs_per_group - 1)) * target
        edges = np.concatenate(([0.0], cuts, [target]))
        durations = np.diff(edges)
        # guard against degenerate tiny pieces
        durations = np.maximum(durations, target * 1e-3)
        durations = durations / durations.sum() * target
        for j, duration in enumerate(durations):
            t1 = float(duration)
            jobs.append(TabulatedJob(f"planted-{g}-{j}", [t1]))  # constant time on any k
    spec = InstanceSpec("planted_partition", len(jobs), groups, params={"target": target})
    return WorkloadInstance(jobs, groups, spec, known_optimum=target)


ARRIVAL_BASES.update(
    {
        "mixed": random_mixed_instance,
        "amdahl": random_amdahl_instance,
        "power_law": random_power_law_instance,
        "communication": random_communication_instance,
        "power_work": random_power_work_instance,
        "bimodal": random_bimodal_instance,
        "chain": random_chain_instance,
    }
)


# --------------------------------------------------------------------------
# Scenario presets
# --------------------------------------------------------------------------

SCENARIOS: Dict[str, Callable[[SeedLike], WorkloadInstance]] = {
    # A departmental cluster: many moderately parallel jobs, few machines.
    "cluster_small": lambda seed=None: random_mixed_instance(200, 128, seed=seed),
    # A large HPC machine with compact encoding: m far exceeds n.
    "hpc_large_m": lambda seed=None: random_amdahl_instance(64, 1 << 20, seed=seed),
    # A cloud region: power-law scaling services.
    "cloud_powerlaw": lambda seed=None: random_power_law_instance(400, 4096, seed=seed),
    # Communication-bound simulation codes.
    "simulation_comm": lambda seed=None: random_communication_instance(150, 512, seed=seed),
    # Explicit tables, the classical encoding.
    "tabulated_classic": lambda seed=None: random_monotone_tabulated_instance(80, 64, seed=seed),
}


def scenario(name: str, seed: SeedLike = None) -> WorkloadInstance:
    """Instantiate a named scenario preset (see :data:`SCENARIOS`)."""
    try:
        factory = SCENARIOS[name]
    except KeyError as exc:
        raise ValueError(f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}") from exc
    return factory(seed)
