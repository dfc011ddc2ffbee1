"""Theorem 3 quality study: measured approximation ratios.

The paper proves worst-case guarantees; this study measures the ratios
actually achieved on synthetic workloads:

* against the **exact optimum** on tiny instances (branch-and-bound solver) —
  the strongest possible check of the `(3/2+eps)` and `(1+eps)` claims;
* against the **planted optimum** of planted-partition instances;
* against the certified **lower bound** on larger random instances (a
  pessimistic over-estimate of the true ratio).

Every produced schedule is validated and additionally executed on the
discrete-event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.bounds import makespan_lower_bound
from ..core.exact_small import exact_makespan
from ..core.scheduler import schedule_moldable
from ..simulator.engine import SimulationError, simulate_schedule
from ..workloads.generators import (
    planted_partition_instance,
    random_amdahl_instance,
    random_mixed_instance,
    random_monotone_tabulated_instance,
)
from .common import Table

__all__ = ["QualityRow", "run", "main"]

ALGORITHMS = ("two_approx", "mrt", "compressible", "bounded", "bounded_linear")


@dataclass
class QualityRow:
    family: str
    reference: str  # "exact", "planted", "lower_bound"
    algorithm: str
    n: int
    m: int
    eps: float
    makespan: float
    reference_value: float
    ratio: float
    guarantee: Optional[float]
    within_guarantee: Optional[bool]
    simulator_ok: bool


def _evaluate(jobs, m, eps, algorithm, family, reference, reference_value) -> QualityRow:
    result = schedule_moldable(jobs, m, eps, algorithm=algorithm)
    sim_ok = True
    try:
        simulate_schedule(result.schedule)
    except SimulationError:
        sim_ok = False
    ratio = result.makespan / reference_value if reference_value > 0 else 1.0
    within = None
    if result.guarantee is not None and reference in ("exact", "planted"):
        within = ratio <= result.guarantee * (1.0 + 1e-6)
    return QualityRow(
        family=family,
        reference=reference,
        algorithm=algorithm,
        n=len(jobs),
        m=m,
        eps=eps,
        makespan=result.makespan,
        reference_value=reference_value,
        ratio=ratio,
        guarantee=result.guarantee,
        within_guarantee=within,
        simulator_ok=sim_ok,
    )


def run(
    *,
    eps: float = 0.2,
    seed: int = 31,
    tiny_cases: Sequence[tuple] = ((4, 3), (5, 4), (6, 4)),
    planted_groups: Sequence[int] = (8, 16, 32),
    random_cases: Sequence[tuple] = ((50, 64), (100, 256), (200, 1024)),
    algorithms: Sequence[str] = ALGORITHMS,
) -> List[QualityRow]:
    rows: List[QualityRow] = []

    # 1) tiny instances vs the exact optimum
    for idx, (n, m) in enumerate(tiny_cases):
        instance = random_monotone_tabulated_instance(n, m, seed=seed + idx)
        opt = exact_makespan(instance.jobs, m)
        for algorithm in algorithms:
            rows.append(_evaluate(instance.jobs, m, eps, algorithm, "tiny_tabulated", "exact", opt))

    # 2) planted-optimum instances
    for idx, groups in enumerate(planted_groups):
        instance = planted_partition_instance(groups, seed=seed + 100 + idx)
        assert instance.known_optimum is not None
        for algorithm in algorithms:
            rows.append(
                _evaluate(
                    instance.jobs,
                    instance.m,
                    eps,
                    algorithm,
                    "planted_partition",
                    "planted",
                    instance.known_optimum,
                )
            )

    # 3) larger random instances vs the certified lower bound
    for idx, (n, m) in enumerate(random_cases):
        instance = random_mixed_instance(n, m, seed=seed + 200 + idx)
        lower = makespan_lower_bound(instance.jobs, m)
        for algorithm in algorithms:
            rows.append(_evaluate(instance.jobs, m, eps, algorithm, "random_mixed", "lower_bound", lower))

    return rows


def summarize(rows: List[QualityRow]) -> Dict[str, Dict[str, float]]:
    """Worst and mean ratio per (algorithm, reference kind)."""
    grouped: Dict[str, List[float]] = {}
    for row in rows:
        grouped.setdefault(f"{row.algorithm}|{row.reference}", []).append(row.ratio)
    out: Dict[str, Dict[str, float]] = {}
    for key, ratios in grouped.items():
        out[key] = {"worst": max(ratios), "mean": sum(ratios) / len(ratios), "count": len(ratios)}
    return out


def main() -> None:  # pragma: no cover - console entry point
    rows = run()
    table = Table(
        "Quality study — measured approximation ratios",
        ["family", "reference", "algorithm", "n", "m", "makespan", "reference value", "ratio", "guarantee", "ok"],
        [],
    )
    for r in rows:
        table.add(
            r.family,
            r.reference,
            r.algorithm,
            r.n,
            r.m,
            r.makespan,
            r.reference_value,
            r.ratio,
            r.guarantee if r.guarantee is not None else "-",
            (r.within_guarantee if r.within_guarantee is not None else True) and r.simulator_ok,
        )
    table.print()

    summary = Table("Summary (worst / mean ratio)", ["algorithm | reference", "worst", "mean", "count"], [])
    for key, stats in summarize(rows).items():
        summary.add(key, stats["worst"], stats["mean"], int(stats["count"]))
    summary.print()


if __name__ == "__main__":  # pragma: no cover
    main()
