"""Crossover study: the `O(nm)` baseline vs the polylog-in-m algorithms.

The paper's motivation for compact encodings is that algorithms whose running
time is polynomial in ``m`` (such as the original MRT knapsack) become
impractical once ``m`` is large, whereas the accelerated algorithms only pay
``polylog(m)``.  The study fixes ``n`` and ``eps`` and sweeps ``m`` over
several orders of magnitude, timing one dual step of

* the MRT algorithm with the exact `O(nm)` knapsack,
* Algorithm 1 (Section 4.2.5), and
* Algorithm 3 (Section 4.3; its linear variant of Section 4.3.3 is the same code),

and reports the measured times, the speed-up of the compact-encoding
algorithms over MRT, and the fitted scaling exponents in ``m`` (MRT should be
close to 1, the others close to 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.bounded_algorithm import bounded_dual
from ..core.bounds import ludwig_tiwari_estimator
from ..core.compressible_algorithm import compressible_dual
from ..core.mrt import mrt_dual
from ..workloads.generators import random_mixed_instance
from .common import Table, fit_power_law, timed

__all__ = ["CrossoverRow", "run", "main"]


@dataclass
class CrossoverRow:
    m: int
    n: int
    eps: float
    mrt_seconds: Optional[float]
    compressible_seconds: float
    bounded_seconds: float
    speedup_compressible: Optional[float]
    speedup_bounded: Optional[float]


def run(
    *,
    n: int = 100,
    eps: float = 0.2,
    m_values: Sequence[int] = (64, 256, 1024, 4096, 16384),
    mrt_m_limit: int = 65536,
    seed: int = 17,
    repeat: int = 1,
) -> List[CrossoverRow]:
    rows: List[CrossoverRow] = []
    for m in m_values:
        instance = random_mixed_instance(n, m, seed=seed)
        omega = ludwig_tiwari_estimator(instance.jobs, m).omega
        d = 1.1 * omega
        mrt_seconds: Optional[float] = None
        if m <= mrt_m_limit:
            mrt_seconds, _ = timed(lambda: mrt_dual(instance.jobs, m, d), repeat=repeat)
        comp_seconds, _ = timed(lambda: compressible_dual(instance.jobs, m, d, eps), repeat=repeat)
        bounded_seconds, _ = timed(lambda: bounded_dual(instance.jobs, m, d, eps), repeat=repeat)
        rows.append(
            CrossoverRow(
                m=m,
                n=n,
                eps=eps,
                mrt_seconds=mrt_seconds,
                compressible_seconds=comp_seconds,
                bounded_seconds=bounded_seconds,
                speedup_compressible=(mrt_seconds / comp_seconds) if mrt_seconds else None,
                speedup_bounded=(mrt_seconds / bounded_seconds) if mrt_seconds else None,
            )
        )
    return rows


def scaling_exponents(rows: List[CrossoverRow]) -> Dict[str, float]:
    ms = [r.m for r in rows if r.mrt_seconds is not None]
    out: Dict[str, float] = {}
    if len(ms) >= 2:
        out["mrt"] = fit_power_law(ms, [r.mrt_seconds for r in rows if r.mrt_seconds is not None])
    all_ms = [r.m for r in rows]
    out["compressible"] = fit_power_law(all_ms, [r.compressible_seconds for r in rows])
    out["bounded"] = fit_power_law(all_ms, [r.bounded_seconds for r in rows])
    return out


def main() -> None:  # pragma: no cover - console entry point
    rows = run()
    table = Table(
        "Crossover study — one dual step, n fixed, m swept",
        ["m", "MRT (O(nm)) [s]", "Alg. 1 [s]", "Alg. 3 [s]", "speedup Alg.1", "speedup Alg.3"],
        [],
    )
    for r in rows:
        table.add(
            r.m,
            r.mrt_seconds if r.mrt_seconds is not None else "skipped",
            r.compressible_seconds,
            r.bounded_seconds,
            r.speedup_compressible if r.speedup_compressible else "-",
            r.speedup_bounded if r.speedup_bounded else "-",
        )
    table.print()
    exps = scaling_exponents(rows)
    summary = Table("Fitted runtime exponent in m", ["algorithm", "exponent"], [])
    for key, val in exps.items():
        summary.add(key, val)
    summary.print()


if __name__ == "__main__":  # pragma: no cover
    main()
