"""Table 1 reproduction: running times of the `(3/2+eps)`-dual algorithms.

The paper's Table 1 lists the asymptotic running times of the three dual
algorithms:

=================  =====================================================
Section 4.2.5      ``O(n (log m + n log(eps m)))``
Section 4.3        ``O(n (1/eps^2 log m (log m / eps + log^3(eps m)) + log n))``
Section 4.3.3      ``O(n 1/eps^2 log m (log m / eps + log^3(eps m)))``
=================  =====================================================

Sections 4.3 and 4.3.3 share one implementation and one row here: the
bucketed piggyback-host search of Section 4.3.3 returns the same host as the
linear scan for the shortest one, so the two schedules are identical.

Since those are asymptotic statements, the reproduction measures *wall-clock*
running time of one dual step of each algorithm over sweeps of ``n``, ``m``
and ``eps`` and reports

* the measured times (the table rows), and
* the fitted power-law exponents in ``n`` and ``m`` — the "shape" check: the
  Section 4.3 algorithm should be roughly linear in ``n`` and
  polylogarithmic in ``m`` (small exponent), whereas Section 4.2.5 grows
  super-linearly in ``n``; both are far below the ``O(n*m)`` MRT baseline
  for large ``m`` (see the crossover study).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.bounded_algorithm import bounded_dual
from ..core.bounds import ludwig_tiwari_estimator
from ..core.compressible_algorithm import compressible_dual
from ..workloads.generators import random_mixed_instance
from .common import Table, fit_power_law, timed

__all__ = ["ALGORITHM_LABELS", "run", "main"]

ALGORITHM_LABELS = {
    "sec_4_2_5": "Section 4.2.5 (compressible knapsack)",
    "sec_4_3": "Section 4.3 / 4.3.3 (bounded knapsack)",
}

_DUALS = {"sec_4_2_5": compressible_dual, "sec_4_3": bounded_dual}


@dataclass
class Table1Row:
    algorithm: str
    n: int
    m: int
    eps: float
    seconds: float
    makespan: float
    accepted: bool
    #: bounded-knapsack item types of an accepted Section 4.3 step
    #: (``None`` for Section 4.2.5, which has no types, and for rejections)
    item_types: Optional[int] = None


def run(
    *,
    n_values: Sequence[int] = (100, 200, 400, 800),
    m_values: Sequence[int] = (512, 1024, 2048, 4096),
    eps_values: Sequence[float] = (0.1, 0.2, 0.4),
    base_n: int = 400,
    base_m: int = 1024,
    base_eps: float = 0.2,
    seed: int = 7,
    repeat: int = 1,
) -> Dict[str, List[Table1Row]]:
    """Measure one dual step of each algorithm over sweeps of n, m and eps.

    Each sweep varies one parameter and pins the others at the ``base_*``
    values; the dual target ``d`` is set to ``1.1 * omega`` (just above the
    estimator lower bound) so the step does real work and typically accepts.

    The defaults keep ``m < 16 n`` so that the knapsack machinery of the
    Section 4 algorithms is actually exercised (for ``m >= 16 n`` all of them
    delegate to the FPTAS dual, exactly as prescribed in Section 4.2.5).
    """
    rows: Dict[str, List[Table1Row]] = {key: [] for key in ALGORITHM_LABELS}

    def measure(key: str, n: int, m: int, eps: float) -> Table1Row:
        instance = random_mixed_instance(n, m, seed=seed)
        omega = ludwig_tiwari_estimator(instance.jobs, m).omega
        d = 1.1 * omega
        dual = _DUALS[key]
        seconds, schedule = timed(lambda: dual(instance.jobs, m, d, eps), repeat=repeat)
        return Table1Row(
            algorithm=key,
            n=n,
            m=m,
            eps=eps,
            seconds=seconds,
            makespan=schedule.makespan if schedule is not None else float("nan"),
            accepted=schedule is not None,
            item_types=schedule.metadata.get("num_item_types") if schedule is not None else None,
        )

    for key in ALGORITHM_LABELS:
        for n in n_values:
            rows[key].append(measure(key, n, base_m, base_eps))
        for m in m_values:
            rows[key].append(measure(key, base_n, m, base_eps))
        for eps in eps_values:
            rows[key].append(measure(key, base_n, base_m, eps))
    return rows


def scaling_exponents(rows: Dict[str, List[Table1Row]]) -> Dict[str, Dict[str, float]]:
    """Fitted power-law exponents of runtime vs n and vs m for each algorithm."""
    out: Dict[str, Dict[str, float]] = {}
    for key, entries in rows.items():
        by_n = [(r.n, r.seconds) for r in entries if r.eps == entries[0].eps]
        # group: the first len(n_values) entries vary n at fixed m
        n_points = {}
        m_points = {}
        for r in entries:
            n_points.setdefault((r.m, r.eps), []).append((r.n, r.seconds))
            m_points.setdefault((r.n, r.eps), []).append((r.m, r.seconds))
        best_n = max(n_points.values(), key=len)
        best_m = max(m_points.values(), key=len)
        out[key] = {
            "n_exponent": fit_power_law([p[0] for p in best_n], [p[1] for p in best_n])
            if len(best_n) >= 2
            else float("nan"),
            "m_exponent": fit_power_law([p[0] for p in best_m], [p[1] for p in best_m])
            if len(best_m) >= 2
            else float("nan"),
        }
    return out


def main(quick: bool = False) -> None:  # pragma: no cover - console entry point
    kwargs = {}
    if quick:
        kwargs = dict(
            n_values=(100, 200, 400),
            m_values=(256, 512, 1024),
            eps_values=(0.2, 0.4),
            base_n=200,
            base_m=512,
        )
    rows = run(**kwargs)
    table = Table(
        "Table 1 reproduction — wall-clock time of one (3/2+eps)-dual step",
        ["algorithm", "n", "m", "eps", "seconds", "accepted", "item types"],
        [],
    )
    for key, entries in rows.items():
        for r in entries:
            types = "-" if r.item_types is None else r.item_types
            table.add(ALGORITHM_LABELS[key], r.n, r.m, r.eps, r.seconds, r.accepted, types)
    table.print()

    exponents = scaling_exponents(rows)
    shape = Table(
        "Scaling shape (fitted power-law exponents of runtime)",
        ["algorithm", "exponent in n", "exponent in m"],
        [],
    )
    for key, vals in exponents.items():
        shape.add(ALGORITHM_LABELS[key], vals["n_exponent"], vals["m_exponent"])
    shape.print()


if __name__ == "__main__":  # pragma: no cover
    main()
