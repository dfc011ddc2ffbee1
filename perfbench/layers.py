"""Where the traced run wraps the program, and the per-layer metrics it reads.

Each layer's public function is wrapped at the site its caller looks it up:
a name a module imported, or a method on a class.  Counts come from return
values, arguments and the oracle objects the program builds, never from
edits to the program.
"""

from __future__ import annotations

from typing import Dict, List

from spans import Tracer

# span names, in report order
SPANS = (
    "core.scheduler",
    "core.bounds.lower_bound",
    "core.bounds.estimator",
    "core.dual",
    "core.rounding",
    "knapsack",
    "core.shelves",
    "core.list_scheduling",
    "core.validation",
    "perf.oracle.build",
    "perf.oracle.gamma_array",
    "perf.oracle.gamma",
    "perf.schedule_builder",
    "perf.megabatch.pack",
    "perf.megabatch.gamma_round",
    "perf.megabatch.eval_round",
    "perf.megabatch.driver",
    "core.replan.commit",
    "core.replan.replan",
    "core.replan.stitch",
    "online",
    "online.offline",
)

# deterministic per-request counts
COUNTS = (
    "core.dual.dual_calls",
    "core.dual.accept_ratio",
    "perf.oracle.gamma_probes",
    "knapsack.items",
    "core.rounding.item_types",
    "core.list_scheduling.jobs",
    "perf.megabatch.gamma_rounds",
    "perf.megabatch.solo_fallbacks",
    "core.replan.replans",
)


def _count_accepts(tracer: Tracer, dual_binary_search):
    """``dual_binary_search`` whose dual step counts its accepted targets."""

    def search(jobs, m, dual_fn, *args, **kwargs):
        def dual_step(d):
            schedule = dual_fn(d)
            tracer.count("core.dual.accepted", schedule is not None)
            return schedule

        return dual_binary_search(jobs, m, dual_step, *args, **kwargs)

    return search


def _on_dual(tracer, args, kwargs, result):
    tracer.count("core.dual.dual_calls", result.dual_calls)


def _on_rounding(tracer, args, kwargs, result):
    tracer.count("core.rounding.item_types", result.num_types)


def _on_knapsack(tracer, args, kwargs, result):
    tracer.count("knapsack.items", len(args[0]))


def _on_list(tracer, args, kwargs, result):
    tracer.count("core.list_scheduling.jobs", len(args[0]))


def _keep(kind):
    def hook(tracer, args, kwargs, result):
        tracer.keep(kind, args[0])

    return hook


def _on_online(tracer, args, kwargs, result):
    tracer.count("core.replan.replans", result.report.replans)


def _on_mega(tracer, args, kwargs, result):
    tracer.count("perf.megabatch.instances", len(args[0]))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the four public entry points."""
    import repro
    import repro.core.bounded_algorithm as bounded_algorithm
    import repro.core.compressible_algorithm as compressible_algorithm
    import repro.core.dual as dual
    import repro.core.fptas as fptas
    import repro.core.mrt as mrt
    import repro.core.replan as replan
    import repro.core.scheduler as scheduler
    import repro.core.two_approx as two_approx
    import repro.online.scheduler as online
    import repro.perf.megabatch as megabatch
    import repro.perf.oracle as oracle
    import repro.perf.schedule_builder as schedule_builder

    p = tracer.patch
    p(replan, "schedule_moldable", "core.scheduler")
    p(online, "schedule_moldable", "online.offline")
    p(megabatch, "schedule_moldable", "core.scheduler")
    for mod in (scheduler, online):
        p(mod, "makespan_lower_bound", "core.bounds.lower_bound")
    for mod in (two_approx, dual):
        p(mod, "ludwig_tiwari_estimator", "core.bounds.estimator")
    for mod in (bounded_algorithm, fptas, mrt, compressible_algorithm):
        p(mod, "dual_binary_search", "core.dual", _on_dual, around=_count_accepts)
    p(bounded_algorithm, "round_jobs_to_types", "core.rounding", _on_rounding)
    p(bounded_algorithm, "solve_compressible_knapsack", "knapsack", _on_knapsack)
    p(bounded_algorithm, "build_three_shelf_schedule", "core.shelves")
    for mod in (two_approx, megabatch):
        p(mod, "list_schedule", "core.list_scheduling", _on_list)
    for mod in (scheduler, two_approx, bounded_algorithm, fptas, mrt, compressible_algorithm, megabatch):
        p(mod, "assert_valid_schedule", "core.validation")
    p(online, "validate_schedule", "core.validation")
    p(oracle.BatchedOracle, "__init__", "perf.oracle.build", _keep("oracle"))
    p(oracle.BatchedOracle, "gamma_array", "perf.oracle.gamma_array")
    p(oracle.BatchedOracle, "gamma", "perf.oracle.gamma")
    # fptas imports it lazily, from the module, on every call
    p(schedule_builder, "schedule_from_arrays", "perf.schedule_builder")
    p(megabatch, "schedule_from_arrays", "perf.schedule_builder")
    p(megabatch.MegaBatch, "__init__", "perf.megabatch.pack", _keep("megabatch"))
    p(megabatch.MegaOracle, "gamma_round", "perf.megabatch.gamma_round", _keep("megaoracle"))
    p(megabatch.MegaOracle, "eval_round", "perf.megabatch.eval_round")
    p(replan.ReplanState, "commit_epoch", "core.replan.commit")
    p(replan.ReplanState, "replan_pending", "core.replan.replan")
    p(replan.ReplanState, "stitch", "core.replan.stitch")
    p(online.OnlineScheduler, "run", "online", _on_online)
    # the entry points the benchmark calls, looked up on the package
    p(repro, "schedule_moldable", "core.scheduler")
    p(repro, "solve_mega", "perf.megabatch.driver", _on_mega)


def harvest(tracer: Tracer) -> None:
    """Turn the objects kept during the request just finished into counts."""
    kept = tracer.objects
    probes = sum(o.gamma_probes for o in kept.pop("oracle", []))
    tracer.count("perf.oracle.gamma_probes", probes)
    for mega in {id(o): o for o in kept.pop("megaoracle", [])}.values():
        tracer.count("perf.megabatch.gamma_rounds", mega.stats["gamma_rounds"])
    packed = sum(len(batch) for batch in kept.pop("megabatch", []))
    counts = tracer.counts[tracer.request]
    if "perf.megabatch.instances" in counts:
        counts["perf.megabatch.solo_fallbacks"] += counts.pop("perf.megabatch.instances") - packed


def layer_metrics(tracer: Tracer, timed: List[int], first: List[int]) -> Dict[str, float]:
    """Per-request means: each span's ``.self_s`` over the ``timed``
    requests, and its ``.calls`` plus every count in :data:`COUNTS` over the
    ``first`` pass (which repeats exactly per seed)."""
    selfs = tracer.selfs
    out: Dict[str, float] = {}
    for name in SPANS:
        out[f"{name}.self_s"] = sum(selfs[r][name][0] for r in timed if name in selfs[r]) / len(timed)
        out[f"{name}.calls"] = sum(selfs[r][name][1] for r in first if name in selfs[r]) / len(first)
    for key in COUNTS:
        out[key] = sum(tracer.counts[r].get(key, 0.0) for r in first) / len(first)
    accepted = sum(tracer.counts[r].get("core.dual.accepted", 0.0) for r in first)
    dual_calls = out["core.dual.dual_calls"] * len(first)
    out["core.dual.accept_ratio"] = accepted / dual_calls if dual_calls else 0.0
    return out
