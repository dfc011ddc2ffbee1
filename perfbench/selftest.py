#!/usr/bin/env python3
"""Self-test of the benchmark: determinism and the busy/idle layer contrasts.

    python3 perfbench/selftest.py

For every workload, two same-seed runs must give identical per-layer counts
and an identical ``certified_ratio_mean``; the traced run must attribute at
least 95% of request wall time to named spans and show each workload's idle
layers at zero calls.  Exits 1 on the first failed assertion.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402  (first: it pins the numeric thread counts)
import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3

# spans that must see no calls at all on a workload
IDLE = {
    "solve-bounded": ["core.list_scheduling", "perf.megabatch.driver", "core.replan.replan"],
    "solve-two-approx": ["knapsack", "core.rounding", "core.shelves", "perf.megabatch.driver", "core.replan.replan"],
    "online-stream": ["perf.megabatch.driver"],
    "fleet-mega": ["knapsack", "core.bounds.lower_bound", "core.replan.replan"],
}


def deterministic(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k in layers.COUNTS or k.endswith(".calls")}


def main() -> int:
    for name, workload in WORKLOADS.items():
        first, second = (run.Run(workload, SEED).traced(0) for _ in range(2))
        assert deterministic(first) == deterministic(second), f"{name}: counts differ between same-seed runs"
        ratios = [run.Run(workload, SEED).untraced(0)["certified_ratio_mean"] for _ in range(2)]
        assert ratios[0] == ratios[1], f"{name}: certified_ratio_mean {ratios}"
        assert first["trace.unattributed_share"] < 0.05, f"{name}: {first['trace.unattributed_share']:.1%} unattributed"
        for span in IDLE[name]:
            assert first[f"{span}.calls"] == 0, f"{name}: {span} was called"
        busy = {k[: -len(".calls")] for k, v in first.items() if k.endswith(".calls") and v > 0}
        megabatch = any(s.startswith("perf.megabatch.") for s in busy)
        replan = any(s.startswith("core.replan.") for s in busy)
        assert megabatch == (name == "fleet-mega"), f"{name}: perf.megabatch busy={megabatch}"
        assert replan == (name == "online-stream"), f"{name}: core.replan busy={replan}"
        if name == "solve-two-approx":
            selfs = {s: first[f"{s}.self_s"] for s in layers.SPANS}
            assert max(selfs, key=selfs.get) == "core.bounds.lower_bound", f"{name}: largest self time {selfs}"
        print(f"ok {name}: busy {sorted(busy)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
