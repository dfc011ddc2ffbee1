#!/usr/bin/env python3
"""End-to-end benchmark of the scheduling library's public entry points.

Run from the repository root:

    python3 perfbench/run.py --workload solve-bounded --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

One client sends requests in a closed loop: each request is generated from
``(seed, index)`` outside the timed region, then the entry point is called
and waited for.  The workload's requests are sent in a fixed number of
rounds, set by ``--seconds``, and a request's latency is its best send.
Reported times are at reference machine speed (see :func:`yardstick`).
``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace 1``
runs the same requests alternately untraced and traced (see ``layers.py``)
and reports per-layer metrics.  ``--workload all`` runs each workload in a
child process of its own.  Every result is checked outside the timed region;
the process exits 1 if any check failed.  The last line of standard output is
one JSON object.
"""

import os

# single-threaded numerics, fixed before NumPy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
WARMUP_REQUESTS = 1
MIN_ROUNDS = 2
# the yardstick's time on a quiet 2-core x86-64 VM (Python 3.11), and how
# many of its latest readings set the current machine speed
YARDSTICK_REF_S = 0.005
YARDSTICK_WINDOW = 5
# requests used to read the tracing overhead and per-layer self times
TRACE_REQUESTS = {"online-stream": 2}


def yardstick() -> float:
    """Seconds a fixed pure-Python job (build, hash and sort 10k tuples)
    takes now.

    Other tenants of a shared host slow this process 1.5-2x for phases of
    seconds to minutes, and CPU time grows with wall time, so it cannot
    separate them.  The yardstick slows with the program; it is read before
    and after each timed call, and a time scaled by ``YARDSTICK_REF_S /``
    (median of the latest readings) is the time at reference speed.
    """
    gc.collect()
    t0 = perf_counter()
    items = [((i * 7919) % 10007, str(i)) for i in range(10000)]
    dict(items)
    items.sort()
    return perf_counter() - t0


class Speed:
    """Machine speed from the latest yardstick readings."""

    def __init__(self) -> None:
        self.readings = []

    def read(self) -> None:
        self.readings.append(yardstick())

    def scale(self) -> float:
        """The factor that takes a time measured between the latest
        readings to reference speed."""
        return YARDSTICK_REF_S / statistics.median(self.readings[-YARDSTICK_WINDOW:])


def setup_seconds(workload: str, seed: int) -> float:
    """Median time, at reference speed, of a fresh interpreter importing the
    package and generating one request: what a user pays before the first
    call."""
    code = (
        "import sys; sys.path[:0] = [%r, %r]; import workloads; "
        "w = workloads.WORKLOADS[%r]; w.make(workloads.rng(%d, 0))" % (SRC, HERE, workload, seed)
    )
    speed = Speed()
    times = []
    for _ in range(SETUP_REPEATS):
        speed.read()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        seconds = perf_counter() - t0
        speed.read()
        times.append(seconds * speed.scale())
    return statistics.median(times)


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def tail(latencies):
    """``(percentile, value)``: the highest of p75/p90/p95/p99 with at least
    ten samples above it, else p50."""
    ordered = sorted(latencies)
    best = (50, percentile(ordered, 50))
    for pct in (75, 90, 95, 99):
        value = percentile(ordered, pct)
        if sum(1 for x in ordered if x > value) >= 10:
            best = (pct, value)
    return best


class Run:
    """One closed-loop run of one workload."""

    def __init__(self, workload, seed: int) -> None:
        self.w = workload
        self.seed = seed
        self.attempted = 0
        self.failures = []
        self.speed = Speed()

    def request(self, index: int):
        from workloads import rng

        return self.w.make(rng(self.seed, index))

    def send(self, index: int):
        """Generate, call (timed) and check request ``index``; returns
        ``(seconds, scale, result, ok)``: wall seconds, the factor to
        reference speed, and the result (``None`` if the call raised)."""
        req = self.request(index)
        self.speed.read()  # collects garbage first
        t0 = perf_counter()
        try:
            result = self.w.call(req)
        except Exception as exc:  # a failed request is data, not a crash
            seconds = perf_counter() - t0
            errors = [f"raised {exc!r}"]
            result = None
        else:
            seconds = perf_counter() - t0
            errors = self.w.check(req, result)
        self.speed.read()
        self.attempted += 1
        if errors:
            self.failures.append(f"request {index}: {errors[0]}")
        return seconds, self.speed.scale(), result, not errors

    def compare_reference(self, index: int, result) -> None:
        """Bit-for-bit comparison with the workload's reference path."""
        reference = self.w.reference(self.request(index))
        if self.w.fingerprint(reference) != self.w.fingerprint(result):
            self.failures.append(f"request {index}: differs from the reference")

    def warm_up(self) -> None:
        for k in range(WARMUP_REQUESTS):
            self.w.call(self.request(10**6 + k))

    def untraced(self, seconds: float) -> dict:
        """Send the workload's requests in as many rounds as fill
        ``seconds`` at reference speed (at least :data:`MIN_ROUNDS`).  The
        count depends on ``seconds`` only, not on how fast the program is,
        so every commit takes the best of the same number of sends.  A
        request's latency is its best send at reference speed: interference
        from other tenants only ever slows a send down, and a burst rarely
        spans every round."""
        n = self.w.requests
        sample = self.seed % n
        best = [math.inf] * n
        raw = [math.inf] * n
        ratios = []
        rounds = max(MIN_ROUNDS, round(seconds / self.w.round_s))
        for r in range(rounds):
            for index in range(n):
                dt, scale, result, ok = self.send(index)
                best[index] = min(best[index], dt * scale)
                raw[index] = min(raw[index], dt)
                if r == 0:
                    if result is not None:
                        ratios.append(self.w.ratio(result))
                    if index == sample and ok:
                        self.compare_reference(index, result)
        pct, tail_value = tail(best)
        return {
            "rounds": rounds,
            "raw_p50_ms": statistics.median(raw) * 1e3,
            "raw_jobs_per_s": n * self.w.jobs / sum(raw),
            "speed": YARDSTICK_REF_S / statistics.median(self.speed.readings),
            "latency_p50_ms": statistics.median(best) * 1e3,
            "latency_tail_ms": tail_value * 1e3,
            "tail_percentile": pct,
            "jobs_per_s": n * self.w.jobs / sum(best),
            "certified_ratio_mean": statistics.fmean(ratios) if ratios else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def traced(self, seconds: float) -> dict:
        """Alternate untraced and traced sends of the same requests until
        ``seconds`` have passed.  Self times average every traced send;
        calls and counts come from the first pass over the requests, so they
        repeat per seed.  The first request's spans are written out."""
        import layers
        from spans import Tracer

        fixed = TRACE_REQUESTS.get(self.w.name, 4)
        tracer = Tracer()
        plain = traced = 0.0
        walls = {}
        deadline = perf_counter() + seconds
        index = 0
        try:
            while index < fixed or perf_counter() < deadline:
                request = index % fixed
                plain += self.send(request)[0]
                layers.install(tracer)
                tracer.begin(index)
                try:
                    walls[index] = self.send(request)[0]
                    layers.harvest(tracer)
                finally:
                    tracer.remove()
                tracer.end(keep=index == 0)
                traced += walls[index]
                index += 1
        finally:
            tracer.remove()
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{self.w.name}-{self.seed}.jsonl"))

        timed = list(walls)
        metrics = layers.layer_metrics(tracer, timed, list(range(fixed)))
        wall = sum(walls.values())
        metrics["trace.unattributed_share"] = (wall - sum(tracer.roots[i] for i in timed)) / wall
        metrics["trace.overhead_ratio"] = traced / plain
        return metrics


def finite(value: float):
    """``value``, or ``None`` where JSON has no number for it."""
    return value if math.isfinite(value) else None


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    run = Run(WORKLOADS[name], seed)
    if trace:
        run.warm_up()
        return {"run": run, "metrics": run.traced(seconds)}
    setup = setup_seconds(name, seed)
    run.warm_up()
    metrics = run.untraced(seconds)
    metrics["setup_s"] = setup
    return {"run": run, "metrics": metrics}


def run_each(names, seed: int, seconds: float, trace: int) -> int:
    """Run each workload in a child process of its own, so each reports its
    own peak RSS, and print their results merged into one JSON object."""
    attempted = failed = 0
    metrics = {}
    for name in names:
        argv = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__)] + argv, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with code {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics[name] = result["metrics"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="seconds to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no package source at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        return run_each(list(WORKLOADS), args.seed, seconds, args.trace)

    name = args.workload
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = environment()
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    out = run_workload(name, args.seed, seconds, bool(args.trace))
    run, metrics = out["run"], out["metrics"]
    print(f"\n== {name} (seed {args.seed}, {run.attempted} requests, closed loop, one client)")
    if not args.trace:
        print(
            f"   {run.w.requests} requests x {metrics['rounds']} rounds; machine speed "
            f"{metrics['speed']:.3f} x reference; unscaled best sends: p50 "
            f"{metrics['raw_p50_ms']:.2f} ms, {metrics['raw_jobs_per_s']:.6g} jobs/s"
        )
        print(f"   {'error_rate':<40} {len(run.failures) / run.attempted:>14.6g} ratio")
        print(
            f"   {'latency_tail_ms':<40} {metrics['latency_tail_ms']:>14.6g} ms "
            f"(p{metrics['tail_percentile']} of {run.w.requests}; not gated)"
        )
    for m in wanted:
        print(f"   {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    for failure in run.failures[:10]:
        print(f"   FAILED {failure}")

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": finite(metrics[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
