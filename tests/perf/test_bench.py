"""Unit tests for the multi-family sharded bench harness (no timing runs)."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks"))

from bench_perf_suite import (  # noqa: E402
    ALL_ALGORITHMS,
    GATES,
    BenchReport,
    BenchRow,
    BenchShardTimeout,
    DEFAULT_FAMILIES,
    FAMILIES,
    TABLE1_ALGORITHMS,
    _HUGE_MS,
    _MEGA_FLEETS,
    _aggregate,
    _collect_pool_rows,
    _configs,
    _normalize_families,
    check_regression,
    run_suite,
)


def _row(algorithm, family, n, speedup, identical=True, probes=(0, 0)):
    return BenchRow(
        algorithm=algorithm,
        family=family,
        n=n,
        m=8 * n,
        eps=0.1,
        scalar_seconds=speedup,
        vectorized_seconds=1.0,
        speedup=speedup,
        scalar_makespan=1.0,
        vectorized_makespan=1.0 if identical else 2.0,
        makespans_identical=identical,
        gamma_probes_warm=probes[0],
        gamma_probes_cold=probes[1],
    )


class TestConfigs:
    def test_full_sweep_covers_all_families_and_algorithms(self):
        configs = _configs("full", list(DEFAULT_FAMILIES))
        families = {c["family"] for c in configs}
        algorithms = {c["algorithm"] for c in configs}
        assert families == set(DEFAULT_FAMILIES)
        # recovery, online arrivals, fleet-serving and the astronomical-m
        # shard ride alongside the backend sweep
        assert algorithms == set(ALL_ALGORITHMS) | {
            "recovery", "online", "serve", "huge_m", "megabatch",
        }
        # the tiny family pins every algorithm to the large-m dispatch shape
        tiny = [c for c in configs if c["family"] == "tiny_n_huge_m"]
        assert {c["algorithm"] for c in tiny} == set(ALL_ALGORITHMS)
        assert all(c["n"] == 64 and c["m"] == 1 << 22 for c in tiny)
        # gate rows exist at n >= 1000 for every non-tiny family (chain only
        # ever sweeps the list-scheduling phase)
        for family in DEFAULT_FAMILIES:
            if family in ("tiny_n_huge_m", "chain"):
                continue
            assert any(
                c["algorithm"] == "fptas" and c["family"] == family and c["n"] >= 1000
                for c in configs
            )
            assert any(
                c["algorithm"] == "two_approx" and c["family"] == family and c["n"] >= 1000
                for c in configs
            )

    def test_chain_family_sweeps_only_list_schedule(self):
        configs = _configs("full", list(DEFAULT_FAMILIES))
        chain = [c for c in configs if c["family"] == "chain"]
        assert chain and all(c["algorithm"] == "list_schedule" for c in chain)
        assert {c["n"] for c in chain} == {1000, 2000}
        # the deep-queue shape: n well above m
        assert all(c["n"] >= 8 * c["m"] for c in chain)
        smoke = [
            c
            for c in _configs("smoke", list(DEFAULT_FAMILIES))
            if c["algorithm"] == "list_schedule" and c["family"] == "chain"
        ]
        # the smoke gate keeps the deep-queue regime under the event-queue floor
        assert [c["n"] for c in smoke] == [2000]

    def test_smoke_round_robins_families(self):
        families = list(DEFAULT_FAMILIES)
        configs = _configs("smoke", families)
        table1 = [c for c in configs if c["algorithm"] in TABLE1_ALGORITHMS]
        assert [c["family"] for c in table1] == families[: len(table1)]
        # every requested family appears somewhere in the smoke run
        assert {c["family"] for c in configs} == set(families)
        # the gate rows stay at n >= 1000
        for algorithm in ("fptas", "two_approx"):
            rows = [c for c in configs if c["algorithm"] == algorithm]
            assert any(c["n"] >= 1000 for c in rows)

    def test_fptas_rows_respect_machine_threshold(self):
        for mode in ("smoke", "full"):
            for c in _configs(mode, list(DEFAULT_FAMILIES)):
                if c["algorithm"] == "fptas":
                    assert c["m"] >= 8 * c["n"] / 0.5

    def test_list_schedule_rows_present_at_gate_sizes(self):
        for mode in ("smoke", "full"):
            configs = _configs(mode, list(DEFAULT_FAMILIES))
            rows = [c for c in configs if c["algorithm"] == "list_schedule"]
            assert any(c["n"] >= 1000 for c in rows), mode

    def test_recovery_rows_present_in_both_modes(self):
        for mode in ("smoke", "full"):
            configs = _configs(mode, list(DEFAULT_FAMILIES))
            rows = [c for c in configs if c["algorithm"] == "recovery"]
            assert rows, mode
            # recovery is an end-to-end loop on a moderate cluster, never
            # the tiny_n_huge_m / chain coverage shapes
            assert all(c["family"] not in ("tiny_n_huge_m", "chain") for c in rows)

    def test_online_rows_present_in_both_modes(self):
        for mode in ("smoke", "full"):
            configs = _configs(mode, list(DEFAULT_FAMILIES))
            rows = [c for c in configs if c["algorithm"] == "online"]
            assert rows, mode
            # the online loop, like recovery, runs on a moderate cluster,
            # never the tiny_n_huge_m / chain coverage shapes
            assert all(c["family"] not in ("tiny_n_huge_m", "chain") for c in rows)

    def test_huge_m_rows_present_in_both_modes(self):
        for mode in ("smoke", "full"):
            configs = _configs(mode, list(DEFAULT_FAMILIES))
            rows = [c for c in configs if c["algorithm"] == "huge_m"]
            # one row per astronomical machine count, straddling the exact
            # float boundary (2^53 + 1) and both wide-tier magnitudes
            assert {c["m"] for c in rows} == set(_HUGE_MS), mode
            assert min(_HUGE_MS) == (1 << 53) + 1
            assert max(_HUGE_MS) > 1 << 62
            # normal workload families only: the capacity tier is what the
            # row varies, not the instance shape
            assert all(c["family"] not in ("tiny_n_huge_m", "chain") for c in rows)

    def test_megabatch_rows_present_in_both_modes(self):
        for mode in ("smoke", "full"):
            configs = _configs(mode, list(DEFAULT_FAMILIES))
            rows = [c for c in configs if c["algorithm"] == "megabatch"]
            # one row per fleet size, including at least one at the gated
            # fleet >= 32 regime, all on small-n instances (the lockstep
            # amortisation target)
            assert {c["fleet"] for c in rows} == set(_MEGA_FLEETS), mode
            assert max(_MEGA_FLEETS) >= 32
            assert all(c["n"] <= 16 for c in rows)
            assert all(c["family"] not in ("tiny_n_huge_m", "chain") for c in rows)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown families"):
            _normalize_families(["mixed", "nope"])

    def test_family_registry_generators_work(self):
        for name, generator in FAMILIES.items():
            instance = generator(6, 48, seed=1)
            assert instance.n == 6


def _serve_bench_row(
    healthy=1.0, chaos=4.0, instances=12, degraded=1, quarantined=0, identical=True
):
    return BenchRow(
        algorithm="serve",
        family="mixed",
        n=40,
        m=64,
        eps=0.1,
        scalar_seconds=healthy,
        vectorized_seconds=chaos,
        speedup=healthy / chaos,
        scalar_makespan=100.0,
        vectorized_makespan=100.0 if identical else 101.0,
        makespans_identical=identical,
        serve_instances=instances,
        serve_degraded=degraded,
        serve_quarantined=quarantined,
    )


def _chain_row(speedup, n=2000):
    row = _row("list_schedule", "chain", n, speedup)
    row.m = max(64, n // 16)
    return row


def _replan_row(algorithm, probes=(120, 1000), replans=4, warm_seconds=0.5):
    row = _row(algorithm, "mixed", 80, 1.0)
    row.m = 64
    row.gamma_probes_warm, row.gamma_probes_cold = probes
    row.replans = replans
    row.vectorized_seconds = warm_seconds
    return row


def _mega_row(speedup, fleet=32):
    row = _row("megabatch", "mixed", 6, speedup)
    row.m = 48
    row.mega_fleet = fleet
    return row


def _huge_m_row(speedup):
    row = _row("huge_m", "mixed", 2000, speedup)
    row.m = (1 << 53) + 1
    return row


def _label(row):
    return f"{row.algorithm}/{row.family} (n={row.n}, m={row.m})"


@pytest.fixture
def floors_only(tmp_path):
    """A baseline without speedup aggregates: only the floors are checked."""
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"aggregates": {}}))
    return str(baseline)


def _report(rows):
    report = BenchReport(mode="full", seed=1, rows=rows)
    report.identical_makespans = all(r.makespans_identical for r in rows)
    report.aggregates = _aggregate(rows)
    return report


#: Per gated aggregate: its floor, the algorithms whose rows a failure
#: names, and one row entry the failure over :func:`_gate_rows` must carry.
GATE_SPECS = {
    "fptas_two_approx_table1_geomean_n1000": (
        8.0, {"fptas", "two_approx"}, "two_approx/mixed (n=2000, m=16000): 6.00x",
    ),
    "speedup_list_schedule_n1000": (
        2.0, {"list_schedule"}, "list_schedule/chain (n=2000, m=125): 1.10x",
    ),
    "recovery_probe_reduction": (
        0.5, {"recovery"}, "warm 700 vs cold 1000 over 4 re-plans",
    ),
    "online_probe_reduction": (
        0.5, {"online"}, "warm 700 vs cold 1000 over 6 re-plans",
    ),
    "serve_throughput_healthy": (
        0.5, {"serve"}, "12 instances in healthy 1.00s / chaos 60.00s (1 degraded, 0 quarantined)",
    ),
    "serve_throughput_chaos": (
        0.5, {"serve"}, "12 instances in healthy 1.00s / chaos 60.00s (1 degraded, 0 quarantined)",
    ),
    "speedup_huge_m": (
        2.0, {"huge_m"}, "huge_m/mixed (n=2000, m=9007199254740993): 1.50x",
    ),
    "megabatch_speedup": (
        2.25, {"megabatch"}, "1.20x (fleet=32), megabatch/mixed (n=6, m=48): 1.80x (fleet=128)",
    ),
}


def _gate_rows():
    """Rows of every gated algorithm (two of some, out of order), plus an
    ungated one."""
    return [
        _row("mrt", "mixed", 1000, 4.0),
        _row("fptas", "mixed", 2000, 5.0),
        _row("two_approx", "mixed", 2000, 6.0),
        _row("list_schedule", "mixed", 2000, 3.0),
        _chain_row(1.1),
        _replan_row("recovery", probes=(700, 1000), replans=4),
        _replan_row("online", probes=(700, 1000), replans=6),
        _serve_bench_row(healthy=1.0, chaos=60.0),
        _huge_m_row(1.5),
        _mega_row(1.8, fleet=128),
        _mega_row(1.2, fleet=32),
    ]


class TestGates:
    def test_gate_table_floors(self):
        assert {gate.keys[0]: gate.floor for gate in GATES} == {
            key: spec[0] for key, spec in GATE_SPECS.items()
        }

    @pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.keys[0])
    def test_gate_fails_below_its_floor_and_passes_at_it(self, gate, floors_only):
        key = gate.keys[0]
        _, algorithms, entry = GATE_SPECS[key]
        rows = _gate_rows()
        report = BenchReport(mode="full", seed=1, rows=rows)
        report.aggregates = {key: gate.floor * (1.0 - 1e-9)}
        (failure,) = check_regression(report, floors_only)
        assert failure.startswith(f"{key}: ") and f"fell below the {gate.name}" in failure
        assert entry in failure
        for row in rows:
            assert (_label(row) in failure) == (row.algorithm in algorithms), _label(row)
        report.aggregates = {key: gate.floor}
        assert not check_regression(report, floors_only)

    def test_assembly_floor_names_mixed_rows_slowest_first(self, floors_only):
        rows = [
            _row("two_approx", "mixed", 2000, 5.0),
            _row("fptas", "mixed", 2000, 3.0),
            _row("fptas", "comm", 2000, 1.0),
        ]
        message = "\n".join(check_regression(_report(rows), floors_only))
        assert "fptas_two_approx_table1_geomean_n1000" in message
        assert message.index("fptas/mixed") < message.index("two_approx/mixed")
        # only the Table-1 rows feed the gated geomean
        assert "fptas/comm" not in message

    def test_assembly_floor_falls_back_to_all_families(self, floors_only):
        rows = [_row("fptas", "comm", 2000, 5.0), _row("two_approx", "bimodal", 2000, 6.0)]
        message = "\n".join(check_regression(_report(rows), floors_only))
        assert message.startswith("fptas_two_approx_geomean_n1000: ")
        assert "fptas/comm" in message and "two_approx/bimodal" in message

    def test_gates_parameter_takes_a_sub_table(self, floors_only):
        report = _report([_chain_row(1.1), _mega_row(1.2)])
        assert len(check_regression(report, floors_only)) == 2
        (failure,) = check_regression(
            report, floors_only, gates=[g for g in GATES if "megabatch_speedup" in g.keys]
        )
        assert failure.startswith("megabatch_speedup: ")
        assert not check_regression(report, floors_only, gates=())


class TestAggregatesAndGate:
    def test_assembly_geomean_aggregate(self):
        rows = [
            _row("fptas", "mixed", 1000, 8.0),
            _row("fptas", "comm", 2000, 18.0),
            _row("two_approx", "mixed", 2000, 9.0),
            _row("two_approx", "tiny", 64, 0.5),  # small n excluded
        ]
        aggregates = _aggregate(rows)
        assert aggregates["fptas_two_approx_geomean_n1000"] == pytest.approx(
            (8.0 * 18.0 * 9.0) ** (1 / 3)
        )
        # the gated variant only counts Table-1 (mixed-family) rows
        assert aggregates["fptas_two_approx_table1_geomean_n1000"] == pytest.approx(
            (8.0 * 9.0) ** (1 / 2)
        )
        assert aggregates["speedup_fptas_n1000"] == pytest.approx(12.0)

    def test_relative_regression_failure_names_rows(self, tmp_path):
        report = _report([_row("mrt", "comm", 1000, 4.0)])
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"aggregates": {"speedup_mrt": 20.0}}))
        (failure,) = check_regression(report, str(baseline))
        assert failure.startswith("speedup_mrt: speedup 4.00x fell below 10.00x")
        assert "mrt/comm" in failure

    def test_makespan_mismatch_names_the_offending_rows(self, floors_only):
        """A red gate must point at the failing algorithm/family pair, not
        just report the aggregate verdict."""
        rows = [
            _row("mrt", "mixed", 1000, 10.0),
            _row("fptas", "bimodal", 2000, 9.0, identical=False),
        ]
        message = "\n".join(check_regression(_report(rows), floors_only))
        assert "different makespans" in message
        assert "fptas/bimodal" in message
        assert "n=2000" in message
        assert "mrt/mixed" not in message

    def test_gamma_probe_aggregates(self):
        rows = [
            _row("fptas", "mixed", 2000, 10.0, probes=(300, 1000)),
            _row("two_approx", "mixed", 2000, 9.0, probes=(100, 1000)),
            _row("mrt", "mixed", 1000, 5.0),
        ]
        aggregates = _aggregate(rows)
        assert aggregates["gamma_probes_warm_total"] == 400.0
        assert aggregates["gamma_probes_cold_total"] == 2000.0
        assert aggregates["gamma_probe_reduction"] == pytest.approx(0.8)

    def test_gamma_probe_aggregates_absent_without_instrumented_rows(self):
        aggregates = _aggregate([_row("mrt", "mixed", 1000, 5.0)])
        assert "gamma_probe_reduction" not in aggregates

    def test_chain_rows_feed_the_list_schedule_geomean(self):
        rows = [
            _chain_row(16.0),
            _row("list_schedule", "mixed", 2000, 4.0),
            _row("mrt", "mixed", 1000, 5.0),
        ]
        aggregates = _aggregate(rows)
        assert aggregates["speedup_list_schedule_n1000"] == pytest.approx(8.0)
        assert not any(key.startswith("candidate_") for key in aggregates)

    def test_recovery_aggregates(self):
        rows = [
            _replan_row("recovery", probes=(100, 800), replans=3, warm_seconds=0.5),
            _replan_row("recovery", probes=(100, 200), replans=5, warm_seconds=1.5),
            # fptas probes must stay out of the recovery aggregate (and the
            # recovery probes out of gamma_probe_reduction)
            _row("fptas", "mixed", 2000, 10.0, probes=(300, 1000)),
        ]
        aggregates = _aggregate(rows)
        assert aggregates["recovery_probes_warm_total"] == 200.0
        assert aggregates["recovery_probes_cold_total"] == 1000.0
        assert aggregates["recovery_probe_reduction"] == pytest.approx(0.8)
        assert aggregates["recovery_replans_total"] == 8.0
        assert aggregates["recovery_replans_per_sec"] == pytest.approx(4.0)
        assert aggregates["gamma_probes_warm_total"] == 300.0
        assert aggregates["gamma_probes_cold_total"] == 1000.0
        assert "recovery_probe_reduction" not in _aggregate(rows[-1:])

    def test_online_aggregates(self):
        rows = [
            _replan_row("online", probes=(150, 900), replans=4, warm_seconds=0.5),
            _replan_row("online", probes=(50, 100), replans=6, warm_seconds=1.5),
            # recovery probes must stay out of the online aggregate and
            # vice versa — same counters, different warm-start policies
            _replan_row("recovery", probes=(100, 800)),
        ]
        aggregates = _aggregate(rows)
        assert aggregates["online_probes_warm_total"] == 200.0
        assert aggregates["online_probes_cold_total"] == 1000.0
        assert aggregates["online_probe_reduction"] == pytest.approx(0.8)
        assert aggregates["online_replans_total"] == 10.0
        assert aggregates["online_replans_per_sec"] == pytest.approx(5.0)
        assert aggregates["recovery_probes_cold_total"] == 800.0
        assert "online_probe_reduction" not in _aggregate(rows[-1:])

    def test_megabatch_aggregates_gate_on_large_fleets_only(self):
        rows = [
            _mega_row(2.0, fleet=8),
            _mega_row(3.0, fleet=32),
            _mega_row(12.0, fleet=128),
            _row("mrt", "mixed", 1000, 5.0),
        ]
        aggregates = _aggregate(rows)
        # the gated geomean reads fleet >= 32 rows only; the small-fleet row
        # still contributes to the recorded curve
        assert aggregates["megabatch_speedup"] == pytest.approx(6.0)
        assert aggregates["megabatch_speedup_all"] == pytest.approx(
            (2.0 * 3.0 * 12.0) ** (1 / 3)
        )
        # megabatch rows are solo-vs-lockstep, not a backend ratio: they must
        # stay out of the per-algorithm and all-row backend speedups
        assert "speedup_megabatch" not in aggregates
        assert aggregates["speedup_geomean_all"] == pytest.approx(5.0)
        assert "megabatch_speedup" not in _aggregate(rows[-1:])

    def test_stale_baseline_missing_row_fails_with_named_message(self, tmp_path):
        """A baseline that predates freshly added rows must fail the gate
        with a message naming the missing aggregate and its rows — not pass
        silently and not raise a KeyError."""
        report = _report([_row("mrt", "mixed", 1000, 5.0), _chain_row(1.6)])
        baseline = tmp_path / "baseline.json"
        # an old baseline: knows mrt, predates the list_schedule rows
        baseline.write_text(
            json.dumps({"aggregates": {"speedup_mrt": 5.0, "speedup_mrt_n1000": 5.0}})
        )
        message = "\n".join(check_regression(report, str(baseline), gates=()))
        assert "speedup_list_schedule" in message
        assert "no reference" in message and "re-record" in message
        assert "list_schedule/chain" in message
        # a deliberately aggregate-free baseline still means "floors only"
        baseline.write_text(json.dumps({"aggregates": {}}))
        assert not check_regression(report, str(baseline), gates=())


class TestShardedRun:
    def test_pool_rows_match_sequential(self):
        """The pooled run must merge per-shard rows in configuration order
        with identical (deterministic) makespans — only timings may differ."""
        sequential = run_suite(
            "smoke", seed=3, repeat=1, verbose=False, families=["mixed"], processes=1
        )
        pooled = run_suite(
            "smoke", seed=3, repeat=1, verbose=False, families=["mixed"], processes=2
        )
        assert [r.algorithm for r in pooled.rows] == [r.algorithm for r in sequential.rows]
        assert [r.scalar_makespan for r in pooled.rows] == [
            r.scalar_makespan for r in sequential.rows
        ]
        assert pooled.identical_makespans and sequential.identical_makespans


class TestSmokeFamilySelection:
    def test_tiny_only_smoke_never_sweeps_excluded_families(self):
        configs = _configs("smoke", ["tiny_n_huge_m"])
        assert {c["family"] for c in configs} == {"tiny_n_huge_m"}
        assert {c["algorithm"] for c in configs} >= {"fptas", "two_approx"}

    def test_non_mixed_gate_rows_use_requested_family(self):
        configs = _configs("smoke", ["comm"])
        gates = [c for c in configs if c["algorithm"] in ("fptas", "two_approx")]
        assert all(c["family"] == "comm" for c in gates)
        assert any(c["n"] >= 1000 for c in gates)


class TestServeRowsAndPoolTimeout:
    def test_serve_rows_feed_throughput_not_speedups(self):
        rows = [_row("fptas", "mixed", 2000, 12.0), _serve_bench_row()]
        aggregates = _aggregate(rows)
        # the healthy/chaos wall-clock pair is not a backend ratio: no
        # speedup aggregate, and the all-row geomean ignores it
        assert "speedup_serve" not in aggregates
        assert aggregates["speedup_geomean_all"] == pytest.approx(12.0)
        assert aggregates["serve_throughput_healthy"] == pytest.approx(12.0)
        assert aggregates["serve_throughput_chaos"] == pytest.approx(3.0)
        assert aggregates["serve_instances_total"] == 12.0
        assert aggregates["serve_degraded_total"] == 1.0
        assert aggregates["serve_quarantined_total"] == 0.0

    def test_collect_pool_rows_times_out_with_named_rows(self):
        class _Hung:
            def get(self, timeout=None):
                import multiprocessing as mp

                raise mp.TimeoutError

        class _Done:
            def __init__(self, row):
                self.row = row

            def get(self, timeout=None):
                return self.row

        fast = ({"algorithm": "mrt", "family": "mixed", "n": 100, "m": 800}, 1, 1)
        hung = ({"algorithm": "fptas", "family": "comm", "n": 2000, "m": 16000}, 1, 1)
        handles = [(fast, _Done(_row("mrt", "mixed", 100, 2.0))), (hung, _Hung())]
        with pytest.raises(BenchShardTimeout) as excinfo:
            _collect_pool_rows(handles, 0.01)
        assert "fptas/comm (n=2000, m=16000)" in str(excinfo.value)
        assert "mrt/mixed" not in str(excinfo.value)

    def test_collect_pool_rows_no_timeout(self):
        row = _row("mrt", "mixed", 100, 2.0)
        task = ({"algorithm": "mrt", "family": "mixed", "n": 100, "m": 800}, 1, 1)

        class _Done:
            def get(self, timeout=None):
                assert timeout is None  # shard_timeout=None disables the deadline
                return row

        assert _collect_pool_rows([(task, _Done())], None) == [row]
