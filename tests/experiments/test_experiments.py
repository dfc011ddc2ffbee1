"""Smoke/invariant tests for the experiment drivers (small parameters)."""

import pytest

from repro.experiments import (
    crossover_study,
    fig1_hardness,
    fig2_fig3_shelves,
    fig4_intervals,
    fptas_study,
    quality_study,
    table1,
)
from repro.experiments.common import Table, fit_power_law, geometric_levels, timed
from repro.simulator.engine import SimulationError
from repro.workloads.generators import random_mixed_instance


class TestCommonHelpers:
    def test_timed(self):
        seconds, result = timed(lambda: sum(range(1000)))
        assert result == 499500
        assert seconds >= 0.0

    def test_table_render(self):
        table = Table("title", ["a", "b"], [])
        table.add(1, 2.5)
        out = table.render()
        assert "title" in out and "2.500" in out

    def test_geometric_levels(self):
        assert geometric_levels(2, 16) == [2, 4, 8, 16]
        with pytest.raises(ValueError):
            geometric_levels(0, 4)

    def test_fit_power_law(self):
        xs = [1.0, 2.0, 4.0, 8.0]
        ys = [3.0 * x ** 2 for x in xs]
        assert fit_power_law(xs, ys) == pytest.approx(2.0, abs=1e-6)
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])


class TestTable1:
    def test_rows_and_shape(self):
        rows = table1.run(
            n_values=(30, 60),
            m_values=(64, 128),
            eps_values=(0.3,),
            base_n=40,
            base_m=96,
            base_eps=0.3,
            seed=1,
        )
        assert set(rows) == set(table1.ALGORITHM_LABELS)
        for entries in rows.values():
            assert len(entries) == 5  # 2 n-values + 2 m-values + 1 eps-value
            assert all(r.seconds >= 0 for r in entries)
            assert all(r.accepted for r in entries)
        assert all(r.item_types is None for r in rows["sec_4_2_5"])
        assert all(isinstance(r.item_types, int) and r.item_types >= 1 for r in rows["sec_4_3"])
        exps = table1.scaling_exponents(rows)
        assert set(exps) == set(table1.ALGORITHM_LABELS)


class TestFig1:
    def test_yes_instances_reproduce_figure(self):
        rows = fig1_hardness.run(group_sizes=(3, 4), seed=2)
        yes_rows = [r for r in rows if r.kind == "yes"]
        assert all(r.solved for r in yes_rows)
        assert all(r.jobs_per_machine_ok for r in yes_rows)
        assert all(r.machine_loads_ok for r in yes_rows)
        assert all(r.roundtrip_ok for r in yes_rows)

    def test_no_instances_unschedulable(self):
        rows = fig1_hardness.run(group_sizes=(3,), seed=3)
        no_rows = [r for r in rows if r.kind == "no"]
        assert all(not r.solved for r in no_rows)


class TestFig2Fig3:
    def test_three_shelf_always_valid(self):
        rows = fig2_fig3_shelves.run(cases=((25, 12), (50, 24)), seed=4)
        for row in rows:
            assert row.three_shelf_built
            assert row.makespan_within_bound
            assert row.simulator_ok
            # the 3-shelf schedule never uses more processors than available
            assert row.two_shelf_s1_procs <= row.m


class TestSimulatorFailuresStayVisible:
    """The studies report a schedule the simulator rejects as
    ``simulator_ok=False``, but any other exception from the simulator is
    a crash and must propagate."""

    @staticmethod
    def _raising(exc):
        def simulate(schedule, **kwargs):
            raise exc

        return simulate

    @pytest.mark.parametrize("module", [fig2_fig3_shelves, quality_study])
    def test_simulation_error_is_reported(self, module, monkeypatch):
        monkeypatch.setattr(module, "simulate_schedule", self._raising(SimulationError("x")))
        assert not self._first_row(module).simulator_ok

    @pytest.mark.parametrize("module", [fig2_fig3_shelves, quality_study])
    def test_other_exceptions_propagate(self, module, monkeypatch):
        monkeypatch.setattr(module, "simulate_schedule", self._raising(TypeError("crash")))
        with pytest.raises(TypeError, match="crash"):
            self._first_row(module)

    @staticmethod
    def _first_row(module):
        if module is fig2_fig3_shelves:
            return module.run(cases=((25, 12),), seed=4)[0]
        instance = random_mixed_instance(6, 8, seed=1)
        return module._evaluate(instance.jobs, 8, 0.25, "two_approx", "mixed", "lower_bound", 1.0)


class TestFig4:
    def test_bounds_hold(self):
        rows = fig4_intervals.run(capacities=(1000.0, 1e6), rhos=(0.1, 0.2), alpha_min=10.0)
        assert all(r.eq16_holds for r in rows)
        assert all(r.lemma14_holds for r in rows)


class TestFptasStudy:
    def test_within_guarantee(self):
        rows = fptas_study.run(
            n_values=(8, 16),
            m_values=(10 ** 5, 10 ** 7),
            eps_values=(0.1,),
            base_n=8,
            base_eps=0.1,
            seed=5,
        )
        assert rows
        assert all(r.within_guarantee for r in rows)


class TestQualityStudy:
    def test_guarantees_hold(self):
        rows = quality_study.run(
            eps=0.25,
            seed=6,
            tiny_cases=((4, 3),),
            planted_groups=(6,),
            random_cases=((20, 16),),
            algorithms=("two_approx", "mrt", "bounded"),
        )
        assert rows
        for row in rows:
            assert row.simulator_ok
            if row.within_guarantee is not None:
                assert row.within_guarantee
        summary = quality_study.summarize(rows)
        assert summary


class TestCrossoverStudy:
    def test_runs_and_reports(self):
        rows = crossover_study.run(n=30, eps=0.3, m_values=(32, 128), mrt_m_limit=1024, seed=7)
        assert len(rows) == 2
        assert all(r.mrt_seconds is not None for r in rows)
        exps = crossover_study.scaling_exponents(rows)
        assert "mrt" in exps and "compressible" in exps
