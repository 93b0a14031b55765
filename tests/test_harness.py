"""Tests for the experiment driver and order fitting."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fput2d import harness
from fput2d.config import carrier_period
from fput2d.harness import (
    DegenerateFit,
    ExperimentPlan,
    NonFiniteReport,
    NonResonantCarrierRequired,
    fit_order,
    report_to_json,
    residual_sweep,
    run_single,
    run_sweep,
)

PIH = np.pi / 2


def small_plan(**kw):
    base = dict(
        eps_list=(0.4, 0.32, 0.25),
        t0=0.2,
        box_length=8.0,
        grid_side=32,
        amplitude=0.8,
        sigma=1.5,
        sample_count=5,
        workers=1,
    )
    base.update(kw)
    return ExperimentPlan(**base)


class TestFitOrder:
    def test_exact_power_law(self):
        eps = [0.2, 0.14, 0.1]
        slope, ci, res = fit_order(eps, [e**2 for e in eps])
        assert slope == pytest.approx(2.0, abs=1e-12)
        assert res < 1e-12
        assert ci[0] <= 2.0 <= ci[1]

    def test_mixed_orders_match_independent_regression(self):
        eps = np.array([0.2, 0.14, 0.1])
        errors = 3 * eps**2 + 0.001 * eps**3
        slope, _, _ = fit_order(eps, errors)
        # oracle: direct least-squares on the logs
        expected = np.polyfit(np.log(eps), np.log(errors), 1)[0]
        assert slope == pytest.approx(expected, abs=1e-12)
        assert abs(slope - 2.0) < 0.05

    def test_constant_errors_degenerate(self):
        with pytest.raises(DegenerateFit):
            fit_order([0.2, 0.14, 0.1], [0.5, 0.5, 0.5])

    def test_floor_errors_degenerate(self):
        with pytest.raises(DegenerateFit):
            fit_order([0.2, 0.14, 0.1], [1e-14, 1e-13, 1e-12])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_order([0.2, 0.1], [0.04, 0.01])

    def test_identical_eps_rejected(self):
        with pytest.raises(ValueError, match="distinct eps"):
            fit_order([0.2, 0.2, 0.2], [0.04, 0.03, 0.01])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_errors_rejected(self, bad):
        with pytest.raises(ValueError):
            fit_order([0.2, 0.14, 0.1], [0.04, bad, 0.01])


    def test_cli_import_leaves_scipy_stats_out(self):
        # the fit uses scipy.special only; scipy.stats is slow to import
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, fput2d.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "False"


class TestPlanRules:
    def test_n_side_multiple_of_four(self):
        plan = ExperimentPlan()
        for eps in (0.2, 0.14, 0.1, 0.07):
            n = plan.n_side_for(eps)
            assert n % 4 == 0
            assert eps * n >= plan.box_length - 1e-9

    def test_n_side_multiple_of_carrier_period(self):
        # the carrier plane wave closes on the torus: k0 N and l0 N in 2 pi Z
        for k_pi, l_pi in ((0.25, 0.5), (1 / 3, 0.5), (0.75, 0.75), (0.3, -2 / 3)):
            plan = ExperimentPlan(carrier_k_pi=k_pi, carrier_l_pi=l_pi)
            for eps in (0.25, 0.2, 0.16, 0.14, 0.1):
                n = plan.n_side_for(eps)
                assert n % 4 == 0 and eps * n >= plan.box_length - 1e-9
                for c in (k_pi, l_pi):
                    assert abs(np.exp(1j * np.pi * c * n) - 1) < 1e-9
        assert ExperimentPlan(carrier_k_pi=0.25).n_side_for(0.16) == 256
        # the pi/2 carriers keep the multiple-of-4 rule's N
        assert ExperimentPlan().n_side_for(0.16) == 252
        assert carrier_period(0.5) == 4 and carrier_period(1 / 3) == 6
        for bad in (0.37, 0.333333333, float("nan"), 1e308):
            with pytest.raises(ValueError, match="lattice period"):
                carrier_period(bad)

    def test_dt_rules(self):
        assert ExperimentPlan().dt_for(0.16) == 0.16**1.5 / 4
        assert ExperimentPlan(dt=0.01).dt_for(0.16) == 0.01
        assert ExperimentPlan(n_side=64).n_side_for(0.16) == 64

    def test_eps_list_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(eps_list=(0.1, 0.2))  # not descending
        with pytest.raises(ValueError):
            ExperimentPlan(eps_list=(0.6, 0.3, 0.1))  # out of range
        with pytest.raises(ValueError):
            ExperimentPlan(eps_list=(0.2, 0.2, 0.1))  # repeated

    def test_hash_stable(self):
        assert ExperimentPlan().hash() == ExperimentPlan().hash()
        assert ExperimentPlan().hash() != ExperimentPlan(seed=1).hash()


class TestRunSingle:
    def test_zero_envelope(self):
        rec = run_single(small_plan(amplitude=0.0), 0.25)
        assert rec["max_sup_error"] == 0.0
        assert rec["compat_defect_max"] < 1e-12

    def test_resonant_carrier_rejected(self):
        plan = small_plan(carrier_k_pi=2 / 3, carrier_l_pi=2 / 3)
        with pytest.raises(NonResonantCarrierRequired):
            run_single(plan, 0.25)
        with pytest.raises(NonResonantCarrierRequired):
            residual_sweep(plan)

    def test_strain_k0_zero_rejected(self):
        # the strain run builds only the A envelope, which vanishes at k0 = 0
        with pytest.raises(NonResonantCarrierRequired, match="k0 = 0"):
            run_single(small_plan(carrier_k_pi=0.0), 0.25)
        run_single(small_plan(carrier_k_pi=0.0, variant="displacement"), 0.25)

    def test_smoke_record_fields(self):
        rec = run_single(small_plan(), 0.25)
        assert rec["n_side"] % 4 == 0
        assert len(rec["times"]) == 5
        assert len(rec["sup_errors"]) == 5
        assert rec["sup_errors"][0] <= rec["max_sup_error"]
        assert rec["compat_defect_max"] < 1e-4  # coarse smoke grid: degenerate-mode pass-through noise
        assert rec["envelope_edge_mass"] < 1e-2
        assert len(rec["residual_norms"]) == 3

    def test_determinism(self):
        a = run_single(small_plan(), 0.25)
        b = run_single(small_plan(), 0.25)
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_tiny_plane_wave_linear_floor(self):
        # spatially uniform envelope at tiny amplitude: the ansatz is an exact
        # linear solution at leading order, so the error sits at the
        # integrator floor
        plan = ExperimentPlan(
            eps_list=(0.1,), t0=1.0, box_length=1.6, grid_side=8,
            amplitude=1e-4, envelope_kind="constant", sample_count=11,
            workers=1,
        )
        rec = run_single(plan, 0.1)
        assert rec["max_sup_error"] <= 1e-6

    def test_plane_wave_nonlinear_tracking(self):
        # uniform envelope at O(1) amplitude: checks the cubic coefficient and
        # its induced frequency shift end to end over t in [0, T0/eps^2]
        plan = ExperimentPlan(
            eps_list=(0.1,), t0=1.0, box_length=1.6, grid_side=8,
            amplitude=0.5, envelope_kind="constant", sample_count=11,
            workers=1,
        )
        rec = run_single(plan, 0.1)
        assert rec["max_sup_error"] / 0.1**2 < 1.0

    def test_plane_wave_displacement_tracking(self):
        plan = ExperimentPlan(
            eps_list=(0.1,), t0=1.0, box_length=1.6, grid_side=8,
            amplitude=0.5, envelope_kind="constant", sample_count=11,
            variant="displacement", workers=1,
        )
        rec = run_single(plan, 0.1)
        assert rec["max_sup_error"] / 0.1**2 < 1.0
        assert rec["energy_drift"] is not None and rec["energy_drift"] < 1e-4

    def test_strain_displacement_same_scale(self):
        rs = run_single(small_plan(), 0.25)
        rd = run_single(small_plan(variant="displacement"), 0.25)
        ratio = rs["max_sup_error"] / rd["max_sup_error"]
        assert 1 / 20 < ratio < 20


class TestPoolWidth:
    def test_threads_env_cap(self, monkeypatch):
        from fput2d.harness import _pool_width

        monkeypatch.setenv("FPUT2D_THREADS", "1")
        assert _pool_width(ExperimentPlan(workers=8)) == 1
        monkeypatch.delenv("FPUT2D_THREADS")
        assert _pool_width(ExperimentPlan(workers=2)) <= 2


class TestDtSanity:
    def test_halving_dt_barely_moves_error(self):
        # integrator error must stay subordinate to the approximation error at
        # the largest eps: halving dt changes the measured error < 10%
        base = dict(eps_list=(0.2,), t0=0.5, sample_count=6, workers=1)
        e1 = run_single(ExperimentPlan(**base), 0.2)["max_sup_error"]
        dt_half = ExperimentPlan(**base).dt_for(0.2) / 2
        e2 = run_single(ExperimentPlan(**base, dt=dt_half), 0.2)["max_sup_error"]
        assert abs(e1 - e2) / e1 < 0.10


class TestRunSweep:
    def test_too_few_eps_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(small_plan(eps_list=(0.4, 0.25)))

    def test_zero_envelope_degenerate_pass(self):
        report = run_sweep(small_plan(amplitude=0.0))
        assert report["degenerate_fit"] is True
        assert report["pass"] is True

    def test_report_schema_and_json(self):
        report = run_sweep(small_plan())
        assert set(report) == {
            "plan", "per_eps", "fitted_order", "fit_interval_95",
            "fit_residual", "degenerate_fit", "pass", "metadata",
        }
        assert len(report["per_eps"]) == 3
        assert report["fitted_order"] is not None
        text = report_to_json(report)
        import json

        assert json.loads(text)["metadata"]["config_hash"] == small_plan().hash()

    def test_sweep_determinism(self):
        def strip(rep):
            rep["metadata"].pop("wall_time_s")
            for r in rep["per_eps"]:
                r.pop("wall_time_s")
            return rep

        a = strip(run_sweep(small_plan()))
        b = strip(run_sweep(small_plan()))
        assert report_to_json(a) == report_to_json(b)

    def test_parallel_matches_serial(self):
        def strip(rep):
            # drop timing and the execution-width knob; physics must match
            rep["metadata"].pop("wall_time_s")
            rep["plan"].pop("workers")
            rep["metadata"].pop("config_hash")
            for r in rep["per_eps"]:
                r.pop("wall_time_s")
            return rep

        serial = strip(run_sweep(small_plan(workers=1)))
        parallel = strip(run_sweep(small_plan(workers=2)))
        assert report_to_json(serial) == report_to_json(parallel)


def _count_solves(monkeypatch) -> list[float]:
    """Box lengths of the envelopes the harness solves, in call order."""
    boxes = []
    real = harness.evolve

    def counting(field, *args, **kwargs):
        boxes.append(field.box_length)
        return real(field, *args, **kwargs)

    monkeypatch.setattr(harness, "evolve", counting)
    return boxes


class TestEnvelopeSharing:
    # the acceptance and benchmark eps at the default box 40: short horizon,
    # coarse envelope grid, same lattice sides and boxes
    def quick_plan(self, **kw):
        return ExperimentPlan(**{"t0": 0.05, "grid_side": 128, "sample_count": 3,
                                 "workers": 1, **kw})

    def test_schedules(self):
        disp = ExperimentPlan(variant="displacement", eps_list=(0.25, 0.2, 0.16))
        accept = ExperimentPlan(eps_list=(0.2, 0.14, 0.1))
        assert harness._schedule(disp, 2) == [[0.16], [0.2, 0.25]]
        assert harness._schedule(disp, 1) == [[0.16], [0.2, 0.25]]
        assert harness._schedule(accept, 2) == [[0.1], [0.14], [0.2]]
        assert harness._schedule(accept, 1) == [[0.1, 0.2], [0.14]]

    def test_displacement_sweep_solves_twice(self, monkeypatch):
        boxes = _count_solves(monkeypatch)
        report = run_sweep(self.quick_plan(variant="displacement",
                                           eps_list=(0.25, 0.2, 0.16)))
        assert boxes == [0.16 * 252, 40.0]
        assert [r["eps"] for r in report["per_eps"]] == [0.25, 0.2, 0.16]

    def test_residual_sweep_solves_twice(self, monkeypatch):
        boxes = _count_solves(monkeypatch)
        rows = harness.residual_sweep(
            self.quick_plan(eps_list=(0.2, 0.14, 0.1), residual_fractions=(0.0, 1.0)))
        assert boxes == [40.0, 0.14 * 288]
        assert [r["eps"] for r in rows] == [0.2, 0.14, 0.1]

    def test_nearly_equal_boxes_solve_apart(self, monkeypatch):
        # 0.2 and 0.1 share box 40.0, but 0.16*252 = 40.32 and
        # 0.14*288 = 40.32000000000001 are different boxes
        boxes = _count_solves(monkeypatch)
        report = run_sweep(self.quick_plan(eps_list=(0.2, 0.16, 0.14, 0.1)))
        assert boxes == [40.0, 40.32000000000001, 40.32]
        assert [r["box_length"] for r in report["per_eps"]] == [
            40.0, 40.32, 40.32000000000001, 40.0]

    @pytest.mark.parametrize("variant", ["strain", "displacement"])
    def test_grouped_records_match_single_runs(self, monkeypatch, variant):
        # small_plan's 0.4 and 0.25 share box 8.0
        plan = small_plan(variant=variant)
        boxes = _count_solves(monkeypatch)
        report = run_sweep(plan)
        assert len(boxes) == 2
        for rec in report["per_eps"]:
            single = run_single(plan, rec["eps"])
            rec.pop("wall_time_s"), single.pop("wall_time_s")
            assert report_to_json(rec) == report_to_json(single)


class TestReportJson:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, np.float64(-np.inf)])
    def test_non_finite_value_named_by_path(self, bad):
        report = {"per_eps": [{"eps": 0.2, "sup_errors": [0.1, 0.2]},
                              {"eps": 0.1, "sup_errors": [0.05, bad]}],
                  "pass": True}
        with pytest.raises(NonFiniteReport, match=r"\$\.per_eps\[1\]\.sup_errors\[1\]"):
            report_to_json(report)

    def test_finite_report_is_strict_json(self):
        import json

        text = report_to_json({"a": [np.float64(0.5), None, 2], "b": {"c": 1e-300}})
        assert json.loads(text) == {"a": [0.5, None, 2], "b": {"c": 1e-300}}
