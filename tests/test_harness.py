"""Tests for the experiment driver and order fitting."""

import numpy as np
import pytest

from fput2d.harness import (
    DegenerateFit,
    ExperimentPlan,
    NonResonantCarrierRequired,
    fit_order,
    report_to_json,
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_errors_rejected(self, bad):
        with pytest.raises(ValueError):
            fit_order([0.2, 0.14, 0.1], [0.04, bad, 0.01])


class TestPlanRules:
    def test_n_side_multiple_of_four(self):
        plan = ExperimentPlan()
        for eps in (0.2, 0.14, 0.1, 0.07):
            n = plan.n_side_for(eps)
            assert n % 4 == 0
            assert eps * n >= plan.box_length - 1e-9

    def test_dt_rules(self):
        assert ExperimentPlan().dt_for(0.16) == 0.16**1.5 / 4
        assert ExperimentPlan(dt=0.01).dt_for(0.16) == 0.01
        assert ExperimentPlan(n_side=64).n_side_for(0.16) == 64

    def test_eps_list_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(eps_list=(0.1, 0.2))  # not descending
        with pytest.raises(ValueError):
            ExperimentPlan(eps_list=(0.6, 0.3, 0.1))  # out of range

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
