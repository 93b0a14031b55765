"""Tests for the experiment driver and order fitting."""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fput2d import harness
from fput2d.cli import main
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
from fput2d.lattice import UnstableStep
from fput2d.nls import EnvelopeBlowup, EnvelopeField, EnvelopeUnresolved

PIH = np.pi / 2


SMALL_PLAN = dict(
    eps_list=(0.4, 0.32, 0.25),
    t0=0.2,
    box_length=8.0,
    grid_side=32,
    amplitude=0.8,
    sigma=1.5,
    sample_count=5,
    workers=1,
)


def small_plan(**kw):
    return ExperimentPlan(**{**SMALL_PLAN, **kw})


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

    def test_t_quantile_matches_scipy_stdtrit(self):
        from scipy import special

        ours = np.array([harness._t_quantile(df, 0.975) for df in range(1, 1001)])
        np.testing.assert_allclose(ours, special.stdtrit(np.arange(1, 1001), 0.975),
                                   rtol=1e-13, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(points=st.lists(
        st.tuples(st.floats(0.01, 0.5), st.floats(-0.3, 0.3)),
        min_size=3, max_size=12, unique_by=lambda p: p[0]),
        order=st.floats(0.5, 4.0))
    def test_fit_matches_linregress_and_t_ppf(self, points, order):
        # oracle: scipy.stats' regression and t distribution, which share no
        # code with the fit's quantile
        from scipy import stats

        eps = np.array([p[0] for p in points])
        errors = eps**order * np.exp([p[1] for p in points])
        ref = stats.linregress(np.log(eps), np.log(errors))
        assume(abs(ref.slope) >= 0.1)
        slope, (lo, hi), _ = fit_order(eps, errors)
        half = stats.t.ppf(0.975, len(eps) - 2) * ref.stderr
        scale = max(abs(ref.slope), half)
        assert slope == pytest.approx(ref.slope, rel=1e-12)
        assert lo == pytest.approx(ref.slope - half, rel=1e-12, abs=1e-12 * scale)
        assert hi == pytest.approx(ref.slope + half, rel=1e-12, abs=1e-12 * scale)

    def test_cli_import_leaves_scipy_stats_out(self):
        # the fit computes its own t quantile; scipy.stats is slow to import
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, fput2d.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "False"

    def test_cli_import_and_run_single_leave_scipy_fft_and_special_out(self):
        # every transform is numpy's and the fit's quantile is the package's own
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import sys, fput2d.cli\n"
            "from fput2d.harness import ExperimentPlan, run_single\n"
            "loaded = lambda: [m for m in ('scipy.fft', 'scipy.special') if m in sys.modules]\n"
            "print(loaded())\n"
            "plan = ExperimentPlan(t0=0.001, sample_count=2, grid_side=128, workers=1)\n"
            "run_single(plan, plan.eps)\n"
            "print(loaded())\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split("\n")[:2] == ["[]", "[]"]

    def test_no_entry_point_loads_scipy(self):
        # no package module imports scipy: after the CLI import, each public
        # run entry point and each command, sys.modules holds no scipy module
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import json, sys, tempfile\n"
            "found = []\n"
            "def check(step, code=0):\n"
            "    found.append([step, code, sorted(m for m in sys.modules\n"
            "                                     if m == 'scipy' or m.startswith('scipy.'))])\n"
            "import fput2d.cli\n"
            "check('import fput2d.cli')\n"
            "from fput2d.cli import main\n"
            "from fput2d.harness import (ExperimentPlan, fit_order, residual_sweep,\n"
            "                            run_single, run_sweep)\n"
            f"kw = {SMALL_PLAN!r}\n"
            "plan = ExperimentPlan(**kw)\n"
            "run_single(plan, 0.4)\n"
            "check('run_single')\n"
            "run_sweep(plan)\n"
            "check('run_sweep')\n"
            "rows = residual_sweep(plan)\n"
            "fit_order(plan.eps_list, [r['with_corrections'] for r in rows])\n"
            "check('residual_sweep')\n"
            "sets = [a for k, v in kw.items() for a in\n"
            "        ('--set', f\"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}\")]\n"
            "with tempfile.TemporaryDirectory() as out:\n"
            "    for cmd in ('coeffs', 'simulate', 'sweep', 'residual'):\n"
            "        check(cmd, main([cmd, *(['--out', out] if cmd != 'coeffs' else []), *sets]))\n"
            "print(json.dumps(found))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=300)
        steps = ["import fput2d.cli", "run_single", "run_sweep", "residual_sweep",
                 "coeffs", "simulate", "sweep", "residual"]
        found = json.loads(out.stdout.splitlines()[-1])
        assert [step for step, _, _ in found] == steps
        assert all(code in (0, 4) for _, code, _ in found)  # 4: the smoke grid's order
        assert [modules for _, _, modules in found] == [[]] * len(steps)

    def test_cli_import_and_run_single_leave_yaml_hashlib_and_statistics_out(self):
        # each is imported where it is used: yaml by a YAML config file,
        # hashlib by a report's config hash, statistics by an order fit
        src = str(Path(harness.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = (
            "import json, sys, tempfile\n"
            "from pathlib import Path\n"
            "found = []\n"
            "def check(step):\n"
            "    found.append([step, [m for m in ('yaml', 'hashlib', '_hashlib', 'statistics')\n"
            "                         if m in sys.modules]])\n"
            "import fput2d.cli\n"
            "check('import fput2d.cli')\n"
            "from fput2d.config import load_plan\n"
            "from fput2d.harness import ExperimentPlan, run_single, run_sweep\n"
            f"plan = ExperimentPlan(**{SMALL_PLAN!r})\n"
            "run_single(plan, 0.4)\n"
            "check('run_single')\n"
            "with tempfile.TemporaryDirectory() as d:\n"
            "    Path(d, 'plan.json').write_text('{\"eps\": 0.2}')\n"
            "    load_plan(str(Path(d, 'plan.json')))\n"
            "    check('json config')\n"
            "    run_sweep(plan)\n"
            "    check('run_sweep')\n"
            "    Path(d, 'plan.yaml').write_text('eps: 0.2\\n')\n"
            "    load_plan(str(Path(d, 'plan.yaml')))\n"
            "    check('yaml config')\n"
            "print(json.dumps(found))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        found = dict(json.loads(out.stdout.splitlines()[-1]))
        assert found["import fput2d.cli"] == found["run_single"] == found["json config"] == []
        assert {"hashlib", "statistics"} <= set(found["run_sweep"])
        assert "yaml" not in found["run_sweep"] and "yaml" in found["yaml config"]


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

    @pytest.mark.parametrize("variant", ["strain", "displacement"])
    def test_default_grid_residuals_match_grid_256(self, variant):
        # the rule's 128-point envelope grid against 256 points, at boxes 40
        # and 40.32: the correction products are formed on the grid padded to
        # 256 points, so the corrected residuals move no more than the
        # uncorrected ones (formed unpadded, they move by up to 1e-4)
        plan = ExperimentPlan(variant=variant, eps_list=(0.2, 0.16))
        assert plan.resolved_grid_side() == 128
        coarse = residual_sweep(plan)
        fine = residual_sweep(dataclasses.replace(plan, grid_side=256))
        for got, want in zip(coarse, fine, strict=True):
            for label in ("with", "without"):
                np.testing.assert_allclose(got["per_time"][label], want["per_time"][label],
                                           rtol=1e-9, atol=0)

    def test_rule_grid_is_held_to_the_rule_tail(self):
        # at sigma 2 the default envelope starts with a tail of 2e-32 on the
        # rule's 128 points and spreads past 1e-10 within T0: the solve on
        # the rule's grid stops there, and the same grid named by the plan is
        # held only to the hard stop
        plan = ExperimentPlan(sigma=2.0, sample_count=3)
        disp = harness.checked_dispersion(plan)
        env0 = harness._initial_envelope(plan, 0.2)
        assert env0.grid_side == 128
        with pytest.raises(EnvelopeUnresolved, match="exceeded 1e-10 at T = 0.[1-9]"):
            harness._solve_envelope(plan, disp, env0, harness._sample_times(plan))
        named = dataclasses.replace(plan, grid_side=128)
        assert len(harness._solve_envelope(named, disp, harness._initial_envelope(named, 0.2),
                                           harness._sample_times(named))) == 3

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
        # at k0 = 0 the strain form's u field vanishes, so amplitude cannot set Q
        with pytest.raises(NonResonantCarrierRequired, match="k0 = 0"):
            run_single(small_plan(carrier_k_pi=0.0), 0.25)
        run_single(small_plan(carrier_k_pi=0.0, variant="displacement"), 0.25)

    def test_smoke_record_fields(self):
        rec = run_single(small_plan(), 0.25)
        assert rec["n_side"] % 4 == 0
        assert len(rec["times"]) == 5
        assert len(rec["sup_errors"]) == 5
        assert rec["sup_errors"][0] <= rec["max_sup_error"]
        # the strain run steps (q, w): its differences are compatible to round-off
        assert rec["compat_defect_max"] <= 1e-15
        assert rec["energy_drift"] is not None and rec["energy_drift"] < 1e-4
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

    @pytest.mark.parametrize("variant, grid_side", [("strain", 256), ("displacement", 128)])
    def test_observations_allocate_no_lattice_array(self, monkeypatch, variant, grid_side):
        # an observation works in the run's ansatz workspace (N = 200 against
        # an envelope grid of 256, then 128: truncation, then padding) and
        # its strain view, the diagnostics in the workspace's arrays, so
        # after the first one any N x N float64 temporary would show as a
        # peak of at least one such array, residual observations included:
        # the DFT of each cubic term goes into the workspace's first complex
        # array once the field it held is taken
        plan = small_plan(variant=variant, box_length=40.0, grid_side=grid_side)
        n = plan.n_side_for(0.2)
        assert n == 200
        real_integrate = harness.integrate
        peaks = []

        def integrate(state, force, dt, times, observer):
            def measured(st):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                observer(st)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return real_integrate(state, force, dt, times, measured)

        monkeypatch.setattr(harness, "integrate", integrate)
        tracemalloc.start()
        try:
            run_single(plan, 0.2)
        finally:
            tracemalloc.stop()
        lattice_array = n * n * 8
        assert len(peaks) == 5
        for i, peak in enumerate(peaks[1:], start=1):
            assert peak < lattice_array, (i, peak)

    @pytest.mark.parametrize("variant, budget", [("displacement", 12.0), ("strain", 17.9)])
    def test_run_holds_one_set_of_lattice_arrays(self, monkeypatch, variant, budget):
        # at its last observation a run holds, besides its envelope samples
        # and in N x N float64 units: the ansatz workspace's two complex
        # arrays (4) and its state arrays (2, strain 4), the stepped state
        # (2), the integrator's work arrays (2) and block of rows (0.5), and a
        # strain run's strain view (4): 10.5, strain 16.5, plus on M = 64
        # points the initial envelope (0.2) and the workspace's two complex
        # and two real arrays (0.6); measured 11.85 and 17.46.  A kept
        # initial state (2), a third complex N x N array (2) or a real N x N
        # symbol (1) would each take it over the budget
        plan = small_plan(variant=variant, box_length=20.0, grid_side=64, sigma=2.0,
                          t0=0.02)
        n = plan.n_side_for(0.1)
        assert n == 200
        handoffs = []

        class Recorded(harness._EnvelopeSamples):
            def __init__(self, *args):
                super().__init__(*args)
                handoffs.append(self)

        real_integrate = harness.integrate
        held = []

        def integrate(state, force, dt, times, observer):
            def measured(st):
                observer(st)
                samples = sum(f.a.nbytes for f in handoffs[0]._fields if f is not None)
                held.append(tracemalloc.get_traced_memory()[0] - samples)
            return real_integrate(state, force, dt, times, measured)

        monkeypatch.setattr(harness, "_EnvelopeSamples", Recorded)
        monkeypatch.setattr(harness, "integrate", integrate)
        tracemalloc.start()
        try:
            run_single(plan, 0.1)
        finally:
            tracemalloc.stop()
        assert len(held) == plan.sample_count
        assert held[-1] / (n * n * 8) <= budget

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
        monkeypatch.setenv("FPUT2D_THREADS", "3")
        assert _pool_width(ExperimentPlan(workers=0)) == 3
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

    def test_parallel_matches_serial(self, monkeypatch):
        # pool widths 1, 2 and 3 give the same report, from threads of this
        # process, and FPUT2D_THREADS caps the width
        def strip(rep):
            # drop timing and the execution-width knob; physics must match
            rep["metadata"].pop("wall_time_s")
            rep["plan"].pop("workers")
            rep["metadata"].pop("config_hash")
            for r in rep["per_eps"]:
                r.pop("wall_time_s")
            return rep

        observers = []
        real = harness.integrate

        def integrate(*args, **kwargs):
            observers.append((os.getpid(), len(multiprocessing.active_children())))
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "integrate", integrate)
        for variant in ("strain", "displacement"):
            texts = set()
            for threads, workers in (("3", 1), ("3", 2), ("3", 3), ("1", 2)):
                monkeypatch.setenv("FPUT2D_THREADS", threads)
                plan = small_plan(variant=variant, workers=workers)
                assert harness._pool_width(plan) == min(workers, int(threads))
                observers.clear()
                left, raised = _threads_left_by(lambda: texts.add(report_to_json(
                    strip(run_sweep(plan)))))
                assert (left, raised) == (0, None)
                assert observers == [(os.getpid(), 0)] * 3
            assert len(texts) == 1


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
        assert harness._schedule(disp) == [[0.16], [0.2, 0.25]]
        assert harness._schedule(accept) == [[0.1, 0.2], [0.14]]

    def test_displacement_sweep_solves_twice(self, monkeypatch):
        # at width 2 the group [0.2, 0.25] runs beside its own solve
        boxes = _count_solves(monkeypatch)
        for width in (1, 2):
            boxes.clear()
            monkeypatch.setenv("FPUT2D_THREADS", str(width))
            report = run_sweep(self.quick_plan(variant="displacement", workers=width,
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

    def test_failing_sweep_solves_no_further_group(self, monkeypatch):
        # on one thread the first group, 0.25 and 0.4 on box 8.0, trips the
        # lattice guard at eps 0.25; the group of 0.32 is never started
        boxes = _count_solves(monkeypatch)
        monkeypatch.setenv("FPUT2D_THREADS", "1")
        with pytest.raises(UnstableStep):
            run_sweep(small_plan(amplitude=3.0, workers=2))
        assert boxes == [8.0]

    def test_failing_sweep_cancels_the_queued_groups(self, monkeypatch):
        # on two threads the tasks are the solve of [0.25, 0.4], its two runs,
        # then the solve of [0.32] and its run.  The run at 0.4 returns at
        # once, so the thread that ends the first solve takes it and then the
        # second solve; the run at 0.25 raises only once that solve has
        # started, and the solve ends only after the failure, so the run of
        # [0.32] is still queued
        boxes = _count_solves(monkeypatch)
        second_solve, lattice_failed = threading.Event(), threading.Event()
        counting, real_integrate = harness.evolve, harness.integrate
        real_run = harness._run_lattice
        runs = []

        def run_lattice(plan, disp, eps, *args, **kwargs):
            runs.append(eps)
            if eps == 0.4:
                return {"eps": eps}
            return real_run(plan, disp, eps, *args, **kwargs)

        def evolve(*args, **kwargs):
            out = counting(*args, **kwargs)
            if len(boxes) == 2:
                second_solve.set()
                lattice_failed.wait(timeout=30)
            return out

        def integrate(*args, **kwargs):
            try:
                return real_integrate(*args, **kwargs)
            except UnstableStep:
                second_solve.wait(timeout=30)
                lattice_failed.set()
                raise

        monkeypatch.setattr(harness, "evolve", evolve)
        monkeypatch.setattr(harness, "integrate", integrate)
        monkeypatch.setattr(harness, "_run_lattice", run_lattice)
        monkeypatch.setenv("FPUT2D_THREADS", "2")
        left, raised = _threads_left_by(
            lambda: run_sweep(small_plan(amplitude=3.0, workers=2)))
        assert lattice_failed.is_set()
        assert (left, type(raised)) == (0, UnstableStep)
        assert boxes == [8.0, 0.32 * 28]
        assert runs == [0.25, 0.4]

    @pytest.mark.parametrize("variant", ["strain", "displacement"])
    def test_sweep_records_match_at_every_width(self, monkeypatch, variant):
        # the benchmark's eps 0.25/0.2/0.16: the group [0.2, 0.25] on box 40
        # is three tasks, and widths 1, 2 and 3 run them one after another,
        # beside one other task or all at once
        texts = set()
        for width in (1, 2, 3):
            monkeypatch.setenv("FPUT2D_THREADS", str(width))
            report = run_sweep(self.quick_plan(variant=variant, workers=width,
                                               eps_list=(0.25, 0.2, 0.16)))
            report["metadata"].pop("wall_time_s")
            report["metadata"].pop("config_hash")
            report["plan"].pop("workers")
            for rec in report["per_eps"]:
                assert rec.pop("wall_time_s") > 0
            texts.add(report_to_json(report))
        assert len(texts) == 1

    @pytest.mark.parametrize("variant", ["strain", "displacement"])
    def test_grouped_records_match_single_runs(self, monkeypatch, variant):
        # small_plan's 0.25 and 0.4 share box 8.0, each run a task after the
        # solve's; from width 2 the solve puts each sample only once a run
        # has asked for it, so that run waits on every sample while the solve
        # still writes and keeps it; at width 3 both runs read beside the
        # solve, and a sample is dropped once both have read it
        plan = small_plan(variant=variant)
        singles = [run_single(plan, eps) for eps in (0.25, 0.4)]
        for rec in singles:
            rec.pop("wall_time_s")
        boxes = _count_solves(monkeypatch)
        for width in (1, 2, 3):
            boxes.clear()
            monkeypatch.setenv("FPUT2D_THREADS", str(width))
            with monkeypatch.context() as m:
                if width > 1:
                    asked = [threading.Event() for _ in range(plan.sample_count)]
                    real_get, real_put = harness._EnvelopeSamples.get, harness._EnvelopeSamples.put

                    def get(samples, i):
                        asked[i].set()
                        return real_get(samples, i)

                    def put(samples, field, h4, tail):
                        k = len(samples.diag)
                        if not asked[k].wait(timeout=30):
                            raise TimeoutError(f"sample {k} was put before a run asked for it")
                        real_put(samples, field, h4, tail)

                    m.setattr(harness._EnvelopeSamples, "get", get)
                    m.setattr(harness._EnvelopeSamples, "put", put)
                records = harness._run_groups(plan, [[0.25, 0.4]], width)
            assert boxes == [8.0]
            for rec in records:
                rec.pop("wall_time_s")
            assert [report_to_json(rec) for rec in records] == [
                report_to_json(rec) for rec in singles]


def _threads_left_by(run):
    """Call run() and return the count of threads it left alive, and its
    exception or None."""
    before = threading.active_count()
    try:
        run()
        raised = None
    except Exception as exc:
        raised = exc
    return threading.active_count() - before, raised


class TestOverlappedSolve:
    # on a pool of 2 threads (workers=2 and FPUT2D_THREADS=2) the envelope
    # solve runs beside the lattice runs; on 1 it runs to the end first

    @pytest.mark.parametrize("variant", ["strain", "displacement"])
    @pytest.mark.parametrize("corrections", [False, True])
    def test_records_match_inline_solve(self, monkeypatch, variant, corrections):
        plan = small_plan(variant=variant, corrections=corrections, workers=2)
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("FPUT2D_THREADS", threads)
            before = threading.active_count()
            runs.append(run_single(plan, 0.25, keep_state_indices=(0, 2, 4)))
            assert threading.active_count() == before
        inline, overlapped = runs
        for rec in runs:
            rec.pop("wall_time_s")
        states = [rec.pop("_states") for rec in runs]
        finals = [rec.pop("_env_final") for rec in runs]
        assert report_to_json(inline) == report_to_json(overlapped)
        assert sorted(states[0]) == sorted(states[1]) == [0, 2, 4]
        for i in states[0]:
            for a, b in zip(states[0][i].arrays(), states[1][i].arrays(), strict=True):
                assert np.array_equal(a, b)
        assert np.array_equal(finals[0].a, finals[1].a)
        assert finals[0].slow_time == finals[1].slow_time == plan.t0

    def test_sweep_without_a_pool_leaves_no_thread(self, monkeypatch):
        monkeypatch.setenv("FPUT2D_THREADS", "2")
        left, raised = _threads_left_by(lambda: run_sweep(small_plan(workers=1)))
        assert (left, raised) == (0, None)

    def test_solve_thread_follows_the_budget(self, monkeypatch):
        events = []
        run_started = threading.Event()
        real_evolve, real_integrate = harness.evolve, harness.integrate

        def evolve(*args, **kwargs):
            out = real_evolve(*args, **kwargs)
            # a solve that ends after its last sample, and after the run has
            # started if the run can start first
            run_started.wait(timeout=1)
            events.append("solve ends")
            return out

        def integrate(*args, **kwargs):
            events.append("run starts")
            run_started.set()
            return real_integrate(*args, **kwargs)

        monkeypatch.setattr(harness, "evolve", evolve)
        monkeypatch.setattr(harness, "integrate", integrate)
        plan = small_plan(workers=2)
        for threads, order in (("1", ["solve ends", "run starts"]),
                               ("2", ["run starts", "solve ends"])):
            monkeypatch.setenv("FPUT2D_THREADS", threads)
            events.clear()
            run_started.clear()
            left, raised = _threads_left_by(lambda: run_single(plan, 0.25))
            assert (left, raised) == (0, None)
            assert events == order

    @pytest.mark.parametrize("guard", [1e-3, 10.0])
    def test_envelope_blowup_keeps_the_inline_message(self, monkeypatch, guard):
        # 1e-3 trips at T = 0; 10 trips at T ~ 0.13, after the lattice run
        # has started (amplitude 1.5 keeps the lattice inside its guard)
        plan = small_plan(amplitude=1.5, blowup_guard=guard, workers=2)
        messages = []
        for threads in ("1", "2"):
            monkeypatch.setenv("FPUT2D_THREADS", threads)
            left, raised = _threads_left_by(lambda: run_single(plan, 0.25))
            assert left == 0
            assert type(raised) is EnvelopeBlowup
            messages.append(str(raised))
        assert messages[0] == messages[1]
        assert f"exceeded {guard}" in messages[0]

    def test_lattice_failure_raises_unstable_step(self, monkeypatch):
        monkeypatch.setenv("FPUT2D_THREADS", "2")
        left, raised = _threads_left_by(
            lambda: run_single(small_plan(amplitude=3.0, workers=2), 0.25))
        assert left == 0
        assert type(raised) is UnstableStep

    def test_failing_envelope_takes_precedence(self, monkeypatch):
        # the lattice trips at t = 0.8 (T = 0.05) and the envelope at T ~ 0.17;
        # the solve raises only after the lattice has failed, so the order
        # of the two failures is fixed
        lattice_failed = threading.Event()
        real_evolve, real_integrate = harness.evolve, harness.integrate

        def late_evolve(*args, **kwargs):
            try:
                return real_evolve(*args, **kwargs)
            except EnvelopeBlowup:
                lattice_failed.wait(timeout=30)
                raise

        def integrate(*args, **kwargs):
            try:
                return real_integrate(*args, **kwargs)
            except UnstableStep:
                lattice_failed.set()
                raise

        monkeypatch.setattr(harness, "evolve", late_evolve)
        monkeypatch.setattr(harness, "integrate", integrate)
        monkeypatch.setenv("FPUT2D_THREADS", "2")
        left, raised = _threads_left_by(
            lambda: run_single(small_plan(amplitude=3.0, blowup_guard=300.0, workers=2),
                               0.25))
        assert lattice_failed.is_set()
        assert left == 0
        assert type(raised) is EnvelopeBlowup
        assert "exceeded 300.0" in str(raised)

    def test_failing_envelope_takes_precedence_over_its_runs(self, monkeypatch):
        # small_plan's 0.25 and 0.4 share one solve, and on three threads both
        # runs start beside it; the solve raises only after a run has failed,
        # and the call still raises the solve's error
        run_failed = threading.Event()
        real_evolve, real_integrate = harness.evolve, harness.integrate

        def late_evolve(*args, **kwargs):
            try:
                return real_evolve(*args, **kwargs)
            except EnvelopeBlowup:
                run_failed.wait(timeout=30)
                raise

        def integrate(*args, **kwargs):
            try:
                return real_integrate(*args, **kwargs)
            except UnstableStep:
                run_failed.set()
                raise

        monkeypatch.setattr(harness, "evolve", late_evolve)
        monkeypatch.setattr(harness, "integrate", integrate)
        plan = small_plan(amplitude=3.0, blowup_guard=300.0, workers=3)
        left, raised = _threads_left_by(lambda: harness._run_groups(plan, [[0.25, 0.4]], 3))
        assert run_failed.is_set()
        assert left == 0
        assert type(raised) is EnvelopeBlowup
        assert "exceeded 300.0" in str(raised)

    @pytest.mark.parametrize("amplitude, guard", [(1.5, 10), (80, 1e4)])
    def test_simulate_exits_3_on_envelope_blowup(self, monkeypatch, tmp_path, capsys,
                                                  recwarn, amplitude, guard):
        # at amplitude 80 the lattice run overflows too, before the solve
        # fails; its guard reports that, with no numpy warnings
        monkeypatch.setenv("FPUT2D_THREADS", "2")
        before = threading.active_count()
        code = main(["simulate", "--out", str(tmp_path), "--set", "eps=0.25",
                     "--set", "eps_list=0.4,0.32,0.25", "--set", "t0=0.2",
                     "--set", "box_length=8", "--set", "grid_side=32",
                     "--set", "sigma=1.5", "--set", f"amplitude={amplitude}",
                     "--set", f"blowup_guard={guard}", "--set", "sample_count=5"])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1 and "EnvelopeBlowup" in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert threading.active_count() == before

    def test_simulate_exits_3_on_an_unresolved_envelope(self, monkeypatch, tmp_path, capsys):
        # a checkerboard planted at the Nyquist modes of the 32-point grid
        # carries ~2 % of the power: the tail guard trips at T = 0, under an
        # H^4 proxy still inside its guard, and no record is written
        real_initial = harness._initial_envelope

        def planted(plan, eps):
            env = real_initial(plan, eps)
            env.a += 0.02 * (-1.0) ** np.add.outer(np.arange(32), np.arange(32))
            return env

        monkeypatch.setattr(harness, "_initial_envelope", planted)
        monkeypatch.setenv("FPUT2D_THREADS", "2")
        before = threading.active_count()
        code = main(["simulate", "--out", str(tmp_path), "--set", "eps=0.25",
                     "--set", "eps_list=0.4,0.32,0.25", "--set", "t0=0.2",
                     "--set", "box_length=8", "--set", "grid_side=32",
                     "--set", "sigma=1.5", "--set", "amplitude=0.8", "--set", "sample_count=5"])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "EnvelopeUnresolved"
        assert "spectral tail" in error["message"] and "at T = 0.000000" in error["message"]
        assert list(tmp_path.iterdir()) == []
        assert threading.active_count() == before

    @staticmethod
    def _sample(k: int) -> EnvelopeField:
        return EnvelopeField(2.0, np.full((4, 4), k, dtype=complex), 0.01 * k)

    def test_observer_waits_only_for_its_own_sample(self):
        samples = harness._EnvelopeSamples(2, 1)
        observed = threading.Event()

        def solve(on_sample):
            on_sample(self._sample(0), 0.0, 0.0)
            if not observed.wait(timeout=30):
                raise TimeoutError("sample 0 was not handed over before sample 1")
            on_sample(self._sample(1), 0.0, 0.0)

        def observe():
            assert samples.get(0).slow_time == 0.0
            observed.set()
            assert samples.get(1).slow_time == 0.01

        harness._run_tasks(2, [lambda: samples.produce(solve), observe])

    def test_hand_off_under_frequent_switches_releases_samples(self):
        # a short switch interval interleaves the solve and the observer at
        # many more points than a run does
        count = 300
        samples = harness._EnvelopeSamples(count, 1)
        refs = []

        def solve(on_sample):
            for k in range(count):
                field = self._sample(k)
                refs.append(weakref.ref(field))
                on_sample(field, float(k), 0.0)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, got = harness._run_tasks(2, [
                lambda: samples.produce(solve),
                lambda: [samples.get(i).a[0, 0].real for i in range(count)]])
        finally:
            sys.setswitchinterval(interval)
        assert got == list(range(count))
        assert [row[2] for row in samples.diag] == list(range(count))
        # the observed samples are gone; the final one stays for the record
        assert all(ref() is None for ref in refs[:-1])
        assert samples.get(count - 1) is refs[-1]()


    def test_two_readers_release_a_sample_once_both_have_read_it(self):
        # the runs of one group read each sample; the first reads every one
        # while the second waits, and every sample is still held; then the
        # second reads them under frequent switches, and all but the final
        # one are gone
        count = 300
        samples = harness._EnvelopeSamples(count, 2)
        refs, first_done = [], threading.Event()
        held_after_first = []

        def solve(on_sample):
            for k in range(count):
                field = self._sample(k)
                refs.append(weakref.ref(field))
                on_sample(field, float(k), 0.0)

        def first():
            got = [samples.get(i).a[0, 0].real for i in range(count)]
            held_after_first.extend(ref() is not None for ref in refs)
            first_done.set()
            return got

        def second():
            if not first_done.wait(timeout=30):
                raise TimeoutError("the first reader did not finish")
            return [samples.get(i).a[0, 0].real for i in range(count)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, got_first, got_second = harness._run_tasks(
                3, [lambda: samples.produce(solve), first, second])
        finally:
            sys.setswitchinterval(interval)
        assert got_first == got_second == list(range(count))
        assert held_after_first == [True] * count
        assert all(ref() is None for ref in refs[:-1])
        assert samples.get(count - 1) is refs[-1]()


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
