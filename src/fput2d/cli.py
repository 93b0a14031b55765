"""Command-line front end.

    fput2d coeffs   --config cfg.yaml [--set key=value ...]
    fput2d simulate --config cfg.yaml --out dir [--set ...]
    fput2d sweep    --config cfg.yaml --out dir [--set ...]
    fput2d residual --config cfg.yaml --out dir [--set ...]
    fput2d evidence --config cfg.yaml --out dir [--set ...]

Exit codes: 0 success, 1 config error, 2 inadmissible carrier, 3 solver
error (including a NaN or infinity in a report, which strict JSON cannot
hold), 4 acceptance/order-fit failure.  Codes 1 and 2 come before a command
creates --out.  Each lattice run or sweep runs on one thread pool, workers
wide and capped by FPUT2D_THREADS (the CPU count when unset; also the width
at workers=0): with 2 or more threads the envelope solve runs beside the
lattice runs that observe it.
All outputs land under --out together with a manifest.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .ansatz import FootprintExceeded
from .config import ConfigError, ExperimentPlan, keys_help, load_plan, thread_cap
from .dispersion import Resonant, WaveVector, ZeroFrequency, nls_coefficients, omega_x_sq
from .harness import (
    DegenerateFit,
    NonFiniteReport,
    NonResonantCarrierRequired,
    checked_dispersion,
    envelope_box,
    fit_order,
    report_to_json,
    residual_sweep,
    run_single,
    run_sweep,
)
from .io import DiagnosticsCsv, write_manifest, write_snapshot
from .lattice import UnstableStep
from .nls import EnvelopeBlowup

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CARRIER = 2
EXIT_SOLVER = 3
EXIT_ACCEPTANCE = 4

SOLVER_ERRORS = (EnvelopeBlowup, UnstableStep, FootprintExceeded, Resonant, NonFiniteReport)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fput2d",
        description="2D cubic FPUT lattice vs NLS wave-packet approximation laboratory",
        epilog=keys_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("coeffs", "print carrier dispersion data and envelope coefficients as JSON"),
        ("simulate", "run one eps: snapshots, diagnostics, summary"),
        ("sweep", "run the eps sweep and fit the convergence order"),
        ("residual", "measure residual norms over the eps sweep and fit orders"),
        ("evidence", "run the convergence sweeps, the residual orders and the "
                     "coefficient table, each against its gate"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", default=None, help="JSON or YAML config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        if name != "coeffs":
            p.add_argument("--out", default="out", help="output directory")
    return parser


def _coeffs_payload(data) -> dict:
    """The carrier's dispersion data and envelope coefficients, as `fput2d
    coeffs` prints them."""
    # the strain envelopes' cubic coefficients gamma_q / (4 |e^{ik} - 1|^2) at
    # k = k0 and l0 (their physical-space equation carries a factor 4 on
    # them); null where the carrier component is 0
    gamma_a_im, gamma_b_im = (
        None if degenerate else data.gamma_q.imag / (4 * omega_x_sq(k))
        for k, degenerate in ((data.carrier.k, data.axis_degenerate_k),
                              (data.carrier.l, data.axis_degenerate_l)))
    return {
        "omega0": data.omega0,
        "cx": data.group_velocity[0],
        "cy": data.group_velocity[1],
        "hess": [list(map(float, row)) for row in data.hessian],
        "gamma_a_im": gamma_a_im,
        "gamma_b_im": gamma_b_im,
        "gamma_q_im": data.gamma_q.imag,
        "nonresonant": data.nonresonant,
        "axis_degenerate_k": data.axis_degenerate_k,
        "axis_degenerate_l": data.axis_degenerate_l,
    }


def cmd_coeffs(plan: ExperimentPlan) -> int:
    try:
        data = nls_coefficients(plan.carrier, plan.delta_res)
    except ZeroFrequency as e:
        print(json.dumps({"error": "ZeroFrequency", "message": str(e)}))
        return EXIT_CARRIER
    print(json.dumps(_coeffs_payload(data), indent=2))
    if not data.nonresonant:
        print("carrier violates the non-resonance condition", file=sys.stderr)
        return EXIT_CARRIER
    return EXIT_OK


def _boxes(plan: ExperimentPlan, eps_values) -> list[tuple[float, float, int]]:
    """(eps, envelope box length eps*N, envelope grid side) of each eps a
    command runs."""
    return [(eps, envelope_box(plan, eps), plan.resolved_grid_side()) for eps in eps_values]


def cmd_simulate(plan: ExperimentPlan, out_dir: Path) -> int:
    snap_idx = tuple(sorted(
        {int(round(f)) for f in np.linspace(0, plan.sample_count - 1, plan.snapshots)}
    ))
    record = run_single(plan, plan.eps, keep_state_indices=snap_idx)
    states = record.pop("_states", {})
    env_final = record.pop("_env_final", None)
    files = []
    for i, st in sorted(states.items()):
        path = out_dir / f"state_{i:03d}.snap"
        write_snapshot(path, st)
        files.append(path.name)
    if env_final is not None:
        path = out_dir / "envelope_final.snap"
        write_snapshot(path, env_final)
        files.append(path.name)
    path = out_dir / "lattice_diag.csv"
    nan = float("nan")
    with DiagnosticsCsv(path, ["t", "energy", "compat_defect", "max_amp"]) as csv_out:
        for t, e, d, amp in record["lattice_diag"]:
            csv_out.write(t, e if e is not None else nan,
                          d if d is not None else nan, amp)
    files.append(path.name)
    path = out_dir / "envelope_diag.csv"
    with DiagnosticsCsv(path, ["T", "mass", "h4proxy", "max_amp", "spectral_tail"]) as csv_out:
        for row in record["envelope_diag"]:
            csv_out.write(*row)
    files.append(path.name)
    summary = out_dir / "summary.json"
    summary.write_text(report_to_json(record))
    files.append(summary.name)
    write_manifest(out_dir, "simulate", plan.hash(), files + ["manifest.json"],
                   _boxes(plan, [plan.eps]))
    print(f"simulate: eps={plan.eps} max_sup_error={record['max_sup_error']:.6e} "
          f"-> {summary}")
    return EXIT_OK


def cmd_sweep(plan: ExperimentPlan, out_dir: Path) -> int:
    report = run_sweep(plan)
    files = []
    report_path = out_dir / "report.json"
    report_path.write_text(report_to_json(report))
    files.append(report_path.name)
    tsv = out_dir / "order_fit.tsv"
    with open(tsv, "w") as fh:
        fh.write("log_eps\tlog_maxerr\n")
        for rec in report["per_eps"]:
            if rec["max_sup_error"] > 0:
                fh.write(f"{float(np.log(rec['eps']))!r}\t"
                         f"{float(np.log(rec['max_sup_error']))!r}\n")
    files.append(tsv.name)
    for rec in report["per_eps"]:
        # repr round-trips, so distinct eps values never share a file
        path = out_dir / f"errors_eps_{float(rec['eps'])!r}.csv"
        with DiagnosticsCsv(path, ["t", "sup_error"]) as csv_out:
            for t, e in zip(rec["times"], rec["sup_errors"]):
                csv_out.write(t, e)
        files.append(path.name)
    write_manifest(out_dir, "sweep", plan.hash(), files + ["manifest.json"],
                   _boxes(plan, plan.eps_list))
    print(f"sweep: {_fit_text(report)} -> {report_path}")
    return EXIT_OK if report["pass"] else EXIT_ACCEPTANCE


def _rounded(interval):
    return interval if interval is None else [round(end, 4) for end in interval]


def _fit_text(report: dict) -> str:
    """A sweep report's fitted order, its 95 % interval and its gate."""
    order = report["fitted_order"]
    return (f"fitted_order={order if order is None else round(order, 4)} "
            f"interval_95={_rounded(report['fit_interval_95'])} pass={report['pass']}")


def _residual_report(plan: ExperimentPlan) -> tuple[dict, bool]:
    """The residual sweep's rows and, per label, the fitted order, its 95 %
    interval and whether it meets the plan's bar (a degenerate fit is noted
    in place of the orders), with whether both orders pass."""
    bars = {"with_corrections": plan.residual_order_min_with,
            "without_corrections": plan.residual_order_min_without}
    rows = residual_sweep(plan)
    eps_values = [r["eps"] for r in rows]
    report = {"per_eps": rows, "metadata": {"config_hash": plan.hash()}}
    try:
        for label, bar in bars.items():
            slope, ci, _ = fit_order(eps_values, [r[label] for r in rows])
            report[f"order_{label}"] = slope
            report[f"interval_95_{label}"] = list(ci)
            report[f"pass_{label}"] = bool(slope >= bar)
    except DegenerateFit as e:
        report["degenerate_fit"] = str(e)
    return report, all(report.get(f"pass_{label}", False) for label in bars)


def _residual_text(report: dict) -> str:
    """A residual report's two orders and their 95 % intervals."""
    return (f"residual: orders with={report.get('order_with_corrections')} "
            f"without={report.get('order_without_corrections')} interval_95 "
            f"with={_rounded(report.get('interval_95_with_corrections'))} "
            f"without={_rounded(report.get('interval_95_without_corrections'))}")


def cmd_residual(plan: ExperimentPlan, out_dir: Path) -> int:
    report, passed = _residual_report(plan)
    path = out_dir / "residual_report.json"
    path.write_text(report_to_json(report))
    write_manifest(out_dir, "residual", plan.hash(), [path.name, "manifest.json"],
                   _boxes(plan, plan.eps_list))
    print(f"{_residual_text(report)} -> {path}")
    return EXIT_OK if passed else EXIT_ACCEPTANCE


def _convergence_plans(plan: ExperimentPlan) -> dict[str, ExperimentPlan]:
    """The plan in the strain form, the displacement form and the
    displacement form under the perturbed force."""
    return {"strain": replace(plan, variant="strain"),
            "displacement": replace(plan, variant="displacement"),
            "perturbed": replace(plan, variant="displacement", force_kind="perturbed")}


def _convergence_section(plan: ExperimentPlan):
    plans = _convergence_plans(plan)
    reports = {name: run_sweep(p) for name, p in plans.items()}
    results = {}
    for name, report in reports.items():
        print(f"convergence {name}: {_fit_text(report)}")
        results[name] = {key: report[key] for key in (
            "fitted_order", "fit_interval_95", "fit_residual", "degenerate_fit", "pass")}
        results[name]["per_eps"] = [
            {key: rec[key] for key in ("eps", "n_side", "max_sup_error", "error_over_eps2")}
            for rec in report["per_eps"]]
    gate = {"rule": f"fitted_order >= {plan.pass_threshold} and every error_over_eps2 "
                    f"<= {plan.error_over_eps2_bound}",
            "pass": all(report["pass"] for report in reports.values())}
    return plans, results, gate


def _residual_section(plan: ExperimentPlan):
    report, passed = _residual_report(plan)
    print(f"{_residual_text(report)} pass={passed}")
    gate = {"rule": f"order_with_corrections >= {plan.residual_order_min_with} and "
                    f"order_without_corrections >= {plan.residual_order_min_without}",
            "pass": passed}
    return {"residual": plan}, report, gate


def _coefficient_section(plan: ExperimentPlan):
    """coeffs' payload at the carriers (pi i/4, pi j/4), i, j in 0..4, but
    (0, 0); the table reports and gates nothing."""
    rows = [{"k0_pi": i / 4, "l0_pi": j / 4,
             **_coeffs_payload(nls_coefficients(WaveVector(np.pi * i / 4, np.pi * j / 4),
                                               plan.delta_res))}
            for i in range(5) for j in range(5) if i or j]
    print(f"coefficients: {len(rows)} carriers, "
          f"{sum(row['nonresonant'] for row in rows)} non-resonant")
    return {"coefficients": plan}, rows, None


EVIDENCE_SECTIONS = {"convergence": _convergence_section, "residual": _residual_section,
                     "coefficients": _coefficient_section}


def cmd_evidence(plan: ExperimentPlan, out_dir: Path) -> int:
    sections = {}
    for name, run_section in EVIDENCE_SECTIONS.items():
        start = time.perf_counter()
        plans, results, gate = run_section(plan)
        sections[name] = {"plans": {key: p.hash() for key, p in plans.items()},
                          "results": results, "gate": gate,
                          "wall_time_s": time.perf_counter() - start}
    path = out_dir / "evidence.json"
    path.write_text(report_to_json({"config_hash": plan.hash(), "sections": sections}))
    write_manifest(out_dir, "evidence", plan.hash(), [path.name, "manifest.json"],
                   _boxes(plan, plan.eps_list))
    passed = all(s["gate"]["pass"] for s in sections.values() if s["gate"] is not None)
    print(f"evidence: pass={passed} -> {path}")
    return EXIT_OK if passed else EXIT_ACCEPTANCE


COMMANDS = {"simulate": cmd_simulate, "sweep": cmd_sweep, "residual": cmd_residual,
            "evidence": cmd_evidence}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        plan = load_plan(args.config, args.overrides)
        thread_cap()  # the run's pool reads FPUT2D_THREADS; check it before any work
        if args.command in ("sweep", "residual", "evidence") and len(plan.eps_list) < 3:
            raise ConfigError(f"{args.command} needs at least 3 eps values")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "coeffs":
        try:
            return cmd_coeffs(plan)
        except SOLVER_ERRORS as e:
            print(json.dumps({"error": type(e).__name__, "message": str(e)}))
            return EXIT_SOLVER

    try:
        checked_dispersion(plan)
        if args.command == "evidence":  # its sweeps run the strain form too
            for sweep_plan in _convergence_plans(plan).values():
                checked_dispersion(sweep_plan)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return COMMANDS[args.command](plan, out_dir)
    except (NonResonantCarrierRequired, ZeroFrequency) as e:
        print(f"carrier error: {e}", file=sys.stderr)
        return EXIT_CARRIER
    except SOLVER_ERRORS as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
