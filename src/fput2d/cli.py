"""Command-line front end.

    fput2d coeffs   --config cfg.yaml [--set key=value ...]
    fput2d simulate --config cfg.yaml --out dir [--set ...]
    fput2d sweep    --config cfg.yaml --out dir [--set ...]
    fput2d residual --config cfg.yaml --out dir [--set ...]

Exit codes: 0 success, 1 config error, 2 inadmissible carrier, 3 solver
error (including a NaN or infinity in a report, which strict JSON cannot
hold), 4 acceptance/order-fit failure.  Codes 1 and 2 come before simulate,
sweep or residual creates --out.  simulate and sweep run on one thread pool,
workers wide and capped by FPUT2D_THREADS (the CPU count when unset; also the
width at workers=0): with 2 or more threads the envelope solve runs beside the
lattice runs that observe it.
All outputs land under --out together with a manifest.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .ansatz import FootprintExceeded
from .config import ConfigError, ExperimentPlan, keys_help, load_plan, thread_cap
from .dispersion import Resonant, ZeroFrequency, nls_coefficients, omega_x_sq
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
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", default=None, help="JSON or YAML config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
        if name != "coeffs":
            p.add_argument("--out", default="out", help="output directory")
    return parser


def cmd_coeffs(plan: ExperimentPlan) -> int:
    try:
        data = nls_coefficients(plan.carrier, plan.delta_res)
    except ZeroFrequency as e:
        print(json.dumps({"error": "ZeroFrequency", "message": str(e)}))
        return EXIT_CARRIER
    # the strain envelopes' cubic coefficients gamma_q / (4 |e^{ik} - 1|^2) at
    # k = k0 and l0 (their physical-space equation carries a factor 4 on
    # them); null where the carrier component is 0
    gamma_a_im, gamma_b_im = (
        None if degenerate else data.gamma_q.imag / (4 * omega_x_sq(k))
        for k, degenerate in ((data.carrier.k, data.axis_degenerate_k),
                              (data.carrier.l, data.axis_degenerate_l)))
    payload = {
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
    print(json.dumps(payload, indent=2))
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
    order = report["fitted_order"]
    print(f"sweep: fitted_order={order if order is None else round(order, 4)} "
          f"pass={report['pass']} -> {report_path}")
    return EXIT_OK if report["pass"] else EXIT_ACCEPTANCE


def cmd_residual(plan: ExperimentPlan, out_dir: Path) -> int:
    rows = residual_sweep(plan)
    eps_values = [r["eps"] for r in rows]
    report = {"per_eps": rows, "metadata": {"config_hash": plan.hash()}}
    code = EXIT_OK
    try:
        for label, bar in (("with_corrections", plan.residual_order_min_with),
                           ("without_corrections", plan.residual_order_min_without)):
            slope, ci, _ = fit_order(eps_values, [r[label] for r in rows])
            report[f"order_{label}"] = slope
            report[f"pass_{label}"] = bool(slope >= bar)
            if slope < bar:
                code = EXIT_ACCEPTANCE
    except DegenerateFit as e:
        report["degenerate_fit"] = str(e)
        code = EXIT_ACCEPTANCE
    path = out_dir / "residual_report.json"
    path.write_text(report_to_json(report))
    write_manifest(out_dir, "residual", plan.hash(), [path.name, "manifest.json"],
                   _boxes(plan, plan.eps_list))
    print(f"residual: orders with={report.get('order_with_corrections')} "
          f"without={report.get('order_without_corrections')} -> {path}")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        plan = load_plan(args.config, args.overrides)
        thread_cap()  # the run's pool reads FPUT2D_THREADS; check it before any work
        if args.command in ("sweep", "residual") and len(plan.eps_list) < 3:
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
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(plan, out_dir)
        if args.command == "sweep":
            return cmd_sweep(plan, out_dir)
        if args.command == "residual":
            return cmd_residual(plan, out_dir)
    except (NonResonantCarrierRequired, ZeroFrequency) as e:
        print(f"carrier error: {e}", file=sys.stderr)
        return EXIT_CARRIER
    except SOLVER_ERRORS as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return EXIT_SOLVER
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
