#!/usr/bin/env python3
"""Reproduce the three desk-scale convergence experiments.

Runs the strain sweep, the displacement sweep, and the perturbed-force
displacement sweep at eps in {0.2, 0.14, 0.1}, fits the error orders, and
writes one report JSON per experiment.  Expect ~5-10 minutes on a laptop.
"""

import argparse
from pathlib import Path

from fput2d.harness import ExperimentPlan, report_to_json, run_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/convergence_sweeps")
    ap.add_argument("--eps", type=float, nargs="+", default=[0.2, 0.14, 0.1])
    ap.add_argument("--workers", type=int, default=0)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    experiments = {
        "strain": dict(variant="strain"),
        "displacement": dict(variant="displacement"),
        "perturbed": dict(variant="displacement", force_kind="perturbed",
                          coeff_bound=1.0, seed=2026),
    }
    for name, kw in experiments.items():
        plan = ExperimentPlan(eps_list=tuple(args.eps), workers=args.workers, **kw)
        report = run_sweep(plan)
        path = out / f"report_{name}.json"
        path.write_text(report_to_json(report))
        print(f"{name:13s} fitted order {report['fitted_order']:.3f} "
              f"pass={report['pass']} -> {path}")


if __name__ == "__main__":
    main()
