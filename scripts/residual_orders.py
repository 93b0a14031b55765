#!/usr/bin/env python3
"""Measure the eps-order of the ansatz residual with and without corrections.

For each eps the envelope is evolved to the slow-time horizon and the
first-order-system residual norm is evaluated at a few slow times
(harness.residual_sweep); the log-log slope over the sweep shows ~eps^3
without the third-generation corrections and ~eps^4 with them.
"""

import argparse

from fput2d.config import ConfigError, load_plan
from fput2d.harness import fit_order, residual_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, nargs="+", default=[0.2, 0.14, 0.1])
    ap.add_argument("--variant", choices=["strain", "displacement"], default="strain")
    ap.add_argument("--carrier", type=float, nargs=2, default=[0.5, 0.5],
                    metavar=("K_PI", "L_PI"))
    args = ap.parse_args()

    try:
        plan = load_plan(None, [f"carrier_k_pi={args.carrier[0]!r}",
                                f"carrier_l_pi={args.carrier[1]!r}", f"variant={args.variant}",
                                "eps_list=" + ",".join(map(repr, args.eps))])
    except ConfigError as e:
        ap.error(str(e))
    rows = residual_sweep(plan)
    for row in rows:
        print(f"eps={row['eps']:5.3f}  without={row['without_corrections']:.4e}  "
              f"with={row['with_corrections']:.4e}")
    for label in ("without", "with"):
        slope, ci, _ = fit_order(args.eps, [r[f"{label}_corrections"] for r in rows])
        print(f"order {label} corrections: {slope:.3f}  (95% {ci[0]:.2f}..{ci[1]:.2f})")


if __name__ == "__main__":
    main()
