#!/usr/bin/env python3
"""Print dispersion data and envelope coefficients for a grid of carriers."""

import argparse

import numpy as np

from fput2d.dispersion import WaveVector, nls_coefficients, omega_x_sq


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=4,
                    help="carriers at multiples of pi/steps in each component")
    args = ap.parse_args()

    print(f"{'k0/pi':>8} {'l0/pi':>8} {'omega0':>10} {'cx':>8} {'cy':>8} "
          f"{'Im(gamma_a)':>12} {'Im(gamma_q)':>12} {'nonres':>7}")
    for i in range(args.steps + 1):
        for j in range(args.steps + 1):
            if i == 0 and j == 0:
                continue
            kv = WaveVector(np.pi * i / args.steps, np.pi * j / args.steps)
            d = nls_coefficients(kv)
            # the strain envelope's cubic coefficient, as `fput2d coeffs` prints it
            ga = (f"{'-':>12}" if d.axis_degenerate_k
                  else f"{d.gamma_q.imag / (4 * omega_x_sq(kv.k)):12.6f}")
            print(f"{i/args.steps:8.3f} {j/args.steps:8.3f} {d.omega0:10.6f} "
                  f"{d.group_velocity[0]:8.4f} {d.group_velocity[1]:8.4f} "
                  f"{ga} {d.gamma_q.imag:12.6f} {str(d.nonresonant):>7}")


if __name__ == "__main__":
    main()
