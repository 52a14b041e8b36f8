#!/usr/bin/env python3
"""Recursion demo: the pair sums ||2 x_n + z|| climb to 2 while the pair
difference stays pinned at -z, and the truncated segment t*z + x_N never
leaves the closed ball.

Usage: python scripts/ured_demo.py [--steps 10] [--delta 1/2]
"""

import argparse
from fractions import Fraction

from renorml1 import segment_check, ured_recursion
from renorml1.dyadic import frac_str


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--delta", default="1/2")
    args = parser.parse_args()

    delta = Fraction(args.delta)
    eps = [Fraction(1, 2**n) for n in range(1, args.steps + 1)]
    run = ured_recursion(delta, eps, args.steps)

    print(f"z = (1 - {frac_str(delta)}) e_1, eps_n = 2^-n")
    print(f"{'n':>3} {'eps_n':>8} {'||2x_n+z||':>12} {'2 - ||2x_n+z||':>16}")
    for n in range(1, args.steps + 1):
        val = (2 * run.x(n) + run.z).sup_norm()
        print(f"{n:>3} {frac_str(eps[n-1]):>8} {frac_str(val):>12} {frac_str(2 - val):>16}")
    print(f"difference x_n - (z + x_n) = -z fixed, sup-norm {frac_str(run.z.sup_norm())}")

    grid = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    seg = segment_check(run, grid, args.steps)
    print(f"segment t*z + x_{args.steps}: norms in [{seg['floor']}, 1) on the grid "
          f"{[row['sup_norm'] for row in seg['rows']]}")


if __name__ == "__main__":
    main()
