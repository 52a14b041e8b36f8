#!/usr/bin/env python3
"""Slice-gap experiment: push eps toward 0 and watch the certified witness
gaps climb toward diameter 2, every value exact.

Writes the CSV rows (eps, gap_sq, gap_float) next to a console table.

Usage: python scripts/slice_gaps.py [--out slice_gaps.csv]
"""

import argparse
import sys
from fractions import Fraction

from renorml1 import DyadicStep, near_unit_scale, slice_diameter_lb, tnorm_sq
from renorml1.dyadic import frac_str, sqrt_floor_decimal, to_frac
from renorml1.probes import slice_csv


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="slice_gaps.csv")
    parser.add_argument("--prec", default="1/10000")
    args = parser.parse_args()

    try:
        center = near_unit_scale(DyadicStep.constant(1), to_frac(args.prec))
    except ValueError as exc:  # a bad --prec ends like a CLI input error
        sys.stderr.write(f"input error: {exc}\n")
        sys.exit(2)
    schedule = [Fraction(1, 5), Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)]
    entries = slice_diameter_lb(center, [DyadicStep.constant(1)], Fraction(1), schedule)

    print(f"center: constant {frac_str(center.values[0])},"
          f" tnorm_sq = {frac_str(tnorm_sq(center))}")
    print(f"{'eps':>8} {'2-eps':>10} {'gap (exact sqrt, 12 digits)':>30}")
    for e in entries:
        gap = sqrt_floor_decimal(e.gap_sq, 12) if e.ok else "FAILED"
        print(f"{frac_str(e.eps):>8} {float(2 - e.eps):>10.4f} {gap:>30}")

    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(slice_csv(entries))
    print(f"csv written to {args.out}")


if __name__ == "__main__":
    main()
