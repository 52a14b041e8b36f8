#!/usr/bin/env python3
"""Spike family demo: greedy nested spikes vs disjoint spikes, the two-sided
l1 bounds on sampled coefficient vectors, and the dual sign-pattern pair
whose gaps approach 2 as the deltas shrink.

Usage: python scripts/ell1_demo.py [--seed 0]
"""

import argparse
import random
from fractions import Fraction

from renorml1 import (
    disjoint_spike_family,
    dual_segment,
    ell1_bounds,
    greedy_asymptotic_ell1,
    nonsmooth_pairings,
)
from renorml1.dyadic import frac_str
from renorml1.gen import random_fraction


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    deltas = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)]
    fam = greedy_asymptotic_ell1(deltas, 4)
    print("greedy spikes (level, eps):",
          [(s.level, frac_str(e)) for s, e in zip(fam.members, fam.eps_schedule)])
    for _ in range(3):
        alphas = [random_fraction(rng, 4, 4) for _ in range(4)]
        b = ell1_bounds(fam, alphas)
        print(f"  alphas {[frac_str(a) for a in alphas]}: "
              f"{frac_str(b.lower)} <= {frac_str(b.value)} <= {frac_str(b.upper)}"
              f"  ok={b.ok}")

    small = [Fraction(1, 2**n) for n in range(1, 7)]
    disj = disjoint_spike_family(small, 6, 3)
    pair = dual_segment(disj)
    rep = nonsmooth_pairings(disj, pair)
    print("disjoint family deltas:", [frac_str(d) for d in small])
    print("dual pair gaps <x_2i - x_2i-1, ystar> (-> 2):",
          [frac_str(g) for g in rep.gaps])


if __name__ == "__main__":
    main()
