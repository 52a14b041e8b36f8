"""Seeded generators for randomized trials.

Everything here is driven by a caller-owned ``random.Random`` so that a
64-bit seed fully determines a trial sequence; reports built from these
generators are byte-identical across runs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .dyadic import DyadicStep, norms
from .witness import WeakNbhd, near_unit_scale


def random_fraction(rng: random.Random, max_num: int = 64, max_den: int = 64) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_step(
    rng: random.Random, max_level: int = 4, max_num: int = 64, max_den: int = 64
) -> DyadicStep:
    level = rng.randint(0, max_level)
    vals = tuple(random_fraction(rng, max_num, max_den) for _ in range(1 << level))
    return DyadicStep(level, vals)


def random_nonzero_step(rng: random.Random, **kw) -> DyadicStep:
    while True:
        f = random_step(rng, **kw)
        if not f.is_zero():
            return f


def random_functional(rng: random.Random) -> DyadicStep:
    """A step function of level <= 3 with linf <= 1 (values p/16, |p| <= 16)."""
    level = rng.randint(0, 3)
    vals = tuple(Fraction(rng.randint(-16, 16), 16) for _ in range(1 << level))
    return DyadicStep(level, vals)


def random_near_unit(rng: random.Random) -> DyadicStep:
    """A center of level <= 3 with tnorm_sq in [1 - 3/10**4, 1].

    The raw function is divided by an integer to bring l1 under 1 before the
    exact near-unit scaling to precision 1/10**4, which keeps the bracket
    valid.
    """
    f = random_nonzero_step(rng, max_level=3, max_num=8, max_den=8)
    l1 = norms(f).l1
    if l1 > 1:
        f = f * Fraction(1, math.ceil(l1))
    return near_unit_scale(f, Fraction(1, 10**4))


def random_weak_nbhd(rng: random.Random) -> WeakNbhd:
    """A near-unit center, 0 to 3 functionals and delta = 1/20 + (9/20)*i/20
    for a random i in 0..20."""
    center = random_near_unit(rng)
    m = rng.randint(0, 3)
    functionals = tuple(random_functional(rng) for _ in range(m))
    delta = Fraction(1, 20) + Fraction(9, 20) * Fraction(rng.randint(0, 20), 20)
    return WeakNbhd(center, functionals, delta)


def rademacher(level: int) -> DyadicStep:
    """+-1 alternating on the level-`level` cells; mean zero above it."""
    if level < 1:
        raise ValueError("rademacher needs level >= 1")
    vals = tuple(Fraction(1 if i % 2 == 0 else -1) for i in range(1 << level))
    return DyadicStep(level, vals)


def random_disjoint_indices(rng: random.Random, count: int) -> list[tuple[int, int]]:
    """Distinct cells at one common level <= 4 (hence pairwise disjoint)."""
    if count == 0:
        return []
    k = rng.randint(max(0, (count - 1).bit_length()), 4)
    positions = rng.sample(range(1, (1 << k) + 1), count)
    return [(k, j) for j in sorted(positions)]
