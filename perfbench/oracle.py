"""Exact reference values the benchmark derives on its own.

Nothing here imports renorml1: a step function is a plain
``(level, values)`` pair of an int and a tuple of Fractions, and every value
is computed on an integer lattice (one common denominator per function), so
a change to the package's kernel cannot change what the checks expect.
"""

from __future__ import annotations

import dataclasses
import json
import re
from fractions import Fraction
from math import lcm

_RATIONAL = re.compile(rb"(\d+)/(\d+)")


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's own expectation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def fs(x: Fraction) -> str:
    """The package's wire form of a rational: 'p/q', denominator explicit."""
    return f"{x.numerator}/{x.denominator}"


def lattice(values) -> tuple[int, list[int]]:
    """(D, [v * D]) with D the least common denominator of the values."""
    D = lcm(*(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


def tnorm_sq(level: int, values) -> Fraction:
    """T(f)**2 by folding absolute cell masses upward on the integer lattice.

    Levels below `level` add 4**-k * sum_j s(k, j)**2; levels at and above
    it close to the geometric tail (8/7) * 16**-level * sum v**2.
    """
    D, ints = lattice(values)
    cur = [abs(x) for x in ints]
    total = Fraction(8 * sum(x * x for x in cur), 7 * D * D * 16**level)
    for k in range(level - 1, -1, -1):
        cur = [cur[2 * i] + cur[2 * i + 1] for i in range(len(cur) // 2)]
        total += Fraction(sum(x * x for x in cur), 4**k * 4**level * D * D)
    return total


def l1(level: int, values) -> Fraction:
    return sum((abs(v) for v in values), Fraction(0)) / (1 << level)


def linf(values) -> Fraction:
    return max(abs(v) for v in values)


def refine(level: int, values, to: int) -> tuple:
    rep = 1 << (to - level)
    return tuple(v for v in values for _ in range(rep))


def combine(f, g, a=1, b=1) -> tuple[int, tuple]:
    """a*f + b*g on the common level, for (level, values) pairs."""
    L = max(f[0], g[0])
    vf, vg = refine(*f, L), refine(*g, L)
    return L, tuple(a * x + b * y for x, y in zip(vf, vg))


def cell_integral(level: int, values, k: int, j: int) -> Fraction:
    """Integral over the dyadic cell I(k, j) (1-based j)."""
    if k >= level:
        return values[(j - 1) >> (k - level)] / (1 << k)
    span = 1 << (level - k)
    lo = (j - 1) * span
    return sum(values[lo : lo + span], Fraction(0)) / (1 << level)


def pairing(f, h) -> Fraction:
    L = max(f[0], h[0])
    vf, vh = refine(*f, L), refine(*h, L)
    return sum((x * y for x, y in zip(vf, vh)), Fraction(0)) / (1 << L)


def gamma_and_K(f_inf: Fraction, delta: Fraction, eps: Fraction, levels) -> tuple[Fraction, int]:
    """The witness parameters: the largest gamma = 2**-p (p >= 1) with
    (5 f_inf + 1) gamma < delta and 4 (1-gamma)**3 > (2-eps)**2, then the
    smallest K >= every functional level with 2**-K < gamma."""
    p = 1
    while True:
        gamma = Fraction(1, 1 << p)
        if (5 * f_inf + 1) * gamma < delta and (eps >= 2 or 4 * (1 - gamma) ** 3 > (2 - eps) ** 2):
            break
        p += 1
    K = max(levels, default=0)
    while Fraction(1, 1 << K) >= gamma:
        K += 1
    return gamma, K


def plain(obj):
    """A JSON-ready copy of a library result: rationals as 'p/q', dataclasses
    as dicts of their fields, tuples as lists."""
    if isinstance(obj, Fraction):
        return fs(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    raise TypeError(f"cannot render {type(obj).__name__}")


def report_bytes(obj) -> bytes:
    return json.dumps(plain(obj), sort_keys=True).encode()


def max_bits(data: bytes) -> int:
    """Bit-length of the largest numerator or denominator written as 'p/q'."""
    best = b"0"
    for m in _RATIONAL.finditer(data):
        for part in m.groups():
            if len(part) > len(best) or (len(part) == len(best) and part > best):
                best = part
    return int(best).bit_length()
