"""The dense split: the oracle for the periodic split lattices.

`dense_split(f, K)` lays out b, c, f1 and f2 cell by cell at their full
levels, the way the package did before the split became periodic, and
`dense_verify` folds each of the five level-(K+2) mass streams (f1, f2,
|f1|, |f2| and |f1 - f2|) down to level 0. It measures each identity (5)-(7)
on every cell of every level <= K and raises nothing, so a tampered split
shows all its deviations. `dense_witness_json` and `dense_extreme_json`
build the `witness` and `probe extreme` reports from the dense steps with
plain value lists, for `json.dumps`.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, lcm
from operator import mul

from renorml1.checks import Check, check
from renorml1.dyadic import (
    DyadicStep,
    _new,
    _repeat,
    frac_str,
    from_lattice,
    lin_comb,
    mass_levels,
    norms,
)
from renorml1.renorm import tnorm_sq, tnorm_sq_from_squares
from renorml1.witness import WeakNbhd, choose_K, choose_gamma


def lattice(f: DyadicStep, level=None) -> tuple[tuple[int, ...], int]:
    """(nums, den) of f, one numerator per cell of its dense expansion; with
    `level`, refined to that level (each repeated per subcell). A reader of
    its own, so that the oracle does not read the kernel's `masses`."""
    return _repeat(f.dense().motifs, 1 << ((f.level if level is None else level) - f.level)), f.den


@dataclass(frozen=True)
class DenseSplit:
    K: int
    b: DyadicStep
    c: DyadicStep
    f1: DyadicStep
    f2: DyadicStep
    checks: dict[str, Check]
    tnorm_sq: tuple[Fraction, Fraction, Fraction]
    #: (D, levels): levels[k] holds D times the masses of f1 and of f2 on the
    #: level-k cells, k = 0..K
    cell_masses: tuple

    def pairings(self, h: DyadicStep) -> tuple[Fraction, Fraction]:
        D, levels = self.cell_masses
        return tuple(Fraction(sum(map(mul, ms, lattice(h)[0])), D * h.den) for ms in levels[h.level])


def level_K_masses(f: DyadicStep, K: int) -> tuple[int, list[int], list[int]]:
    """(D, m, a): D times the masses of f and |f| on the level-K cells."""
    L = max(f.level, K)
    nums, den = lattice(f, L)
    m, a = (list(next(islice(mass_levels(ms), L - K, None))) for ms in (nums, list(map(abs, nums))))
    return den << L, m, a


def dense_split(f: DyadicStep, K: int) -> DenseSplit:
    fK = level_K_masses(f, K)
    D, m, a = fK
    pos = [x + y for x, y in zip(a, m)]
    neg = [x - y for x, y in zip(a, m)]
    b, c = (from_lattice(K, ms, 2 * D) for ms in (pos, neg))
    g = gcd(D, gcd(*pos, *neg) << K + 1)
    up = [(p << K + 1) // g for p in pos]
    down = [-((q << K + 1) // g) for q in neg]
    zeros = repeat(0)
    f1 = _new(K + 2, K + 2, tuple(chain.from_iterable(zip(up, down, zeros, zeros))), 1, D // g)
    f2 = _new(K + 2, K + 2, tuple(chain.from_iterable(zip(zeros, zeros, up, down))), 1, D // g)
    return DenseSplit(K, b, c, f1, f2, *dense_verify(f, K, f1, f2))


def _max_dev(ms, ref) -> int:
    return max(abs(m - r) for m, r in zip(ms, ref))


def dense_verify(f: DyadicStep, K: int, f1: DyadicStep, f2: DyadicStep):
    """(checks, norms, cell masses) of dense f1, f2 against the center f."""
    Df, mf, af = level_K_masses(f, K)
    L = max(f1.level, f2.level)
    (n1, d1), (n2, d2), diff = lattice(f1, L), lattice(f2, L), f1 - f2
    streams = [
        (d1 << L, n1), (d2 << L, n2), (d1 << L, list(map(abs, n1))),
        (d2 << L, list(map(abs, n2))), (diff.den << L, list(map(abs, lattice(diff, L)[0]))),
    ]
    D = lcm(Df, *(d for d, _ in streams))

    def to_D(d: int, ms):
        return [x * (D // d) for x in ms]

    squares = ([], [], [])
    kept = []
    below_K = zip(mass_levels(mf), mass_levels(af))
    dev = dict.fromkeys(("id5", "id6", "id7"), 0)
    for k, levels in zip(range(L, -1, -1), zip(*(mass_levels(ms) for _, ms in streams))):
        for sq, ms in zip(squares, levels[2:]):
            sq.append(sum(map(mul, ms, ms)))
        if k > K:
            continue
        m1, m2, a1, a2, ad = (to_D(d, ms) for (d, _), ms in zip(streams, levels))
        m, a = (to_D(Df, ms) for ms in next(below_K))
        dev["id5"] = max(dev["id5"], _max_dev(m1, m), _max_dev(m2, m))
        dev["id6"] = max(dev["id6"], _max_dev(a1, a), _max_dev(a2, a))
        dev["id7"] = max(dev["id7"], _max_dev(ad, [2 * x for x in a]))
        kept.append((m1, m2))
    checks = {name: check(Fraction(d, D), "==", Fraction(0)) for name, d in dev.items()}
    linf = max(Fraction(max(ms), d >> L) for d, ms in streams[2:4])
    checks["linf4x"] = check(linf, "<=", 4 * norms(f).linf)
    norms_sq = tuple(tnorm_sq_from_squares(L, d, sq) for (d, _), sq in zip(streams[2:], squares))
    return checks, norms_sq, (D, tuple(reversed(kept)))


def _dense_run(nbhd: WeakNbhd, eps: Fraction):
    gamma = choose_gamma(norms(nbhd.center).linf, nbhd.delta, eps)
    K = choose_K(gamma, [h.level for h in nbhd.functionals])
    sp = dense_split(nbhd.center, K)
    return gamma, K, sp, (1 - gamma) * sp.f1, (1 - gamma) * sp.f2


def step_json(f: DyadicStep) -> dict:
    """The wire form of f with its values a plain list of 'p/q' strings."""
    return {"level": f.level, "values": [frac_str(v) for v in f.values]}


def dense_witness_json(nbhd: WeakNbhd, eps: Fraction) -> dict:
    """The `witness` report of a run whose gap condition holds, every value
    measured on the dense steps."""
    gamma, K, sp, g1, g2 = _dense_run(nbhd, eps)
    target = (2 - eps) ** 2 if eps < 2 else Fraction(0)
    checks = dict(sp.checks)
    checks["pairing_l"] = check(nbhd.deviation(g1, g2), "<", nbhd.delta)
    checks["ball"] = check(max(tnorm_sq(g1), tnorm_sq(g2)), "<", Fraction(1))
    checks["gap"] = check(tnorm_sq(g1 - g2), ">" if eps < 2 else ">=", target)
    guaranteed = 4 * (1 - gamma) ** 2 * (tnorm_sq(nbhd.center) - Fraction(1, 1 << K))
    return {
        "gamma": frac_str(gamma),
        "K": K,
        "eps": frac_str(eps),
        "delta": frac_str(nbhd.delta),
        "guaranteed_gap_sq": frac_str(guaranteed),
        "split": {
            "K": K, "b": step_json(sp.b)["values"], "c": step_json(sp.c)["values"],
            "f1": step_json(sp.f1), "f2": step_json(sp.f2),
        },
        "g1": step_json(g1),
        "g2": step_json(g2),
        "checks": {name: chk.to_json() for name, chk in checks.items()},
    }


def dense_extreme_json(nbhd: WeakNbhd, eps: Fraction) -> dict:
    """The `probe extreme` report, every value measured on the dense steps."""
    gamma, _, _, g1, g2 = _dense_run(nbhd, eps)
    half = Fraction(1, 2)
    center, u = lin_comb(half, g1, half, g2), lin_comb(half, g1, -half, g2)
    return {
        "center": step_json(center),
        "u": step_json(u),
        "ball_check_sq": [frac_str(tnorm_sq(g)) for g in (g1, g2)],
        "l1_of_u": frac_str(norms(u).l1),
        "l1_floor": frac_str((1 - gamma) * norms(nbhd.center).l1),
    }
