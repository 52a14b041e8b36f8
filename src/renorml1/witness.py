"""Witness pairs for weak neighborhoods of the unit ball.

Given a center f with T(f)**2 <= 1 and a weak neighborhood
V = {g : |<g - f, h_l>| < delta for all l}, the construction splits the
positive and negative mass of f on each level-K cell into disjoint quarters
in two different patterns (f1 on quarters 1-2, f2 on quarters 3-4), then
retracts both slightly into the open ball:

    g_i = (1 - gamma) * f_i.

The point of the split is that f1 and f2 agree with f on every seminorm up
to level K while |f1 - f2| doubles them, so the pair sits deep inside V and
exactly far apart:

    T(g1 - g2)**2 >= 4 (1-gamma)**2 (T(f)**2 - 2**-K) > (2 - eps)**2.

Everything here is verified exactly on every run; the named checks are part
of the report. The split check folds each level-(K+2) mass stream (f1, f2,
|f1|, |f2| and |f1 - f2|) once, down to level 0, and the witness reads every
other check off those folds: since g_i is exactly (1 - gamma) * f_i,
T(g_i)**2 and T(g1 - g2)**2 are (1 - gamma)**2 times the squared norms the
folds sum, and <g_i, h_l> is (1 - gamma) times f_i's masses at level(h_l)
dotted with h_l's numerators. Each is an exact value measured on the
reported f1 and f2. A failed *input* condition raises GapConditionError; a
failed *theorem* would be a library bug and raises RuntimeError
(`checks.require`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, NamedTuple, Optional

from .checks import Check, check, require
from .dyadic import (
    MAX_LEVEL,
    DyadicStep,
    _new,
    abs_diff_masses,
    LevelOverflowError,
    frac_str,
    from_lattice,
    lattice,
    mass_levels,
    norms,
    pairing,
    step_to_json,
    to_frac,
)
from .renorm import tnorm_sq, tnorm_sq_from_squares


class GapConditionError(ValueError):
    """The adjusted gap condition fails for the chosen gamma and K."""


@dataclass(frozen=True)
class WeakNbhd:
    """Center f, functionals h_1..h_m with linf <= 1, and a radius delta > 0.

    Membership: g in V iff |<g - f, h_l>| < delta for every l, evaluated
    as <g, h_l> - <f, h_l> (the bracket is bilinear, so the value is the
    same exact Fraction) without building the step g - f.
    """

    center: DyadicStep
    functionals: tuple[DyadicStep, ...]
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "functionals", tuple(self.functionals))
        object.__setattr__(self, "delta", to_frac(self.delta))
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        for i, h in enumerate(self.functionals):
            if norms(h).linf > 1:
                raise ValueError(f"functional {i} has linf > 1")

    def contains(self, g: DyadicStep) -> bool:
        return self.deviation(g) < self.delta

    def deviation(self, *gs: DyadicStep) -> Fraction:
        """max over l and the given g of |<g, h_l> - <f, h_l>|, pairing f
        with each functional once; 0 without functionals."""
        return self.deviation_of(lambda h: [pairing(g, h) for g in gs])

    def deviation_of(self, brackets: Callable[[DyadicStep], Iterable[Fraction]]) -> Fraction:
        """max over l of |x - <f, h_l>| for every x in brackets(h_l), the
        brackets <g, h_l> of some functions g already known; 0 without
        functionals."""
        worst = Fraction(0)
        for h in self.functionals:
            fh = pairing(self.center, h)
            worst = max([worst, *(abs(x - fh) for x in brackets(h))])
        return worst


@dataclass(frozen=True)
class SplitPair:
    """The level-(K+2) mass split of a center f.

    b[j], c[j] are the positive/negative masses of f on the level-K cell j;
    f1 carries them on quarters 4j-3 / 4j-2 of that cell, f2 on 4j-1 / 4j.
    `checks` holds what the split check measured: the largest deviation from
    each identity (5)-(7) over the cells of level <= K, and max linf(f_i).
    `tnorm_sq` holds T(f1)**2, T(f2)**2 and T(f1 - f2)**2, and `cell_masses` the
    masses of f1 and f2 on the cells of every level <= K, both read off the
    split check's one fold of each mass stream of f1 and f2.
    """

    K: int
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    f1: DyadicStep
    f2: DyadicStep
    checks: dict[str, Check]
    tnorm_sq: tuple[Fraction, Fraction, Fraction]
    #: (D, levels): levels[k] holds D times the masses of f1 and of f2 on the
    #: level-k cells, k = 0..K
    cell_masses: tuple[int, tuple[tuple[list[int], list[int]], ...]] = field(repr=False, compare=False)

    #: (b, c) as the level-K steps `split_pair` built, whose kept numerators
    #: render each distinct mass once; None for a pair built otherwise
    _masses = None

    def pairings(self, h: DyadicStep) -> tuple[Fraction, Fraction]:
        """(<f1, h>, <f2, h>) for a functional h of level <= K: the masses of
        f1 and f2 at level(h) dotted with h's numerators."""
        if h.level > self.K:
            raise ValueError(f"functional level {h.level} exceeds the split's K = {self.K}")
        D, levels = self.cell_masses
        return tuple(Fraction(sum(map(mul, ms, h.nums)), D * h.den) for ms in levels[h.level])

    def to_json(self) -> dict:
        if self._masses is None:
            b, c = ([frac_str(x) for x in xs] for xs in (self.b, self.c))
        else:
            b, c = (step_to_json(m)["values"] for m in self._masses)
        return {
            "K": self.K,
            "b": b,
            "c": c,
            "f1": step_to_json(self.f1),
            "f2": step_to_json(self.f2),
        }


@dataclass(frozen=True)
class WitnessReport:
    gamma: Fraction
    K: int
    pair: SplitPair
    g1: DyadicStep
    g2: DyadicStep
    ball_sq: tuple[Fraction, Fraction]  # (T(g1)**2, T(g2)**2)
    checks: dict[str, Check]
    guaranteed_gap_sq: Fraction
    eps: Fraction
    delta: Fraction

    @property
    def gap_sq(self) -> Fraction:
        return self.checks["gap"].lhs

    def to_json(self) -> dict:
        out = {
            "gamma": frac_str(self.gamma),
            "K": self.K,
            "eps": frac_str(self.eps),
            "delta": frac_str(self.delta),
            "guaranteed_gap_sq": frac_str(self.guaranteed_gap_sq),
            "split": self.pair.to_json(),
            "g1": step_to_json(self.g1),
            "g2": step_to_json(self.g2),
            "checks": {name: chk.to_json() for name, chk in self.checks.items()},
        }
        return out


def choose_gamma(f_inf, delta, eps) -> Fraction:
    """Largest gamma = 2**-p (p >= 1) with (5*f_inf + 1)*gamma < delta and
    2*(1-gamma)**1.5 > 2 - eps, the latter compared as 4*(1-gamma)**3 >
    (2-eps)**2 (vacuous for eps >= 2). LevelOverflowError when no
    gamma >= 2**-(4*MAX_LEVEL + 64) qualifies: a smaller one puts the split
    level K + 2 far past MAX_LEVEL."""
    f_inf, delta, eps = to_frac(f_inf), to_frac(delta), to_frac(eps)
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    p = 1
    while True:
        gamma = Fraction(1, 1 << p)
        if (5 * f_inf + 1) * gamma < delta and (
            eps >= 2 or 4 * (1 - gamma) ** 3 > (2 - eps) ** 2
        ):
            return gamma
        p += 1
        if p > 4 * MAX_LEVEL + 64:
            raise LevelOverflowError(
                f"gamma would be below 2**-{p - 1}, so the split level exceeds cap {MAX_LEVEL}"
            )


def choose_K(gamma, functional_levels) -> int:
    """Smallest K with 2**-K < gamma (strict) and K >= every functional level.

    At such a K every functional is itself a level-K step function, so the
    simple-function approximants coincide with the functionals exactly.
    """
    gamma = to_frac(gamma)
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    K = max(functional_levels, default=0)
    while Fraction(1, 1 << K) >= gamma:
        K += 1
    if K + 2 > MAX_LEVEL:
        raise LevelOverflowError(f"split level {K}+2 exceeds cap {MAX_LEVEL}")
    return K


def split_pair(f: DyadicStep, K: int) -> SplitPair:
    """Build (b, c, f1, f2) at level K+2 and verify the split identities.

    Verified exactly for every cell (k, j) with k <= K:
      int f1 = int f2 = int f,  int |f1| = int |f2| = int |f|,
      int |f1 - f2| = 2 int |f|;   plus linf(f_i) <= 4 linf(f).
    """
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    if K + 2 > MAX_LEVEL:
        raise LevelOverflowError(f"split level {K}+2 exceeds cap {MAX_LEVEL}")
    # pos[j] / D and neg[j] / D are the masses of |f| + f and |f| - f (twice
    # f's positive and negative parts) on the level-K cell j
    fK = _level_K_masses(f, K)
    D, m, a = fK
    pos = [x + y for x, y in zip(a, m)]
    neg = [x - y for x, y in zip(a, m)]
    b, c = (from_lattice(K, ms, 2 * D) for ms in (pos, neg))

    # heights 2**(K+2) * b[j] and -2**(K+2) * c[j] over D, reduced once on
    # the level-K lists and then laid out on the quarters of cell j
    g = gcd(D, gcd(*pos, *neg) << K + 1)
    up = [(p << K + 1) // g for p in pos]
    down = [-((q << K + 1) // g) for q in neg]
    zeros = repeat(0)
    f1 = _new(K + 2, tuple(chain.from_iterable(zip(up, down, zeros, zeros))), D // g)
    f2 = _new(K + 2, tuple(chain.from_iterable(zip(zeros, zeros, up, down))), D // g)

    sp = SplitPair(K, b.values, c.values, f1, f2, *_verify_split(f, K, fK, f1, f2))
    object.__setattr__(sp, "_masses", (b, c))
    return sp


def _level_K_masses(f: DyadicStep, K: int) -> tuple[int, list[int], list[int]]:
    """(D, m, a): D times the masses of f and |f| on the level-K cells, from
    one read of f's numerators at level max(K, level(f)); lists, like every
    folded level they are compared with."""
    L = max(f.level, K)
    nums, den = lattice(f, L)
    m, a = (list(next(islice(mass_levels(ms), L - K, None))) for ms in (nums, list(map(abs, nums))))
    return den << L, m, a


def _max_dev(ms: list[int], ref: list[int]) -> int:
    """Largest |ms[i] - ref[i]|; equal lists deviate by exactly 0."""
    return 0 if ms == ref else max(abs(m - r) for m, r in zip(ms, ref))


class _Verified(NamedTuple):
    """What `_verify_split` measured: the split checks, and the norms and
    masses read off the same folds (the last two fields of a SplitPair)."""

    checks: dict[str, Check]
    tnorm_sq: tuple[Fraction, Fraction, Fraction]
    cell_masses: tuple[int, tuple[tuple[list[int], list[int]], ...]]


def _verify_split(f: DyadicStep, K: int, fK: tuple, f1: DyadicStep, f2: DyadicStep) -> _Verified:
    """Measure (5)-(7) on every cell of level <= K for f1, f2 of level >= K+2,
    given f's level-K masses fK = `_level_K_masses(f, K)`.

    The mass streams of f1, f2, |f1|, |f2| and |f1 - f2| are each folded
    once, from their common level L down to level 0. On the levels <= K they
    are compared with f's as int numerators over the lcm D of all
    denominators; the deviations are reported as exact Fractions. The same
    folds give T(f1)**2, T(f2)**2 and T(f1 - f2)**2 from the level sums of
    squares of the three absolute streams, and the masses of f1 and f2 on
    every level <= K. The masses of f1 - f2 come from the lattices of f1 and
    f2 (`abs_diff_masses`), not from a built step."""
    Df, mf, af = fK
    L = max(f1.level, f2.level)
    (n1, d1), (n2, d2) = lattice(f1, L), lattice(f2, L)
    streams = [
        (d1 << L, n1), (d2 << L, n2), (d1 << L, list(map(abs, n1))),
        (d2 << L, list(map(abs, n2))), abs_diff_masses(f1, f2)[1:],
    ]
    D = lcm(Df, *(d for d, _ in streams))

    def to_D(d: int, ms):
        s = D // d
        return ms if s == 1 else [x * s for x in ms]

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
        if any(dev.values()):
            shown = ", ".join(f"{name}={frac_str(Fraction(d, D))}" for name, d in dev.items())
            raise RuntimeError(f"internal: split identity failed at level {k} ({shown})")
        kept.append((m1, m2))
    checks = {name: check(Fraction(d, D), "==", Fraction(0)) for name, d in dev.items()}
    linf = max(Fraction(max(ms), d >> L) for d, ms in streams[2:4])  # |f1|, |f2|
    checks["linf4x"] = check(linf, "<=", 4 * norms(f).linf)
    norms_sq = tuple(tnorm_sq_from_squares(L, d, sq) for (d, _), sq in zip(streams[2:], squares))
    return _Verified(require("split check", checks), norms_sq, (D, tuple(reversed(kept))))


def d2p_witness(nbhd: WeakNbhd, eps) -> WitnessReport:
    """Produce g1, g2 in the neighborhood whose exact squared distance
    exceeds (2 - eps)**2, verifying every intermediate identity.

    Raises GapConditionError when 4*(1-gamma)**2*(T(f)**2 - 2**-K) fails to
    clear (2-eps)**2 for the deterministic gamma and K (the caller must move
    the center closer to the unit sphere or relax eps).
    """
    eps = to_frac(eps)
    if eps <= 0:
        raise ValueError("eps must be > 0")
    f = nbhd.center
    q = tnorm_sq(f)
    if q > 1:
        raise ValueError(f"center has tnorm_sq = {q} > 1; not in the unit ball")

    f_inf = norms(f).linf
    gamma = choose_gamma(f_inf, nbhd.delta, eps)
    K = choose_K(gamma, [h.level for h in nbhd.functionals])

    margin = q - Fraction(1, 1 << K)
    guaranteed = 4 * (1 - gamma) ** 2 * margin
    target = (2 - eps) ** 2 if eps < 2 else Fraction(0)
    if margin <= 0:
        raise GapConditionError(
            f"tnorm_sq(f) - 2**-K = {frac_str(margin)} <= 0 "
            f"(gamma={frac_str(gamma)}, K={K}); center too far from the sphere"
        )
    if eps < 2 and guaranteed <= target:
        raise GapConditionError(
            f"4*(1-gamma)**2*(tnorm_sq(f) - 2**-K) = {frac_str(guaranteed)} "
            f"<= (2-eps)**2 = {frac_str(target)} (gamma={frac_str(gamma)}, K={K})"
        )

    sp = split_pair(f, K)
    shrink = 1 - gamma
    g1 = shrink * sp.f1
    g2 = shrink * sp.f2

    # g_i = (1 - gamma) * f_i exactly, so every bracket scales by 1 - gamma
    # and every squared norm by its square
    checks = dict(sp.checks)
    checks["pairing_l"] = check(
        nbhd.deviation_of(lambda h: [shrink * x for x in sp.pairings(h)]), "<", nbhd.delta
    )
    t1, t2, t12 = (shrink * shrink * t for t in sp.tnorm_sq)
    ball_sq, gap = (t1, t2), t12
    checks["ball"] = check(max(ball_sq), "<", Fraction(1))
    checks["gap"] = check(gap, ">" if eps < 2 else ">=", target)
    # the guaranteed bound is verified but not reported
    require("witness", {"guaranteed_gap": check(gap, ">=", guaranteed), **checks})
    return WitnessReport(
        gamma=gamma,
        K=K,
        pair=sp,
        g1=g1,
        g2=g2,
        ball_sq=ball_sq,
        checks=checks,
        guaranteed_gap_sq=guaranteed,
        eps=eps,
        delta=nbhd.delta,
    )


# -- near-unit scaling ---------------------------------------------------------


def best_rational_leq_sqrt(x_sq: Fraction, max_den: int) -> Fraction:
    """Largest r = p/q with q <= max_den, r >= 0 and r**2 <= x_sq.

    Stern-Brocot descent with the exact predicate p**2 * den <= q**2 * num;
    never touches floats, works for rational or irrational sqrt(x_sq).
    """
    x_sq = to_frac(x_sq)
    if x_sq < 0:
        raise ValueError("negative square")
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    num, den = x_sq.numerator, x_sq.denominator

    def le(p: int, q: int) -> bool:  # p/q <= sqrt(num/den)
        return p * p * den <= q * q * num

    def biggest_k(pred, cap: Optional[int]) -> int:
        """Largest k in [0, cap] with pred(k); pred is monotone decreasing."""
        if cap is not None and cap <= 0:
            return 0
        if not pred(1):
            return 0
        k = 1
        while (cap is None or 2 * k <= cap) and pred(2 * k):
            k *= 2
        lo, hi = k, (2 * k if cap is None else min(2 * k, cap))
        while lo < hi:  # invariant: pred(lo); find the last True
            mid = (lo + hi + 1) // 2
            if pred(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo

    a, b = 0, 1  # lower endpoint, always <= sqrt
    c, d = 1, 0  # upper endpoint, always > sqrt
    while True:
        if a * a * den == b * b * num:
            return Fraction(a, b)  # hit sqrt exactly
        k = biggest_k(
            lambda k: le(a + k * c, b + k * d),
            None if d == 0 else (max_den - b) // d,
        )
        if k:
            a, b = a + k * c, b + k * d
        k2 = biggest_k(
            lambda k: not le(c + k * a, d + k * b),
            (max_den - d) // b,
        )
        if k2:
            c, d = c + k2 * a, d + k2 * b
        if not k and not k2:
            return Fraction(a, b)


def near_unit_scale(f: DyadicStep, prec) -> DyadicStep:
    """Scale f to sit just inside the unit sphere of the renormed space.

    Returns r*f where r is the largest rational with denominator <= 1/prec
    and r**2 * tnorm_sq(f) <= 1. For prec small relative to sqrt(tnorm_sq(f))
    this lands in [1 - 3*prec, 1]; pre-normalize big centers (divide by an
    integer) before calling if the bracket matters.
    """
    prec = to_frac(prec)
    if prec <= 0:
        raise ValueError("prec must be > 0")
    q = tnorm_sq(f)
    if q == 0:
        raise ValueError("cannot scale the zero function to the unit sphere")
    max_den = int(1 / prec)
    r = best_rational_leq_sqrt(1 / q, max_den)
    return r * f
