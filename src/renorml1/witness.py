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

f has one mass on all the level-K cells inside one cell of level
min(level(f), K), so f1 and f2 repeat one 4-value motif there: they are
`dyadic.PeriodicStep`s, and every check reads their motifs at a cost that
does not grow with K. Everything
here is verified exactly on every run; the named checks are part of the
report. Since g_i is exactly (1 - gamma) * f_i, T(g_i)**2 and
T(g1 - g2)**2 are read off f1 and f2. A failed
*input* condition raises GapConditionError; a failed *theorem* would be a
library bug and raises RuntimeError (`checks.require`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from math import lcm
from typing import Optional, Sequence

from .checks import Check, check, require
from .dyadic import (
    MAX_LEVEL,
    DyadicStep,
    LevelOverflowError,
    PeriodicStep,
    frac_str,
    lin_comb,
    mass_levels,
    norms,
    pairing,
    steps_to_json,
    to_frac,
)
from .renorm import tnorm_sq


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

    def deviation(self, *gs: DyadicStep | PeriodicStep) -> Fraction:
        """max over l and the given g of |<g, h_l> - <f, h_l>|, pairing f
        with each functional once; 0 without functionals."""
        worst = Fraction(0)
        for h in self.functionals:
            fh = pairing(self.center, h)
            worst = max([worst, *(abs(pairing(g, h) - fh) for g in gs)])
        return worst


@dataclass(frozen=True)
class SplitPair:
    """The level-(K+2) mass split of a center f.

    b and c are level-K steps: their values on cell j are the positive and
    negative masses of f on the level-K cell j, which f1 carries on quarters
    4j-3 / 4j-2 of that cell and f2 on 4j-1 / 4j. All four are periodic
    steps with period level K.
    `checks` holds what the split check measured: the largest deviation from
    each identity (5)-(7) over the cells of level <= K, and max linf(f_i).
    `tnorm_sq` holds T(f1)**2, T(f2)**2 and T(f1 - f2)**2.
    """

    K: int
    b: PeriodicStep
    c: PeriodicStep
    f1: PeriodicStep
    f2: PeriodicStep
    checks: dict[str, Check]
    tnorm_sq: tuple[Fraction, Fraction, Fraction]

    def to_json(self) -> dict:
        b, c, f1, f2 = steps_to_json(self.b, self.c, self.f1, self.f2)
        return {"K": self.K, "b": b["values"], "c": c["values"], "f1": f1, "f2": f2}


@dataclass(frozen=True)
class WitnessReport:
    """The witness pair g_i = (1 - gamma) * f_i of `pair`, built from the
    motifs of f1 and f2 on each read."""

    gamma: Fraction
    K: int
    pair: SplitPair
    ball_sq: tuple[Fraction, Fraction]  # (T(g1)**2, T(g2)**2)
    checks: dict[str, Check]
    guaranteed_gap_sq: Fraction
    eps: Fraction
    delta: Fraction

    @property
    def g1(self) -> PeriodicStep:
        return (1 - self.gamma) * self.pair.f1

    @property
    def g2(self) -> PeriodicStep:
        return (1 - self.gamma) * self.pair.f2

    @property
    def gap_sq(self) -> Fraction:
        return self.checks["gap"].lhs

    def to_json(self) -> dict:
        g1, g2 = steps_to_json(self.g1, self.g2)
        return {
            "gamma": frac_str(self.gamma),
            "K": self.K,
            "eps": frac_str(self.eps),
            "delta": frac_str(self.delta),
            "guaranteed_gap_sq": frac_str(self.guaranteed_gap_sq),
            "split": self.pair.to_json(),
            "g1": g1,
            "g2": g2,
            "checks": {name: chk.to_json() for name, chk in self.checks.items()},
        }


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

    All four are periodic with coarse level L = min(level(f), K) and period
    level K. Verified exactly for every cell (k, j) with k <= K:
      int f1 = int f2 = int f,  int |f1| = int |f2| = int |f|,
      int |f1 - f2| = 2 int |f|;   plus linf(f_i) <= 4 linf(f).
    """
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    if K + 2 > MAX_LEVEL:
        raise LevelOverflowError(f"split level {K}+2 exceeds cap {MAX_LEVEL}")
    L = min(f.level, K)
    # pos[j] and neg[j] are the masses of |f| + f and |f| - f (twice f's
    # positive and negative parts) on the level-L cell j, over D
    m, a = _coarse_masses(f, L)
    D = f.den << f.level
    pos = [x + y for x, y in zip(a, m)]
    neg = [x - y for x, y in zip(a, m)]
    reps = 1 << K - L
    b, c = (PeriodicStep(L, ms, reps, 2 * D << K - L) for ms in (pos, neg))
    # heights 2**(K+2) * b_j and -2**(K+2) * c_j on quarters 1 and 2 (f1) or
    # 3 and 4 (f2) of each level-K cell
    up = [p << L + 1 for p in pos]
    down = [-(q << L + 1) for q in neg]
    zeros = repeat(0)
    f1 = PeriodicStep(L, tuple(chain.from_iterable(zip(up, down, zeros, zeros))), reps, D)
    f2 = PeriodicStep(L, tuple(chain.from_iterable(zip(zeros, zeros, up, down))), reps, D)
    return SplitPair(K, b, c, f1, f2, *_verify_split(f, f1, f2))


def _coarse_masses(f: DyadicStep, L: int) -> tuple[Sequence[int], ...]:
    """The masses of f and of |f| on the level-L cells, L <= level(f), over
    den << level(f)."""
    return tuple(next(islice(mass_levels(ms), f.level - L, None)) for ms in (f.nums, list(map(abs, f.nums))))


def _verify_split(f: DyadicStep, f1: PeriodicStep, f2: PeriodicStep) -> tuple:
    """(checks, norms): (5)-(7) measured on every cell of level <= K for
    f1, f2 periodic with period level K and coarse level L = min(level(f), K),
    and T(f1)**2, T(f2)**2, T(f1 - f2)**2.

    From L up to K, a level-k cell holds 2**(K - k) times the mass of f, f1,
    f2 or their absolute values on a level-K cell of its coarse cell, so a
    deviation is largest at L; below L the coarse deviations fold. The
    largest over those folds is exact, over the lcm D of the denominators."""
    L, Df = f1.coarse, f.den << f.level
    m, a = _coarse_masses(f, L)
    diff = lin_comb(1, f1, -1, f2)
    D = lcm(Df, *(p.den << p.level for p in (f1, f2, diff)))

    def deviation(*pairs) -> Check:
        worst = 0
        for p, ref in pairs:
            s, t = D // (p.den << p.level), D // Df
            devs = [x * s - y * t for x, y in zip(p.masses(L), ref)]
            worst = max(worst, *(max(map(abs, ms)) for ms in mass_levels(devs)))
        return check(Fraction(worst, D), "==", Fraction(0))

    checks = {
        "id5": deviation((f1, m), (f2, m)),
        "id6": deviation((abs(f1), a), (abs(f2), a)),
        "id7": deviation((abs(diff), [2 * x for x in a])),
        "linf4x": check(max(norms(f1).linf, norms(f2).linf), "<=", 4 * norms(f).linf),
    }
    return require("split check", checks), tuple(map(tnorm_sq, (f1, f2, diff)))


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

    gamma = choose_gamma(norms(f).linf, nbhd.delta, eps)
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

    # g_i = (1 - gamma) * f_i exactly, so every squared norm scales by
    # (1 - gamma)**2
    checks = dict(sp.checks)
    checks["pairing_l"] = check(nbhd.deviation(shrink * sp.f1, shrink * sp.f2), "<", nbhd.delta)
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
