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
periodic `DyadicStep`s with period level K, and every check reads their
motifs at a cost that does not grow with K. Everything
here is verified exactly on every run; the named checks are part of the
report. Since g_i is exactly (1 - gamma) * f_i, T(g_i)**2 and
T(g1 - g2)**2 are read off f1 and f2. A failed
*input* condition raises GapConditionError; a failed *theorem* would be a
library bug and raises RuntimeError (`checks.require`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import isqrt, lcm
from typing import Sequence

from .checks import Check, check, require
from .dyadic import (
    DyadicStep,
    _check_level,
    _shown,
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
            raise ValueError(f"delta must be > 0, got {_shown(str(self.delta))}")
        for i, h in enumerate(self.functionals):
            if norms(h).linf > 1:
                raise ValueError(f"functional {i} has linf > 1")

    def contains(self, g: DyadicStep) -> bool:
        return self.deviation(g) < self.delta

    def deviation(self, *gs: DyadicStep) -> Fraction:
        """max over l and the given g of |<g, h_l> - <f, h_l>|, pairing f
        with each functional once, whatever the levels and periods of f, g
        and h_l; 0 without functionals."""
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
    b: DyadicStep
    c: DyadicStep
    f1: DyadicStep
    f2: DyadicStep
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
    def g1(self) -> DyadicStep:
        return (1 - self.gamma) * self.pair.f1

    @property
    def g2(self) -> DyadicStep:
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
    (2-eps)**2 (vacuous for eps >= 2). Both hold for every larger p, so p is
    the larger of the two smallest p, each read off a bit length."""
    f_inf, delta, eps = to_frac(f_inf), to_frac(delta), to_frac(eps)
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    # 2**p > (5*f_inf + 1)/delta exactly when 2**p > its floor
    p = max(1, max(0, (5 * f_inf + 1) // delta).bit_length())
    if eps < 2:
        # (1-gamma)**3 > t = (2-eps)**2/4 needs gamma < 1 - t, since
        # (1-gamma)**3 < 1-gamma, and 3*gamma < 1 - t is enough, since
        # (1-gamma)**3 >= 1 - 3*gamma: so p is q, q + 1 or q + 2, with q the
        # smallest p with 2**-p < 1 - t
        t = (2 - eps) ** 2 / 4
        q = (1 // (1 - t)).bit_length()
        q += sum((1 - Fraction(1, 1 << i)) ** 3 <= t for i in (q, q + 1))
        p = max(p, q)
    return Fraction(1, 1 << p)


def choose_K(gamma, functional_levels) -> int:
    """Smallest K with 2**-K < gamma (strict) and K >= every functional level.

    At such a K every functional is itself a level-K step function, so the
    simple-function approximants coincide with the functionals exactly.
    """
    gamma = to_frac(gamma)
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    # 2**K > 1/gamma exactly when 2**K > floor(1/gamma)
    K = max(max(functional_levels, default=0), (gamma.denominator // gamma.numerator).bit_length())
    _check_level(K + 2, "split level")
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
    _check_level(K + 2, "split level")
    L = min(f.level, K)
    # pos[j] and neg[j] are the masses of |f| + f and |f| - f (twice f's
    # positive and negative parts) on the level-L cell j, over D
    m, a = f.masses(L), abs(f).masses(L)
    D = f.den << f.level
    pos = [x + y for x, y in zip(a, m)]
    neg = [x - y for x, y in zip(a, m)]
    reps = 1 << K - L
    b, c = (DyadicStep.periodic(L, ms, reps, 2 * D << K - L) for ms in (pos, neg))
    # heights 2**(K+2) * b_j and -2**(K+2) * c_j on quarters 1 and 2 (f1) or
    # 3 and 4 (f2) of each level-K cell
    up = [p << L + 1 for p in pos]
    down = [-(q << L + 1) for q in neg]
    zeros = repeat(0)
    f1 = DyadicStep.periodic(L, tuple(chain.from_iterable(zip(up, down, zeros, zeros))), reps, D)
    f2 = DyadicStep.periodic(L, tuple(chain.from_iterable(zip(zeros, zeros, up, down))), reps, D)
    return SplitPair(K, b, c, f1, f2, *_verify_split(f, f1, f2, m, a))


def _verify_split(f: DyadicStep, f1: DyadicStep, f2: DyadicStep, m: Sequence[int], a: Sequence[int]):
    """(checks, norms): (5)-(7) measured on every cell of level <= K for f1,
    f2 periodic with period level K and coarse level L = min(level(f), K), m
    and a the level-L masses of f and |f|; and T(f1)**2, T(f2)**2, T(f1 - f2)**2.

    From L up to K, a level-k cell holds 2**(K - k) times the mass of f, f1,
    f2 or their absolute values on a level-K cell of its coarse cell, so a
    deviation is largest at L; below L the coarse deviations fold. The
    largest over those folds is exact, over the lcm D of the denominators."""
    L, Df = len(m).bit_length() - 1, f.den << f.level
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
    t1, t2, gap = (shrink * shrink * t for t in sp.tnorm_sq)
    ball_sq = (t1, t2)
    own = {
        "pairing_l": check(nbhd.deviation(shrink * sp.f1, shrink * sp.f2), "<", nbhd.delta),
        "ball": check(max(ball_sq), "<", Fraction(1)),
        "gap": check(gap, ">" if eps < 2 else ">=", target),
    }
    # split_pair required the split's checks; the guaranteed bound is
    # verified but not reported
    require("witness", {"guaranteed_gap": check(gap, ">=", guaranteed), **own})
    return WitnessReport(
        gamma=gamma,
        K=K,
        pair=sp,
        ball_sq=ball_sq,
        checks={**sp.checks, **own},
        guaranteed_gap_sq=guaranteed,
        eps=eps,
        delta=nbhd.delta,
    )


# -- near-unit scaling ---------------------------------------------------------


def best_rational_leq_sqrt(x_sq: Fraction, max_den: int) -> Fraction:
    """Largest r = p/q with q <= max_den, r >= 0 and r**2 <= x_sq.

    Walks the continued fraction of sqrt(x_sq) = (P + sqrt(D)) / Q, D = num *
    den, in ints. The largest p/q <= sqrt(x_sq) with q <= max_den is the last
    convergent when the next one lies above sqrt(x_sq), else the largest
    semiconvergent between the last two that fits; Q = 0 ends the expansion
    of a rational sqrt(x_sq) at an exact convergent.
    """
    x_sq = to_frac(x_sq)
    if x_sq < 0:
        raise ValueError("negative square")
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    D = x_sq.numerator * x_sq.denominator
    s, P, Q = isqrt(D), 0, x_sq.denominator
    h0, k0, h1, k1 = 0, 1, 1, 0  # convergents n - 2 and n - 1
    below = True  # whether convergent n lies below sqrt(x_sq): n is even
    while True:
        # every complete quotient is positive and its conjugate negative, so
        # Q > 0 and this is the floor of (P + sqrt(D)) / Q
        a = (P + s) // Q
        if a * k1 + k0 > max_den:
            t = (max_den - k0) // k1
            return Fraction(h0 + t * h1, k0 + t * k1) if below else Fraction(h1, k1)
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        P = a * Q - P
        Q = (D - P * P) // Q
        if Q == 0:
            return Fraction(h1, k1)
        below = not below


def near_unit_scale(f: DyadicStep, prec) -> DyadicStep:
    """Scale f to sit just inside the unit sphere of the renormed space.

    Returns r*f where r is the largest rational with denominator <= 1/prec,
    prec in (0, 1], and r**2 * tnorm_sq(f) <= 1. For prec small relative to
    sqrt(tnorm_sq(f)) this lands in [1 - 3*prec, 1]; pre-normalize big
    centers (divide by an integer) before calling if the bracket matters.
    """
    prec = to_frac(prec)
    if prec <= 0:
        raise ValueError("prec must be > 0")
    if prec > 1:
        raise ValueError(f"prec must be in (0, 1], got {_shown(frac_str(prec))}")
    q = tnorm_sq(f)
    if q == 0:
        raise ValueError("cannot scale the zero function to the unit sphere")
    max_den = int(1 / prec)
    r = best_rational_leq_sqrt(1 / q, max_den)
    return r * f
