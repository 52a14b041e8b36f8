"""The l2-of-seminorms norm on step functions, with exact squared values.

The norm is

    T(f)**2 = sum_{k>=0} 4**-k * sum_{j=1..2**k} s(f, k, j)**2,

where s(f, k, j) is the integral of |f| over the level-k cell j. For a step
function of level K every term with k >= K collapses to a geometric series,
so T(f)**2 is an exact rational: the partial sum below level K plus the
closed tail (8/7) * 4**(-2K) * sum_i values[i]**2.

All comparisons are made on squares; square roots appear only in decimal
renderings. T(f) itself is generically irrational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import mul
from typing import Optional, Sequence

from .dyadic import (
    DyadicStep,
    abs_diff_masses,
    as_index,
    dyadic_project,
    frac_str,
    integral_over,
    lattice,
    mass_levels,
    norms,
    pairing,
    refine,
    sqrt_floor_decimal,
    to_frac,
)


def seminorm(f: DyadicStep, idx) -> Fraction:
    """s(f, k, j) = integral of |f| over I(k, j), exactly."""
    return integral_over(abs(f), as_index(idx))


def _series(f: DyadicStep, T: int) -> tuple[int, int, int]:
    """(B, S, D): `_mass_series` of the int masses of |f| at K = level(f),
    and their denominator D."""
    return (*_mass_series(f.level, list(map(abs, f.nums)), T), f.den << f.level)


def _mass_series(K: int, masses: list[int], T: int) -> tuple[int, int]:
    """(B, S) for D times the masses of |f| on the level-K cells:
    sum_{k < min(T, K)} 4**-k * sum_j s(f, k, j)**2 = B / (D**2 * 4**K) and
    sum_j s(f, K, j)**2 = S / D**2, folding the masses one level at a time."""
    B, S = 0, sum(map(mul, masses, masses))
    for k, ms in zip(range(K - 1, -1, -1), islice(mass_levels(masses), 1, None)):
        if k < T:
            B += sum(map(mul, ms, ms)) << 2 * (K - k)
    return B, S


def tnorm_sq(f: DyadicStep) -> Fraction:
    """Exact squared norm T(f)**2 (closed tail from f's own level up)."""
    return _tnorm_sq(f.level, f.den << f.level, list(map(abs, f.nums)))


def tnorm_sq_diff(f: DyadicStep, g: DyadicStep) -> Fraction:
    """T(f - g)**2, equal to tnorm_sq(f - g), from the lattices of f and g
    without building the step f - g."""
    return _tnorm_sq(*abs_diff_masses(f, g))


def _tnorm_sq(K: int, D: int, masses: list[int]) -> Fraction:
    """T(f)**2 of a level-K step f from D times the masses of |f| on the
    level-K cells."""
    return tnorm_sq_from_squares(K, D, [sum(map(mul, ms, ms)) for ms in mass_levels(masses)])


def tnorm_sq_from_squares(K: int, D: int, squares: Sequence[int]) -> Fraction:
    """T(f)**2 of a level-K step f from squares[i] = D**2 * sum_j s(f, K - i, j)**2,
    i = 0..K: the sums of squares of the int masses of |f| over D, level by
    level in `mass_levels` order."""
    # level K - i weighs 4**i against level K; the tail closes at level K
    B = sum(sq << 2 * i for i, sq in enumerate(squares) if i)
    # below + (8/7) * top / 4**K over the denominator 7 * D**2 * 4**K
    return Fraction(7 * B + 8 * squares[0], 7 * D * D << 2 * K)


def partial_below(f: DyadicStep, T: int) -> Fraction:
    """Truncated series: sum_{k < T} 4**-k * sum_j s(f, k, j)**2."""
    if T < 0:
        raise ValueError(f"truncation level must be >= 0, got {T}")
    K = f.level
    B, S, D = _series(f, T)
    E = max(T, K)
    # at and above f's own grid the level-k seminorms sum to S * 2**(K-k) / D**2;
    # every term goes over the denominator D**2 * 4**K * 8**(E-K)
    above = sum(S << 3 * (E - k) for k in range(K, T))
    return Fraction((B << 3 * (E - K)) + above, D * D << 2 * K + 3 * (E - K))


def tail_formula(f: DyadicStep, T: int) -> Fraction:
    """Closed form of sum_{k >= T} 4**-k * sum_j s(f, k, j)**2 for T >= level(f)."""
    if T < f.level:
        raise ValueError(f"tail start {T} is below the function level {f.level}")
    nums, den = lattice(f)
    return Fraction(8 * sum(map(mul, nums, nums)), 7 * den * den << f.level + 3 * T)


@dataclass(frozen=True)
class NormSqReport:
    tnorm_sq: Fraction
    l1: Fraction
    linf: Fraction
    tnorm_float: str
    equiv_ok: bool

    def to_json(self) -> dict:
        return {
            "tnorm_sq": frac_str(self.tnorm_sq),
            "l1": frac_str(self.l1),
            "linf": frac_str(self.linf),
            "tnorm_float": self.tnorm_float,
            "equiv_ok": self.equiv_ok,
        }


def norm_report(f: DyadicStep, float_digits: int = 12) -> NormSqReport:
    eq = check_equivalence(f)
    t = eq.tnorm_sq
    l1, linf = norms(f)
    return NormSqReport(t, l1, linf, sqrt_floor_decimal(t, float_digits), eq.ok)


@dataclass(frozen=True)
class EquivalenceReport:
    """l1**2 <= T**2 <= 2*l1**2, plus the sharper computable 4/3 bound."""

    l1_sq: Fraction
    tnorm_sq: Fraction
    lower_ok: bool
    upper_ok: bool
    sharp_ok: bool  # tnorm_sq <= (4/3) l1_sq

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok and self.sharp_ok


def check_equivalence(f: DyadicStep) -> EquivalenceReport:
    t = tnorm_sq(f)
    l1 = norms(f).l1
    lsq = l1 * l1
    return EquivalenceReport(
        l1_sq=lsq,
        tnorm_sq=t,
        lower_ok=lsq <= t,
        upper_ok=t <= 2 * lsq,
        sharp_ok=t <= Fraction(4, 3) * lsq,
    )


# -- strict convexity: triangle equality classifier ---------------------------


@dataclass(frozen=True)
class EqualityCase:
    """Outcome of the triangle-equality test T(f+g) = T(f) + T(g).

    Degenerate(ratio=t) certifies f = t*g with t >= 0. When g = 0 the ratio
    is undefined; by convention the pair (0, 0) is Degenerate with ratio 0,
    while (f != 0, g = 0) is Strict with `zero_operand` set, since rotundity
    statements quantify over nonzero vectors.
    """

    tag: str  # "Strict" | "Degenerate"
    ratio: Optional[Fraction] = None
    zero_operand: bool = False

    @property
    def is_degenerate(self) -> bool:
        return self.tag == "Degenerate"

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "ratio": None if self.ratio is None else frac_str(self.ratio),
            "zero_operand": self.zero_operand,
        }


def triangle_equality_case(f: DyadicStep, g: DyadicStep) -> EqualityCase:
    """Decide exactly whether T(f+g) = T(f) + T(g).

    Because the norm is an l2 aggregate of the seminorms, equality forces
    per-cell additivity of |f+g| (cellwise sign agreement) together with
    proportional seminorm vectors; on step functions this reduces to the
    finite criterion f = t*g cellwise for some t >= 0.
    """
    L = max(f.level, g.level)
    vf = refine(f, L).values
    vg = refine(g, L).values
    if all(y == 0 for y in vg):
        if all(x == 0 for x in vf):
            return EqualityCase("Degenerate", Fraction(0), zero_operand=True)
        return EqualityCase("Strict", None, zero_operand=True)
    i0 = next(i for i, y in enumerate(vg) if y != 0)
    t = vf[i0] / vg[i0]
    if t < 0:
        return EqualityCase("Strict")
    if all(x == t * y for x, y in zip(vf, vg)):
        return EqualityCase("Degenerate", t)
    return EqualityCase("Strict")


# -- dual-norm lower bounds ----------------------------------------------------


@dataclass(frozen=True)
class DualNormEstimate:
    """Certified lower bound on sup{<f, h> : T(f) <= 1, level(f) <= L}.

    The certificate is the exact pair (pairing_sq, tnorm_sq) of the best
    *unnormalized* maximizer found; lower_sq = pairing_sq / tnorm_sq is the
    exact squared value of the normalized candidate, hence a true lower
    bound regardless of how far the ascent got.
    """

    lower_sq: Fraction
    maximizer: DyadicStep
    pairing_sq: Fraction
    tnorm_sq: Fraction
    iterations: int
    converged: bool


def _tnorm_grad(u: DyadicStep) -> list[Fraction]:
    """Gradient of tnorm_sq at a componentwise-nonnegative u, per cell value."""
    L = u.level
    levels = mass_levels(u.nums)
    # over 7 * D * 8**L, D = den << L: the closed tail contributes 16 times the
    # mass of cell i, each level k < L 14 * 4**(L-k) times the level-k mass holding i
    grad = [n << 4 for n in next(levels)]
    for k, masses in zip(range(L - 1, -1, -1), levels):
        w, shift = 14 << 2 * (L - k), L - k
        for i in range(len(grad)):
            grad[i] += w * masses[i >> shift]
    q = 7 * u.den << 4 * L
    return [Fraction(x, q) for x in grad]


def dual_norm_estimate(
    h: DyadicStep,
    L: int,
    tol=Fraction(1, 10**9),
    max_iter: int = 400,
) -> DualNormEstimate:
    """Projected ascent for the support function of the norm ball at level L.

    The search aligns signs with h cellwise and maximizes the exact ratio
    (c . u)**2 / tnorm_sq(u) over the nonnegative orthant, where c holds the
    per-cell integrals of |h|. Every accepted iterate strictly improves the
    exact ratio; iteration stops once the relative improvement drops below
    `tol` or `max_iter` is hit (flagged through `converged`).

    L must be at least level(h); a smaller L raises ValueError naming both
    levels. At L >= level(h) the level-L supremum is the full dual norm of h:
    the conditional expectation onto the level-L cells keeps <f, h> and does
    not increase T(f) (Jensen on the cells of level <= L, Cauchy-Schwarz on
    the finer ones), so restricting f to level L loses nothing.
    """
    if L < h.level:
        raise ValueError(f"dual-norm level L = {L} is below the level {h.level} of h")
    tol = to_frac(tol)
    hL = dyadic_project(h, L)
    c = [abs(v) / (1 << L) for v in hL.values]  # |<e_i, h>| for unit cell values
    sigma = [1 if v > 0 else (-1 if v < 0 else 0) for v in hL.values]

    def build(u: list[Fraction]) -> DyadicStep:
        return DyadicStep(L, tuple(s * x for s, x in zip(sigma, u)))

    if all(x == 0 for x in c):
        zero = DyadicStep.zero(L)
        return DualNormEstimate(Fraction(0), zero, Fraction(0), Fraction(0), 0, True)

    def ratio(u: list[Fraction]) -> Fraction:
        p = sum((ci * ui for ci, ui in zip(c, u)), Fraction(0))
        q = tnorm_sq(DyadicStep(L, tuple(u)))
        return p * p / q

    u = [ci for ci in c]  # sign-aligned start: masses proportional to |h|
    r = ratio(u)
    step = Fraction(1)
    iters = 0
    converged = False
    for iters in range(1, max_iter + 1):
        uf = DyadicStep(L, tuple(u))
        q = tnorm_sq(uf)
        p = sum((ci * ui for ci, ui in zip(c, u)), Fraction(0))
        gq = _tnorm_grad(uf)
        d = [2 * ci * q - p * gi for ci, gi in zip(c, gq)]
        d = [di if (ui > 0 or di > 0) else Fraction(0) for ui, di in zip(u, d)]
        if all(di == 0 for di in d):
            converged = True
            break
        scale = max(abs(di) for di in d)
        d = [di / scale for di in d]
        improved = False
        t = step
        for _ in range(40):
            cand = [max(Fraction(0), ui + t * di) for ui, di in zip(u, d)]
            cand = [x.limit_denominator(1 << 48) for x in cand]
            if any(x > 0 for x in cand):
                rc = ratio(cand)
                if rc > r:
                    rel = (rc - r) / r if r > 0 else Fraction(1)
                    u, r = cand, rc
                    step = t * 2
                    improved = True
                    if rel < tol:
                        converged = True
                    break
            t /= 2
        if not improved:
            converged = True
            break
        if converged:
            break

    f_star = build(u)
    p = pairing(f_star, h)
    q = tnorm_sq(f_star)
    return DualNormEstimate(p * p / q, f_star, p * p, q, iters, converged)
