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
from math import gcd, lcm
from operator import add, floordiv, mul
from typing import Optional, Sequence

from .checks import Check, check, require
from .dyadic import (
    DyadicStep,
    _repeat,
    dyadic_project,
    frac_str,
    from_lattice,
    mass_levels,
    norms,
    pairing,
    refine,
    sqrt_floor_decimal,
)


def tnorm_sq(f: DyadicStep) -> Fraction:
    """Exact squared norm T(f)**2 (closed tail from f's own level up)."""
    return tnorm_sq_from_squares(f.level, f.den << f.level, abs(f).level_squares())


def tnorm_sq_from_squares(K: int, D: int, squares: Sequence[int]) -> Fraction:
    """T(f)**2 of a level-K step f from squares[i] = D**2 * sum_j s(f, K - i, j)**2,
    i = 0..K: the sums of squares of the int masses of |f| over D, level by
    level, finest first (`level_squares`)."""
    # level K - i weighs 4**i against level K; the tail closes at level K
    B = sum(sq << 2 * i for i, sq in enumerate(squares) if i)
    # below + (8/7) * top / 4**K over the denominator 7 * D**2 * 4**K
    return Fraction(7 * B + 8 * squares[0], 7 * D * D << 2 * K)


def partial_below(f: DyadicStep, T: int) -> Fraction:
    """Truncated series: sum_{k < T} 4**-k * sum_j s(f, k, j)**2."""
    if T < 0:
        raise ValueError(f"truncation level must be >= 0, got {T}")
    K, D = f.level, f.den << f.level
    squares = abs(f).level_squares()
    # level K - i < T weighs 4**i against level K, as in tnorm_sq_from_squares
    B = sum(sq << 2 * i for i, sq in enumerate(squares) if i and K - i < T)
    S, E = squares[0], max(T, K)
    # at and above f's own grid the level-k seminorms sum to S * 2**(K-k) / D**2;
    # every term goes over the denominator D**2 * 4**K * 8**(E-K)
    above = sum(S << 3 * (E - k) for k in range(K, T))
    return Fraction((B << 3 * (E - K)) + above, D * D << 2 * K + 3 * (E - K))


def tail_formula(f: DyadicStep, T: int) -> Fraction:
    """Closed form of sum_{k >= T} 4**-k * sum_j s(f, k, j)**2 for T >= level(f)."""
    if T < f.level:
        raise ValueError(f"tail start {T} is below the function level {f.level}")
    return Fraction(8 * f.level_squares()[0], 7 * f.den * f.den << f.level + 3 * T)


@dataclass(frozen=True)
class NormSqReport:
    tnorm_sq: Fraction
    l1: Fraction
    linf: Fraction
    tnorm_float: str
    equivalence: dict[str, Check]  # the required checks of `check_equivalence`

    @property
    def equiv_ok(self) -> bool:
        return all(c.ok for c in self.equivalence.values())

    def to_json(self) -> dict:
        return {
            "tnorm_sq": frac_str(self.tnorm_sq),
            "l1": frac_str(self.l1),
            "linf": frac_str(self.linf),
            "tnorm_float": self.tnorm_float,
            "equiv_ok": self.equiv_ok,
        }


def norm_report(f: DyadicStep, float_digits: int = 12) -> NormSqReport:
    t, (l1, linf) = tnorm_sq(f), norms(f)
    return NormSqReport(t, l1, linf, sqrt_floor_decimal(t, float_digits), _equivalence(t, l1 ** 2))


def check_equivalence(f: DyadicStep) -> dict[str, Check]:
    """l1**2 <= T**2 <= 2*l1**2 and the sharper computable T**2 <= (4/3) l1**2,
    through `checks.require`."""
    return _equivalence(tnorm_sq(f), norms(f).l1 ** 2)


def _equivalence(t: Fraction, lsq: Fraction) -> dict[str, Check]:
    return require("norm equivalence", {
        "lower": check(lsq, "<=", t),
        "upper": check(t, "<=", 2 * lsq),
        "sharp": check(t, "<=", Fraction(4, 3) * lsq),
    })


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
    if g.is_zero():
        if f.is_zero():
            return EqualityCase("Degenerate", Fraction(0), zero_operand=True)
        return EqualityCase("Strict", None, zero_operand=True)
    L = max(f.level, g.level)
    a, b = refine(f, L).masses(L), refine(g, L).masses(L)
    # at the first cell where g is not 0, t = (x0 / f.den) / (y0 / g.den); f = t*g cross-multiplied
    x0, y0 = next((x, y) for x, y in zip(a, b) if y)
    if x0 * y0 < 0:
        return EqualityCase("Strict")
    if all(x * y0 == x0 * y for x, y in zip(a, b)):
        return EqualityCase("Degenerate", Fraction(x0 * g.den, y0 * f.den))
    return EqualityCase("Strict")


# -- the exact dual norm -------------------------------------------------------


@dataclass(frozen=True)
class DualNormEstimate:
    """The exact level-L dual norm of h, attained by the level-L step
    `maximizer` once normalized: `pairing_sq` = <maximizer, h>**2 and
    `tnorm_sq` = T(maximizer)**2 as the kernel measures them, and their ratio
    `lower_sq`, the exact squared dual norm. `checks` is the KKT certificate
    with `attained`, which every returned value passes, so `converged` is
    always true; `iterations` counts the support solves.
    """

    lower_sq: Fraction
    maximizer: DyadicStep
    pairing_sq: Fraction
    tnorm_sq: Fraction
    iterations: int
    checks: dict[str, Check]

    @property
    def converged(self) -> bool:
        return all(c.ok for c in self.checks.values())


def _q_product(L: int, u: Sequence[int]) -> list[int]:
    """Q u for the int values u of a level-L step: Q = 8 I plus
    7 * 4**(L-k) 1_B 1_B^T for each cell B of each level k < L, so that
    T(u)**2 = u^T Q u / (7 * 16**L * D**2) for u >= 0 over a denominator D.
    The weighted masses of one fold add up from a 0 above [0, 1) down."""
    acc = [0]
    for k, masses in enumerate(reversed(list(islice(mass_levels(u), 1, None)))):
        acc = [a + (7 << 2 * (L - k)) * m for a, m in zip(_repeat(acc, 2), masses)]
    return [8 * x + a for x, a in zip(u, _repeat(acc, 2))]


def _support_solve(L: int, c: list[int], S: list[bool]) -> tuple[list[int], int]:
    """(U, E) with u = U / E solving Q_SS u_S = c_S, and u = 0 off S.

    A node's matrix A is its children's block diagonal B plus w 1 1^T: one
    Sherman-Morrison step each. Bottom up, a node carries (a, b, d), d = det A,
    proportional to (1^T A^-1 c, 1^T A^-1 1, 1); top down, it shifts its
    children's right-hand side by s 1, s = w 1^T x, summed as T / E."""
    a = [x if s else 0 for x, s in zip(c, S)]
    b = [1 if s else 0 for s in S]
    d = [8 if s else 1 for s in S]
    nodes = []
    for k in range(L - 1, -1, -1):
        d1, d2 = d[::2], d[1::2]
        a = list(map(add, map(mul, a[::2], d2), map(mul, a[1::2], d1)))
        b = list(map(add, map(mul, b[::2], d2), map(mul, b[1::2], d1)))
        dB = list(map(mul, d1, d2))
        w = 7 << 2 * (L - k)
        d = [x + w * y for x, y in zip(dB, b)]
        nodes.append((w, a, dB, d))
    T, E = [0], [1]
    for w, a, dB, d in reversed(nodes):
        T = [t * x + w * y * e for t, x, y, e in zip(T, dB, a, E)]
        E = list(map(mul, E, d))
        g = list(map(gcd, T, E))
        T, E = _repeat(map(floordiv, T, g), 2), _repeat(map(floordiv, E, g), 2)
    # each cell solves 8 u_i = c_i - T / E
    D = lcm(*(8 * e for e in E))
    return [(x * e - t) * (D // (8 * e)) if s else 0 for x, s, t, e in zip(c, S, T, E)], D


def dual_norm_estimate(h: DyadicStep, L: int) -> DualNormEstimate:
    """The exact dual norm of h over the steps of level <= L, certified.

    T(f) depends on |f| only. With c the |values| of `dyadic_project(h, L)`,
    the squared norm is 7 * 4**L * max (c . u)**2 / u^T Q u over u >= 0
    (`_q_product`): 7 * 4**L * c . u at the minimizer u of u^T Q u / 2 - c . u
    over u >= 0, attained at sigma * u for the signs sigma of h. Solve on the
    support of c and drop the entries <= 0 until none is left. That is exact:
    u is 0 where c is, and on an S holding its support, u = z + M w_S for the
    solve z on S, w = Q u - c >= 0 and M = (Q_SS)^-1, which is <= 0 off the
    diagonal (node by node A^-1 = B^-1 - w B^-1 1 1^T B^-1 / (1 + w 1^T B^-1 1)
    with A^-1 1 >= 0); where u > 0, w = 0 and z >= u > 0. The last z > 0
    minimizes over the steps supported in S, u among them, so it is u, and
    Lawson-Hanson would find no index to add. Every call checks `nonneg`,
    `stationary` ((Q u)_i = c_i where u_i > 0) and `dual_feasible`
    ((Q u)_i >= c_i elsewhere) on the int lattice, and `attained`
    (lower_sq * tnorm_sq = pairing_sq: the program's value is what the
    kernel measures on the maximizer), through `checks.require`.

    L < level(h) raises ValueError. At L >= level(h) this is the full dual
    norm of h: the conditional expectation onto the level-L cells keeps
    <f, h> and does not increase T(f) (Jensen on the cells of level <= L,
    Cauchy-Schwarz on the finer ones).
    """
    if L < h.level:
        raise ValueError(f"dual-norm level L = {L} is below the level {h.level} of h")
    hL = dyadic_project(h, L)
    nums, den = hL.masses(L), hL.den
    c = list(map(abs, nums))
    S = [x > 0 for x in c]
    U, E = _support_solve(L, c, S)
    solves = 1
    while not all(x > 0 for x, s in zip(U, S) if s):
        S = [x > 0 for x in U]
        U, E = _support_solve(L, c, S)
        solves += 1
    # u = U / E solves the program for the projection's numerators c, over den
    f_star = from_lattice(L, [x if n > 0 else -x for x, n in zip(U, nums)], E * den)
    p, t = pairing(f_star, h), tnorm_sq(f_star)
    value = Fraction(7 * sum(map(mul, c, U)) << 2 * L, E * den * den)
    # E * (Q u - c): zero on the support, nonnegative off it
    slack = [y - E * x for x, y in zip(c, _q_product(L, U))]
    checks = require("dual norm", {
        "nonneg": check(min(U), ">=", 0),
        "stationary": check(max((abs(r) for r, x in zip(slack, U) if x), default=0), "==", 0),
        "dual_feasible": check(min((r for r, x in zip(slack, U) if not x), default=0), ">=", 0),
        "attained": check(value * t, "==", p * p),
    })
    return DualNormEstimate(value, f_star, p * p, t, solves, checks)
