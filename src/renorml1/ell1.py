"""Octahedrality and near-isometric l1 structure in the *canonical* l1 norm.

Everything in this module works with ||.||_1 on [0, 1): a fresh direction
nearly l1-orthogonal to a finite set of step functions is a tall spike on a
short leading cell, families of such spikes realize the two-sided l1 bounds

    sum (1 - d_k) |a_k|  <=  || sum a_k x_k ||_1  <=  sum |a_k|,

and for disjoint supports the sign patterns +1/+1 and -1/+1 on odd/even
supports give two sup-norm-one functionals a distance 2 apart whose midpoint
still has norm one.

Greedy families stack spikes on nested leading cells whose levels grow fast;
members are therefore kept as sparse `Spike` records (level, cell, height)
rather than dense arrays, and norms of combinations are evaluated exactly on
the piecewise-constant breakpoint structure. `Spike.as_step()` materializes
a dense step function whenever the level fits under the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from .checks import check, require
from .dyadic import (
    MAX_LEVEL,
    DyadicIndex,
    DyadicStep,
    LevelOverflowError,
    _shown,
    frac_str,
    indicator,
    norms,
    pairing,
    steps_to_json,
    to_frac,
)


class ScheduleInfeasibleError(ValueError):
    """The shrink-factor products cannot clear 1 - delta_k."""


class CapacityError(ValueError):
    """Fewer level-K cells than requested family members."""


@dataclass(frozen=True)
class Spike:
    """height * 1_{I(level, index)}: a step function with one nonzero cell."""

    level: int
    index: int  # 1-based cell position
    height: Fraction

    def __post_init__(self):
        object.__setattr__(self, "height", to_frac(self.height))
        if self.level < 0 or not 1 <= self.index <= (1 << self.level):
            raise ValueError(f"bad spike support ({self.level}, {self.index})")

    @property
    def support(self) -> DyadicIndex:
        return DyadicIndex(self.level, self.index)

    @property
    def l1(self) -> Fraction:
        return abs(self.height) / (1 << self.level)

    def as_step(self) -> DyadicStep:
        if self.level > MAX_LEVEL:
            raise LevelOverflowError(
                f"spike level {self.level} exceeds dense cap {MAX_LEVEL}"
            )
        return indicator(self.support, self.height)

    def to_json(self) -> dict:
        return {"level": self.level, "index": self.index, "height": frac_str(self.height)}


@dataclass(frozen=True)
class SpikeFamily:
    members: tuple[Spike, ...]
    deltas: tuple[Fraction, ...]
    supports: Optional[tuple[DyadicIndex, ...]]  # present for disjoint families
    eps_schedule: Optional[tuple[Fraction, ...]] = None  # present for greedy ones

    def __len__(self) -> int:
        return len(self.members)

    def to_json(self) -> dict:
        return {
            "deltas": [frac_str(d) for d in self.deltas],
            "members": [s.to_json() for s in self.members],
            "supports": None
            if self.supports is None
            else [[i.k, i.j] for i in self.supports],
            "eps_schedule": None
            if self.eps_schedule is None
            else [frac_str(e) for e in self.eps_schedule],
        }


def combo_l1(members: Sequence[Spike], alphas: Sequence) -> Fraction:
    """Exact ||sum_k alphas[k] * members[k]||_1 via breakpoint decomposition."""
    if len(members) != len(alphas):
        raise ValueError("one coefficient per member required")
    alphas = [to_frac(a) for a in alphas]
    cuts = {Fraction(0), Fraction(1)}
    for s in members:
        cuts.add(s.support.left)
        cuts.add(s.support.right)
    pts = sorted(cuts)
    total = Fraction(0)
    for a, b in zip(pts, pts[1:]):
        val = Fraction(0)
        for alpha, s in zip(alphas, members):
            if s.support.left <= a and b <= s.support.right:
                val += alpha * s.height
        total += abs(val) * (b - a)
    return total


def _direction_level(max_member_level: int, eps: Fraction) -> int:
    # ceil(log2(1/eps)): the smallest c >= 0 with 2**c >= ceil(1/eps)
    return max_member_level + 1 + (-(-eps.denominator // eps.numerator) - 1).bit_length()


def octahedral_direction(E: Sequence[DyadicStep], eps) -> DyadicStep:
    """A unit vector y with ||x + a*y||_1 >= (1-eps)(||x||_1 + |a|) for every
    x in span(E) and every scalar a.

    y = 2**K * 1_{I(K,1)} with K = L + 1 + ceil(log2(1/eps)), L the largest
    level in E: the leading cell is so short that any x in span(E) has at
    most eps/2 * ||x||_1 of its mass there. For empty E any unit vector
    works; the constant function is returned.
    """
    eps = to_frac(eps)
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if not E:
        return DyadicStep.constant(1)
    K = _direction_level(max(f.level for f in E), eps)
    if K > MAX_LEVEL:
        raise LevelOverflowError(f"direction level {K} exceeds cap {MAX_LEVEL}")
    return indicator(DyadicIndex(K, 1), 1 << K)


def check_product_condition(eps: Sequence, deltas: Sequence, m: int) -> None:
    """Verify prod_{i=k..m} (1 - eps_i) > 1 - deltas[k-1] for every k <= m.

    Raises ScheduleInfeasibleError naming the first failing k. Products over
    shorter suffixes are larger, so checking the full suffix per k suffices.
    """
    deltas = [to_frac(d) for d in deltas]
    suffixes = list(accumulate((1 - to_frac(eps[i - 1]) for i in range(m, 0, -1)), Fraction.__mul__))[::-1]
    for k, prod in enumerate(suffixes, start=1):
        if prod <= 1 - deltas[k - 1]:
            raise ScheduleInfeasibleError(
                f"k = {k}: prod_(i={k}..{m}) (1-eps_i) = {frac_str(prod)} "
                f"<= 1 - delta_{k} = {frac_str(1 - deltas[k - 1])}"
            )


def _checked_deltas(deltas: Sequence, m: int) -> list[Fraction]:
    """deltas as Fractions, after checking m >= 1 and that the first m lie in (0, 1)."""
    deltas = [to_frac(d) for d in deltas]
    if m < 1:
        raise ValueError("need m >= 1 members")
    if len(deltas) < m:
        raise ValueError(f"need at least m = {m} deltas, got {len(deltas)}")
    for d in deltas[:m]:
        if not 0 < d < 1:
            raise ValueError(f"deltas must lie in (0, 1), got {_shown(str(d))}")
    return deltas


def greedy_asymptotic_ell1(deltas: Sequence, m: int) -> SpikeFamily:
    """Stack m spikes on nested leading cells so the l1 lower bound holds
    with coefficients 1 - deltas[k].

    The shrink schedule is eps_i = min(deltas[:i]) * 2**-(i+1); the finite
    product conditions prod_{i=k..m} (1 - eps_i) > 1 - deltas[k-1] are
    verified exactly for every k and a failure names the offending k.
    """
    deltas = _checked_deltas(deltas, m)
    for a, b in zip(deltas, deltas[1:m]):
        if b > a:
            raise ValueError("deltas must be non-increasing")

    # min(deltas[:i]) is deltas[i - 1]: they do not increase
    eps = [deltas[i - 1] * Fraction(1, 1 << (i + 1)) for i in range(1, m + 1)]
    check_product_condition(eps, deltas, m)

    spikes = [Spike(0, 1, Fraction(1))]
    for k in range(2, m + 1):
        K = _direction_level(spikes[-1].level, eps[k - 1])
        spikes.append(Spike(K, 1, Fraction(1 << K)))
    return SpikeFamily(tuple(spikes), tuple(deltas[:m]), None, tuple(eps))


def disjoint_spike_family(deltas: Sequence, m: int, K: int) -> SpikeFamily:
    """x_k = (1 - deltas[k]) * 2**K * 1_{I(K, k)}: disjoint supports, exact
    l1 lower bound with equality."""
    deltas = _checked_deltas(deltas, m)
    if K < 0 or K > MAX_LEVEL:
        raise LevelOverflowError(f"level {K} out of range 0..{MAX_LEVEL}")
    if (1 << K) < m:
        raise CapacityError(f"2**{K} cells cannot host {m} disjoint members")
    spikes = tuple(
        Spike(K, k, (1 - deltas[k - 1]) * (1 << K)) for k in range(1, m + 1)
    )
    supports = tuple(DyadicIndex(K, k) for k in range(1, m + 1))
    return SpikeFamily(spikes, tuple(deltas[:m]), supports)


@dataclass(frozen=True)
class EllOneBounds:
    lower: Fraction
    value: Fraction
    upper: Fraction

    @property
    def ok(self) -> bool:
        return self.lower <= self.value <= self.upper


def ell1_bounds(family: SpikeFamily, alphas: Sequence) -> EllOneBounds:
    """Evaluate sum (1-d_k)|a_k| <= ||sum a_k x_k||_1 <= sum |a_k| exactly."""
    alphas = [to_frac(a) for a in alphas]
    lower = sum(
        ((1 - d) * abs(a) for d, a in zip(family.deltas, alphas)), Fraction(0)
    )
    upper = sum((abs(a) for a in alphas), Fraction(0))
    value = combo_l1(family.members, alphas)
    return EllOneBounds(lower, value, upper)


@dataclass(frozen=True)
class DualPair:
    """Sign-pattern functionals on a disjoint family: +1 everywhere vs
    -1 on odd supports / +1 on even ones.

    linf(xstar) = linf(ystar) = linf((xstar+ystar)/2) = 1 and
    linf(xstar - ystar) = 2; pairings[k] = (<x_k, xstar>, <x_k, ystar>).
    """

    xstar: DyadicStep
    ystar: DyadicStep
    pairings: tuple[tuple[Fraction, Fraction], ...]

    def to_json(self) -> dict:
        xstar, ystar = steps_to_json(self.xstar, self.ystar)
        return {
            "xstar": xstar,
            "ystar": ystar,
            "pairings": [[frac_str(a), frac_str(b)] for a, b in self.pairings],
        }


def dual_segment(family: SpikeFamily) -> DualPair:
    """Build and exactly verify the length-2 segment data on the dual side."""
    if family.supports is None:
        raise ValueError("dual segment needs a disjoint family (missing supports)")
    m = len(family)
    if m < 2:
        raise ValueError("dual segment needs at least two members")
    K = family.supports[0].k
    xv = [Fraction(0)] * (1 << K)
    yv = [Fraction(0)] * (1 << K)
    for pos, idx in enumerate(family.supports, start=1):
        xv[idx.j - 1] = Fraction(1)
        yv[idx.j - 1] = Fraction(1) if pos % 2 == 0 else Fraction(-1)
    xstar = DyadicStep(K, tuple(xv))
    ystar = DyadicStep(K, tuple(yv))

    mid = Fraction(1, 2) * (xstar + ystar)
    checks = {
        "xstar": check(norms(xstar).linf, "==", 1),
        "ystar": check(norms(ystar).linf, "==", 1),
        "midpoint": check(norms(mid).linf, "==", 1),
        "difference": check(norms(xstar - ystar).linf, "==", 2),
    }
    rows = []
    for pos, (s, d) in enumerate(zip(family.members, family.deltas), start=1):
        step = s.as_step()
        px, py = pairing(step, xstar), pairing(step, ystar)
        checks[f"<x_{pos}, xstar>"] = check(px, "==", 1 - d)
        checks[f"<x_{pos}, ystar>"] = check(py, "==", (1 - d) if pos % 2 == 0 else d - 1)
        rows.append((px, py))
    require("dual segment", checks)
    return DualPair(xstar, ystar, tuple(rows))


@dataclass(frozen=True)
class NonsmoothReport:
    """Pairing shadows of the two distinct norming elements on member pairs.

    rows[i] = (pair index i, <x_{2i-1}, ystar>, <x_{2i}, ystar>, gap) with
    gap = <x_{2i} - x_{2i-1}, ystar> = 2 - d_{2i} - d_{2i-1}.
    """

    rows: tuple[tuple[int, Fraction, Fraction, Fraction], ...]

    @property
    def gaps(self) -> tuple[Fraction, ...]:
        return tuple(r[3] for r in self.rows)

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "pair": i,
                    "odd_pairing": frac_str(a),
                    "even_pairing": frac_str(b),
                    "gap": frac_str(g),
                }
                for i, a, b, g in self.rows
            ]
        }


def nonsmooth_pairings(family: SpikeFamily, pair: DualPair) -> NonsmoothReport:
    """Tabulate the odd/even pairing pattern and the per-pair gaps."""
    rows = []
    m = len(family)
    for i in range(1, m // 2 + 1):
        odd, even = 2 * i - 1, 2 * i
        a = pair.pairings[odd - 1][1]
        b = pair.pairings[even - 1][1]
        want = 2 - family.deltas[even - 1] - family.deltas[odd - 1]
        require("nonsmooth pairings", {f"gap {i}": check(b - a, "==", want)})
        rows.append((i, a, b, b - a))
    return NonsmoothReport(tuple(rows))
