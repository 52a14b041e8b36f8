"""Finite probes of rotundity and diameter behaviour.

These are assertable, desk-scale stand-ins for statements whose full forms
quantify over sequences or the weak topology: midpoint convexity defects,
failure of strongly extreme points, one quantitative equi-integrability
inequality, weak-smallness at a chosen test depth, and slice-diameter lower
bounds driven by the witness machinery.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Optional, Sequence

from .checks import Check, check, require
from .dyadic import (
    MAX_LEVEL,
    DyadicStep,
    LevelOverflowError,
    _cell_integral,
    as_index,
    frac_str,
    lin_comb,
    mass_levels,
    norms,
    sqrt_floor_decimal,
    steps_to_json,
    to_frac,
)
from .renorm import tnorm_sq
from .witness import GapConditionError, WeakNbhd, WitnessReport, d2p_witness


def midpoint_defect(f: DyadicStep, g: DyadicStep) -> Fraction:
    """(T(f)**2 + T(g)**2)/2 - T((f+g)/2)**2, exact; >= 0, and 0 iff f = g."""
    mid = Fraction(1, 2) * (f + g)
    return (tnorm_sq(f) + tnorm_sq(g)) / 2 - tnorm_sq(mid)


@dataclass(frozen=True)
class ExtremeFailureWitness:
    """A unit-ball center with a fat two-sided perturbation.

    T(center +- u)**2 < 1 while l1(u) stays >= (1 - gamma) * l1(f) for the
    generating center f: the center cannot be a strongly extreme point.
    """

    center: DyadicStep
    u: DyadicStep
    ball_check_sq: tuple[Fraction, Fraction]
    l1_of_u: Fraction
    l1_floor: Fraction  # (1 - gamma) * l1(f) of the generating run
    report: WitnessReport

    def to_json(self) -> dict:
        center, u = steps_to_json(self.center, self.u)
        return {
            "center": center,
            "u": u,
            "ball_check_sq": [frac_str(x) for x in self.ball_check_sq],
            "l1_of_u": frac_str(self.l1_of_u),
            "l1_floor": frac_str(self.l1_floor),
        }


def strong_extreme_failure(nbhd: WeakNbhd, eps) -> ExtremeFailureWitness:
    """Build (center, u) = ((g1+g2)/2, (g1-g2)/2) from a witness run, each
    one combination of f1 and f2 (g_i = (1 - gamma) * f_i); center +- u are
    g1 and g2 exactly, so the witness's ball check is reused."""
    rep = d2p_witness(nbhd, eps)
    half = (1 - rep.gamma) / 2
    center = lin_comb(half, rep.pair.f1, half, rep.pair.f2)
    u = lin_comb(half, rep.pair.f1, -half, rep.pair.f2)
    l1_u = norms(u).l1
    floor = (1 - rep.gamma) * norms(nbhd.center).l1
    require("extreme probe", {"l1_floor": check(l1_u, ">=", floor)})
    return ExtremeFailureWitness(center, u, rep.ball_sq, l1_u, floor, rep)


@dataclass(frozen=True)
class ChainReport:
    """The required perturbation inequality, with its ingredients."""

    chain: Check  # (l1(f+g) + l1(f-g)) / 2 >= l1(f) + int_A |g| - 2 int_A |f|
    l1_sum: Fraction
    l1_diff: Fraction
    int_a_abs_g: Fraction
    int_a_abs_f: Fraction
    l1_f: Fraction

    lhs = property(attrgetter("chain.lhs"))
    rhs = property(attrgetter("chain.rhs"))
    ok = property(attrgetter("chain.ok"))

    def to_json(self) -> dict:
        return {
            "lhs": frac_str(self.lhs),
            "rhs": frac_str(self.rhs),
            "l1_sum": frac_str(self.l1_sum),
            "l1_diff": frac_str(self.l1_diff),
            "int_A_abs_g": frac_str(self.int_a_abs_g),
            "int_A_abs_f": frac_str(self.int_a_abs_f),
            "l1_f": frac_str(self.l1_f),
            "ok": self.ok,
        }


def perturbation_l1_chain(
    f: DyadicStep, g: DyadicStep, A: Sequence
) -> ChainReport:
    """Evaluate (l1(f+g) + l1(f-g))/2 >= l1(f) + int_A |g| - 2 int_A |f|.

    A is a disjoint list of dyadic indices of level <= MAX_LEVEL; a cell
    that is not a valid [k, j] raises ValueError naming 'A'. The
    inequality holds for every valid input (pointwise max(|f|,|g|) =
    (|f+g|+|f-g|)/2); a violation is a library bug.
    """
    try:
        cells = [as_index(idx) for idx in A]
    except (ValueError, TypeError) as exc:
        raise ValueError(f"'A' must list [k, j] cells: {exc}") from None
    for k, _ in cells:
        if k > MAX_LEVEL:
            raise LevelOverflowError(f"cell level {k} exceeds cap {MAX_LEVEL} in 'A'")
    # by left endpoint, coarser first: two dyadic cells overlap only when one
    # holds the other, so some cell starts inside the one just before it
    ranked = sorted(enumerate(cells), key=lambda ic: (ic[1].j - 1 << MAX_LEVEL - ic[1].k, ic[1].k))
    for (i, a), (j, b) in zip(ranked, ranked[1:]):
        if b.j - 1 << MAX_LEVEL - b.k < a.j << MAX_LEVEL - a.k:
            first, second = (a, b) if i < j else (b, a)
            raise ValueError(f"indices {tuple(first)} and {tuple(second)} overlap")
    af, ag = abs(f), abs(g)
    int_a_f = sum((_cell_integral(af, *idx) for idx in cells), Fraction(0))
    int_a_g = sum((_cell_integral(ag, *idx) for idx in cells), Fraction(0))
    l1_sum = norms(f + g).l1
    l1_diff = norms(f - g).l1
    l1_f = norms(f).l1
    chain = check((l1_sum + l1_diff) / 2, ">=", l1_f + int_a_g - 2 * int_a_f)
    require("perturbation chain", {"chain": chain})
    return ChainReport(chain, l1_sum, l1_diff, int_a_g, int_a_f, l1_f)


def weak_smallness(u: DyadicStep, depth: int) -> Fraction:
    """max over k <= depth, j <= 2**k of |int_{I(k,j)} u|, exact.

    A finite proxy for weak smallness tested against the dyadic family:
    mean-zero oscillation below the test depth scores 0 while l1 stays big.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    # levels min(depth, u.level) down to 0: a cell finer than u's grid holds
    # half its parent's integral, so deeper levels never score higher
    levels = mass_levels(u.masses(min(depth, u.level)))
    return Fraction(max(max(map(abs, masses)) for masses in levels), u.den << u.level)


@dataclass(frozen=True)
class SliceEntry:
    eps: Fraction
    gap_sq: Optional[Fraction]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def slice_diameter_lb(
    center: DyadicStep,
    functionals: Sequence[DyadicStep],
    delta,
    eps_schedule: Sequence,
) -> list[SliceEntry]:
    """Run the witness once per eps in the schedule; report T(g1-g2)**2.

    Entries fail individually (gap condition) without aborting the schedule.
    """
    nbhd = WeakNbhd(center, tuple(functionals), delta)
    out: list[SliceEntry] = []
    for eps in eps_schedule:
        eps = to_frac(eps)
        try:
            rep = d2p_witness(nbhd, eps)
        except GapConditionError as exc:
            out.append(SliceEntry(eps, None, str(exc)))
            continue
        require("slice probe", {"gap_sq": check(rep.gap_sq, "<=", 4)})
        out.append(SliceEntry(eps, rep.gap_sq))
    return out


def slice_csv(entries: Sequence[SliceEntry], float_digits: int = 12) -> str:
    """CSV rows (eps, gap_sq, gap_float); failed entries leave gaps empty."""
    buf = io.StringIO()
    buf.write("eps,gap_sq,gap_float\n")
    for e in entries:
        if e.ok:
            buf.write(
                f"{frac_str(e.eps)},{frac_str(e.gap_sq)},"
                f"{sqrt_floor_decimal(e.gap_sq, float_digits)}\n"
            )
        else:
            buf.write(f"{frac_str(e.eps)},,\n")
    return buf.getvalue()
