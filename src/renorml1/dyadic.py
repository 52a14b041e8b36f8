"""Exact calculus of dyadic step functions on [0, 1).

A step function is stored densely at a fixed level K, one entry per cell
I(K, j) = [(j-1)/2**K, j/2**K), j = 1..2**K. Public values and every
returned scalar are ``fractions.Fraction`` (always reduced, positive
denominator); no float ever enters a computation. Floats appear only in
clearly labelled rendering helpers.

Every step holds only its reduced int lattice, `nums` over their least
common denominator `den`: constructors reduce to it once, the kernels add
and multiply the numerators, and `values` or one `Fraction` per returned
scalar converts back at the boundary.

Two step functions are equal iff their refinements to a common level have
identical values, so the representation level is not part of the identity
of a function.

`mass_levels(masses)` is the one fold: every computation of cell integrals
across levels (norm series, the dual norm's Q product, witness split
checks, projections, weak smallness) hands it an int mass list of one
level and reads the coarser levels from it, one at a time, over the
caller's denominator (`den << level` for a step's own numerators).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from typing import Iterator, NamedTuple, Optional, Sequence

#: Dense storage cap: no step function may live at a level above this.
MAX_LEVEL = 20


class LevelOverflowError(ValueError):
    """A construction would exceed MAX_LEVEL (2**MAX_LEVEL cells)."""


def to_frac(x) -> Fraction:
    """Coerce int / Fraction / 'p/q' string to Fraction. Floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"exact rational required, got {type(x).__name__}: {x!r}")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"denominator is 0 in rational {x!r}") from None


def frac_str(x: Fraction) -> str:
    """Canonical 'p/q' rendering (denominator always explicit)."""
    return f"{x.numerator}/{x.denominator}"


def decimal_str(x: Fraction, digits: int = 12) -> str:
    """Decimal string of x >= 0, truncated to `digits` fractional digits."""
    if x < 0:
        raise ValueError("negative argument")
    scaled = (x.numerator * 10**digits) // x.denominator
    if digits == 0:
        return str(scaled)
    ip, fp = divmod(scaled, 10**digits)
    return f"{ip}.{fp:0{digits}d}"


def sqrt_floor_decimal(x: Fraction, digits: int = 12) -> str:
    """Decimal string of sqrt(x), truncated to `digits` fractional digits.

    Exact integer arithmetic; deterministic (no rounding mode involved).
    """
    if x < 0:
        raise ValueError("negative argument")
    scaled = (x.numerator * 10 ** (2 * digits)) // x.denominator
    s = isqrt(scaled)
    if digits == 0:
        return str(s)
    ip, fp = divmod(s, 10**digits)
    return f"{ip}.{fp:0{digits}d}"


class DyadicIndex(NamedTuple):
    """The dyadic cell I(k, j) = [(j-1)/2**k, j/2**k), with 1-based j."""

    k: int
    j: int

    def validate(self) -> "DyadicIndex":
        for x in self:
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"cell index entries must be integers, got {x!r}")
        if self.k < 0:
            raise ValueError(f"dyadic level must be >= 0, got {self.k}")
        if not (self.j >= 1 and (self.j - 1) >> self.k == 0):  # 1 << k could be huge
            raise ValueError(f"cell position {self.j} out of range 1..2**{self.k}")
        return self

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 1 << self.k)

    @property
    def left(self) -> Fraction:
        return Fraction(self.j - 1, 1 << self.k)

    @property
    def right(self) -> Fraction:
        return Fraction(self.j, 1 << self.k)

    def contains(self, other: "DyadicIndex") -> bool:
        """True iff `other` is a (not necessarily proper) subcell of self."""
        if other.k < self.k:
            return False
        return (other.j - 1) >> (other.k - self.k) == self.j - 1

    def overlaps(self, other: "DyadicIndex") -> bool:
        return self.contains(other) or other.contains(self)


def as_index(idx) -> DyadicIndex:
    if isinstance(idx, DyadicIndex):
        return idx.validate()
    k, j = idx
    return DyadicIndex(k, j).validate()


@dataclass(frozen=True, eq=False, init=False)
class DyadicStep:
    """A rational-valued step function constant on the level-`level` cells:
    the value on cell i is Fraction(nums[i], den), den the least common
    denominator of the values."""

    level: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, level: int, values):
        ratios = [to_frac(v).as_integer_ratio() for v in values]
        _check_shape(level, len(ratios))
        den = lcm(*{d for _, d in ratios})
        _set(self, level, tuple([n * (den // d) for n, d in ratios]), den)

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The cell values as Fractions; each distinct numerator is reduced once."""
        frac = {n: Fraction(n, self.den) for n in set(self.nums)}
        return tuple(map(frac.__getitem__, self.nums))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c) -> "DyadicStep":
        return DyadicStep(0, (c,))

    @staticmethod
    def zero(level: int = 0) -> "DyadicStep":
        _check_level(level)
        return _new(level, (0,) * (1 << level), 1)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicStep):
            return NotImplemented
        L = max(self.level, other.level)
        return self.den == other.den and lattice(self, L)[0] == lattice(other, L)[0]

    def __hash__(self) -> int:
        c = canonical(self)
        return hash((c.level, c.nums, c.den))

    def __repr__(self) -> str:
        body = ", ".join(
            str(v.numerator) if v.denominator == 1 else frac_str(v)
            for v in self.values
        )
        return f"step({self.level}; {body})"

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- vector-space sugar (exact) -----------------------------------------

    def __add__(self, other: "DyadicStep") -> "DyadicStep":
        return lin_comb(1, self, 1, other)

    def __sub__(self, other: "DyadicStep") -> "DyadicStep":
        return lin_comb(1, self, -1, other)

    def __neg__(self) -> "DyadicStep":
        return _new(self.level, tuple([-n for n in self.nums]), self.den)

    def __mul__(self, c) -> "DyadicStep":
        # nums and den are coprime, so one gcd of two ints reduces the product
        cn, cd = to_frac(c).as_integer_ratio()
        g = gcd(cn * gcd(*self.nums), cd * self.den)
        return _new(self.level, tuple([cn * n // g for n in self.nums]), cd * self.den // g)

    __rmul__ = __mul__

    def __abs__(self) -> "DyadicStep":
        return _new(self.level, tuple(map(abs, self.nums)), self.den)


def _set(f: DyadicStep, level: int, nums: tuple, den: int) -> None:
    object.__setattr__(f, "level", level)
    object.__setattr__(f, "nums", nums)
    object.__setattr__(f, "den", den)


def _new(level: int, nums: tuple, den: int) -> DyadicStep:
    """The step with numerators `nums` over `den`, which is already their
    least common denominator; nothing is checked."""
    f = object.__new__(DyadicStep)
    _set(f, level, nums, den)
    return f


def _check_level(level: int) -> None:
    """A level in 0..MAX_LEVEL, checked before anything of its size is built."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level > MAX_LEVEL:
        raise LevelOverflowError(f"level {level} exceeds cap {MAX_LEVEL}")


def _check_shape(level: int, count: int) -> None:
    """A level in 0..MAX_LEVEL and one value per level-`level` cell."""
    _check_level(level)
    if count != (1 << level):
        raise ValueError(f"need 2**{level} = {1 << level} values, got {count}")


def _repeat(xs: tuple, rep: int) -> tuple:
    """Each entry of xs repeated `rep` times in place (a refinement)."""
    return xs if rep == 1 else tuple(chain.from_iterable(repeat(x, rep) for x in xs))


def indicator(idx, scale=1) -> DyadicStep:
    """scale * 1_{I(k,j)} as a level-k step function."""
    idx = as_index(idx)
    _check_level(idx.k)
    n, d = to_frac(scale).as_integer_ratio()
    nums = [0] * (1 << idx.k)
    nums[idx.j - 1] = n
    return from_lattice(idx.k, nums, d)


class Norms(NamedTuple):
    l1: Fraction
    linf: Fraction


# -- core operations ---------------------------------------------------------


def refine(f: DyadicStep, new_level: int) -> DyadicStep:
    """Re-express f on the level-`new_level` grid (same function)."""
    if new_level < f.level:
        raise ValueError(f"cannot refine level {f.level} down to {new_level}")
    if new_level > MAX_LEVEL:
        raise LevelOverflowError(f"level {new_level} exceeds cap {MAX_LEVEL}")
    if new_level == f.level:
        return f
    return _new(new_level, _repeat(f.nums, 1 << (new_level - f.level)), f.den)


def canonical(f: DyadicStep) -> DyadicStep:
    """The coarsest representation of f (merge equal sibling cells)."""
    level, nums = f.level, f.nums
    while level > 0 and nums[::2] == nums[1::2]:
        nums, level = nums[::2], level - 1
    return _new(level, nums, f.den)


def lattice(f: DyadicStep, level: Optional[int] = None) -> tuple[tuple[int, ...], int]:
    """(nums, den) of f; with `level`, the numerators are refined to that
    level (each repeated per subcell)."""
    return _repeat(f.nums, 1 << ((f.level if level is None else level) - f.level)), f.den


def from_lattice(level: int, nums, den: int) -> DyadicStep:
    """The step function with values Fraction(nums[i], den), reduced to the
    least common denominator of its values."""
    _check_shape(level, len(nums))
    if den == 0:
        raise ZeroDivisionError(f"denominator is 0 in lattice of level {level}")
    g = gcd(den, *set(nums))
    if den < 0:
        g = -g
    nums = tuple(nums) if g == 1 else tuple([n // g for n in nums])
    return _new(level, nums, den // g)


def lin_comb(a, f: DyadicStep, b, g: DyadicStep) -> DyadicStep:
    """Pointwise a*f + b*g at the common refined level."""
    (an, ad), (bn, bd) = to_frac(a).as_integer_ratio(), to_frac(b).as_integer_ratio()
    L = max(f.level, g.level)
    (nf, df), (ng, dg) = lattice(f, L), lattice(g, L)
    den = lcm(ad * df, bd * dg)
    p, q = an * (den // (ad * df)), bn * (den // (bd * dg))
    return from_lattice(L, [p * x + q * y for x, y in zip(nf, ng)], den)


def decompose(f: DyadicStep) -> tuple[DyadicStep, DyadicStep, DyadicStep]:
    """(|f|, positive part, negative part); f = pos - neg, |f| = pos + neg."""
    pos = [n if n > 0 else 0 for n in f.nums]
    neg = [-n if n < 0 else 0 for n in f.nums]
    return abs(f), from_lattice(f.level, pos, f.den), from_lattice(f.level, neg, f.den)


def integral_over(f: DyadicStep, idx) -> Fraction:
    """Exact integral of f over the dyadic cell I(k, j), k above or below
    f's level. Past MAX_LEVEL no storage is involved, but the result's
    denominator has k bits."""
    k, j = as_index(idx)
    if k >= f.level:
        return Fraction(f.nums[(j - 1) >> (k - f.level)], f.den << k)
    span = 1 << (f.level - k)
    lo = (j - 1) * span
    return Fraction(sum(f.nums[lo : lo + span]), f.den << f.level)


def norms(f: DyadicStep) -> Norms:
    """(l1, linf) of f, exactly."""
    nums, den = lattice(f)
    absolute = list(map(abs, nums))
    return Norms(Fraction(sum(absolute), den << f.level), Fraction(max(absolute), den))


def pairing(f: DyadicStep, h: DyadicStep) -> Fraction:
    """Exact duality bracket <f, h> = integral of f*h over [0, 1)."""
    L = max(f.level, h.level)
    (nf, df), (nh, dh) = lattice(f, L), lattice(h, L)
    return Fraction(sum(map(mul, nf, nh)), df * dh << L)


def dyadic_project(f: DyadicStep, K: int) -> DyadicStep:
    """Conditional expectation of f onto the level-K dyadic algebra.

    Replaces f by its cell averages at level K; preserves every integral
    over cells of level <= K and is idempotent.
    """
    if K < 0:
        raise ValueError(f"level must be >= 0, got {K}")
    if K >= f.level:
        return refine(f, K)
    # a level-K cell average is 2**K times its mass, which is over den << f.level
    masses = next(islice(mass_levels(f.nums), f.level - K, None))
    return from_lattice(K, masses, f.den << f.level - K)


def reflect(f: DyadicStep) -> DyadicStep:
    """The function t -> f(1-t) on the dyadic grid (values reversed)."""
    return _new(f.level, f.nums[::-1], f.den)


def fold_masses(masses: list) -> list:
    """One level up: pairwise sums (each parent cell is the disjoint union
    of its two children, so masses add)."""
    return list(map(add, masses[::2], masses[1::2]))


def mass_levels(masses: Sequence[int]) -> Iterator[Sequence[int]]:
    """`masses`, int masses of the cells of one level over some denominator
    D, then the masses of each coarser level down to the single cell [0, 1),
    over the same D (folding only adds masses). The first item is `masses`
    itself."""
    yield masses
    while len(masses) > 1:
        masses = fold_masses(masses)
        yield masses


def abs_diff_masses(f: DyadicStep, g: DyadicStep) -> tuple[int, int, list[int]]:
    """(L, D, masses): D times the masses of |f - g| on the level-L cells,
    L the finer of the two levels, from the lattices of f and g over the lcm
    of their denominators, without building the step f - g."""
    L = max(f.level, g.level)
    (nf, df), (ng, dg) = lattice(f, L), lattice(g, L)
    d = lcm(df, dg)
    nf, ng = (ns if d == dn else [x * (d // dn) for x in ns] for ns, dn in ((nf, df), (ng, dg)))
    return L, d << L, list(map(abs, map(sub, nf, ng)))


# -- JSON wire format ---------------------------------------------------------
#
#   {"level": K, "values": ["p/q", ...]}   with exactly 2**K entries.


def step_to_json(f: DyadicStep) -> dict:
    """The wire form of f; each distinct numerator is rendered once."""
    text = {n: frac_str(Fraction(n, f.den)) for n in set(f.nums)}
    return {"level": f.level, "values": list(map(text.__getitem__, f.nums))}


def step_from_json(obj) -> DyadicStep:
    if not isinstance(obj, dict) or "level" not in obj or "values" not in obj:
        raise ValueError("step function JSON needs 'level' and 'values' keys")
    level = obj["level"]
    if not isinstance(level, int) or isinstance(level, bool):
        raise ValueError(f"'level' must be an integer, got {level!r}")
    raw = obj["values"]
    if not isinstance(raw, list):
        raise ValueError("'values' must be a list of rational strings")
    _check_shape(level, len(raw))  # checks the level before it computes 1 << level
    return DyadicStep(level, raw)
