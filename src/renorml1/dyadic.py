"""Exact calculus of dyadic step functions on [0, 1).

A step function is stored densely at a fixed level K: a tuple of 2**K
rational values, one per cell I(K, j) = [(j-1)/2**K, j/2**K), j = 1..2**K.
Public values and every returned scalar are ``fractions.Fraction`` (always
reduced, positive denominator); no float ever enters a computation. Floats
appear only in clearly labelled rendering helpers.

Inside, the dense kernels compute on Python ints: `lattice` writes f's values
as integer numerators over their least common denominator, the kernels add
and multiply those numerators, and `from_lattice` (or one `Fraction` per
returned scalar) reduces back to Fractions at the boundary.

A step the kernel builds (`from_lattice`, and through it `*`, `+`, `-` and
`lin_comb`) keeps its numerators, so `lattice` and `step_to_json` read
them instead of converting its values again. A step built from Fractions
(user input, `DyadicStep(level, values)`) keeps none: `lattice` converts it
on every call, on purpose, because remembering the numerators of every step
ever read would grow memory for steps that are read once.

Two step functions are equal iff their refinements to a common level have
identical values, so the representation level is not part of the identity
of a function.

`mass_levels` is the one mass-level kernel: every computation of the cell
integrals of f across levels (norm series, witness split checks,
projections, weak smallness) streams them from it, one level at a time, as
int numerators over one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, isqrt, lcm
from operator import add, mul, sub
from typing import Iterator, NamedTuple, Optional

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
        if self.k < 0:
            raise ValueError(f"dyadic level must be >= 0, got {self.k}")
        if not 1 <= self.j <= (1 << self.k):
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
    return DyadicIndex(int(k), int(j)).validate()


@dataclass(frozen=True, eq=False)
class DyadicStep:
    """A rational-valued step function constant on the level-`level` cells."""

    level: int
    values: tuple[Fraction, ...]

    #: (nums, den) of a kernel-built step (see `lattice`); None otherwise
    _lattice = None

    def __post_init__(self):
        vals = tuple(map(to_frac, self.values))
        _check_shape(self.level, len(vals))
        object.__setattr__(self, "values", vals)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c) -> "DyadicStep":
        return DyadicStep(0, (to_frac(c),))

    @staticmethod
    def zero(level: int = 0) -> "DyadicStep":
        return DyadicStep(level, (Fraction(0),) * (1 << level))

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicStep):
            return NotImplemented
        L = max(self.level, other.level)
        return refine(self, L).values == refine(other, L).values

    def __hash__(self) -> int:
        c = canonical(self)
        return hash((c.level, c.values))

    def __repr__(self) -> str:
        body = ", ".join(
            str(v.numerator) if v.denominator == 1 else frac_str(v)
            for v in self.values
        )
        return f"step({self.level}; {body})"

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    # -- vector-space sugar (exact) -----------------------------------------

    def __add__(self, other: "DyadicStep") -> "DyadicStep":
        return lin_comb(1, self, 1, other)

    def __sub__(self, other: "DyadicStep") -> "DyadicStep":
        return lin_comb(1, self, -1, other)

    def __neg__(self) -> "DyadicStep":
        return DyadicStep(self.level, tuple(-v for v in self.values))

    def __mul__(self, c) -> "DyadicStep":
        cn, cd = to_frac(c).as_integer_ratio()
        nums, den = lattice(self)
        return from_lattice(self.level, [cn * n for n in nums], cd * den)

    __rmul__ = __mul__

    def __abs__(self) -> "DyadicStep":
        return DyadicStep(self.level, tuple(abs(v) for v in self.values))


def _check_shape(level: int, count: int) -> None:
    """A level in 0..MAX_LEVEL and one value per level-`level` cell."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level > MAX_LEVEL:
        raise LevelOverflowError(f"level {level} exceeds cap {MAX_LEVEL}")
    if count != (1 << level):
        raise ValueError(f"need 2**{level} = {1 << level} values, got {count}")


def _kernel_step(level: int, values: tuple, lat) -> DyadicStep:
    """A step from values that are already reduced Fractions, one per cell,
    without the per-value coercion of `DyadicStep`; `lat` is their
    (nums, den) lattice, or None."""
    f = object.__new__(DyadicStep)
    object.__setattr__(f, "level", level)
    object.__setattr__(f, "values", values)
    object.__setattr__(f, "_lattice", lat)
    return f


def _repeat(xs: tuple, rep: int) -> tuple:
    """Each entry of xs repeated `rep` times in place (a refinement)."""
    return xs if rep == 1 else tuple(chain.from_iterable(repeat(x, rep) for x in xs))


def indicator(idx, scale=1) -> DyadicStep:
    """scale * 1_{I(k,j)} as a level-k step function."""
    idx = as_index(idx)
    vals = [Fraction(0)] * (1 << idx.k)
    vals[idx.j - 1] = to_frac(scale)
    return DyadicStep(idx.k, tuple(vals))


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
    rep = 1 << (new_level - f.level)
    return _kernel_step(new_level, _repeat(f.values, rep), None)


def canonical(f: DyadicStep) -> DyadicStep:
    """The coarsest representation of f (merge equal sibling cells)."""
    level, vals = f.level, f.values
    while level > 0 and all(vals[2 * i] == vals[2 * i + 1] for i in range(len(vals) // 2)):
        vals = tuple(vals[2 * i] for i in range(len(vals) // 2))
        level -= 1
    return DyadicStep(level, vals)


def lattice(f: DyadicStep, level: Optional[int] = None) -> tuple[tuple[int, ...], int]:
    """(nums, den): f's values as int numerators over their least common
    denominator, values[i] == Fraction(nums[i], den); with `level`, the
    numerators are refined to that level (each repeated per subcell).

    A kernel-built step hands out the numerators it keeps; any other step
    is converted on each call."""
    if f._lattice is None:
        ratios = [v.as_integer_ratio() for v in f.values]
        den = lcm(*{d for _, d in ratios})
        nums = tuple([n * (den // d) for n, d in ratios])
    else:
        nums, den = f._lattice
    return _repeat(nums, 1 << ((f.level if level is None else level) - f.level)), den


def from_lattice(level: int, nums, den: int) -> DyadicStep:
    """The step function with values Fraction(nums[i], den); each distinct
    numerator is reduced once. The step keeps the numerators, reduced to
    the least common denominator of its values."""
    _check_shape(level, len(nums))
    frac = {n: Fraction(n, den) for n in set(nums)}
    values = tuple(map(frac.__getitem__, nums))
    g = gcd(den, *frac) if den > 0 else -gcd(den, *frac)
    nums = tuple(nums) if g == 1 else tuple([n // g for n in nums])
    return _kernel_step(level, values, (nums, den // g))


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
    zero = Fraction(0)
    pos = tuple(v if v > 0 else zero for v in f.values)
    neg = tuple(-v if v < 0 else zero for v in f.values)
    return (
        DyadicStep(f.level, tuple(abs(v) for v in f.values)),
        DyadicStep(f.level, pos),
        DyadicStep(f.level, neg),
    )


def integral_over(f: DyadicStep, idx) -> Fraction:
    """Exact integral of f over the dyadic cell I(k, j).

    k may lie above or below f's level; above MAX_LEVEL is fine, since no
    storage is involved.
    """
    k, j = as_index(idx)
    if k >= f.level:
        cell = (j - 1) >> (k - f.level)
        return f.values[cell] / (1 << k)
    span = 1 << (f.level - k)
    lo = (j - 1) * span
    return sum(f.values[lo : lo + span], Fraction(0)) / (1 << f.level)


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
    D, levels = mass_levels(f)
    # a level-K cell average is 2**K times its mass
    return from_lattice(K, next(islice(levels, f.level - K, None)), D >> K)


def reflect(f: DyadicStep) -> DyadicStep:
    """The function t -> f(1-t) on the dyadic grid (values reversed)."""
    return DyadicStep(f.level, tuple(reversed(f.values)))


def fold_masses(masses: list) -> list:
    """One level up: pairwise sums (each parent cell is the disjoint union
    of its two children, so masses add)."""
    return list(map(add, masses[::2], masses[1::2]))


def mass_levels(f: DyadicStep, absolute: bool = False) -> tuple[int, Iterator[list[int]]]:
    """(D, levels): cell masses of f (or |f|) level by level, from f.level
    down to 0, as int numerators over the one denominator D = den << f.level
    (den from `lattice`; folding only adds masses, so D holds at every
    level). The t-th list holds D times the integrals over the cells of
    level f.level - t."""
    nums, den = lattice(f)

    def levels(masses: list[int]) -> Iterator[list[int]]:
        yield masses
        for _ in range(f.level):
            masses = fold_masses(masses)
            yield masses

    return den << f.level, levels(list(map(abs, nums)) if absolute else nums)


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
    """The wire form of f; a kernel-built step renders each distinct kept
    numerator once, any other step each of its values."""
    if f._lattice is None:
        return {"level": f.level, "values": [frac_str(v) for v in f.values]}
    nums, den = f._lattice
    text = {n: frac_str(Fraction(n, den)) for n in set(nums)}
    return {"level": f.level, "values": list(map(text.__getitem__, nums))}


def step_from_json(obj) -> DyadicStep:
    if not isinstance(obj, dict) or "level" not in obj or "values" not in obj:
        raise ValueError("step function JSON needs 'level' and 'values' keys")
    level = obj["level"]
    if not isinstance(level, int) or isinstance(level, bool):
        raise ValueError(f"'level' must be an integer, got {level!r}")
    raw = obj["values"]
    if not isinstance(raw, list):
        raise ValueError("'values' must be a list of rational strings")
    if level < 0 or len(raw) != (1 << max(level, 0)):
        raise ValueError(
            f"'values' length {len(raw)} does not match 2**{level} entries"
        )
    return DyadicStep(level, tuple(to_frac(v) for v in raw))

