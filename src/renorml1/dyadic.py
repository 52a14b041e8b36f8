"""Exact calculus of dyadic step functions on [0, 1).

A step function of level N is constant on each cell
I(N, j) = [(j-1)/2**N, j/2**N), j = 1..2**N. It is stored as a periodic
lattice: on each cell of its coarse level L it repeats one motif of 2**w int
numerators `reps` = 2**r times, so N = L + r + w, and all numerators are over
their least common denominator `den`. A dense step is the case L = N and
reps = 1, one motif of one value per cell. The split of a center at level K
and its linear combinations have period level L + r = K: they cost 2**L
motifs, not 2**N cells. Public values and every returned scalar are
``fractions.Fraction`` (always reduced, positive denominator); no float ever
enters a computation. Floats appear only in clearly labelled rendering
helpers.

Constructors reduce to the lattice once, the kernels add and multiply the
numerators, and `values` or one `Fraction` per returned scalar converts back
at the boundary.

Two step functions are equal iff their refinements to a common level have
identical values, so neither the level nor the period is part of the
identity of a function. Every public function returns for a periodic step
what it returns for its dense expansion `dense()`. `masses(k)`, the one
cell reader, costs O(motifs + 2**k): above the period level the motifs fold
within themselves. Beyond `masses(level)`, only `values`, `canonical` and
combining steps of different shapes build all 2**level cells. The kernels read the lattice
through `masses(k)`, `level_squares()` and `blocks()`; `mass_levels` is the
one fold of int masses to coarser levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain, islice, repeat
from math import gcd, isqrt, lcm
from operator import add, mul
from typing import Iterator, NamedTuple, Optional, Sequence

#: Dense storage cap: no step function may live at a level above this.
MAX_LEVEL = 20

#: The most digits one integer of an input rational may have: Python's
#: default int-string limit, whatever limit the process sets.
MAX_INPUT_DIGITS = 4300


class LevelOverflowError(ValueError):
    """A construction would exceed MAX_LEVEL (2**MAX_LEVEL cells)."""


def to_frac(x) -> Fraction:
    """Coerce int / Fraction / 'p/q' string to Fraction. Floats are rejected,
    and so are strings in exponent notation: `Fraction` would build the power
    of ten before any range check, 10**300000000 for '1e300000000'. So are
    strings with more than MAX_INPUT_DIGITS digits on one side of a '/' or a
    '.'. Every error names a string by at most its first 24 characters."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"exact rational required, got {type(x).__name__}: {x!r}")
    if isinstance(x, str):
        plain = _plain_ratio(x)
        if plain is not None:
            return plain
        if "e" in x or "E" in x:
            raise ValueError(f"exponent notation is not a rational 'p/q': {_shown(x)!r}")
        if len(x) > MAX_INPUT_DIGITS and any(
            sum(map(str.isdecimal, part)) > MAX_INPUT_DIGITS for part in x.replace(".", "/").split("/")
        ):
            raise ValueError(f"more than {MAX_INPUT_DIGITS} digits in one integer of rational {_shown(x)!r}")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"denominator is 0 in rational {_shown(x)!r}") from None
    except ValueError:
        if not isinstance(x, str):
            raise
        raise ValueError(f"Invalid literal for Fraction: {_shown(x)!r}") from None


def _plain_ratio(text: str) -> Optional[Fraction]:
    """Fraction(text) for a plain 'p' or 'p/q' of ASCII digits, p with an
    optional '-', q nonzero and the whole within MAX_INPUT_DIGITS characters,
    read with two int() calls instead of Fraction's regex; None for every
    other string."""
    if len(text) > MAX_INPUT_DIGITS:
        return None
    p, slash, q = text.partition("/")
    digits = p[1:] if p[:1] == "-" else p
    if not (digits.isascii() and digits.isdigit()):
        return None
    if not slash:
        return Fraction(int(p))
    if not (q.isascii() and q.isdigit()) or not q.strip("0"):
        return None
    return Fraction(int(p), int(q))


def _shown(text: str) -> str:
    """`text` cut to 24 characters for an error message."""
    return text if len(text) <= 24 else text[:21] + "..."


def _int_str(n: int) -> str:
    """str(n), also past Python's int-string digit limit (Decimal has none)."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def frac_str(x: Fraction) -> str:
    """Canonical 'p/q' rendering (denominator always explicit)."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # past the int-string digit limit
        return ratio_str(x.numerator, x.denominator)


def ratio_str(n: int, d: int) -> str:
    """frac_str(Fraction(n, d)) for d > 0, without building the Fraction:
    the rendering of one int lattice value n over its denominator d."""
    g = gcd(n, d)
    try:
        return f"{n // g}/{d // g}"
    except ValueError:  # past the int-string digit limit
        return f"{Decimal(n // g)}/{Decimal(d // g)}"


def decimal_str(x: Fraction, digits: int = 12) -> str:
    """Decimal string of x >= 0, truncated to `digits` fractional digits."""
    if x < 0:
        raise ValueError("negative argument")
    scaled = (x.numerator * 10**digits) // x.denominator
    if digits == 0:
        return _int_str(scaled)
    ip, fp = divmod(scaled, 10**digits)
    return f"{_int_str(ip)}.{_int_str(fp).zfill(digits)}"


def sqrt_floor_decimal(x: Fraction, digits: int = 12) -> str:
    """Decimal string of sqrt(x), truncated to `digits` fractional digits.

    Exact integer arithmetic; deterministic (no rounding mode involved).
    """
    if x < 0:
        raise ValueError("negative argument")
    root = isqrt(x.numerator * 10 ** (2 * digits) // x.denominator)
    return decimal_str(Fraction(root, 10**digits), digits)


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
    """A rational-valued step function of level `level`: on each of the
    2**coarse cells of level `coarse` it repeats one motif of 2**w int
    numerators `reps` = 2**r times, so level = coarse + r + w. `motifs` holds
    the motifs one after the other, over `den`, their least common
    denominator. Every step with reps = 1 is dense: coarse = level, one value
    per cell, which is what `DyadicStep(level, values)` builds."""

    level: int
    coarse: int
    motifs: tuple[int, ...]
    reps: int
    den: int

    def __init__(self, level: int, values):
        ratios = [to_frac(v).as_integer_ratio() for v in values]
        _check_shape(level, len(ratios))
        den = lcm(*{d for _, d in ratios})
        nums = tuple([n * (den // d) for n, d in ratios])
        self.__dict__.update(level=level, coarse=level, motifs=nums, reps=1, den=den)

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The cell values as Fractions; each distinct numerator is reduced once."""
        frac = {n: Fraction(n, self.den) for n in set(self.motifs)}
        return tuple(map(frac.__getitem__, self.masses(self.level)))

    @property
    def period_level(self) -> int:
        """The level of one period, coarse + r; the level of a dense step."""
        return self.coarse + self.reps.bit_length() - 1

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c) -> "DyadicStep":
        return DyadicStep(0, (c,))

    @staticmethod
    def zero(level: int = 0) -> "DyadicStep":
        _check_level(level)
        return _new(level, level, (0,) * (1 << level), 1, 1)

    @staticmethod
    def periodic(coarse: int, motifs, reps: int, den: int) -> "DyadicStep":
        """The step that holds motif j, entries j*2**w .. (j+1)*2**w - 1 of the
        2**coarse motifs in `motifs`, `reps` times on the level-`coarse` cell j,
        over `den`; reduced to the least common denominator, and dense when
        reps is 1."""
        n = len(motifs)
        if coarse < 0 or n & n - 1 or n >> coarse == 0 or reps < 1 or reps & reps - 1:
            raise ValueError(f"need 2**{coarse} motifs of 2**w values and reps a power of 2, got {n} and {reps}")
        level = (n * reps).bit_length() - 1
        _check_level(level)
        return _reduced(level, coarse if reps > 1 else level, motifs, reps, den)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        """Equal as functions: one least common denominator and a zero
        difference, which `lin_comb` takes motif by motif on one shape."""
        if not isinstance(other, DyadicStep):
            return NotImplemented
        return self.den == other.den and (self - other).is_zero()

    def __hash__(self) -> int:
        # invariants of the function, whatever its level or period
        return hash((self.den, *norms(self)))

    def __repr__(self) -> str:
        body = ", ".join(
            str(v.numerator) if v.denominator == 1 else frac_str(v)
            for v in self.values
        )
        return f"step({self.level}; {body})"

    def is_zero(self) -> bool:
        return not any(self.motifs)

    # -- the lattice --------------------------------------------------------

    def dense(self) -> "DyadicStep":
        """f with one value per cell (coarse = level, reps = 1): the one place
        a periodic step is expanded."""
        if self.reps == 1:
            return self
        nums = tuple(chain.from_iterable(b * self.reps for b in self.blocks()))
        return _new(self.level, self.level, nums, 1, self.den)

    def masses(self, k: int) -> Sequence[int]:
        """The masses of the 2**k cells of level 0 <= k <= level, over
        den << level, in O(len(motifs) + 2**k): above the period level P each
        motif folds within itself, and its masses repeat `reps` times; up to
        P, a level-k cell of coarse cell j, k >= the coarse level L, holds
        2**(P - k) periods of motif j, and below L those masses fold."""
        N, P, L = self.level, self.period_level, self.coarse
        if k > N:
            raise ValueError(f"masses at level {k} lie above the level {N}")
        _check_level(k, "mass level")
        # each motif folded to level max(k, P): one period, for a dense step its values
        sums = next(islice(mass_levels(self.motifs), N - max(k, P), None))
        if k > P:
            b, tiled = 1 << k - P, []
            for i in range(0, len(sums), b):
                tiled += sums[i : i + b] * self.reps
            return tiled
        if k >= L:
            return sums if P == L else _repeat(tuple([s << P - k for s in sums]), 1 << k - L)
        return next(islice(mass_levels([s << P - L for s in sums] if P > L else sums), L - k, None))

    def level_squares(self) -> list[int]:
        """The sum of the squared masses of each level, finest first, over
        (den << level)**2, as `mass_levels` of the dense numerators gives:
        above the period level P the motifs' folds, `reps` times; from P down
        to the coarse level L, the `masses`, 2**(k - L) times; below L their
        folds."""
        w, r = self.level - self.period_level, self.period_level - self.coarse
        squares = [sum(map(mul, ms, ms)) for ms in mass_levels(self.motifs)]
        if not r:
            return squares
        top, s2, below = squares[:w], squares[w], squares[w + 1 :]
        middle = [s2 << r + t for t in range(r + 1)]
        return [sq * self.reps for sq in top] + middle + [sq << 2 * r for sq in below]

    def blocks(self) -> list[tuple[int, ...]]:
        """The motifs, one tuple per coarse cell, for `StepValues` to repeat
        `reps` times each; the numerators as one tuple when reps is 1."""
        if self.reps == 1:
            return [self.motifs]
        w = len(self.motifs) >> self.coarse
        return [self.motifs[i : i + w] for i in range(0, len(self.motifs), w)]

    # -- vector-space sugar (exact) -----------------------------------------

    def __add__(self, other: "DyadicStep") -> "DyadicStep":
        return lin_comb(1, self, 1, other)

    def __sub__(self, other: "DyadicStep") -> "DyadicStep":
        return lin_comb(1, self, -1, other)

    def __neg__(self) -> "DyadicStep":
        return _new(self.level, self.coarse, tuple([-n for n in self.motifs]), self.reps, self.den)

    def __mul__(self, c) -> "DyadicStep":
        # motifs and den are coprime, so one gcd of two ints reduces the product
        cn, cd = to_frac(c).as_integer_ratio()
        g = gcd(cn * gcd(*self.motifs), cd * self.den)
        motifs = tuple([cn * n // g for n in self.motifs])
        return _new(self.level, self.coarse, motifs, self.reps, cd * self.den // g)

    __rmul__ = __mul__

    def __abs__(self) -> "DyadicStep":
        return _new(self.level, self.coarse, tuple(map(abs, self.motifs)), self.reps, self.den)


def _new(level: int, coarse: int, motifs: tuple, reps: int, den: int) -> DyadicStep:
    """The step of this shape with numerators `motifs` over `den`, which is
    already their least common denominator; nothing is checked."""
    f = object.__new__(DyadicStep)
    f.__dict__.update(level=level, coarse=coarse, motifs=motifs, reps=reps, den=den)
    return f


def _reduced(level: int, coarse: int, motifs, reps: int, den: int) -> DyadicStep:
    """The step of this shape with numerators `motifs` over `den`, reduced to
    their least common denominator."""
    if den == 0:
        raise ZeroDivisionError(f"denominator is 0 in lattice of level {level}")
    g = gcd(den, *set(motifs))
    if den < 0:
        g = -g
    motifs = tuple(motifs) if g == 1 else tuple([n // g for n in motifs])
    return _new(level, coarse, motifs, reps, den // g)


def _check_level(level: int, what: str = "level") -> None:
    """A level in 0..MAX_LEVEL, checked before anything of its size is built;
    `what` names what it bounds. The one place LevelOverflowError is raised."""
    if level < 0:
        raise ValueError(f"{what} must be >= 0, got {level}")
    if level > MAX_LEVEL:
        raise LevelOverflowError(f"{what} {level} exceeds cap {MAX_LEVEL}")


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
    """Re-express f on the level-`new_level` grid (same function): each
    numerator of its motifs repeated per subcell."""
    if new_level < f.level:
        raise ValueError(f"cannot refine level {f.level} down to {new_level}")
    _check_level(new_level)
    if new_level == f.level:
        return f
    coarse = f.coarse if f.reps > 1 else new_level
    return _new(new_level, coarse, _repeat(f.motifs, 1 << (new_level - f.level)), f.reps, f.den)


def canonical(f: DyadicStep) -> DyadicStep:
    """The coarsest dense representation of f (merge equal sibling cells)."""
    level, nums = f.level, f.dense().motifs
    while level > 0 and nums[::2] == nums[1::2]:
        nums, level = nums[::2], level - 1
    return _new(level, level, nums, 1, f.den)


def from_lattice(level: int, nums, den: int) -> DyadicStep:
    """The dense step function with values Fraction(nums[i], den), reduced to
    the least common denominator of its values."""
    _check_shape(level, len(nums))
    return _reduced(level, level, nums, 1, den)


def lin_comb(a, f: DyadicStep, b, g: DyadicStep) -> DyadicStep:
    """Pointwise a*f + b*g, motif by motif: two steps of one shape (level,
    coarse level and reps) as they are, any other two dense at their common
    level."""
    (an, ad), (bn, bd) = to_frac(a).as_integer_ratio(), to_frac(b).as_integer_ratio()
    den = lcm(ad * f.den, bd * g.den)
    p, q = an * (den // (ad * f.den)), bn * (den // (bd * g.den))
    if (f.level, f.coarse, f.reps) != (g.level, g.coarse, g.reps):
        L = max(f.level, g.level)
        f, g = refine(f.dense(), L), refine(g.dense(), L)
    motifs = [p * x + q * y for x, y in zip(f.motifs, g.motifs)]
    return _reduced(f.level, f.coarse, motifs, f.reps, den)


def decompose(f: DyadicStep) -> tuple[DyadicStep, DyadicStep, DyadicStep]:
    """(|f|, positive part, negative part); f = pos - neg, |f| = pos + neg."""
    pos = [n if n > 0 else 0 for n in f.motifs]
    neg = [-n if n < 0 else 0 for n in f.motifs]
    return abs(f), *(_reduced(f.level, f.coarse, ms, f.reps, f.den) for ms in (pos, neg))


def integral_over(f: DyadicStep, idx) -> Fraction:
    """Exact integral of f over the dyadic cell I(k, j), k above or below
    f's level. Past MAX_LEVEL no storage is involved, but the result's
    denominator has k bits."""
    return _cells_integral(f, [as_index(idx)])


def _cells_integral(f: DyadicStep, cells: Sequence[DyadicIndex]) -> Fraction:
    """The sum of the integrals of f over cells (k, j) that `as_index`
    validated, as one Fraction over den << the finest level T among f and
    the cells: each reads f's masses at level min(k, level), once per level."""
    N, levels = f.level, {k for k, _ in cells}
    T = max([N, *levels])
    masses = {m: f.masses(m) for m in {min(k, N) for k in levels}}
    # per cell level k: its masses, the bits a finer cell's j drops, the shift to T
    read = {k: (masses[min(k, N)], max(k - N, 0), T - max(k, N)) for k in levels}
    total = 0
    for k, j in cells:
        ms, drop, shift = read[k]
        total += ms[(j - 1) >> drop] << shift
    return Fraction(total, f.den << T)


def norms(f: DyadicStep) -> Norms:
    """(l1, linf) of f, exactly, from its motifs."""
    absolute = list(map(abs, f.motifs))
    return Norms(Fraction(f.reps * sum(absolute), f.den << f.level), Fraction(max(absolute), f.den))


def pairing(f: DyadicStep, h: DyadicStep) -> Fraction:
    """Exact duality bracket <f, h> = integral of f*h over [0, 1): the finer
    step's masses at the coarser step's level dotted with the coarser step's
    numerators."""
    if h.level > f.level:
        f, h = h, f
    return Fraction(sum(map(mul, f.masses(h.level), h.masses(h.level))), h.den * f.den << f.level)


def dyadic_project(f: DyadicStep, K: int) -> DyadicStep:
    """Conditional expectation of f onto the level-K dyadic algebra.

    Replaces f by its cell averages at level K; preserves every integral
    over cells of level <= K and is idempotent.
    """
    _check_level(K)
    if K >= f.level:
        return refine(f, K)
    # a level-K cell average is 2**K times its mass, which is over den << f.level
    return from_lattice(K, f.masses(K), f.den << f.level - K)


def reflect(f: DyadicStep) -> DyadicStep:
    """The function t -> f(1-t) on the dyadic grid: the values reversed,
    which reverses the order of the coarse cells and each motif."""
    return _new(f.level, f.coarse, f.motifs[::-1], f.reps, f.den)


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


# -- JSON wire format ---------------------------------------------------------
#
#   {"level": K, "values": ["p/q", ...]}   with exactly 2**K entries.


@dataclass(frozen=True, eq=False)
class StepValues:
    """The wire list of a step's values, held as its numerators: `blocks`
    (all of a dense step's numerators, or one motif per coarse cell), each
    repeated `reps` times in place, numerator n written as texts[n], the
    'p/q' text of its value. `expand` builds the list; the CLI emitter
    writes the same bytes without it."""

    blocks: list[tuple[int, ...]]
    texts: dict[int, str]
    reps: int

    def expand(self) -> list[str]:
        return list(map(self.texts.__getitem__, chain.from_iterable(b * self.reps for b in self.blocks)))


def step_to_json(f: DyadicStep) -> dict:
    """The wire form of f, its values a plain list of 'p/q' strings."""
    wire = steps_to_json(f)[0]
    return dict(wire, values=wire["values"].expand())


def steps_to_json(*steps: DyadicStep) -> list[dict]:
    """The wire forms of dense or periodic steps, their values held as
    StepValues that render each distinct numerator over each denominator
    among them once, through ratio_str."""
    distinct: dict[int, set[int]] = {}
    for f in steps:
        distinct.setdefault(f.den, set()).update(f.motifs)
    texts = {den: {n: ratio_str(n, den) for n in nums} for den, nums in distinct.items()}
    return [{"level": f.level, "values": StepValues(f.blocks(), texts[f.den], f.reps)} for f in steps]


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
