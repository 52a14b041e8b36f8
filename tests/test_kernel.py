"""The int-lattice kernel against the Fraction kernel it replaced.

The oracles below are the former Fraction implementations of the dense
kernels, kept verbatim apart from their names: every value stays a reduced
Fraction and every sum is a Fraction sum. The kernels must return equal
Fractions on every input, at mixed levels, on zero and all-negative
functions, and on values with 2**48-sized denominators (the shape of the
rounded iterates of the projected ascent that `dual_norm_estimate` ran
before its exact solve).

`oracle_lattice` is the former body of `lattice`, which recomputed the
numerators from the values on every call. Every step now holds only its
numerators and their denominator: for a step from every public constructor
and operation they must equal the oracle's, so the stored denominator is
the least one, `==` and `hash` must agree with comparing refined Fraction
values, and the numerators must never change after a kernel has read them.
"""

from fractions import Fraction
from itertools import islice
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renorml1 import (
    DyadicStep,
    WeakNbhd,
    canonical,
    d2p_witness,
    decompose,
    dyadic_project,
    indicator,
    lin_comb,
    near_unit_scale,
    norms,
    pairing,
    reflect,
    refine,
    split_pair,
)
from renorml1.dyadic import (
    MAX_LEVEL,
    LevelOverflowError,
    frac_str,
    from_lattice,
    lattice,
    mass_levels,
    step_from_json,
    step_to_json,
)
from renorml1.renorm import _level_squares, _q_product, partial_below, tail_formula, tnorm_sq
from conftest import mk, small_fractions

# -- oracles: the Fraction kernel ----------------------------------------------

GEOM_8 = Fraction(8, 7)


def oracle_lattice(f, level=None):
    ratios = [v.as_integer_ratio() for v in f.values]
    den = lcm(*{d for _, d in ratios})
    nums = [n * (den // d) for n, d in ratios]
    rep = 1 << ((f.level if level is None else level) - f.level)
    return (nums if rep == 1 else [n for n in nums for _ in range(rep)]), den


def oracle_mass_levels(f, absolute=False):
    scale = Fraction(1, 1 << f.level)
    masses = [v * scale for v in (map(abs, f.values) if absolute else f.values)]
    yield masses
    for _ in range(f.level):
        masses = [masses[2 * i] + masses[2 * i + 1] for i in range(len(masses) // 2)]
        yield masses


def _sumsq(xs):
    return sum((x * x for x in xs), Fraction(0))


def oracle_series(f, T):
    levels = oracle_mass_levels(f, absolute=True)
    top = _sumsq(next(levels))
    below = Fraction(0)
    for k, masses in zip(range(f.level - 1, -1, -1), levels):
        if k < T:
            below += _sumsq(masses) / 4**k
    return below, top


def oracle_tnorm_sq(f):
    below, top = oracle_series(f, f.level)
    return below + GEOM_8 * top / 4**f.level


def oracle_partial_below(f, T):
    K = f.level
    below, top = oracle_series(f, T)
    return below + sum((top * 2**K / 8**k for k in range(K, T)), Fraction(0))


def oracle_tail_formula(f, T):
    return GEOM_8 * _sumsq(f.values) / (2**f.level * 8**T)


def _common(f, g):
    L = max(f.level, g.level)
    return L, refine(f, L).values, refine(g, L).values


def oracle_lin_comb(a, f, b, g):
    L, vf, vg = _common(f, g)
    return DyadicStep(L, tuple(a * x + b * y for x, y in zip(vf, vg)))


def oracle_pairing(f, h):
    L, vf, vh = _common(f, h)
    return sum((x * y for x, y in zip(vf, vh)), Fraction(0)) / (1 << L)


def oracle_norms(f):
    l1 = sum((abs(v) for v in f.values), Fraction(0)) / (1 << f.level)
    return l1, max(abs(v) for v in f.values)


def oracle_tnorm_grad(u):
    L = u.level
    grad = [GEOM_8 * 2 * ui / 4 ** (2 * L) for ui in u.values]
    for k, masses in zip(range(L - 1, -1, -1), islice(oracle_mass_levels(u), 1, None)):
        coef = Fraction(2, 4**k * (1 << L))
        for i in range(len(grad)):
            grad[i] += coef * masses[i >> (L - k)]
    return grad


# -- inputs --------------------------------------------------------------------

#: values with denominators up to 2**48
wide = st.builds(
    lambda n, d: Fraction(n, d).limit_denominator(1 << 48),
    st.integers(-(1 << 60), 1 << 60),
    st.integers(1, 1 << 62),
)
values = st.one_of(small_fractions, wide, st.just(Fraction(0)))


@st.composite
def functions(draw, max_level=4):
    level = draw(st.integers(0, max_level))
    vals = draw(st.lists(values, min_size=1 << level, max_size=1 << level))
    kind = draw(st.sampled_from(("mixed", "zero", "negative")))
    if kind == "zero":
        vals = [Fraction(0)] * len(vals)
    elif kind == "negative":
        vals = [-abs(v) - Fraction(1, 3) for v in vals]
    return DyadicStep(level, tuple(vals))


def as_fractions(D, levels):
    return [[Fraction(m, D) for m in masses] for masses in levels]


# -- properties ----------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(functions())
def test_lattice_writes_the_values(f):
    nums, den = lattice(f)
    assert all(isinstance(n, int) for n in nums) and den >= 1
    assert tuple(Fraction(n, den) for n in nums) == f.values
    assert den == lcm(*(v.denominator for v in f.values))


@settings(max_examples=100, deadline=None)
@given(functions(), st.booleans())
def test_mass_levels(f, absolute):
    nums = list(map(abs, f.nums)) if absolute else f.nums
    assert as_fractions(f.den << f.level, mass_levels(nums)) == list(oracle_mass_levels(f, absolute))


@settings(max_examples=100, deadline=None)
@given(functions(), st.integers(0, 7))
def test_series_and_norm(f, T):
    D = f.den << f.level
    squares = _level_squares(list(map(abs, f.nums)))
    assert [Fraction(sq, D * D) for sq in squares] == list(map(_sumsq, oracle_mass_levels(f, absolute=True)))
    assert tnorm_sq(f) == oracle_tnorm_sq(f)
    assert partial_below(f, T) == oracle_partial_below(f, T)
    T = max(T, f.level)
    assert tail_formula(f, T) == oracle_tail_formula(f, T)


@settings(max_examples=100, deadline=None)
@given(functions(), functions(), values, values)
def test_pairing_and_lin_comb_at_mixed_levels(f, g, a, b):
    assert pairing(f, g) == oracle_pairing(f, g)
    got, want = lin_comb(a, f, b, g), oracle_lin_comb(a, f, b, g)
    assert got.level == want.level and got.values == want.values
    assert (a * f).values == oracle_lin_comb(a, f, 0, f).values


@settings(max_examples=100, deadline=None)
@given(functions(), st.integers(0, 5))
def test_norms_projection_and_gradient(f, K):
    assert tuple(norms(f)) == oracle_norms(f)
    if K < f.level:
        masses = list(oracle_mass_levels(f))[f.level - K]
        assert dyadic_project(f, K).values == tuple(m * (1 << K) for m in masses)
    # T(u)**2 = u^T Q u / (7 * 16**L): its gradient is 2 Q u / (7 * 16**L)
    u, L = abs(f), f.level
    assert [Fraction(2 * x, 7 * u.den << 4 * L) for x in _q_product(L, u.nums)] == oracle_tnorm_grad(u)


# -- steps built by the kernel keep their numerators ---------------------------


@st.composite
def built(draw, max_level=4):
    """(level, nums, den) for `from_lattice`: numerators sharing a factor with
    den, zeros, all-negative values and 2**48-sized denominators."""
    level = draw(st.integers(0, max_level))
    den = draw(st.one_of(st.integers(1, 64), st.integers(1 << 47, 1 << 49)))
    nums = draw(st.lists(st.integers(-(1 << 60), 1 << 60), min_size=1 << level, max_size=1 << level))
    kind = draw(st.sampled_from(("mixed", "shared", "zero", "negative")))
    if kind == "shared":
        g = draw(st.sampled_from((2, 3, 6, 1 << 20)))
        den, nums = den * g, [n * g for n in nums]
    elif kind == "zero":
        nums = [0] * len(nums)
    elif kind == "negative":
        nums = [-abs(n) - 1 for n in nums]
    return level, nums, den


def as_oracle(f, level=None):
    nums, den = oracle_lattice(f, level)
    return tuple(nums), den


@settings(max_examples=150, deadline=None)
@given(built(), st.integers(0, 3))
def test_built_step_keeps_the_least_lattice(case, up):
    level, nums, den = case
    f = from_lattice(level, nums, den)
    assert f.values == tuple(Fraction(n, den) for n in nums)
    got = lattice(f)
    assert type(got[0]) is tuple
    # the kept numerators are those the values give, over the least denominator
    assert got == as_oracle(f) == as_oracle(DyadicStep(level, f.values))
    assert lattice(f, level + up) == as_oracle(f, level + up)
    assert step_to_json(f) == {"level": level, "values": [frac_str(v) for v in f.values]}


@settings(max_examples=100, deadline=None)
@given(built(), built(), values)
def test_ops_on_built_steps_keep_the_least_lattice(case_f, case_g, a):
    f, g = from_lattice(*case_f), from_lattice(*case_g)
    for out in (a * f, f - g, lin_comb(a, f, 2, g)):
        assert lattice(out) == as_oracle(out)
        # the same values as the Fraction kernel gives on a step built from Fractions
        assert out == DyadicStep(out.level, out.values)


def oracle_values(f, level):
    """f's Fraction values refined to `level`."""
    return tuple(v for v in f.values for _ in range(1 << (level - f.level)))


def public_steps(f, g, case, a, K, j):
    """One step from each public constructor and operation."""
    return [
        DyadicStep(f.level, f.values),
        DyadicStep.constant(a),
        DyadicStep.zero(K),
        indicator((K, min(j, 1 << K)), a),
        step_from_json({"level": f.level, "values": [frac_str(v) for v in f.values]}),
        refine(f, f.level + 1),
        canonical(f),
        *decompose(f),
        reflect(f),
        -f,
        f - g,
        abs(f),
        a * f,
        f + g,
        lin_comb(a, f, 2, g),
        dyadic_project(f, K),
        from_lattice(*case),
    ]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(functions(), built().map(lambda case: from_lattice(*case))),
    functions(max_level=3),
    built(),
    values,
    st.integers(0, 5),
    st.integers(1, 32),
)
def test_every_step_is_its_least_lattice(f, g, case, a, K, j):
    steps = public_steps(f, g, case, a, K, j)
    for out in steps:
        nums, den = lattice(out)
        assert type(nums) is tuple and all(type(n) is int for n in nums)
        assert type(den) is int and den > 0
        assert (nums, den) == as_oracle(out)
    # an equal step at another level, so that every example has equal pairs
    steps.append(DyadicStep(f.level + 1, oracle_values(f, f.level + 1)))
    top = max(out.level for out in steps)
    refined = [oracle_values(out, top) for out in steps]
    for x, vx in zip(steps, refined):
        for y, vy in zip(steps, refined):
            assert (x == y) is (vx == vy)
            if vx == vy:
                assert hash(x) == hash(y)


def test_from_lattice_checks_the_shape():
    with pytest.raises(ValueError, match="need 2\\*\\*2 = 4 values, got 3"):
        from_lattice(2, [1, 2, 3], 5)
    with pytest.raises(ValueError, match="level must be >= 0"):
        from_lattice(-1, [1], 1)
    # the level is checked before the length, so no 2**21 list is needed
    with pytest.raises(LevelOverflowError):
        from_lattice(MAX_LEVEL + 1, [1], 1)
    with pytest.raises(ZeroDivisionError):
        from_lattice(0, [1], 0)


def test_kernels_leave_the_kept_numerators_unchanged():
    center = near_unit_scale(mk(2, 1, Fraction(-1, 2), 3, 0), Fraction(1, 10**4))
    nbhd = WeakNbhd(center, (mk(0, 1), mk(2, Fraction(1, 2), -1, 0, Fraction(3, 4))), Fraction(1, 2))
    before = lattice(center)
    rep = d2p_witness(nbhd, Fraction(1, 5))
    steps = (center, *(p.dense() for p in (rep.pair.f1, rep.pair.f2, rep.g1, rep.g2)))
    kept = [lattice(f) for f in steps]
    assert kept[0] == before and all(type(nums) is tuple for nums, _ in kept)
    snapshot = [(list(nums), den) for nums, den in kept]
    for f in steps:
        tnorm_sq(f)
        # the top level is handed out as kept, immutable
        assert next(mass_levels(lattice(f)[0])) is lattice(f)[0]
        list(mass_levels(lattice(f)[0]))
        split_pair(f, 3)
    d2p_witness(nbhd, Fraction(1, 5))
    for f, (nums, den), (was, was_den) in zip(steps, kept, snapshot):
        assert lattice(f)[0] is nums and list(nums) == was and den == was_den
