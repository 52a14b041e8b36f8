"""The int-lattice kernel against the Fraction kernel it replaced.

The oracles below are the former Fraction implementations of the dense
kernels, kept verbatim apart from their names: every value stays a reduced
Fraction and every sum is a Fraction sum. The kernels must return equal
Fractions on every input, at mixed levels, on zero and all-negative
functions, and on values with 2**48-sized denominators (the shape of the
`limit_denominator(1 << 48)` iterates of `dual_norm_estimate`).
"""

from fractions import Fraction
from itertools import islice
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from renorml1 import DyadicStep, dyadic_project, lin_comb, norms, pairing, refine
from renorml1.dyadic import lattice, mass_levels
from renorml1.renorm import _series, _tnorm_grad, partial_below, tail_formula, tnorm_sq
from conftest import small_fractions

# -- oracles: the Fraction kernel ----------------------------------------------

GEOM_8 = Fraction(8, 7)


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

#: values like the dual-norm ascent's iterates: denominators up to 2**48
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
    assert as_fractions(*mass_levels(f, absolute)) == list(oracle_mass_levels(f, absolute))


@settings(max_examples=100, deadline=None)
@given(functions(), st.integers(0, 7))
def test_series_and_norm(f, T):
    B, S, D = _series(f, T)
    assert (Fraction(B, D * D << 2 * f.level), Fraction(S, D * D)) == oracle_series(f, T)
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
    u = abs(f)
    assert _tnorm_grad(u) == oracle_tnorm_grad(u)
