"""The int-lattice kernel against the Fraction kernel it replaced.

The oracles below are the former Fraction implementations of the dense
kernels, kept verbatim apart from their names: every value stays a reduced
Fraction and every sum is a Fraction sum. The kernels must return equal
Fractions on every input, at mixed levels, on zero and all-negative
functions, and on values with 2**48-sized denominators (the shape of the
rounded iterates of the projected ascent that `dual_norm_estimate` ran
before its exact solve).

`oracle_lattice` is the former body of the removed `lattice` reader, which
recomputed the numerators from the values on every call. Every step now
holds only its numerators and their denominator, which `masses(level)` and
`den` read (`read`): for a step from every public constructor and operation
they must equal the oracle's, so the stored denominator is
the least one, `==` and `hash` must agree with comparing refined Fraction
values, and the numerators must never change after a kernel has read them.
"""

import json
import operator
import re
from fractions import Fraction
from itertools import chain, islice
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renorml1 import (
    DyadicStep,
    WeakNbhd,
    check_equivalence,
    d2p_witness,
    decompose,
    dual_norm_estimate,
    dyadic_project,
    indicator,
    integral_over,
    lin_comb,
    midpoint_defect,
    near_unit_scale,
    norm_report,
    norms,
    pairing,
    perturbation_l1_chain,
    reflect,
    refine,
    slice_diameter_lb,
    split_pair,
    strong_extreme_failure,
    triangle_equality_case,
    weak_smallness,
)
from renorml1.cli import _json_chunks
from renorml1.dyadic import (
    MAX_LEVEL,
    LevelOverflowError,
    frac_str,
    from_lattice,
    mass_levels,
    step_from_json,
    steps_to_json,
)
from renorml1.renorm import EqualityCase, _q_product, partial_below, tail_formula, tnorm_sq
from conftest import mk, small_fractions

# -- oracles: the Fraction kernel ----------------------------------------------

GEOM_8 = Fraction(8, 7)


def oracle_lattice(f, level=None):
    ratios = [v.as_integer_ratio() for v in f.values]
    den = lcm(*{d for _, d in ratios})
    nums = [n * (den // d) for n, d in ratios]
    rep = 1 << ((f.level if level is None else level) - f.level)
    return (nums if rep == 1 else [n for n in nums for _ in range(rep)]), den


def read(f, level=None):
    """(nums, den) of f through the one cell reader: the level-L masses of f
    refined to L (its own level by default), which are over den << L, so
    equal to its numerators over den."""
    L = f.level if level is None else level
    return refine(f, L).masses(L), f.den


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


def oracle_triangle_equality_case(f, g):
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
    nums, den = read(f)
    assert all(isinstance(n, int) for n in nums) and den >= 1
    assert tuple(Fraction(n, den) for n in nums) == f.values
    assert den == lcm(*(v.denominator for v in f.values))


@settings(max_examples=100, deadline=None)
@given(functions(), st.booleans())
def test_mass_levels(f, absolute):
    nums = list(map(abs, f.motifs)) if absolute else f.motifs
    assert as_fractions(f.den << f.level, mass_levels(nums)) == list(oracle_mass_levels(f, absolute))


@settings(max_examples=100, deadline=None)
@given(functions(), st.integers(0, 7))
def test_series_and_norm(f, T):
    D = f.den << f.level
    squares = abs(f).level_squares()
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
    assert [Fraction(2 * x, 7 * u.den << 4 * L) for x in _q_product(L, u.motifs)] == oracle_tnorm_grad(u)


@settings(max_examples=100, deadline=None)
@given(functions(), functions(), st.sampled_from(("free", "multiple", "zero f", "zero g")), values, st.integers(0, 2))
def test_triangle_equality_case_cross_multiplies(f, g, kind, t, up):
    # g a multiple of f (t of either sign or 0, at a finer level), either one
    # zero, or the two drawn apart; at mixed levels either way round
    if kind == "multiple":
        g = refine(t * f, f.level + up)
    elif kind == "zero f":
        f = DyadicStep.zero(up)
    elif kind == "zero g":
        g = DyadicStep.zero(up)
    assert triangle_equality_case(f, g) == oracle_triangle_equality_case(f, g)
    assert triangle_equality_case(g, f) == oracle_triangle_equality_case(g, f)


# -- one step class: periodic steps against their dense expansions --------------


@st.composite
def periodic_steps(draw):
    """A step that repeats one motif per coarse cell: coarse level <= 3,
    reps >= 2, motifs of at most 8 values and level <= 10."""
    coarse = draw(st.integers(0, 3))
    r = draw(st.integers(1, 10 - coarse))
    w = draw(st.integers(0, min(3, 10 - coarse - r)))
    return DyadicStep.periodic(coarse, draw(motifs(1 << coarse + w)), 1 << r, draw(st.integers(1, 12)))


def motifs(n):
    return st.lists(st.integers(-9, 9), min_size=n, max_size=n)


def functional(k):
    """A fixed dense step of level k with linf <= 1."""
    return from_lattice(k, [(7 * j) % 5 - 2 for j in range(1 << k)], 2)


def agree(fn, *args):
    """fn on steps that may be periodic and on their dense expansions: equal
    results, or the same ValueError from both. Any other exception,
    AttributeError and TypeError among them, fails."""
    dense = [a.dense() if isinstance(a, DyadicStep) else a for a in args]
    try:
        got = fn(*args)
    except ValueError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            fn(*dense)
        return
    assert got == fn(*dense)


def in_ball(f):
    return near_unit_scale(f, Fraction(1, 100))


def witness_probes(f, eps=Fraction(1, 2)):
    nbhd = WeakNbhd(f, (functional(1), functional(2)), Fraction(1, 2))
    return strong_extreme_failure(nbhd, eps), slice_diameter_lb(f, nbhd.functionals, nbhd.delta, [eps])


@settings(max_examples=100, deadline=None)
@given(periodic_steps(), st.data())
def test_dense_and_periodic_views_agree(p, data):
    # every public step function of dyadic, renorm and probes returns for a
    # periodic step what it returns for its dense expansion
    d, N = p.dense(), p.level
    assert (d.level, d.coarse, d.reps, d.period_level) == (N, N, 1, N) and p.reps >= 2
    assert p == d and hash(p) == hash(d) and repr(p) == repr(d) and p.values == d.values
    assert list(read(p, N + 1)[0]) == list(read(d, N + 1)[0]) and p.den == d.den and p.is_zero() == d.is_zero()
    # the one cell reader, at every level and past both ends; `pairing`
    # against dense functionals is tested below
    for k in range(-1, N + 2):
        agree(lambda f: list(f.masses(k)), p)
    assert p.level_squares() == d.level_squares()
    assert list(chain.from_iterable(b * p.reps for b in p.blocks())) == list(d.motifs)
    c = data.draw(small_fractions)
    for fn in (
        decompose, reflect, norms, abs, operator.neg, tnorm_sq, check_equivalence, norm_report,
        lambda f: "".join(_json_chunks(steps_to_json(f)[0])), lambda f: c * f, lambda f: f * c,
    ):
        agree(fn, p)
    agree(refine, p, N)
    agree(refine, p, N + 1)
    for k in range(N + 2):
        agree(dyadic_project, p, k)
        agree(weak_smallness, p, k)
        agree(partial_below, p, k)
        agree(tail_formula, p, k)
        cell = (k, data.draw(st.integers(1, 1 << k)))
        agree(integral_over, p, cell)
        agree(lambda f, cell: integral_over(abs(f), cell), p, cell)
    agree(dual_norm_estimate, p, N)
    if not p.is_zero():
        agree(witness_probes, in_ball(p))
    # with a step of p's shape, a dense step and p itself
    q = DyadicStep.periodic(p.coarse, data.draw(motifs(len(p.motifs))), p.reps, data.draw(st.integers(1, 12)))
    k = data.draw(st.integers(1, N + 1))
    A = [(k, j) for j in data.draw(st.lists(st.integers(1, 1 << k), min_size=1, max_size=3, unique=True))]
    for g in (q, data.draw(functions(max_level=5)), p):
        for fn in (
            operator.add, operator.sub, operator.eq, lambda f, h: lin_comb(c, f, 2, h), pairing,
            lambda f, h: tnorm_sq(f - h), triangle_equality_case, midpoint_defect,
            lambda f, h: perturbation_l1_chain(f, h, A),
        ):
            agree(fn, p, g)
            agree(fn, g, p)


@settings(max_examples=100, deadline=None)
@given(periodic_steps())
def test_masses_take_every_level_up_to_the_level(p):
    # above the period level too; only a level above the step's own is refused
    N = p.level
    for k in range(N + 1):
        assert list(p.masses(k)) == list(p.dense().masses(k))
    with pytest.raises(ValueError, match=f"^masses at level {N + 1} lie above the level {N}$"):
        p.masses(N + 1)


def test_masses_below_level_0_are_refused():
    # named, not a StopIteration out of the fold; above the level comes first
    f = DyadicStep(2, [1, 2, 3, 4])
    with pytest.raises(ValueError, match="^mass level must be >= 0, got -1$"):
        f.masses(-1)
    with pytest.raises(ValueError, match="^mass level must be >= 0, got -1$"):
        DyadicStep.periodic(0, [1, 2], 2, 3).masses(-1)
    with pytest.raises(ValueError, match="^masses at level 3 lie above the level 2$"):
        f.masses(3)


def test_cell_readers_expand_no_step_past_the_level_asked(monkeypatch):
    # the split's f1 has level 20 and period level 18: a read of the cells of
    # level k <= 19 must never build its 2**20 cells
    f1 = split_pair(DyadicStep(1, [Fraction(1, 2), Fraction(-1, 3)]), 18).f1
    assert (f1.level, f1.period_level) == (20, 18)
    expanded = []
    dense = DyadicStep.dense

    def recording(f):
        if f.reps > 1:
            expanded.append(f.level)
        return dense(f)

    monkeypatch.setattr(DyadicStep, "dense", recording)
    reads = [
        *((k, lambda k=k: f1.masses(k)) for k in range(20)),
        *((k, lambda k=k: integral_over(f1, (k, 1 + (5 * k) % (1 << k)))) for k in range(19)),
        *((k, lambda k=k: integral_over(abs(f1), (k, (1 << k) - (3 * k) % (1 << k)))) for k in range(19)),
        (19, lambda: weak_smallness(f1, 19)),
        (18, lambda: dyadic_project(f1, 18)),
        (3, lambda: pairing(f1, functional(3))),
        (3, lambda: pairing(functional(3), f1)),
    ]
    for k, fn in reads:
        fn()
        assert all(level <= k for level in expanded), (k, expanded)
        expanded.clear()


@settings(max_examples=100, deadline=None)
@given(periodic_steps())
def test_pairing_reads_the_finer_masses_at_every_level(p):
    # functionals below the period level, between it and the level, and finer
    # than p: each pairs as with the dense expansion, either way round
    for k in range(p.level + 3):
        h = functional(k)
        assert pairing(p, h) == pairing(p.dense(), h) == pairing(h, p)


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
    got = read(f)
    assert type(got[0]) is tuple
    # the kept numerators are those the values give, over the least denominator
    assert got == as_oracle(f) == as_oracle(DyadicStep(level, f.values))
    assert read(f, level + up) == as_oracle(f, level + up)
    wire = json.loads("".join(_json_chunks(steps_to_json(f)[0])))
    assert wire == {"level": level, "values": [frac_str(v) for v in f.values]}


@settings(max_examples=100, deadline=None)
@given(built(), built(), values)
def test_ops_on_built_steps_keep_the_least_lattice(case_f, case_g, a):
    f, g = from_lattice(*case_f), from_lattice(*case_g)
    for out in (a * f, f - g, lin_comb(a, f, 2, g)):
        assert read(out) == as_oracle(out)
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
        nums, den = read(out)
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
    before = read(center)
    rep = d2p_witness(nbhd, Fraction(1, 5))
    steps = (center, *(p.dense() for p in (rep.pair.f1, rep.pair.f2, rep.g1, rep.g2)))
    kept = [read(f) for f in steps]
    assert kept[0] == before and all(type(nums) is tuple for nums, _ in kept)
    snapshot = [(list(nums), den) for nums, den in kept]
    for f in steps:
        tnorm_sq(f)
        # the top level is handed out as kept, immutable
        assert next(mass_levels(read(f)[0])) is read(f)[0]
        list(mass_levels(read(f)[0]))
        split_pair(f, 3)
    d2p_witness(nbhd, Fraction(1, 5))
    for f, (nums, den), (was, was_den) in zip(steps, kept, snapshot):
        assert read(f)[0] is nums and list(nums) == was and den == was_den
