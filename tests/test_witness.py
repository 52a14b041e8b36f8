import json
import math
import re
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from renorml1 import (
    DyadicStep,
    GapConditionError,
    WeakNbhd,
    best_rational_leq_sqrt,
    choose_K,
    choose_gamma,
    d2p_witness,
    near_unit_scale,
    norms,
    pairing,
    slice_diameter_lb,
    split_pair,
    tnorm_sq,
)
from renorml1 import witness
from renorml1.cli import _json_text
from renorml1.dyadic import (
    MAX_LEVEL,
    DyadicIndex,
    LevelOverflowError,
    decompose,
    dyadic_project,
    from_lattice,
    indicator,
    integral_over,
    lin_comb,
    refine,
)
from renorml1.probes import strong_extreme_failure, weak_smallness
from renorml1.renorm import tnorm_sq_diff
from renorml1.witness import _verify_split
from conftest import mk, steps
from dense_split import dense_extreme_json, dense_split, dense_verify, dense_witness_json
from gamma_loop import gamma_increment_loop
from stern_brocot import stern_brocot_leq_sqrt


class TestChooseGamma:
    def test_examples(self):
        assert choose_gamma(1, Fraction(1, 10), Fraction(1, 5)) == Fraction(1, 64)
        assert choose_gamma(1, 2, 2) == Fraction(1, 4)
        assert choose_gamma(0, 1, 2) == Fraction(1, 2)

    def test_both_conditions_hold_and_gamma_is_maximal(self):
        f_inf, delta, eps = Fraction(3, 2), Fraction(1, 7), Fraction(1, 3)
        g = choose_gamma(f_inf, delta, eps)
        assert (5 * f_inf + 1) * g < delta and 4 * (1 - g) ** 3 > (2 - eps) ** 2
        bigger = 2 * g
        assert (5 * f_inf + 1) * bigger >= delta or 4 * (1 - bigger) ** 3 <= (
            2 - eps
        ) ** 2

    def test_validation(self):
        with pytest.raises(ValueError):
            choose_gamma(1, 0, 1)
        with pytest.raises(ValueError):
            choose_gamma(1, 1, 0)

    @given(
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12),
        st.fractions(min_value=0, max_value=100, max_denominator=10**30).filter(lambda d: d > 0),
        st.one_of(
            st.fractions(min_value=0, max_value=4, max_denominator=10**30).filter(lambda e: e > 0),
            st.sampled_from([Fraction(2), Fraction(5, 2), Fraction(1, 10**100)]),
        ),
    )
    @example(Fraction(1), Fraction(1, 2), Fraction(1, 10**100))
    @example(Fraction(-3, 5), Fraction(1, 10**30), Fraction(2))
    @example(Fraction(7, 8), Fraction(1, 10), Fraction(199, 100))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_increment_loop(self, f_inf, delta, eps):
        assert choose_gamma(f_inf, delta, eps) == gamma_increment_loop(f_inf, delta, eps)


class TestChooseK:
    def test_examples(self):
        assert choose_K(Fraction(1, 64), [3, 1]) == 7
        assert choose_K(Fraction(1, 2), [0]) == 2
        assert choose_K(Fraction(1, 4), [5]) == 5

    def test_strictness(self):
        K = choose_K(Fraction(1, 64), [])
        assert Fraction(1, 1 << K) < Fraction(1, 64) <= Fraction(1, 1 << (K - 1))

    @given(
        st.integers(min_value=1, max_value=10**12).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=n + 1, max_value=2 * n + 10**12))
        ),
        st.lists(st.integers(min_value=0, max_value=MAX_LEVEL + 4), max_size=3),
    )
    @settings(max_examples=300)
    def test_matches_the_increment_loop(self, ratio, levels):
        # the loop choose_K replaced: K from the highest level up until 2**-K < gamma
        gamma = Fraction(*ratio)
        K = max(levels, default=0)
        while Fraction(1, 1 << K) >= gamma:
            K += 1
        if K + 2 > MAX_LEVEL:
            with pytest.raises(LevelOverflowError, match=re.escape(f"split level {K + 2} exceeds cap {MAX_LEVEL}")):
                choose_K(gamma, levels)
        else:
            assert choose_K(gamma, levels) == K


class TestSplitPair:
    def test_constant(self):
        sp = split_pair(mk(0, 1), 0)
        assert sp.f1.dense() == mk(2, 4, 0, 0, 0)
        assert sp.f2.dense() == mk(2, 0, 0, 4, 0)
        assert sp.b.dense().values == (1,) and sp.c.dense().values == (0,)

    def test_signed(self):
        sp = split_pair(mk(1, 1, -1), 1)
        assert sp.f1.dense() == mk(3, 4, 0, 0, 0, 0, -4, 0, 0)
        assert sp.f2.dense() == mk(3, 0, 0, 4, 0, 0, 0, 0, -4)
        assert sp.b.dense().values == (Fraction(1, 2), 0)
        assert sp.c.dense().values == (0, Fraction(1, 2))

    def test_zero(self):
        sp = split_pair(DyadicStep.zero(1), 2)
        assert sp.f1.dense().is_zero() and sp.f2.dense().is_zero()

    def test_pairings_read_the_split_masses(self):
        sp = split_pair(mk(1, 1, -1), 1)
        for h in (mk(0, 1), mk(1, 1, Fraction(1, 2))):
            for fi in (sp.f1, sp.f2):
                assert pairing(fi, h) == pairing(fi.dense(), h)
        # at K = level(f) every motif is repeated once: the split is dense
        assert sp.f1.reps == 1 and pairing(sp.f1, mk(2, 1, 0, 0, 1)) == pairing(sp.f1.dense(), mk(2, 1, 0, 0, 1))
        # a functional between the period level 2 and the level 4
        periodic, h = split_pair(mk(1, 1, -1), 2).f1, mk(3, 1, 0, 0, 1, 0, 0, 0, 0)
        assert pairing(periodic, h) == pairing(periodic.dense(), h) == pairing(h, periodic)

    @given(steps(max_level=4), st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_b_and_c_are_the_level_K_masses_of_the_parts(self, f, K):
        sp = split_pair(f, K)
        _, pos, neg = decompose(f)
        assert sp.b.dense() == Fraction(1, 1 << K) * dyadic_project(pos, K)
        assert sp.c.dense() == Fraction(1, 1 << K) * dyadic_project(neg, K)
        assert sp.b.level == sp.c.level == K

    @given(steps(max_level=3), st.integers(min_value=0, max_value=4))
    @settings(max_examples=50)
    def test_identities_every_cell(self, f, K):
        sp = split_pair(f, K)  # internal verification re-runs (5)-(7)
        f1, f2, af = sp.f1.dense(), sp.f2.dense(), abs(f)
        for k in range(K + 1):
            for j in range(1, (1 << k) + 1):
                cell = (k, j)
                assert integral_over(f1, cell) == integral_over(f, cell)
                assert integral_over(f2, cell) == integral_over(f, cell)
                assert integral_over(abs(f1), cell) == integral_over(af, cell)
                assert integral_over(abs(f2), cell) == integral_over(af, cell)
                assert integral_over(abs(f1 - f2), cell) == 2 * integral_over(af, cell)
        assert norms(f1).linf <= 4 * norms(f).linf
        assert norms(f2).linf <= 4 * norms(f).linf
        assert norms(f1).l1 == norms(f).l1 == norms(f2).l1

    @given(steps(max_level=2), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40)
    def test_pairing_with_level_K_indicators_vanishes(self, f, K):
        sp = split_pair(f, K)
        for j in range(1, (1 << K) + 1):
            ind = indicator(DyadicIndex(K, j))
            assert pairing(sp.f1.dense() - f, ind) == 0
            assert pairing(sp.f2.dense() - f, ind) == 0

    @given(steps(max_level=2), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40)
    def test_tail_bounds_inside_ball(self, f, K):
        l1 = norms(f).l1
        if l1 > 1:
            f = f * Fraction(1, math.ceil(l1))
        sp = split_pair(f, K)
        f1, f2, two_K = sp.f1.dense(), sp.f2.dense(), Fraction(1, 1 << K)
        assert tnorm_sq(f1) <= tnorm_sq(f) + two_K
        assert tnorm_sq(f2) <= tnorm_sq(f) + two_K
        assert tnorm_sq(f1 - f2) >= 4 * (tnorm_sq(f) - two_K)


class TestTheSplitIsOneStepClass:
    """f1 of the split of (1/2, -1/3) at K = 3 has level 5, coarse level 1
    and reps 4, so period level 3: every public function reads it as its
    dense expansion."""

    f1 = split_pair(DyadicStep(1, ["1/2", "-1/3"]), 3).f1

    def test_shape(self):
        f1 = self.f1
        assert (f1.level, f1.coarse, f1.reps, f1.period_level, len(f1.motifs)) == (5, 1, 4, 3, 8)

    def test_refine_above_the_level(self):
        fine = refine(self.f1, 6)
        assert fine == refine(self.f1.dense(), 6)
        assert tnorm_sq(fine) == Fraction(205889, 1032192) == tnorm_sq(self.f1)

    def test_equal_and_hash_to_the_dense_step(self):
        assert self.f1 == self.f1.dense() and self.f1.dense() == self.f1
        assert hash(self.f1) == hash(self.f1.dense())

    def test_equal_and_hash_of_one_shape_read_the_motifs(self, monkeypatch):
        f2 = split_pair(DyadicStep(1, ["1/2", "-1/3"]), 3).f2
        again = lin_comb(1, self.f1, 0, f2)  # f1, built anew in the shape f1 and f2 share
        monkeypatch.setattr(DyadicStep, "dense", lambda f: pytest.fail("expanded"))
        assert again == self.f1 and self.f1 != f2
        assert hash(again) == hash(self.f1)

    def test_project_between_the_coarse_and_the_period_level(self):
        assert dyadic_project(self.f1, 2) == dyadic_project(self.f1.dense(), 2)

    def test_masses_above_the_period_level_name_both_levels(self):
        assert [list(self.f1.masses(k)) for k in range(6)] == [list(self.f1.dense().masses(k)) for k in range(6)]
        with pytest.raises(ValueError, match="^masses at level 6 lie above the level 5$"):
            self.f1.masses(6)

    def test_weak_smallness_above_the_period_level(self):
        for depth in range(7):
            assert weak_smallness(self.f1, depth) == weak_smallness(self.f1.dense(), depth)

    def test_split_above_the_period_level(self):
        # the split of f1 at K = 4 reads its level-4 masses, above its period level
        got, dense = split_pair(self.f1, 4), split_pair(self.f1.dense(), 4)
        assert (got.b, got.c, got.f1, got.f2, got.tnorm_sq) == (dense.b, dense.c, dense.f1, dense.f2, dense.tnorm_sq)

    def test_periodic_center_with_a_functional_above_its_period_level(self):
        # a center of level 3 and period level 1 against a level-2 functional,
        # which pairs with the center's level-2 masses, above its period level
        f = near_unit_scale(DyadicStep.periodic(0, (0, 0, 0, 1), 2, 1), Fraction(1, 100))
        h = DyadicStep(2, ["-1/1", "0/1", "1/1", "-1/2"])
        got, dense = (d2p_witness(WeakNbhd(c, (h,), Fraction(1, 2)), Fraction(1, 2)) for c in (f, f.dense()))
        assert _json_text(got.to_json()) == _json_text(dense.to_json())
        assert got.checks["pairing_l"] == dense.checks["pairing_l"]


def verify_split(f, f1, f2):
    """`_verify_split` against the masses of f and |f| on the coarse cells of
    the split at K = level(f1) - 2, of level min(level(f), K)."""
    L = min(f.level, f1.level - 2)
    return _verify_split(f, f1, f2, f.masses(L), abs(f).masses(L))


def measured(f, f1, f2):
    """Every split check of f1, f2 against f, the failed ones too."""
    with patch.object(witness, "require", lambda what, checks: checks):
        return verify_split(f, f1, f2)[0]


def bump(p, j, value):
    """p with `value` added to entry j of its motifs, in every repeat."""
    motifs = [0] * len(p.motifs)
    motifs[j] = 1
    return lin_comb(1, p, value, DyadicStep.periodic(p.coarse, motifs, p.reps, 1))


def deviations(checks):
    return [checks[name].lhs for name in ("id5", "id6", "id7")]


class TestSplitCheck:
    F = mk(2, 1, Fraction(-1, 2), 3, 0)

    def test_correct_split_measures_zero_deviations(self):
        sp = split_pair(self.F, 3)
        assert deviations(sp.checks) == [0, 0, 0]
        assert sp.checks["linf4x"].lhs == max(norms(sp.f1).linf, norms(sp.f2).linf)
        assert all(chk.ok for chk in sp.checks.values())
        assert verify_split(self.F, sp.f1, sp.f2)[0] == sp.checks

    def test_wrong_f2_raises(self):
        sp = split_pair(self.F, 3)
        # extra mass 1/224 on the first cell of each of the two periods of
        # the first coarse cell, where f2 vanishes and f1 = 4: 1/112 in all
        wrong = bump(sp.f2, 0, Fraction(1, 7))
        with pytest.raises(RuntimeError, match=re.escape("split check failed: id5 (1/112 == 0/1)")):
            verify_split(self.F, sp.f1, wrong)
        checks = measured(self.F, sp.f1, wrong)
        assert deviations(checks) == [Fraction(1, 112)] * 3
        assert checks == dense_verify(self.F, 3, sp.f1.dense(), wrong.dense())[0]

    def test_wrong_f2_over_other_denominators(self):
        # values over 3 and 5: the center's lattice denominator is 15, that of
        # f1/f2 is 30, and the wrong f2 below needs 210
        center = mk(4, *[Fraction(x) for x in "1/3 1/3 1/5 0 0 0 0 -1/5 -2/3 0 0 0 1/5 0 0 1/3".split()])
        sp = split_pair(center, 1)
        assert (center.den, sp.f1.den, sp.f2.den) == (15, 30, 30)
        assert deviations(sp.checks) == [0, 0, 0]
        # f2 = 13/30 on cell (3, 3), the third entry of the first motif,
        # becomes -89/210: its mass moves by 6/7 / 8, its absolute mass by
        # (91 - 89)/210 / 8
        wrong = bump(sp.f2, 2, Fraction(-6, 7))
        assert wrong.den == 210
        with pytest.raises(RuntimeError, match=re.escape("split check failed: id5 (3/28 == 0/1)")):
            verify_split(center, sp.f1, wrong)
        checks = measured(center, sp.f1, wrong)
        assert deviations(checks) == [Fraction(3, 28), Fraction(1, 840), Fraction(1, 840)]
        assert checks == dense_verify(center, 1, sp.f1.dense(), wrong.dense())[0]

    def test_f2_equal_to_f1_fails_only_id7(self):
        # f1 - f1 = 0 has none of the doubled mass 2 |f| that id7 asks for,
        # while f1 alone matches f on (5) and (6): the deviation is largest
        # on [0, 1), 2 * l1(f) = 9/4
        sp = split_pair(self.F, 3)
        with pytest.raises(RuntimeError, match=re.escape("split check failed: id7 (9/4 == 0/1)")):
            verify_split(self.F, sp.f1, sp.f1)
        assert deviations(measured(self.F, sp.f1, sp.f1)) == [0, 0, Fraction(9, 4)]

    def test_witness_reports_the_measured_checks(self):
        center = near_unit_scale(self.F, Fraction(1, 10**4))
        rep = d2p_witness(WeakNbhd(center, (), Fraction(1, 2)), Fraction(1, 5))
        for name in ("id5", "id6", "id7", "linf4x"):
            assert rep.checks[name] == rep.pair.checks[name]


class TestNearUnitScale:
    def test_perfect_square_hits_exactly(self):
        # tnorm_sq of this vector is (49/32)^2; scaled by 16/49 it is exactly 1/4
        f = Fraction(16, 49) * mk(3, 0, 0, 0, 1, 1, 4, 1, 4)
        assert tnorm_sq(f) == Fraction(1, 4)
        scaled = near_unit_scale(f, Fraction(1, 100))
        assert scaled == 2 * f
        assert tnorm_sq(scaled) == 1

    def test_bracket(self):
        prec = Fraction(1, 10**4)
        for f in [mk(0, 1), mk(1, Fraction(1, 3), Fraction(-2, 5)), mk(2, 1, 0, 0, 1)]:
            g = near_unit_scale(f, prec)
            q = tnorm_sq(g)
            assert 1 - 3 * prec <= q <= 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            near_unit_scale(DyadicStep.zero(0), Fraction(1, 100))


class TestBestRationalLeqSqrt:
    @given(
        st.one_of(
            st.fractions(min_value=0, max_value=9, max_denominator=50),
            st.fractions(min_value=0, max_value=3, max_denominator=50).map(lambda r: r * r),
        ),
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=150)
    def test_matches_brute_force(self, x_sq, N):
        got = best_rational_leq_sqrt(x_sq, N)
        assert got.denominator <= N and got * got <= x_sq
        best = Fraction(0)
        for q in range(1, N + 1):
            # largest p with (p/q)^2 <= x_sq
            p = math.isqrt(x_sq.numerator * q * q // x_sq.denominator)
            while Fraction(p + 1, q) ** 2 <= x_sq:
                p += 1
            best = max(best, Fraction(p, q))
        assert got == best

    def test_exact_square(self):
        assert best_rational_leq_sqrt(Fraction(4), 10) == 2
        assert best_rational_leq_sqrt(Fraction(9, 4), 10) == Fraction(3, 2)

    @given(
        st.integers(min_value=0, max_value=10**40),
        st.integers(min_value=1, max_value=10**40),
        st.booleans(),
        st.integers(min_value=1, max_value=10**12),
    )
    @settings(max_examples=300)
    def test_matches_the_stern_brocot_search(self, num, den, square, N):
        # the search the continued-fraction walk replaced (`stern_brocot`)
        x_sq = Fraction(num, den) ** (2 if square else 1)
        assert best_rational_leq_sqrt(x_sq, N) == stern_brocot_leq_sqrt(x_sq, N)


class TestWeakNbhd:
    def test_functional_bound_enforced(self):
        with pytest.raises(ValueError):
            WeakNbhd(mk(0, 0), (mk(0, 2),), Fraction(1, 2))
        with pytest.raises(ValueError):
            WeakNbhd(mk(0, 0), (), Fraction(0))

    def test_membership(self):
        nb = WeakNbhd(mk(0, 0), (mk(0, 1),), Fraction(1, 2))
        assert nb.contains(mk(0, Fraction(1, 4)))
        assert not nb.contains(mk(0, 1))


unit_values = st.fractions(min_value=-1, max_value=1, max_denominator=8)


def old_contains(nbhd, g):
    """The former membership predicate: a dense g - f per functional."""
    return all(abs(pairing(g - nbhd.center, h)) < nbhd.delta for h in nbhd.functionals)


def old_pairing_l(nbhd, rep):
    """The former pairing_l lhs: max |<g - f, h>| over g1, g2 and every h."""
    return max(
        (abs(pairing(g.dense() - nbhd.center, h)) for h in nbhd.functionals for g in (rep.g1, rep.g2)),
        default=Fraction(0),
    )


class TestPairingCheck:
    """The pairing check evaluates <g, h> - <f, h>; it must equal the dense
    |<g - f, h>| of the former check exactly, for functionals at levels up
    to the split level K."""

    @given(
        steps(max_level=2),
        st.lists(steps(max_level=7, fractions=unit_values), max_size=3),
        st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_pairing_l_matches_the_dense_oracle(self, f, functionals, delta):
        assume(norms(f).l1 > 0)
        nbhd = WeakNbhd(near_unit_scale(f, Fraction(1, 10**4)), functionals, delta)
        try:
            rep = d2p_witness(nbhd, Fraction(1, 5))
        except GapConditionError:
            assume(False)
        assert all(h.level <= rep.K for h in functionals)
        assert rep.checks["pairing_l"].lhs == old_pairing_l(nbhd, rep)
        assert nbhd.contains(rep.g1.dense()) and nbhd.contains(rep.g2.dense())

    def test_deviation_pairs_the_center_once_per_functional(self, monkeypatch):
        from renorml1 import witness

        center = mk(1, 0, Fraction(1, 2))
        nbhd = WeakNbhd(center, (mk(0, 1), mk(1, 1, -1)), Fraction(1, 4))
        g1, g2 = center + mk(0, Fraction(1, 5)), center + mk(1, Fraction(1, 3), 0)
        calls = []
        monkeypatch.setattr(witness, "pairing", lambda f, h: calls.append(f) or pairing(f, h))
        # <g1 - f, h_l> is 1/5 and 0, <g2 - f, h_l> is 1/6 for both functionals
        assert nbhd.deviation(g1, g2) == Fraction(1, 5)
        assert [f is center for f in calls] == [True, False, False] * 2
        assert nbhd.deviation() == 0 and WeakNbhd(center, (), 1).deviation(g1) == 0

    def test_witness_pairs_the_center_once_per_functional(self, monkeypatch):
        # <g_i, h> is read off the motifs of the periodic g_i; the only dense
        # step paired is the center, once per functional
        from renorml1 import witness

        nbhd = WeakNbhd(near_unit_scale(mk(0, 1), Fraction(1, 10**4)), (mk(0, 1), mk(1, 1, 0)), Fraction(1, 10))
        calls = []
        monkeypatch.setattr(witness, "pairing", lambda f, h: calls.append((f, h)) or pairing(f, h))
        rep = d2p_witness(nbhd, Fraction(1, 5))
        dense = [(f is nbhd.center, h) for f, h in calls if f.reps == 1]
        assert dense == [(True, h) for h in nbhd.functionals]
        assert [h for _, h in calls] == [h for h in nbhd.functionals for _ in range(3)]
        assert rep.checks["pairing_l"].lhs == old_pairing_l(nbhd, rep)

    def test_contains_is_strict_at_the_boundary(self):
        center = mk(1, 0, Fraction(1, 2))
        nbhd = WeakNbhd(center, (mk(0, 1), mk(1, 1, -1)), Fraction(1, 4))
        for shift, inside in ((Fraction(1, 4), False), (Fraction(1, 5), True)):
            g = center + mk(0, shift)
            assert nbhd.contains(g) is inside and old_contains(nbhd, g) is inside

    @given(
        steps(max_level=3),
        st.lists(steps(max_level=4, fractions=unit_values), max_size=3),
        steps(max_level=5),
        st.fractions(min_value=-1, max_value=1, max_denominator=16),
        st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(2)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_contains_agrees_with_the_dense_predicate(self, center, functionals, p, t, delta):
        nbhd = WeakNbhd(center, functionals, delta)
        for g in (center, center + t * p, p):
            assert nbhd.contains(g) == old_contains(nbhd, g)


class TestWitness:
    def canonical_nbhd(self, delta=Fraction(1, 10)):
        center = near_unit_scale(mk(0, 1), Fraction(1, 10**4))
        return WeakNbhd(center, (mk(0, 1),), delta), center

    def test_reference_run(self):
        nbhd, center = self.canonical_nbhd()
        rep = d2p_witness(nbhd, Fraction(1, 5))
        assert rep.gamma == Fraction(1, 64)
        assert rep.K == 7
        r = center.values[0]
        assert rep.checks["pairing_l"].lhs == rep.gamma * r
        assert rep.checks["pairing_l"].lhs < Fraction(1, 10)
        assert rep.gap_sq > Fraction(81, 25)
        assert rep.gap_sq >= rep.guaranteed_gap_sq
        assert all(ch.ok for ch in rep.checks.values())
        assert tnorm_sq(rep.g1) < 1 and tnorm_sq(rep.g2) < 1
        assert nbhd.contains(rep.g1.dense()) and nbhd.contains(rep.g2.dense())
        assert rep.guaranteed_gap_sq == 4 * (1 - rep.gamma) ** 2 * (
            tnorm_sq(center) - Fraction(1, 1 << rep.K)
        )

    def test_no_functionals(self):
        center = near_unit_scale(mk(0, 1), Fraction(1, 10**4))
        rep = d2p_witness(WeakNbhd(center, (), Fraction(1, 10)), Fraction(1, 5))
        assert rep.gap_sq > Fraction(81, 25)

    def test_zero_center_fails_gap_condition(self):
        with pytest.raises(GapConditionError):
            d2p_witness(WeakNbhd(DyadicStep.zero(0), (), 1), Fraction(1, 5))

    def test_center_outside_ball_rejected(self):
        with pytest.raises(ValueError, match="unit ball"):
            d2p_witness(WeakNbhd(mk(0, 1), (), 1), Fraction(1, 5))

    def test_eps_at_least_two_needs_no_gap(self):
        center = Fraction(1, 2) * near_unit_scale(mk(0, 1), Fraction(1, 100))
        rep = d2p_witness(WeakNbhd(center, (), 1), Fraction(2))
        assert rep.checks["gap"].ok

    def test_report_json_shape(self):
        nbhd, _ = self.canonical_nbhd()
        obj = d2p_witness(nbhd, Fraction(1, 5)).to_json()
        assert set(obj["checks"]) == {
            "id5", "id6", "id7", "linf4x", "pairing_l", "ball", "gap",
        }
        for chk in obj["checks"].values():
            assert set(chk) == {"lhs", "rhs", "ok"}
            assert chk["ok"] is True


def assert_scaled_split(rep):
    """g_i is (1 - gamma) * f_i, down to the lattice `from_lattice` reduces
    from every numerator of the product."""
    p, q = (1 - rep.gamma).as_integer_ratio()
    for g, fi in ((rep.g1.dense(), rep.pair.f1.dense()), (rep.g2.dense(), rep.pair.f2.dense())):
        want = from_lattice(fi.level, [p * n for n in fi.motifs], q * fi.den)
        assert (g.level, g.motifs, g.den) == (want.level, want.motifs, want.den)


class TestWitnessFromFolds:
    """The witness reads ball, gap and pairing_l off the split check's one
    fold of each level-(K+2) mass stream; the dense functions on g1 and g2
    are the oracle."""

    @given(
        steps(max_level=3),
        st.lists(steps(max_level=6, fractions=unit_values), max_size=3),
        st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
        st.sampled_from([Fraction(1, 3), Fraction(1, 5), Fraction(1, 10), Fraction(2)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_checks_equal_the_dense_oracle(self, f, functionals, delta, eps):
        assume(norms(f).l1 > 0)
        nbhd = WeakNbhd(near_unit_scale(f, Fraction(1, 10**4)), functionals, delta)
        try:
            gamma = choose_gamma(norms(nbhd.center).linf, delta, eps)
            assume(choose_K(gamma, [h.level for h in functionals]) <= 9)
            rep = d2p_witness(nbhd, eps)
        except GapConditionError:
            assume(False)
        g1, g2 = rep.g1.dense(), rep.g2.dense()
        assert rep.ball_sq == (tnorm_sq(g1), tnorm_sq(g2))
        assert rep.gap_sq == tnorm_sq_diff(g1, g2) == tnorm_sq(g1 - g2)
        assert rep.checks["pairing_l"].lhs == nbhd.deviation(g1, g2)
        assert_scaled_split(rep)

    @pytest.mark.parametrize(
        "center, delta",
        [
            # 1 - gamma = 15/16 and f_i over 3 with heights 8 and -4: g_i over 4
            (mk(1, Fraction(2, 3), Fraction(-1, 3)), Fraction(1, 2)),
            (mk(2, Fraction(6, 7), 0, Fraction(-3, 7), Fraction(2, 7)), Fraction(1, 2)),
            (mk(2, Fraction(4, 5), Fraction(-4, 5), 0, Fraction(2, 5)), Fraction(1, 10)),
            (mk(0, Fraction(1, 3)), Fraction(1, 2)),
        ],
    )
    def test_g_is_the_scaled_split(self, center, delta):
        assert_scaled_split(d2p_witness(WeakNbhd(center, (), delta), 2))

    def test_folds_do_not_grow_with_K(self, monkeypatch):
        # no fold of a level-(K+2) stream: the longest list folded is the
        # split's motifs, 4 per cell of the level-2 center, at K = 9 and 13
        from renorml1 import dyadic, renorm

        center = near_unit_scale(mk(2, 1, Fraction(-1, 2), 3, 0), Fraction(1, 10**4))
        nbhd = WeakNbhd(center, (mk(1, 1, -1), mk(2, 0, 1, 0, -1)), Fraction(1, 10))
        real, lengths = dyadic.mass_levels, []
        for eps, K in ((Fraction(1, 5), 9), (Fraction(1, 1000), 13)):
            folded = []
            for module in (dyadic, renorm, witness):
                monkeypatch.setattr(module, "mass_levels", lambda ms: folded.append(len(ms)) or real(ms))
            assert d2p_witness(nbhd, eps).K == K
            lengths.append(folded)
        assert lengths[0] == lengths[1]
        assert max(lengths[0]) == 4 << center.level

    def test_no_dense_expansion(self, monkeypatch):
        # the witness, both probes and their reports read the motifs only:
        # every expansion of a periodic step goes through `dense`
        real = DyadicStep.dense

        def dense(p):
            if p.reps > 1:
                raise AssertionError("a periodic step was expanded")
            return real(p)

        monkeypatch.setattr(DyadicStep, "dense", dense)
        center = near_unit_scale(mk(2, 1, Fraction(-1, 2), 3, 0), Fraction(1, 10**4))
        nbhd = WeakNbhd(center, (mk(1, 1, -1), mk(2, 0, 1, 0, -1)), Fraction(1, 10))
        wit = strong_extreme_failure(nbhd, Fraction(1, 100))
        _json_text(wit.report.to_json())
        _json_text(wit.to_json())
        slice_diameter_lb(nbhd.center, nbhd.functionals, nbhd.delta, [Fraction(1, 5), Fraction(1, 10)])

    def test_no_dense_product_builds_g1_or_g2(self, monkeypatch):
        # g_i = (1 - gamma) * f_i is read off the split, never multiplied out
        # densely: only the products of periodic motifs are allowed
        center = near_unit_scale(mk(2, 1, Fraction(-1, 2), 3, 0), Fraction(1, 10**4))
        nbhd = WeakNbhd(center, (mk(1, 1, -1), mk(2, 0, 1, 0, -1)), Fraction(1, 10))
        real, products = DyadicStep.__mul__, []

        def counted(f, c):
            if f.reps == 1:
                products.append(f.level)
            return real(f, c)

        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(DyadicStep, name, counted)
        d2p_witness(nbhd, Fraction(1, 5))
        slice_diameter_lb(nbhd.center, nbhd.functionals, nbhd.delta, [Fraction(1, 5), Fraction(1, 10)])
        assert products == []
        Fraction(1, 2) * center  # the guard sees a product
        assert products == [center.level]


class TestGapFromLattices:
    """The witness gap T(g1 - g2)**2, read off the fold of |f1 - f2|, must
    equal tnorm_sq of the dense step g1 - g2; `tnorm_sq_diff` must equal it
    from the lattices of f and g alone."""

    @given(
        steps(max_level=3),
        st.lists(steps(max_level=3, fractions=unit_values), max_size=2),
        st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]),
        st.sampled_from([Fraction(1, 5), Fraction(1, 10), Fraction(1, 3)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_gap_equals_the_dense_tnorm_sq(self, f, functionals, delta, eps):
        assume(norms(f).l1 > 0)
        nbhd = WeakNbhd(near_unit_scale(f, Fraction(1, 10**4)), functionals, delta)
        try:
            gamma = choose_gamma(norms(nbhd.center).linf, delta, eps)
            assume(choose_K(gamma, [h.level for h in functionals]) <= 8)
            rep = d2p_witness(nbhd, eps)
        except GapConditionError:
            assume(False)
        assert rep.K <= 8
        assert rep.gap_sq == tnorm_sq(rep.g1.dense() - rep.g2.dense())

    @given(steps(max_level=5), steps(max_level=5))
    @settings(max_examples=100, deadline=None)
    def test_tnorm_sq_diff_equals_tnorm_sq_of_the_difference(self, f, g):
        assert tnorm_sq_diff(f, g) == tnorm_sq(f - g)
        assert tnorm_sq_diff(f, f) == 0


def functional(k: int) -> DyadicStep:
    """A fixed functional of level k with linf <= 1."""
    return from_lattice(k, [(7 * j) % 5 - 2 for j in range(1 << k)], 2)


class TestPeriodicAgainstTheDenseSplit:
    """The periodic split against the dense one it replaced (`dense_split`),
    for centers of level <= 5 and K <= 10: every measured value, every
    lattice and every report byte."""

    @given(steps(max_level=5), st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_split_equals_the_dense_oracle(self, f, K):
        sp, dense = split_pair(f, K), dense_split(f, K)
        assert sp.checks == dense.checks  # lhs, rhs and outcome of each
        assert sp.tnorm_sq == dense.tnorm_sq
        for part in ("b", "c", "f1", "f2"):
            mine, want = getattr(sp, part).dense(), getattr(dense, part)
            assert (mine.level, mine.motifs, mine.den) == (want.level, want.motifs, want.den)
        for k in range(K + 1):
            h = functional(k)
            assert (pairing(sp.f1, h), pairing(sp.f2, h)) == dense.pairings(h)

    @given(steps(max_level=4), st.integers(min_value=0, max_value=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_tampered_motifs_measure_like_the_dense_oracle(self, f, K, data):
        sp = split_pair(f, K)
        j = data.draw(st.integers(min_value=0, max_value=len(sp.f2.motifs) - 1))
        value = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=7))
        wrong = bump(sp.f2, j, value)
        dense_checks, dense_norms, _ = dense_verify(f, K, sp.f1.dense(), wrong.dense())
        assert measured(f, sp.f1, wrong) == dense_checks
        with patch.object(witness, "require", lambda what, checks: checks):
            assert verify_split(f, sp.f1, wrong)[1] == dense_norms

    @given(
        steps(max_level=5),
        st.lists(steps(max_level=3, fractions=unit_values), max_size=2),
        st.sampled_from([Fraction(1, 5), Fraction(1, 10), Fraction(1, 50)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_reports_render_as_json_dumps_of_the_dense_form(self, f, functionals, eps):
        assume(norms(f).l1 > 0)
        nbhd = WeakNbhd(near_unit_scale(f, Fraction(1, 10**4)), functionals, Fraction(1, 2))
        try:
            gamma = choose_gamma(norms(nbhd.center).linf, nbhd.delta, eps)
            assume(choose_K(gamma, [h.level for h in functionals]) <= 10)
            wit = strong_extreme_failure(nbhd, eps)
        except GapConditionError:
            assume(False)
        assert _json_text(wit.report.to_json()) == json.dumps(dense_witness_json(nbhd, eps), indent=2) + "\n"
        assert _json_text(wit.to_json()) == json.dumps(dense_extreme_json(nbhd, eps), indent=2) + "\n"
