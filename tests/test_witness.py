import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
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
    split_pair,
    tnorm_sq,
)
from renorml1.dyadic import DyadicIndex, abs_diff_masses, from_lattice, indicator, integral_over, lattice, refine
from renorml1.renorm import tnorm_sq_diff
from renorml1.witness import _level_K_masses, _verify_split
from conftest import mk, steps


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


class TestChooseK:
    def test_examples(self):
        assert choose_K(Fraction(1, 64), [3, 1]) == 7
        assert choose_K(Fraction(1, 2), [0]) == 2
        assert choose_K(Fraction(1, 4), [5]) == 5

    def test_strictness(self):
        K = choose_K(Fraction(1, 64), [])
        assert Fraction(1, 1 << K) < Fraction(1, 64) <= Fraction(1, 1 << (K - 1))


class TestSplitPair:
    def test_constant(self):
        sp = split_pair(mk(0, 1), 0)
        assert sp.f1 == mk(2, 4, 0, 0, 0)
        assert sp.f2 == mk(2, 0, 0, 4, 0)
        assert sp.b == (1,) and sp.c == (0,)

    def test_signed(self):
        sp = split_pair(mk(1, 1, -1), 1)
        assert sp.f1 == mk(3, 4, 0, 0, 0, 0, -4, 0, 0)
        assert sp.f2 == mk(3, 0, 0, 4, 0, 0, 0, 0, -4)
        assert sp.b == (Fraction(1, 2), 0)
        assert sp.c == (0, Fraction(1, 2))

    def test_zero(self):
        sp = split_pair(DyadicStep.zero(1), 2)
        assert sp.f1.is_zero() and sp.f2.is_zero()

    def test_pairings_read_the_split_masses(self):
        sp = split_pair(mk(1, 1, -1), 1)
        for h in (mk(0, 1), mk(1, 1, Fraction(1, 2))):
            assert sp.pairings(h) == (pairing(sp.f1, h), pairing(sp.f2, h))
        with pytest.raises(ValueError, match="functional level 2 exceeds the split's K = 1"):
            sp.pairings(mk(2, 1, 0, 0, 1))

    @given(steps(max_level=3), st.integers(min_value=0, max_value=4))
    @settings(max_examples=50)
    def test_identities_every_cell(self, f, K):
        sp = split_pair(f, K)  # internal verification re-runs (5)-(7)
        af = abs(f)
        for k in range(K + 1):
            for j in range(1, (1 << k) + 1):
                cell = (k, j)
                assert integral_over(sp.f1, cell) == integral_over(f, cell)
                assert integral_over(sp.f2, cell) == integral_over(f, cell)
                assert integral_over(abs(sp.f1), cell) == integral_over(af, cell)
                assert integral_over(abs(sp.f2), cell) == integral_over(af, cell)
                assert integral_over(abs(sp.f1 - sp.f2), cell) == 2 * integral_over(af, cell)
        assert norms(sp.f1).linf <= 4 * norms(f).linf
        assert norms(sp.f2).linf <= 4 * norms(f).linf
        assert norms(sp.f1).l1 == norms(f).l1 == norms(sp.f2).l1

    @given(steps(max_level=2), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40)
    def test_pairing_with_level_K_indicators_vanishes(self, f, K):
        sp = split_pair(f, K)
        for j in range(1, (1 << K) + 1):
            ind = indicator(DyadicIndex(K, j))
            assert pairing(sp.f1 - f, ind) == 0
            assert pairing(sp.f2 - f, ind) == 0

    @given(steps(max_level=2), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40)
    def test_tail_bounds_inside_ball(self, f, K):
        l1 = norms(f).l1
        if l1 > 1:
            f = f * Fraction(1, math.ceil(l1))
        sp = split_pair(f, K)
        two_K = Fraction(1, 1 << K)
        assert tnorm_sq(sp.f1) <= tnorm_sq(f) + two_K
        assert tnorm_sq(sp.f2) <= tnorm_sq(f) + two_K
        assert tnorm_sq(sp.f1 - sp.f2) >= 4 * (tnorm_sq(f) - two_K)


def verify_split(f, K, f1, f2):
    """The split check of f1, f2 against the center f at level K."""
    return _verify_split(f, K, _level_K_masses(f, K), f1, f2)


class TestSplitCheck:
    F = mk(2, 1, Fraction(-1, 2), 3, 0)

    def test_correct_split_measures_zero_deviations(self):
        sp = split_pair(self.F, 3)
        assert [sp.checks[name].lhs for name in ("id5", "id6", "id7")] == [0, 0, 0]
        assert sp.checks["linf4x"].lhs == max(norms(sp.f1).linf, norms(sp.f2).linf)
        assert all(chk.ok for chk in sp.checks.values())
        assert verify_split(self.F, 3, sp.f1, sp.f2).checks == sp.checks

    def test_wrong_f2_raises(self):
        sp = split_pair(self.F, 3)
        # extra mass 1/224 on a cell where f2 vanishes and f1 = 4
        wrong = sp.f2 + indicator((5, 1), Fraction(1, 7))
        with pytest.raises(RuntimeError, match="id5=1/224, id6=1/224, id7=1/224"):
            verify_split(self.F, 3, sp.f1, wrong)

    def test_wrong_f2_over_other_denominators(self):
        # values over 3 and 5: the center's lattice denominator is 15, that of
        # f1/f2 is 30, and the wrong f2 below needs 210
        center = mk(4, *[Fraction(x) for x in "1/3 1/3 1/5 0 0 0 0 -1/5 -2/3 0 0 0 1/5 0 0 1/3".split()])
        sp = split_pair(center, 1)
        assert (lattice(center)[1], lattice(sp.f1)[1], lattice(sp.f2)[1]) == (15, 30, 30)
        assert [sp.checks[name].lhs for name in ("id5", "id6", "id7")] == [0, 0, 0]
        # f2 = 13/30 on cell (3, 3) becomes -89/210: its mass moves by 6/7 / 8,
        # its absolute mass by (91 - 89)/210 / 8
        wrong = sp.f2 + indicator((3, 3), Fraction(-6, 7))
        assert lattice(wrong)[1] == 210
        with pytest.raises(RuntimeError, match=r"level 1 \(id5=3/28, id6=1/840, id7=1/840\)"):
            verify_split(center, 1, sp.f1, wrong)

    def test_f2_equal_to_f1_fails_only_id7(self):
        # f1 - f1 = 0 has none of the doubled mass 2 |f| that id7 asks for,
        # while f1 alone matches f on (5) and (6)
        sp = split_pair(self.F, 3)
        with pytest.raises(RuntimeError, match=r"level 3 \(id5=0/1, id6=0/1, id7=3/4\)"):
            verify_split(self.F, 3, sp.f1, sp.f1)

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
        st.fractions(min_value=0, max_value=9, max_denominator=50),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=80)
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
        (abs(pairing(g - nbhd.center, h)) for h in nbhd.functionals for g in (rep.g1, rep.g2)),
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
        assert nbhd.contains(rep.g1) and nbhd.contains(rep.g2)

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
        # <g_i, h> comes from the split check's masses of f_i; only <f, h> is paired
        from renorml1 import witness

        nbhd = WeakNbhd(near_unit_scale(mk(0, 1), Fraction(1, 10**4)), (mk(0, 1), mk(1, 1, 0)), Fraction(1, 10))
        calls = []
        monkeypatch.setattr(witness, "pairing", lambda f, h: calls.append((f, h)) or pairing(f, h))
        rep = d2p_witness(nbhd, Fraction(1, 5))
        assert [(f is nbhd.center, h) for f, h in calls] == [(True, h) for h in nbhd.functionals]
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
        assert nbhd.contains(rep.g1) and nbhd.contains(rep.g2)
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
    for g, fi in ((rep.g1, rep.pair.f1), (rep.g2, rep.pair.f2)):
        want = from_lattice(fi.level, [p * n for n in fi.nums], q * fi.den)
        assert (g.level, g.nums, g.den) == (want.level, want.nums, want.den)


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
        g1, g2 = rep.g1, rep.g2
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

    def test_each_level_K_plus_2_stream_is_folded_once(self, monkeypatch):
        # f1, f2, |f1|, |f2| and |f1 - f2|: a second fold of g1 or g2 fails here
        from renorml1 import dyadic, renorm, witness

        center = near_unit_scale(mk(2, 1, Fraction(-1, 2), 3, 0), Fraction(1, 10**4))
        nbhd = WeakNbhd(center, (mk(1, 1, -1), mk(2, 0, 1, 0, -1)), Fraction(1, 10))
        real, lengths = dyadic.mass_levels, []
        for module in (dyadic, renorm, witness):
            monkeypatch.setattr(module, "mass_levels", lambda ms: lengths.append(len(ms)) or real(ms))
        rep = d2p_witness(nbhd, Fraction(1, 5))
        assert max(lengths) == 1 << rep.K + 2
        assert lengths.count(1 << rep.K + 2) == 5


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
        assert rep.gap_sq == tnorm_sq(rep.g1 - rep.g2)

    @given(steps(max_level=5), steps(max_level=5))
    @settings(max_examples=100, deadline=None)
    def test_tnorm_sq_diff_equals_tnorm_sq_of_the_difference(self, f, g):
        assert tnorm_sq_diff(f, g) == tnorm_sq(f - g)
        assert tnorm_sq_diff(f, f) == 0
        L, D, masses = abs_diff_masses(f, g)
        assert L == max(f.level, g.level)
        assert [Fraction(m, D) for m in masses] == [abs(v) / (1 << L) for v in refine(f - g, L).values]
