from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renorml1 import (
    CapacityError,
    DyadicStep,
    LevelOverflowError,
    ScheduleInfeasibleError,
    Spike,
    combo_l1,
    disjoint_spike_family,
    dual_segment,
    ell1_bounds,
    greedy_asymptotic_ell1,
    nonsmooth_pairings,
    norms,
    octahedral_direction,
    pairing,
    refine,
)
from conftest import mk, steps

small = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def l1_of_combination(members, alphas):
    """Dense-route oracle (only valid when the levels fit under the cap)."""
    acc = DyadicStep.zero()
    for a, s in zip(alphas, members):
        acc = acc + a * s.as_step()
    return norms(acc).l1


class TestOctahedralDirection:
    def test_constant_member(self):
        y = octahedral_direction([mk(0, 1)], Fraction(1, 2))
        assert y.level == 2
        assert y == mk(2, 4, 0, 0, 0)
        # spot check x = 1, alpha = -1/4
        x = mk(0, 1)
        alpha = Fraction(-1, 4)
        lhs = norms(x + alpha * y).l1
        assert lhs == Fraction(3, 4)
        assert lhs >= Fraction(1, 2) * (1 + Fraction(1, 4))

    def test_empty_span(self):
        assert octahedral_direction([], Fraction(1, 2)) == mk(0, 1)

    def test_level_formula(self):
        y = octahedral_direction([mk(1, 1, -1)], Fraction(1, 4))
        assert y.level == 4
        assert y.values[0] == 16

    def test_unit_norm(self):
        y = octahedral_direction([mk(2, 1, 0, 3, -1)], Fraction(1, 8))
        assert norms(y).l1 == 1

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            octahedral_direction([mk(0, 1)], Fraction(3, 2))

    @given(
        st.lists(steps(max_level=3), min_size=1, max_size=3),
        st.sampled_from([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]),
        st.lists(small, min_size=3, max_size=3),
    )
    @settings(max_examples=50)
    def test_guarantee_at_breakpoints(self, E, eps, coeffs):
        y = octahedral_direction(E, eps)
        K = y.level
        x = DyadicStep.zero()
        for c, e in zip(coeffs, E):
            x = x + c * e
        l1x = norms(x).l1
        v_first = refine(x, K).values[0]
        breakpoints = [Fraction(0), -v_first / (1 << K)]
        for alpha in breakpoints:
            assert norms(x + alpha * y).l1 >= (1 - eps) * (l1x + abs(alpha))
        # slopes at +-infinity are both eps > 0, so the breakpoints suffice
        assert eps > 0


class TestGreedyFamily:
    def test_reference(self):
        fam = greedy_asymptotic_ell1(
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)], 3
        )
        # eps_i = min(deltas[:i]) * 2**-(i+1) = 1/8, 1/32, 1/128
        assert fam.eps_schedule == (
            Fraction(1, 8),
            Fraction(1, 32),
            Fraction(1, 128),
        )
        # levels L + 1 + ceil(log2(1/eps)): 0, 0+1+5, 6+1+7
        assert [s.level for s in fam.members] == [0, 6, 14]
        assert all(s.l1 == 1 for s in fam.members)
        # alpha = (1, -1, 0): |1 - 64|/64 + 63/64 = 63/32
        val = combo_l1(fam.members, [1, -1, 0])
        assert val == Fraction(63, 32)
        assert val >= (1 - Fraction(1, 2)) * 2

    def test_matches_octahedral_direction_when_dense(self):
        fam = greedy_asymptotic_ell1([Fraction(1, 2), Fraction(1, 4)], 2)
        dense = octahedral_direction(
            [fam.members[0].as_step()], fam.eps_schedule[1]
        )
        assert fam.members[1].as_step() == dense

    def test_single_member(self):
        fam = greedy_asymptotic_ell1([Fraction(1, 2)], 1)
        b = ell1_bounds(fam, [Fraction(-3, 2)])
        assert b.value == Fraction(3, 2)
        assert b.lower == Fraction(3, 4) and b.upper == Fraction(3, 2)

    def test_one_hot(self):
        fam = greedy_asymptotic_ell1(
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)], 3
        )
        for k in range(3):
            alphas = [Fraction(0)] * 3
            alphas[k] = Fraction(7, 3)
            assert combo_l1(fam.members, alphas) == Fraction(7, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            greedy_asymptotic_ell1([Fraction(1, 2)], 2)
        with pytest.raises(ValueError):
            greedy_asymptotic_ell1([Fraction(1, 4), Fraction(1, 2)], 2)
        with pytest.raises(ValueError):
            greedy_asymptotic_ell1([Fraction(3, 2)], 1)

    @given(st.lists(small, min_size=3, max_size=3))
    @settings(max_examples=60)
    def test_eq15_bounds(self, alphas):
        fam = greedy_asymptotic_ell1(
            [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)], 3
        )
        b = ell1_bounds(fam, alphas)
        assert b.lower <= b.value <= b.upper

    @given(st.lists(small, min_size=2, max_size=2))
    @settings(max_examples=40)
    def test_combo_matches_dense_route(self, alphas):
        fam = greedy_asymptotic_ell1([Fraction(1, 2), Fraction(1, 4)], 2)
        assert combo_l1(fam.members, alphas) == l1_of_combination(fam.members, alphas)

    def test_product_condition_is_checked(self):
        from renorml1.ell1 import check_product_condition

        # the built-in schedule always satisfies the condition
        fam = greedy_asymptotic_ell1([Fraction(1, 2), Fraction(1, 4)], 2)
        check_product_condition(fam.eps_schedule, fam.deltas, 2)
        # a hand-made lazy schedule does not, and the failing k is named
        with pytest.raises(ScheduleInfeasibleError, match="k = 2"):
            check_product_condition(
                [Fraction(1, 100), Fraction(1, 4)],
                [Fraction(1, 2), Fraction(1, 4)],
                2,
            )


class TestDisjointFamily:
    def test_reference(self):
        fam = disjoint_spike_family([Fraction(1, 2), Fraction(1, 3)], 2, 2)
        assert fam.members[0].as_step() == mk(2, 2, 0, 0, 0)
        assert fam.members[1].as_step() == mk(2, 0, Fraction(8, 3), 0, 0)
        assert combo_l1(fam.members, [1, 1]) == Fraction(7, 6)
        assert combo_l1(fam.members, [1, -1]) == Fraction(7, 6)
        for s, d in zip(fam.members, fam.deltas):
            assert s.l1 == 1 - d

    def test_capacity(self):
        with pytest.raises(CapacityError):
            disjoint_spike_family([Fraction(1, 2)] * 5, 5, 2)

    @pytest.mark.parametrize("build", [greedy_asymptotic_ell1, lambda ds, m: disjoint_spike_family(ds, m, 3)])
    @pytest.mark.parametrize(
        "deltas, m, message",
        [
            ([Fraction(1, 2)], 0, "need m >= 1 members"),
            ([Fraction(1, 2)], 2, "need at least m = 2 deltas, got 1"),
            (["1/2", "3/2"], 2, r"deltas must lie in \(0, 1\), got 3/2"),
            ([Fraction(0)], 1, r"deltas must lie in \(0, 1\), got 0"),
        ],
    )
    def test_both_families_check_deltas_alike(self, build, deltas, m, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(deltas, m)

    @given(st.lists(small, min_size=3, max_size=3))
    @settings(max_examples=60)
    def test_lower_bound_with_equality(self, alphas):
        fam = disjoint_spike_family(
            [Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)], 3, 2
        )
        b = ell1_bounds(fam, alphas)
        assert b.value == b.lower
        if any(a != 0 for a in alphas):
            assert b.value < b.upper


class TestDualSegment:
    def test_reference(self):
        fam = disjoint_spike_family([Fraction(1, 2), Fraction(1, 3)], 2, 2)
        pair = dual_segment(fam)
        assert pair.xstar == mk(2, 1, 1, 0, 0)
        assert pair.ystar == mk(2, -1, 1, 0, 0)
        assert norms(pair.xstar).linf == 1
        assert norms(pair.ystar).linf == 1
        assert norms(Fraction(1, 2) * (pair.xstar + pair.ystar)).linf == 1
        assert norms(pair.xstar - pair.ystar).linf == 2
        assert pair.pairings[0] == (Fraction(1, 2), Fraction(-1, 2))
        assert pair.pairings[1] == (Fraction(2, 3), Fraction(2, 3))

    def test_requires_supports(self):
        fam = greedy_asymptotic_ell1([Fraction(1, 2), Fraction(1, 4)], 2)
        with pytest.raises(ValueError, match="supports"):
            dual_segment(fam)

    def test_requires_two_members(self):
        fam = disjoint_spike_family([Fraction(1, 2)], 1, 2)
        with pytest.raises(ValueError, match="two members"):
            dual_segment(fam)

    def test_odd_member_count(self):
        fam = disjoint_spike_family(
            [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)], 3, 2
        )
        pair = dual_segment(fam)
        assert norms(Fraction(1, 2) * (pair.xstar + pair.ystar)).linf == 1


class TestNonsmooth:
    def test_reference_gap(self):
        fam = disjoint_spike_family([Fraction(1, 2), Fraction(1, 3)], 2, 2)
        rep = nonsmooth_pairings(fam, dual_segment(fam))
        assert rep.gaps == (Fraction(7, 6),)
        assert rep.rows[0][1] == -(1 - Fraction(1, 2))
        assert rep.rows[0][2] == 1 - Fraction(1, 3)

    def test_gaps_approach_two(self):
        deltas = [Fraction(1, 2**n) for n in range(1, 9)]
        fam = disjoint_spike_family(deltas, 8, 3)
        rep = nonsmooth_pairings(fam, dual_segment(fam))
        gaps = rep.gaps
        assert all(a < b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == 2 - deltas[7] - deltas[6]
        assert 2 - gaps[-1] < Fraction(1, 32)

    def test_single_member_empty(self):
        fam = disjoint_spike_family([Fraction(1, 2), Fraction(1, 3)], 2, 2)
        pair = dual_segment(fam)
        solo = disjoint_spike_family([Fraction(1, 2)], 1, 2)
        rep = nonsmooth_pairings(solo, pair)
        assert rep.rows == ()


class TestSpike:
    def test_dense_cap(self):
        tall = Spike(25, 1, Fraction(1 << 25))
        assert tall.l1 == 1
        with pytest.raises(LevelOverflowError):
            tall.as_step()

    def test_pairing_against_dense(self):
        s = Spike(2, 3, Fraction(5, 2))
        assert pairing(s.as_step(), mk(0, 1)) == s.l1 * (1 if s.height > 0 else -1)
