from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renorml1 import (
    DyadicStep,
    check_equivalence,
    dual_norm_estimate,
    norm_report,
    partial_below,
    refine,
    reflect,
    seminorm,
    tail_formula,
    tnorm_sq,
    triangle_equality_case,
)
from renorml1.dyadic import integral_over, norms, pairing
from conftest import mk, steps


def truncated_series(f, T):
    """Independent oracle: literal term-by-term partial sum of the series."""
    g = abs(f)
    total = Fraction(0)
    for k in range(T):
        total += sum(
            (integral_over(g, (k, j)) ** 2 for j in range(1, (1 << k) + 1)),
            Fraction(0),
        ) / 4**k
    return total


class TestSeminorm:
    def test_examples(self):
        f = mk(1, 2, 0)
        assert seminorm(f, (1, 1)) == 1
        assert seminorm(f, (1, 2)) == 0
        assert seminorm(mk(0, 1), (3, 5)) == Fraction(1, 8)

    @given(steps())
    def test_level_zero_is_l1(self, f):
        assert seminorm(f, (0, 1)) == norms(f).l1


class TestTnormSq:
    def test_constant_is_8_7(self):
        assert tnorm_sq(mk(0, 1)) == Fraction(8, 7)
        # truncated series converges to it from below
        partials = [truncated_series(mk(0, 1), T) for T in (1, 5, 13)]
        assert partials[0] < partials[1] < partials[2] < Fraction(8, 7)
        assert Fraction(8, 7) - partials[2] == tail_formula(mk(0, 1), 13)

    def test_examples(self):
        assert tnorm_sq(mk(1, 2, 0)) == Fraction(9, 7)
        assert tnorm_sq(DyadicStep.zero(2)) == 0
        assert tnorm_sq(mk(1, 1, -1)) == Fraction(8, 7)
        assert tnorm_sq(reflect(mk(1, 2, 0))) == Fraction(9, 7)

    @given(steps())
    def test_zero_iff_zero(self, f):
        assert (tnorm_sq(f) == 0) == f.is_zero()

    @given(steps())
    def test_abs_and_reflect_invariance(self, f):
        t = tnorm_sq(f)
        assert tnorm_sq(abs(f)) == t
        assert tnorm_sq(reflect(f)) == t

    @given(steps(), st.fractions(min_value=-4, max_value=4, max_denominator=8))
    def test_homogeneity(self, f, c):
        assert tnorm_sq(c * f) == c * c * tnorm_sq(f)

    @given(steps(), st.integers(min_value=0, max_value=2))
    def test_refinement_invariance(self, f, bump):
        assert tnorm_sq(refine(f, f.level + bump)) == tnorm_sq(f)


class TestTail:
    def test_examples(self):
        one = mk(0, 1)
        assert tail_formula(one, 0) == Fraction(8, 7)
        assert tail_formula(one, 1) == Fraction(8, 7) - 1
        assert tail_formula(DyadicStep.zero(1), 9) == 0

    def test_precondition(self):
        with pytest.raises(ValueError):
            tail_formula(mk(1, 1, 0), 0)

    @given(steps(), st.integers(min_value=0, max_value=6))
    def test_exact_tail_identity(self, f, bump):
        T = f.level + bump
        assert partial_below(f, T) + tail_formula(f, T) == tnorm_sq(f)

    @given(steps(), st.integers(min_value=0, max_value=4))
    def test_partial_matches_series_oracle(self, f, T):
        assert partial_below(f, T) == truncated_series(f, T)


class TestEquivalence:
    @pytest.mark.parametrize("f", [mk(0, 1), mk(1, 2, 0), DyadicStep.zero(1)])
    def test_examples(self, f):
        rep = check_equivalence(f)
        assert rep.ok
        assert rep.l1_sq <= rep.tnorm_sq <= 2 * rep.l1_sq

    @given(steps())
    def test_bounds(self, f):
        rep = check_equivalence(f)
        assert rep.lower_ok and rep.upper_ok and rep.sharp_ok
        assert rep.tnorm_sq <= Fraction(4, 3) * rep.l1_sq

    def test_report_json(self):
        rep = norm_report(mk(0, 1), float_digits=6)
        obj = rep.to_json()
        assert obj["tnorm_sq"] == "8/7"
        assert obj["l1"] == "1/1"
        assert obj["linf"] == "1/1"
        assert obj["equiv_ok"] is True
        assert obj["tnorm_float"] == "1.069044"  # sqrt(8/7) truncated


def equality_oracle(f, g):
    """Norm-route oracle: T(f+g) = T(f)+T(g) iff D >= 0 and D^2 = 4 T(f) T(g)."""
    D = tnorm_sq(f + g) - tnorm_sq(f) - tnorm_sq(g)
    return D >= 0 and D * D == 4 * tnorm_sq(f) * tnorm_sq(g)


class TestTriangleEqualityCase:
    def test_proportional(self):
        f = mk(1, 1, -1)
        case = triangle_equality_case(f, 2 * f)
        assert case.is_degenerate and case.ratio == Fraction(1, 2)

    def test_examples(self):
        assert triangle_equality_case(mk(1, 1, 0), mk(1, 0, 1)).tag == "Strict"
        assert triangle_equality_case(mk(1, 1, 1), mk(1, 1, -1)).tag == "Strict"
        case = triangle_equality_case(mk(1, 1, -1), mk(1, 2, -2))
        assert case.is_degenerate and case.ratio == Fraction(1, 2)

    def test_zero_conventions(self):
        zero = DyadicStep.zero(0)
        both = triangle_equality_case(zero, zero)
        assert both.is_degenerate and both.ratio == 0 and both.zero_operand
        right = triangle_equality_case(mk(0, 1), zero)
        assert right.tag == "Strict" and right.zero_operand
        left = triangle_equality_case(zero, mk(0, 1))
        assert left.is_degenerate and left.ratio == 0 and not left.zero_operand

    @given(steps(max_level=2), steps(max_level=2))
    @settings(max_examples=60)
    def test_against_norm_oracle(self, f, g):
        case = triangle_equality_case(f, g)
        expected = equality_oracle(f, g) and not (g.is_zero() and not f.is_zero())
        assert case.is_degenerate == expected

    @given(steps(max_level=2), st.fractions(min_value=0, max_value=4, max_denominator=8))
    @settings(max_examples=60)
    def test_constructed_proportional(self, g, t):
        case = triangle_equality_case(t * g, g)
        if g.is_zero():
            assert case.tag == "Degenerate" and case.zero_operand
        else:
            assert case.is_degenerate and case.ratio == t


class TestDualNormEstimate:
    def test_constant_functional(self):
        est = dual_norm_estimate(mk(0, 1), 2)
        assert est.lower_sq == Fraction(7, 8)
        assert est.converged
        assert est.pairing_sq == est.lower_sq * est.tnorm_sq

    def test_zero(self):
        est = dual_norm_estimate(DyadicStep.zero(1), 2)
        assert est.lower_sq == 0 and est.maximizer.is_zero()

    def test_odd_functional(self):
        h = mk(1, 1, -1)
        est = dual_norm_estimate(h, 1)
        # symmetric optimum: odd maximizer, value^2 = 7/8
        assert est.lower_sq == Fraction(7, 8)
        v = est.maximizer.values
        assert v[0] == -v[1] and v[0] > 0

    def test_level_below_the_functional_rejected(self):
        h = mk(2, 1, Fraction(1, 3), 0, Fraction(-2, 5))
        with pytest.raises(ValueError, match="dual-norm level L = 1 is below the level 2 of h"):
            dual_norm_estimate(h, 1)
        assert dual_norm_estimate(h, 2).lower_sq > 0

    def test_certificate_is_exact(self):
        h = mk(2, 1, Fraction(1, 3), 0, Fraction(-2, 5))
        est = dual_norm_estimate(h, 2)
        got = pairing(est.maximizer, h)
        assert got * got == est.pairing_sq
        assert tnorm_sq(est.maximizer) == est.tnorm_sq
        assert est.lower_sq == est.pairing_sq / est.tnorm_sq
        # never exceeds the easy upper bound linf(h)^2
        assert est.lower_sq <= norms(h).linf ** 2
