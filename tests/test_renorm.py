from fractions import Fraction
from itertools import combinations
from operator import mul

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
    renorm,
    tail_formula,
    tnorm_sq,
    triangle_equality_case,
)
from renorml1.checks import Check
from renorml1.dyadic import dyadic_project, integral_over, mass_levels, norms, pairing, to_frac
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
        assert integral_over(abs(f), (1, 1)) == 1
        assert integral_over(abs(f), (1, 2)) == 0
        assert integral_over(abs(mk(0, 1)), (3, 5)) == Fraction(1, 8)

    @given(steps())
    def test_level_zero_is_l1(self, f):
        assert integral_over(abs(f), (0, 1)) == norms(f).l1


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


def equivalence_checks(f):
    """The three checks of `check_equivalence`, measured independently."""
    lsq, t = norms(f).l1 ** 2, tnorm_sq(f)
    return {
        "lower": Check(lsq, t, "<=", lsq <= t),
        "upper": Check(t, 2 * lsq, "<=", t <= 2 * lsq),
        "sharp": Check(t, Fraction(4, 3) * lsq, "<=", t <= Fraction(4, 3) * lsq),
    }


class TestEquivalence:
    @pytest.mark.parametrize("f", [mk(0, 1), mk(1, 2, 0), DyadicStep.zero(1)])
    def test_examples(self, f):
        eq = check_equivalence(f)
        assert eq == equivalence_checks(f) and all(c.ok for c in eq.values())
        lsq, t = eq["lower"].lhs, eq["lower"].rhs
        assert lsq <= t <= 2 * lsq

    @given(steps())
    def test_bounds(self, f):
        eq = check_equivalence(f)
        assert eq == equivalence_checks(f)
        assert eq["lower"].ok and eq["upper"].ok and eq["sharp"].ok
        lsq, t = eq["lower"].lhs, eq["lower"].rhs
        assert t <= Fraction(4, 3) * lsq

    def test_report_reads_the_checks(self):
        rep = norm_report(mk(1, 2, 0))
        assert rep.equivalence == equivalence_checks(mk(1, 2, 0))
        assert rep.tnorm_sq == rep.equivalence["upper"].lhs and rep.equiv_ok is True

    def test_report_reads_norms_once(self, monkeypatch):
        calls = []
        real = renorm.norms
        monkeypatch.setattr(renorm, "norms", lambda f: calls.append(f) or real(f))
        rep = norm_report(mk(1, 2, 0))
        assert calls == [mk(1, 2, 0)]
        assert rep.equivalence == equivalence_checks(mk(1, 2, 0)) and (rep.l1, rep.linf) == (1, 2)

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


# -- dual-norm oracles ----------------------------------------------------------


def dense_q(L):
    """The matrix Q of `dual_norm_estimate`, entry by entry: 8 on the
    diagonal, plus 7 * 4**(L-k) for each level k < L on which cells i and j
    lie in one cell."""
    n = 1 << L
    return [
        [(8 if i == j else 0) + sum(7 * 4 ** (L - k) for k in range(L) if i >> (L - k) == j >> (L - k)) for j in range(n)]
        for i in range(n)
    ]


def gauss_solve(A, b):
    """x with A x = b for a nonsingular A, by Fraction Gaussian elimination."""
    n = len(b)
    rows = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(A, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                t = rows[r][col] / rows[col][col]
                rows[r] = [x - t * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def brute_dual_sq(h, L):
    """max of 7 * 4**L * c . u over every support S whose solution u of
    Q_SS u_S = c_S is >= 0. The minimizer of u^T Q u / 2 - c . u over u >= 0
    is the solution on its own support, and every other such u has the
    objective -c . u / 2 >= the minimum, so the largest c . u is the one."""
    c = [abs(v) for v in dyadic_project(h, L).values]
    Q = dense_q(L)
    best = Fraction(0)
    for r in range(1, len(c) + 1):
        for S in combinations(range(len(c)), r):
            u = gauss_solve([[Q[i][j] for j in S] for i in S], [c[i] for i in S])
            if min(u) >= 0:
                best = max(best, 7 * 4**L * sum(c[i] * x for i, x in zip(S, u)))
    return best


def ascent_lower_sq(h, L, tol=Fraction(1, 10**9), max_iter=400):
    """The projected ascent that `dual_norm_estimate` ran before its exact
    solve, kept as a lower-bound oracle: the exact squared ratio of its last
    iterate, whose steps are rounded by `limit_denominator(1 << 48)`."""
    tol = to_frac(tol)
    hL = dyadic_project(h, L)
    c = [abs(v) / (1 << L) for v in hL.values]
    sigma = [1 if v > 0 else (-1 if v < 0 else 0) for v in hL.values]
    if all(x == 0 for x in c):
        return Fraction(0)

    def grad(uf):
        levels = mass_levels(uf.motifs)
        g = [n << 4 for n in next(levels)]
        for k, masses in zip(range(L - 1, -1, -1), levels):
            w, shift = 14 << 2 * (L - k), L - k
            for i in range(len(g)):
                g[i] += w * masses[i >> shift]
        return [Fraction(x, 7 * uf.den << 4 * L) for x in g]

    def ratio(u):
        p = sum((ci * ui for ci, ui in zip(c, u)), Fraction(0))
        return p * p / tnorm_sq(DyadicStep(L, tuple(u)))

    u, step = list(c), Fraction(1)
    r = ratio(u)
    for _ in range(max_iter):
        uf = DyadicStep(L, tuple(u))
        q = tnorm_sq(uf)
        p = sum((ci * ui for ci, ui in zip(c, u)), Fraction(0))
        d = [2 * ci * q - p * gi for ci, gi in zip(c, grad(uf))]
        d = [di if (ui > 0 or di > 0) else Fraction(0) for ui, di in zip(u, d)]
        if all(di == 0 for di in d):
            break
        scale = max(abs(di) for di in d)
        d = [di / scale for di in d]
        improved = done = False
        t = step
        for _ in range(40):
            cand = [max(Fraction(0), ui + t * di) for ui, di in zip(u, d)]
            cand = [x.limit_denominator(1 << 48) for x in cand]
            if any(x > 0 for x in cand):
                rc = ratio(cand)
                if rc > r:
                    done = (rc - r) / r < tol
                    u, r, step, improved = cand, rc, t * 2, True
                    break
            t /= 2
        if not improved or done:
            break
    f_star = DyadicStep(L, tuple(s * x for s, x in zip(sigma, u)))
    return pairing(f_star, h) ** 2 / tnorm_sq(f_star)


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

    def test_drops_a_cell(self):
        # the full support solves to u = (893, -691) / 12800: one drop, then u = (1/36, 0)
        est = dual_norm_estimate(mk(1, 1, Fraction(1, 100)), 1)
        assert est.iterations == 2 and est.converged
        assert est.maximizer == mk(1, Fraction(1, 36), 0)
        assert est.lower_sq == Fraction(7, 9) == est.pairing_sq / est.tnorm_sq
        assert est.checks["dual_feasible"].lhs > 0

    @settings(max_examples=60, deadline=None)
    @given(steps(), st.integers(0, 2))
    def test_kkt_certificate_holds(self, h, extra):
        L = h.level + extra
        est = dual_norm_estimate(h, L)
        assert est.converged and list(est.checks) == ["nonneg", "stationary", "dual_feasible", "attained"]
        assert est.checks["attained"] == Check(est.lower_sq * est.tnorm_sq, est.pairing_sq, "==", True)
        hL = dyadic_project(h, L).values
        assert est.maximizer.level == L
        assert all(x * y >= 0 for x, y in zip(est.maximizer.values, hL))
        # Q u = c on the support of u and Q u >= c off it, on the dense Q
        u, c = [abs(x) for x in est.maximizer.values], [abs(y) for y in hL]
        Qu = [sum(map(mul, row, u), Fraction(0)) for row in dense_q(L)]
        assert all(q == ci if x else q >= ci for x, q, ci in zip(u, Qu, c))
        assert est.lower_sq == 7 * 4**L * sum(map(mul, c, u))
        if est.tnorm_sq:
            assert est.lower_sq == est.pairing_sq / est.tnorm_sq

    @settings(max_examples=60, deadline=None)
    @given(steps(max_level=2), st.integers(0, 2))
    def test_equals_the_best_support(self, h, L):
        L = max(L, h.level)
        assert dual_norm_estimate(h, L).lower_sq == brute_dual_sq(h, L)

    @settings(max_examples=60, deadline=None)
    @given(steps(max_level=2), st.integers(0, 3))
    def test_never_below_the_ascent(self, h, L):
        L = max(L, h.level)
        assert dual_norm_estimate(h, L).lower_sq >= ascent_lower_sq(h, L)
