import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renorml1 import (
    DyadicStep,
    WeakNbhd,
    midpoint_defect,
    near_unit_scale,
    norms,
    perturbation_l1_chain,
    reflect,
    slice_diameter_lb,
    strong_extreme_failure,
    tnorm_sq,
    weak_smallness,
)
from renorml1 import probes
from renorml1.dyadic import MAX_LEVEL, DyadicIndex, LevelOverflowError, integral_over
from renorml1.gen import rademacher
from renorml1.probes import slice_csv
from conftest import mk, steps


class TestMidpointDefect:
    def test_examples(self):
        f = mk(2, 1, Fraction(1, 2), -3, 0)
        assert midpoint_defect(f, f) == 0
        assert midpoint_defect(mk(1, 1, 0), mk(1, 0, 1)) == Fraction(1, 28)
        assert midpoint_defect(f, 3 * f) == tnorm_sq(f)

    @given(steps(max_level=2), steps(max_level=2))
    @settings(max_examples=60)
    def test_nonnegative_zero_iff_equal(self, f, g):
        d = midpoint_defect(f, g)
        assert d >= 0
        assert (d == 0) == (f == g)

    @given(steps(max_level=3))
    @settings(max_examples=40)
    def test_reflection_pairs(self, f):
        d = midpoint_defect(f, reflect(f))
        if f == reflect(f):
            assert d == 0
        else:
            assert d > 0


class TestStrongExtremeFailure:
    def test_reference_run(self):
        center = near_unit_scale(mk(0, 1), Fraction(1, 10**4))
        nbhd = WeakNbhd(center, (mk(0, 1),), Fraction(1, 10))
        wit = strong_extreme_failure(nbhd, Fraction(1, 5))
        assert wit.ball_check_sq[0] < 1 and wit.ball_check_sq[1] < 1
        c, u = wit.center.dense(), wit.u.dense()
        assert tnorm_sq(c + u) == wit.ball_check_sq[0]
        assert tnorm_sq(c - u) == wit.ball_check_sq[1]
        # l1(u) = (1 - gamma) l1(f): the perturbation is not small
        assert wit.l1_of_u == wit.l1_floor
        assert wit.l1_of_u == Fraction(63, 64) * norms(center).l1
        assert wit.l1_of_u > Fraction(9, 10)

    def test_ball_check_is_the_witness_own(self, monkeypatch):
        center = near_unit_scale(mk(1, 1, Fraction(1, 2)), Fraction(1, 10**4))
        nbhd = WeakNbhd(center, (mk(1, 1, -1),), Fraction(1, 10))

        def no_own_tnorm(f):
            raise AssertionError("strong_extreme_failure evaluated tnorm_sq itself")

        monkeypatch.setattr("renorml1.probes.tnorm_sq", no_own_tnorm)
        wit = strong_extreme_failure(nbhd, Fraction(1, 5))
        rep = wit.report
        g1, g2 = rep.g1.dense(), rep.g2.dense()
        assert wit.ball_check_sq == (tnorm_sq(g1), tnorm_sq(g2))
        center, u = wit.center.dense(), wit.u.dense()
        assert (center + u, center - u) == (g1, g2)

    def test_zero_center_propagates(self):
        from renorml1 import GapConditionError

        with pytest.raises(GapConditionError):
            strong_extreme_failure(
                WeakNbhd(DyadicStep.zero(0), (), 1), Fraction(1, 5)
            )

    def test_no_functionals(self):
        center = near_unit_scale(mk(0, 1), Fraction(1, 10**4))
        wit = strong_extreme_failure(WeakNbhd(center, (), 1), Fraction(1, 5))
        assert wit.l1_of_u == (1 - wit.report.gamma) * norms(center).l1
        assert wit.l1_of_u > Fraction(8, 10)


class TestPerturbationChain:
    def test_example(self):
        rep = perturbation_l1_chain(mk(0, 1), mk(2, 4, 0, 0, 0), [(2, 1)])
        assert rep.lhs == Fraction(7, 4)
        assert rep.rhs == Fraction(3, 2)
        assert rep.int_a_abs_g == 1 and rep.int_a_abs_f == Fraction(1, 4)

    def test_zero_g(self):
        f = mk(1, 2, -1)
        rep = perturbation_l1_chain(f, DyadicStep.zero(0), [(1, 2)])
        assert rep.lhs == norms(f).l1
        assert rep.rhs == norms(f).l1 - 2 * rep.int_a_abs_f

    def test_empty_A(self):
        f, g = mk(1, 1, -2), mk(1, 3, 1)
        rep = perturbation_l1_chain(f, g, [])
        assert rep.rhs == norms(f).l1
        assert rep.lhs >= rep.rhs

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            perturbation_l1_chain(mk(0, 1), mk(0, 1), [(1, 1), (2, 2)])

    def test_cell_above_the_cap_raises_before_integrating(self, monkeypatch):
        # a level-10**10 integral would need a 10**10-bit denominator (1.25 GB)
        monkeypatch.setattr(probes, "_cell_integral", lambda f, k, j: pytest.fail("integrated"))
        f = mk(0, 1)
        with pytest.raises(LevelOverflowError, match=f"cell level {10**10} exceeds cap {MAX_LEVEL}"):
            perturbation_l1_chain(f, f, [(10**10, 1)])
        with pytest.raises(LevelOverflowError):
            perturbation_l1_chain(f, f, [(0, 1), (MAX_LEVEL + 1, 1)])

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 8)).filter(lambda c: c[1] <= 1 << c[0]), max_size=6))
    @settings(max_examples=200)
    def test_overlap_check_matches_every_pair(self, A):
        # the sorted pass refuses exactly the lists that have an overlapping
        # pair, and names one such pair in list order
        cells = [DyadicIndex(*c) for c in A]
        pairs = [(a, b) for i, a in enumerate(cells) for b in cells[i + 1 :] if a.overlaps(b)]
        f = mk(1, 1, -2)
        try:
            perturbation_l1_chain(f, f, A)
        except ValueError as exc:
            named = re.fullmatch(r"indices \((\d+), (\d+)\) and \((\d+), (\d+)\) overlap", str(exc))
            a, b = DyadicIndex(*map(int, named.groups()[:2])), DyadicIndex(*map(int, named.groups()[2:]))
            assert (a, b) in pairs
        else:
            assert not pairs

    def test_every_cell_of_level_15(self):
        # one pass over the sorted cells, not one comparison per pair
        A = [(15, j) for j in range(1 << 15, 0, -1)]
        f, g = mk(1, 1, -2), mk(2, 1, 0, 3, -1)
        rep = perturbation_l1_chain(f, g, A)
        assert (rep.int_a_abs_f, rep.int_a_abs_g) == (norms(f).l1, norms(g).l1)

    @given(steps(max_level=3), steps(max_level=3), st.data())
    @settings(max_examples=60)
    def test_random(self, f, g, data):
        k = data.draw(st.integers(min_value=0, max_value=3))
        count = data.draw(st.integers(min_value=0, max_value=1 << k))
        cells = [(k, j) for j in range(1, count + 1)]
        rep = perturbation_l1_chain(f, g, cells)
        assert rep.ok and rep.lhs >= rep.rhs


class TestWeakSmallness:
    def test_examples(self):
        u = mk(1, 1, -1)
        assert weak_smallness(u, 0) == 0
        assert weak_smallness(u, 1) == Fraction(1, 2)

    def test_rademacher(self):
        for n in (3, 5):
            u = rademacher(n)
            assert weak_smallness(u, n - 1) == 0
            assert norms(u).l1 == 1
            assert weak_smallness(u, n) == Fraction(1, 1 << n)

    @given(steps(max_level=3), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40)
    def test_bounded_by_l1(self, u, D):
        assert weak_smallness(u, D) <= norms(u).l1

    @given(steps(max_level=4), st.data())
    @settings(max_examples=60)
    def test_matches_per_cell_brute_force(self, u, data):
        depth = data.draw(st.integers(min_value=0, max_value=u.level + 3))
        brute = max(
            abs(integral_over(u, DyadicIndex(k, j)))
            for k in range(depth + 1)
            for j in range(1, (1 << k) + 1)
        )
        assert weak_smallness(u, depth) == brute


class TestSliceDiameter:
    def test_schedule(self):
        center = near_unit_scale(mk(0, 1), Fraction(1, 10**4))
        entries = slice_diameter_lb(
            center,
            [mk(0, 1)],
            Fraction(1),
            [Fraction(1, 5), Fraction(1, 10), Fraction(1, 100)],
        )
        gaps = [e.gap_sq for e in entries]
        assert all(e.ok for e in entries)
        assert gaps[0] < gaps[1] < gaps[2] <= 4
        for e in entries:
            assert e.gap_sq > (2 - e.eps) ** 2

    def test_eps_two_trivial(self):
        center = Fraction(1, 2) * near_unit_scale(mk(0, 1), Fraction(1, 100))
        entries = slice_diameter_lb(center, [], Fraction(1), [Fraction(2)])
        assert entries[0].ok and entries[0].gap_sq >= 0

    def test_failed_entry_reported_not_raised(self):
        entries = slice_diameter_lb(
            DyadicStep.zero(0), [], Fraction(1), [Fraction(1, 5)]
        )
        assert not entries[0].ok and entries[0].gap_sq is None
        assert "2**-K" in entries[0].error

    def test_float_eps_rejected(self):
        center = near_unit_scale(mk(0, 1), Fraction(1, 10**4))
        with pytest.raises(TypeError, match="exact rational"):
            slice_diameter_lb(center, [], Fraction(1), [0.5])

    def test_csv_shape(self):
        center = near_unit_scale(mk(0, 1), Fraction(1, 10**4))
        entries = slice_diameter_lb(center, [], Fraction(1), [Fraction(1, 5)])
        text = slice_csv(entries, 6)
        lines = text.strip().split("\n")
        assert lines[0] == "eps,gap_sq,gap_float"
        eps, gap_sq, gap_float = lines[1].split(",")
        assert eps == "1/5"
        assert "/" in gap_sq
        assert Fraction(gap_sq) > Fraction(9, 5) ** 2
        assert gap_float.startswith("1.8")
