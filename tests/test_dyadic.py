import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renorml1 import (
    MAX_LEVEL,
    DyadicIndex,
    DyadicStep,
    LevelOverflowError,
    decompose,
    dyadic_project,
    indicator,
    integral_over,
    lin_comb,
    norms,
    pairing,
    refine,
    reflect,
    step_from_json,
    tnorm_sq,
)
from renorml1.cli import _json_chunks
from renorml1.dyadic import (
    _new,
    _plain_ratio,
    decimal_str,
    frac_str,
    ratio_str,
    sqrt_floor_decimal,
    steps_to_json,
    to_frac,
)
from conftest import mk, steps


class TestRefine:
    def test_constant(self):
        assert refine(mk(0, 1), 1) == mk(1, 1, 1)
        assert refine(mk(0, 1), 1).values == (1, 1)

    def test_cell_duplication(self):
        assert refine(mk(1, 2, 0), 2).values == (2, 2, 0, 0)

    def test_identity(self):
        f = mk(1, 2, 0)
        assert refine(f, 1) is f

    def test_downward_rejected(self):
        with pytest.raises(ValueError):
            refine(mk(1, 2, 0), 0)

    def test_overflow(self):
        with pytest.raises(LevelOverflowError):
            refine(mk(0, 1), MAX_LEVEL + 1)

    @pytest.mark.parametrize("make", [DyadicStep.zero, lambda k: indicator((k, 1))])
    @pytest.mark.parametrize("level", [MAX_LEVEL + 1, 62])
    def test_constructors_check_the_level_before_allocating(self, make, level):
        # 2**62 cells could never be allocated: a MemoryError, not the cap
        with pytest.raises(LevelOverflowError, match=f"level {level} exceeds cap"):
            make(level)

    @given(steps(), st.integers(min_value=0, max_value=3), st.data())
    def test_preserves_all_integrals(self, f, bump, data):
        g = refine(f, f.level + bump)
        k = data.draw(st.integers(min_value=0, max_value=6))
        j = data.draw(st.integers(min_value=1, max_value=1 << k))
        assert integral_over(g, (k, j)) == integral_over(f, (k, j))


class TestLinComb:
    def test_examples(self):
        assert lin_comb(1, mk(1, 1, 0), 1, mk(1, 0, 1)) == mk(1, 1, 1)
        assert lin_comb(2, mk(0, 1), -1, mk(1, 1, 3)) == mk(1, 1, -1)
        f, g = mk(1, 3, -2), mk(2, 1, 1, 0, 4)
        assert lin_comb(0, f, 0, g).is_zero()

    def test_operator_sugar_matches(self):
        f, g = mk(1, 3, -2), mk(2, 1, 1, 0, 4)
        assert f + g == lin_comb(1, f, 1, g)
        assert f - g == lin_comb(1, f, -1, g)
        assert 3 * f == lin_comb(3, f, 0, g)


class TestDecompose:
    def test_example(self):
        a, p, n = decompose(mk(1, 2, -3))
        assert a == mk(1, 2, 3) and p == mk(1, 2, 0) and n == mk(1, 0, 3)

    def test_nonnegative(self):
        f = mk(1, 2, 1)
        a, p, n = decompose(f)
        assert p == f and n.is_zero()

    def test_zero(self):
        a, p, n = decompose(DyadicStep.zero(2))
        assert a.is_zero() and p.is_zero() and n.is_zero()

    @given(steps())
    def test_consistency(self, f):
        a, p, n = decompose(f)
        assert p - n == f
        assert p + n == a
        assert all(x * y == 0 for x, y in zip(p.values, n.values))


class TestIntegralOver:
    def test_examples(self):
        assert integral_over(mk(1, 2, 0), (0, 1)) == 1
        assert integral_over(mk(2, 4, 0, 0, 0), (1, 1)) == 1
        assert integral_over(mk(0, 1), (3, 5)) == Fraction(1, 8)

    def test_deep_cells_are_fine(self):
        assert integral_over(mk(0, 1), (30, 5)) == Fraction(1, 2**30)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            integral_over(mk(0, 1), (1, 3))
        with pytest.raises(ValueError):
            integral_over(mk(0, 1), (-1, 1))

    @given(steps(), st.data())
    def test_block_additivity(self, f, data):
        k = data.draw(st.integers(min_value=0, max_value=4))
        j = data.draw(st.integers(min_value=1, max_value=1 << k))
        m = k + data.draw(st.integers(min_value=1, max_value=3))
        span = 1 << (m - k)
        parts = sum(
            (integral_over(f, (m, i)) for i in range((j - 1) * span + 1, j * span + 1)),
            Fraction(0),
        )
        assert parts == integral_over(f, (k, j))


class TestNorms:
    @pytest.mark.parametrize(
        "f,l1,linf",
        [
            (mk(1, 2, 0), 1, 2),
            (mk(1, 1, -1), 1, 1),
            (DyadicStep.zero(1), 0, 0),
        ],
    )
    def test_examples(self, f, l1, linf):
        assert norms(f) == (l1, linf)


class TestPairing:
    def test_examples(self):
        assert pairing(mk(1, 1, -1), mk(1, 1, 1)) == 0
        assert pairing(mk(0, 2), mk(1, 1, 0)) == 1
        f = mk(2, 3, -1, 2, 7)
        assert pairing(f, mk(0, 1)) == integral_over(f, (0, 1))

    @given(steps(), steps())
    def test_hoelder(self, f, h):
        assert abs(pairing(f, h)) <= norms(f).l1 * norms(h).linf

    @given(steps(), steps(), steps())
    def test_bilinear(self, f, g, h):
        assert pairing(f + g, h) == pairing(f, h) + pairing(g, h)
        assert pairing(h, f + g) == pairing(h, f) + pairing(h, g)


class TestProject:
    def test_examples(self):
        assert dyadic_project(mk(2, 4, 0, 0, 0), 1) == mk(1, 2, 0)
        f = mk(1, 1, -1)
        assert dyadic_project(f, 1) == f
        assert dyadic_project(f, 0) == mk(0, 0)

    @given(steps(), st.integers(min_value=0, max_value=4), st.data())
    def test_idempotent_and_contracting(self, f, K, data):
        p = dyadic_project(f, K)
        assert dyadic_project(p, K) == p
        assert norms(p).l1 <= norms(f).l1
        # so the level-K dual norm of a functional of level <= K is its full one
        assert tnorm_sq(p) <= tnorm_sq(f)
        h = data.draw(steps(max_level=min(K, 3)))
        assert pairing(p, h) == pairing(f, h)

    @given(steps(), st.integers(min_value=0, max_value=4), st.data())
    def test_preserves_coarse_integrals(self, f, K, data):
        p = dyadic_project(f, K)
        k = data.draw(st.integers(min_value=0, max_value=K))
        j = data.draw(st.integers(min_value=1, max_value=1 << k))
        assert integral_over(p, (k, j)) == integral_over(f, (k, j))


class TestReflect:
    def test_examples(self):
        assert reflect(mk(1, 3, 7)) == mk(1, 7, 3)

    @given(steps())
    def test_involution_and_isometry(self, f):
        assert reflect(reflect(f)) == f
        assert norms(reflect(f)) == norms(f)


def canonical(f: DyadicStep) -> DyadicStep:
    """The coarsest dense representation of f (merge equal sibling cells)."""
    level, nums = f.level, f.dense().motifs
    while level > 0 and nums[::2] == nums[1::2]:
        nums, level = nums[::2], level - 1
    return _new(level, level, nums, 1, f.den)


class TestEqualityAndCanonical:
    def test_equality_across_levels(self):
        assert mk(0, 5) == mk(2, 5, 5, 5, 5)
        assert mk(1, 1, 2) != mk(1, 2, 1)

    @given(steps())
    def test_canonical_roundtrip(self, f):
        c = canonical(f)
        assert c == f
        assert c.level <= f.level
        assert hash(c) == hash(f)


class TestJson:
    def test_roundtrip(self):
        f = mk(1, Fraction(-3, 4), 2)
        obj = json.loads("".join(_json_chunks(steps_to_json(f)[0])))
        assert obj == {"level": 1, "values": ["-3/4", "2/1"]}
        assert step_from_json(json.loads(json.dumps(obj))) == f

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            step_from_json({"level": 1, "values": ["1/2"]})

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            step_from_json({"level": 0, "values": ["1/0"]})

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            DyadicStep(0, (0.5,))


class TestRendering:
    @settings(max_examples=300)
    @given(st.integers(), st.integers(min_value=1))
    def test_ratio_str_is_frac_str_of_the_fraction(self, n, d):
        assert ratio_str(n, d) == frac_str(Fraction(n, d))
        assert ratio_str(0, d) == "0/1" and ratio_str(-n, d) == frac_str(Fraction(-n, d))

    @settings(max_examples=300)
    @given(st.fractions(min_value=0), st.integers(min_value=0, max_value=40))
    def test_sqrt_floor_decimal_truncates_the_root(self, x, digits):
        s = sqrt_floor_decimal(x, digits)
        ip, _, fp = s.partition(".")
        assert len(fp) == digits and ip.isdecimal() and (not fp or fp.isdecimal())
        root = int(ip + fp)  # floor(sqrt(x) * 10**digits)
        assert root * root <= x * 100**digits < (root + 1) ** 2

    @settings(max_examples=500)
    @given(st.from_regex(r"-?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True) | st.text(max_size=12))
    def test_plain_ratio_parse_equals_fraction(self, text):
        plain = _plain_ratio(text)
        if re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", text):
            assert plain == Fraction(text) == to_frac(text)
            assert (plain.numerator, plain.denominator) == Fraction(text).as_integer_ratio()
        else:
            assert plain is None

    def test_invalid_literal_is_named_by_its_start(self):
        for text, shown in (("x" * 5000, "x" * 21 + "..."), ("1/-2", "1/-2"), ("1/" + "0" * 30, "1/" + "0" * 19 + "...")):
            with pytest.raises(ValueError) as err:
                to_frac(text)
            assert repr(shown) in str(err.value) and len(str(err.value)) < 60

    def test_integers_at_the_digit_limit_parse(self):
        nines = "9" * 4300
        assert to_frac(f"1/{nines}") == Fraction(1, 10**4300 - 1)
        assert to_frac(f"-{nines}") == -(10**4300 - 1)
        assert to_frac(f"1.{'0' * 4299}1") == 1 + Fraction(1, 10**4300)
        # the integer and fractional digits of a decimal are two ints
        assert to_frac(f"{'3' * 3000}.{'3' * 3000}") == int("3" * 3000) + Fraction(int("3" * 3000), 10**3000)
        # underscores are not digits
        assert to_frac("1/" + "1_" * 4299 + "1") == Fraction(1, int("1" * 4300))
        for text in (f"1/9{nines}", f"9{nines}", f"0.{nines}1", f"9{nines}/1", "1/" + "1_" * 4300 + "1"):
            with pytest.raises(ValueError, match="more than 4300 digits in one integer"):
                to_frac(text)

    def test_the_input_cap_does_not_follow_the_process_limit(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # no limit
        try:
            with pytest.raises(ValueError, match="more than 4300 digits in one integer"):
                to_frac("1/" + "1" * 4301)
        finally:
            sys.set_int_max_str_digits(old)


class TestRenderingPastTheDigitLimit:
    """frac_str, ratio_str and decimal_str write ints of any size, exactly
    as str() does with Python's int-string limit lifted."""

    BIG = [10**4300, -(7 * 10**9999 + 12345), 7 * (10**4301 - 1) // 9, 3**20000, 10**600 * (10**600 + 1)]

    def unlimited(self, text_of):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return text_of()
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("n", BIG, ids=range(len(BIG)))
    def test_frac_and_ratio_str(self, n):
        x = Fraction(n, 3**9001)
        want = self.unlimited(lambda: f"{x.numerator}/{x.denominator}")
        assert frac_str(x) == ratio_str(n * 5, 5 * 3**9001) == want

    @pytest.mark.parametrize("n", BIG[:1] + BIG[2:], ids=range(len(BIG) - 1))
    def test_decimal_str(self, n):
        x = Fraction(n, 7)
        want = self.unlimited(lambda: f"{n // 7}.{(n * 10**20 // 7) % 10**20:020d}")
        assert decimal_str(x, 20) == want
        assert decimal_str(x, 0) == self.unlimited(lambda: str(n // 7))


class TestIndex:
    def test_validate_never_builds_the_cell_count(self):
        # a cell of level 10**10 is checked without 1 << 10**10 (1.25 GB)
        assert DyadicIndex(10**10, 1).validate() == (10**10, 1)
        for k, j in ((0, 2), (3, 9), (3, 0), (10**10, 0)):
            with pytest.raises(ValueError, match="out of range"):
                DyadicIndex(k, j).validate()
        assert DyadicIndex(3, 8).validate() == (3, 8)

    def test_measure(self):
        cell = DyadicIndex(3, 5)
        assert (cell.left, cell.right) == (Fraction(1, 2), Fraction(5, 8))
        assert cell.right - cell.left == Fraction(1, 8)
