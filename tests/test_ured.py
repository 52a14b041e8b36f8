import json
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renorml1 import (
    SparseSeq,
    projection_tail,
    segment_check,
    ured_recursion,
    verify_claim,
)
from renorml1.dyadic import frac_str
from renorml1.ured import _claims

EPS3 = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def oracle_checks(run) -> dict:
    """The recursion checks as ured_recursion evaluated them pair by pair
    before the one-pass rewrite: O(steps**3)."""
    z, xs, xstars, eps, steps = run.z, run.xs, run.xstars, run.eps, run.steps
    return {
        "claim1": {
            "values": [frac_str((z + x).sup_norm()) for x in xs],
            "ok": all((z + x).sup_norm() < 1 for x in xs),
        },
        "claim2": {
            "ok": all(
                xs[m].get(xstars[n - 1]) == xs[n].get(xstars[n - 1])
                and xs[n].get(xstars[n - 1]) > 1 - eps[n - 1]
                for n in range(1, steps + 1)
                for m in range(n, steps + 1)
            ),
        },
    }


def oracle_verify(run) -> dict:
    """The report verify_claim built pair by pair before the one-pass
    rewrite, returned whether or not its claims hold: O(steps**3)."""
    n_steps = run.steps
    claim1 = all((run.z + x).sup_norm() < 1 for x in run.xs)
    claim2 = all(
        run.xs[m].get(run.xstars[n - 1]) == run.xs[n].get(run.xstars[n - 1]) == 1 - run.eps[n - 1] / 4
        and run.xs[n].get(run.xstars[n - 1]) > 1 - run.eps[n - 1]
        for n in range(1, n_steps + 1)
        for m in range(n, n_steps + 1)
    )
    half_z = Fraction(1, 2) * run.z
    halfway = all(
        (half_z + run.xs[m]).sup_norm() >= 1 - run.eps[n - 1]
        for n in range(1, n_steps + 1)
        for m in range(n, n_steps + 1)
    )
    doubled_vals = [(2 * x + run.z).sup_norm() for x in run.xs]
    doubled = doubled_vals[0] == 1 - run.delta and all(
        doubled_vals[n] == 2 * (1 - run.eps[n - 1] / 4) for n in range(1, n_steps + 1)
    )
    return {
        "claim1": claim1,
        "claim2": claim2,
        "half_z_norming": halfway,
        "doubled_norm": {
            "values": [frac_str(v) for v in doubled_vals],
            "ok": doubled,
        },
        "ok": claim1 and claim2 and halfway and doubled,
    }


@st.composite
def runs(draw, max_steps=12):
    """ured_recursion on a random delta in (0, 1) and a random
    non-increasing eps schedule in (0, 2)."""
    delta = draw(st.fractions(min_value=0, max_value=1, max_denominator=50).filter(lambda d: 0 < d < 1))
    eps = draw(
        st.lists(
            st.fractions(min_value=0, max_value=2, max_denominator=64).filter(lambda e: 0 < e < 2),
            max_size=max_steps,
        )
    )
    eps.sort(reverse=True)
    return ured_recursion(delta, eps, len(eps))


@st.composite
def tampered_runs(draw):
    """A run with one coordinate of one x_m set to a new value (0 deletes
    it), with one norming index shifted, or built by hand on a permuted
    eps schedule, which ured_recursion would reject."""
    run = draw(runs())
    how = draw(st.sampled_from(["coordinate", "xstars", "eps order"]))
    if how == "eps order":
        eps = draw(st.permutations(run.eps))
        xs = [SparseSeq.zero()]
        for n, e in enumerate(eps, 1):
            xs.append(xs[-1] + SparseSeq.unit(n + 1, 1 - e / 4))
        return replace(run, eps=tuple(eps), xs=tuple(xs))
    if how == "xstars" and run.steps:
        n = draw(st.integers(min_value=0, max_value=run.steps - 1))
        xstars = list(run.xstars)
        xstars[n] += draw(st.sampled_from([-2, -1, 1, 2]))
        return replace(run, xstars=tuple(xstars))
    m = draw(st.integers(min_value=0, max_value=run.steps))
    coords = dict(run.xs[m].coords)
    i = draw(st.integers(min_value=1, max_value=run.steps + 2))
    coords[i] = draw(
        st.fractions(min_value=-2, max_value=2, max_denominator=64)
        | st.sampled_from([coords.get(i, Fraction(0)) + d for d in (Fraction(-1, 64), Fraction(1, 64))])
    )
    xs = list(run.xs)
    xs[m] = SparseSeq.from_dict(coords)
    return replace(run, xs=tuple(xs))


#: primes above every height denominator 4 * 64 that `runs` can draw
BIG_PRIMES = (257, 263, 1009, 999_983)


@st.composite
def reshaped_runs(draw):
    """A run whose stored data the int claim pass must read in full: one
    coordinate moved by +-1/p for a prime p that divides no height
    denominator; a z with several coordinates, negative ones and one on the
    support of some x_m; or an x_m that drops or gains coordinates, so it no
    longer extends x_{m-1}."""
    run = draw(runs())
    how = draw(st.sampled_from(["prime", "z", "shorter", "longer"]))
    m = draw(st.integers(min_value=0, max_value=run.steps))
    coords = dict(run.xs[m].coords)
    if how == "z":
        values = st.fractions(min_value=-1, max_value=1, max_denominator=12)
        z = {1: draw(values), draw(st.integers(2, run.steps + 3)): -draw(values.filter(bool))}
        z.update(draw(st.dictionaries(st.integers(2, run.steps + 3), values, max_size=2)))
        return replace(run, z=SparseSeq.from_dict(z))
    if how == "prime":
        anywhere = st.integers(1, run.steps + 2)
        i = draw(st.sampled_from(sorted(coords)) | anywhere if coords else anywhere)
        nudge = Fraction(draw(st.sampled_from([-1, 1])), draw(st.sampled_from(BIG_PRIMES)))
        coords[i] = coords.get(i, Fraction(0)) + nudge
    elif how == "shorter" and coords:
        del coords[draw(st.sampled_from(sorted(coords)))]
    else:
        extra = st.integers(min_value=1, max_value=run.steps + 4)
        for i in draw(st.lists(extra, min_size=1, max_size=3, unique=True)):
            coords[i] = draw(st.fractions(min_value=-2, max_value=2, max_denominator=64))
    xs = list(run.xs)
    xs[m] = SparseSeq.from_dict(coords)
    return replace(run, xs=tuple(xs))


seq_dicts = st.dictionaries(
    st.integers(min_value=1, max_value=9),
    st.fractions(min_value=-4, max_value=4, max_denominator=24),
    max_size=6,
)


def frac_sum(a: dict, b: dict) -> dict:
    """The Fraction oracle for SparseSeq.__add__."""
    out = dict(a)
    for i, v in b.items():
        out[i] = out.get(i, Fraction(0)) + v
    return {i: v for i, v in out.items() if v}


def assert_reduced(x: SparseSeq) -> None:
    """(idx, nums, den) is the one reduced lattice of x."""
    assert isinstance(x.den, int) and x.den > 0
    assert all(type(i) is int and i >= 1 for i in x.idx)
    assert list(x.idx) == sorted(set(x.idx))
    assert len(x.nums) == len(x.idx) and all(type(n) is int and n for n in x.nums)
    assert gcd(x.den, *x.nums) == 1


class TestSparseSeq:
    def test_basics(self):
        x = SparseSeq.from_dict({2: Fraction(7, 8), 5: Fraction(-1, 3)})
        assert x.sup_norm() == Fraction(7, 8)
        assert x.get(5) == Fraction(-1, 3)
        assert x.get(17) == 0
        assert (x + SparseSeq.unit(5, Fraction(1, 3))).get(5) == 0

    def test_no_stored_zeros(self):
        x = SparseSeq(((3, Fraction(0)), (1, Fraction(2))))
        assert x.coords == ((1, Fraction(2)),)

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseSeq(((0, Fraction(1)),))
        with pytest.raises(ValueError):
            SparseSeq(((2, Fraction(1)), (2, Fraction(2))))

    @pytest.mark.parametrize("index", [2.7, 2.0, True, False, Fraction(2), "2"])
    def test_indices_must_be_integers(self, index):
        with pytest.raises(TypeError, match="indices must be integers"):
            SparseSeq(((index, Fraction(1, 2)),))
        with pytest.raises(TypeError, match="indices must be integers"):
            SparseSeq.unit(index)

    def test_lattice_fields(self):
        x = SparseSeq.from_dict({5: Fraction(-1, 6), 2: Fraction(3, 4), 9: Fraction(0)})
        assert (x.idx, x.nums, x.den) == ((2, 5), (9, -2), 12)
        assert x.coords == ((2, Fraction(3, 4)), (5, Fraction(-1, 6)))
        assert (SparseSeq.zero().idx, SparseSeq.zero().nums, SparseSeq.zero().den) == ((), (), 1)

    @given(seq_dicts, seq_dicts, st.fractions(min_value=-3, max_value=3, max_denominator=10))
    @settings(max_examples=150)
    def test_every_result_is_reduced_and_identified_by_coords(self, a, b, c):
        x, y = SparseSeq.from_dict(a), SparseSeq.from_dict(b)
        i = next(iter(a), 1)
        results = {
            "from_dict": (x, {i: v for i, v in a.items() if v}),
            "tuple": (SparseSeq(tuple(b.items())), {i: v for i, v in b.items() if v}),
            "unit": (SparseSeq.unit(i, c), {i: c} if c else {}),
            "zero": (SparseSeq.zero(), {}),
            "add": (x + y, frac_sum(a, b)),
            "sub": (x - y, frac_sum(a, {i: -v for i, v in b.items()})),
            "neg": (-x, {i: -v for i, v in a.items() if v}),
            "mul": (x * c, {i: c * v for i, v in a.items() if c * v}),
            "rmul": (c * y, {i: c * v for i, v in b.items() if c * v}),
            "projection_tail": (projection_tail(x), {i: v for i, v in a.items() if v and i != 1}),
        }
        for name, (r, want) in results.items():
            assert_reduced(r)
            assert r.coords == tuple(sorted(want.items())), name
            assert SparseSeq(r.coords) == r
            assert r.sup_norm() == max(map(abs, want.values()), default=0)
            assert [r.get(j) for j in range(11)] == [want.get(j, 0) for j in range(11)]
        for r, _ in results.values():
            for q, _ in results.values():
                assert (r == q) == (r.coords == q.coords)
                if r == q:
                    assert hash(r) == hash(q)


class TestProjection:
    def test_examples(self):
        assert projection_tail(SparseSeq.unit(1)).sup_norm() == 0
        e2 = SparseSeq.unit(2)
        assert projection_tail(e2) == e2

    @given(
        st.dictionaries(
            st.integers(min_value=1, max_value=8),
            st.fractions(min_value=-4, max_value=4, max_denominator=8),
            max_size=5,
        )
    )
    @settings(max_examples=50)
    def test_contract(self, coords):
        x = SparseSeq.from_dict(coords)
        p = projection_tail(x)
        assert projection_tail(p) == p
        assert p.sup_norm() <= x.sup_norm()
        assert p.get(1) == 0


class TestRecursion:
    def test_reference_two_steps(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 2)
        x2 = run.xs[2]
        assert x2 == SparseSeq.from_dict({2: Fraction(7, 8), 3: Fraction(15, 16)})
        assert (run.z + x2).sup_norm() == Fraction(15, 16)
        assert x2.get(run.xstars[0]) == Fraction(7, 8)
        assert run.xs[1].get(run.xstars[0]) == Fraction(7, 8)
        assert Fraction(7, 8) > 1 - EPS3[0]

    def test_zero_steps(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 0)
        assert run.xs == (SparseSeq.zero(),)
        assert (run.z + run.xs[0]).sup_norm() == Fraction(1, 2)

    def test_first_step_algebra(self):
        run = ured_recursion(Fraction(1, 3), EPS3, 1)
        assert run.xs[1] == SparseSeq.unit(2, 1 - EPS3[0] / 4)
        assert run.xs[1].get(2) > 1 - EPS3[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            ured_recursion(Fraction(3, 2), EPS3, 1)
        with pytest.raises(ValueError):
            ured_recursion(Fraction(1, 2), EPS3, 5)
        with pytest.raises(ValueError):
            ured_recursion(Fraction(1, 2), [Fraction(1, 4), Fraction(1, 2)], 2)
        with pytest.raises(ValueError):
            ured_recursion(Fraction(1, 2), [Fraction(3)], 1)


class TestVerifyClaim:
    def test_reference(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 2)
        rep = verify_claim(run)
        assert rep["ok"]
        vals = rep["doubled_norm"]["values"]
        assert vals[2] == "15/8"  # max(2 * 15/16, 1/2)
        assert vals[0] == "1/2"  # n = 0: 1 - delta
        assert (Fraction(1, 2) * run.z + run.xs[2]).sup_norm() == Fraction(15, 16)
        assert Fraction(15, 16) >= 1 - EPS3[1]

    @given(runs())
    @settings(max_examples=100)
    def test_matches_cubic_oracle(self, run):
        assert run.checks == oracle_checks(run)
        assert verify_claim(run) == oracle_verify(run)

    @given(tampered_runs())
    @settings(max_examples=200)
    def test_tampered_run_fails_exactly_when_oracle_does(self, run):
        want = oracle_verify(run)
        assert _claims(run)[1] == want  # each claim, not only their conjunction
        if want["ok"]:
            assert verify_claim(run) == want
        else:
            with pytest.raises(RuntimeError, match="claim verification failed"):
                verify_claim(run)

    @given(reshaped_runs())
    @settings(max_examples=200)
    def test_reshaped_run_matches_both_oracles(self, run):
        z_plus, report, checks = _claims(run)
        assert report == oracle_verify(run)
        # the report renders the ok of each claim's Check; claim1 measures the largest norm
        shown = {**report, "doubled_norm": report["doubled_norm"]["ok"]}
        assert {name: c.ok for name, c in checks.items()} == {n: shown[n] for n in checks}
        assert report["ok"] == all(shown[n] for n in checks)
        assert checks["claim1"].lhs == max(z_plus)
        claim1 = oracle_checks(run)["claim1"]
        assert [frac_str(v) for v in z_plus] == claim1["values"]
        assert report["claim1"] == claim1["ok"]

    def test_prime_nudge_breaks_the_norming_equality(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 3)
        x3 = dict(run.xs[3].coords)
        x3[4] += Fraction(1, 999_983)  # x_3 no longer sits at height 31/32 on x*_3
        bad = replace(run, xs=(*run.xs[:3], SparseSeq.from_dict(x3)))
        assert bad.xs[3].den % 999_983 == 0
        assert _claims(bad)[1] == oracle_verify(bad)
        assert not _claims(bad)[1]["claim2"] and not _claims(bad)[1]["doubled_norm"]["ok"]

    def test_x_m_that_does_not_extend_its_predecessor(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 3)
        # x_3 without the coordinate x_1 placed: claim (2) fails at n = 1
        shorter = replace(run, xs=(*run.xs[:3], SparseSeq.from_dict({3: Fraction(15, 16), 4: Fraction(31, 32)})))
        # x_1 with an extra coordinate beyond the prefix, below every height
        longer = replace(run, xs=(run.xs[0], run.xs[1] + SparseSeq.unit(9, Fraction(-1, 3)), *run.xs[2:]))
        assert not _claims(shorter)[1]["claim2"]
        assert _claims(longer)[1]["ok"]
        for odd in (shorter, longer):
            assert _claims(odd)[1] == oracle_verify(odd)

    def test_tampered_reference_runs(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 3)
        x2 = dict(run.xs[2].coords)
        x2[3] -= Fraction(1, 1000)  # breaks the norming equality of x_2
        bad_x = replace(run, xs=(*run.xs[:2], SparseSeq.from_dict(x2), run.xs[3]))
        bad_star = replace(run, xstars=(2, 4, 4))  # x*_2 reads the wrong coordinate
        # x_1 = 0: ||z/2 + x_1|| = 1/4 < 1 - eps_1 as well
        bad_half = replace(run, xs=(run.xs[0], SparseSeq.zero(), *run.xs[2:]))
        # eps_1 = 0: x_1 is normed at height 1, which does not clear 1 - eps_1
        at_one = [run.xs[0], *(SparseSeq.from_dict({**dict(x.coords), 2: 1}) for x in run.xs[1:])]
        bad_eps = replace(run, eps=(Fraction(0), *run.eps[1:]), xs=tuple(at_one))
        for bad in (bad_x, bad_star, bad_half, bad_eps):
            assert not oracle_verify(bad)["claim2"]
            assert _claims(bad)[1] == oracle_verify(bad)
            with pytest.raises(RuntimeError):
                verify_claim(bad)
        assert not _claims(bad_half)[1]["half_z_norming"]

    def test_coordinate_on_the_support_of_z(self):
        run = ured_recursion(Fraction(1, 100), EPS3, 3)
        # x_3 cancels z, so ||z + x_3|| = 31/32 rather than 1 - delta = 99/100
        x3 = SparseSeq.from_dict({**dict(run.xs[3].coords), 1: -run.z.coords[0][1]})
        odd = replace(run, xs=(*run.xs[:3], x3))
        assert _claims(odd)[0][3] == Fraction(31, 32)
        assert verify_claim(odd) == oracle_verify(odd)

    def test_projection_contract_on_run(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 3)
        for x in run.xs:
            assert projection_tail(x) == x  # x_n in the range of the projection
        assert projection_tail(run.z).sup_norm() == 0  # z in the kernel


class TestSegmentCheck:
    def test_reference(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 2)
        rep = segment_check(run, [Fraction(0), Fraction(1, 2), Fraction(1)], 2)
        assert rep["ok"]
        assert all(row["sup_norm"] == "15/16" for row in rep["rows"])

    def test_t_zero_value(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 2)
        rep = segment_check(run, [Fraction(0)], 2)
        assert rep["rows"][0]["sup_norm"] == "15/16"  # sup-norm(x_N) = 1 - eps_N/4

    def test_spike_dominates_large_delta(self):
        run = ured_recursion(Fraction(9, 10), EPS3, 1)
        rep = segment_check(run, [Fraction(1)], 1)
        # z contributes 1 - delta = 1/10 < 1 - eps_1/4
        assert rep["rows"][0]["sup_norm"] == "7/8"

    def test_validation(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 2)
        with pytest.raises(ValueError):
            segment_check(run, [], 2)
        with pytest.raises(ValueError):
            segment_check(run, [Fraction(0)], 3)
        with pytest.raises(ValueError):
            segment_check(run, [Fraction(2)], 2)


class TestUredTension:
    def test_difference_fixed_while_sum_grows(self):
        eps = [Fraction(1, 2**n) for n in range(1, 9)]
        run = ured_recursion(Fraction(1, 2), eps, 8)
        sums = []
        for n in range(1, 9):
            y_n = run.z + run.xs[n]
            assert (run.xs[n] - y_n).sup_norm() == run.z.sup_norm()  # fixed -z
            s = (run.xs[n] + y_n).sup_norm()
            assert s == (2 * run.xs[n] + run.z).sup_norm()
            assert s == 2 * (1 - eps[n - 1] / 4)
            sums.append(s)
        assert all(a < b for a, b in zip(sums, sums[1:]))
        assert 2 - sums[-1] == Fraction(1, 2**9)


class TestOnePass:
    """ured_recursion keeps the report of its one claim pass on the run;
    verify_claim still re-derives it from any run it is given."""

    @given(runs())
    @settings(max_examples=60)
    def test_verified_equals_verify_claim(self, run):
        assert run.verified == verify_claim(run) == oracle_verify(run)

    def test_a_run_built_otherwise_keeps_no_report(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 3)
        assert run.verified is not None
        bad_star = replace(run, xstars=(2, 4, 4))
        assert bad_star.verified is None
        with pytest.raises(RuntimeError, match="claim verification failed"):
            verify_claim(bad_star)

    def test_one_claim_pass_per_cli_call(self, tmp_path, monkeypatch):
        from renorml1 import cli, ured

        passes = []
        real = ured._claims
        monkeypatch.setattr(ured, "_claims", lambda run: passes.append(run) or real(run))
        out = tmp_path / "report.out"
        assert cli.main(["ured", "--delta", "1/3", "--eps", "1/2,1/4,1/8", "--out", str(out)]) == 0
        assert len(passes) == 1
        assert json.loads(out.read_text())["verify"] == verify_claim(passes[0])
