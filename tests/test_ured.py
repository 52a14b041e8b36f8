import json
from bisect import bisect_right
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renorml1 import (
    SparseSeq,
    segment_check,
    ured_recursion,
    verify_claim,
)
from renorml1.cli import _json_chunks
from renorml1.dyadic import frac_str
from renorml1.ured import PrefixMaps, _claims

EPS3 = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def fraction_pairs(x: SparseSeq) -> tuple[tuple[int, Fraction], ...]:
    """The sorted (index, nonzero value) pairs of x, as Fractions."""
    return tuple(zip(x.idx, (Fraction(n, x.den) for n in x.nums)))


def value(x: SparseSeq, i: int) -> Fraction:
    """The coordinate i of x."""
    return Fraction(dict(zip(x.idx, x.nums)).get(i, 0), x.den)


def all_x(run) -> list[SparseSeq]:
    """x_0, ..., x_steps, each expanded from the run's lattice."""
    return [run.x(m) for m in range(run.steps + 1)]


def oracle_checks(run) -> dict:
    """The recursion checks as ured_recursion evaluated them pair by pair
    before the one-pass rewrite: O(steps**3)."""
    z, xs, xstars, eps, steps = run.z, all_x(run), run.xstars, run.eps, run.steps
    return {
        "claim1": {
            "values": [frac_str((z + x).sup_norm()) for x in xs],
            "ok": all((z + x).sup_norm() < 1 for x in xs),
        },
        "claim2": {
            "ok": all(
                value(xs[m], xstars[n - 1]) == value(xs[n], xstars[n - 1])
                and value(xs[n], xstars[n - 1]) > 1 - eps[n - 1]
                for n in range(1, steps + 1)
                for m in range(n, steps + 1)
            ),
        },
    }


def oracle_verify(run) -> dict:
    """The report verify_claim built pair by pair before the one-pass
    rewrite, returned whether or not its claims hold: O(steps**3)."""
    n_steps, xs = run.steps, all_x(run)
    claim1 = all((run.z + x).sup_norm() < 1 for x in xs)
    claim2 = all(
        value(xs[m], run.xstars[n - 1]) == value(xs[n], run.xstars[n - 1]) == 1 - run.eps[n - 1] / 4
        and value(xs[n], run.xstars[n - 1]) > 1 - run.eps[n - 1]
        for n in range(1, n_steps + 1)
        for m in range(n, n_steps + 1)
    )
    half_z = Fraction(1, 2) * run.z
    halfway = all(
        (half_z + xs[m]).sup_norm() >= 1 - run.eps[n - 1]
        for n in range(1, n_steps + 1)
        for m in range(n, n_steps + 1)
    )
    doubled_vals = [(2 * x + run.z).sup_norm() for x in xs]
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


def coordinates(run) -> dict:
    """The shared coordinates of `run`: index -> value, stored zeros too."""
    return {i: Fraction(n, run.den) for i, n in zip(run.idx, run.nums)}


def relattice(run, coords: dict, lengths=None):
    """`run` with the shared coordinates `coords` (index -> value; a zero stays
    a stored zero) and the step `lengths`. By default x_m holds every new
    coordinate up to the last index it held before, so a changed value moves
    every x_m that holds it and an inserted index joins every x_m that holds
    a later one."""
    idx = sorted(coords)
    values = [Fraction(coords[i]) for i in idx]
    den = lcm(*[v.denominator for v in values])
    if lengths is None:
        lengths = [bisect_right(idx, run.idx[k - 1]) if k else 0 for k in run.lengths]
    nums = tuple([v.numerator * (den // v.denominator) for v in values])
    return replace(run, idx=tuple(idx), nums=nums, den=den, lengths=tuple(lengths))


@st.composite
def tampered_runs(draw):
    """A run with one shared coordinate set to a new value (0 deletes it from
    every x_m, a new index joins every x_m past it), with one norming index
    shifted, or built by hand on a permuted eps schedule, which
    ured_recursion would reject."""
    run = draw(runs())
    how = draw(st.sampled_from(["coordinate", "xstars", "eps order"]))
    if how == "eps order":
        eps = draw(st.permutations(run.eps))
        return relattice(replace(run, eps=tuple(eps)), {n + 1: 1 - e / 4 for n, e in enumerate(eps, 1)})
    if how == "xstars" and run.steps:
        n = draw(st.integers(min_value=0, max_value=run.steps - 1))
        xstars = list(run.xstars)
        xstars[n] += draw(st.sampled_from([-2, -1, 1, 2]))
        return replace(run, xstars=tuple(xstars))
    coords = coordinates(run)
    i = draw(st.integers(min_value=1, max_value=run.steps + 2))
    coords[i] = draw(
        st.fractions(min_value=-2, max_value=2, max_denominator=64)
        | st.sampled_from([coords.get(i, Fraction(0)) + d for d in (Fraction(-1, 64), Fraction(1, 64))])
    )
    return relattice(run, coords)


#: primes above every height denominator 4 * 64 that `runs` can draw
BIG_PRIMES = (257, 263, 1009, 999_983)


@st.composite
def reshaped_runs(draw):
    """A run whose stored data the int claim pass must read in full: one
    shared coordinate moved by +-1/p for a prime p that divides no height
    denominator; a z with several coordinates, negative ones and one on the
    support of some x_m; or one step length made shorter, or longer, past
    up to three coordinates appended to the lattice, so that x_m no longer
    extends x_{m-1} or x_{m+1} no longer extends x_m."""
    run = draw(runs())
    how = draw(st.sampled_from(["prime", "z", "shorter", "longer"]))
    m = draw(st.integers(min_value=0, max_value=run.steps))
    coords = coordinates(run)
    lengths = list(run.lengths)
    if how == "z":
        values = st.fractions(min_value=-1, max_value=1, max_denominator=12)
        z = {1: draw(values), draw(st.integers(2, run.steps + 3)): -draw(values.filter(bool))}
        z.update(draw(st.dictionaries(st.integers(2, run.steps + 3), values, max_size=2)))
        return replace(run, z=SparseSeq(z.items()))
    if how == "prime":
        anywhere = st.integers(1, run.steps + 2)
        i = draw(st.sampled_from(sorted(coords)) | anywhere if coords else anywhere)
        nudge = Fraction(draw(st.sampled_from([-1, 1])), draw(st.sampled_from(BIG_PRIMES)))
        coords[i] = coords.get(i, Fraction(0)) + nudge
        return relattice(run, coords)
    if how == "shorter" and lengths[m]:
        lengths[m] -= draw(st.integers(min_value=1, max_value=lengths[m]))
        return relattice(run, coords, lengths)
    extra = st.integers(min_value=run.steps + 2, max_value=run.steps + 6)
    for i in draw(st.lists(extra, max_size=3, unique=True)):
        coords[i] = draw(st.fractions(min_value=-2, max_value=2, max_denominator=64))
    if lengths[m] < len(coords):
        lengths[m] = draw(st.integers(min_value=lengths[m] + 1, max_value=len(coords)))
    return relattice(run, coords, lengths)


@st.composite
def lattice_runs(draw, max_coords=8, max_steps=6):
    """A RecursionRun built by hand on any lattice, with stored zeros, and
    any step lengths; its claims need not hold."""
    idx = sorted(draw(st.sets(st.integers(min_value=1, max_value=40), max_size=max_coords)))
    values = draw(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=12), min_size=len(idx), max_size=len(idx)))
    lengths = draw(st.lists(st.integers(min_value=0, max_value=len(idx)), min_size=1, max_size=max_steps + 1))
    eps = tuple(Fraction(1, n + 1) for n in range(len(lengths) - 1))
    run = ured_recursion(Fraction(1, 3), eps, len(eps))
    return relattice(run, dict(zip(idx, values)), lengths)


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
        x = SparseSeq({2: Fraction(7, 8), 5: Fraction(-1, 3)}.items())
        assert x.sup_norm() == Fraction(7, 8)
        assert (x.idx, x.nums, x.den) == ((2, 5), (21, -8), 24)
        assert x + SparseSeq.unit(5, Fraction(1, 3)) == SparseSeq.unit(2, Fraction(7, 8))

    def test_no_stored_zeros(self):
        x = SparseSeq(((3, Fraction(0)), (1, Fraction(2))))
        assert (x.idx, x.nums, x.den) == ((1,), (2,), 1)

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
        x = SparseSeq({5: Fraction(-1, 6), 2: Fraction(3, 4), 9: Fraction(0)}.items())
        assert (x.idx, x.nums, x.den) == ((2, 5), (9, -2), 12)
        empty = SparseSeq(())
        assert (empty.idx, empty.nums, empty.den) == ((), (), 1)

    @given(seq_dicts, seq_dicts, st.fractions(min_value=-3, max_value=3, max_denominator=10))
    @settings(max_examples=150)
    def test_every_result_is_reduced_and_identified_by_coords(self, a, b, c):
        x, y = SparseSeq(a.items()), SparseSeq(tuple(b.items()))
        i = next(iter(a), 1)
        results = {
            "items": (x, {i: v for i, v in a.items() if v}),
            "tuple": (y, {i: v for i, v in b.items() if v}),
            "unit": (SparseSeq.unit(i, c), {i: c} if c else {}),
            "empty": (SparseSeq(()), {}),
            "add": (x + y, frac_sum(a, b)),
            "mul": (x * c, {i: c * v for i, v in a.items() if c * v}),
            "rmul": (c * y, {i: c * v for i, v in b.items() if c * v}),
        }
        for name, (r, want) in results.items():
            assert_reduced(r)
            assert fraction_pairs(r) == tuple(sorted(want.items())), name
            assert SparseSeq(fraction_pairs(r)) == r
            assert r.sup_norm() == max(map(abs, want.values()), default=0)
            assert r.to_json() == {str(j): frac_str(v) for j, v in sorted(want.items())}
        for r, _ in results.values():
            for q, _ in results.values():
                assert (r == q) == (fraction_pairs(r) == fraction_pairs(q))
                if r == q:
                    assert hash(r) == hash(q)


class TestRecursion:
    def test_reference_two_steps(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 2)
        x2 = run.x(2)
        assert x2 == SparseSeq({2: Fraction(7, 8), 3: Fraction(15, 16)}.items())
        assert (run.z + x2).sup_norm() == Fraction(15, 16)
        assert value(x2, run.xstars[0]) == Fraction(7, 8)
        assert value(run.x(1), run.xstars[0]) == Fraction(7, 8)
        assert Fraction(7, 8) > 1 - EPS3[0]

    def test_one_lattice_of_prefixes(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 3)
        # 7/8, 15/16, 31/32 over 32; x_m is the first m coordinates
        assert (run.idx, run.nums, run.den, run.lengths) == ((2, 3, 4), (28, 30, 31), 32, (0, 1, 2, 3))
        assert run.x(1) == SparseSeq.unit(2, Fraction(7, 8))
        assert run.x(1).den == 8  # each prefix is reduced on its own

    @given(runs())
    @settings(max_examples=60)
    def test_prefixes_equal_the_partial_sums(self, run):
        xs = [SparseSeq(())]
        for n, e in enumerate(run.eps, 1):
            xs.append(xs[-1] + SparseSeq.unit(n + 1, 1 - e / 4))
        assert all_x(run) == xs
        assert run.lengths == tuple(range(run.steps + 1)) and run.idx == run.xstars

    def test_malformed_lattice_is_rejected(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 3)
        for bad in (
            dict(idx=(2, 4, 3)),
            dict(idx=(0, 3, 4)),
            dict(nums=(28, 30)),
            dict(den=0),
            dict(lengths=(0, 1, 2, 4)),
            dict(lengths=(0, -1, 2, 3)),
            dict(lengths=(0, 1, 2)),
            dict(xstars=(2, 3)),
        ):
            with pytest.raises(ValueError):
                replace(run, **bad)

    def test_zero_steps(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 0)
        assert all_x(run) == [SparseSeq(())]
        assert (run.z + run.x(0)).sup_norm() == Fraction(1, 2)

    def test_first_step_algebra(self):
        run = ured_recursion(Fraction(1, 3), EPS3, 1)
        assert run.x(1) == SparseSeq.unit(2, 1 - EPS3[0] / 4)
        assert value(run.x(1), 2) > 1 - EPS3[0]

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
        assert (Fraction(1, 2) * run.z + run.x(2)).sup_norm() == Fraction(15, 16)
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
        coords = coordinates(run)
        coords[4] += Fraction(1, 999_983)  # x_3 no longer sits at height 31/32 on x*_3
        bad = relattice(run, coords)
        assert bad.x(3).den % 999_983 == 0
        assert _claims(bad)[1] == oracle_verify(bad)
        assert not _claims(bad)[1]["claim2"] and not _claims(bad)[1]["doubled_norm"]["ok"]

    def test_x_m_that_does_not_extend_its_predecessor(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 3)
        # x_3 holds only the coordinate x_1 placed: claim (2) fails at n = 2 and 3
        shorter = replace(run, lengths=(0, 1, 2, 1))
        # x_3 also holds a coordinate appended past the lattice, below every height
        longer = relattice(run, {**coordinates(run), 9: Fraction(-1, 3)}, (0, 1, 2, 4))
        # x_1 holds the heights of x_2 and x_3: ||2 x_1 + z|| = 31/16, not 7/4
        too_long = replace(run, lengths=(0, 3, 2, 3))
        assert not _claims(shorter)[1]["claim2"]
        assert _claims(longer)[1]["ok"]
        assert _claims(too_long)[1]["claim2"] and not _claims(too_long)[1]["doubled_norm"]["ok"]
        for odd in (shorter, longer, too_long):
            assert _claims(odd)[1] == oracle_verify(odd)

    def test_tampered_reference_runs(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 3)
        coords = coordinates(run)
        coords[3] -= Fraction(1, 1000)  # breaks the norming equality of x_2 and x_3
        bad_x = relattice(run, coords)
        bad_star = replace(run, xstars=(2, 4, 4))  # x*_2 reads the wrong coordinate
        # x_1 = 0: ||z/2 + x_1|| = 1/4 < 1 - eps_1 as well
        bad_half = replace(run, lengths=(0, 0, 2, 3))
        # eps_1 = 0: every x_m is normed at height 1, which does not clear 1 - eps_1
        bad_eps = relattice(replace(run, eps=(Fraction(0), *run.eps[1:])), {**coordinates(run), 2: 1})
        for bad in (bad_x, bad_star, bad_half, bad_eps):
            assert not oracle_verify(bad)["claim2"]
            assert _claims(bad)[1] == oracle_verify(bad)
            with pytest.raises(RuntimeError):
                verify_claim(bad)
        assert not _claims(bad_half)[1]["half_z_norming"]

    def test_coordinate_on_the_support_of_z(self):
        run = ured_recursion(Fraction(1, 100), EPS3, 3)
        # every nonempty x_m cancels z, so ||z + x_3|| = 31/32 rather than 1 - delta = 99/100
        odd = relattice(run, {**coordinates(run), 1: -value(run.z, 1)})
        assert odd.lengths == (0, 2, 3, 4)
        assert _claims(odd)[0][3] == Fraction(31, 32)
        assert verify_claim(odd) == oracle_verify(odd)

    def test_projection_contract_on_run(self):
        run = ured_recursion(Fraction(1, 2), EPS3, 3)
        # the projection zeroes the first coordinate: every x_n lies in its
        # range, and z in its kernel
        assert all(1 not in x.idx for x in all_x(run))
        assert run.z.idx == (1,)


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
            x_n = run.x(n)
            y_n = run.z + x_n
            assert x_n + -1 * y_n == -1 * run.z  # fixed -z
            s = (x_n + y_n).sup_norm()
            assert s == (2 * x_n + run.z).sup_norm()
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


def expanded(run) -> dict:
    """The report of `run` as plain JSON, with every x_m rendered on its own."""
    return {**run.to_json(), "xs": [x.to_json() for x in all_x(run)]}


def expand_prefixes(o: PrefixMaps) -> list[dict]:
    """The JSON list that `o` stands for: the m-th object maps the first
    counts[m] keys to their values."""
    return [dict(zip(o.keys[:c], o.values[:c])) for c in o.counts]


class TestReport:
    """The report renders each shared coordinate once and each x_m as a
    prefix of that text; its bytes are those of the expanded report."""

    @pytest.mark.parametrize("steps", [0, 1, 2, 40])
    def test_rendered_report_is_json_dumps_of_the_expanded_one(self, steps):
        eps = [Fraction(1_999_964 - 16_381 * k, 999_983) for k in range(steps)]
        run = ured_recursion(Fraction(331, 997), eps, steps)
        report, plain = run.to_json(), expanded(run)
        assert expand_prefixes(report["xs"]) == plain["xs"]
        assert "".join(_json_chunks(report)) == json.dumps(plain, indent=2) + "\n"

    @given(lattice_runs(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=150)
    def test_any_lattice_and_lengths_at_any_depth(self, run, depth):
        report, plain = run.to_json(), expanded(run)
        for _ in range(depth):
            report, plain = {"run": [report]}, {"run": [plain]}
        assert "".join(_json_chunks(report)) == json.dumps(plain, indent=2) + "\n"


class TestScale:
    def test_claims_of_a_long_run_match_their_closed_forms(self):
        eps = [Fraction(1_999_964 - 631 * k, 999_983) for k in range(3000)]
        delta = Fraction(331, 997)
        run = ured_recursion(delta, eps, len(eps))
        heights = [1 - e / 4 for e in eps]
        claim1 = [1 - delta, *(max(1 - delta, h) for h in accumulate(heights, max))]
        doubled = [1 - delta, *(2 * h for h in heights)]
        assert run.checks["claim1"]["values"] == [frac_str(v) for v in claim1]
        assert run.verified["doubled_norm"]["values"] == [frac_str(v) for v in doubled]
        assert run.verified["ok"] and verify_claim(run) == run.verified

