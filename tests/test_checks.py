"""The one check record: `check`, `require`, and every internal verification
failing through them with the failed check's name and measured sides."""

import ast
import json
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from renorml1 import (
    WeakNbhd,
    cli,
    d2p_witness,
    disjoint_spike_family,
    dual_norm_estimate,
    dual_segment,
    ell1,
    near_unit_scale,
    nonsmooth_pairings,
    perturbation_l1_chain,
    probes,
    renorm,
    segment_check,
    slice_diameter_lb,
    strong_extreme_failure,
    ured,
    ured_recursion,
    verify_claim,
    witness,
)
from renorml1.checks import Check, check, require
from renorml1.dyadic import PeriodicStep, frac_str
from conftest import mk

SRC = Path(__file__).resolve().parent.parent / "src" / "renorml1"


class TestCheck:
    @pytest.mark.parametrize(
        "lhs, relation, rhs, ok",
        [
            (Fraction(1, 2), "==", Fraction(2, 4), True), (1, "==", Fraction(3, 2), False),
            (Fraction(1, 3), "<", Fraction(1, 2), True), (1, "<", 1, False),
            (1, "<=", 1, True), (Fraction(3, 2), "<=", 1, False),
            (2, ">", Fraction(3, 2), True), (1, ">", 1, False),
            (1, ">=", 1, True), (Fraction(-1, 2), ">=", 0, False),
        ],
    )
    def test_every_relation(self, lhs, relation, rhs, ok):
        assert check(lhs, relation, rhs) == Check(lhs, rhs, relation, ok)

    def test_unknown_relation(self):
        with pytest.raises(KeyError):
            check(1, "!=", 2)

    def test_to_json(self):
        assert check(Fraction(1, 3), "<", 1).to_json() == {"lhs": "1/3", "rhs": "1/1", "ok": True}

    def test_require_returns_the_checks_when_all_hold(self):
        checks = {"a": check(0, "==", 0), "b": check(1, "<", 2)}
        assert require("demo", checks) is checks

    def test_require_names_the_first_failed_check(self):
        checks = {
            "holds": check(1, "<", 2),
            "first": check(Fraction(3, 2), "<=", 1),
            "second": check(5, "==", 6),
        }
        with pytest.raises(RuntimeError) as exc:
            require("demo", checks)
        assert str(exc.value) == "internal: demo failed: first (3/2 <= 1/1)"


class TestOneRaiseSite:
    """A lint-style guard: a failed verification raises only through
    `checks.require`, and the check record is defined once."""

    def modules(self):
        return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}

    def test_runtime_error_is_raised_in_require_only(self):
        sites = set()
        for name, tree in self.modules().items():
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    exc = node.exc if isinstance(node, ast.Raise) else None
                    if isinstance(exc, ast.Call):
                        exc = exc.func
                    if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                        sites.add((name, fn.name))
        assert sites == {("checks.py", "require")}

    def test_no_rounding_in_the_package(self):
        """Every value is exact: no `float(...)` and no `limit_denominator`
        call anywhere in the package."""
        calls = [
            (name, node.lineno)
            for name, tree in self.modules().items()
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name) and node.func.id == "float")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "limit_denominator")
            )
        ]
        assert calls == []

    def test_the_check_record_is_defined_once(self):
        defined = [
            (name, node.name)
            for name, tree in self.modules().items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in ("Check", "check", "_check")
        ]
        assert sorted(defined) == [("checks.py", "Check"), ("checks.py", "check")]


def unit_nbhd():
    center = near_unit_scale(mk(0, 1), Fraction(1, 10**4))
    return WeakNbhd(center, (mk(0, 1),), Fraction(1, 10))


def raises_internal(message):
    return pytest.raises(RuntimeError, match=f"^{re.escape(message)}$")


class TestForcedFailures:
    """Each module's verification fails through `require` when a measured
    value is bent, naming the check and both of its sides."""

    def test_witness_guaranteed_gap(self, monkeypatch):
        nbhd = unit_nbhd()
        guaranteed = d2p_witness(nbhd, Fraction(1, 5)).guaranteed_gap_sq
        real = witness.split_pair

        def no_gap(f, K):  # the split check's fold of |f1 - f2| read as 0
            sp = real(f, K)
            return replace(sp, tnorm_sq=(*sp.tnorm_sq[:2], Fraction(0)))

        monkeypatch.setattr(witness, "split_pair", no_gap)
        with raises_internal(f"internal: witness failed: guaranteed_gap (0/1 >= {frac_str(guaranteed)})"):
            d2p_witness(nbhd, Fraction(1, 5))

    def test_witness_split_linf4x(self):
        # f has mass 5/16 and linf 1; f1 and f2 put that mass as a height of
        # 20 on one level-6 cell each, one motif of 64 cells over [0, 1), which
        # keeps (5)-(7) at K = 0
        f = mk(2, 1, Fraction(1, 4), 0, 0)
        f1, f2 = (PeriodicStep(0, [20 if i == j else 0 for i in range(64)], 1, 1) for j in (0, 1))
        with raises_internal("internal: split check failed: linf4x (20/1 <= 4/1)"):
            witness._verify_split(f, f1, f2)

    def test_dual_norm(self, monkeypatch):
        real = renorm._support_solve

        def doubled(L, c, S):  # every solve reads u twice too big
            U, E = real(L, c, S)
            return [2 * x for x in U], E

        monkeypatch.setattr(renorm, "_support_solve", doubled)
        # h = 1 at L = 0: u = 1/8 read as 2/8, so 8 u - 1 = 1, times E = 8
        with raises_internal("internal: dual norm failed: stationary (8/1 == 0/1)"):
            dual_norm_estimate(mk(0, 1), 0)

    def test_probe_chain(self, monkeypatch):
        real = probes.norms
        monkeypatch.setattr(probes, "norms", lambda f: real(f)._replace(l1=Fraction(0)))
        # lhs reads 0; rhs = 0 + int_A |g| - 2 int_A |f| = 1/2
        with raises_internal("internal: perturbation chain failed: chain (0/1 >= 1/2)"):
            perturbation_l1_chain(mk(1, 0, 1), mk(1, 1, 0), [(1, 1)])

    def test_probe_extreme(self, monkeypatch):
        def tampered(*args):  # f2 = f1, so u = (1 - gamma) (f1 - f2) / 2 is 0
            rep = real(*args)
            return replace(rep, pair=replace(rep.pair, f2=rep.pair.f1))

        real = probes.d2p_witness
        monkeypatch.setattr(probes, "d2p_witness", tampered)
        nbhd = unit_nbhd()
        r = nbhd.center.values[0]  # the floor (1 - 1/64) r stands; l1(u) is 0
        sides = f"0/1 >= {frac_str(r * 63 / 64)}"
        with raises_internal(f"internal: extreme probe failed: l1_floor ({sides})"):
            strong_extreme_failure(nbhd, Fraction(1, 5))

    def test_probe_slice(self, monkeypatch):
        monkeypatch.setattr(probes, "d2p_witness", lambda nbhd, eps: SimpleNamespace(gap_sq=Fraction(5)))
        nbhd = unit_nbhd()
        with raises_internal("internal: slice probe failed: gap_sq (5/1 <= 4/1)"):
            slice_diameter_lb(nbhd.center, nbhd.functionals, nbhd.delta, [Fraction(1, 5)])

    def bend_midpoint(self, monkeypatch):
        """ell1.norms reads linf 2 on its third call: the midpoint of xstar and ystar."""
        real, calls = ell1.norms, []

        def bent(f):
            calls.append(f)
            return real(f)._replace(linf=Fraction(2)) if len(calls) == 3 else real(f)

        monkeypatch.setattr(ell1, "norms", bent)

    def test_ell1_dual_segment_midpoint(self, monkeypatch):
        fam = disjoint_spike_family([Fraction(1, 2), Fraction(1, 3)], 2, 1)
        self.bend_midpoint(monkeypatch)
        with raises_internal("internal: dual segment failed: midpoint (2/1 == 1/1)"):
            dual_segment(fam)

    def test_ell1_dual_segment_pairing(self, monkeypatch):
        fam = disjoint_spike_family([Fraction(1, 2), Fraction(1, 3)], 2, 1)
        monkeypatch.setattr(ell1, "pairing", lambda f, h: Fraction(0))
        with raises_internal("internal: dual segment failed: <x_1, xstar> (0/1 == 1/2)"):
            dual_segment(fam)

    def test_ell1_nonsmooth_gap(self):
        fam = disjoint_spike_family([Fraction(1, 2), Fraction(1, 3)], 2, 1)
        pair = dual_segment(fam)
        assert pair.pairings == ((Fraction(1, 2), Fraction(-1, 2)), (Fraction(2, 3), Fraction(2, 3)))
        bent = replace(pair, pairings=(pair.pairings[0], (Fraction(2, 3), Fraction(0))))
        # gap = 0 - (-1/2), required 2 - 1/3 - 1/2
        with raises_internal("internal: nonsmooth pairings failed: gap 1 (1/2 == 7/6)"):
            nonsmooth_pairings(fam, bent)

    def test_ured_claim_verification(self):
        run = ured_recursion(Fraction(1, 2), [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)], 3)
        # x*_2 reads coordinate 4: x_2 is not normed there, nor is x_3 at height h_2
        bad = replace(run, xstars=(2, 4, 4))
        with raises_internal("internal: claim verification failed: claim2 (2/1 == 0/1)"):
            verify_claim(bad)

    def test_ured_claims_measure_their_sides(self):
        run = ured_recursion(Fraction(1, 2), [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)], 3)
        z_plus, report, checks = ured._claims(run)
        assert checks["claim1"] == Check(max(z_plus), Fraction(1), "<", True)
        assert checks["claim2"] == Check(0, 0, "==", True)
        # ||z/2 + x_m|| >= 1 - eps_n is tightest at n = 3: 31/32 against 7/8
        assert checks["half_z_norming"] == Check(Fraction(3, 32), 0, ">=", True)
        assert checks["doubled_norm"] == Check(0, 0, "==", True)
        assert report == run.verified

    def test_ured_segment(self):
        run = ured_recursion(Fraction(1, 2), [Fraction(1, 2), Fraction(1, 4)], 2)
        # x_2 also holds a coordinate 1 appended at index 9
        bad = replace(run, idx=(*run.idx, 9), nums=(*run.nums, run.den), lengths=(0, 1, 3))
        with raises_internal("internal: segment check failed: ball at t=0/1 (1/1 < 1/1)"):
            segment_check(bad, [Fraction(0), Fraction(1)], 2)

    def test_cli_exits_3_naming_the_check(self, tmp_path, capsys, monkeypatch):
        self.bend_midpoint(monkeypatch)
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"deltas": ["1/2", "1/3"], "m": 2}))
        out = tmp_path / "report.out"
        rc = cli.main(["ell1", "dual", "--input", str(path), "--level", "1", "--out", str(out)])
        assert rc == 3 and not out.exists()
        assert capsys.readouterr().err == "internal error: dual segment failed: midpoint (2/1 == 1/1)\n"
