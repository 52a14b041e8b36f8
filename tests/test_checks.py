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
from renorml1.dyadic import DyadicStep, frac_str
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


def names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def scopes(body, prefix=""):
    """(qualified name, node) of each function and of every other statement,
    by the class or module it sits in."""
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            yield from scopes(stmt.body, prefix + stmt.name + ".")
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + stmt.name, stmt
        else:
            yield prefix.rstrip(".") or "<module>", stmt


class TestOneRaiseSite:
    """A lint-style guard: a failed verification raises only through
    `checks.require`, a level past the cap only through
    `dyadic._check_level`, and the check record is defined once."""

    def modules(self):
        return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}

    def test_runtime_error_is_raised_in_require_only(self):
        """Every `raise` of a `RuntimeError` in the package, in a function,
        a class body or at module level, sits in `checks.require`: the CLI
        reads a plain RuntimeError as a failed check."""
        sites = {
            (name, qual)
            for name, tree in self.modules().items()
            for qual, scope in scopes(tree.body)
            for node in ast.walk(scope)
            if isinstance(node, ast.Raise) and node.exc is not None and "RuntimeError" in names(node.exc)
        }
        assert sites == {("checks.py", "require")}

    def test_level_overflow_is_raised_in_check_level_only(self):
        """Every `raise` of a `LevelOverflowError` in the package sits in
        `dyadic._check_level`: the level cap is checked in one function."""
        sites = [
            (name, qual)
            for name, tree in self.modules().items()
            for qual, scope in scopes(tree.body)
            for node in ast.walk(scope)
            if isinstance(node, ast.Raise) and node.exc is not None and "LevelOverflowError" in names(node.exc)
        ]
        assert sites == [("dyadic.py", "_check_level")]

    #: the code that must know a step's type: equality with other objects
    STEP_TYPE_ALLOWED = {("dyadic.py", "DyadicStep.__eq__")}

    def test_kernels_do_not_switch_on_step_type(self):
        """Every module of the package reads dense and periodic steps through
        one class and its lattice: outside the allow-list, nothing tests a
        value against `DyadicStep` (`isinstance`, `type(...) is`,
        `type(...) in`, `__class__`, a class pattern)."""
        step_types = {"DyadicStep"}

        def switches(node):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                return node.func.id in ("isinstance", "issubclass") and bool(names(node) & step_types)
            if isinstance(node, ast.Compare):
                typed = any(
                    (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "type")
                    or (isinstance(n, ast.Attribute) and n.attr == "__class__")
                    for n in ast.walk(node)
                )
                return typed and bool(names(node) & step_types)
            return isinstance(node, ast.MatchClass) and bool(names(node.cls) & step_types)

        found = {
            (name, qual)
            for name, tree in self.modules().items()
            for qual, scope in scopes(tree.body)
            if any(map(switches, ast.walk(scope)))
        }
        assert found <= self.STEP_TYPE_ALLOWED

    def test_only_dyadic_reads_the_period(self):
        """A periodic step answers like its dense expansion, so outside
        `dyadic` no module calls `.dense()` or reads `.period_level`
        (`selftest` excepted: its batteries check against the dense
        expansion), and `renorm` reads no `.motifs` or `.reps`."""

        def period_read(name, node):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "dense":
                return "dense()"
            if isinstance(node, ast.Attribute) and (
                node.attr == "period_level" or (name == "renorm.py" and node.attr in ("motifs", "reps"))
            ):
                return node.attr
            return None

        found = [
            (name, node.lineno, what)
            for name, tree in self.modules().items()
            if name not in ("dyadic.py", "selftest.py")
            for node in ast.walk(tree)
            if (what := period_read(name, node))
        ]
        assert found == []

    def test_kernels_read_cells_through_masses(self):
        """`masses(k)` is the one cell reader: no module defines a
        `lattice` function, and `renorm`, `probes` and `witness` read no
        step's `.values` (a `.values()` call on a dict is not a read)."""
        found = []
        for name, tree in self.modules().items():
            called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef) and node.name == "lattice":
                    found.append((name, node.lineno, "lattice"))
                elif (
                    name in ("renorm.py", "probes.py", "witness.py")
                    and isinstance(node, ast.Attribute)
                    and node.attr == "values"
                    and id(node) not in called
                ):
                    found.append((name, node.lineno, ".values"))
        assert found == []

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
        f1, f2 = (DyadicStep.periodic(0, [20 if i == j else 0 for i in range(64)], 1, 1) for j in (0, 1))
        with raises_internal("internal: split check failed: linf4x (20/1 <= 4/1)"):
            witness._verify_split(f, f1, f2, f.masses(0), abs(f).masses(0))

    def test_dual_norm(self, monkeypatch):
        real = renorm._support_solve

        def doubled(L, c, S):  # every solve reads u twice too big
            U, E = real(L, c, S)
            return [2 * x for x in U], E

        monkeypatch.setattr(renorm, "_support_solve", doubled)
        # h = 1 at L = 0: u = 1/8 read as 2/8, so 8 u - 1 = 1, times E = 8
        with raises_internal("internal: dual norm failed: stationary (8/1 == 0/1)"):
            dual_norm_estimate(mk(0, 1), 0)

    def test_dual_norm_attained(self, monkeypatch):
        real = renorm.tnorm_sq
        monkeypatch.setattr(renorm, "tnorm_sq", lambda f: 2 * real(f))
        # h = 1 at L = 0: u = 1/8, the value 7/8, T(u)**2 = 1/56 read as 1/28
        # and <u, h>**2 = 1/64; the KKT checks read no norm and hold
        with raises_internal("internal: dual norm failed: attained (1/32 == 1/64)"):
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

    def test_norm_equivalence(self, monkeypatch):
        real = renorm.tnorm_sq
        monkeypatch.setattr(renorm, "tnorm_sq", lambda f: 10 * real(f))
        # T(1)**2 = 8/7 read as 80/7, l1(1) = 1: the lower bound still holds
        with raises_internal("internal: norm equivalence failed: upper (80/7 <= 2/1)"):
            renorm.norm_report(mk(0, 1))

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
