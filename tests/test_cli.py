import io
import json
import os
import re
import stat
import subprocess
import sys
from contextlib import redirect_stderr
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renorml1 import cli, dyadic, probes, renorm, selftest, split_pair
from renorml1.checks import check, require
from renorml1.cli import _json_chunks, build_parser, main
from renorml1.dyadic import MAX_LEVEL, DyadicStep, StepValues, frac_str, steps_to_json
from conftest import steps


def run_cli(*argv, capsys=None):
    rc = main(list(argv))
    return rc


def invoke(tmp_path, *argv):
    """Run the CLI in-process, capturing the report file it writes."""
    out = tmp_path / "report.out"
    rc = main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return rc, text


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def respell(obj, key, spelled):
    """obj with `key` spelled `spelled`, in its place."""
    return {spelled if k == key else k: v for k, v in obj.items()}


CONST_78 = {"level": 0, "values": ["7/8"]}
NBHD = {
    "center": CONST_78,
    "functionals": [{"level": 0, "values": ["1/1"]}],
    "delta": "1/10",
}


class TestNorm:
    def test_report(self, tmp_path):
        path = write_json(tmp_path, "f.json", {"level": 0, "values": ["1/1"]})
        rc, text = invoke(tmp_path, "norm", "--input", path)
        assert rc == 0
        obj = json.loads(text)
        assert obj["tnorm_sq"] == "8/7"
        assert obj["equiv_ok"] is True

    def test_float_digits(self, tmp_path):
        path = write_json(tmp_path, "f.json", {"level": 0, "values": ["1/1"]})
        rc, text = invoke(tmp_path, "norm", "--input", path, "--float-digits", "4")
        assert json.loads(text)["tnorm_float"] == "1.0690"

    def test_broken_norm_exits_3_naming_both_sides(self, tmp_path, capsys, monkeypatch):
        real = renorm.tnorm_sq
        monkeypatch.setattr(renorm, "tnorm_sq", lambda f: 10 * real(f))
        path = write_json(tmp_path, "f.json", {"level": 0, "values": ["1/1"]})
        rc, text = invoke(tmp_path, "norm", "--input", path)
        assert rc == 3 and text == ""
        assert capsys.readouterr().err == "internal error: norm equivalence failed: upper (80/7 <= 2/1)\n"


class TestSplit:
    def test_report(self, tmp_path):
        path = write_json(tmp_path, "f.json", {"level": 1, "values": ["1/1", "-1/1"]})
        rc, text = invoke(tmp_path, "split", "--input", path, "--level", "1")
        assert rc == 0
        obj = json.loads(text)
        assert obj["b"] == ["1/2", "0/1"]
        assert obj["c"] == ["0/1", "1/2"]
        assert obj["f1"]["values"] == ["4/1", "0/1", "0/1", "0/1", "0/1", "-4/1", "0/1", "0/1"]


class TestWitness:
    def test_success(self, tmp_path):
        path = write_json(tmp_path, "nbhd.json", NBHD)
        rc, text = invoke(tmp_path, "witness", "--input", path, "--eps", "1/5")
        assert rc == 0
        obj = json.loads(text)
        assert obj["gamma"] == "1/64"
        assert obj["K"] == 7
        assert obj["checks"]["gap"]["ok"] is True
        assert set(obj["checks"]) == {
            "id5", "id6", "id7", "linf4x", "pairing_l", "ball", "gap",
        }

    def test_gap_failure_exits_1(self, tmp_path):
        bad = dict(NBHD, center={"level": 0, "values": ["0/1"]})
        path = write_json(tmp_path, "nbhd.json", bad)
        rc, text = invoke(tmp_path, "witness", "--input", path, "--eps", "1/5")
        assert rc == 1

    def test_malformed_json_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"center": [,}')
        rc, _ = invoke(tmp_path, "witness", "--input", str(p), "--eps", "1/5")
        assert rc == 2

    def test_malformed_json_location_reported(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"center": [,}')
        rc = main(["witness", "--input", str(p), "--eps", "1/5"])
        err = capsys.readouterr().err
        assert rc == 2 and "line 1" in err

    def test_bad_rational_exits_2(self, tmp_path):
        bad = dict(NBHD, delta="1/0")
        path = write_json(tmp_path, "nbhd.json", bad)
        rc, _ = invoke(tmp_path, "witness", "--input", path, "--eps", "1/5")
        assert rc == 2

    def test_missing_input_exits_2(self, tmp_path):
        rc, _ = invoke(tmp_path, "witness", "--input", str(tmp_path / "no.json"), "--eps", "1/5")
        assert rc == 2

    # gamma is below 2**-200 here, so its split level is far past the cap:
    # an input error, not an internal one
    @pytest.mark.parametrize("delta, eps", [(f"1/{2**200}", "1/5"), ("1/10", f"1/{2**200}")])
    def test_tiny_delta_or_eps_exceeds_the_cap(self, tmp_path, capsys, delta, eps):
        path = write_json(tmp_path, "nbhd.json", dict(NBHD, delta=delta))
        rc, text = invoke(tmp_path, "witness", "--input", path, "--eps", eps)
        err = capsys.readouterr().err
        assert rc == 2 and text == ""
        assert err.startswith("input error:") and f"exceeds cap {MAX_LEVEL}" in err

    def test_eps_one_over_ten_to_the_100_names_the_split_level(self, tmp_path, capsys):
        # gamma = 2**-334 and K = 335: the split level K + 2 is read off, not searched for
        path = write_json(tmp_path, "nbhd.json", NBHD)
        rc, text = invoke(tmp_path, "witness", "--input", path, "--eps", f"1/{10**100}")
        assert (rc, text) == (2, "")
        assert capsys.readouterr().err == f"input error: split level 337 exceeds cap {MAX_LEVEL}\n"


class TestProbe:
    def test_strict(self, tmp_path):
        path = write_json(
            tmp_path,
            "pair.json",
            {"f": {"level": 1, "values": ["1/1", "-1/1"]},
             "g": {"level": 1, "values": ["2/1", "-2/1"]}},
        )
        rc, text = invoke(tmp_path, "probe", "strict", "--input", path)
        assert rc == 0
        obj = json.loads(text)
        assert obj["tag"] == "Degenerate" and obj["ratio"] == "1/2"

    def test_midpoint(self, tmp_path):
        path = write_json(
            tmp_path,
            "pair.json",
            {"f": {"level": 1, "values": ["1/1", "0/1"]},
             "g": {"level": 1, "values": ["0/1", "1/1"]}},
        )
        rc, text = invoke(tmp_path, "probe", "midpoint", "--input", path)
        assert json.loads(text)["defect"] == "1/28"

    def test_chain(self, tmp_path):
        path = write_json(
            tmp_path,
            "chain.json",
            {"f": {"level": 0, "values": ["1/1"]},
             "g": {"level": 2, "values": ["4/1", "0/1", "0/1", "0/1"]},
             "A": [[2, 1]]},
        )
        rc, text = invoke(tmp_path, "probe", "chain", "--input", path)
        obj = json.loads(text)
        assert obj["lhs"] == "7/4" and obj["rhs"] == "3/2" and obj["ok"]

    def test_slice_csv(self, tmp_path):
        # near-unit constant center: largest r with den <= 1e4, r^2 * 8/7 <= 1
        nbhd = dict(
            NBHD, center={"level": 0, "values": ["9110/9739"]}, delta="1/1"
        )
        path = write_json(tmp_path, "nbhd.json", nbhd)
        rc, text = invoke(
            tmp_path, "probe", "slice", "--input", path, "--eps", "1/5,1/10"
        )
        assert rc == 0
        lines = text.strip().split("\n")
        assert lines[0] == "eps,gap_sq,gap_float"
        assert len(lines) == 3

    def test_slice_partial_failure_exits_1(self, tmp_path):
        # tnorm_sq = 7/8 is too deep inside the ball for eps = 1/10
        nbhd = dict(NBHD, delta="1/1")
        path = write_json(tmp_path, "nbhd.json", nbhd)
        rc, text = invoke(
            tmp_path, "probe", "slice", "--input", path, "--eps", "1/10"
        )
        assert rc == 1
        assert text.strip().split("\n")[1] == "1/10,,"

    def test_extreme(self, tmp_path):
        path = write_json(tmp_path, "nbhd.json", NBHD)
        rc, text = invoke(tmp_path, "probe", "extreme", "--input", path, "--eps", "1/5")
        assert rc == 0
        obj = json.loads(text)
        assert Fraction(obj["l1_of_u"]) > Fraction(4, 5)


class TestEll1:
    def test_greedy(self, tmp_path):
        path = write_json(tmp_path, "fam.json", {"deltas": ["1/2", "1/4"], "m": 2})
        rc, text = invoke(tmp_path, "ell1", "greedy", "--input", path)
        obj = json.loads(text)
        assert obj["supports"] is None
        assert [m["level"] for m in obj["members"]] == [0, 6]

    def test_spikes_and_dual(self, tmp_path):
        path = write_json(tmp_path, "fam.json", {"deltas": ["1/2", "1/3"], "m": 2})
        rc, text = invoke(tmp_path, "ell1", "dual", "--input", path, "--level", "2")
        obj = json.loads(text)
        assert obj["dual"]["xstar"]["values"] == ["1/1", "1/1", "0/1", "0/1"]
        assert obj["dual"]["ystar"]["values"] == ["-1/1", "1/1", "0/1", "0/1"]
        assert obj["nonsmooth"]["rows"][0]["gap"] == "7/6"

    def test_capacity_error_exits_2(self, tmp_path):
        path = write_json(tmp_path, "fam.json", {"deltas": ["1/2"] * 5, "m": 5})
        rc, _ = invoke(tmp_path, "ell1", "spikes", "--input", path, "--level", "1")
        assert rc == 2


class TestUred:
    def test_run(self, tmp_path):
        rc, text = invoke(tmp_path, "ured", "--delta", "1/2", "--eps", "1/2,1/4")
        assert rc == 0
        obj = json.loads(text)
        assert obj["xs"][2] == {"2": "7/8", "3": "15/16"}
        assert obj["verify"]["ok"] is True
        assert obj["segment"]["ok"] is True

    def test_bad_delta_exits_2(self, tmp_path):
        rc, _ = invoke(tmp_path, "ured", "--delta", "2/1", "--eps", "1/2")
        assert rc == 2

    @pytest.mark.parametrize("eps", [",", " , ,", ""])
    def test_empty_eps_schedule_exits_2(self, tmp_path, capsys, eps):
        rc, text = invoke(tmp_path, "ured", "--delta", "1/2", "--eps", eps)
        err = capsys.readouterr().err
        assert rc == 2 and text == "" and err.startswith("input error:") and "--eps" in err

    def test_empty_slice_schedule_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "nbhd.json", NBHD)
        rc, text = invoke(tmp_path, "probe", "slice", "--input", path, "--eps", ",")
        err = capsys.readouterr().err
        assert rc == 2 and text == "" and err.startswith("input error:") and "--eps" in err


class TestSelftest:
    def test_passes(self, tmp_path):
        rc, text = invoke(tmp_path, "selftest", "--seed", "11", "--trials", "6")
        assert rc == 0
        assert "selftest: pass" in text

    def test_failing_battery_names_invariant_trial_and_seed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(selftest, "midpoint_defect", lambda f, g: Fraction(-1))
        rc, text = invoke(tmp_path, "selftest", "--seed", "7", "--trials", "3")
        lines = text.splitlines()
        assert rc == 1
        assert "strict-convexity: FAIL (midpoint-defect, trial 1, seed 7)" in lines
        assert [line for line in lines if "FAIL" in line] == [
            "strict-convexity: FAIL (midpoint-defect, trial 1, seed 7)",
            "selftest: FAIL (seed=7, trials=3)",
        ]

    def test_failing_equivalence_names_its_sides(self, tmp_path, monkeypatch):
        real = renorm.tnorm_sq
        monkeypatch.setattr(renorm, "tnorm_sq", lambda f: 10 * real(f))
        rc, text = invoke(tmp_path, "selftest", "--seed", "7", "--trials", "2")
        failed = [line for line in text.splitlines() if "FAIL" in line]
        assert rc == 1 and failed[-1] == "selftest: FAIL (seed=7, trials=2)" and len(failed) == 2
        assert re.fullmatch(
            r"renorm-invariants: FAIL \(norm equivalence failed: upper \(\d+/\d+ <= \d+/\d+\), trial \d, seed 7\)",
            failed[0],
        )

    def test_failing_library_check_is_a_battery_line(self, tmp_path, monkeypatch):
        # a `checks.require` failure inside a trial fails that battery only
        def failing_split(f, K):
            require("split check", {"id5": check(Fraction(1), "==", Fraction(0))})

        monkeypatch.setattr(selftest, "split_pair", failing_split)
        rc, text = invoke(tmp_path, "selftest", "--seed", "7", "--trials", "2")
        lines = text.splitlines()
        assert rc == 1 and len(lines) == len(selftest.BATTERIES) + 1
        assert [line for line in lines if "FAIL" in line] == [
            "split-identities: FAIL (split check failed: id5 (1/1 == 0/1), trial 1, seed 7)",
            "selftest: FAIL (seed=7, trials=2)",
        ]


class TestInputErrors:
    CHAIN = {"f": CONST_78, "g": CONST_78}

    @pytest.mark.parametrize(
        "obj, argv, field",
        [
            (dict(CHAIN, A=[5]), ["probe", "chain"], "'A'"),
            ({"deltas": ["1/2", "1/4"], "m": "2"}, ["ell1", "greedy"], "'m'"),
            (dict(NBHD, functionals=5), ["witness", "--eps", "1/5"], "'functionals'"),
            (NBHD, ["probe", "extreme", "--eps", ","], "--eps"),
            (None, ["selftest", "--trials", "-1"], "trials"),
            (None, ["selftest", "--trials", "0"], "trials"),
            ([1, 2], ["probe", "chain"], "in.json"),
            ("1/2", ["norm"], "in.json"),
            (dict(CHAIN, A=[[1.7, 1]]), ["probe", "chain"], "'A'"),
            (dict(CHAIN, A=[[True, 1]]), ["probe", "chain"], "'A'"),
            # j is range-checked without building 1 << k, and the level is capped
            (dict(CHAIN, A=[[MAX_LEVEL + 1, 1]]), ["probe", "chain"], "'A'"),
            (dict(CHAIN, A=[[15000, 1]]), ["probe", "chain"], "'A'"),
            (dict(CHAIN, A=[[10**10, 1]]), ["probe", "chain"], "'A'"),
        ],
    )
    def test_exit_2_names_field(self, tmp_path, capsys, obj, argv, field):
        if obj is not None:
            argv = [*argv, "--input", write_json(tmp_path, "in.json", obj)]
        rc, text = invoke(tmp_path, *argv)
        err = capsys.readouterr().err
        assert rc == 2 and text == ""
        assert err.startswith("input error:") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "A, line",
        [
            ([5], "'A' must list [k, j] cells: cannot unpack non-iterable int object"),
            ([[1.7, 1]], "'A' must list [k, j] cells: cell index entries must be integers, got 1.7"),
            ([[True, 1]], "'A' must list [k, j] cells: cell index entries must be integers, got True"),
            ([[1, 3]], "'A' must list [k, j] cells: cell position 3 out of range 1..2**1"),
            ([[MAX_LEVEL + 1, 1]], f"'A' cell level {MAX_LEVEL + 1} exceeds cap {MAX_LEVEL}"),
            ([[10**10, 1]], f"'A' cell level {10**10} exceeds cap {MAX_LEVEL}"),
            ("x", "'A' must be a list, got 'x'"),
        ],
    )
    def test_chain_cells_name_A(self, tmp_path, capsys, A, line):
        rc, text = invoke(tmp_path, "probe", "chain", "--input", write_json(tmp_path, "in.json", dict(self.CHAIN, A=A)))
        assert (rc, text, capsys.readouterr().err) == (2, "", f"input error: {line}\n")

    def test_chain_parses_each_cell_once(self, tmp_path, monkeypatch):
        # the library parses A and integrates the parsed cells; the CLI passes
        # the list on as read
        calls = []
        real = dyadic.as_index
        for module in (probes, dyadic):
            monkeypatch.setattr(module, "as_index", lambda idx: calls.append(idx) or real(idx))
        rc, text = invoke(tmp_path, "probe", "chain", "--input", write_json(tmp_path, "in.json", dict(self.CHAIN, A=[[1, 1], [1, 2]])))
        assert rc == 0 and json.loads(text)["ok"] is True
        assert calls == [[1, 1], [1, 2]] and not hasattr(cli, "as_index")

    # a misspelled key would otherwise be dropped: a neighborhood without its
    # functionals, a family whose m defaults, a chain on no cells
    @pytest.mark.parametrize(
        "argv, obj, key",
        [
            (["witness", "--eps", "1/100"], respell(NBHD, "functionals", "functionls"), "functionls"),
            (["probe", "extreme", "--eps", "1/5"], respell(NBHD, "delta", "delt"), "delt"),
            (["probe", "slice", "--eps", "1/5"], dict(NBHD, eps="1/5"), "eps"),
            (["ell1", "greedy"], {"deltas": ["1/2", "1/3"], "M": 2}, "M"),
            (["ell1", "spikes", "--level", "3"], {"deltas": ["1/2", "1/3"], "M": 2}, "M"),
            (["ell1", "dual", "--level", "3"], {"deltas": ["1/2", "1/3"], "M": 2}, "M"),
            (["probe", "chain"], dict(CHAIN, a=[[1, 1]]), "a"),
            (["probe", "strict"], dict(CHAIN, A=[[1, 1]]), "A"),
            (["probe", "midpoint"], dict(CHAIN, A=[[1, 1]]), "A"),
            (["norm"], dict(CONST_78, Level=0), "Level"),
            (["split", "--level", "2"], respell(CONST_78, "values", "vals"), "vals"),
        ],
    )
    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys, argv, obj, key):
        path = write_json(tmp_path, "in.json", obj)
        rc, text = invoke(tmp_path, *argv, "--input", path)
        err = capsys.readouterr().err
        assert rc == 2 and text == ""
        assert err.startswith(f"input error: unknown key {key!r} in input")

    # 1 << level takes 1.25 GB at 10**10 and cannot be allocated at all at
    # 2**62 (a MemoryError), so the level must be checked before it is used
    @pytest.mark.parametrize("level", [10**10, 2**62])
    def test_huge_level_names_level_and_cap(self, tmp_path, capsys, level):
        path = write_json(tmp_path, "in.json", {"level": level, "values": ["1/1"]})
        rc, text = invoke(tmp_path, "norm", "--input", path)
        err = capsys.readouterr().err
        assert rc == 2 and text == ""
        assert err.startswith("input error:") and str(level) in err and f"cap {MAX_LEVEL}" in err

    # Fraction("1e300000000") builds 10**300000000 before any range check, and
    # Fraction("1e-5000") exceeds int's digit limit for string conversion
    @pytest.mark.parametrize(
        "argv, obj, shown",
        [
            (["ured", "--delta", "1/2", "--eps", "1e300000000"], None, "'1e300000000'"),
            (["ured", "--delta", "1/2", "--eps", "1/2,1E-3"], None, "'1E-3'"),
            (["ured", "--delta", "1e-5000", "--eps", "1/2"], None, "'1e-5000'"),
            (["witness", "--eps", "1e300000000"], NBHD, "'1e300000000'"),
            (["witness", "--eps", "1/5"], dict(NBHD, delta="2.5e-1"), "'2.5e-1'"),
            (["norm"], {"level": 1, "values": ["1/2", "1e300000000"]}, "'1e300000000'"),
            (["norm"], {"level": 0, "values": ["7" * 40 + "e9"]}, "'" + "7" * 21 + "...'"),
        ],
    )
    def test_exponent_notation_is_rejected_naming_the_value(self, tmp_path, capsys, argv, obj, shown):
        if obj is not None:
            argv = [*argv, "--input", write_json(tmp_path, "in.json", obj)]
        rc, text = invoke(tmp_path, *argv)
        err = capsys.readouterr().err
        assert rc == 2 and text == ""
        assert err == f"input error: exponent notation is not a rational 'p/q': {shown}\n"

    # Fraction hands each digit string to int(), which refuses over 4300 digits
    @pytest.mark.parametrize(
        "argv, obj, shown",
        [
            (["ured", "--delta", "1/2", "--eps", "1/" + "1" * 5000], None, "'1/" + "1" * 19 + "...'"),
            (["ured", "--delta", "1/2", "--eps", "0." + "0" * 5000 + "1"], None, "'0." + "0" * 19 + "...'"),
            (["ured", "--delta", "1" * 4301 + "/" + "3" * 4400, "--eps", "1/2"], None, "'" + "1" * 21 + "...'"),
            (["norm"], {"level": 1, "values": ["1/2", "-" + "7_" * 4301]}, "'-" + "7_" * 10 + "...'"),
        ],
    )
    def test_over_long_integers_are_rejected_naming_the_value(self, tmp_path, capsys, argv, obj, shown):
        if obj is not None:
            argv = [*argv, "--input", write_json(tmp_path, "in.json", obj)]
        rc, text = invoke(tmp_path, *argv)
        err = capsys.readouterr().err
        assert rc == 2 and text == ""
        assert err == f"input error: more than 4300 digits in one integer of rational {shown}\n"

    # a valid input whose report holds integers past Python's 4300-digit
    # int-string limit is a report, not an input error
    def test_norm_report_past_the_digit_limit(self, tmp_path, capsys):
        sevens = "7" * 3000
        path = write_json(tmp_path, "f.json", {"level": 0, "values": [f"1/{sevens}"]})
        rc, text = invoke(tmp_path, "norm", "--input", path)
        assert rc == 0 and capsys.readouterr().err == ""
        report = json.loads(text)
        assert (report["l1"], report["linf"]) == (f"1/{sevens}", f"1/{sevens}")
        # T(c)**2 = (8/7) c**2 for a constant c; int() refuses the 6001-digit
        # denominator at once, so it is read back in chunks
        p, q = report["tnorm_sq"].split("/")
        assert p == "8" and len(q) > 4300 and q.isdecimal()
        chunks = [q[i : i + 1000] for i in range(0, len(q), 1000)]
        assert reduce(lambda n, chunk: n * 10 ** len(chunk) + int(chunk), chunks, 0) == 7 * int(sevens) ** 2

    def test_ured_report_past_the_digit_limit(self, tmp_path, capsys):
        nines = "9" * 4300
        rc, text = invoke(tmp_path, "ured", "--delta", "1/3", "--eps", f"1/{nines}")
        assert rc == 0 and capsys.readouterr().err == ""
        assert json.loads(text)["eps"] == [f"1/{nines}"]
        assert max(map(len, re.findall(r"[0-9]+", text))) > 4300

    @pytest.mark.parametrize("argv, obj", [
        (["norm"], {"level": 0, "values": ["1/" + "7" * 4301]}),
        (["ured", "--delta", "1/3", "--eps", "1/" + "9" * 4301], None),
    ])
    def test_one_digit_more_is_still_an_input_error(self, tmp_path, capsys, argv, obj):
        if obj is not None:
            argv = [*argv, "--input", write_json(tmp_path, "in.json", obj)]
        rc, text = invoke(tmp_path, *argv)
        assert rc == 2 and text == ""
        assert capsys.readouterr().err.startswith("input error: more than 4300 digits in one integer")

    # a value within the digit limit but out of range is named by its start too
    @pytest.mark.parametrize(
        "argv, obj, message",
        [
            (["ured", "--delta", "1/3", "--eps", "9" * 4300], None, "eps values must lie in (0, 2), got " + "9" * 21),
            (["ured", "--delta", "-" + "9" * 4300, "--eps", "1/2"], None, "delta must be in (0, 1), got -" + "9" * 20),
            (["ell1", "greedy"], {"deltas": ["9" * 4300, "1/4"]}, "deltas must lie in (0, 1), got " + "9" * 21),
            (["witness", "--eps", "1/5"], dict(NBHD, delta="-" + "9" * 4300), "delta must be > 0, got -" + "9" * 20),
        ],
    )
    def test_range_errors_name_the_value_by_its_start(self, tmp_path, capsys, argv, obj, message):
        if obj is not None:
            argv = [*argv, "--input", write_json(tmp_path, "in.json", obj)]
        rc, text = invoke(tmp_path, *argv)
        assert rc == 2 and text == ""
        assert capsys.readouterr().err == f"input error: {message}...\n"

    # a center outside the unit ball is named by the start of its T**2, also
    # past Python's 4300-digit int-string limit (3000 sevens)
    @pytest.mark.parametrize("n", [1500, 3000])
    @pytest.mark.parametrize("argv", [["witness"], ["probe", "extreme"], ["probe", "slice"]])
    def test_out_of_ball_center_is_named_by_its_start(self, tmp_path, capsys, argv, n):
        d = int("7" * n)
        center = {"level": 0, "values": [f"{2 * d + 1}/{d}"]}
        path = write_json(tmp_path, "in.json", dict(NBHD, center=center))
        rc, text = invoke(tmp_path, *argv, "--eps", "1/5", "--input", path)
        # T(c)**2 = (8/7) c**2 for the constant c = (2d + 1)/d
        shown = frac_str(Fraction(8 * (2 * d + 1) ** 2, 7 * d * d))[:21]
        assert rc == 2 and text == ""
        assert capsys.readouterr().err == f"input error: center has tnorm_sq = {shown}... > 1; not in the unit ball\n"

    def test_invalid_rational_is_named_by_its_start(self, tmp_path, capsys):
        rc, text = invoke(tmp_path, "ured", "--delta", "1/2", "--eps", "x" * 5000)
        err = capsys.readouterr().err
        assert rc == 2 and text == ""
        assert err == f"input error: Invalid literal for Fraction: {'x' * 21 + '...'!r}\n"

    def test_exponent_notation_exits_at_once(self):
        proc = subprocess.run(
            [sys.executable, "-m", "renorml1", "ured", "--delta", "1/2", "--eps", "1e300000000"],
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == b""

    def test_plain_decimals_are_still_rationals(self, tmp_path):
        rc, text = invoke(tmp_path, "ured", "--delta", "0.5", "--eps", "1.5,1,0.25")
        assert rc == 0
        assert json.loads(text)["eps"] == ["3/2", "1/1", "1/4"]

    @pytest.mark.parametrize(
        "argv, digits",
        [
            (["norm"], "-3"),
            (["probe", "midpoint"], "-2"),
            (["probe", "slice", "--eps", "1/100"], "-2"),
            (["norm"], "x"),
        ],
    )
    def test_float_digits_must_be_nonnegative(self, tmp_path, capsys, argv, digits):
        obj = dict(NBHD, f=CONST_78, g=CONST_78) if argv[0] == "probe" else CONST_78
        path = write_json(tmp_path, "in.json", obj)
        with pytest.raises(SystemExit) as exc:
            invoke(tmp_path, *argv, "--input", path, "--float-digits", digits)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument --float-digits: must be an integer >= 0, got '{digits}'" in err
        assert "Traceback" not in err and not (tmp_path / "report.out").exists()


    @pytest.mark.parametrize("digits", ["1001", "5000", "1000000000", "0" * 30 + "1001", "9" * 5000])
    def test_float_digits_are_capped_at_parsing(self, tmp_path, capsys, monkeypatch, digits):
        monkeypatch.setattr(cli, "norm_report", lambda *a: pytest.fail("ran past argument parsing"))
        path = write_json(tmp_path, "in.json", CONST_78)
        with pytest.raises(SystemExit) as exc:
            invoke(tmp_path, "norm", "--input", path, "--float-digits", digits)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        shown = digits if len(digits) <= 24 else digits[:21] + "..."
        assert f"argument --float-digits: must be in 0..{cli.MAX_FLOAT_DIGITS}, got '{shown}'" in err
        assert "Traceback" not in err and not (tmp_path / "report.out").exists()

    LONG = "9" * 200_000

    @pytest.mark.parametrize(
        "obj, argv",
        [
            ({"level": LONG, "values": ["1/1"]}, ["norm"]),
            (dict(NBHD, functionals=LONG), ["witness", "--eps", "1/5"]),
            ({"deltas": ["1/2", "1/4"], "m": LONG}, ["ell1", "greedy"]),
            (dict(CHAIN, A=[[LONG, 1]]), ["probe", "chain"]),
            (CONST_78, ["norm", "--float-digits", "x" + "9" * 99_999]),
            # JSON ints stop at 4300 digits: a 4201-digit cell index or level
            (dict(CHAIN, A=[[1, 10**4200]]), ["probe", "chain"]),
            (dict(CHAIN, A=[[-(10**4200), 1]]), ["probe", "chain"]),
            (dict(CHAIN, A=[[10**4200, 1]]), ["probe", "chain"]),
            ({"level": 10**4200, "values": ["1/1"]}, ["norm"]),
            ({"level": -(10**4200), "values": ["1/1"]}, ["norm"]),
        ],
    )
    def test_long_values_are_cut_in_the_error(self, tmp_path, capsys, obj, argv):
        argv = [*argv, "--input", write_json(tmp_path, "in.json", obj)]
        try:
            rc = invoke(tmp_path, *argv)[0]
        except SystemExit as exc:  # argparse
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == 2 and "Traceback" not in err
        assert max(map(len, err.encode().splitlines())) < 200
        assert "..." in err.splitlines()[-1]

    def test_float_digits_at_the_cap(self, tmp_path):
        path = write_json(tmp_path, "in.json", CONST_78)
        rc, text = invoke(tmp_path, "norm", "--input", path, "--float-digits", str(cli.MAX_FLOAT_DIGITS))
        assert rc == 0
        assert len(json.loads(text)["tnorm_float"].partition(".")[2]) == cli.MAX_FLOAT_DIGITS


class TestArgumentSchema:
    """Each subcommand accepts exactly the flags its handler reads."""

    FLAGS = {
        "--input": "in.json", "--out": "out.txt", "--eps": "1/5", "--delta": "1/2",
        "--level": "1", "--float-digits": "4", "--seed": "1", "--trials": "1",
    }
    SCHEMA = {
        ("norm",): {"--input", "--out", "--float-digits"},
        ("split",): {"--input", "--out", "--level"},
        ("witness",): {"--input", "--out", "--eps"},
        ("probe", "strict"): {"--input", "--out"},
        ("probe", "midpoint"): {"--input", "--out", "--float-digits"},
        ("probe", "extreme"): {"--input", "--out", "--eps"},
        ("probe", "chain"): {"--input", "--out"},
        ("probe", "slice"): {"--input", "--out", "--eps", "--float-digits"},
        ("ell1", "greedy"): {"--input", "--out"},
        ("ell1", "spikes"): {"--input", "--out", "--level"},
        ("ell1", "dual"): {"--input", "--out", "--level"},
        ("ured",): {"--delta", "--eps", "--out"},
        ("selftest",): {"--seed", "--trials", "--out"},
    }

    @pytest.mark.parametrize("command", sorted(SCHEMA))
    def test_only_the_handler_flags(self, capsys, command):
        parser = build_parser()
        own = [x for flag in sorted(self.SCHEMA[command]) for x in (flag, self.FLAGS[flag])]
        parser.parse_args([*command, *own])
        for flag in sorted(set(self.FLAGS) - self.SCHEMA[command]):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*command, *own, flag, self.FLAGS[flag]])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [(["split", "--input", "f.json"], "--level"), (["ell1", "spikes", "--input", "fam.json"], "--level"),
         (["ell1", "dual", "--input", "fam.json"], "--level"), (["ured", "--eps", "1/2"], "--delta")],
    )
    def test_missing_required_flag_exits_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"required: {flag}" in err and "Traceback" not in err

    def test_main_builds_its_parser_once(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
        for eps in ("1/2", "1/2,1/4", "1/3"):
            assert invoke(tmp_path, "ured", "--delta", "1/2", "--eps", eps)[0] == 0
        assert len(built) == 1
        assert build_parser() is not build_parser()

    def test_prec_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ured", "--prec", "1/2", "--delta", "1/2", "--eps", "1/2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --prec" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["norm"], ["split", "--level", "1"], ["witness", "--eps", "1/5"],
         ["probe", "chain"], ["ell1", "greedy"]],
    )
    def test_missing_input_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "required: --input" in err and "Traceback" not in err


class TestDeterminism:
    def run_subprocess(self, args):
        proc = subprocess.run(
            [sys.executable, "-m", "renorml1", *args],
            capture_output=True,
        )
        return proc.returncode, proc.stdout

    def test_byte_identical_reports(self, tmp_path):
        path = write_json(tmp_path, "nbhd.json", NBHD)
        for args in (
            ["witness", "--input", path, "--eps", "1/5"],
            ["selftest", "--seed", "42", "--trials", "5"],
        ):
            rc1, out1 = self.run_subprocess(args)
            rc2, out2 = self.run_subprocess(args)
            assert rc1 == rc2 == 0
            assert out1 == out2


# -- the report emitter --------------------------------------------------------

#: strings that need escaping or are not ASCII, mixed with arbitrary text
json_strings = st.sampled_from(['"', "\n", "é", "\\", "\t", "\x00", " ", "😀", ""]) | st.text(max_size=8)
json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | json_strings
)
json_keys = json_strings | st.integers() | st.floats() | st.booleans() | st.none()
json_trees = st.recursive(
    json_scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(json_keys, children, max_size=5)
    ),
    max_leaves=40,
)


def json_text(obj) -> str:
    return "".join(_json_chunks(obj))


def expand_values(o: StepValues) -> list[str]:
    """The plain list of 'p/q' strings that `o` stands for: each block of
    numerators repeated `reps` times in place, each numerator by its text."""
    return [o.texts[n] for b in o.blocks for n in b * o.reps]


class TestEmitter:
    """Reports are exactly json.dumps(report, indent=2) plus a newline."""

    @given(json_trees)
    @settings(max_examples=400)
    def test_equals_json_dumps_indent_2(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize(
        "obj",
        [
            {}, [], (), "é\n\"", 0, None, {"a": ()}, [[], {}, ""],
            [[[1]], {"x": [{}]}], {1.5: [None], True: {"k": "v"}, None: [1, "2"]},
            {"v": [True, False, None, -0.0, float("inf"), float("nan"), 10**30]},
        ],
    )
    def test_edge_cases(self, obj):
        assert json_text(obj) == json.dumps(obj, indent=2) + "\n"

    def test_rejects_what_json_dumps_rejects(self):
        for obj in ({(1, 2): "x"}, {"x": [{(1, 2): [1]}]}, [object()], {"x": {1, 2}}):
            with pytest.raises(TypeError):
                json.dumps(obj, indent=2)
            with pytest.raises(TypeError):
                json_text(obj)

    @given(
        st.lists(steps(max_level=4), min_size=1, max_size=3),
        st.sampled_from([Fraction(1), 1 - Fraction(1, 64), Fraction(-5, 3)]),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=200)
    def test_step_values_equal_json_dumps_of_the_expanded_tree(self, fs, scale, depth):
        wires = steps_to_json(*(scale * f for f in fs))
        expanded = [dict(w, values=expand_values(w["values"])) for w in wires]
        for f, wire, values in zip(fs, expanded, wires):
            assert wire["values"] == [frac_str(scale * x) for x in f.values]
            assert json_text(values["values"]) == json.dumps(wire["values"], indent=2) + "\n"
        obj, plain = {"steps": wires}, {"steps": expanded}
        for k in range(depth):  # a list, then a dict, holding a bare StepValues too
            obj, plain = [obj, wires[-1]["values"]], [plain, expanded[-1]["values"]]
            obj, plain = ({"k": obj, "n": k}, {"k": plain, "n": k}) if k % 2 else (obj, plain)
        assert json_text(obj) == json.dumps(plain, indent=2) + "\n"

    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=3),
        st.data(),
    )
    @settings(max_examples=100)
    def test_periodic_step_values_equal_json_dumps_of_the_dense_values(self, coarse, w, r, data):
        motifs = data.draw(st.lists(st.integers(-9, 9), min_size=1 << coarse + w, max_size=1 << coarse + w))
        p = DyadicStep.periodic(coarse, motifs, 1 << r, data.draw(st.integers(1, 12)))
        wire = steps_to_json(p)[0]
        assert wire["level"] == coarse + w + r
        values = [frac_str(x) for x in p.dense().values]
        assert expand_values(wire["values"]) == values
        assert json_text(wire) == json.dumps({"level": wire["level"], "values": values}, indent=2) + "\n"

    def test_witness_report_is_json_dumps(self, tmp_path):
        path = write_json(tmp_path, "nbhd.json", NBHD)
        rc, text = invoke(tmp_path, "witness", "--input", path, "--eps", "1/5")
        assert rc == 0 and text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_stdout_bytes_equal_out_bytes(self, tmp_path):
        path = write_json(tmp_path, "nbhd.json", NBHD)
        for args in (
            ["witness", "--input", path, "--eps", "1/5"],
            ["ured", "--delta", "1/3", "--eps", "1/2,1/4,1/8"],
        ):
            out = tmp_path / "report.out"
            to_stdout = subprocess.run([sys.executable, "-m", "renorml1", *args], capture_output=True)
            to_file = subprocess.run(
                [sys.executable, "-m", "renorml1", *args, "--out", str(out)], capture_output=True
            )
            assert to_stdout.returncode == to_file.returncode == 0
            assert to_file.stdout == b"" and to_stdout.stdout == out.read_bytes()

    @given(steps(max_level=4), st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_split_masses_render_like_frac_str(self, f, K):
        sp = split_pair(f, K)
        obj = sp.to_json()
        assert expand_values(obj["b"]) == [frac_str(x) for x in sp.b.dense().values]
        assert expand_values(obj["c"]) == [frac_str(x) for x in sp.c.dense().values]
        # a pair built by hand renders its own b and c
        hand = replace(sp, b=sp.c, c=sp.b).to_json()
        assert list(map(expand_values, (hand["b"], hand["c"]))) == list(map(expand_values, (obj["c"], obj["b"])))


class TestOutFile:
    """`--out` is written in place and then cut to the report's length."""

    def norm_argv(self, tmp_path):
        return ["norm", "--input", write_json(tmp_path, "f.json", CONST_78)]

    def test_rewrite_through_a_symlink_keeps_the_link(self, tmp_path, capsys):
        argv = self.norm_argv(tmp_path)
        assert main(argv) == 0
        report = capsys.readouterr().out.encode()
        target, link = tmp_path / "target.out", tmp_path / "link.out"
        target.write_bytes(b"x" * (3 * len(report)))
        link.symlink_to(target)
        assert main([*argv, "--out", str(link)]) == 0
        assert link.is_symlink() and target.read_bytes() == report

    def test_devnull_is_written_and_not_cut(self, tmp_path):
        # ftruncate on a character device fails, so only a regular file is cut
        assert main([*self.norm_argv(tmp_path), "--out", os.devnull]) == 0

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        argv, out = self.norm_argv(tmp_path), tmp_path / "new.out"
        old = os.umask(0o027)
        try:
            assert main([*argv, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027

    @pytest.mark.parametrize(
        "argv, obj, rc",
        [
            (["norm"], {"level": 1, "values": ["1/2"]}, 2),
            (["witness", "--eps", "1/5"], dict(NBHD, center={"level": 0, "values": ["0/1"]}), 1),
        ],
    )
    def test_failed_run_leaves_the_old_file(self, tmp_path, capsys, argv, obj, rc):
        out, old = tmp_path / "report.out", b"an earlier report\n" * 100
        out.write_bytes(old)
        assert invoke(tmp_path, *argv, "--input", write_json(tmp_path, "in.json", obj))[0] == rc
        assert out.read_bytes() == old and capsys.readouterr().err


class TestInternalErrors:
    def test_internal_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def broken(nbhd, eps):
            raise RuntimeError("internal: exact gap fell below the guaranteed bound")

        monkeypatch.setattr(cli, "d2p_witness", broken)
        path = write_json(tmp_path, "nbhd.json", NBHD)
        rc, text = invoke(tmp_path, "witness", "--input", path, "--eps", "1/5")
        err = capsys.readouterr().err
        assert rc == 3 and text == ""
        assert err == "internal error: exact gap fell below the guaranteed bound\n"
        assert "Traceback" not in err and not (tmp_path / "report.out").exists()

    def test_any_other_fault_exits_3_naming_its_type(self, tmp_path, capsys, monkeypatch):
        def broken(f, float_digits):
            return {}["tnorm_sq"]

        monkeypatch.setattr(cli, "norm_report", broken)
        path = write_json(tmp_path, "f.json", CONST_78)
        rc, text = invoke(tmp_path, "norm", "--input", path)
        err = capsys.readouterr().err
        assert rc == 3 and text == "" and not (tmp_path / "report.out").exists()
        assert err == "internal error: KeyError: 'tnorm_sq'\n"

    def test_deeply_nested_input_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        rc, text = invoke(tmp_path, "norm", "--input", str(path))
        err = capsys.readouterr().err
        assert rc == 2 and text == "" and err.startswith("input error:") and "nested too deeply" in err

    def test_verification_failure_stays_exit_1(self, tmp_path, capsys):
        bad = dict(NBHD, center={"level": 0, "values": ["0/1"]})
        path = write_json(tmp_path, "nbhd.json", bad)
        rc, _ = invoke(tmp_path, "witness", "--input", path, "--eps", "1/5")
        assert rc == 1 and capsys.readouterr().err.startswith("verification failure:")


# -- fuzzed JSON inputs ----------------------------------------------------------

small = st.sampled_from(["1/8", "-1/4", "0/1", "1/3", "-1/16"])
junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 64), st.floats(-2, 2), st.text(max_size=3),
    st.sampled_from(["1/0", "x", "1.5", "7"]), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["level", "values", "k"]), st.integers(-1, 64), max_size=2),
)


@st.composite
def valid_steps(draw):
    level = draw(st.integers(0, 3))
    return {"level": level, "values": draw(st.lists(small, min_size=1 << level, max_size=1 << level))}


@st.composite
def cells(draw):
    k = draw(st.integers(0, 3))
    return [k, draw(st.integers(1, 1 << k))]


#: a center near the unit sphere, so that a witness can pass its gap check
NEAR_UNIT = {"level": 2, "values": ["16440/9979", "-8220/9979", "12330/9979", "0/1"]}

#: (argv, a valid input) for each fuzzed command
valid_cases = st.one_of(
    st.tuples(st.just(["norm"]), valid_steps()),
    st.tuples(
        st.just(["witness", "--eps", "1/2"]),
        st.fixed_dictionaries({
            "center": st.one_of(st.just(CONST_78), st.just(NEAR_UNIT), valid_steps()),
            "functionals": st.lists(valid_steps(), max_size=2),
            "delta": st.sampled_from(["1/2", "1/10"]),
        }),
    ),
    st.tuples(
        st.just(["probe", "chain"]),
        st.fixed_dictionaries({"f": valid_steps(), "g": valid_steps(), "A": st.lists(cells(), max_size=3)}),
    ),
    st.tuples(st.just(["split", "--level", "2"]), valid_steps()),
    st.tuples(
        st.sampled_from([["probe", "strict"], ["probe", "midpoint"]]),
        st.fixed_dictionaries({"f": valid_steps(), "g": valid_steps()}),
    ),
    st.tuples(
        st.sampled_from([["probe", "extreme", "--eps", "1/2"], ["probe", "slice", "--eps", "1/2,1/4"]]),
        st.fixed_dictionaries({
            "center": st.one_of(st.just(NEAR_UNIT), valid_steps()),
            "functionals": st.lists(valid_steps(), max_size=2),
            "delta": st.sampled_from(["1/2", "1/10"]),
        }),
    ),
    st.tuples(
        st.sampled_from([["ell1", "greedy"], ["ell1", "spikes", "--level", "3"], ["ell1", "dual", "--level", "3"]]),
        st.integers(1, 4).map(lambda m: {"deltas": ["1/2", "1/4", "1/8", "1/16"][:m], "m": m}),
    ),
)


def corrupt(draw, obj):
    """obj with one entry somewhere inside replaced by junk or dropped."""
    if not isinstance(obj, (dict, list)) or not obj or draw(st.integers(0, 3)) == 0:
        return draw(junk)
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    key = draw(st.sampled_from(sorted(out) if isinstance(out, dict) else range(len(out))))
    if isinstance(out, dict) and draw(st.integers(0, 4)) == 0:
        del out[key]
    else:
        out[key] = corrupt(draw, out[key])
    return out


@st.composite
def fuzz_cases(draw):
    argv, obj = draw(valid_cases)
    for _ in range(draw(st.integers(0, 2))):
        obj = corrupt(draw, obj)
    return argv, obj


#: parts of fuzzed `ured` flags: zeros, negatives, 1/0, empty parts, values >= 2
ured_parts = st.sampled_from(
    ["1/2", "1/4", "3/4", "1/8", "7/4", "0", "0/1", "-1/4", "1/0", "2", "5/2", "", " ", "x", "1.5"]
)


def ured_accepts(delta: str, eps: str) -> bool:
    """Whether `ured` should report on these flags, decided with Fractions."""
    try:
        d = Fraction(delta)
        schedule = [Fraction(part) for part in eps.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError):
        return False
    return (
        0 < d < 1
        and bool(schedule)
        and all(0 < e < 2 for e in schedule)
        and all(b <= a for a, b in zip(schedule, schedule[1:]))
    )


class TestFuzzedInputs:
    @settings(max_examples=150, deadline=None)
    @given(ured_parts, st.lists(ured_parts, max_size=4).map(",".join))
    @example("1/2", ",")
    @example("1/2", "1/2, ,1/4")
    def test_ured_flags_end_in_an_exit_code(self, tmp_path_factory, delta, eps):
        out = tmp_path_factory.getbasetemp() / "fuzz-ured.out"
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with redirect_stderr(err):
            rc = main(["ured", f"--delta={delta}", f"--eps={eps}", "--out", str(out)])
        assert rc == (0 if ured_accepts(delta, eps) else 2)
        if rc == 2:
            assert not out.exists() and err.getvalue().startswith("input error:")
            if ured_accepts(delta, "1/2") and not eps.replace(",", "").strip():
                assert "--eps" in err.getvalue()
        else:
            assert json.loads(out.read_text())["verify"]["ok"]

    @settings(max_examples=250, deadline=None)
    @given(fuzz_cases())
    def test_every_input_ends_in_an_exit_code(self, tmp_path_factory, case):
        argv, obj = case
        base = tmp_path_factory.getbasetemp()
        path, out = base / "fuzz.json", base / "fuzz.out"
        path.write_text(json.dumps(obj))
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with redirect_stderr(err):
            rc = main([*argv, "--input", str(path), "--out", str(out)])
        assert rc in (0, 1, 2)
        if rc == 2:
            assert not out.exists() and err.getvalue().startswith("input error:")
