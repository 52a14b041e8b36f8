"""Byte-identity of CLI reports and demo output on a fixed input set.

Each case runs ``renorml1.cli.main`` in-process and compares the sha256 of
the report file with a digest recorded before the mass-level kernel was
consolidated, or, for a later case, before the change its comment names.
``scripts/ured_demo.py`` and ``scripts/ell1_demo.py`` are held to the digest
of what they print, ``scripts/slice_gaps.py`` to the digests of its table and
its CSV. Any change to a report byte, however small, fails here; if a report
format changes on purpose, re-record the digest in the same change and say
why.
"""

import hashlib
import json
import runpy
import sys
from pathlib import Path

import pytest

from renorml1.cli import main

F = {"level": 2, "values": ["1/2", "-3/4", "0/1", "5/3"]}
G = {"level": 1, "values": ["-2/3", "1/1"]}
CENTER = {"level": 2, "values": ["16440/9979", "-8220/9979", "12330/9979", "0/1"]}
FUNCTIONALS = [
    {"level": 0, "values": ["1/1"]},
    {"level": 2, "values": ["1/2", "-1/1", "0/1", "3/4"]},
    {"level": 3, "values": ["1/1", "1/1", "-1/1", "0/1", "1/3", "-1/3", "1/1", "-1/1"]},
]
NBHD = {"center": CENTER, "functionals": [], "delta": "1/2"}
NBHD_FUNCTIONALS = {"center": CENTER, "functionals": FUNCTIONALS, "delta": "1/2"}

INPUTS = {
    "f": F,
    "pair": {"f": F, "g": G},
    "chain": {"f": F, "g": G, "A": [[1, 1], [3, 6]]},
    "nbhd": NBHD,
    "nbhd_functionals": NBHD_FUNCTIONALS,
    "fam": {"deltas": ["1/2", "1/3", "1/5"], "m": 3},
}

#: (argv, sha256 of the report); "@name" is replaced by the path of INPUTS[name].
CASES = {
    "norm": (
        ["norm", "--input", "@f"],
        "bdb3388e0ba2da2077f9bcd6a0bf12d05587351e2b7b0be265b1442ece60d393",
    ),
    "split": (
        ["split", "--input", "@f", "--level", "3"],
        "8b9407059a7a0026fc32001c0820960636ab959c073790929252678acdd0b276",
    ),
    "witness": (
        ["witness", "--input", "@nbhd", "--eps", "1/100"],
        "9e78c1a3c7e46c73fc1dede483c4c798d01a081b25def549baba6747e7de964c",
    ),
    "witness_functionals": (
        ["witness", "--input", "@nbhd_functionals", "--eps", "1/100"],
        "29b108447db62d62781e1c4874a2fd99f1a4b8198c860a8825893b3e22152321",
    ),
    "probe_strict": (
        ["probe", "strict", "--input", "@pair"],
        "dbdb8e7c7a05cdd65e1dc94c856337433ef9354a15a227333c20b3acb97436f2",
    ),
    "probe_midpoint": (
        ["probe", "midpoint", "--input", "@pair"],
        "6c2376431c22fad64146be794dc038de8427d8c2de94de7d71b940ea90c9da70",
    ),
    "probe_extreme": (
        ["probe", "extreme", "--input", "@nbhd_functionals", "--eps", "1/5"],
        "571d5677052982a1ffd36555dfc4075a7dfeeae3c4687cfed2a0e4d6deaf21d9",
    ),
    "probe_chain": (
        ["probe", "chain", "--input", "@chain"],
        "a71985ef49e14f35116fba07cf39c30d81485f9cdae7d644a964f56b77d7786e",
    ),
    "probe_slice": (
        ["probe", "slice", "--input", "@nbhd_functionals", "--eps", "1/5,1/10,1/20"],
        "468bf9794c532391a9d5985a26b3160cf7b8faa8f1d08c21a0987b7c8b2184fa",
    ),
    "ell1_greedy": (
        ["ell1", "greedy", "--input", "@fam"],
        "2a4a6980aaf4cbeab8c63e51b1447440a3d734bbb440c48d2cdacacf38e8ca97",
    ),
    "ell1_spikes": (
        ["ell1", "spikes", "--input", "@fam", "--level", "3"],
        "9e35b3ceef32ba6898e4153ef91efa6100851a9aafd904fa474155f0400b42c1",
    ),
    "ell1_dual": (
        ["ell1", "dual", "--input", "@fam", "--level", "3"],
        "5e3642076cacad8864d19f55509361cc1b9c9e4f9ceca09d040df755aad3ecf0",
    ),
    "ured": (
        ["ured", "--delta", "1/3", "--eps", "1/2,1/4,1/8,1/16"],
        "f7c6877733eb8c4fcd7224e1fa33a9134802ff770fb418ad81f6ec568bb22e66",
    ),
    "selftest": (
        ["selftest", "--seed", "3", "--trials", "5"],
        "a69b2b90a6dac547cbcb14e18948c7ebf33deae371be2240c2ef89ee21f166ab",
    ),
    # recorded before the ured claims moved to one pass; 1 - delta = 49/50
    # dominates ||z + x_n|| until eps_n drops below 2/25
    "ured_30": (
        ["ured", "--delta", "1/50", "--eps", ",".join(f"1/{2 + k // 2}" for k in range(30))],
        "d82e925cd474843251a4cc8796f73d85c4bf9e27d01941e35aa6f04835755ca3",
    ),
    # the deep path, recorded before the kernel kept the numerators of the
    # steps it builds: split level K + 2 = 15, and a level-13 split
    "witness_deep": (
        ["witness", "--input", "@nbhd_functionals", "--eps", "1/1000"],
        "bc572033d783513548dc090e682d2220d03dc64bd847fa02807f0252c17ead8c",
    ),
    "split_deep": (
        ["split", "--input", "@f", "--level", "13"],
        "1d4de9b5ce68ccb625e780b1f78d061d4fd6d81c0adfd5e2f4259465c4112242",
    ),
    # recorded before the split lattices became periodic: K = 1 below the
    # center's level 2, so each level-K cell is a coarse cell repeated once
    "split_coarse": (
        ["split", "--input", "@f", "--level", "1"],
        "a2484d46d67ff4a1d0a589774d718b88f8a121482ca5c7b74601c814156fc59c",
    ),
    # recorded before the witness wrote g1 and g2 from the numerators of f1
    # and f2: center and u at split level K + 2 = 15
    "probe_extreme_deep": (
        ["probe", "extreme", "--input", "@nbhd_functionals", "--eps", "1/1000"],
        "eac0896bd9f1f5191e752aba770617b9787fbfc8ec10a5b85fd2ac696968601c",
    ),
    # recorded before a run stored one shared coordinate lattice: 120 steps
    # on the prime denominators 997 and 999983; the first height is over
    # 999983 and the second over 4 * 999983, so the lattice is rescaled
    "ured_120": (
        ["ured", "--delta", "331/997", "--eps", ",".join(f"{1_999_964 - 16_381 * k}/999983" for k in range(120))],
        "f1fd3f34d5eed86a5d11265dd5a363591239af2ffee626bd9ab8f39252fe8c9a",
    ),
}

#: (argv of scripts/ured_demo.py, sha256 of what it prints), recorded with the
#: ured golden case above
DEMOS = {
    "default": ([], "a491163484814d99c5e6b903e142eb8e1d7acfa91896b55cfba9b01f8b03abce"),
    "steps_25": (["--steps", "25", "--delta", "1/7"], "2920c04b5d594011183a68e935ea2bc2a2ef73dd9b22e4d8d43fc16d822c7133"),
}


def report_digest(tmp_path, argv) -> str:
    args = []
    for a in argv:
        if a.startswith("@"):
            path = tmp_path / f"{a[1:]}.json"
            path.write_text(json.dumps(INPUTS[a[1:]]))
            a = str(path)
        args.append(a)
    out = tmp_path / "report.out"
    assert main([*args, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_unchanged(tmp_path, name):
    argv, digest = CASES[name]
    assert report_digest(tmp_path, argv) == digest


def test_rewritten_out_file_equals_stdout(tmp_path, capsys):
    # `--out` is written in place over an existing file and then cut, so a
    # longer report after a shorter one and a shorter after a longer (the
    # 2.5 MB K = 13 witness, then the norm) each leave exactly their bytes
    for name in ("norm", "witness_deep", "norm", "witness_deep"):
        argv, digest = CASES[name]
        assert report_digest(tmp_path, argv) == digest
        assert main([str(tmp_path / f"{a[1:]}.json") if a[0] == "@" else a for a in argv]) == 0
        assert capsys.readouterr().out.encode() == (tmp_path / "report.out").read_bytes()


def run_script(monkeypatch, capsys, name: str, argv) -> str:
    """What scripts/<name> prints when run as a program with `argv`."""
    script = Path(__file__).resolve().parents[1] / "scripts" / name
    monkeypatch.setattr(sys, "argv", [str(script), *argv])
    runpy.run_path(str(script), run_name="__main__")
    return capsys.readouterr().out


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_ured_demo_output_unchanged(monkeypatch, capsys, name):
    argv, digest = DEMOS[name]
    assert sha(run_script(monkeypatch, capsys, "ured_demo.py", argv)) == digest


# recorded before the one lattice-value renderer and the split record of steps


def test_ell1_demo_output_unchanged(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "ell1_demo.py", [])
    assert sha(out) == "b655ddbe150970fa82fe0225ddbea26bcaafcf09b94646d965ee66c26b206dca"


def test_slice_gaps_output_unchanged(monkeypatch, capsys, tmp_path):
    csv = tmp_path / "slice.csv"
    out = run_script(monkeypatch, capsys, "slice_gaps.py", ["--out", str(csv)])
    table, _, written = out.rstrip("\n").rpartition("\n")
    assert written == f"csv written to {csv}"
    assert sha(table + "\n") == "8bc29c5b2709532b9a33cf5c53005b560d0293d7d370124d8657bed08542ff10"
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == (
        "15558a8dd29b5e04bfdac68685dd3366404f8ab0adb05075979836711d8bfda0"
    )


@pytest.mark.parametrize("name, argv, line", [
    ("ured_demo.py", ["--delta", "2"], "input error: delta must be in (0, 1), got 2\n"),
    ("slice_gaps.py", ["--prec", "2"], "input error: prec must be in (0, 1], got 2/1\n"),
], ids=["ured_demo", "slice_gaps"])
def test_demo_scripts_end_bad_input_like_the_cli(monkeypatch, capsys, tmp_path, name, argv, line):
    monkeypatch.chdir(tmp_path)  # slice_gaps.py would write its csv here
    with pytest.raises(SystemExit) as info:
        run_script(monkeypatch, capsys, name, argv)
    assert info.value.code == 2 and capsys.readouterr() == ("", line)
