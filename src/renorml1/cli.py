"""Batch front-end: JSON in, machine-readable reports out.

Subcommands
    norm                       squared-norm report for one function
    split                      mass split (b, c, f1, f2) at level K
    witness                    neighborhood witness pair with named checks
    probe strict|midpoint|extreme|chain|slice
    ell1 greedy|spikes|dual
    ured                       sup-norm recursion + claim/segment checks
    selftest                   seeded invariant batteries

Exit codes: 0 success, 1 verification failure (for example the witness gap
condition), 2 input error (bad or non-object JSON, an unknown top-level key,
bad rationals, overflow, an unknown or missing flag), 3 internal error (a
required check failed, or any other library fault; stderr names the check
and its two sides, or the exception type). Every `ok` a report prints is
the verdict of a check its command required, so it reads true whenever a
report is written. Rationals are read and written as 'p/q' strings;
floats appear only in labelled rendering fields. A JSON report is exactly
json.dumps(report, indent=2) plus a newline. With a fixed seed every command
writes byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import accumulate, chain, repeat

from .dyadic import (
    StepValues,
    _shown,
    decimal_str,
    frac_str,
    step_from_json,
    to_frac,
)
from .ell1 import (
    disjoint_spike_family,
    dual_segment,
    greedy_asymptotic_ell1,
    nonsmooth_pairings,
)
from .probes import (
    midpoint_defect,
    perturbation_l1_chain,
    slice_csv,
    slice_diameter_lb,
    strong_extreme_failure,
)
from .renorm import norm_report, triangle_equality_case
from .selftest import run_selftest
from .ured import PrefixMaps, segment_check, ured_recursion
from .witness import GapConditionError, WeakNbhd, d2p_witness, split_pair


class InputError(ValueError):
    pass


#: the top-level keys of each kind of input
_STEP_KEYS = ("level", "values")
_NBHD_KEYS = ("center", "functionals", "delta")
_PAIR_KEYS = ("f", "g")


def _load_json(path: str, *keys: str) -> dict:
    """The JSON object in `path`, whose top-level keys are among `keys`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise InputError(f"input file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:  # the decoder recurses once per nesting level
        raise InputError(f"JSON in {path} is nested too deeply") from None
    if not isinstance(obj, dict):
        raise InputError(f"{path} must hold a JSON object, got {type(obj).__name__}")
    for key in obj:
        if key not in keys:
            raise InputError(f"unknown key {_shown(key)!r} in input; expected keys: {', '.join(keys)}")
    return obj


def _need(obj: dict, key: str):
    if key not in obj:
        raise InputError(f"missing required key {key!r} in input")
    return obj[key]


def _parse_rat(text) -> Fraction:
    try:
        return to_frac(text)
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from None


def _parse_rat_list(text: str) -> list[Fraction]:
    return [_parse_rat(part.strip()) for part in text.split(",") if part.strip()]


def _step(obj) -> "DyadicStep":
    try:
        return step_from_json(obj)
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from None


def _eps_schedule(args, command: str) -> list[Fraction]:
    eps = _parse_rat_list(args.eps or "")
    if not eps:
        raise InputError(f"{command} needs a nonempty --eps schedule (comma-separated)")
    return eps


def _single_eps(args, command: str) -> Fraction:
    eps_list = _parse_rat_list(args.eps or "")
    if len(eps_list) != 1:
        raise InputError(f"{command} takes exactly one --eps value")
    return eps_list[0]


def _as_list(value, key: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{key!r} must be a list, got {value!r}")
    return value


def _nbhd_from_json(obj) -> WeakNbhd:
    center = _step(_need(obj, "center"))
    raw = _as_list(obj.get("functionals", []), "functionals")
    functionals = tuple(_step(o) for o in raw)
    delta = _parse_rat(_need(obj, "delta"))
    return WeakNbhd(center, functionals, delta)


def _emit(chunks: list[str], out_path) -> None:
    """Write the text chunks one after the other, unjoined."""
    with open(out_path, "w", encoding="utf-8", newline="\n") if out_path else nullcontext(sys.stdout) as fh:
        fh.writelines(chunks)


def _emit_json(obj, out_path) -> None:
    _emit(_json_chunks(obj), out_path)


def _json_chunks(obj) -> list[str]:
    """The chunks of exactly json.dumps(obj, indent=2) + "\n", at C-encoder speed."""
    chunks: list[str] = []
    _encode(obj, 0, chunks)
    chunks.append("\n")
    return chunks


def _json_text(obj) -> str:
    return "".join(_json_chunks(obj))


_SCALARS = (str, int, float, type(None))  # bool is an int


def _encode(o, depth: int, chunks: list[str]) -> None:
    """Append the text of json.dumps(o, indent=2) for `o` nested `depth`
    levels deep. A non-empty container whose items are all scalars goes to
    the C encoder in one call, with the item separator carrying the newline
    and indent of its items; only the nesting above it is walked here."""
    if isinstance(o, StepValues):
        _encode_values(o, depth, chunks)
        return
    if isinstance(o, PrefixMaps):
        _encode_prefixes(o, depth, chunks)
        return
    if isinstance(o, dict):
        items, brackets = o.values(), "{}"
    elif isinstance(o, (list, tuple)):
        items, brackets = o, "[]"
    else:
        chunks.append(json.dumps(o))
        return
    if not o:
        chunks.append(brackets)
        return
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if all(map(isinstance, items, repeat(_SCALARS))):
        text = json.dumps(o, separators=("," + inner, ": "))
        chunks.extend((brackets[0], inner, text[1:-1], outer, brackets[1]))
        return
    sep = brackets[0] + inner
    if brackets == "{}":
        for key, value in o.items():
            chunks.extend((sep, json.dumps(_json_key(key)), ": "))
            _encode(value, depth + 1, chunks)
            sep = "," + inner
    else:
        for value in o:
            chunks.append(sep)
            _encode(value, depth + 1, chunks)
            sep = "," + inner
    chunks.extend((outer, brackets[1]))


def _encode_values(o: StepValues, depth: int, chunks: list[str]) -> None:
    """Append the text of json.dumps(o.expand(), indent=2) nested `depth`
    levels deep: one join of the value texts of each block, then one join of
    every block's text repeated in place, the quotes around the values
    carried by the separator ('p/q' text never needs escaping). A step has
    at least one value, so the list is never empty."""
    inner = "\n" + "  " * (depth + 1)
    sep = '",' + inner + '"'
    blocks = (sep.join(map(o.texts.__getitem__, b)) for b in o.blocks)
    body = sep.join(chain.from_iterable(repeat(b, o.reps) for b in blocks))
    chunks.extend(("[", inner, '"', body, '"', "\n" + "  " * depth, "]"))


def _encode_prefixes(o: PrefixMaps, depth: int, chunks: list[str]) -> None:
    """Append the text of json.dumps(o.expand(), indent=2) nested `depth`
    levels deep. The last object's members are encoded by one C-encoder call,
    joined by the member separator; each object is a prefix of that text,
    since the separator's newline never occurs inside an encoded string."""
    if not o.counts:
        chunks.append("[]")
        return
    inner, member = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    sep = "," + member
    body = json.dumps(dict(zip(o.keys, o.values)), separators=(sep, ": "))[1:-1]
    members = body.split(sep) if body else []
    ends = list(accumulate((len(m) + len(sep) for m in members), initial=-len(sep)))
    opened, closed = "{" + member, inner + "}"
    objects = [opened + body[: ends[c]] + closed if c else "{}" for c in o.counts]
    chunks.extend(("[", inner, ("," + inner).join(objects), "\n" + "  " * depth, "]"))


def _json_key(key) -> str:
    """A dict key as json.dumps coerces it: floats, ints, bools and None
    become their JSON text."""
    if isinstance(key, str):
        return key
    if isinstance(key, _SCALARS):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


# -- subcommand handlers -------------------------------------------------------


def _cmd_norm(args) -> int:
    f = _step(_load_json(args.input, *_STEP_KEYS))
    _emit_json(norm_report(f, args.float_digits).to_json(), args.out)
    return 0


def _cmd_split(args) -> int:
    f = _step(_load_json(args.input, *_STEP_KEYS))
    _emit_json(split_pair(f, args.level).to_json(), args.out)
    return 0


def _cmd_witness(args) -> int:
    nbhd = _nbhd_from_json(_load_json(args.input, *_NBHD_KEYS))
    rep = d2p_witness(nbhd, _single_eps(args, "witness"))
    _emit_json(rep.to_json(), args.out)
    return 0


def _cmd_probe(args) -> int:
    if args.what == "strict":
        obj = _load_json(args.input, *_PAIR_KEYS)
        case = triangle_equality_case(_step(_need(obj, "f")), _step(_need(obj, "g")))
        _emit_json(case.to_json(), args.out)
    elif args.what == "midpoint":
        obj = _load_json(args.input, *_PAIR_KEYS)
        d = midpoint_defect(_step(_need(obj, "f")), _step(_need(obj, "g")))
        _emit_json(
            {"defect": frac_str(d), "defect_float": decimal_str(d, args.float_digits)},
            args.out,
        )
    elif args.what == "extreme":
        nbhd = _nbhd_from_json(_load_json(args.input, *_NBHD_KEYS))
        wit = strong_extreme_failure(nbhd, _single_eps(args, "probe extreme"))
        _emit_json(wit.to_json(), args.out)
    elif args.what == "chain":
        obj = _load_json(args.input, *_PAIR_KEYS, "A")
        A = _as_list(obj.get("A", []), "A")
        rep = perturbation_l1_chain(_step(_need(obj, "f")), _step(_need(obj, "g")), A)
        _emit_json(rep.to_json(), args.out)
    else:  # slice
        nbhd = _nbhd_from_json(_load_json(args.input, *_NBHD_KEYS))
        eps = _eps_schedule(args, "probe slice")
        entries = slice_diameter_lb(nbhd.center, nbhd.functionals, nbhd.delta, eps)
        _emit([slice_csv(entries, args.float_digits)], args.out)
        failed = [e for e in entries if not e.ok]
        if failed:
            sys.stderr.write(f"slice entries failed: {failed[0].error}\n")
            return 1
    return 0


def _cmd_ell1(args) -> int:
    obj = _load_json(args.input, "deltas", "m")
    deltas = [_parse_rat(d) for d in _as_list(_need(obj, "deltas"), "deltas")]
    m = obj.get("m", len(deltas))
    if not isinstance(m, int) or isinstance(m, bool):
        raise InputError(f"'m' must be an integer, got {m!r}")
    if args.what == "greedy":
        report = greedy_asymptotic_ell1(deltas, m).to_json()
    else:
        fam = disjoint_spike_family(deltas, m, args.level)
        report = fam.to_json()
        if args.what == "dual":
            pair = dual_segment(fam)
            nonsmooth = nonsmooth_pairings(fam, pair).to_json()
            report = {"family": report, "dual": pair.to_json(), "nonsmooth": nonsmooth}
    _emit_json(report, args.out)
    return 0


def _cmd_ured(args) -> int:
    delta = _parse_rat(args.delta)
    eps = _eps_schedule(args, "ured")
    run = ured_recursion(delta, eps, len(eps))
    grid = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    report = run.to_json()
    report["verify"] = run.verified
    if run.steps >= 1:
        report["segment"] = segment_check(run, grid, run.steps)
    _emit_json(report, args.out)
    return 0


def _cmd_selftest(args) -> int:
    ok, lines = run_selftest(args.seed, args.trials)
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0 if ok else 1


#: the most fractional digits a decimal rendering may be asked for
MAX_FLOAT_DIGITS = 1000


def _digit_count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    # the length first: Python refuses int() of a string of over 4300 digits
    if len(text.lstrip("0")) > len(str(MAX_FLOAT_DIGITS)) or int(text) > MAX_FLOAT_DIGITS:
        raise argparse.ArgumentTypeError(f"must be in 0..{MAX_FLOAT_DIGITS}, got {_shown(text)!r}")
    return int(text)


#: add_argument keywords per flag; each subcommand and each probe or ell1 kind
#: declares only the flags its handler reads, so any other flag exits 2.
_FLAGS = {
    "--input": dict(required=True, help="input JSON path"),
    "--out": dict(help="output path (default stdout)"),
    "--eps": dict(help="rational eps, or comma-separated schedule"),
    "--delta": dict(required=True, help="rational delta"),
    "--level": dict(type=int, required=True, help="dyadic level parameter"),
    "--float-digits": dict(type=_digit_count, default=12, dest="float_digits"),
    "--seed": dict(type=int, default=0, help="seed for randomized trials"),
    "--trials": dict(type=int, default=25, help="trial count"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="renorml1",
        description="Exact-arithmetic reports for dyadic step functions and the renormed ball.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, handler, *flags):
        p = parent.add_parser(name)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler)

    def kinds(name, handler, **flags):
        what = sub.add_parser(name).add_subparsers(dest="what", required=True)
        for kind, own in flags.items():
            command(what, kind, handler, "--input", "--out", *own)

    command(sub, "norm", _cmd_norm, "--input", "--out", "--float-digits")
    command(sub, "split", _cmd_split, "--input", "--out", "--level")
    command(sub, "witness", _cmd_witness, "--input", "--out", "--eps")
    command(sub, "ured", _cmd_ured, "--delta", "--eps", "--out")
    command(sub, "selftest", _cmd_selftest, "--seed", "--trials", "--out")
    kinds("probe", _cmd_probe, strict=(), midpoint=("--float-digits",), extreme=("--eps",),
          chain=(), slice=("--eps", "--float-digits"))
    kinds("ell1", _cmd_ell1, greedy=(), spikes=("--level",), dual=("--level",))
    return parser


#: the parser `main` uses, built on its first call and kept for the process
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.handler(args)
    except GapConditionError as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:  # InputError and LevelOverflowError too
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except Exception as exc:  # a failed check or any other library fault
        failed_check = type(exc) is RuntimeError  # raised only by `checks.require`
        what = str(exc).removeprefix("internal: ") if failed_check else f"{type(exc).__name__}: {exc}"
        sys.stderr.write(f"internal error: {what}\n")
        return 3


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
