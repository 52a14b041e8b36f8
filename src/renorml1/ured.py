"""A concrete sup-norm recursion showing directional-rotundity failure.

On finitely supported sequences with the sup norm, zeroing the first
coordinate is a norm-one projection with a one-dimensional kernel. With
z = (1-delta) e_1 in that kernel, the recursion places, at step n, the pair
+-(1 - eps_n/4) e_{n+1} on a fresh coordinate; taking the + member keeps
||z + x_n|| < 1 while the coordinate functionals norm every later x_m at
height 1 - eps_n/4 > 1 - eps_n. Consequently

    x_n - y_n = -z       (fixed direction),
    ||x_n + y_n|| = ||2 x_n + z|| = 2 (1 - eps_n/4)  ->  2,

for y_n = z + x_n, and every point t*z + x_N of the truncated segment stays
in the closed ball with norm at least 1 - eps_N/4.

Every `SparseSeq` holds only its reduced int lattice: sorted indices, nonzero
int numerators and their least common denominator; `coords` derives the
Fraction pairs on each read. The recursion builds x_n by appending one
numerator to the tuples of x_{n-1}, rescaling them only when the
denominator grows.

A run stores x_n with n coordinates each, so Theta(steps**2) in all. Its
claims are evaluated in one pass over those coordinates, linear in their
number, in ints over one common denominator: only the values a report prints
become Fractions. The pass reads every stored coordinate and does not assume
that x_m extends x_{m-1}. `ured_recursion` makes it once and keeps its
report on the run (`verified`); `verify_claim` makes it again on whatever
run it is given.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import add, eq, itemgetter, mul, sub
from typing import Sequence

from .checks import Check, check, require
from .dyadic import frac_str, to_frac


@dataclass(frozen=True, init=False)
class SparseSeq:
    """A finitely supported sequence: the value at index idx[k] is
    Fraction(nums[k], den), with sorted indices >= 1, nonzero numerators and
    den > 0 their least common denominator. The lattice is therefore unique,
    and the dataclass `==` and `hash` on it are those of the sequence."""

    idx: tuple[int, ...]
    nums: tuple[int, ...]
    den: int

    def __init__(self, coords):
        pairs = []
        for i, v in coords:
            if not isinstance(i, int) or isinstance(i, bool):
                raise TypeError(f"indices must be integers, got {i!r}")
            v = to_frac(v)
            if v:
                if i < 1:
                    raise ValueError(f"indices must be >= 1, got {i}")
                pairs.append((i, v.as_integer_ratio()))
        pairs.sort(key=itemgetter(0))
        idx = tuple([i for i, _ in pairs])
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate indices")
        den = lcm(*[d for _, (_, d) in pairs])
        _set(self, idx, tuple([n * (den // d) for _, (n, d) in pairs]), den)

    @property
    def coords(self) -> tuple[tuple[int, Fraction], ...]:
        """The sorted (index, nonzero value) pairs, as Fractions."""
        return tuple(zip(self.idx, map(Fraction, self.nums, repeat(self.den))))

    @staticmethod
    def from_dict(d: dict) -> "SparseSeq":
        return SparseSeq(d.items())

    @staticmethod
    def unit(i: int, value=1) -> "SparseSeq":
        return SparseSeq(((i, value),))

    @staticmethod
    def zero() -> "SparseSeq":
        return _seq((), (), 1)

    def get(self, i: int) -> Fraction:
        k = bisect_left(self.idx, i)
        if k < len(self.idx) and self.idx[k] == i:
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def sup_norm(self) -> Fraction:
        return Fraction(max(map(abs, self.nums), default=0), self.den)

    def __add__(self, other: "SparseSeq") -> "SparseSeq":
        den = lcm(self.den, other.den)
        acc = dict(zip(self.idx, map(mul, self.nums, repeat(den // self.den))))
        scale = den // other.den
        for i, n in zip(other.idx, other.nums):
            acc[i] = acc.get(i, 0) + n * scale
        idx = sorted(acc)
        return _lattice(idx, list(map(acc.__getitem__, idx)), den)

    def __neg__(self) -> "SparseSeq":
        return _seq(self.idx, tuple([-n for n in self.nums]), self.den)

    def __sub__(self, other: "SparseSeq") -> "SparseSeq":
        return self + (-other)

    def __mul__(self, c) -> "SparseSeq":
        cn, cd = to_frac(c).as_integer_ratio()
        return _lattice(self.idx, [cn * n for n in self.nums], cd * self.den)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return _seq_json(self, *_json_memos())


def _set(x: SparseSeq, idx: tuple, nums: tuple, den: int) -> None:
    object.__setattr__(x, "idx", idx)
    object.__setattr__(x, "nums", nums)
    object.__setattr__(x, "den", den)


def _seq(idx: tuple, nums: tuple, den: int) -> SparseSeq:
    """The sequence with numerators `nums` over `den` at the sorted indices
    `idx`, already reduced: nonzero numerators over their least common
    denominator. Nothing is checked."""
    x = object.__new__(SparseSeq)
    _set(x, idx, nums, den)
    return x


def _lattice(idx, nums, den: int) -> SparseSeq:
    """The sequence Fraction(nums[k], den) at the sorted indices idx[k],
    den > 0, with zero numerators dropped and the rest reduced."""
    if 0 in nums:
        kept = [(i, n) for i, n in zip(idx, nums) if n]
        idx, nums = [i for i, _ in kept], [n for _, n in kept]
    g = gcd(den, *nums)
    return _seq(tuple(idx), tuple([n // g for n in nums]), den // g)


def _ratio_str(n: int, d: int) -> str:
    """frac_str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


class _Memo(dict):
    """A dict that fills a missing key with make(key) on its first lookup."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _json_memos() -> tuple[_Memo, _Memo]:
    """(index -> its key text, den -> (num -> 'p/q' text of num/den)), so that
    a report renders each distinct index and (num, den) once."""
    return _Memo(str), _Memo(lambda den: _Memo(lambda n: _ratio_str(n, den)))


def _seq_json(x: SparseSeq, labels: _Memo, texts: _Memo) -> dict:
    return dict(zip(map(labels.__getitem__, x.idx), map(texts[x.den].__getitem__, x.nums)))


def projection_tail(x: SparseSeq) -> SparseSeq:
    """Zero the first coordinate: idempotent, sup-norm non-increasing."""
    if x.idx[:1] != (1,):
        return x
    return _lattice(x.idx[1:], x.nums[1:], x.den)


@dataclass(frozen=True)
class RecursionRun:
    delta: Fraction
    eps: tuple[Fraction, ...]
    z: SparseSeq
    xs: tuple[SparseSeq, ...]  # xs[0] = 0, xs[n] after step n
    xstars: tuple[int, ...]  # coordinate index evaluated by the n-th functional
    checks: dict

    #: the claim report of the pass `ured_recursion` made on this run, equal
    #: to verify_claim(run); None for a run built otherwise (`replace` too)
    verified = None

    @property
    def steps(self) -> int:
        return len(self.xs) - 1

    def to_json(self) -> dict:
        memos = _json_memos()
        return {
            "delta": frac_str(self.delta),
            "eps": [frac_str(e) for e in self.eps],
            "z": _seq_json(self.z, *memos),
            "xs": [_seq_json(x, *memos) for x in self.xs],
            "xstars": list(self.xstars),
            "checks": self.checks,
        }


def ured_recursion(delta, eps: Sequence, steps: int) -> RecursionRun:
    """Run the fresh-coordinate recursion for `steps` steps.

    delta in (0, 1); eps positive, non-increasing, < 2, with len(eps) >=
    steps. Step n places height 1 - eps[n-1]/4 on coordinate n + 1.
    """
    delta = to_frac(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    eps = [to_frac(e) for e in eps]
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if len(eps) < steps:
        raise ValueError(f"need at least {steps} eps values, got {len(eps)}")
    for e in eps[:steps]:
        if not 0 < e < 2:
            raise ValueError(f"eps values must lie in (0, 2), got {e}")
    for a, b in zip(eps, eps[1:steps]):
        if b > a:
            raise ValueError("eps must be non-increasing")

    z = SparseSeq.unit(1, 1 - delta)
    xs = [SparseSeq.zero()]
    idx, nums, den = (), (), 1
    for n, e in enumerate(eps[:steps], 1):
        # x_n is x_{n-1} with height 1 - e/4 = hn/hd appended on coordinate n + 1
        en, ed = e.as_integer_ratio()
        g = gcd(en, 4)
        hn, hd = (4 * ed - en) // g, 4 * ed // g
        if den % hd:
            grown = lcm(den, hd)
            nums = tuple(map(mul, nums, repeat(grown // den)))
            den = grown
        idx += (n + 1,)
        nums += (hn * (den // hd),)
        xs.append(_seq(idx, nums, den))
    xstars = tuple(range(2, steps + 2))

    run = RecursionRun(delta, tuple(eps[:steps]), z, tuple(xs), xstars, {})
    z_plus, report, claims = _claims(run)
    require("recursion claims", claims)
    checks = {
        "claim1": {"values": [frac_str(v) for v in z_plus], "ok": report["claim1"]},
        "claim2": {"ok": report["claim2"]},
    }
    run = replace(run, checks=checks)
    object.__setattr__(run, "verified", report)
    return run


def _claims(run: RecursionRun) -> tuple[list[Fraction], dict, dict[str, Check]]:
    """(||z + x_m|| for m = 0..steps, the claim report of verify_claim, the
    four claims as checks of their measured sides).

    One pass over the stored coordinates of `run`, in ints over one
    denominator D: every value of z, delta, eps and every x_m, the heights
    1 - eps_n/4 and z/2 are integer multiples of 1/D. Each x_m becomes one
    coordinate table, read once for ||z + x_m||, ||z/2 + x_m|| and
    ||2 x_m + z|| and for the norming equalities of all n <= m; "for all
    m >= n" in (ii) is a suffix minimum. The checks measure max ||z + x_m||,
    the failed norming conditions, the least slack of (ii) and the largest
    deviation from (iii).
    """
    n_steps = run.steps
    z, xs, xstars = run.z, run.xs, run.xstars
    eps = [e.as_integer_ratio() for e in run.eps[:n_steps]]
    dn, dd = run.delta.as_integer_ratio()
    # 4 for the heights, 2 for z/2
    D = 8 * lcm(z.den, dd, *{x.den for x in xs}, *{d for _, d in eps})
    Z = [n * (D // z.den) for n in z.nums]
    half_Z = [zi // 2 for zi in Z]
    on_z = set(z.idx)
    E = [n * (D // d) for n, d in eps]
    heights = [D - e // 4 for e in E]

    z_plus, half_z, doubled = [], [], []
    unnormed = 0
    for m, x in enumerate(xs):
        table = dict(zip(x.idx, map(mul, x.nums, repeat(D // x.den))))
        # off the support of z only x counts
        rest = max(map(abs, map(table.__getitem__, table.keys() - on_z)), default=0)
        shared = list(map(table.get, z.idx, repeat(0)))
        z_plus.append(max([rest, *map(abs, map(add, Z, shared))]))
        half_z.append(max([rest, *map(abs, map(add, half_Z, shared))]))
        doubled.append(max([2 * rest, *map(abs, map(add, Z, map(mul, shared, repeat(2))))]))
        # x_m is normed by x*_n at height h_n for every n <= m
        normed, want = list(map(table.get, xstars[:m], repeat(0))), heights[:m]
        if normed != want:
            unnormed += m - sum(map(eq, normed, want))

    unnormed += sum(h <= D - e for h, e in zip(heights, E))
    suffix_min = list(accumulate(reversed(half_z[1:]), min))[::-1]
    slack = min((s - D + e for s, e in zip(suffix_min, E)), default=0)
    exact = [D - dn * (D // dd), *(2 * h for h in heights)]
    checks = {
        "claim1": check(Fraction(max(z_plus), D), "<", 1),
        "claim2": check(unnormed, "==", 0),
        "half_z_norming": check(Fraction(slack, D), ">=", 0),
        "doubled_norm": check(Fraction(max(map(abs, map(sub, doubled, exact))), D), "==", 0),
    }
    report = {name: c.ok for name, c in checks.items()}
    report["doubled_norm"] = {"values": [_ratio_str(v, D) for v in doubled], "ok": report["doubled_norm"]}
    report["ok"] = all(c.ok for c in checks.values())
    return [Fraction(v, D) for v in z_plus], report, checks


def verify_claim(run: RecursionRun) -> dict:
    """Re-verify the claims and the norm identities of a completed run.

    (i) ||z + x_n|| < 1 and the norming equalities for all indices;
    (ii) ||z/2 + x_m|| >= 1 - eps_n for all m >= n >= 1;
    (iii) ||2 x_n + z|| = 2 (1 - eps_n/4) for n >= 1 (and = 1 - delta at 0).

    Everything is re-derived from the run's own z, xs, xstars and eps, in
    one pass whose cost is linear in the stored coordinates: O(steps**2),
    since x_n has n of them.
    """
    report, checks = _claims(run)[1:]
    require("claim verification", checks)
    return report


def segment_check(run: RecursionRun, t_grid: Sequence, N: int) -> dict:
    """Check the truncated sphere segment: for each t in [0, 1],
    1 - eps_N/4 <= ||t*z + x_N|| < 1."""
    if not t_grid:
        raise ValueError("t grid must be nonempty")
    if not 1 <= N <= run.steps:
        raise ValueError(f"N must lie in 1..{run.steps}, got {N}")
    ts = [to_frac(t) for t in t_grid]
    for t in ts:
        if not 0 <= t <= 1:
            raise ValueError(f"grid points must lie in [0, 1], got {t}")
    floor = 1 - run.eps[N - 1] / 4
    rows, checks = [], {}
    for t in ts:
        val = (t * run.z + run.xs[N]).sup_norm()
        at = frac_str(t)
        low = checks[f"floor at t={at}"] = check(val, ">=", floor)
        high = checks[f"ball at t={at}"] = check(val, "<", 1)
        rows.append({"t": at, "sup_norm": frac_str(val), "ok": low.ok and high.ok})
    require("segment check", checks)
    return {"N": N, "floor": frac_str(floor), "rows": rows, "ok": True}
