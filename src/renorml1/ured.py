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
int numerators and their least common denominator.

x_n is x_{n-1} with one coordinate appended, so a run stores one coordinate
lattice, that of x_steps over the least common denominator of the heights,
and the length of each x_m: x_m is a prefix of the lattice, and `x(m)`
expands one prefix when asked. Its claims are evaluated in one pass
over the lattice, linear in the steps, in ints over one common denominator:
prefix maxima give the norms of every x_m, each norming equality is one read
of the lattice, and "for all m >= n" is a suffix minimum. Only the values a
report prints become Fractions. `ured_recursion` makes the pass once and
keeps its report on the run (`verified`); `verify_claim` makes it again on
whatever run it is given. The report renders each coordinate once and
writes x_m as a prefix of that text (`PrefixMaps`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import itemgetter, lt, mul, sub
from typing import Sequence

from .checks import Check, check, require
from .dyadic import _shown, frac_str, ratio_str, to_frac


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

    @staticmethod
    def unit(i: int, value=1) -> "SparseSeq":
        return SparseSeq(((i, value),))

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

    def __mul__(self, c) -> "SparseSeq":
        cn, cd = to_frac(c).as_integer_ratio()
        return _lattice(self.idx, [cn * n for n in self.nums], cd * self.den)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return dict(zip(map(str, self.idx), map(ratio_str, self.nums, repeat(self.den))))


def _set(x: SparseSeq, idx: tuple, nums: tuple, den: int) -> None:
    object.__setattr__(x, "idx", idx)
    object.__setattr__(x, "nums", nums)
    object.__setattr__(x, "den", den)


def _lattice(idx, nums, den: int) -> SparseSeq:
    """The sequence Fraction(nums[k], den) at the sorted indices idx[k],
    den > 0, with zero numerators dropped and the rest reduced."""
    if 0 in nums:
        kept = [(i, n) for i, n in zip(idx, nums) if n]
        idx, nums = [i for i, _ in kept], [n for _, n in kept]
    g = gcd(den, *nums)
    x = object.__new__(SparseSeq)
    _set(x, tuple(idx), tuple([n // g for n in nums]), den // g)
    return x


@dataclass(frozen=True)
class PrefixMaps:
    """The JSON list whose m-th object maps the first counts[m] of `keys` to
    their `values`, in order; the keys are distinct. The CLI emitter writes
    its JSON text from the key and value texts without building the dicts:
    each object is a prefix of the last one."""

    keys: tuple[str, ...]
    values: tuple[str, ...]
    counts: tuple[int, ...]


@dataclass(frozen=True)
class RecursionRun:
    """A run as one coordinate lattice: x_m is Fraction(nums[k], den) at
    idx[k] for the first lengths[m] positions k, with zero numerators
    dropped. idx is strictly increasing from >= 1 and den > 0; lengths[0]
    belongs to x_0 and there is one eps and one xstar per step."""

    delta: Fraction
    eps: tuple[Fraction, ...]
    z: SparseSeq
    idx: tuple[int, ...]
    nums: tuple[int, ...]
    den: int
    lengths: tuple[int, ...]  # x_m holds the first lengths[m] coordinates
    xstars: tuple[int, ...]  # coordinate index evaluated by the n-th functional
    checks: dict

    #: the claim report of the pass `ured_recursion` made on this run, equal
    #: to verify_claim(run); None for a run built otherwise (`replace` too)
    verified = None

    def __post_init__(self):
        n = len(self.idx)
        if len(self.nums) != n or self.den <= 0 or not all(map(lt, (0, *self.idx), self.idx)):
            raise ValueError("a run's lattice needs increasing indices >= 1 and one numerator each over den > 0")
        if not all(0 <= k <= n for k in self.lengths):
            raise ValueError(f"step lengths must lie in 0..{n}")
        if not len(self.eps) == len(self.xstars) == len(self.lengths) - 1:
            raise ValueError("a run needs one eps and one xstar per step")

    @property
    def steps(self) -> int:
        return len(self.lengths) - 1

    def x(self, m: int) -> SparseSeq:
        """x_m: the first lengths[m] coordinates of the lattice."""
        k = self.lengths[m]
        return _lattice(self.idx[:k], self.nums[:k], self.den)

    def to_json(self) -> dict:
        """The run's report; `xs` is a PrefixMaps, the list of the x_m as
        {"index": "p/q"} objects, with each coordinate rendered once."""
        shown = [k for k, n in enumerate(self.nums) if n]
        held = [0, *accumulate(map(bool, self.nums))]
        return {
            "delta": frac_str(self.delta),
            "eps": [frac_str(e) for e in self.eps],
            "z": self.z.to_json(),
            "xs": PrefixMaps(
                tuple([str(self.idx[k]) for k in shown]),
                tuple([ratio_str(self.nums[k], self.den) for k in shown]),
                tuple(map(held.__getitem__, self.lengths)),
            ),
            "xstars": list(self.xstars),
            "checks": self.checks,
        }


def ured_recursion(delta, eps: Sequence, steps: int) -> RecursionRun:
    """Run the fresh-coordinate recursion for `steps` steps.

    delta in (0, 1); eps positive, non-increasing, < 2, with len(eps) >=
    steps. Step n places height 1 - eps[n-1]/4 on coordinate n + 1, so x_n
    is x_{n-1} with one coordinate appended: the run stores x_steps once,
    over the least common denominator of the heights, and x_n as its first
    n coordinates.
    """
    delta = to_frac(delta)
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {_shown(str(delta))}")
    eps = [to_frac(e) for e in eps]
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if len(eps) < steps:
        raise ValueError(f"need at least {steps} eps values, got {len(eps)}")
    ratios = [e.as_integer_ratio() for e in eps[:steps]]
    for e, (en, ed) in zip(eps, ratios):
        if not 0 < en < 2 * ed:
            raise ValueError(f"eps values must lie in (0, 2), got {_shown(str(e))}")
    for (an, ad), (bn, bd) in zip(ratios, ratios[1:]):
        if bn * ad > an * bd:
            raise ValueError("eps must be non-increasing")

    heights = []  # 1 - e/4 = (4 ed - en) / (4 ed), reduced by gcd(en, 4)
    for en, ed in ratios:
        g = gcd(en, 4)
        heights.append(((4 * ed - en) // g, 4 * ed // g))
    den = lcm(*[hd for _, hd in heights])
    nums = tuple([hn * (den // hd) for hn, hd in heights])
    coords = tuple(range(2, steps + 2))
    run = RecursionRun(
        delta=delta,
        eps=tuple(eps[:steps]),
        z=SparseSeq.unit(1, 1 - delta),
        idx=coords,
        nums=nums,
        den=den,
        lengths=tuple(range(steps + 1)),
        xstars=coords,
        checks={},
    )
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

    One pass over the lattice of `run`, in ints over one denominator D: every
    value of z, delta, eps and the lattice, the heights 1 - eps_n/4 and z/2
    are integer multiples of 1/D. ||z + x_m||, ||z/2 + x_m|| and
    ||2 x_m + z|| are the prefix maximum of |x| off the support of z up to
    lengths[m], against the few coordinates on it. The norming equality of
    x*_n is one read of the lattice at the position of xstars[n-1]: x_m
    holds that value when lengths[m] exceeds the position, and 0 otherwise,
    so "for all m >= n" needs only the suffix minimum of the lengths. Only
    when some later x_m is too short to hold that position, and exactly one
    of the stored value and 0 equals the height, are the short x_m counted
    one by one (never on a run `ured_recursion` built). (ii) is a suffix
    minimum of ||z/2 + x_m||. The checks measure max ||z + x_m||, the number
    of failed norming conditions, the least slack of (ii) and the largest
    deviation from (iii).
    """
    n_steps, z, lengths = run.steps, run.z, run.lengths
    eps = [e.as_integer_ratio() for e in run.eps]
    dn, dd = run.delta.as_integer_ratio()
    # 4 for the heights, 2 for z/2
    D = 8 * lcm(z.den, dd, run.den, *{d for _, d in eps})
    X = [*map(mul, run.nums, repeat(D // run.den)), 0]  # X[-1]: what an index off the lattice reads
    E = [n * (D // d) for n, d in eps]
    heights = [D - e // 4 for e in E]
    at = dict(zip(run.idx, range(len(run.idx))))

    # off the support of z only x counts: its prefix maxima, read at each length
    off = list(map(abs, X))
    on_z = [(zn * (D // z.den), at.get(i, -1)) for i, zn in zip(z.idx, z.nums)]
    for _, k in on_z:
        off[k] = 0
    prefix_max = [0, *accumulate(off, max)]
    rest = list(map(prefix_max.__getitem__, lengths))

    def norms(z_div: int, x_mul: int) -> list[int]:
        """||z / z_div + x_mul x_m|| for m = 0..steps, times D."""
        out = [x_mul * r for r in rest]
        for zi, k in on_z:
            zi //= z_div
            if_held, if_not = abs(zi + x_mul * X[k]), abs(zi)
            out = [max(v, if_held if length > k else if_not) for v, length in zip(out, lengths)]
        return out

    z_plus, half_z, doubled = norms(1, 1), norms(2, 1), norms(1, 2)

    # x*_n reads X[k] on every x_m (m >= n) that holds the position k of its
    # index, and 0 on the `short` others: count the reads that miss h_n
    shortest = list(accumulate(reversed(lengths[1:]), min))[::-1]
    unnormed = 0
    for n, (i, h, low) in enumerate(zip(run.xstars, heights, shortest), 1):
        k = at.get(i, -1)
        fails_if_held, fails_if_not = X[k] != h, h != 0
        short = sum(length <= k for length in lengths[n:]) if fails_if_held != fails_if_not and low <= k else 0
        unnormed += fails_if_held * (n_steps - n + 1 - short) + fails_if_not * short
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
    report["doubled_norm"] = {"values": [ratio_str(v, D) for v in doubled], "ok": report["doubled_norm"]}
    report["ok"] = all(c.ok for c in checks.values())
    return [Fraction(v, D) for v in z_plus], report, checks


def verify_claim(run: RecursionRun) -> dict:
    """Re-verify the claims and the norm identities of a completed run.

    (i) ||z + x_n|| < 1 and the norming equalities for all indices;
    (ii) ||z/2 + x_m|| >= 1 - eps_n for all m >= n >= 1;
    (iii) ||2 x_n + z|| = 2 (1 - eps_n/4) for n >= 1 (and = 1 - delta at 0).

    Everything is re-derived from the run's own z, lattice, lengths, xstars
    and eps, in one pass linear in the steps.
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
    x_N = run.x(N)
    rows, checks = [], {}
    for t in ts:
        val = (t * run.z + x_N).sup_norm()
        at = frac_str(t)
        low = checks[f"floor at t={at}"] = check(val, ">=", floor)
        high = checks[f"ball at t={at}"] = check(val, "<", 1)
        rows.append({"t": at, "sup_norm": frac_str(val), "ok": low.ok and high.ok})
    require("segment check", checks)
    return {"N": N, "floor": frac_str(floor), "rows": rows, "ok": True}
