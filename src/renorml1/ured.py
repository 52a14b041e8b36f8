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

A run stores x_n with n coordinates each, so Theta(steps**2) in all. Its
claims are evaluated in one pass over those coordinates, linear in their
number. `ured_recursion` makes that pass once and keeps its report on the
run (`verified`); `verify_claim` makes it again on whatever run it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .dyadic import frac_str, to_frac


@dataclass(frozen=True)
class SparseSeq:
    """A finitely supported sequence: sorted (index, nonzero value) pairs."""

    coords: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        coords = ((int(i), to_frac(v)) for i, v in sorted(self.coords))
        clean = tuple(c for c in coords if c[1])
        for i, _ in clean:
            if i < 1:
                raise ValueError(f"indices must be >= 1, got {i}")
        if len({i for i, _ in clean}) != len(clean):
            raise ValueError("duplicate indices")
        object.__setattr__(self, "coords", clean)

    @staticmethod
    def from_dict(d: dict) -> "SparseSeq":
        return SparseSeq(tuple(d.items()))

    @staticmethod
    def unit(i: int, value=1) -> "SparseSeq":
        return SparseSeq(((i, to_frac(value)),))

    @staticmethod
    def zero() -> "SparseSeq":
        return SparseSeq(())

    def get(self, i: int) -> Fraction:
        for j, v in self.coords:
            if j == i:
                return v
        return Fraction(0)

    def sup_norm(self) -> Fraction:
        return max((abs(v) for _, v in self.coords), default=Fraction(0))

    def __add__(self, other: "SparseSeq") -> "SparseSeq":
        acc = dict(self.coords)
        for i, v in other.coords:
            acc[i] = acc.get(i, Fraction(0)) + v
        return SparseSeq(tuple(acc.items()))

    def __neg__(self) -> "SparseSeq":
        return SparseSeq(tuple((i, -v) for i, v in self.coords))

    def __sub__(self, other: "SparseSeq") -> "SparseSeq":
        return self + (-other)

    def __mul__(self, c) -> "SparseSeq":
        c = to_frac(c)
        return SparseSeq(tuple((i, c * v) for i, v in self.coords))

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {str(i): frac_str(v) for i, v in self.coords}


def projection_tail(x: SparseSeq) -> SparseSeq:
    """Zero the first coordinate: idempotent, sup-norm non-increasing."""
    return SparseSeq(tuple((i, v) for i, v in x.coords if i != 1))


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
        return {
            "delta": frac_str(self.delta),
            "eps": [frac_str(e) for e in self.eps],
            "z": self.z.to_json(),
            "xs": [x.to_json() for x in self.xs],
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
    xstars: list[int] = []
    for n in range(1, steps + 1):
        height = 1 - eps[n - 1] / 4
        xs.append(SparseSeq(xs[-1].coords + ((n + 1, height),)))
        xstars.append(n + 1)

    run = RecursionRun(delta, tuple(eps[:steps]), z, tuple(xs), tuple(xstars), {})
    z_plus, claims = _claims(run)
    if not claims["ok"]:
        raise RuntimeError("internal: recursion claims failed")
    checks = {
        "claim1": {"values": [frac_str(v) for v in z_plus], "ok": claims["claim1"]},
        "claim2": {"ok": claims["claim2"]},
    }
    run = replace(run, checks=checks)
    object.__setattr__(run, "verified", claims)
    return run


def _claims(run: RecursionRun) -> tuple[list[Fraction], dict]:
    """(||z + x_m|| for m = 0..steps, the claim report of verify_claim).

    One pass over the stored coordinates of `run`: each x_m becomes one
    coordinate table, read once for ||z + x_m||, ||z/2 + x_m|| and
    ||2 x_m + z||; "for all m >= n" is a suffix minimum for (ii) and a scan
    of the tables from n on for the norming equalities.
    """
    n_steps = run.steps
    z = dict(run.z.coords)
    tables = [dict(x.coords) for x in run.xs]
    z_plus, half_z, doubled = [], [], []
    for x in tables:
        rest = max((abs(v) for i, v in x.items() if i not in z), default=Fraction(0))
        shared = [(zi, x.get(i, 0)) for i, zi in z.items()]
        for sups, a, b in ((z_plus, 1, 1), (half_z, Fraction(1, 2), 1), (doubled, 1, 2)):
            # ||a z + b x||: off the support of z only b * x counts
            sups.append(max([b * rest, *(abs(a * zi + b * xi) for zi, xi in shared)]))

    heights = [1 - run.eps[n - 1] / 4 for n in range(1, n_steps + 1)]
    claim1 = all(v < 1 for v in z_plus)
    claim2 = all(
        all(tables[m].get(run.xstars[n - 1], 0) == h for m in range(n, n_steps + 1))
        and h > 1 - run.eps[n - 1]
        for n, h in enumerate(heights, 1)
    )
    suffix_min = list(accumulate(reversed(half_z[1:]), min))[::-1]
    halfway = all(s >= 1 - e for s, e in zip(suffix_min, run.eps))
    doubled_ok = doubled[0] == 1 - run.delta and all(
        d == 2 * h for d, h in zip(doubled[1:], heights)
    )
    return z_plus, {
        "claim1": claim1,
        "claim2": claim2,
        "half_z_norming": halfway,
        "doubled_norm": {"values": [frac_str(v) for v in doubled], "ok": doubled_ok},
        "ok": claim1 and claim2 and halfway and doubled_ok,
    }


def verify_claim(run: RecursionRun) -> dict:
    """Re-verify the claims and the norm identities of a completed run.

    (i) ||z + x_n|| < 1 and the norming equalities for all indices;
    (ii) ||z/2 + x_m|| >= 1 - eps_n for all m >= n >= 1;
    (iii) ||2 x_n + z|| = 2 (1 - eps_n/4) for n >= 1 (and = 1 - delta at 0).

    Everything is re-derived from the run's own z, xs, xstars and eps, in
    one pass whose cost is linear in the stored coordinates: O(steps**2),
    since x_n has n of them.
    """
    report = _claims(run)[1]
    if not report["ok"]:
        raise RuntimeError("internal: claim verification failed")
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
    rows = []
    ok = True
    for t in ts:
        val = (t * run.z + run.xs[N]).sup_norm()
        row_ok = floor <= val < 1
        ok = ok and row_ok
        rows.append({"t": frac_str(t), "sup_norm": frac_str(val), "ok": row_ok})
    if not ok:
        raise RuntimeError("internal: segment check failed")
    return {"N": N, "floor": frac_str(floor), "rows": rows, "ok": ok}
