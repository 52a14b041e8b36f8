"""The benchmark's workloads: seeded inputs, the ops run on them, their checks.

Inputs come from ``random.Random(seed)`` in this file, never from
``renorml1.gen``, so a change to the package's generators cannot shift the
load. The only package call made while generating is ``near_unit_scale`` on
the witness centers. One *pass* is a fixed list of ops; the timed phase
repeats whole passes, so every run measures the same mix.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Callable

from oracle import (
    cell_integral,
    combine,
    expect,
    fs,
    gamma_and_K,
    l1,
    linf,
    pairing,
    refine,
    report_bytes,
    tnorm_sq,
)


@dataclass
class Op:
    """One verified report. `run` is the timed call; `check` validates its
    result outside the timed region and returns the report bytes."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bytes]
    cli: bool


def _rat(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _step(rng: random.Random, level: int, num: int = 64, den: int = 64) -> tuple[int, tuple]:
    while True:
        vals = tuple(_rat(rng, num, den) for _ in range(1 << level))
        if any(vals):
            return level, vals


def _functional(rng: random.Random, level: int) -> tuple[int, tuple]:
    """Values k/16 with |k| <= 16, so linf <= 1."""
    return level, tuple(Fraction(rng.randint(-16, 16), 16) for _ in range(1 << level))


def _step_json(f) -> dict:
    return {"level": f[0], "values": [fs(v) for v in f[1]]}


class Workload:
    """Holds the generated inputs, one pass of ops and the warm-up ops."""

    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.out = workdir / "report.out"
        self.inputs: list = []
        self.ops: list[Op] = []
        self.warmup: list[Op] = []

    def input_digest(self) -> str:
        return hashlib.sha256(report_bytes(self.inputs)).hexdigest()

    def step(self, f):
        return self.mods.dyadic.DyadicStep(f[0], f[1])

    def cli_op(self, kind: str, argv: list[str], verify: Callable[[bytes], None]) -> Op:
        argv = [*argv, "--out", str(self.out)]
        mods, out = self.mods, self.out

        def run():
            return mods.cli.main(argv)

        def check(rc) -> bytes:
            expect(rc == 0, f"{kind}: exit code {rc}")
            data = out.read_bytes()
            verify(data)
            return data

        return Op(kind, run, check, cli=True)

    def lib_op(self, kind: str, run: Callable[[], object], verify: Callable[[object], None]) -> Op:
        def check(result) -> bytes:
            verify(result)
            return report_bytes(result)

        return Op(kind, run, check, cli=False)


# -- witness-deep -----------------------------------------------------------------

# split levels K + 2: 12 and 15 for the witnesses, 12 for extreme, 12 and 13 for slice
WITNESS_EPS = (Fraction(1, 100), Fraction(1, 1000))
EXTREME_EPS = Fraction(1, 100)
SLICE_EPS = (Fraction(1, 100), Fraction(1, 200))
WARM_EPS = Fraction(1, 2)
# One neighborhood without functionals, then one with three. A fixed order
# keeps the ops that grow the heap the same in every run.
FUNCTIONAL_COUNTS = (0, 3)
CENTER_PREC = Fraction(1, 10**4)


class WitnessDeep(Workload):
    """Two weak neighborhoods per pass, with 0 and 3 functionals; each goes
    through CLI `witness` at every eps in WITNESS_EPS, then `probe extreme`
    and `probe slice`."""

    def __init__(self, mods, seed, workdir):
        super().__init__(mods, seed, workdir)
        rng = self.rng
        self.gaps: dict[tuple[int, Fraction], Fraction] = {}
        self.paths: list[str] = []
        for i, m in enumerate(FUNCTIONAL_COUNTS):
            nb = self._nbhd(rng, m)
            self.inputs.append(nb)
            self._write(i, nb)
            for eps in WITNESS_EPS:
                self.ops.append(self._witness(i, nb, eps))
            self.ops.append(self._extreme(i, nb, EXTREME_EPS))
            self.ops.append(self._slice(i, nb, SLICE_EPS))
        warm = len(FUNCTIONAL_COUNTS)
        nb = self._warm_nbhd()
        self._write(warm, nb)
        self.warmup = [self._witness(warm, nb, WARM_EPS), self._extreme(warm, nb, WARM_EPS),
                       self._slice(warm, nb, (WARM_EPS,))]

    def _write(self, i: int, nb: dict) -> None:
        path = self.workdir / f"nbhd{i}.json"
        self.paths.append(str(path))
        path.write_text(
            json.dumps(
                {
                    "center": _step_json(nb["center"]),
                    "functionals": [_step_json(h) for h in nb["functionals"]],
                    "delta": fs(nb["delta"]),
                }
            )
        )

    def _warm_nbhd(self) -> dict:
        """The same small neighborhood for every seed, so warm-up cost does not
        depend on the seed."""
        scaled = self.mods.witness.near_unit_scale(self.step((0, (Fraction(1),))), CENTER_PREC)
        center = (scaled.level, tuple(scaled.values))
        return {"center": center, "functionals": [(0, (Fraction(1),))], "delta": Fraction(1, 2),
                "t2": tnorm_sq(*center)}

    def _nbhd(self, rng: random.Random, m: int) -> dict:
        """A center of level <= 3 scaled just inside the unit sphere, m
        functionals of level <= 3 and delta in [1/20, 1/2]. Redrawn until the
        gap condition holds at every eps, so no op is expected to fail, and
        until eps alone sets gamma and K, so every seed splits at the same
        levels. (At eps = 1/10, delta would set K for most draws, anywhere from
        6 to 11, which is why the ladder starts at 1/100.)"""
        while True:
            level, vals = _step(rng, rng.randint(0, 3), 8, 8)
            mass = l1(level, vals)
            if mass > 1:
                vals = tuple(v / math.ceil(mass) for v in vals)
            scaled = self.mods.witness.near_unit_scale(self.step((level, vals)), CENTER_PREC)
            center = (scaled.level, tuple(scaled.values))
            functionals = [_functional(rng, rng.randint(0, 3)) for _ in range(m)]
            delta = Fraction(1, 20) + Fraction(9, 20) * Fraction(rng.randint(0, 20), 20)
            nb = {"center": center, "functionals": functionals, "delta": delta, "t2": tnorm_sq(*center)}
            if all(
                self._gap_holds(nb, eps) and self._params(nb, eps) == gamma_and_K(Fraction(0), Fraction(1), eps, [])
                for eps in {*WITNESS_EPS, EXTREME_EPS, *SLICE_EPS}
            ):
                return nb

    @staticmethod
    def _params(nb, eps):
        return gamma_and_K(linf(nb["center"][1]), nb["delta"], eps, [h[0] for h in nb["functionals"]])

    def _gap_holds(self, nb, eps) -> bool:
        gamma, K = self._params(nb, eps)
        margin = nb["t2"] - Fraction(1, 1 << K)
        return margin > 0 and 4 * (1 - gamma) ** 2 * margin > (2 - eps) ** 2

    def _witness(self, i: int, nb: dict, eps: Fraction) -> Op:
        def verify(data: bytes) -> None:
            rep = json.loads(data)
            gamma, K = self._params(nb, eps)
            expect(rep["gamma"] == fs(gamma) and rep["K"] == K, "witness: gamma/K differ from the oracle")
            expect(rep["eps"] == fs(eps) and rep["delta"] == fs(nb["delta"]), "witness: eps/delta not echoed")
            expect(all(c["ok"] for c in rep["checks"].values()), "witness: a named check is not ok")
            gap = rep["checks"]["gap"]
            target = (2 - eps) ** 2
            expect(gap["rhs"] == fs(target) and Fraction(gap["lhs"]) > target, "witness: gap vs (2-eps)^2")
            guaranteed = 4 * (1 - gamma) ** 2 * (nb["t2"] - Fraction(1, 1 << K))
            expect(rep["guaranteed_gap_sq"] == fs(guaranteed), "witness: guaranteed gap vs oracle T^2")
            expect(Fraction(rep["checks"]["ball"]["lhs"]) < 1, "witness: pair outside the ball")
            for g in ("g1", "g2"):
                expect(rep[g]["level"] == K + 2 and len(rep[g]["values"]) == 1 << (K + 2), f"witness: {g} size")
            self.gaps[(i, eps)] = Fraction(gap["lhs"])

        return self.cli_op("witness", ["witness", "--input", self.paths[i], "--eps", fs(eps)], verify)

    def _extreme(self, i: int, nb: dict, eps: Fraction) -> Op:
        def verify(data: bytes) -> None:
            rep = json.loads(data)
            gamma, K = self._params(nb, eps)
            plus, minus = (Fraction(x) for x in rep["ball_check_sq"])
            expect(plus < 1 and minus < 1, "extreme: center +- u leaves the ball")
            floor = (1 - gamma) * l1(*nb["center"])
            expect(rep["l1_floor"] == fs(floor), "extreme: l1 floor vs oracle")
            expect(Fraction(rep["l1_of_u"]) >= floor, "extreme: l1(u) below the floor")
            expect(rep["u"]["level"] == K + 2, "extreme: u level")

        return self.cli_op("extreme", ["probe", "extreme", "--input", self.paths[i], "--eps", fs(eps)], verify)

    def _slice(self, i: int, nb: dict, schedule) -> Op:
        def verify(data: bytes) -> None:
            rows = list(csv.reader(io.StringIO(data.decode())))
            expect(rows[0] == ["eps", "gap_sq", "gap_float"] and len(rows) == len(schedule) + 1, "slice: shape")
            for eps, (e, gap_sq, gap_float) in zip(schedule, rows[1:]):
                gap = Fraction(gap_sq)
                expect(e == fs(eps) and (2 - eps) ** 2 < gap <= 4, "slice: gap out of range")
                expect(gap == self.gaps.get((i, eps), gap), "slice: gap differs from the witness report")
                whole, _, frac = gap_float.partition(".")
                expect(int(whole + frac) == isqrt(gap.numerator * 10 ** (2 * len(frac)) // gap.denominator),
                       "slice: gap_float is not the truncated square root")

        eps_arg = ",".join(fs(e) for e in schedule)
        return self.cli_op("slice", ["probe", "slice", "--input", self.paths[i], "--eps", eps_arg], verify)


# -- ured-long ----------------------------------------------------------------------

URED_STEPS = (40, 60, 80, 100, 120)
URED_WARM_STEPS = 4
SEGMENT_GRID = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))


class UredLong(Workload):
    """One CLI `ured` run per schedule length in URED_STEPS, in seeded order,
    on a seeded delta and a seeded non-increasing eps schedule."""

    def __init__(self, mods, seed, workdir):
        super().__init__(mods, seed, workdir)
        rng = self.rng
        steps = list(URED_STEPS)
        rng.shuffle(steps)
        for n in steps:
            self.inputs.append(self._schedule(rng, n))
            self.ops.append(self._ured(*self.inputs[-1]))
        self.warmup = [self._ured(*self._schedule(random.Random(0), URED_WARM_STEPS))]

    @staticmethod
    def _schedule(rng: random.Random, n: int):
        """delta = p/997 and eps = v/999983 in (0, 2): prime denominators, so
        every seed's rationals have the same size."""
        delta = Fraction(rng.randint(1, 996), 997)
        eps = sorted((Fraction(rng.randint(1, 2 * 999_983 - 1), 999_983) for _ in range(n)), reverse=True)
        return delta, eps

    def _ured(self, delta: Fraction, eps: list[Fraction]) -> Op:
        n = len(eps)

        def verify(data: bytes) -> None:
            rep = json.loads(data)
            expect(rep["delta"] == fs(delta) and rep["eps"] == [fs(e) for e in eps], "ured: inputs not echoed")
            heights = [1 - e / 4 for e in eps]
            expect(len(rep["xs"]) == n + 1, "ured: step count")
            for k in range(1, n + 1):
                expect(rep["xs"][k] == {str(j + 2): fs(heights[j]) for j in range(k)}, f"ured: x_{k}")
            claim1 = [1 - delta] + [max(1 - delta, h) for h in heights]
            expect(rep["checks"]["claim1"]["values"] == [fs(v) for v in claim1], "ured: ||z + x_n|| vs oracle")
            ver = rep["verify"]
            expect(ver["ok"] and ver["claim1"] and ver["claim2"] and ver["half_z_norming"], "ured: verify not ok")
            doubled = [1 - delta] + [2 * h for h in heights]
            expect(ver["doubled_norm"]["values"] == [fs(v) for v in doubled], "ured: doubled norm vs 2(1-eps/4)")
            seg = rep["segment"]
            expect(seg["ok"] and seg["N"] == n and seg["floor"] == fs(heights[-1]), "ured: segment")
            want = [fs(max(t * (1 - delta), heights[-1])) for t in SEGMENT_GRID]
            expect([r["sup_norm"] for r in seg["rows"]] == want, "ured: segment sup norms vs oracle")

        argv = ["ured", "--delta", fs(delta), "--eps", ",".join(fs(e) for e in eps)]
        return self.cli_op("ured", argv, verify)


# -- calculus-mix ---------------------------------------------------------------------

#: ops of each kind per block; a pass is CALC_BLOCKS blocks with fresh inputs.
CALC_MIX = {
    "norm": 20,
    "strict": 10,
    "midpoint": 15,
    "chain": 15,
    "weak": 10,
    "dual": 3,
    "greedy": 14,
    "segment": 10,
}
CALC_BLOCKS = 36
CALC_MAX_LEVEL = 5
DUAL_LEVELS = (3, 4, 5)


class CalculusMix(Workload):
    """Thousands of small library calls on step functions of level <= 5."""

    def __init__(self, mods, seed, workdir):
        super().__init__(mods, seed, workdir)
        # warm-up: one op of each kind on inputs that do not depend on the seed
        warm = random.Random(0)
        self._duals, self._decks = 0, {}
        self.warmup = [getattr(self, "_" + kind)(warm, 0) for kind in CALC_MIX]
        self.inputs.clear()
        self._duals, self._decks = 0, {}
        rng = self.rng
        kinds = [k for k, count in CALC_MIX.items() for _ in range(count * CALC_BLOCKS)]
        rng.shuffle(kinds)
        for n, kind in enumerate(kinds):
            self.ops.append(getattr(self, "_" + kind)(rng, n))

    def _deal(self, rng, key: str, values=range(CALC_MAX_LEVEL + 1)) -> int:
        """The next value from a shuffled deck of `values` kept per `key`, so
        each size occurs equally often in every pass whatever the seed."""
        deck = self._decks.setdefault(key, [])
        if not deck:
            deck.extend(values)
            rng.shuffle(deck)
        return deck.pop()

    def _record(self, kind: str, *data) -> None:
        self.inputs.append([kind, *data])

    def _norm(self, rng, n) -> Op:
        f = _step(rng, self._deal(rng, "norm"))
        self._record("norm", f)
        renorm, F = self.mods.renorm, self.step(f)

        def verify(rep) -> None:
            t2, a, b = tnorm_sq(*f), l1(*f), linf(f[1])
            expect((rep.tnorm_sq, rep.l1, rep.linf) == (t2, a, b), "norm: values vs oracle")
            expect(rep.equiv_ok == (a * a <= t2 <= Fraction(4, 3) * a * a), "norm: equivalence flag")
            whole, _, frac = rep.tnorm_float.partition(".")
            expect(int(whole + frac) == isqrt(t2.numerator * 10**24 // t2.denominator), "norm: tnorm_float")

        return self.lib_op("norm", lambda: renorm.norm_report(F), verify)

    def _strict(self, rng, n) -> Op:
        f = _step(rng, self._deal(rng, "strict.f"))
        if n % 2:
            s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            g = (f[0], tuple(s * v for v in f[1]))
            g = (g[0] + 1, refine(*g, g[0] + 1)) if g[0] < CALC_MAX_LEVEL else g
        else:
            g = _step(rng, self._deal(rng, "strict.g"))
        self._record("strict", f, g)
        renorm, F, G = self.mods.renorm, self.step(f), self.step(g)

        def verify(case) -> None:
            L = max(f[0], g[0])
            vf, vg = refine(*f, L), refine(*g, L)
            i0 = next(i for i, y in enumerate(vg) if y)
            t = vf[i0] / vg[i0]
            if t >= 0 and all(x == t * y for x, y in zip(vf, vg)):
                expect(case.tag == "Degenerate" and case.ratio == t, "strict: expected Degenerate")
            else:
                expect(case.tag == "Strict" and case.ratio is None, "strict: expected Strict")

        return self.lib_op("strict", lambda: renorm.triangle_equality_case(F, G), verify)

    def _midpoint(self, rng, n) -> Op:
        f, g = _step(rng, self._deal(rng, "midpoint.f")), _step(rng, self._deal(rng, "midpoint.g"))
        self._record("midpoint", f, g)
        probes, F, G = self.mods.probes, self.step(f), self.step(g)

        def verify(d) -> None:
            mid = combine(f, g, Fraction(1, 2), Fraction(1, 2))
            expect(d == (tnorm_sq(*f) + tnorm_sq(*g)) / 2 - tnorm_sq(*mid), "midpoint: defect vs oracle")

        return self.lib_op("midpoint", lambda: probes.midpoint_defect(F, G), verify)

    def _chain(self, rng, n) -> Op:
        f, g = _step(rng, self._deal(rng, "chain.f")), _step(rng, self._deal(rng, "chain.g"))
        k = self._deal(rng, "chain.k")
        cells = sorted(rng.sample(range(1, (1 << k) + 1), rng.randint(1, min(4, 1 << k))))
        A = [(k, j) for j in cells]
        self._record("chain", f, g, A)
        probes, F, G = self.mods.probes, self.step(f), self.step(g)

        def verify(rep) -> None:
            af = sum((abs(cell_integral(f[0], tuple(map(abs, f[1])), *c)) for c in A), Fraction(0))
            ag = sum((abs(cell_integral(g[0], tuple(map(abs, g[1])), *c)) for c in A), Fraction(0))
            lhs = (l1(*combine(f, g, 1, 1)) + l1(*combine(f, g, 1, -1))) / 2
            rhs = l1(*f) + ag - 2 * af
            expect(rep.ok and (rep.lhs, rep.rhs) == (lhs, rhs) and lhs >= rhs, "chain: sides vs oracle")

        return self.lib_op("chain", lambda: probes.perturbation_l1_chain(F, G, A), verify)

    def _weak(self, rng, n) -> Op:
        u = _step(rng, self._deal(rng, "weak.u"))
        depth = self._deal(rng, "weak.depth")
        self._record("weak", u, depth)
        probes, U = self.mods.probes, self.step(u)

        def verify(w) -> None:
            want = max(abs(cell_integral(*u, k, j)) for k in range(depth + 1) for j in range(1, (1 << k) + 1))
            expect(w == want, "weak: max cell integral vs oracle")

        return self.lib_op("weak", lambda: probes.weak_smallness(U, depth), verify)

    def _dual(self, rng, n) -> Op:
        # Equal thirds of: a constant h; h on two cells of unequal size, where
        # the ascent stops after about two steps; and h on two cells within
        # 3/16 of each other in size, where it takes 4 to 13. Fixed shares keep
        # the slow cases in every pass without their number varying by seed.
        variant, L = divmod(self._duals % 9, 3)
        L = DUAL_LEVELS[L]
        self._duals += 1
        if variant == 0:
            h = (0, (Fraction(rng.choice((-1, 1)) * rng.randint(1, 16), 16),))
        else:
            gaps = range(4, 16) if variant == 1 else range(1, 4)
            while True:
                a, b = rng.randint(1, 16), rng.randint(1, 16)
                if abs(a - b) in gaps:
                    break
            h = (1, (Fraction(rng.choice((-1, 1)) * a, 16), Fraction(rng.choice((-1, 1)) * b, 16)))
        self._record("dual", h, L)
        renorm, H = self.mods.renorm, self.step(h)

        def verify(est) -> None:
            c = [abs(cell_integral(*h, L, j)) for j in range(1, (1 << L) + 1)]
            u = (est.maximizer.level, tuple(est.maximizer.values))
            expect(u[0] == L, "dual: maximizer level")
            q, p = tnorm_sq(*u), pairing(u, h)
            expect((est.tnorm_sq, est.pairing_sq) == (q, p * p), "dual: certificate vs oracle")
            expect(est.lower_sq == p * p / q <= linf(h[1]) ** 2, "dual: lower bound vs linf(h)^2")
            start = sum(x * x for x in c) ** 2 / tnorm_sq(L, c)
            expect(est.lower_sq >= start, "dual: ascent ended below its start")

        return self.lib_op("dual", lambda: renorm.dual_norm_estimate(H, L), verify)

    def _greedy(self, rng, n) -> Op:
        m = self._deal(rng, "greedy.m", range(3, 10))
        deltas = sorted((Fraction(rng.randint(1, 99), 100) for _ in range(m)), reverse=True)
        alphas = [_rat(rng, 16, 16) for _ in range(m)]
        self._record("greedy", deltas, alphas)
        ell1 = self.mods.ell1

        def run():
            fam = ell1.greedy_asymptotic_ell1(deltas, m)
            return fam, ell1.ell1_bounds(fam, alphas)

        def verify(result) -> None:
            fam, bounds = result
            levels = [s.level for s in fam.members]
            expect(levels[0] == 0 and all(a < b for a, b in zip(levels, levels[1:])), "greedy: levels")
            expect(all(s.index == 1 and s.height == 1 << s.level for s in fam.members), "greedy: spike shape")
            # nested leading cells: on [2**-K[i+1], 2**-K[i]) the sum runs over members 0..i
            value, partial = Fraction(0), Fraction(0)
            for i, (s, a) in enumerate(zip(fam.members, alphas)):
                partial += a * s.height
                inner = Fraction(1, 1 << levels[i + 1]) if i + 1 < m else Fraction(0)
                value += abs(partial) * (Fraction(1, 1 << s.level) - inner)
            lower = sum(((1 - d) * abs(a) for d, a in zip(deltas, alphas)), Fraction(0))
            upper = sum((abs(a) for a in alphas), Fraction(0))
            expect((bounds.lower, bounds.value, bounds.upper) == (lower, value, upper), "greedy: bounds vs oracle")
            expect(bounds.ok, "greedy: bounds not ok")

        return self.lib_op("greedy", run, verify)

    def _segment(self, rng, n) -> Op:
        m = self._deal(rng, "segment.m", range(2, 9))
        K = rng.randint(m.bit_length(), CALC_MAX_LEVEL)
        deltas = [Fraction(rng.randint(1, 99), 100) for _ in range(m)]
        self._record("segment", deltas, K)
        ell1 = self.mods.ell1

        def run():
            fam = ell1.disjoint_spike_family(deltas, m, K)
            pair = ell1.dual_segment(fam)
            return fam, pair, ell1.nonsmooth_pairings(fam, pair)

        def verify(result) -> None:
            fam, pair, ns = result
            want = tuple((1 - d, (1 - d) if k % 2 == 0 else -(1 - d)) for k, d in enumerate(deltas, start=1))
            expect(pair.pairings == want, "segment: pairings vs oracle")
            gaps = tuple(2 - deltas[2 * i - 1] - deltas[2 * i - 2] for i in range(1, m // 2 + 1))
            expect(ns.gaps == gaps, "segment: gaps vs oracle")
            expect(len(fam) == m and all(s.level == K for s in fam.members), "segment: family shape")

        return self.lib_op("segment", run, verify)


WORKLOADS = {
    "witness-deep": WitnessDeep,
    "calculus-mix": CalculusMix,
    "ured-long": UredLong,
}
