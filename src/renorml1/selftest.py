"""Seeded invariant batteries behind the `selftest` CLI command.

Each battery draws its own deterministic RNG stream from the master seed,
re-verifies a family of exact invariants, and reports one line: `pass`, or
`FAIL (<invariant>, trial <t>, seed <s>)` for the first invariant or
`checks.require` that failed; a battery yields each trial's number before
the trial (0 for a fixed check). Everything is exact; there are no tolerances.
"""

from __future__ import annotations

import math
import random
import zlib
from fractions import Fraction
from typing import Iterator

from . import gen
from .dyadic import (
    DyadicIndex,
    DyadicStep,
    decompose,
    dyadic_project,
    integral_over,
    norms,
    pairing,
    refine,
    reflect,
)
from .ell1 import (
    disjoint_spike_family,
    dual_segment,
    ell1_bounds,
    greedy_asymptotic_ell1,
    nonsmooth_pairings,
    octahedral_direction,
)
from .probes import midpoint_defect, perturbation_l1_chain, weak_smallness
from .renorm import (
    check_equivalence,
    partial_below,
    tail_formula,
    tnorm_sq,
    triangle_equality_case,
)
from .witness import d2p_witness, split_pair
from .ured import segment_check, ured_recursion


def _sub_rng(seed: int, tag: str):
    # str hashing is salted per process; crc32 keeps streams reproducible
    return random.Random((seed ^ zlib.crc32(tag.encode())) & 0xFFFFFFFFFFFF)


class InvariantFailure(Exception):
    """A battery's invariant failed; the message names the invariant."""


def _require(ok: bool, invariant: str) -> None:
    if not ok:
        raise InvariantFailure(invariant)


def _dyadic_core(seed: int, trials: int) -> Iterator[int]:
    rng = _sub_rng(seed, "dyadic")
    for t in range(1, trials + 1):
        yield t
        f = gen.random_step(rng, max_level=4, max_num=16, max_den=16)
        K2 = min(f.level + rng.randint(0, 2), 6)
        g = refine(f, max(K2, f.level))
        k = rng.randint(0, 5)
        j = rng.randint(1, 1 << k)
        _require(integral_over(g, (k, j)) == integral_over(f, (k, j)), "refine-keeps-integrals")
        m = k + rng.randint(1, 2)
        span = 1 << (m - k)
        total = sum(
            (integral_over(f, (m, i)) for i in range((j - 1) * span + 1, j * span + 1)),
            Fraction(0),
        )
        _require(total == integral_over(f, (k, j)), "subcell-integrals-add")
        h = gen.random_step(rng, max_level=3, max_num=8, max_den=8)
        _require(abs(pairing(f, h)) <= norms(f).l1 * norms(h).linf, "pairing-bound")
        K = rng.randint(0, 4)
        p = dyadic_project(f, K)
        _require(dyadic_project(p, K) == p and norms(p).l1 <= norms(f).l1, "projection-contracts")
        av, pos, neg = decompose(f)
        _require(pos - neg == f and pos + neg == av, "decompose-parts")
        _require(reflect(reflect(f)) == f, "reflect-involution")


def _renorm_invariants(seed: int, trials: int) -> Iterator[int]:
    rng = _sub_rng(seed, "renorm")
    for t in range(1, trials + 1):
        yield t
        f = gen.random_step(rng, max_level=4, max_num=16, max_den=16)
        tsq = tnorm_sq(f)
        for T in (f.level, f.level + 1, f.level + 4):
            _require(partial_below(f, T) + tail_formula(f, T) == tsq, "partial-plus-tail")
        check_equivalence(f)
        _require(tnorm_sq(abs(f)) == tsq and tnorm_sq(reflect(f)) == tsq, "abs-reflect-invariance")
        c = gen.random_fraction(rng, 8, 8)
        _require(tnorm_sq(c * f) == c * c * tsq, "homogeneity")
        _require(tnorm_sq(refine(f, min(f.level + 2, 6))) == tsq, "refine-invariance")


def _strict_convexity(seed: int, trials: int) -> Iterator[int]:
    rng = _sub_rng(seed, "strict")
    for t in range(1, trials + 1):
        yield t
        f = gen.random_step(rng, max_level=3, max_num=8, max_den=8)
        g = gen.random_step(rng, max_level=3, max_num=8, max_den=8)
        case = triangle_equality_case(f, g)
        # independent oracle: T(f+g) = T(f)+T(g)  <=>  D >= 0 and D^2 = 4 T(f)T(g)
        D = tnorm_sq(f + g) - tnorm_sq(f) - tnorm_sq(g)
        equality = D >= 0 and D * D == 4 * tnorm_sq(f) * tnorm_sq(g)
        expected = equality and not (g.is_zero() and not f.is_zero())
        _require(case.is_degenerate == expected, "equality-case-oracle")
        _require(midpoint_defect(f, g) >= 0 and midpoint_defect(f, f) == 0, "midpoint-defect")
        c = abs(gen.random_fraction(rng, 8, 8))
        _require(triangle_equality_case(c * g, g).is_degenerate or g.is_zero(), "scaled-degenerate")


def _split_identities(seed: int, trials: int) -> Iterator[int]:
    rng = _sub_rng(seed, "split")
    for t in range(1, trials + 1):
        yield t
        f = gen.random_step(rng, max_level=3, max_num=8, max_den=8)
        K = rng.randint(0, 4)
        sp = split_pair(f, K)  # raises on any identity failure
        f1, f2 = sp.f1.dense(), sp.f2.dense()
        _require(norms(f1).l1 == norms(f).l1, "split-l1")
        for j in range(1, (1 << K) + 1):
            cell = DyadicIndex(K, j)
            _require(
                integral_over(f1 - f, cell) == 0 and integral_over(f2 - f, cell) == 0,
                "split-cell-integrals",
            )
        # the tail bounds assume l1(f) <= 1: rescale into the ball first
        l1 = norms(f).l1
        fb = f * Fraction(1, math.ceil(l1)) if l1 > 1 else f
        spb = split_pair(fb, K)
        f1, f2 = spb.f1.dense(), spb.f2.dense()
        _require(tnorm_sq(f1) <= tnorm_sq(fb) + Fraction(1, 1 << K), "split-norm-upper")
        _require(tnorm_sq(f1 - f2) >= 4 * (tnorm_sq(fb) - Fraction(1, 1 << K)), "split-gap-lower")


def _witness_runs(seed: int, trials: int) -> Iterator[int]:
    rng = _sub_rng(seed, "witness")
    for t in range(1, max(2, trials // 5) + 1):
        yield t
        nbhd = gen.random_weak_nbhd(rng)
        eps = Fraction(1, 10)
        rep = d2p_witness(nbhd, eps)
        g1, g2 = rep.g1.dense(), rep.g2.dense()
        _require(tnorm_sq(g1) < 1 and tnorm_sq(g2) < 1, "witness-in-open-ball")
        _require(tnorm_sq(g1 - g2) > (2 - eps) ** 2, "witness-gap")
        _require(nbhd.contains(g1) and nbhd.contains(g2), "witness-in-neighborhood")


def _chain_and_smallness(seed: int, trials: int) -> Iterator[int]:
    rng = _sub_rng(seed, "chain")
    for t in range(1, trials + 1):
        yield t
        f = gen.random_step(rng, max_level=4, max_num=8, max_den=8)
        g = gen.random_step(rng, max_level=4, max_num=8, max_den=8)
        A = gen.random_disjoint_indices(rng, rng.randint(0, 4))
        perturbation_l1_chain(f, g, A)
        D = rng.randint(0, 4)
        _require(weak_smallness(f, D) <= norms(f).l1, "smallness-below-l1")
    yield 0
    rad = gen.rademacher(5)
    _require(weak_smallness(rad, 4) == 0 and norms(rad).l1 == 1, "rademacher-smallness")


def _octahedral(seed: int, trials: int) -> Iterator[int]:
    rng = _sub_rng(seed, "oct")
    for t in range(1, max(3, trials // 3) + 1):
        yield t
        E = [
            gen.random_step(rng, max_level=3, max_num=8, max_den=8)
            for _ in range(rng.randint(1, 3))
        ]
        eps = Fraction(1, 2 ** rng.randint(1, 3))
        y = octahedral_direction(E, eps)
        K = y.level
        for _ in range(10):
            coeffs = [gen.random_fraction(rng, 4, 4) for _ in E]
            x = DyadicStep.zero()
            for cf, e in zip(coeffs, E):
                x = x + cf * e
            l1x = norms(x).l1
            v1 = refine(x, K).values[0]
            for alpha in (Fraction(0), -v1 / (1 << K)):
                lhs = norms(x + alpha * y).l1
                _require(lhs >= (1 - eps) * (l1x + abs(alpha)), "octahedral-lower-bound")


def _ell1_families(seed: int, trials: int) -> Iterator[int]:
    rng = _sub_rng(seed, "ell1")
    fam = greedy_asymptotic_ell1([Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)], 3)
    for t in range(1, trials + 1):
        yield t
        alphas = [gen.random_fraction(rng, 8, 8) for _ in range(3)]
        _require(ell1_bounds(fam, alphas).ok, "greedy-bounds")
    deltas = sorted(
        (Fraction(rng.randint(1, 9), 10) for _ in range(4)), reverse=True
    )
    disj = disjoint_spike_family(deltas, 4, 3)
    for t in range(1, trials + 1):
        yield t
        alphas = [gen.random_fraction(rng, 8, 8) for _ in range(4)]
        b = ell1_bounds(disj, alphas)
        _require(b.value == b.lower, "disjoint-bound-equality")
    yield 0
    pair = dual_segment(disj)
    nonsmooth_pairings(disj, pair)  # raises on pattern mismatch


def _ured(seed: int, trials: int) -> Iterator[int]:
    yield 0
    eps = [Fraction(1, 2**n) for n in range(1, 7)]
    run = ured_recursion(Fraction(1, 2), eps, 6)
    segment_check(run, [Fraction(0), Fraction(1, 2), Fraction(1)], 6)


BATTERIES = [
    ("dyadic-core", _dyadic_core),
    ("renorm-invariants", _renorm_invariants),
    ("strict-convexity", _strict_convexity),
    ("split-identities", _split_identities),
    ("witness-runs", _witness_runs),
    ("chain-and-smallness", _chain_and_smallness),
    ("octahedral-oracle", _octahedral),
    ("ell1-families", _ell1_families),
    ("ured-recursion", _ured),
]


def run_selftest(seed: int, trials: int = 25) -> tuple[bool, list[str]]:
    """(all passed, report lines); a failed battery's line names the failed
    invariant or library check, the trial and the seed, and the remaining
    batteries still run."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    lines, ok = [], True
    for name, battery in BATTERIES:
        trial = 0
        try:
            for trial in battery(seed, trials):
                pass
            lines.append(f"{name}: pass")
        except (InvariantFailure, RuntimeError) as exc:  # RuntimeError: `checks.require`
            lines.append(f"{name}: FAIL ({str(exc).removeprefix('internal: ')}, trial {trial}, seed {seed})")
            ok = False
    lines.append(f"selftest: {'pass' if ok else 'FAIL'} (seed={seed}, trials={trials})")
    return ok, lines
