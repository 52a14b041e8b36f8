"""Acceptance suite: one test per numbered criterion, tolerance zero unless
a float rendering is explicitly involved (criterion 11). Each test prints a
single PASS line; run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np

from renorml1 import (
    DyadicStep,
    WeakNbhd,
    check_equivalence,
    d2p_witness,
    disjoint_spike_family,
    dual_norm_estimate,
    dual_segment,
    ell1_bounds,
    greedy_asymptotic_ell1,
    midpoint_defect,
    near_unit_scale,
    nonsmooth_pairings,
    norms,
    octahedral_direction,
    pairing,
    perturbation_l1_chain,
    refine,
    reflect,
    segment_check,
    slice_diameter_lb,
    tail_formula,
    tnorm_sq,
    triangle_equality_case,
    ured_recursion,
    verify_claim,
)
from renorml1.dyadic import fold_masses
from renorml1.gen import (
    random_disjoint_indices,
    random_fraction,
    random_near_unit,
    random_nonzero_step,
    random_functional,
    random_step,
    rng_from_seed,
)


def announce(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


# -- independent oracles -------------------------------------------------------


def series_partial(f, T):
    """Truncated series by literal seminorm folding, no closed-form terms."""
    top = max(f.level, T - 1) if T > 0 else f.level
    g = refine(abs(f), top)
    masses = [v / (1 << top) for v in g.values]
    per_level = {top: masses}
    cur = masses
    for k in range(top - 1, -1, -1):
        cur = fold_masses(cur)
        per_level[k] = cur
    total = Fraction(0)
    for k in range(T):
        total += sum((m * m for m in per_level[k]), Fraction(0)) / 4**k
    return total


def proportional_oracle(f, g):
    """Cellwise brute force: sign agreement + all cross-ratios + supports."""
    L = max(f.level, g.level)
    vf, vg = refine(f, L).values, refine(g, L).values
    if all(y == 0 for y in vg):
        return all(x == 0 for x in vf)
    if any(x * y < 0 for x, y in zip(vf, vg)):
        return False
    if any(y == 0 and x != 0 for x, y in zip(vf, vg)):
        return False
    n = len(vf)
    for i in range(n):
        for j in range(i + 1, n):
            if vf[i] * vg[j] != vf[j] * vg[i]:
                return False
    return True


def mass_pyramid(step, top):
    g = refine(step, top)
    masses = [v / (1 << top) for v in g.values]
    levels = [masses]
    cur = masses
    for _ in range(top):
        cur = fold_masses(cur)
        levels.append(cur)
    return levels  # levels[i] holds level top - i


# -- criteria ------------------------------------------------------------------


def test_01_norm_closed_form():
    assert tnorm_sq(DyadicStep.constant(1)) == Fraction(8, 7)
    rng = rng_from_seed(101)
    for _ in range(200):
        f = random_step(rng, max_level=6, max_num=64, max_den=64)
        t = tnorm_sq(f)
        for T in (f.level, f.level + 1, f.level + 5):
            assert series_partial(f, T) + tail_formula(f, T) == t
    announce(1, "norm-closed-form")


def test_02_equivalence():
    rng = rng_from_seed(102)
    for _ in range(1000):
        f = random_step(rng, max_level=5, max_num=32, max_den=32)
        eq = check_equivalence(f)
        lsq, t = eq["lower"].lhs, eq["lower"].rhs
        assert (lsq, t) == (norms(f).l1 ** 2, tnorm_sq(f)) and all(c.ok for c in eq.values())
        assert lsq <= t <= 2 * lsq
        assert t <= Fraction(4, 3) * lsq
    announce(2, "equivalence")


def test_03_split_identities():
    from renorml1 import split_pair

    rng = rng_from_seed(103)
    for _ in range(500):
        f = random_step(rng, max_level=3, max_num=8, max_den=8)
        K = rng.randint(0, 5)
        sp = split_pair(f, K)
        f1, f2 = sp.f1.dense(), sp.f2.dense()
        top = max(f.level, K + 2)
        pf = mass_pyramid(f, top)
        p1 = mass_pyramid(f1, top)
        p2 = mass_pyramid(f2, top)
        af = mass_pyramid(abs(f), top)
        a1 = mass_pyramid(abs(f1), top)
        a2 = mass_pyramid(abs(f2), top)
        ad = mass_pyramid(abs(f1 - f2), top)
        for k in range(K + 1):
            t = top - k
            assert p1[t] == pf[t] == p2[t]
            assert a1[t] == af[t] == a2[t]
            assert ad[t] == [2 * m for m in af[t]]
        assert norms(f1).linf <= 4 * norms(f).linf
        assert norms(f2).linf <= 4 * norms(f).linf
    announce(3, "split-identities")


def test_04_d2p_witness():
    rng = rng_from_seed(104)
    eps = Fraction(1, 10)
    target = (2 - eps) ** 2
    for _ in range(100):
        center = random_near_unit(rng)
        m = rng.randint(0, 3)
        functionals = tuple(random_functional(rng) for _ in range(m))
        delta = Fraction(rng.randint(1, 10), 20)  # >= 1/20
        nbhd = WeakNbhd(center, functionals, delta)
        rep = d2p_witness(nbhd, eps)
        # recompute every postcondition from scratch
        g1, g2 = rep.g1.dense(), rep.g2.dense()
        assert tnorm_sq(g1) < 1 and tnorm_sq(g2) < 1
        for h in functionals:
            assert abs(pairing(g1 - center, h)) < delta
            assert abs(pairing(g2 - center, h)) < delta
        assert tnorm_sq(g1 - g2) > target

    # eps schedule: gaps strictly increasing toward 4 (squared)
    center = near_unit_scale(DyadicStep.constant(1), Fraction(1, 10**4))
    entries = slice_diameter_lb(
        center,
        [DyadicStep.constant(1)],
        Fraction(1),
        [Fraction(1, 5), Fraction(1, 10), Fraction(1, 100)],
    )
    gaps = [e.gap_sq for e in entries]
    assert all(e.ok for e in entries)
    assert gaps[0] < gaps[1] < gaps[2] <= 4
    for e in entries:
        assert e.gap_sq > (2 - e.eps) ** 2
    announce(4, "d2p-witness")


def test_05_strict_convexity():
    rng = rng_from_seed(105)
    mismatches = 0
    for _ in range(1000):
        f = random_step(rng, max_level=3, max_num=8, max_den=8)
        g = random_step(rng, max_level=3, max_num=8, max_den=8)
        got = triangle_equality_case(f, g).is_degenerate
        want = proportional_oracle(f, g) and not (g.is_zero() and not f.is_zero())
        mismatches += got != want
    for _ in range(100):
        g = random_nonzero_step(rng, max_level=3, max_num=8, max_den=8)
        t = abs(random_fraction(rng, 8, 8))
        case = triangle_equality_case(t * g, g)
        mismatches += not (case.is_degenerate and case.ratio == t)
    assert mismatches == 0

    checked = 0
    while checked < 500:
        f = random_step(rng, max_level=3, max_num=8, max_den=8)
        if f == reflect(f):
            continue
        assert midpoint_defect(f, reflect(f)) > 0
        assert midpoint_defect(f, f) == 0
        checked += 1
    announce(5, "strict-convexity")


def test_06_equi_integrability_chain():
    rng = rng_from_seed(106)
    for _ in range(500):
        f = random_step(rng, max_level=4, max_num=16, max_den=16)
        g = random_step(rng, max_level=4, max_num=16, max_den=16)
        A = random_disjoint_indices(rng, rng.randint(0, 4))
        rep = perturbation_l1_chain(f, g, A)
        assert rep.lhs >= rep.rhs
    announce(6, "equi-integrability-chain")


def test_07_octahedrality_oracle():
    rng = rng_from_seed(107)
    eps_pool = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    for trial in range(100):
        members = rng.randint(1, 3)
        E = [random_step(rng, max_level=3, max_num=4, max_den=4) for _ in range(members)]
        eps = eps_pool[trial % 3]
        y = octahedral_direction(E, eps)
        K = y.level
        slope_at_infinity = 1 - (1 - eps)  # exact, both tails
        assert slope_at_infinity > 0
        for _ in range(50):
            coeffs = [random_fraction(rng, 4, 4) for _ in E]
            x = DyadicStep.zero()
            for c, e in zip(coeffs, E):
                x = x + c * e
            l1x = norms(x).l1
            v_first = refine(x, K).values[0]
            for alpha in (Fraction(0), -v_first / (1 << K)):
                assert norms(x + alpha * y).l1 >= (1 - eps) * (l1x + abs(alpha))
    announce(7, "octahedrality-oracle")


def test_08_asymptotic_ell1():
    rng = rng_from_seed(108)
    disj = disjoint_spike_family(
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)], 4, 3
    )
    for _ in range(100):
        alphas = [random_fraction(rng, 8, 8) for _ in range(4)]
        b = ell1_bounds(disj, alphas)
        assert b.value == b.lower <= b.upper

    greedy = greedy_asymptotic_ell1(
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), Fraction(1, 6)],
        5,
    )
    for _ in range(100):
        alphas = [random_fraction(rng, 8, 8) for _ in range(5)]
        b = ell1_bounds(greedy, alphas)
        assert b.lower <= b.value <= b.upper
    announce(8, "asymptotic-ell1")


def test_09_dual_segment():
    rng = rng_from_seed(109)
    for _ in range(50):
        m = rng.randint(2, 6)
        K = rng.randint((m - 1).bit_length(), 5)
        deltas = sorted(
            (Fraction(rng.randint(1, 15), 16) for _ in range(m)), reverse=True
        )
        fam = disjoint_spike_family(deltas, m, K)
        pair = dual_segment(fam)
        assert norms(pair.xstar).linf == 1
        assert norms(pair.ystar).linf == 1
        assert norms(Fraction(1, 2) * (pair.xstar + pair.ystar)).linf == 1
        assert norms(pair.xstar - pair.ystar).linf == 2
        for pos, (s, d) in enumerate(zip(fam.members, fam.deltas), start=1):
            px = pairing(s.as_step(), pair.xstar)
            py = pairing(s.as_step(), pair.ystar)
            assert px == 1 - d
            assert py == (1 - d if pos % 2 == 0 else -(1 - d))
        nonsmooth_pairings(fam, pair)
    announce(9, "dual-segment")


def test_10_ured_failure():
    eps = [Fraction(1, 2**n) for n in range(1, 11)]
    run = ured_recursion(Fraction(1, 2), eps, 10)
    rep = verify_claim(run)
    assert rep["ok"]
    for n in range(1, 11):
        val = (2 * run.xs[n] + run.z).sup_norm()
        assert val == 2 * (1 - eps[n - 1] / 4)
    assert (2 * run.xs[10] + run.z).sup_norm() >= 2 - Fraction(1, 256)
    grid = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
    seg = segment_check(run, grid, 10)
    assert seg["ok"]
    announce(10, "ured-failure")


def test_11_dual_norm_estimator():
    rng = rng_from_seed(111)

    def grid_optimum(h):
        # brute force over level-2 nonnegative step functions, values on the
        # 1/32 mesh in [0,1]; the ratio is scale-invariant so this covers all
        # directions up to mesh resolution
        c = np.array(
            [
                float(abs(v)) / 4.0
                for v in (refine(h, 2).values if h.level <= 2 else _proj(h))
            ]
        )
        a = np.arange(33) / 32.0
        v0, v1, v2, v3 = np.ix_(a, a, a, a)
        p = c[0] * v0 + c[1] * v1 + c[2] * v2 + c[3] * v3
        s0 = (v0 + v1 + v2 + v3) / 4.0
        b1 = (v0 + v1) / 4.0
        b2 = (v2 + v3) / 4.0
        ssq = (v0**2 + v1**2 + v2**2 + v3**2) / 16.0
        q = s0**2 + 0.25 * (b1**2 + b2**2) + ssq / 14.0
        ratio = np.where(q > 0, p * p / np.where(q > 0, q, 1.0), 0.0)
        return math.sqrt(float(ratio.max()))

    def _proj(h):
        from renorml1 import dyadic_project

        return dyadic_project(h, 2).values

    # sanity pin: the constant functional attains exactly 7/8
    est = dual_norm_estimate(DyadicStep.constant(1), 2)
    assert est.lower_sq == Fraction(7, 8)

    for _ in range(20):
        h = random_step(rng, max_level=2, max_num=32, max_den=32)
        est = dual_norm_estimate(h, 2)
        # the certificate itself is exact regardless of search quality
        assert pairing(est.maximizer, h) ** 2 == est.pairing_sq
        assert tnorm_sq(est.maximizer) == est.tnorm_sq
        if est.tnorm_sq:
            assert est.lower_sq == est.pairing_sq / est.tnorm_sq
        assert est.lower_sq <= norms(h).linf ** 2
        # within 1e-6 of the grid optimum: the estimator may only exceed the
        # coarse grid, never fall measurably below it
        assert math.sqrt(float(est.lower_sq)) >= grid_optimum(h) - 1e-6
    announce(11, "dual-norm-estimator")


def test_12_cli_determinism(tmp_path):
    nbhd = {
        "center": {"level": 0, "values": ["9110/9739"]},
        "functionals": [{"level": 0, "values": ["1/1"]}],
        "delta": "1/2",
    }
    nb_path = tmp_path / "nbhd.json"
    nb_path.write_text(json.dumps(nbhd))
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps({"level": 1, "values": ["2/1", "-1/3"]}))

    commands = [
        ["norm", "--input", str(f_path)],
        ["witness", "--input", str(nb_path), "--eps", "1/5"],
        ["probe", "slice", "--input", str(nb_path), "--eps", "1/5,1/10"],
        ["ured", "--delta", "1/2", "--eps", "1/2,1/4,1/8"],
        ["selftest", "--seed", "424242", "--trials", "6"],
    ]
    for args in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "renorml1", *args], capture_output=True
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout
    announce(12, "cli-determinism")
