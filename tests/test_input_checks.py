"""The library's argument checks: each bad argument raises its own exception
type with its own message, before any work is done."""

from fractions import Fraction

import pytest

from renorml1 import (
    DyadicStep,
    LevelOverflowError,
    Spike,
    WeakNbhd,
    best_rational_leq_sqrt,
    choose_K,
    combo_l1,
    d2p_witness,
    disjoint_spike_family,
    dyadic_project,
    near_unit_scale,
    octahedral_direction,
    partial_below,
    split_pair,
    ured_recursion,
)
from renorml1 import gen
from renorml1.dyadic import MAX_LEVEL, decimal_str, sqrt_floor_decimal
from renorml1.probes import weak_smallness
from conftest import mk

HALF = mk(0, Fraction(1, 2))

CASES = [
    (lambda: best_rational_leq_sqrt(Fraction(-1), 1), ValueError, "negative square"),
    (lambda: best_rational_leq_sqrt(Fraction(2), 0), ValueError, "max_den must be >= 1"),
    (lambda: near_unit_scale(HALF, 0), ValueError, "prec must be > 0"),
    (lambda: near_unit_scale(HALF, 2), ValueError, "prec must be in (0, 1], got 2/1"),
    (lambda: choose_K(Fraction(1), []), ValueError, "gamma must be in (0, 1), got 1"),
    (lambda: choose_K(Fraction(1, 2), [MAX_LEVEL - 1]), LevelOverflowError,
     f"split level {MAX_LEVEL + 1} exceeds cap {MAX_LEVEL}"),
    (lambda: split_pair(HALF, -1), ValueError, "K must be >= 0, got -1"),
    (lambda: split_pair(HALF, MAX_LEVEL - 1), LevelOverflowError,
     f"split level {MAX_LEVEL + 1} exceeds cap {MAX_LEVEL}"),
    (lambda: d2p_witness(WeakNbhd(HALF, (), Fraction(1, 2)), 0), ValueError, "eps must be > 0"),
    (lambda: weak_smallness(HALF, -1), ValueError, "depth must be >= 0, got -1"),
    (lambda: partial_below(HALF, -1), ValueError, "truncation level must be >= 0, got -1"),
    (lambda: dyadic_project(HALF, -1), ValueError, "level must be >= 0, got -1"),
    (lambda: ured_recursion(Fraction(1, 2), [], -1), ValueError, "steps must be >= 0"),
    (lambda: Spike(1, 3, 1), ValueError, "bad spike support (1, 3)"),
    (lambda: combo_l1([Spike(0, 1, 1)], []), ValueError, "one coefficient per member required"),
    # the member's level 20 and ceil(log2 2) = 1 put the direction at level 22
    (lambda: octahedral_direction([DyadicStep.zero(MAX_LEVEL)], Fraction(1, 2)), LevelOverflowError,
     f"direction level {MAX_LEVEL + 2} exceeds cap {MAX_LEVEL}"),
    (lambda: disjoint_spike_family([Fraction(1, 2)], 1, MAX_LEVEL + 1), LevelOverflowError,
     f"level {MAX_LEVEL + 1} exceeds cap {MAX_LEVEL}"),
    (lambda: DyadicStep.periodic(1, (1,), 1, 1), ValueError,
     "need 2**1 motifs of 2**w values and reps a power of 2, got 1 and 1"),
    (lambda: decimal_str(Fraction(-1)), ValueError, "negative argument"),
    (lambda: sqrt_floor_decimal(Fraction(-1)), ValueError, "negative argument"),
    (lambda: gen.rademacher(0), ValueError, "rademacher needs level >= 1"),
]


@pytest.mark.parametrize("call, error, message", CASES)
def test_bad_argument_raises_its_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_a_negative_prec_keeps_the_message_of_zero():
    # a case of its own: a second "prec must be > 0" in CASES would rename the first's test id
    with pytest.raises(ValueError, match=r"^prec must be > 0$"):
        near_unit_scale(HALF, -1)


def test_a_negative_denominator_moves_to_the_numerators():
    assert DyadicStep.periodic(0, (1,), 1, -2) == DyadicStep(0, ["-1/2"])


def test_a_step_is_not_equal_to_a_number():
    assert (DyadicStep(0, [1]) == 1) is False
