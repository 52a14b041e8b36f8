"""The Stern-Brocot search: the oracle for `best_rational_leq_sqrt`.

`stern_brocot_leq_sqrt(x_sq, max_den)` is the galloping Stern-Brocot descent
the package used before it read the answer off the continued fraction of
sqrt(x_sq): it moves each endpoint of the bracket [a/b, c/d) by as many
mediant steps as the exact predicate p**2 * den <= q**2 * num and max_den
allow, doubling and then bisecting the step count, until neither can move.
"""

from fractions import Fraction
from typing import Optional


def stern_brocot_leq_sqrt(x_sq: Fraction, max_den: int) -> Fraction:
    """Largest r = p/q with q <= max_den, r >= 0 and r**2 <= x_sq."""
    num, den = x_sq.numerator, x_sq.denominator

    def le(p: int, q: int) -> bool:  # p/q <= sqrt(num/den)
        return p * p * den <= q * q * num

    def biggest_k(pred, cap: Optional[int]) -> int:
        """Largest k in [0, cap] with pred(k); pred is monotone decreasing."""
        if cap is not None and cap <= 0:
            return 0
        if not pred(1):
            return 0
        k = 1
        while (cap is None or 2 * k <= cap) and pred(2 * k):
            k *= 2
        lo, hi = k, (2 * k if cap is None else min(2 * k, cap))
        while lo < hi:  # invariant: pred(lo); find the last True
            mid = (lo + hi + 1) // 2
            if pred(mid):
                lo = mid
            else:
                hi = mid - 1
        return lo

    a, b = 0, 1  # lower endpoint, always <= sqrt
    c, d = 1, 0  # upper endpoint, always > sqrt
    while True:
        if a * a * den == b * b * num:
            return Fraction(a, b)  # hit sqrt exactly
        k = biggest_k(
            lambda k: le(a + k * c, b + k * d),
            None if d == 0 else (max_den - b) // d,
        )
        if k:
            a, b = a + k * c, b + k * d
        k2 = biggest_k(
            lambda k: not le(c + k * a, d + k * b),
            (max_den - d) // b,
        )
        if k2:
            c, d = c + k2 * a, d + k2 * b
        if not k and not k2:
            return Fraction(a, b)
