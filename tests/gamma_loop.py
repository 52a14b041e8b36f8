"""The increment loop: the oracle for `choose_gamma`.

`gamma_increment_loop(f_inf, delta, eps)` is the search `choose_gamma` ran
before it read p off bit lengths: it tries gamma = 2**-p for p = 1, 2, ...
until both conditions hold. The package stopped it at p = 4*MAX_LEVEL + 64;
here it runs to the answer, which always exists, since both conditions hold
for every small enough gamma.
"""

from fractions import Fraction


def gamma_increment_loop(f_inf: Fraction, delta: Fraction, eps: Fraction) -> Fraction:
    """Largest gamma = 2**-p (p >= 1) with (5*f_inf + 1)*gamma < delta and
    4*(1-gamma)**3 > (2-eps)**2 (vacuous for eps >= 2); delta, eps > 0."""
    p = 1
    while True:
        gamma = Fraction(1, 1 << p)
        if (5 * f_inf + 1) * gamma < delta and (eps >= 2 or 4 * (1 - gamma) ** 3 > (2 - eps) ** 2):
            return gamma
        p += 1
