"""50-digit references that share no code with the package: harmonic
levels from their closed form in mpmath, and the occupancy roots solved on
them by mpmath.findroot.  Imports nothing from szilard but its constants,
so a wrong stop, ladder or ground level in the package cannot reach it."""

import mpmath

from szilard.constants import HBAR, K_B

DIGITS = 50


def occupancy_root(omega, inserted, temperature, count):
    """u = log beta (E_1 - mu) at which a harmonic trap of frequency omega
    holds `count` bosons at `temperature`, to 50 digits, as an mpf.

    Levels are E_n = (n + 1/2) hbar omega, n = 1, 2, ...; with the barrier
    inserted, every other one (E_2n), each with degeneracy g = 2.  With c
    = beta (E_{n+1} - E_n) on the ladder and v = e^u, the occupancy is g
    sum_{n >= 0} 1/(e^{c n + v} - 1): the first M terms one by one, where
    c M >= 4, and the rest as the geometric series sum_k e^{-k (c M +
    v)}/(1 - e^{-k c}), to terms below 1e-60."""
    with mpmath.workdps(DIGITS):
        g = 2 if inserted else 1
        c = g * mpmath.mpf(HBAR) * mpmath.mpf(omega) / (
            mpmath.mpf(K_B) * mpmath.mpf(temperature))
        m = int(mpmath.ceil(4 / c))
        count = mpmath.mpf(count)

        def excess(u):
            v = mpmath.exp(u)
            rest = c * m + v
            head = mpmath.fsum(1 / mpmath.expm1(c * n + v) for n in range(m))
            tail = mpmath.fsum(mpmath.exp(-k * rest) / -mpmath.expm1(-k * c)
                               for k in range(1, int(140 / rest) + 2))
            return g * (head + tail) - count

        lo = mpmath.log(mpmath.log1p(g / count))  # the ground term alone
        hi = lo + 1
        while excess(hi) > 0:
            hi += 1
        return mpmath.findroot(excess, (lo, hi), solver="anderson")
