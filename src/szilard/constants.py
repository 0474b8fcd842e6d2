"""Physical constants, pinned.

These are deliberately not taken from scipy.constants: every published number
this package reproduces was computed with the rounded values below, and
regression anchors in the test suite depend on them bit for bit.
"""

__all__ = ["HBAR", "PLANCK", "K_B", "EV", "ATOMIC_MASS"]

HBAR = 1.0545e-34     # J s
PLANCK = 6.6260e-34   # J s
K_B = 1.3806e-23      # J / K

EV = 1.602176634e-19          # J, exact by SI definition
ATOMIC_MASS = 1.66053906660e-27   # kg per unified atomic mass unit
