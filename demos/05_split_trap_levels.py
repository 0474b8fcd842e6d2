"""Even-parity level migration under a central delta barrier.

With no barrier the harmonic levels sit at 1/2, 3/2, 5/2, ... (units of
hbar omega).  A barrier of growing strength pushes each even-parity level
up toward its odd neighbour; at infinite strength they merge and every
surviving level is doubly degenerate.  That merged ladder is what the
engine cycle uses for its barrier-inserted stages.
"""

import math

from szilard import even_levels, odd_level

STRENGTHS = (0.0, 1.0, 10.0, 100.0, 1e4, math.inf)


def main():
    branches = 4
    # one call per strength solves all its branches, each once
    levels = {lam: even_levels(lam, branches - 1) for lam in STRENGTHS}
    header = "  ".join(f"{('L = %g' % lam):>10}" for lam in STRENGTHS)
    print(f"{'branch':>6}  {header}  {'odd level':>10}")
    for k in range(branches):
        row = [f"{levels[lam][k].energy:10.6f}" for lam in STRENGTHS]
        print(f"{k:>6}  {'  '.join(row)}  {odd_level(k):10.6f}")

    print("\nEach row climbs from 1/2 + 2k to 3/2 + 2k, the odd level it"
          " merges with.  Fractional progress at L = 1:")
    for k in range(branches):
        e = levels[1.0][k].energy
        lo = 0.5 + 2.0 * k
        print(f"  branch {k}: {(e - lo):.4f} of the unit gap")


if __name__ == "__main__":
    main()
