"""Map the indicial-root landscape across dimension and mode.

Produces a table of the first few exponents per (n, m) plus the mode-0
crossing frequency, and prints where the first exponent clears the weight
ceiling (n-1)/2 — the quantity that decides which decay rates the line
Green operator can certify.  An exponent within TIE of the ceiling (mode 1
at n = 3, where both equal 1) is listed as on it, not above it.

Usage: python scripts/root_atlas.py [n_max] [m_max]
"""

import sys

import numpy as np

from neckforge.indicial import root_catalog
from neckforge.symbol import ModeSpec, constants

n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 5
m_max = int(sys.argv[2]) if len(sys.argv) > 2 else 4
TIE = 1e-9

print(f"# kappa(n) = (n+1)/(n-1) * Theta_0(0)")
print(f"{'n':>3} {'m':>3} {'j':>3} {'sigma':>18} {'tau':>18}")
for n in range(2, n_max + 1):
    ceiling = (n - 1) / 2.0
    lead = {}  # first exponent of each mode
    for m in range(m_max + 1):
        cat = root_catalog(ModeSpec(n=n, m=m), 3)
        for j, r in enumerate(cat.roots):
            print(f"{n:>3} {m:>3} {j:>3} {r.sigma:>18.12f} {r.tau:>18.12f}")
        lead[m] = cat.roots[0].sigma
    above = [m for m in range(1, m_max + 1) if lead[m] > ceiling + TIE]
    on = [m for m in range(1, m_max + 1) if abs(lead[m] - ceiling) <= TIE]
    print(f"# n={n}: kappa={constants(n).kappa:.12f}, weight ceiling "
          f"{ceiling}, modes with sigma_0 above it: {above}, on it: {on}")
