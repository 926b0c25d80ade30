"""Grid-refinement study for the bulk-extension route to the symbol.

Two independent discretizations of the same half-cylinder problem:

* collocation-ODE (Chebyshev collocation, flux by Clenshaw-Curtis
  quadrature): error should sit at rounding level, near 1e-14,
* finite-difference: error should drop ~4x per grid doubling,

and, on the n = 2 cases, the 2-D hemisphere solve with no separation of
variables (fixed 96 x 64 polar grid): error should stay below 5e-3.

Prints one table per scheme; the finite-difference slopes are the check
that the extension solver converges to the Gamma-ratio formula rather
than to something nearby.  Run: PYTHONPATH=src python3 scripts/dtn_convergence.py
"""

import numpy as np

from neckforge.extension import HalfCylinderProblem, dtn_cylinder, dtn_halfdisk_2d
from neckforge.symbol import ModeSpec, theta

CASES = [(2, 0, 0.5), (2, 2, 1.0), (3, 0, 0.5), (3, 1, 2.0), (3, 4, 4.0)]
GRIDS = (128, 256, 512, 1024)

print("scheme=collocation-ODE")
print(f"{'n':>3} {'m':>3} {'xi':>6} {'rel_err':>12}")
for n, m, xi in CASES:
    spec = ModeSpec(n=n, m=m)
    got = dtn_cylinder(HalfCylinderProblem(spec, xi=xi, scheme="collocation-ODE"))
    ref = float(theta(spec, xi))
    print(f"{n:>3} {m:>3} {xi:>6.2f} {abs(got - ref) / ref:>12.3e}")

print("\nscheme=finite-difference")
header = "".join(f" err@{g:>5}" for g in GRIDS)
print(f"{'n':>3} {'m':>3} {'xi':>6}{header}  ratios")
for n, m, xi in CASES:
    spec = ModeSpec(n=n, m=m)
    ref = float(theta(spec, xi))
    errs = []
    for g in GRIDS:
        got = dtn_cylinder(HalfCylinderProblem(spec, xi=xi, phi_grid=g,
                                               scheme="finite-difference"))
        errs.append(abs(got - ref) / ref)
    ratios = " ".join(f"{errs[i] / errs[i + 1]:.2f}" for i in range(len(errs) - 1))
    cells = "".join(f" {e:>9.2e}" for e in errs)
    print(f"{n:>3} {m:>3} {xi:>6.2f}{cells}  {ratios}")

print("\nscheme=half-disk-2d")
print(f"{'n':>3} {'m':>3} {'xi':>6} {'rel_err':>12}")
for n, m, xi in CASES:
    if n == 2:
        ref = float(theta(ModeSpec(n=n, m=m), xi))
        got = dtn_halfdisk_2d(xi, m)
        print(f"{n:>3} {m:>3} {xi:>6.2f} {abs(got - ref) / ref:>12.3e}")
