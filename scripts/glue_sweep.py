"""Neck-length study: curvature error and inversion floor along one sweep.

For a dyadic ladder of neck parameters this prints, per epsilon:

* E            -- weighted curvature error of the glued approximate factor,
* sigma_min    -- smallest weighted singular value of the frozen linearized
                  operator on a fixed window (the acceptance suite's
                  inversion-floor quantity),

then the fitted log-log slopes.  E should fall like ~sqrt(epsilon) while
sigma_min should stay put; together those are the numerical shadow of
"error -> 0, inverse norm bounded".
"""

import numpy as np

from neckforge.neck import error_sweep
from neckforge.solver import uniform_invertibility_study

EPS = (1e-1, 5e-2, 2.5e-2, 1.25e-2, 6.25e-3)
# error norms take mu = -0.5 everywhere; the inversion study needs mu
# strictly inside (-(n-1)/2, 0), which excludes -0.5 when n = 2
INV_MU = {2: -0.4, 3: -0.5}

for n in (2, 3):
    rows = error_sweep(n, EPS, mu=-0.5)
    inv = uniform_invertibility_study(n, list(EPS), mu=INV_MU[n],
                                      m_max=3, N_s=384)
    print(f"n={n}  (inversion mu={INV_MU[n]})")
    print(f"{'epsilon':>10} {'S':>8} {'E':>12} {'sigma_min':>12}")
    for row, irow in zip(rows, inv["rows"]):
        print(f"{row['epsilon']:>10.2e} {row['S_eps']:>8.3f} "
              f"{row['E']:>12.5e} {irow['sigma_min']:>12.5e}")
    logs = np.log(np.array([r["E"] for r in rows]))
    slope_E = np.polyfit(np.log(np.array(EPS)), logs, 1)[0]
    print(f"  E slope {slope_E:+.3f} (decay), sigma_min slope "
          f"{inv['slope']:+.4f} (flat is good), floor "
          f"{inv['sigma_min_overall']:.4f}\n")
