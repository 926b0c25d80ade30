"""Independent references for the benchmark's `digits` and checks.

Nothing here imports the package under test.  The symbol comes from
mpmath's Gamma function, the frozen root table from `make_roots_ref.py`
(40-digit mpmath), and the curvature residual of a periodic-cylinder state
is recomputed with scipy's Gauss-Jacobi nodes and Gegenbauer polynomials
over an mpmath multiplier table.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

ROOTS_REF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "roots_ref.json")
HALF = 0.5  # gamma: every workload runs the curvature case


def _mp():
    import mpmath

    mpmath.mp.dps = 30
    return mpmath


def offsets(n: int, m: int, gamma: float = HALF):
    base = 0.5 * (n / 2.0 + m - 1.0)
    return 0.5 + 0.5 * gamma + base, 0.5 - 0.5 * gamma + base


def theta_mp(n: int, m: int, xi: float) -> float:
    """Theta_m(xi) = 2 |Gamma(A + i xi/2)|^2 / |Gamma(B + i xi/2)|^2 in mpmath."""
    mp = _mp()
    a, b = offsets(n, m)
    h = mp.mpc(0, mp.mpf(xi) / 2)
    val = 2 * abs(mp.gamma(a + h)) ** 2 * abs(mp.rgamma(b + h)) ** 2
    return float(val)


def curvature_constant(n: int) -> float:
    """c = Theta_0(0) of the exact cylinder."""
    return theta_mp(n, 0, 0.0)


def load_roots() -> dict:
    """(n, m) -> list of (lambda, dtheta) for the first four roots."""
    with open(ROOTS_REF) as fh:
        table = json.load(fh)["roots"]
    out = {}
    for key, rows in table.items():
        n, m = (int(x) for x in key.split(","))
        out[n, m] = [(complex(float(r["sigma"]), float(r["tau"])),
                      complex(float(r["dtheta_re"]), float(r["dtheta_im"])))
                     for r in rows]
    return out


def digits_of(rel_err: float) -> float:
    """Correct significant digits of a relative error, capped at 16."""
    return 16.0 if rel_err <= 1e-16 else min(16.0, -math.log10(rel_err))


class ZonalResidual:
    """Curvature residual Q(f) - c of a zonal periodic-cylinder state.

    Q(f) = f^{-(n+1)/(n-1)} P f is collocated on Gauss nodes of the
    cross-section measure (1 - x^2)^{(n-3)/2} dx times the uniform s grid,
    projected back on the zonal modes, and the residual's sup over the
    grid is returned.  P multiplies mode m at frequency xi_k by
    Theta_m(|xi_k|), tabulated once with mpmath.
    """

    def __init__(self, n: int, L: float, m_max: int, N_s: int):
        from scipy.special import eval_chebyt, eval_gegenbauer, roots_jacobi

        self.n, self.L, self.m_max, self.N_s = n, L, m_max, N_s
        alpha = (n - 3) / 2.0
        x, w = roots_jacobi(2 * (m_max + 1), alpha, alpha)
        rows = np.array([eval_chebyt(m, x) if n == 2 else eval_gegenbauer(m, (n - 2) / 2.0, x)
                         for m in range(m_max + 1)])
        mass = float(np.sum(w))
        rows /= np.sqrt(np.sum(w * rows * rows, axis=1) / mass)[:, None]
        self.to_grid = rows.T                      # (nodes, modes)
        self.to_modes = rows * w[None, :] / mass   # (modes, nodes)
        xi = np.abs(2.0 * np.pi * np.fft.fftfreq(N_s, d=L / N_s))
        cache = {}
        self.mults = np.array([[cache.setdefault((m, x_), theta_mp(n, m, x_)) for x_ in xi]
                               for m in range(m_max + 1)])
        self.c = curvature_constant(n)

    def __call__(self, f_hat: np.ndarray) -> float:
        f_modes = np.real(np.fft.ifft(f_hat, axis=1))
        pf_modes = np.real(np.fft.ifft(self.mults * f_hat, axis=1))
        f_grid = self.to_grid @ f_modes
        q_grid = f_grid ** (-(self.n + 1.0) / (self.n - 1.0)) * (self.to_grid @ pf_modes)
        res_modes = self.to_modes @ q_grid
        res_modes[0] -= self.c
        return float(np.max(np.abs(self.to_grid @ res_modes)))
