"""Glued-neck geometry, weighted norms, and the approximate-curvature error.

Desk model: two scalar-flat summands with constant-curvature boundary,
each flattened to the exact model cylinder inside its chart (radial
cutoff at chart scale), joined across a neck of length S = -log(epsilon).
In the centered neck coordinate the glued metric is conformal to the
cylinder with factor

    U(s) = chi(s) * G_1(s) + chi(-s) * G_2(s),

where chi is a smooth partition transitioning in the unit band |s| <= 1
and G_i = 1 + delta^2 q_i are the summand chart deviations: q_i == 1 on
the i-th cap side and decaying like e^{-2|s|} into the other half (a
smooth-max ramp).  For ideally flat summands the deviation would vanish
and U == 1 identically; the synthetic O(delta^2) deviation (delta =
epsilon^{1/4}) is always on, so the construction error and its decay in
epsilon are non-trivial.

The boundary curvature of the glued metric follows from conformal
covariance: with u = U^{(n-1)/4} and P0 the cylinder boundary operator
(zonal symbol as a Fourier multiplier in s),

    Q = u^{-(n+1)/(n-1)} * P0(u),

so the construction error is Q - c and its size is measured in weighted
sup norms with the neck weight (cosh-type, small in the middle).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .symbol import ModeSpec, constants, frequencies, theta_table

__all__ = [
    "NeckConfig",
    "window",
    "weight",
    "weighted_norm",
    "build_glued_factor",
    "glued_u",
    "curvature",
    "approximate_curvature_error",
    "covariance_selftest",
    "error_sweep",
]

CUTOFF_WIDTH = 1.0  # the partition chi switches from 1 to 0 over |s| < CUTOFF_WIDTH
RAMP_WIDTH = 0.5  # smooth-max scale of the chart deviation profile


@dataclass(frozen=True)
class NeckConfig:
    """Neck geometry: the neck parameter, the sample count and the cap pad."""

    epsilon: float
    n_s: int = 4096
    pad: float = 4.0

    def __post_init__(self):
        if not (0.0 < self.epsilon < 0.25):
            raise ValidationError(f"epsilon must lie in (0, 0.25), got {self.epsilon}")
        if self.n_s < 256:
            raise ValidationError("need at least 256 neck samples")
        if self.pad < 2.0:
            raise ValidationError("pad must leave room for the caps (>= 2)")

    @property
    def S_eps(self) -> float:
        return -float(np.log(self.epsilon))

    @property
    def delta(self) -> float:
        """Chart scale epsilon^(1/4); with epsilon < 1/4 it exceeds
        1.25 sqrt(epsilon), so the neck and chart regions never overlap."""
        return self.epsilon**0.25

    @property
    def L(self) -> float:
        """Window length: the neck S_eps with a cap pad on either side."""
        return self.S_eps + 2.0 * self.pad


def window(L: float, N: int) -> np.ndarray:
    """The N points -L/2 + (L/N) k of the centered periodic window of length L."""
    return -L / 2 + (L / N) * np.arange(N)


def weight(config: NeckConfig, s) -> np.ndarray:
    """Neck weight cosh(s)/cosh(S/2): tiny at the neck middle, equal to 1
    exactly at the neck ends, then smoothly capped into (1, 2) over the caps."""
    raw = np.cosh(np.asarray(s, dtype=float)) / np.cosh(0.5 * config.S_eps)
    # identity below 1, C^1 saturation toward 2 above (caps only)
    return np.where(raw <= 1.0, raw, 2.0 - 1.0 / np.maximum(raw, 1.0))


def weighted_norm(mu: float, config: NeckConfig, s, values) -> float:
    """sup of weight^{-mu} |values| over the points s."""
    return float(np.max(weight(config, s) ** (-mu) * np.abs(values)))


def _bump_density(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


def _cutoff(s: np.ndarray) -> np.ndarray:
    """Smooth cutoff on the grid s: 1 for s <= -CUTOFF_WIDTH, 0 for
    s >= CUTOFF_WIDTH, the normalized integral of a bump in between.

    The profile is symmetrized so chi(s) + chi(-s) = 1 holds to roundoff
    (an exact partition).
    """
    w = CUTOFF_WIDTH
    rho = _bump_density(s / w)
    mass = np.cumsum(0.5 * (rho[1:] + rho[:-1]))
    chi = np.empty_like(s)
    chi[0] = 1.0
    chi[1:] = 1.0 - mass / mass[-1]
    chi[s <= -w] = 1.0
    chi[s >= w] = 0.0
    flipped = np.interp(-s, s, chi)
    return 0.5 * (chi + 1.0 - flipped)


def _deviation_profile(s: np.ndarray) -> np.ndarray:
    """Chart deviation shape q: 1 frozen on the own-cap side (s -> -inf),
    e^{-2s} decay into the opposite half; smooth-max ramp of width RAMP_WIDTH."""
    w = RAMP_WIDTH
    ell = 0.5 * (s + np.sqrt(s * s + w * w))
    return np.exp(-2.0 * ell)


def build_glued_factor(config: NeckConfig, s) -> np.ndarray:
    """Conformal factor U of the glued metric over the model cylinder, at
    the points s of an ascending uniform grid.

    U == 1 + O(delta^2) through the neck, exactly the summand chart factor
    beyond the transition band on either side.  U >= 1: the cutoff lies in
    [0, 1] and both chart factors are 1 + delta^2 q with q > 0.
    """
    d2 = config.delta**2
    s = np.asarray(s, dtype=float)
    chi = _cutoff(s)
    g1 = 1.0 + d2 * _deviation_profile(s)
    g2 = 1.0 + d2 * _deviation_profile(-s)
    return chi * g1 + (1.0 - chi) * g2  # chi(-s) = 1 - chi(s), an exact partition


def glued_u(config: NeckConfig, n: int, L: float, N: int):
    """The conformally covariant factor u = U^{(n-1)/4} of the glued metric
    on window(L, N), and P0 u: the mode-0 row of `theta_table` with step
    L/N applied as a half-spectrum Fourier multiplier."""
    u = build_glued_factor(config, window(L, N)) ** ((n - 1) / 4.0)
    return u, np.fft.irfft(theta_table(n, 0.5, 0, N, L / N)[0] * np.fft.rfft(u), N)


def curvature(n: int, u, Pu):
    """Conformal covariance: the boundary curvature of u^{4/(n-1)} g is
    Q(u) = u^{-N} P u with N = (n+1)/(n-1), from samples of u and P u."""
    return u ** (-(n + 1) / (n - 1)) * Pu


def approximate_curvature_error(config: NeckConfig, n: int, mu: float | None = None):
    """Pointwise construction error Q - c of the glued metric U * g_cyl on
    window(config.L, config.n_s), its curvature Q from conformal covariance,
    and the weighted norm E(epsilon) with exponent mu (default -(n-1)/4).
    An E that is not finite (the weight's (-mu)-th power overflows on the
    caps once mu is below about -1100) raises NumericalError."""
    if mu is None:
        mu = -(n - 1) / 4.0
    if not (np.isfinite(mu) and mu < 0.0):
        raise ValidationError(f"the error norm needs a finite negative weight exponent, "
                              f"got {mu}")
    L, N = config.L, config.n_s
    u, Pu = glued_u(config, n, L, N)
    err = curvature(n, u, Pu) - constants(n).c
    with np.errstate(over="ignore"):
        E = weighted_norm(mu, config, window(L, N), err)
    if not np.isfinite(E):
        raise NumericalError(f"weighted error norm with mu = {mu} is not finite")
    return err, E


def covariance_selftest(config: NeckConfig, n: int) -> float:
    """Two-route curvature agreement on the conformally exact window.

    Route a applies the Gamma-formula symbol as the multiplier; route b
    replaces the 49 lowest rfft multiplier bins -- which carry essentially all
    of the factor's spectrum -- by Dirichlet-to-Neumann values from the
    extension ODE solve.  Agreement bounds the covariance pipeline against
    an independent realization of the boundary operator.
    """
    from .extension import HalfCylinderProblem, dtn_cylinder

    L, N = config.L, config.n_s
    u, Pu_a = glued_u(config, n, L, N)
    mult_b = theta_table(n, 0.5, 0, N, L / N)[0].copy()
    mult_b[:49] = [dtn_cylinder(HalfCylinderProblem(ModeSpec(n=n, m=0), xi=x))
                   for x in frequencies(N, L / N)[:49]]
    Pu_b = np.fft.irfft(mult_b * np.fft.rfft(u), N)
    return float(np.max(np.abs(curvature(n, u, Pu_a) - curvature(n, u, Pu_b))))


def error_sweep(n: int, epsilons, mu: float | None = None, **config_kw):
    """E(epsilon) decay study; one row per epsilon."""
    rows = []
    for eps in epsilons:
        cfg = NeckConfig(epsilon=float(eps), **config_kw)
        _, E = approximate_curvature_error(cfg, n, mu)
        rows.append({"epsilon": float(eps), "S_eps": cfg.S_eps,
                     "delta": cfg.delta, "E": E})
    return rows
