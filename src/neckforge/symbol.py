"""Fourier symbol of the conformal fractional boundary operator on a cylinder.

On the model half-cylinder with boundary R x S^(n-1), the order-2*gamma
conformal boundary operator acts mode-by-mode: on a spherical-harmonic
mode of degree m and a longitudinal frequency xi it multiplies by

    Theta_m(xi) = 2^(2 gamma) * |Gamma(A + i xi/2)|^2 / |Gamma(B + i xi/2)|^2,

with offsets

    A = 1/2 + gamma/2 + (n/2 + m - 1)/2,
    B = 1/2 - gamma/2 + (n/2 + m - 1)/2.

The same Gamma-quotient, read as a function of a complex frequency zeta,

    Theta_m(zeta) = 2^(2 gamma) Gamma(A + i zeta/2) Gamma(A - i zeta/2)
                    / (Gamma(B + i zeta/2) Gamma(B - i zeta/2)),

is the analytic continuation used for indicial-root hunting; it restricts
to the real-axis formula since A and B are real.

Two constants drive everything downstream:

    c_g     = Theta_0(0)
              (the boundary curvature of the exact cylinder; at gamma = 1/2
              it is 2 Gamma((n+1)/4)^2 / Gamma((n-1)/4)^2, 2/pi at n = 3),
    kappa_g = (n + 2 gamma)/(n - 2 gamma) * c_g
              (the multiplier subtracted by the linearization of
              u^{-(n+2 gamma)/(n-2 gamma)} P_gamma u at u = 1;
              (n+1)/(n-1) * c at gamma = 1/2).

The symbol is even in xi and Theta_m(-xi - i beta) = conj Theta_m(xi - i beta),
so on real samples every multiplier is read on the half spectrum
`frequencies(N, ds)` and applied with rfft/irfft.

Domain: n, m, |xi| and |zeta| up to DOMAIN_MAX, and gamma below GAMMA_MAX.
The log-Gamma difference cancels, losing about one ulp per unit of
log|Gamma|.  Inside the domain the symbol is within 1e-10 relative of
50-digit mpmath (worst 5.6e-11 over 3,000 random (n, gamma, m, zeta) draws
at gamma in {0.3, 0.5, 0.8}, 4.6e-11 over 600 real-xi draws at gamma up to
31.9); outside it, ModeSpec, theta and theta_analytic raise ValidationError.
Theta grows like |xi|^(2 gamma) and peaks at n = m = |xi| = DOMAIN_MAX, where
mpmath gives 10^272.4 at gamma = 32 and 10^340.5 at 40 (floats end at 10^308.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import psi

from .errors import DegenerateSpec, PoleError, ValidationError
from .specfun import POLE_TOL, _near_pole, log_gamma, log_rgamma

__all__ = ["ModeSpec", "Constants", "DOMAIN_MAX", "GAMMA_MAX", "frequencies", "theta",
           "theta_analytic", "theta_log_derivative", "theta_table", "constants"]

# Largest n, m and |frequency|, and the gamma bound that keeps Theta finite there
# (see the module docstring).
DOMAIN_MAX = 10_000
GAMMA_MAX = 32.0


@dataclass(frozen=True)
class ModeSpec:
    """One cross-sectional mode of the cylinder operator.

    n      -- boundary dimension (the cylinder boundary is R x S^(n-1)), n >= 2
    gamma  -- operator order / 2, in (0, min(n/2, GAMMA_MAX)); 1/2: curvature
    m      -- spherical-harmonic degree on S^(n-1), m >= 0
    """

    n: int
    gamma: float = 0.5
    m: int = 0

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or not 2 <= self.n <= DOMAIN_MAX:
            raise ValidationError(f"n must be an integer >= 2 and <= {DOMAIN_MAX}, got {self.n!r}")
        if not (0.0 < self.gamma < min(self.n / 2.0, GAMMA_MAX)):
            raise ValidationError(f"gamma must lie in (0, min(n/2, {GAMMA_MAX:g})), got {self.gamma!r}")
        if not isinstance(self.m, (int, np.integer)) or not 0 <= self.m <= DOMAIN_MAX:
            raise ValidationError(f"m must be an integer >= 0 and <= {DOMAIN_MAX}, got {self.m!r}")

    @property
    def mu(self) -> float:
        """Laplace eigenvalue m(m + n - 2) of the degree-m harmonics."""
        return float(self.m * (self.m + self.n - 2))

    @property
    def a_offset(self) -> float:
        return 0.5 + 0.5 * self.gamma + 0.5 * (self.n / 2.0 + self.m - 1.0)

    @property
    def b_offset(self) -> float:
        return 0.5 - 0.5 * self.gamma + 0.5 * (self.n / 2.0 + self.m - 1.0)


@dataclass(frozen=True)
class Constants:
    """Curvature constant of the exact cylinder and its linearization shift."""

    c: float
    kappa: float


def _reject_degenerate(spec: ModeSpec):
    b = spec.b_offset
    if _near_pole(b):
        raise DegenerateSpec(
            f"symbol denominator offset B = {b} sits on a Gamma pole; "
            f"spec {spec} is degenerate at xi = 0"
        )


def _check_frequency(x, name: str):
    """ValidationError unless every |x| <= DOMAIN_MAX (NaN fails too)."""
    big = np.abs(x).max(initial=0.0)
    if not big <= DOMAIN_MAX:
        raise ValidationError(f"|{name}| = {big:g} is past the symbol's domain bound {DOMAIN_MAX}")


def theta(spec: ModeSpec, xi):
    """Symbol value Theta_m(xi) for real xi (scalar or array); real, positive.

    Evaluated via log-Gamma differences and one exponentiation.  The
    differences cancel as |xi| grows, so |xi| > DOMAIN_MAX raises ValidationError.
    """
    xi_arr = np.asarray(xi, dtype=float)
    _check_frequency(xi_arr, "xi")
    if np.any(np.abs(xi_arr) < POLE_TOL):
        _reject_degenerate(spec)
    za = spec.a_offset + 0.5j * xi_arr
    zb = spec.b_offset + 0.5j * xi_arr
    # A, B real: the conjugate Gamma factor doubles the real part of log Gamma.
    log_theta = 2.0 * spec.gamma * np.log(2.0) \
        + 2.0 * np.real(log_gamma(za)) - 2.0 * np.real(log_gamma(zb))
    out = np.exp(log_theta)
    return float(out) if np.ndim(xi) == 0 else out


@lru_cache(maxsize=128)
def frequencies(N: int, ds: float) -> np.ndarray:
    """Read-only angular frequencies 2*pi*rfftfreq(N, ds) of the rfft bins of
    N samples."""
    out = 2.0 * np.pi * np.fft.rfftfreq(N, d=ds)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=128)
def theta_table(n: int, gamma: float, m_max: int, N: int, ds: float) -> np.ndarray:
    """Read-only (m_max+1, N//2+1) table of Theta_m at order 2*gamma on
    `frequencies(N, ds)`: row m is theta(ModeSpec(n, gamma, m), xi), the
    boundary operator on mode m as a half-spectrum multiplier,
    P u = irfft(row * rfft(u), N).  The solver and the neck read it at
    gamma = 1/2; modegreen's real contours (envelope rate 0) read it at the
    spec's gamma."""
    xi = frequencies(N, ds)
    out = np.array([theta(ModeSpec(n=n, gamma=gamma, m=m), xi) for m in range(m_max + 1)])
    out.setflags(write=False)
    return out


def theta_analytic(spec: ModeSpec, zeta):
    """Analytic continuation of the symbol to complex frequency zeta.

    Returns exact zeros where the denominator Gammas have poles; raises
    PoleError where the numerator Gammas do (a genuine pole of the symbol),
    and ValidationError for |zeta| > DOMAIN_MAX.  Scalar or array input.
    One log_rgamma call on the stacked arguments A +- h, B +- h (h = i zeta/2).
    """
    z_arr = np.asarray(zeta, dtype=np.complex128)
    _check_frequency(z_arr, "zeta")
    scalar = z_arr.ndim == 0
    z_flat = np.atleast_1d(z_arr)

    a, b, h = spec.a_offset, spec.b_offset, 0.5j * z_flat
    # -inf on a numerator row is a pole of the symbol, on a denominator row a zero
    lr = log_rgamma(np.array([a + h, a - h, b + h, b - h]))
    num_pole = (lr[0].real == -np.inf) | (lr[1].real == -np.inf)
    if num_pole.any():
        raise PoleError(f"theta_analytic pole at zeta = {z_flat[num_pole]}")
    log_val = 2.0 * spec.gamma * np.log(2.0) - lr[0] - lr[1] + lr[2] + lr[3]
    out = np.exp(log_val)
    out[log_val.real == -np.inf] = 0.0
    return complex(out[0]) if scalar else out.reshape(z_arr.shape)


def theta_log_derivative(spec: ModeSpec, zeta):
    """Log-derivative Theta_m'(zeta) / Theta_m(zeta) of the analytic
    continuation, scalar or array:

        (i/2) [psi(A + i zeta/2) - psi(A - i zeta/2)
               - psi(B + i zeta/2) + psi(B - i zeta/2)].
    """
    h = 0.5j * np.asarray(zeta, dtype=np.complex128)
    a, b = spec.a_offset, spec.b_offset
    return 0.5j * (psi(a + h) - psi(a - h) - psi(b + h) + psi(b - h))


@lru_cache(maxsize=64)
def constants(n: int, gamma: float = 0.5) -> Constants:
    """Cylinder curvature constant c_g = Theta_0(0) and the linearization
    shift kappa_g = (n + 2 gamma)/(n - 2 gamma) * c_g."""
    c = theta(ModeSpec(n=n, gamma=gamma, m=0), 0.0)
    return Constants(c=c, kappa=(n + 2.0 * gamma) / (n - 2.0 * gamma) * c)
