"""Complex log-Gamma and derived quantities.

Everything downstream (symbols, indicial roots, Green kernels) reduces to
ratios of Gamma functions at complex arguments, always consumed through a
single exponentiation of log-Gamma differences.  That usage pattern makes
the principal-branch ambiguity of ``log_gamma`` on the left half-plane
harmless (2*pi*i*k offsets cancel under ``exp``), but it does demand

* ~1e-13 relative accuracy on the right half-plane,
* exact conjugate symmetry ``log_gamma(conj(z)) == conj(log_gamma(z))``,
* loud failure near the poles at the non-positive integers.

The evaluation is a fixed-coefficient Lanczos-type rational approximation
(g = 607/128 with fifteen coefficients) plus the reflection formula for
arguments left of Re z = 1/2.  All entry points are pure functions and
accept scalars or numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import PoleError

__all__ = ["log_gamma", "abs_gamma_sq", "POLE_TOL"]

# Distance from a non-positive integer below which evaluation is refused.
POLE_TOL = 1e-12

_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEF = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])
_HALF_LOG_TWO_PI = 0.5 * np.log(2.0 * np.pi)


def _lanczos_right(z):
    """Lanczos sum for Re z >= 0.5; vectorized, no branch issues there."""
    zm1 = z - 1.0
    series = np.full_like(z, _LANCZOS_COEF[0])
    for k in range(1, len(_LANCZOS_COEF)):
        series = series + _LANCZOS_COEF[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (zm1 + 0.5) * np.log(t) - t + np.log(series)


def _near_pole(z):
    """Mask of entries within POLE_TOL of a Gamma pole (a non-positive integer)."""
    re = np.real(z)
    nearest = np.round(re)
    return (nearest <= 0.0) & (np.abs(re - nearest) < POLE_TOL) & (np.abs(np.imag(z)) < POLE_TOL)


def _check_poles(z):
    on_pole = _near_pole(z)
    if np.any(on_pole):
        bad = np.asarray(z)[on_pole] if np.ndim(z) else z
        raise PoleError(f"log_gamma argument within {POLE_TOL:g} of a non-positive integer: {bad}")


def log_gamma(z):
    """Principal-branch log Gamma(z) for complex scalar or array input.

    Uses reflection for Re z < 0.5.  Raises PoleError if any entry sits
    within POLE_TOL of a non-positive integer.  Conjugate symmetry is exact
    by construction: arguments in the lower half-plane are evaluated as the
    conjugate of their mirror image.
    """
    z_arr = np.asarray(z, dtype=np.complex128)
    scalar = z_arr.ndim == 0
    z_work = np.atleast_1d(z_arr).copy()
    _check_poles(z_work)

    # Canonicalize to Im z >= 0 so conjugate symmetry holds bit-for-bit.
    lower = np.imag(z_work) < 0.0
    z_work[lower] = np.conj(z_work[lower])

    out = np.empty_like(z_work)
    left = np.real(z_work) < 0.5
    if np.any(~left):
        out[~left] = _lanczos_right(z_work[~left])
    if np.any(left):
        zl = z_work[left]
        # log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z).
        # Canonicalization guarantees Im zl >= 0 here.  Direct log(sin(pi z))
        # overflows once Im z exceeds ~230, so switch to the analytic form
        # log sin(pi z) = -i pi z + i pi/2 - log 2 + log(1 - e^{2 i pi z});
        # any 2*pi*i branch offset cancels downstream under exp().
        log_sin = np.empty_like(zl)
        high = np.imag(zl) > 20.0
        if np.any(~high):
            log_sin[~high] = np.log(np.sin(np.pi * zl[~high]))
        if np.any(high):
            zh = zl[high]
            log_sin[high] = (-1j * np.pi * zh + 0.5j * np.pi - np.log(2.0)
                             + np.log1p(-np.exp(2j * np.pi * zh).real))
        out[left] = np.log(np.pi) - log_sin - _lanczos_right(1.0 - zl)

    out[lower] = np.conj(out[lower])
    return out[0] if scalar else out.reshape(z_arr.shape)


def abs_gamma_sq(z):
    """|Gamma(z)|^2 computed as exp(2 Re log_gamma(z))."""
    return np.exp(2.0 * np.real(log_gamma(z)))
