"""Complex log-Gamma behind one pole guard.

Everything downstream (symbols, indicial roots, Green kernels) reduces to
ratios of Gamma functions at complex arguments, always consumed through a
single exponentiation of log-Gamma differences.  That usage pattern makes
the principal-branch ambiguity of ``log_gamma`` on the left half-plane
harmless (2*pi*i*k offsets cancel under ``exp``), but it does demand

* ~1e-13 relative accuracy on the right half-plane,
* exact conjugate symmetry ``log_gamma(conj(z)) == conj(log_gamma(z))``,
* loud failure near the poles at the non-positive integers.

The evaluation is ``scipy.special.gammaln`` on the positive real axis: it
is correctly rounded to about one ulp there, which the complex routine is not
(1.4e-15 off at z = 1/2), and it costs about a tenth as much per point.
``scipy.special.loggamma`` (principal branch, conjugate symmetric) covers
the entries off that axis, and where at least 1/64 of an array's entries
are positive real it runs on the others only, so a real-axis scan pays for
no complex evaluation of them.  Raw scipy returns NaN on a pole, so each
public function masks its argument for poles exactly once: ``log_gamma``
turns a pole into ``PoleError``, and ``log_rgamma`` (the log of 1/Gamma,
which is entire) returns exactly -inf there.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln, loggamma

from .errors import PoleError

__all__ = ["log_gamma", "log_rgamma", "POLE_TOL"]

# Distance from a non-positive integer below which evaluation is refused.
POLE_TOL = 1e-12


def _near_pole(z):
    """Mask of entries within POLE_TOL of a Gamma pole (a non-positive integer)."""
    z = np.asarray(z)
    nearest = np.rint(z.real)
    return (nearest <= 0.0) & (np.abs(z.real - nearest) < POLE_TOL) & (np.abs(z.imag) < POLE_TOL)


def _check_poles(z):
    on_pole = _near_pole(z)
    if on_pole.any():
        bad = np.asarray(z)[on_pole] if np.ndim(z) else z
        raise PoleError(f"log_gamma argument within {POLE_TOL:g} of a non-positive integer: {bad}")


def _log_gamma_core(z_arr):
    """Unguarded evaluation for a complex128 array off the poles: ``gammaln``
    on the positive real entries, complex ``loggamma`` on the others.

    Where at least 1/64 of the entries are positive real (a real-axis scan),
    the others are gathered for ``loggamma`` and scattered back, each move
    costing about an 80th of a ``loggamma`` point.  Below that share (one
    zero-frequency bin per row of a Green multiplier), ``loggamma`` runs on
    the whole array and the real entries are overwritten.  The ufunc
    ``where=``/``out=`` arguments would save the copies, but ``loggamma(z,
    out=..., where=mask)`` has aborted the interpreter with heap corruption
    (scipy 1.17.1, numpy 2.4.6)."""
    real = (z_arr.imag == 0.0) & (z_arr.real > 0.0)
    if z_arr.ndim == 0:
        return np.complex128(gammaln(z_arr.real)) if real else loggamma(z_arr)
    count = np.count_nonzero(real)
    if 64 * count < real.size:
        out = loggamma(z_arr)
    else:
        out = np.empty(z_arr.shape, dtype=np.complex128)
        off = ~real
        out[off] = loggamma(z_arr[off])
    if count:
        out[real] = gammaln(z_arr.real[real])
    return out


def log_gamma(z):
    """Principal-branch log Gamma(z) for complex scalar or array input.

    Raises PoleError if any entry sits within POLE_TOL of a non-positive
    integer.  Entries on the positive real axis are evaluated as the real
    log Gamma.
    """
    z_arr = np.asarray(z, dtype=np.complex128)
    _check_poles(z_arr)
    return _log_gamma_core(z_arr)


def log_rgamma(z):
    """log(1/Gamma(z)) = -log_gamma(z) for complex scalar or array input,
    exactly -inf on the entries within POLE_TOL of a non-positive integer
    (the zeros of 1/Gamma)."""
    z_arr = np.asarray(z, dtype=np.complex128)
    on_pole = _near_pole(z_arr)
    if not on_pole.any():  # the usual case, without the masked copies below
        return -_log_gamma_core(z_arr)
    out = np.full(z_arr.shape, -np.inf, dtype=np.complex128)
    out[~on_pole] = -_log_gamma_core(z_arr[~on_pole])
    return out[()] if z_arr.ndim == 0 else out
