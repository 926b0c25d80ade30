"""Per-mode Green operators and homogeneous bases on the line.

The linearized per-mode operator acts as the Fourier multiplier
Theta_m(xi) - kappa.  Everything here is built on one representation
trick: a LineFunction stores bounded sample values w together with an
envelope rate rho, and represents f(s) = w(s) * exp(rho * s).  In this
representation the operator acts on the bounded part through the shifted
multiplier Theta_m(xi - i*rho) - kappa, which is the discrete form of
moving the inversion contour into a horizontal strip.  Growing or
oscillating exponentials then stay exactly band-limited (w is a constant
or a cosine), so homogeneous solutions are annihilated to roundoff
instead of drowning in periodization error.

green_solve realizes the particular-solution kernels: the contour is
shifted by a rate beta chosen inside the indicial gap dictated by the
declared decay profile of the right-hand side (beta = 0 when no real
zeros block the axis), the shifted multiplier is divided out, and the
shift is returned as the output envelope.  Mode 0 always needs a shift:
its first indicial pair sits on the axis and produces the half-line
oscillatory tail sin(tau_0 s) on the left, with coefficient
2/|Theta_0'(tau_0)|.

The 16 most recently used multipliers are kept and shared: a round trip
apply_L0(green_solve(h)) needs Theta_m(xi - i*rate) - kappa on the same
half-spectrum bins at the same rate (the solve's output carries rate
-beta), and the symbol continuation is most of the cost of either half.
On the real contour (rate 0, the solve at beta = 0) the multiplier is a row
of the shared `theta_table` less kappa; a shifted contour runs the
continuation once and stays cached, so warm round trips on a handful of
contours (mode 0's shifted ones among them) evaluate no log-Gamma.  The
cache holds at most 16 (N/2 + 1)-point arrays, 0.5 MiB of complex128 at
N = 4096.  Only the arrays are kept; every check on them runs on each call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AliasWarning, ResonanceError, TailMismatch, ValidationError
from .indicial import RootCatalog, root_catalog
from .symbol import ModeSpec, constants, frequencies, theta_analytic, theta_table

__all__ = [
    "LineFunction",
    "DecayProfile",
    "apply_L0",
    "green_solve",
    "homogeneous_basis",
    "homogeneous_columns",
    "synthesize_kernel",
    "fit_tail_rate",
]


@dataclass
class LineFunction:
    """Samples on a uniform grid s0 + k*ds, representing values * exp(rate*s)."""

    s0: float
    ds: float
    N: int
    values: np.ndarray
    mode: int = 0
    envelope_rate: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.N < 16:
            raise ValidationError(f"need N >= 16 samples, got {self.N}")
        if not np.isfinite(self.s0):
            raise ValidationError(f"grid start must be finite, got {self.s0}")
        if not 0 < self.ds < np.inf:
            raise ValidationError(f"grid step must be positive and finite, got {self.ds}")
        if len(self.values) != self.N:
            raise ValidationError(f"{len(self.values)} values for N = {self.N}")
        if np.iscomplexobj(self.values):
            raise ValidationError("samples must be real")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("non-finite samples")

    def grid(self) -> np.ndarray:
        return self.s0 + self.ds * np.arange(self.N)

    @property
    def window_length(self) -> float:
        return self.N * self.ds

    def materialize(self) -> np.ndarray:
        if self.envelope_rate == 0.0:
            return np.asarray(self.values)
        return self.values * np.exp(self.envelope_rate * self.grid())

    @classmethod
    def from_callable(cls, fn, s0: float, s1: float, N: int, mode: int = 0):
        ds = (s1 - s0) / N
        s = s0 + ds * np.arange(N)
        return cls(s0=s0, ds=ds, N=N, values=fn(s), mode=mode)


@dataclass(frozen=True)
class DecayProfile:
    """Declared decay rate of the right-hand side: |h| = O(e^{-delta s}) as
    s -> +inf.  The left tail is taken to be bounded; no rate is declared
    for it and none is checked."""

    delta: float

    def __post_init__(self):
        if not np.isfinite(self.delta):
            raise ValidationError("decay rate must be finite")


@lru_cache(maxsize=16)
def _multiplier(spec: ModeSpec, N: int, ds: float, rate: float) -> np.ndarray:
    """Read-only shifted multiplier Theta_m(xi - i*rate) - kappa on
    `frequencies(N, ds)`.

    The representation f = w * e^{rate s} turns the multiplier argument into
    xi - i*rate (contour shifted to the envelope's strip).  On the real
    contour (rate 0.0 or -0.0) it is row m of the shared
    `theta_table(n, gamma, m, N, ds)` less kappa, a float64 array.  A
    shifted contour runs the continuation theta_analytic, a complex128
    array.  green_solve divides by it and apply_L0 on its output multiplies
    by it again, with the same key.  The 16 most recently used are kept, so
    a sweep over a few modes and contours (the 8 (m, delta) round trips of
    the green benchmark, mode 0's two shifted contours among them) stays
    warm; at N = 4096 that is at most 16 x 2,049 complex128 values, 0.5 MiB.
    A hit returns the array a miss built, so the outputs do not depend on
    the cache.  An exception (PoleError from the symbol) is never kept.
    """
    kappa = constants(spec.n, spec.gamma).kappa
    if rate == 0.0:
        out = theta_table(spec.n, spec.gamma, spec.m, N, ds)[spec.m] - kappa
    else:
        out = theta_analytic(spec, frequencies(N, ds) - 1j * rate) - kappa
    out.setflags(write=False)
    return out


def _alias_check(vhat: np.ndarray, N: int, ds: float, what: str) -> float:
    """Share of the spectral energy in the top frequency decade (0.0 for a
    zero spectrum); warns above 1%."""
    # vhat = rfft of N real samples: every bin but 0 and (N even) the last,
    # Nyquist one stands for a +-xi pair, so a pair's energy counts twice
    xi = frequencies(N, ds)
    k = int(np.searchsorted(xi, 0.1 * xi[-1]))  # the top decade, k >= 1
    nyq = abs(vhat[-1]) ** 2 if N % 2 == 0 else 0.0
    total = 2.0 * np.vdot(vhat, vhat).real - abs(vhat[0]) ** 2 - nyq
    if total == 0.0:
        return 0.0
    frac = (2.0 * np.vdot(vhat[k:], vhat[k:]).real - nyq) / total
    if frac > 0.01:
        warnings.warn(
            f"{what}: {100*frac:.2f}% of spectral energy in the top frequency decade; "
            "grid too coarse or window too short for this input",
            AliasWarning,
        )
    return frac


def apply_L0(spec: ModeSpec, v: LineFunction) -> LineFunction:
    """Linearized operator as a discrete Fourier multiplier on the bounded part."""
    if spec.m != v.mode:
        raise ValidationError(f"mode mismatch: spec m={spec.m}, samples m={v.mode}")
    vhat = np.fft.rfft(v.values)
    _alias_check(vhat, v.N, v.ds, "apply_L0")
    out = np.fft.irfft(_multiplier(spec, v.N, v.ds, v.envelope_rate) * vhat, v.N)
    return LineFunction(s0=v.s0, ds=v.ds, N=v.N, values=out, mode=v.mode,
                        envelope_rate=v.envelope_rate)


def _tail_points(v: LineFunction, side: str):
    """(s, log|v|) at the block maxima that fit_tail_rate fits, or None."""
    band, blocks = (0.45, 0.82), 8
    s = v.grid()
    y = np.abs(np.asarray(v.values))
    sup = y.max()
    if sup == 0.0:
        return None
    center = v.s0 + 0.5 * v.window_length
    half = 0.5 * v.window_length
    if side == "+":
        lo, hi = center + band[0] * half, center + band[1] * half
    else:
        lo, hi = center - band[1] * half, center - band[0] * half
    floor = 1e-12 * sup  # s increases, so the band and its blocks are index ranges
    if np.count_nonzero(y[np.searchsorted(s, lo):np.searchsorted(s, hi, "right")] > floor) < 8:
        return None
    cuts = np.searchsorted(s, np.linspace(lo, hi, blocks + 1)).tolist()
    ks = np.array([i + int(y[i:j].argmax()) for i, j in zip(cuts[:-1], cuts[1:]) if j > i],
                  dtype=np.intp)
    ks = ks[y[ks] > floor]
    if len(ks) < 3:
        return None
    return s[ks], np.log(y[ks])


def fit_tail_rate(v: LineFunction, side: str = "+") -> float | None:
    """Least-squares decay rate of log|v| block maxima on one tail.

    Returns the signed slope of log|v| vs s (negative = decay toward +inf);
    None when too little of the tail rises above the relative noise floor
    1e-12 * sup.  The tail is the band 0.45..0.82 of the half window on the
    given side, cut into 8 blocks.  The fit runs on the bounded envelope
    part (where the FFT noise floor is uniform) and the envelope rate is
    added back; block maxima make it stable for oscillatory tails.  The
    slope is the closed-form centred least-squares one, sum((x - mean x)
    (y - mean y)) / sum((x - mean x)^2), in Python floats on at most 8
    points: no Vandermonde matrix and no LAPACK call.
    """
    if side not in ("+", "-"):
        raise ValidationError(f"tail side must be '+' or '-', got {side!r}")
    points = _tail_points(v, side)
    if points is None:
        return None
    xs, ys = points[0].tolist(), points[1].tolist()
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    dx = [x - xm for x in xs]
    slope = sum(d * (y - ym) for d, y in zip(dx, ys)) / sum(d * d for d in dx)
    return slope + v.envelope_rate


_BETA_MARGIN = 1e-3  # least distance of a contour shift from any indicial exponent


def _sigma_ladder_past(spec: ModeSpec, delta: float) -> RootCatalog:
    j = 6
    while True:
        cat = root_catalog(spec, j)
        if cat.roots[-1].sigma > delta or j >= 30:
            if cat.roots[-1].sigma <= delta:
                raise ResonanceError(
                    f"rate {delta} beyond the tabulated indicial ladder"
                )
            return cat
        j += 6


def _select_beta(profile: DecayProfile, catalog: RootCatalog):
    """Contour shift for the declared profile, or 0 on the fast path.

    The shifted line must clear every indicial exponent below the declared
    +inf rate and stay below that rate.  It sits at a non-negative rate, so
    the shifted right-hand side, bounded at -inf, still decays at both ends.
    A rate within 0.02 of an exponent is refused first, so the shift clears
    the exponent below by at least 0.008 and the rate by at least 0.012.
    """
    delta = profile.delta
    if delta <= 0.0:
        raise ValidationError("declared +inf decay rate must be positive")
    sigmas = [r.sigma for r in catalog.roots]
    gap = min(abs(delta - sg) for sg in sigmas)
    if gap < 0.02:
        raise ResonanceError(
            f"declared rate {delta} within resonance margin of an indicial exponent"
        )
    below = [sg for sg in sigmas if sg < delta]
    if not below:
        return 0.0  # no axis zeros below the rate
    lo = max(below)
    # sit well inside the gap: distance to lo sets how fast the shifted
    # solution sheds its left tail (wrap control), distance to delta how fast
    # the shifted right side decays
    return lo + 0.4 * (delta - lo)


def _check_declared_tails(h: LineFunction, profile: DecayProfile):
    slope_r = fit_tail_rate(h, "+")
    if slope_r is not None and profile.delta > 0.1:
        if slope_r > -(0.8 * profile.delta - 0.05):
            raise TailMismatch(
                f"right tail slope {slope_r:.3f} too shallow for declared "
                f"decay {profile.delta}"
            )


def green_solve(spec: ModeSpec, h: LineFunction, profile: DecayProfile,
                beta: float | None = None) -> LineFunction:
    """Particular solution of the per-mode equation for a decaying right side.

    The output carries envelope rate -beta: its bounded part is exact under
    the shifted multiplier, so apply_L0(green_solve(h)) == h to roundoff.
    The right tail of h is checked against the declared rate first.  An
    explicit beta within 1e-3 of +-sigma of an indicial exponent raises
    ResonanceError.
    """
    kappa = constants(spec.n, spec.gamma).kappa
    if spec.m != h.mode:
        raise ValidationError(f"mode mismatch: spec m={spec.m}, rhs m={h.mode}")
    if h.envelope_rate != 0.0:
        raise ValidationError("right-hand side must be given in plain samples")
    _check_declared_tails(h, profile)
    if beta is None:
        beta = _select_beta(profile, _sigma_ladder_past(spec, profile.delta))
    else:
        # the lattice can miss a root's tau, so the grid minimum below need not see it
        near = [r.sigma for r in _sigma_ladder_past(spec, abs(beta)).roots
                if abs(abs(beta) - r.sigma) < _BETA_MARGIN]
        if near:
            raise ResonanceError(f"contour {beta} within {_BETA_MARGIN} of the indicial "
                                 f"exponent +/-{near[0]}")

    if beta == 0.0:
        g = np.asarray(h.values)
    else:
        g = h.values * np.exp(beta * h.grid())
        ends = max(abs(g[0]), abs(g[-1]))
        if ends > 1e-3 * np.abs(g).max():
            raise TailMismatch(
                f"shifted right side not negligible at window ends "
                f"({ends:.2e} vs sup {np.abs(g).max():.2e}); widen the window "
                "or declare slower rates"
            )
    denom = _multiplier(spec, h.N, h.ds, -beta)
    dmin = np.abs(denom).min()
    if dmin < 1e-7 * kappa:
        raise ResonanceError(
            f"shifted multiplier nearly vanishes (min {dmin:.2e}); "
            f"contour {beta} too close to an indicial exponent"
        )
    ghat = np.fft.rfft(g)
    _alias_check(ghat, h.N, h.ds, "green_solve")
    w = np.fft.irfft(ghat / denom, h.N)
    return LineFunction(s0=h.s0, ds=h.ds, N=h.N, values=w, mode=h.mode,
                        envelope_rate=-beta)


def _resonant_window(tau: float):
    """Symmetric window of 4096 points, half-length near 30, whose length is
    an exact period multiple of cos(tau s)."""
    target_half, N = 30.0, 4096
    if tau <= 0.0:
        return -target_half, 2.0 * target_half / N, N
    period = 2.0 * np.pi / tau
    L = period * max(1, round(2.0 * target_half / period))
    return -L / 2.0, L / N, N


def _homogeneous_pair(root, s):
    """The two homogeneous solutions of one root at the points s, each as
    (profile, rate) for profile(s) * e^{rate s}: sin(tau s) and cos(tau s)
    for a root on the axis (sigma = 0), cos(tau s) under e^{-sigma s} and
    e^{+sigma s} for any other root."""
    if root.sigma == 0.0:
        return [(np.sin(root.tau * s), 0.0), (np.cos(root.tau * s), 0.0)]
    return [(np.cos(root.tau * s), sign * root.sigma) for sign in (-1.0, +1.0)]


def homogeneous_basis(spec: ModeSpec) -> list:
    """Sampled homogeneous solutions, one pair for each of the first three
    indicial exponents.

    Decaying/growing pairs are carried as envelopes over cosine profiles, so
    each element is annihilated by apply_L0 to roundoff rather than to
    periodization error.  Oscillatory profiles get their own window, resized
    to an exact period multiple.
    """
    out = []
    for root in root_catalog(spec, 3).roots[:3]:
        s0, ds, n_s = _resonant_window(root.tau)
        s = s0 + ds * np.arange(n_s)
        out += [LineFunction(s0, ds, n_s, w, spec.m, rate)
                for w, rate in _homogeneous_pair(root, s)]
    return out


def homogeneous_columns(catalog: RootCatalog, s) -> np.ndarray:
    """Homogeneous solutions at the points s, one sup-normalised column per
    solution of each root's pair."""
    A = np.stack([w if rate == 0.0 else np.exp(rate * s) * w
                  for root in catalog.roots for w, rate in _homogeneous_pair(root, s)],
                 axis=1)
    return A / np.abs(A).max(axis=0)


def synthesize_kernel(spec: ModeSpec, s):
    """Even Green kernel from the indicial residue series, with truncation estimate.

    The series sums the first seven decaying exponents, from the zeros above
    the contour, at |s|: the kernel is even, and the series from the zeros
    below at s < 0 is the mirror of this one, bit for bit.
    Returns (values, trunc) where trunc(s) bounds the first omitted term.
    """
    j_max = 6
    t = np.abs(np.asarray(s, dtype=float))
    catalog = root_catalog(spec, j_max + 2)
    decaying = [r for r in catalog.roots if r.sigma > 0.0]
    if len(decaying) <= j_max + 1:
        catalog = root_catalog(spec, j_max + 4)
        decaying = [r for r in catalog.roots if r.sigma > 0.0]
    # Theta_m rises with |xi| (see indicial._axis_roots_imag), so at most one
    # root has sigma = 0 and a decaying root is always left past those summed
    used, nxt = decaying[: j_max + 1], decaying[j_max + 1]

    vals = np.zeros_like(t)
    for r in used:
        w = 0.5 if r.tau == 0.0 else 1.0
        # zeros above the contour: zeta = +-tau + i sigma, derivative conj(dtheta)
        vals += w * (-2.0) * np.exp(-r.sigma * t) * \
            np.imag(np.exp(1j * r.tau * t) / np.conj(r.dtheta))
    trunc = (2.0 / abs(nxt.dtheta)) * np.exp(-nxt.sigma * t)
    return vals, trunc
