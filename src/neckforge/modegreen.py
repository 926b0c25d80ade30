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

The last shifted multiplier built is kept and shared: a round trip
apply_L0(green_solve(h)) needs Theta_m(xi - i*rate) - kappa on the same
half-spectrum bins at the same rate (the solve's output carries rate
-beta), and the symbol continuation is most of the cost of either half.
Only the array is kept; every check on it runs on each call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (
    AliasWarning,
    ResonanceError,
    TailMismatch,
    ValidationError,
    WindowTooShort,
)
from .indicial import RootCatalog, root_catalog
from .symbol import ModeSpec, constants, frequencies, theta_analytic

__all__ = [
    "LineFunction",
    "DecayProfile",
    "GrowthVerdict",
    "apply_L0",
    "green_solve",
    "homogeneous_basis",
    "homogeneous_columns",
    "classify_growth",
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
        if not self.ds > 0:
            raise ValidationError(f"grid step must be positive, got {self.ds}")
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


@lru_cache(maxsize=1)
def _multiplier(spec: ModeSpec, N: int, ds: float, rate: float) -> np.ndarray:
    """Read-only shifted multiplier Theta_m(xi - i*rate) - kappa on
    `frequencies(N, ds)`.

    The representation f = w * e^{rate s} turns the multiplier argument into
    xi - i*rate (contour shifted to the envelope's strip).  The last one
    built is kept: green_solve divides by it and apply_L0 on its output
    multiplies by it again, with the same key.  One entry is enough because
    every reuse in the acceptance suite is the very next call (an apply
    after its solve, or criterion 5's same-contour solves).  An exception
    (PoleError from the symbol) is never kept, and rates 0.0 and -0.0 give
    the same contour bit for bit.
    """
    kappa = constants(spec.n, spec.gamma).kappa
    out = theta_analytic(spec, frequencies(N, ds) - 1j * rate) - kappa
    out.setflags(write=False)
    return out


def _alias_check(vhat: np.ndarray, N: int, ds: float, what: str):
    # vhat = rfft of N real samples: bins 1..(N-1)//2 stand for a +-xi pair
    xi = frequencies(N, ds)
    power = np.abs(vhat) ** 2
    power[1:(N + 1) // 2] *= 2.0
    total = power.sum()
    if total == 0.0:
        return
    frac = power[xi >= 0.1 * xi[-1]].sum() / total
    if frac > 0.01:
        warnings.warn(
            f"{what}: {100*frac:.2f}% of spectral energy in the top frequency decade; "
            "grid too coarse or window too short for this input",
            AliasWarning,
        )


def apply_L0(spec: ModeSpec, v: LineFunction) -> LineFunction:
    """Linearized operator as a discrete Fourier multiplier on the bounded part."""
    if spec.m != v.mode:
        raise ValidationError(f"mode mismatch: spec m={spec.m}, samples m={v.mode}")
    vhat = np.fft.rfft(v.values)
    _alias_check(vhat, v.N, v.ds, "apply_L0")
    out = np.fft.irfft(_multiplier(spec, v.N, v.ds, v.envelope_rate) * vhat, v.N)
    return replace(v, values=out)


def fit_tail_rate(v: LineFunction, side: str = "+") -> float | None:
    """Least-squares decay rate of log|v| block maxima on one tail.

    Returns the signed slope of log|v| vs s (negative = decay toward +inf);
    None when too little of the tail rises above the relative noise floor
    1e-12 * sup.  The tail is the band 0.45..0.82 of the half window on the
    given side, cut into 8 blocks.  The fit runs on the bounded envelope
    part (where the FFT noise floor is uniform) and the envelope rate is
    added back; block maxima make it stable for oscillatory tails.
    """
    if side not in ("+", "-"):
        raise ValidationError(f"tail side must be '+' or '-', got {side!r}")
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
    cuts = np.searchsorted(s, np.linspace(lo, hi, blocks + 1))
    xs, ys = [], []
    for i, j in zip(cuts[:-1], cuts[1:]):
        if j > i:
            k = i + np.argmax(y[i:j])
            if y[k] > floor:
                xs.append(s[k])
                ys.append(np.log(y[k]))
    if len(xs) < 3:
        return None
    return float(np.polyfit(np.array(xs), np.array(ys), 1)[0]) + v.envelope_rate


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
    +inf rate and stay below both that rate and the next exponent.  It sits
    at a non-negative rate, so the shifted right-hand side, bounded at -inf,
    still decays at both ends.
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
    above = [sg for sg in sigmas if sg > delta]
    hi_next = above[0] if above else delta + 10.0
    if not below:
        return 0.0  # no axis zeros below the rate
    lo = max(below)
    hi = min(delta, hi_next)
    if hi - lo <= 2e-3:
        raise ResonanceError(
            f"no admissible contour: needed a shift in ({lo}, {hi}) "
            f"for profile {profile}"
        )
    # sit well inside the gap: distance to lo sets how fast the shifted
    # solution sheds its left tail (wrap control), distance to hi how fast
    # the shifted right side decays
    beta = lo + 0.4 * (hi - lo)
    return min(max(beta, lo + _BETA_MARGIN), hi - _BETA_MARGIN)


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

    s = h.grid()
    g = h.values * np.exp(beta * s) if beta != 0.0 else np.asarray(h.values)
    if beta != 0.0:
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


@dataclass
class GrowthVerdict:
    verdict: str  # "trivial" | "non-admissible" | "liouville-violation"
    sup: float
    coefficients: np.ndarray | None = None


def classify_growth(v: LineFunction, mu: float, spec: ModeSpec,
                    catalog: RootCatalog) -> GrowthVerdict:
    """Growth-class test for numerically annihilated line functions.

    Checks whether |v| fits under C * e^{mu |s|} with mu < 0 (C anchored to
    the central quarter).  A function in the numerical kernel that obeys the
    bound must be trivial (sup at most 1e-6).  A non-trivial one is
    "non-admissible" when it breaks the bound and a "liouville-violation"
    when it obeys it; either way its least-squares coordinates in the
    homogeneous basis are reported.
    """
    tol = 1e-6
    bar = -(spec.n - 1) / 2.0
    if not (bar < mu < 0.0):
        raise ValidationError(f"weight rate {mu} outside ({bar}, 0)")
    first_sigma = catalog.roots[0].sigma
    if abs(mu + first_sigma) < 1e-6:
        raise ValidationError(f"weight rate {mu} resonates with the first exponent")

    positive = [r.sigma for r in catalog.roots if r.sigma > 0]
    slow = min(positive) if positive else 1.0
    need = 4.0 / slow
    if v.mode == 0 and catalog.roots[0].tau > 0:
        need = max(need, 2.0 * 2.0 * np.pi / catalog.roots[0].tau)
    if v.window_length < need:
        raise WindowTooShort(
            f"window {v.window_length:.1f} shorter than {need:.1f} required "
            "to resolve the slowest exponent"
        )

    y = np.abs(v.materialize())
    sup = float(y.max())
    if sup <= tol:
        return GrowthVerdict("trivial", sup)

    k = int(0.25 * v.N)  # the central half of the window
    resid = float(np.abs(apply_L0(spec, v).materialize())[k: v.N - k].max())
    if resid > 1e-4 * sup:
        raise ValidationError(
            f"input not numerically annihilated: |L0 v| = {resid:.2e} vs sup {sup:.2e}"
        )

    s = v.grid()
    quarter = np.abs(s - (v.s0 + 0.5 * v.window_length)) <= 0.125 * v.window_length
    envelope = 10.0 * float(y[quarter].max()) * np.exp(mu * np.abs(s))
    ok = bool(np.all(y <= envelope + tol))

    # coordinates in the analytic homogeneous basis
    coef, *_ = np.linalg.lstsq(homogeneous_columns(catalog, s), v.materialize(), rcond=None)

    return GrowthVerdict("liouville-violation" if ok else "non-admissible", sup, coef)


def synthesize_kernel(spec: ModeSpec, s):
    """Even Green kernel from the indicial residue series, with truncation estimate.

    The series sums the first seven decaying exponents.  The two half-lines
    are synthesized independently: s > 0 from the zeros above the contour,
    s < 0 from the zeros below.  Agreement of the two branches under
    s -> -s is therefore a genuine check of the four-fold root symmetry and
    of the residue derivatives, not an identity of the construction.
    Returns (values, trunc) where trunc(s) bounds the first omitted term.
    """
    j_max = 6
    s = np.asarray(s, dtype=float)
    catalog = root_catalog(spec, j_max + 2)
    decaying = [r for r in catalog.roots if r.sigma > 0.0]
    if len(decaying) <= j_max + 1:
        catalog = root_catalog(spec, j_max + 4)
        decaying = [r for r in catalog.roots if r.sigma > 0.0]
    used, rest = decaying[: j_max + 1], decaying[j_max + 1:]

    vals = np.zeros_like(s)
    pos = s >= 0.0
    for r in used:
        w = 0.5 if r.tau == 0.0 else 1.0
        # zeros above the contour: zeta = +-tau + i sigma, derivative conj(dtheta)
        phase_p = np.exp(1j * r.tau * s[pos])
        vals[pos] += w * (-2.0) * np.exp(-r.sigma * s[pos]) * \
            np.imag(phase_p / np.conj(r.dtheta))
        # zeros below: zeta = +-tau - i sigma, derivative dtheta
        phase_m = np.exp(1j * r.tau * s[~pos])
        vals[~pos] += w * 2.0 * np.exp(r.sigma * s[~pos]) * \
            np.imag(phase_m / r.dtheta)
    if rest:
        nxt = rest[0]
        trunc = (2.0 / abs(nxt.dtheta)) * np.exp(-nxt.sigma * np.abs(s))
    else:
        trunc = np.full_like(s, np.nan)
    return vals, trunc
