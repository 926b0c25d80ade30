"""Nonlinear boundary-curvature solve on a periodic model neck.

The compact stand-in for the glued manifold is the periodic cylinder
(s in R/LZ) x S^{n-1} with zonal (rotation-invariant) data.  States hold
real per-mode samples values[m, k] on window(L, N_s), and every operator
takes and returns such samples.  The boundary operator P acts on mode m as
the half-spectrum multiplier Theta_m(xi_k), xi_k = 2*pi*k/L (`theta_table`
through rfft/irfft), and the curvature map is

    Q(f) = f^{-N} * (P f),    N = (n+1)/(n-1),

evaluated by collocation: map to a (Gauss node) x (s grid) product grid,
combine pointwise, project back.  The iteration solves P f = c f^N (for
f > 0, Q(f) = c) on the residual R(f) = P f - c f^N, whose derivative
DR(f) = P - kappa f^{N-1}, kappa = N c, is symmetric at every f.  At f = 1
it is the frozen multiplier Theta_m(xi_k) - kappa, equal to DQ(1), and its
inverse is the model Green operator G; the period is chosen so no lattice
frequency hits the mode-0 crossing of kappa (the oscillatory indicial pair
on the line reappears on a periodic domain as a near-resonant grid
frequency).  G is both the fixed-point step v <- v - G R(1+v) and the
preconditioner of the Newton steps on DR(f), solved by a real lgmres.
scipy.sparse.linalg, which holds lgmres, is imported on the first Newton
step, so importing this module or iterating by fixed point does not load
scipy.sparse; scipy.linalg is imported by the invertibility study, so
importing this module does not load it either.

Per-mode work inside a step is vectorized; steps themselves are
sequential and pure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import eval_chebyt, eval_gegenbauer, roots_jacobi

from .errors import (Diverged, NonPositiveConformalFactor,
                     NumericalError, ResonanceError, ValidationError)
from .indicial import first_root
from .neck import NeckConfig, curvature, glued_u, weight as neck_weight, window
from .symbol import ModeSpec, constants, theta_table

__all__ = [
    "PeriodicCylinderState",
    "NewtonReport",
    "nonresonant_window",
    "apply_Q",
    "newton_solve",
    "state_norm",
    "quadratic_remainder",
    "uniform_invertibility_study",
]

RESONANCE_MARGIN = 1e-3


# ---------------------------------------------------------------------------
# zonal collocation


@lru_cache(maxsize=64)
def _zonal(n: int, m_max: int):
    """Discrete zonal transform on S^{n-1} as the pair (to_grid, to_modes).

    to_grid maps per-mode samples of shape (m_max+1, N) to values of shape
    (n_nodes, N) at the Gauss nodes of the cross-section measure
    (1-x^2)^{(n-3)/2} dx, and to_modes projects back.
    The degree-m zonal rows are normalized so the constant function is
    exactly mode 0 with coefficient 1, and the Gauss quadrature makes the
    projection exact on products of two truncated expansions.
    """
    J = 2 * (m_max + 1)
    a = (n - 3) / 2.0
    x, w = roots_jacobi(J, a, a)
    rows = np.empty((m_max + 1, J))
    for m in range(m_max + 1):
        if n == 2:
            rows[m] = eval_chebyt(m, x)
        else:
            rows[m] = eval_gegenbauer(m, (n - 2) / 2.0, x)
    # normalize to <E_m, E_m>_w = total mass, so E_0 == 1
    mass = float(np.sum(w))
    norms = np.sqrt(np.sum(w * rows * rows, axis=1) / mass)
    rows /= norms[:, None]
    proj = rows * w[None, :] / mass
    rows.flags.writeable = proj.flags.writeable = False
    return partial(np.matmul, rows.T), partial(np.matmul, proj)


# ---------------------------------------------------------------------------
# state


def _check_m_max(m_max: int):
    if m_max < 0:
        raise ValidationError(f"m_max must be nonnegative, got {m_max}")


def _mode0_gap(n: int, L: float, N_s: int) -> float:
    """Distance from kappa of the mode-0 multiplier on the period-L lattice."""
    return float(np.min(np.abs(theta_table(n, 0.5, 0, N_s, L / N_s)[0] - constants(n).kappa)))


def nonresonant_window(n: int, L_min: float, N_s: int) -> float:
    """First length L_min * (1 + 0.003 j), j < 200, whose N_s-point frequency
    lattice keeps the mode-0 multiplier more than RESONANCE_MARGIN from
    kappa: the mode-0 crossing of kappa is the oscillatory indicial pair,
    and a lattice frequency on it makes the linearization singular."""
    for j in range(200):
        L = L_min * (1.0 + 0.003 * j)
        if _mode0_gap(n, L, N_s) > RESONANCE_MARGIN:
            return L
    raise ResonanceError("could not find a non-resonant window length")


@dataclass(frozen=True)
class PeriodicCylinderState:
    """Zonal conformal factor f = 1 + v on the periodic cylinder, stored as
    real per-mode samples values[m, k] on window(L, N_s)."""

    n: int
    L: float
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2 or values.dtype.kind not in "fiu":
            raise ValidationError(f"need a real 2-D table of per-mode samples, got "
                                  f"{values.ndim}-D {values.dtype}")
        object.__setattr__(self, "values", values.astype(float, copy=False))
        _check_m_max(self.m_max)
        if not 0 < self.L < np.inf:
            raise ValidationError(f"period must be positive and finite, got {self.L}")
        if self.N_s < 8 or self.N_s % 2:
            raise ValidationError("need an even sample count >= 8")
        if _mode0_gap(self.n, self.L, self.N_s) <= RESONANCE_MARGIN:
            raise ResonanceError(
                f"period L={self.L:.6g} puts a lattice frequency on the mode-0 "
                "crossing; pick another length (nonresonant_window)")

    @property
    def m_max(self) -> int:
        return self.values.shape[0] - 1

    @property
    def N_s(self) -> int:
        return self.values.shape[1]

    @classmethod
    def ones(cls, n: int, m_max: int = 8, N_s: int = 256) -> "PeriodicCylinderState":
        """The constant factor 1, on the first non-resonant period from an
        irrational multiple of the mode-0 oscillation period 2*pi/tau_0."""
        _check_m_max(m_max)
        tau0 = first_root(ModeSpec(n=n, gamma=0.5, m=0)).tau
        L = nonresonant_window(n, 2.0 * np.pi / tau0 * (1.0 + 1.0 / np.sqrt(2.0)), N_s)
        values = np.zeros((m_max + 1, N_s))
        values[0] = 1.0
        return cls(n=n, L=L, values=values)

    @property
    def f_hat(self) -> np.ndarray:
        """The full numpy-fft coefficient table f_hat[m, k] of the samples."""
        return np.fft.fft(self.values, axis=1)

    def with_table(self, f_hat: np.ndarray) -> "PeriodicCylinderState":
        """The state whose full coefficient table is f_hat (Hermitian, so the
        samples are real)."""
        if np.shape(f_hat) != self.values.shape:
            raise ValidationError(f"coefficient table shape {np.shape(f_hat)} is not "
                                  f"{self.values.shape}")
        scale = np.max(np.abs(f_hat)) or 1.0
        flipped = np.conj(f_hat[:, (-np.arange(self.N_s)) % self.N_s])
        if np.max(np.abs(f_hat - flipped)) > 1e-8 * scale:
            raise ValidationError("coefficients are not Hermitian-symmetric "
                                  "(state must be real-valued)")
        return replace(self, values=np.real(np.fft.ifft(f_hat, axis=1)))


# ---------------------------------------------------------------------------
# operators


def _fourier(mult: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-mode samples v through the half-spectrum multiplier mult."""
    return np.fft.irfft(mult * np.fft.rfft(v, axis=1), v.shape[1], axis=1)


def _theta(state: PeriodicCylinderState) -> np.ndarray:
    return theta_table(state.n, 0.5, state.m_max, state.N_s, state.L / state.N_s)


def _factor_grid(state: PeriodicCylinderState) -> np.ndarray:
    """The factor on the collocation grid, refused unless it is positive."""
    f_grid = _zonal(state.n, state.m_max)[0](state.values)
    if np.min(f_grid) <= 0.0:
        raise NonPositiveConformalFactor(
            f"factor reaches {np.min(f_grid):.3g} on the collocation grid")
    return f_grid


def apply_Q(state: PeriodicCylinderState) -> np.ndarray:
    """Curvature map Q(f) = f^{-(n+1)/(n-1)} (P f) as per-mode samples."""
    to_grid, to_modes = _zonal(state.n, state.m_max)
    Pf_grid = to_grid(_fourier(_theta(state), state.values))
    return to_modes(curvature(state.n, _factor_grid(state), Pf_grid))


def _green_multiplier(state: PeriodicCylinderState) -> np.ndarray:
    """1 / (Theta_m - kappa), raising ResonanceError where it is unbounded."""
    denom = _theta(state) - constants(state.n).kappa
    bad = np.abs(denom) <= RESONANCE_MARGIN
    if np.any(bad):
        m_bad, k_bad = np.argwhere(bad)[0]
        raise ResonanceError(
            f"multiplier vanishes at mode {m_bad}, frequency index {k_bad}")
    return 1.0 / denom


def _jacobian_matvec(state: PeriodicCylinderState):
    """Exact derivative of _residual at the given state, as a matvec on
    per-mode samples: DR(f) w = P w - kappa f^{N-1} w, symmetric at every f
    (P is a real even multiplier, and to_modes carries the Gauss weights)."""
    mults = _theta(state)
    to_grid, to_modes = _zonal(state.n, state.m_max)
    coef = constants(state.n).kappa * to_grid(state.values) ** (2.0 / (state.n - 1))

    def matvec(w: np.ndarray) -> np.ndarray:
        return _fourier(mults, w) - to_modes(coef * to_grid(w))

    return matvec


# ---------------------------------------------------------------------------
# norms and reports


def state_norm(state: PeriodicCylinderState, v: np.ndarray) -> float:
    """Sup norm of per-mode samples on the collocation grid (unweighted:
    the periodic model has no neck funnel)."""
    to_grid, _ = _zonal(state.n, state.m_max)
    return float(np.max(np.abs(to_grid(v))))


@dataclass(frozen=True)
class NewtonReport:
    iterations: int
    residual_history: tuple
    converged: bool
    final_f: PeriodicCylinderState
    method: str
    notes: str = ""


def _residual(state: PeriodicCylinderState) -> np.ndarray:
    """R(f) = P f - c f^N = f^N (Q(f) - c), N = (n+1)/(n-1)."""
    _, to_modes = _zonal(state.n, state.m_max)
    c_fN = constants(state.n).c * _factor_grid(state) ** ((state.n + 1) / (state.n - 1))
    return _fourier(_theta(state), state.values) - to_modes(c_fN)


def newton_solve(state0: PeriodicCylinderState, tol: float = 1e-11, max_iter: int = 40,
                 method: str = "fixed-point") -> NewtonReport:
    """Drive R(f) = P f - c f^N to zero (for f > 0, Q(f) = c) from a nearby
    start; residual_history holds the sup norms of R.

    fixed-point: the frozen-inverse update v <- v - G R(f), the form whose
    contraction the error analysis provides near f = 1 (intended basin:
    initial perturbation sup-norm <~ 0.05).  newton: steps on the symmetric
    DR, preconditioned by G, for quadratic tails.  Three consecutive
    residual increases raise Diverged carrying the partial report.

    P amplifies the samples' rounding by up to its Nyquist multiplier, so
    the residual floor grows like 1e-16 * N_s: about 3e-14 at N_s = 256,
    2e-13 at 1024 and 9e-13 at 4096.  A tol below it cannot be met.
    """
    if method not in ("fixed-point", "newton"):
        raise ValidationError(f"unknown method {method!r}")
    if not tol > 0.0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    state = state0
    history = []
    rising = 0
    for it in range(max_iter + 1):
        res = _residual(state)
        rnorm = state_norm(state, res)
        history.append(rnorm)
        if rnorm <= tol:
            return NewtonReport(iterations=it, residual_history=tuple(history),
                                converged=True, final_f=state, method=method)
        if len(history) >= 2 and rnorm >= history[-2]:
            rising += 1
            if rising >= 3:
                report = NewtonReport(iterations=it, residual_history=tuple(history),
                                      converged=False, final_f=state, method=method,
                                      notes="residual rose 3 consecutive steps")
                raise Diverged("iteration diverged", report=report)
        else:
            rising = 0
        if it == max_iter:
            break
        if method == "fixed-point":
            step = _fourier(_green_multiplier(state), res)
        else:
            step = _newton_step(state, res)
        state = replace(state, values=state.values - step)
    return NewtonReport(iterations=max_iter, residual_history=tuple(history),
                        converged=False, final_f=state, method=method,
                        notes="max_iter reached")


def _newton_step(state: PeriodicCylinderState, res: np.ndarray) -> np.ndarray:
    from scipy.sparse.linalg import LinearOperator, lgmres  # here: see the module docstring

    matvec, green, shape = _jacobian_matvec(state), _green_multiplier(state), res.shape
    A = LinearOperator((res.size,) * 2, dtype=float,
                       matvec=lambda x: matvec(x.reshape(shape)).ravel())
    M = LinearOperator((res.size,) * 2, dtype=float,
                       matvec=lambda x: _fourier(green, x.reshape(shape)).ravel())
    # the next residual is C |res|^2 + rtol |res|, so 1e-11 keeps the tail
    # quadratic and stays above the Krylov floor (4e-13 at N_s = 4096)
    sol, info = lgmres(A, res.ravel(), M=M, rtol=1e-11, atol=0.0, maxiter=20)
    if info != 0:
        raise ResonanceError("lgmres did not reach rtol 1e-11 within 20 restart cycles; "
                             "the linearization may be near-singular")
    return sol.reshape(shape)


def quadratic_remainder(state1: PeriodicCylinderState, v: np.ndarray) -> float:
    """||Q(1+v) - c - Lv|| / ||v||^2 — the constant whose boundedness makes
    the remainder genuinely quadratic.  L = DQ(1) = DR(1), since Q(1) = c."""
    res = apply_Q(replace(state1, values=state1.values + v))
    res[0] -= constants(state1.n).c
    rem = res - _jacobian_matvec(state1)(v)
    vn = state_norm(state1, v)
    if vn == 0.0:
        raise ValidationError("need a nonzero direction")
    return state_norm(state1, rem) / vn**2


# ---------------------------------------------------------------------------
# uniform invertibility across the glueing sweep


def uniform_invertibility_study(n: int, eps_list, mu: float, m_max: int = 3,
                                N_s: int = 512) -> dict:
    """Smallest weighted singular value of the linearization at the glued
    factor, swept over epsilon on one fixed window.

    The window is the smallest epsilon's NeckConfig window, moved off
    resonance by `nonresonant_window` and shared by the whole sweep so
    singular values are comparable (a per-epsilon window would move the
    frequency lattice and masquerade as an epsilon trend).  The report
    carries that window L, per-epsilon values and the log-log slope;
    boundedness away from zero — not monotonicity — is the claim under test.

    Each mode's weight-conjugated matrix A commutes with the reflection
    s -> -s (grid index k -> -k mod N_s): the glued factor, the cosh neck
    weight and the symbol kernel are all even.  So A splits into an even
    block on the indices 0..N_s/2 and an odd block on the paired indices
    1..N_s/2-1 (the Toeplitz-plus-Hankel fold of its circulant), and A^{-1}
    is read from the two block inverses; a factor that is not even raises
    NumericalError.  With DQ(u) = a P + b, a = u^{-N} > 0, b = -N u^{-N-1} P u,
    the even block is diag(a) S C and the odd one diag(a) S, S being the
    symmetric fold plus diag(b/(a c)) (c = 1/2 at the mirror points 0 and
    N_s/2, else 1).  Each fold is written straight into the buffer dsytrf
    factors, S is inverted once by LDL^T, a singular one raising
    ResonanceError, and the weight w enters by one symmetric matvec (dsymv)
    on the lower triangle dsytri writes: |A_w^{-1}| has row sums
    (w/c)_i sum_j |S^{-1}|_ij / (a w)_j.  Reported per mode is the smallest
    operator singular value 1/||A^{-1}|| between the weighted sup-norm spaces
    (max row sum), the norm the inversion theory runs on.
    """
    from scipy.linalg import blas, lapack

    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise ValidationError("need at least one epsilon")
    _check_m_max(m_max)
    if not -(n - 1) / 2 < mu < 0:
        raise ValidationError(f"mu={mu} outside the inversion range for n={n}")
    if N_s < 256:
        raise ValidationError("need at least 256 neck samples")
    if N_s % 2:
        raise ValidationError(f"need an even number of neck samples, got {N_s}")
    L = nonresonant_window(n, NeckConfig(epsilon=min(eps_list)).L, N_s)
    s = window(L, N_s)
    h = N_s // 2
    mirror = (-np.arange(N_s)) % N_s
    kern = np.fft.irfft(theta_table(n, 0.5, m_max, N_s, L / N_s), N_s, axis=1)
    # fold each circulant kern[(i - j) % N_s] onto the half window: an even
    # vector is its values at 0..h, an odd one its values at 1..h-1, and the
    # pair j, N_s - j enters as kern[i - j] +- kern[i + j]
    t = np.arange(N_s + 1)
    lag = sliding_window_view(kern[:, (h - t) % N_s], h + 1, axis=1)[:, ::-1]
    lead = sliding_window_view(kern[:, t % N_s], h + 1, axis=1)
    c = np.r_[0.5, np.ones(h - 1), 0.5]
    lwork = [int(lapack.dsytrf_lwork(k, lower=1)[0]) for k in (h + 1, h - 1)]
    N = (n + 1) / (n - 1)
    rows = []
    for eps in eps_list:
        cfg = NeckConfig(epsilon=eps)  # epsilon and chart scale; the window is L
        u, Pu = glued_u(cfg, n, L, N_s)
        if np.max(np.abs(u - u[mirror])) > 1e-13 * np.max(u):
            raise NumericalError(f"glued factor at epsilon {eps:g} is not reflection-even; "
                                 "the study's half-window fold does not apply")
        a, b = u[:h + 1] ** -N, -N * u[:h + 1] ** (-N - 1.0) * Pu[:h + 1]
        wl = neck_weight(cfg, s[:h + 1]) ** (-mu)
        r = 1.0 / (a * wl)
        shifts = (b / (a * c), b[1:h] / a[1:h])

        per_mode = {}
        for m in range(m_max + 1):
            blocks = ((np.add, lag[m], lead[m], "even"),
                      (np.subtract, lag[m, 1:h, 1:h], lead[m, 1:h, 1:h], "odd"))
            inverses = []
            for (fold, x, y, parity), shift, work in zip(blocks, shifts, lwork):
                S = np.empty(x.shape, order="F")  # the buffer dsytrf factors in place
                fold(x, y, out=S.T)
                S.flat[::S.shape[0] + 1] += shift
                ldu, piv, _ = lapack.dsytrf(S, lower=1, lwork=work, overwrite_a=1)
                ldu, info = lapack.dsytri(ldu, piv, lower=1, overwrite_a=1)
                if info > 0:  # sytri refuses the zero pivots sytrf reports
                    raise ResonanceError(f"{parity} fold block of mode {m} is singular "
                                         f"at epsilon {eps:g}")
                inverses.append(np.abs(ldu, out=ldu))
            # on rows 0..h, columns j and N_s - j of A^{-1} hold (E +- O)/2 (O
            # is zero on rows 0 and h), and |x + y| + |x - y| = 2 max(|x|, |y|);
            # rows i and N_s - i share a sum; only lower triangles are read
            M, odd = inverses
            np.maximum(M[1:h, 1:h], odd, out=M[1:h, 1:h])
            row_sums = wl / c * blas.dsymv(1.0, M, r, lower=1)
            per_mode[m] = float(1.0 / np.max(row_sums))
        rows.append({"epsilon": eps, "per_mode": per_mode,
                     "sigma_min": min(per_mode.values())})

    slope = 0.0
    if len(eps_list) > 1:
        sigmas = np.log([r["sigma_min"] for r in rows])
        slope = float(np.polyfit(np.log(eps_list), sigmas, 1)[0])
    return {"L": L, "rows": rows, "slope": slope,
            "sigma_min_overall": min(r["sigma_min"] for r in rows)}
