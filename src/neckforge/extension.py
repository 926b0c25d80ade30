"""Dirichlet-to-Neumann operators from the bulk extension problem.

This is the cross-validation arm against the Gamma-function symbol: the
boundary operator is recomputed by actually solving the separated radial
problem on a hemisphere cross-section,

    -psi'' - (n-1) cot(phi) psi' + (mu_m / sin^2 phi + xi^2 + (n-1)^2/4) psi = 0

on phi in (0, pi/2), psi regular (~ phi^m) at the pole, psi(pi/2) = 1,
returning the outward normal derivative at the equator.  Nothing here
touches the symbol module's Gamma formula, so agreement of the two is a
genuine two-route check.

The coordinate singularity at phi = 0 is removed by the substitution
psi = phi^m * chi; chi then satisfies a regular ODE with chi'(0) = 0 and
the pole limit -(2m+n) chi''(0) + V(0) chi(0) = 0, where

    V(phi) = mu_m (1/sin^2 phi - 1/phi^2)
           + m (n-1) (1 - phi cot phi) / phi^2 + xi^2 + (n-1)^2/4

is smooth on [0, pi/2].  The default scheme "collocation-ODE" is Chebyshev
collocation (Trefethen, Spectral Methods in MATLAB, ch. 6-7); it reads the
flux by Clenshaw-Curtis quadrature of the integral form of
(w chi')' = w V chi, w = phi^(2m) sin^(n-1) phi, whose integrand is positive.
"finite-difference" is a second-order solve on `phi_grid` points, for
grid-convergence studies.

scipy.linalg is imported by the solves that call it, so importing this
module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionTooCoarse, SingularBVP, ValidationError
from .symbol import ModeSpec, theta

__all__ = ["HalfCylinderProblem", "dtn_cylinder", "dtn_halfdisk_2d", "cross_validate"]

_SCHEMES = ("collocation-ODE", "finite-difference")


@dataclass(frozen=True)
class HalfCylinderProblem:
    spec: ModeSpec
    xi: float = 0.0
    phi_grid: int = 1024  # finite-difference grid; collocation sizes its own
    scheme: str = "collocation-ODE"

    def __post_init__(self):
        if self.spec.gamma != 0.5:
            raise ValidationError("extension solve is for the half-power case only")
        if self.phi_grid < 64:
            raise ValidationError(f"phi_grid must be >= 64, got {self.phi_grid}")
        if self.scheme not in _SCHEMES:
            raise ValidationError(f"unknown scheme {self.scheme!r}; pick from {_SCHEMES}")
        if not np.isfinite(self.xi):
            raise ValidationError("xi must be finite")


def _potential(spec: ModeSpec, xi: float, phi: np.ndarray) -> np.ndarray:
    """Regularized potential V(phi) of the chi equation; smooth at 0."""
    phi = np.asarray(phi, dtype=float)
    n, m = spec.n, spec.m
    mu = spec.mu
    out = np.empty_like(phi)
    small = np.abs(phi) < 1e-4
    p = phi[~small]
    out[~small] = mu * (1.0 / np.sin(p) ** 2 - 1.0 / p**2) \
        + m * (n - 1) * (1.0 - p / np.tan(p)) / p**2
    # series: 1/sin^2 - 1/x^2 = 1/3 + x^2/15, (1 - x cot x)/x^2 = 1/3 + x^2/45
    x2 = phi[small] ** 2
    out[small] = mu * (1.0 / 3.0 + x2 / 15.0) + m * (n - 1) * (1.0 / 3.0 + x2 / 45.0)
    return out + xi * xi + 0.25 * (n - 1) ** 2


def _drift(spec: ModeSpec, phi: np.ndarray) -> np.ndarray:
    """First-order coefficient b(phi) = 2m/phi + (n-1) cot phi (phi > 0)."""
    return 2.0 * spec.m / phi + (spec.n - 1) / np.tan(phi)


def _dtn_fd(prob: HalfCylinderProblem) -> float:
    """Uniform second-order finite differences on [0, pi/2] for chi."""
    from scipy.linalg.lapack import dgtsv

    spec, xi = prob.spec, prob.xi
    M = prob.phi_grid - 1
    h = 0.5 * np.pi / M
    if abs(xi) * h > 0.5:
        raise ResolutionTooCoarse(
            f"xi = {xi} needs more than {prob.phi_grid} points on the quarter circle"
        )
    phi = h * np.arange(M + 1)
    V = _potential(spec, xi, phi)
    b = np.zeros(M + 1)
    b[1:] = _drift(spec, phi[1:])

    # tridiagonal: sub-, main and super-diagonal
    lower, diag, upper = np.zeros(M), np.empty(M + 1), np.empty(M)
    rhs = np.zeros(M + 1)
    c = 2.0 * spec.m + spec.n
    # pole row: -(2m+n) * 2 (chi_1 - chi_0)/h^2 + V0 chi_0 = 0
    diag[0] = 2.0 * c / h**2 + V[0]
    upper[0] = -2.0 * c / h**2
    i = np.arange(1, M)
    diag[i] = 2.0 / h**2 + V[i]
    upper[i] = -1.0 / h**2 - b[i] / (2.0 * h)
    lower[i - 1] = -1.0 / h**2 + b[i] / (2.0 * h)
    # equator row chi_M = 1 (lower[M - 1] stays 0)
    diag[M] = 1.0
    rhs[M] = 1.0
    chi, info = dgtsv(lower, diag, upper, rhs)[3:]
    if info != 0:  # pragma: no cover - defensive
        raise SingularBVP(f"tridiagonal solve failed: dgtsv info = {info}")
    if not np.all(np.isfinite(chi)):
        raise SingularBVP("finite-difference solution blew up")
    if chi.min() < -1e-8:
        raise ResolutionTooCoarse("chi lost positivity; refine phi_grid")
    # fourth-order one-sided derivative so the boundary flux does not cap
    # the scheme's second-order interior accuracy
    dchi = (25.0 * chi[M] - 48.0 * chi[M - 1] + 36.0 * chi[M - 2]
            - 16.0 * chi[M - 3] + 3.0 * chi[M - 4]) / (12.0 * h)
    return float(dchi + 2.0 * spec.m / np.pi)


def _cheb(N: int):
    """Points cos(pi j/N), differentiation matrix, Clenshaw-Curtis weights."""
    j = np.arange(N + 1)
    x = np.cos(np.pi * j / N)
    c = np.where((j == 0) | (j == N), 2.0, 1.0) * (-1.0) ** j
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    k = np.arange(1, N // 2 + 1)
    a = np.where(2 * k == N, 1.0, 2.0) / (4.0 * k * k - 1.0)
    w = np.full(N + 1, 1.0 / (N * N - 1.0) if N % 2 == 0 else 1.0 / (N * N))
    w[1:N] = 2.0 * (1.0 - np.cos(2.0 * np.outer(np.pi * j[1:N] / N, k)) @ a) / N
    return x, D, w


def _dtn_collocation(prob: HalfCylinderProblem) -> float:
    """Chebyshev collocation of the chi equation; flux by quadrature."""
    spec, xi = prob.spec, prob.xi
    # N follows the scale sqrt(xi^2 + m^2 + (n-1)^2/4) of chi: within 2e-14 of mpmath
    # for n <= 40, m <= 100, |xi| <= 120.  Padding N costs digits to rounding in D2.
    N = 24 + max(0, math.ceil(math.hypot(xi, spec.m, 0.5 * (spec.n - 1)) - 4.0))
    if N > 128:
        raise ResolutionTooCoarse(f"(n, m, xi) = ({spec.n}, {spec.m}, {xi}) needs "
                                  f"{N} > 128 Chebyshev points")
    x, D, w = _cheb(N)
    phi = 0.25 * np.pi * (1.0 - x)  # phi[0] = 0 (pole), phi[N] = pi/2
    D1 = (-4.0 / np.pi) * D
    D2 = D1 @ D1
    V = _potential(spec, xi, phi)
    A = D2 - np.diag(V)
    A[1:N] += _drift(spec, phi[1:N])[:, None] * D1[1:N]
    A[0] = (2.0 * spec.m + spec.n) * D2[0]  # pole: (2m+n) chi''(0) = V(0) chi(0)
    A[0, 0] -= V[0]
    try:  # eliminate the Dirichlet value chi(pi/2) = 1
        chi = np.append(np.linalg.solve(A[:N, :N], -A[:N, N]), 1.0)
    except np.linalg.LinAlgError as err:  # pragma: no cover - defensive
        raise SingularBVP(f"collocation solve failed: {err}")
    # chi'(pi/2) = (pi/2)^(-2m) int_0^(pi/2) w V chi dphi, and dphi = (pi/4) dx
    weight = (phi / (0.5 * np.pi)) ** (2 * spec.m) * np.sin(phi) ** (spec.n - 1)
    return 0.25 * np.pi * float(w @ (weight * V * chi)) + 2.0 * spec.m / np.pi


def dtn_cylinder(prob: HalfCylinderProblem) -> float:
    """Boundary derivative of the separated hemisphere extension problem.

    Sign anchored so the zero-mode, zero-frequency value is the positive
    constant c of the symbol module.
    """
    if prob.scheme == "finite-difference":
        return _dtn_fd(prob)
    return _dtn_collocation(prob)


def dtn_halfdisk_2d(xi: float, m: int) -> float:
    """Full 2-D hemisphere solve at n=2 with no separation assumption.

    Offset polar grid of 96 points in phi (first node at h/2, across-pole
    coupling psi(-phi, theta) = psi(phi, theta + pi)), periodic theta on 64
    points (an even count, so the pole couples node j to node j + 32),
    Dirichlet data cos(m theta) on the equator; the result is projected back
    on cos(m theta).  Secondary validation path for dtn_cylinder at n=2.

    Solved exactly by block elimination, ring by ring from the pole: each phi
    ring is a dense 64 x 64 block B_i, rings meet through multiples of the
    identity, and S_i = B_i - dn_i up_(i-1) S_(i-1)^(-1).  Each B_i is
    symmetric (theta neighbours j +- 1 and the pole shift j -> j + 32 pair up)
    and dn_i up_(i-1) > 0, so scaling ring i by d_i > 0, d_(i+1) dn_(i+1) =
    d_i up_i, makes the system symmetric; its rows are strictly diagonally
    dominant with a positive diagonal, so it is positive definite, and so is
    every S_i = (its Schur complement) / d_i.  S_i is kept as the inverse
    Cholesky factor L_i^(-1), and L_i^(-T) L_i^(-1) folds into the next ring
    with one rank-k update.  No theta transform:
    diagonalising the blocks by FFT would separate variables, and this would
    stop being an independent check.
    """
    from scipy.linalg import blas, lapack

    M, K = 96, 64
    h = np.pi / (2 * M - 1)
    ModeSpec(n=2, m=m)  # the integer check every mode goes through
    if not np.isfinite(xi):
        raise ValidationError("xi must be finite")
    if m >= K // 2:
        raise ResolutionTooCoarse(f"mode m = {m} aliases on {K} theta points")
    if abs(xi) * h > 0.5:
        raise ResolutionTooCoarse(f"xi = {xi} needs more than {M} points on the quarter circle")
    phi = h * (np.arange(M) + 0.5)  # phi[M-1] = pi/2 exactly
    dth = 2.0 * np.pi / K
    data = np.cos(m * (dth * np.arange(K)))  # Dirichlet data cos(m theta)
    pot = xi * xi + 0.25  # xi^2 + (n-1)^2/4 at n = 2

    # rows i < M-1: B_i psi_i + up_i psi_(i+1) + dn_i psi_(i-1) = 0, psi_(M-1) = data
    cot = 1.0 / np.tan(phi[:M - 1])
    ring = -1.0 / (np.sin(phi[:M - 1]) * dth) ** 2
    up = -1.0 / h**2 - cot / (2.0 * h)
    dn = -1.0 / h**2 + cot / (2.0 * h)
    j = np.arange(K)
    linv = prev = None  # L_i^(-1) and L_(i-1)^(-1), S_i = L_i L_i^T
    for i in range(M - 1):
        S = np.zeros((K, K), order="F")  # lower triangle only; LAPACK works in place
        S[j, j] = (2.0 / h**2 + pot) - 2.0 * ring[i]
        S[j[1:], j[:-1]] = S[K - 1, 0] = ring[i]
        if i == 0:
            S[j[:K // 2] + K // 2, j[:K // 2]] = dn[0]  # across the pole
        else:  # S_i = B_i - c L^(-T) L^(-1)
            S = blas.dsyrk(-(dn[i] * up[i - 1]), linv, beta=1.0, c=S, trans=1, lower=1,
                           overwrite_c=1)
        L, info = lapack.dpotrf(S, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            prev, (linv, info) = linv, lapack.dtrtri(L, lower=1, overwrite_c=1)
        if info != 0:
            raise SingularBVP(f"half-disk block of ring {i} is not positive definite")

    def solve(linv, v):  # S^(-1) v = L^(-T) (L^(-1) v)
        return blas.dtrmv(linv, blas.dtrmv(linv, v, lower=1), lower=1, trans=1)

    # back substitution for the two rings the one-sided flux reads
    psi2 = -up[M - 2] * solve(linv, data)
    dpsi = (3.0 * data - 4.0 * psi2 - up[M - 3] * solve(prev, psi2)) / (2.0 * h)
    if not np.all(np.isfinite(dpsi)):
        raise SingularBVP("half-disk solve produced non-finite values")
    # project onto the driving harmonic (normalized cos(m theta) coefficient)
    return float((dpsi * data).sum() / (data * data).sum())


def cross_validate(n: int, modes, xis, phi_grid: int = 1024,
                   scheme: str = "collocation-ODE"):
    """Sweep |dtn - theta|/theta over (m, xi) pairs; rows for the CLI table."""
    rows = []
    for m in modes:
        spec = ModeSpec(n=n, gamma=0.5, m=m)
        for xi in map(float, xis):
            dtn = dtn_cylinder(HalfCylinderProblem(spec, xi=xi, phi_grid=phi_grid,
                                                   scheme=scheme))
            ref = float(theta(spec, xi))
            rows.append({"n": n, "m": m, "xi": xi, "dtn": dtn, "theta": ref,
                         "rel_err": abs(dtn - ref) / ref})
    return rows
