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

is smooth on [0, pi/2].  Two schemes share this formulation: a uniform
second-order finite-difference solve (grid-convergence studies) and a
high-order shooting integration from a series start (default accuracy).

The flat unit ball is the companion closed-form model: the harmonic
extension of a degree-k spherical harmonic is r^k Y_k, so its boundary
operator is diagonal with eigenvalue k + (n-1)/2 and the linearized
operator has eigenvalue k - 1 -- an exact kernel at degree 1, used as the
negative (resonant) test case downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded

from .errors import ResolutionTooCoarse, SingularBVP, ValidationError
from .symbol import ModeSpec, theta

__all__ = [
    "HalfCylinderProblem",
    "BallModel",
    "dtn_cylinder",
    "dtn_halfdisk_2d",
    "dtn_ball_eigenvalue",
    "ball_linearized_eigenvalue",
    "ball_kernel_degrees",
    "cross_validate",
]

_SCHEMES = ("collocation-ODE", "finite-difference")


@dataclass(frozen=True)
class HalfCylinderProblem:
    spec: ModeSpec
    xi: float = 0.0
    phi_grid: int = 1024
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


@dataclass(frozen=True)
class BallModel:
    n: int
    k_max: int = 8

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"need n >= 2, got {self.n}")
        if self.k_max < 1:
            raise ValidationError("k_max must be at least 1")


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

    # banded tridiagonal in (upper, diag, lower) layout
    ab = np.zeros((3, M + 1))
    rhs = np.zeros(M + 1)
    c = 2.0 * spec.m + spec.n
    # pole row: -(2m+n) * 2 (chi_1 - chi_0)/h^2 + V0 chi_0 = 0
    ab[1, 0] = 2.0 * c / h**2 + V[0]
    ab[0, 1] = -2.0 * c / h**2
    i = np.arange(1, M)
    ab[1, i] = 2.0 / h**2 + V[i]
    ab[0, i + 1] = -1.0 / h**2 - b[i] / (2.0 * h)
    ab[2, i - 1] = -1.0 / h**2 + b[i] / (2.0 * h)
    ab[1, M] = 1.0
    ab[2, M - 1] = 0.0
    rhs[M] = 1.0
    try:
        chi = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as err:  # pragma: no cover - defensive
        raise SingularBVP(f"tridiagonal solve failed: {err}")
    if not np.all(np.isfinite(chi)):
        raise SingularBVP("finite-difference solution blew up")
    if chi.min() < -1e-8:
        raise ResolutionTooCoarse("chi lost positivity; refine phi_grid")
    # fourth-order one-sided derivative so the boundary flux does not cap
    # the scheme's second-order interior accuracy
    dchi = (25.0 * chi[M] - 48.0 * chi[M - 1] + 36.0 * chi[M - 2]
            - 16.0 * chi[M - 3] + 3.0 * chi[M - 4]) / (12.0 * h)
    return float(dchi + 2.0 * spec.m / np.pi)


def _dtn_shoot(prob: HalfCylinderProblem) -> float:
    """High-order integration of the chi equation from a series start."""
    spec, xi = prob.spec, prob.xi
    phi0 = 1e-3
    V0 = float(_potential(spec, xi, np.array([0.0]))[0])
    curv = V0 / (2.0 * spec.m + spec.n)  # chi''(0) from the pole equation
    y0 = np.array([1.0 + 0.5 * curv * phi0**2, curv * phi0])

    def rhs(p, y):
        chi, dchi = y
        V = _potential(spec, xi, np.array([p]))[0]
        return [dchi, V * chi - _drift(spec, np.array([p]))[0] * dchi]

    sol = solve_ivp(rhs, (phi0, 0.5 * np.pi), y0, method="DOP853",
                    rtol=1e-12, atol=1e-300,
                    max_step=0.5 * np.pi / max(64, prob.phi_grid // 4))
    if not sol.success:
        raise SingularBVP(f"shooting integration failed: {sol.message}")
    chi, dchi = sol.y[0, -1], sol.y[1, -1]
    if chi <= 0.0:
        raise SingularBVP("shooting produced a non-positive boundary value")
    return float(dchi / chi + 2.0 * spec.m / np.pi)


def dtn_cylinder(prob: HalfCylinderProblem) -> float:
    """Boundary derivative of the separated hemisphere extension problem.

    Sign anchored so the zero-mode, zero-frequency value is the positive
    constant c of the symbol module.
    """
    if prob.scheme == "finite-difference":
        return _dtn_fd(prob)
    return _dtn_shoot(prob)


def dtn_halfdisk_2d(xi: float, m: int, phi_grid: int = 96,
                    theta_grid: int = 64) -> float:
    """Full 2-D hemisphere solve at n=2 with no separation assumption.

    Offset polar grid in phi (first node at h/2, across-pole coupling
    psi(-phi, theta) = psi(phi, theta + pi)), periodic theta, Dirichlet
    data cos(m theta) on the equator; the result is projected back on
    cos(m theta).  Secondary validation path for dtn_cylinder at n=2.
    """
    from scipy.sparse import lil_matrix
    from scipy.sparse.linalg import spsolve

    n = 2
    if theta_grid % 2:
        raise ValidationError("theta_grid must be even for across-pole coupling")
    M, K = phi_grid, theta_grid
    h = np.pi / (2 * M - 1)
    phi = h * (np.arange(M) + 0.5)  # phi[M-1] = pi/2 exactly
    dth = 2.0 * np.pi / K
    th = dth * np.arange(K)

    def idx(i, j):
        return i * K + (j % K)

    A = lil_matrix((M * K, M * K))
    rhs = np.zeros(M * K)
    pot = xi * xi + 0.25 * (n - 1) ** 2
    for i in range(M - 1):
        p = phi[i]
        cot = 1.0 / np.tan(p)
        for j in range(K):
            row = idx(i, j)
            A[row, row] += 2.0 / h**2 + pot
            A[row, row] += 2.0 / (np.sin(p) * dth) ** 2
            A[row, idx(i, j + 1)] += -1.0 / (np.sin(p) * dth) ** 2
            A[row, idx(i, j - 1)] += -1.0 / (np.sin(p) * dth) ** 2
            up = -1.0 / h**2 - cot / (2.0 * h)
            dn = -1.0 / h**2 + cot / (2.0 * h)
            A[row, idx(i + 1, j)] += up
            if i == 0:
                A[row, idx(0, j + K // 2)] += dn  # across the pole
            else:
                A[row, idx(i - 1, j)] += dn
    for j in range(K):
        row = idx(M - 1, j)
        A[row, row] = 1.0
        rhs[row] = np.cos(m * th[j])
    psi = spsolve(A.tocsr(), rhs)
    if not np.all(np.isfinite(psi)):
        raise SingularBVP("half-disk solve produced non-finite values")
    grid = psi.reshape(M, K)
    dpsi = (3.0 * grid[M - 1] - 4.0 * grid[M - 2] + grid[M - 3]) / (2.0 * h)
    # project onto the driving harmonic (normalized cos(m theta) coefficient)
    weight = np.cos(m * th)
    coef = (dpsi * weight).sum() / (weight * weight).sum()
    return float(coef)


def dtn_ball_eigenvalue(model: BallModel, k: int) -> float:
    """Boundary-operator eigenvalue of the flat unit ball at harmonic degree k.

    The harmonic extension of Y_k is r^k Y_k: normal derivative k, plus the
    mean-curvature term (n-1)/2 of the unit sphere.
    """
    if not 0 <= k <= model.k_max:
        raise ValidationError(f"degree {k} outside [0, {model.k_max}]")
    return float(k) + 0.5 * (model.n - 1)


def ball_linearized_eigenvalue(model: BallModel, k: int) -> float:
    """Eigenvalue k - 1 of the linearized ball operator (exact in floats)."""
    n = model.n
    ratio = (n + 1) / (n - 1)
    return dtn_ball_eigenvalue(model, k) - ratio * 0.5 * (n - 1)


def ball_kernel_degrees(model: BallModel) -> tuple:
    """Harmonic degrees where the linearized ball operator vanishes: exactly {1}."""
    return tuple(k for k in range(model.k_max + 1)
                 if ball_linearized_eigenvalue(model, k) == 0.0)


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
