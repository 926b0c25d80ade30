"""Bulk-extension route: the symbol recomputed without Gamma functions."""

import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.linalg

from neckforge import extension
from neckforge.errors import ResolutionTooCoarse, SingularBVP, ValidationError
from neckforge.extension import (HalfCylinderProblem, cross_validate, dtn_cylinder,
                                 dtn_halfdisk_2d)
from neckforge.symbol import ModeSpec, theta


@pytest.mark.parametrize("n,m,xi", [
    (2, 0, 0.0), (2, 1, 1.0), (2, 3, 4.0),
    (3, 0, 0.5), (3, 2, 2.0), (3, 4, 4.0),
    (4, 1, 0.0), (5, 0, 1.0),
])
def test_collocation_matches_symbol(n, m, xi):
    spec = ModeSpec(n=n, m=m)
    prob = HalfCylinderProblem(spec, xi=xi, scheme="collocation-ODE")
    got = dtn_cylinder(prob)
    want = float(theta(spec, xi))
    assert abs(got - want) / want <= 1e-12


# 2 |Gamma(A + i xi/2)|^2 / |Gamma(B + i xi/2)|^2 in 50-digit mpmath, cut to 40
@pytest.mark.parametrize("n,m,xi,want", [
    (2, 0, 20.0, "19.99374116372497208203835049210526638872"),
    (3, 6, 8.0, "10.30534803070258270586421181852160572517"),
    (6, 10, 30.0, "32.30818741602489553375415805144226614446"),
    (12, 4, 0.0, "9.013794842914179922198235847018616356665"),
    (2, 60, 0.0, "60.00208300800441458177245574388528326071"),
])
def test_collocation_matches_mpmath_far_from_the_sweep(n, m, xi, want):
    got = dtn_cylinder(HalfCylinderProblem(ModeSpec(n=n, m=m), xi=xi))
    assert abs(got - float(want)) / float(want) <= 1e-12


def test_collocation_past_its_cap_raises():
    with pytest.raises(ResolutionTooCoarse):
        dtn_cylinder(HalfCylinderProblem(ModeSpec(n=3, m=0), xi=1e3))


def test_finite_difference_second_order():
    spec = ModeSpec(n=3, m=1)
    errs = []
    for grid in (128, 256, 512):
        prob = HalfCylinderProblem(spec, xi=1.0, phi_grid=grid,
                                   scheme="finite-difference")
        got = dtn_cylinder(prob)
        errs.append(abs(got - float(theta(spec, 1.0))))
    # halving h divides the error by ~4; demand at least 3x per doubling
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


def _dtn_fd_banded(prob):
    """The same finite-difference system in (upper, diag, lower) band layout,
    solved by solve_banded."""
    spec, M = prob.spec, prob.phi_grid - 1
    h = 0.5 * np.pi / M
    phi = h * np.arange(M + 1)
    V = extension._potential(spec, prob.xi, phi)
    b = np.zeros(M + 1)
    b[1:] = extension._drift(spec, phi[1:])
    ab, rhs = np.zeros((3, M + 1)), np.zeros(M + 1)
    c = 2.0 * spec.m + spec.n
    ab[1, 0] = 2.0 * c / h**2 + V[0]
    ab[0, 1] = -2.0 * c / h**2
    i = np.arange(1, M)
    ab[1, i] = 2.0 / h**2 + V[i]
    ab[0, i + 1] = -1.0 / h**2 - b[i] / (2.0 * h)
    ab[2, i - 1] = -1.0 / h**2 + b[i] / (2.0 * h)
    ab[1, M] = rhs[M] = 1.0
    chi = scipy.linalg.solve_banded((1, 1), ab, rhs)
    dchi = (25.0 * chi[M] - 48.0 * chi[M - 1] + 36.0 * chi[M - 2]
            - 16.0 * chi[M - 3] + 3.0 * chi[M - 4]) / (12.0 * h)
    return float(dchi + 2.0 * spec.m / np.pi)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("phi_grid", [64, 256, 1024])
def test_finite_difference_equals_the_banded_oracle(n, phi_grid):
    # three diagonals straight to LAPACK's gtsv, the routine solve_banded
    # sends a (1, 1) band to, so every value is the same float
    for m in range(4):
        for xi in (0.0, 0.7, 3.0, 10.0):
            prob = HalfCylinderProblem(ModeSpec(n=n, m=m), xi=xi, phi_grid=phi_grid,
                                       scheme="finite-difference")
            assert dtn_cylinder(prob) == _dtn_fd_banded(prob)


def test_halfdisk_agrees_at_modest_accuracy():
    # independent 2-D hemisphere solve with no separation assumption, at the
    # three (xi, m) centres the bulk benchmark checks to the same bound
    for xi, m in ((0.5, 0), (1.5, 1), (2.5, 2)):
        got = dtn_halfdisk_2d(xi=xi, m=m)
        want = float(theta(ModeSpec(n=2, m=m), xi))
        assert abs(got - want) / want <= 5e-3, (xi, m)


def _halfdisk_sparse(xi, m):
    """The same five-point system assembled in COO form and solved by SuperLU."""
    M, K = 96, 64
    h = np.pi / (2 * M - 1)
    phi = h * (np.arange(M) + 0.5)
    dth = 2.0 * np.pi / K
    data = np.cos(m * (dth * np.arange(K)))
    pot = xi * xi + 0.25
    # five-point rows i < M-1 on an (M-1, K) index grid; coo sums duplicates
    i, j = np.meshgrid(np.arange(M - 1), np.arange(K), indexing="ij")
    cot = 1.0 / np.tan(phi[:M - 1, None])
    ring = -1.0 / (np.sin(phi[:M - 1, None]) * dth) ** 2
    row = i * K + j
    cols = [row, i * K + (j + 1) % K, i * K + (j - 1) % K, row + K,
            np.where(i == 0, (j + K // 2) % K, row - K)]  # across the pole at i = 0
    vals = [(2.0 / h**2 + pot) - 2.0 * ring, ring, ring,
            -1.0 / h**2 - cot / (2.0 * h), -1.0 / h**2 + cot / (2.0 * h)]
    edge = np.arange((M - 1) * K, M * K)  # Dirichlet rows on the equator
    A = scipy.sparse.coo_matrix(
        (np.concatenate([np.broadcast_to(v, i.shape).ravel() for v in vals] + [np.ones(K)]),
         (np.concatenate([row.ravel()] * len(cols) + [edge]),
          np.concatenate([c.ravel() for c in cols] + [edge]))),
        shape=(M * K, M * K)).tocsr()
    grid = scipy.sparse.linalg.spsolve(
        A, np.concatenate([np.zeros((M - 1) * K), data])).reshape(M, K)
    dpsi = (3.0 * grid[M - 1] - 4.0 * grid[M - 2] + grid[M - 3]) / (2.0 * h)
    return float((dpsi * data).sum() / (data * data).sum())


# the edges of the accepted domain: |xi| h = 1/2 with h = pi/191, and m = K/2 - 1
XI_EDGE = 0.5 / (np.pi / 191)


@pytest.mark.parametrize("m,xi", [(m, xi) for m in range(6)
                                  for xi in (0.0, 0.4, 1.5, 2.6, 4.0, 10.0)]
                         + [(0, XI_EDGE), (0, -XI_EDGE), (31, XI_EDGE), (31, -XI_EDGE),
                            (31, 0.0)])
def test_halfdisk_matches_sparse_oracle(m, xi):
    want = _halfdisk_sparse(xi, m)
    assert abs(dtn_halfdisk_2d(xi=xi, m=m) - want) / abs(want) <= 1e-12


def test_halfdisk_factors_each_ring_once_by_cholesky(monkeypatch):
    # M - 1 = 95 Cholesky factorizations, and no LU or sparse solve on the way
    def forbidden(*args, **kwargs):
        raise AssertionError("the half-disk solve called an LU or sparse routine")

    calls, dpotrf = [], scipy.linalg.lapack.dpotrf

    def spy(*args, **kwargs):
        calls.append(1)
        return dpotrf(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", spy)
    for name in ("dgetrf", "dgetri"):
        assert not hasattr(extension, name)
        monkeypatch.setattr(scipy.linalg.lapack, name, forbidden)
    for name in ("spsolve", "splu", "factorized"):
        monkeypatch.setattr(scipy.sparse.linalg, name, forbidden)
    assert abs(dtn_halfdisk_2d(xi=0.5, m=0) - 0.42220414345369633) <= 1e-13
    assert len(calls) == 95


def test_halfdisk_block_not_positive_definite_raises(monkeypatch):
    # a Schur complement that fails its Cholesky factorization is named by ring
    calls, dpotrf = [], scipy.linalg.lapack.dpotrf

    def failing(a, **kwargs):
        calls.append(1)
        c, info = dpotrf(a, **kwargs)
        return c, (7 if len(calls) == 41 else info)

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", failing)
    with pytest.raises(SingularBVP, match="ring 40 is not positive definite"):
        dtn_halfdisk_2d(xi=1.5, m=1)
    assert len(calls) == 41


@pytest.mark.parametrize("xi", [np.inf, -np.inf, np.nan])
def test_halfdisk_non_finite_xi_rejected(xi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no solver warning on the way to the error
        with pytest.raises(ValidationError, match="xi must be finite"):
            dtn_halfdisk_2d(xi=xi, m=0)


@pytest.mark.parametrize("m", [1.5, -1])
def test_halfdisk_mode_must_be_a_non_negative_integer(m):
    with pytest.raises(ValidationError, match="m must be an integer >= 0"):
        dtn_halfdisk_2d(xi=0.5, m=m)


@pytest.mark.parametrize("m", [32, 40])
def test_halfdisk_mode_aliased_on_the_theta_grid_raises(m):
    with pytest.raises(ResolutionTooCoarse):
        dtn_halfdisk_2d(xi=0.5, m=m)


def test_halfdisk_xi_past_the_phi_resolution_raises():
    # the finite-difference rule |xi| h <= 1/2, with h = pi/191
    assert np.isfinite(dtn_halfdisk_2d(xi=30.0, m=0))
    with pytest.raises(ResolutionTooCoarse):
        dtn_halfdisk_2d(xi=31.0, m=0)
    with pytest.raises(ResolutionTooCoarse):
        dtn_halfdisk_2d(xi=-31.0, m=0)


@pytest.mark.parametrize("xi,m,want", [
    (0.5, 0, 0.42220414345369633),
    (1.5, 1, 1.7866840949357612),
    (2.5, 2, 3.1895905859283977),
])
def test_halfdisk_matrix_pinned(xi, m, want):
    # values of the entry-by-entry (lil_matrix) assembly this one replaced
    assert abs(dtn_halfdisk_2d(xi=xi, m=m) - want) / want <= 1e-13


def test_cross_validate_rows_complete():
    rows = cross_validate(3, (0, 1), (0.0, 1.0), scheme="collocation-ODE")
    assert len(rows) == 4
    assert all(set(r) >= {"n", "m", "xi", "dtn", "theta", "rel_err"}
               for r in rows)
    assert max(r["rel_err"] for r in rows) <= 1e-8


def test_unknown_scheme_rejected():
    with pytest.raises(ValidationError):
        HalfCylinderProblem(ModeSpec(n=3, m=0), xi=1.0, scheme="spectral")
