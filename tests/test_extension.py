"""Bulk-extension route: the symbol recomputed without Gamma functions."""

import numpy as np
import pytest

from neckforge.errors import ResolutionTooCoarse, ValidationError
from neckforge.extension import (HalfCylinderProblem, cross_validate, dtn_cylinder,
                                 dtn_halfdisk_2d)
from neckforge.solver import RESONANCE_MARGIN, ball_spectrum
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


def test_halfdisk_agrees_at_modest_accuracy():
    # independent 2-D hemisphere solve with no separation assumption
    got = dtn_halfdisk_2d(xi=0.5, m=1)
    want = float(theta(ModeSpec(n=2, m=1), 0.5))
    assert abs(got - want) / want <= 5e-3


@pytest.mark.parametrize("xi,m,want", [
    (0.5, 0, 0.42220414345369633),
    (1.5, 1, 1.7866840949357612),
    (2.5, 2, 3.1895905859283977),
])
def test_halfdisk_matrix_pinned(xi, m, want):
    # values of the entry-by-entry (lil_matrix) assembly this one replaced
    assert abs(dtn_halfdisk_2d(xi=xi, m=m) - want) / want <= 1e-13


def test_ball_eigenvalues_exact():
    k = np.arange(9)
    for n in range(2, 13):
        eig, lam = ball_spectrum(n)
        assert np.array_equal(eig, k + (n - 1) / 2)
        assert np.array_equal(lam, k - 1)


def test_ball_kernel_is_degree_one():
    for n in range(2, 13):
        _, lam = ball_spectrum(n)
        assert tuple(np.flatnonzero(np.abs(lam) <= RESONANCE_MARGIN)) == (1,)


def test_cross_validate_rows_complete():
    rows = cross_validate(3, (0, 1), (0.0, 1.0), scheme="collocation-ODE")
    assert len(rows) == 4
    assert all(set(r) >= {"n", "m", "xi", "dtn", "theta", "rel_err"}
               for r in rows)
    assert max(r["rel_err"] for r in rows) <= 1e-8


def test_unknown_scheme_rejected():
    with pytest.raises(ValidationError):
        HalfCylinderProblem(ModeSpec(n=3, m=0), xi=1.0, scheme="spectral")
