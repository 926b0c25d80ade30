"""Boundary symbol: anchors, closed forms, and shape properties."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckforge.errors import DegenerateSpec, PoleError, ValidationError
from neckforge.symbol import (DOMAIN_MAX, GAMMA_MAX, ModeSpec, constants, theta,
                              theta_analytic, theta_table)


def test_constant_anchor_n3():
    cs = constants(3)
    assert abs(cs.c - 2.0 / np.pi) <= 1e-14
    assert abs(cs.kappa - 4.0 / np.pi) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_constant_is_symbol_at_zero(n):
    assert abs(constants(n).c - theta(ModeSpec(n=n, m=0), 0.0)) <= 1e-14


@pytest.mark.parametrize("N", [256, 257, 384, 1001])
def test_theta_table_rows_equal_pointwise_theta(N):
    # the table holds the N//2 + 1 non-negative frequencies of the rfft
    # half spectrum; each row must be bit-equal to theta on that grid, at
    # the table's own gamma
    for gamma in (0.3, 0.5, 0.8):
        for n in (2, 3, 5):
            for ds in (0.037, 0.2113):
                table = theta_table(n, gamma, 3, N, ds)
                assert table.shape == (4, N // 2 + 1)
                xi = 2.0 * np.pi * np.fft.rfftfreq(N, d=ds)
                for m in range(4):
                    assert np.array_equal(table[m], theta(ModeSpec(n, gamma, m), xi))


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
def test_theta_table_rows_agree_with_the_real_axis_continuation(gamma):
    # the two real-axis routes (theta's log|Gamma| rows, read by modegreen's
    # real contours, and theta_analytic at real zeta, read off them) on the
    # 4,096-point Green grid of [-30, 30): they differ only by the rounding of
    # their log-Gamma cancellation (worst measured 2.9e-14, 7.3e-15 and
    # 5.7e-14 at gamma 0.3, 0.5, 0.8)
    N, ds = 4096, 60.0 / 4096
    xi = 2.0 * np.pi * np.fft.rfftfreq(N, d=ds)
    for n in (2, 3, 5):
        table = theta_table(n, gamma, 3, N, ds)
        for m in range(4):
            cont = theta_analytic(ModeSpec(n, gamma, m), xi)
            assert not cont.imag.any()
            assert np.max(np.abs(cont.real - table[m]) / table[m]) <= 2e-13


# relative error bound per gamma of the bubble identity below, about three
# times the worst measured over n = 2..5 (5.4e-13, 2.2e-12, 6.9e-11)
BUBBLE_TOL = {0.3: 2e-12, 0.5: 7e-12, 0.8: 2e-10}


@pytest.mark.parametrize("gamma", sorted(BUBBLE_TOL))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_centred_bubble_is_exact_solution(n, gamma):
    # u = cosh(s)^{-p}, p = (n - 2 gamma)/2, is the standard bubble on the
    # cylinder: P_gamma u = C u^{(n+2 gamma)/(n-2 gamma)} with
    # C = Gamma((n+2 gamma)/2) / Gamma((n-2 gamma)/2), exactly.  The period
    # 2S puts the wrap-around tail below 1e-15.
    p = (n - 2.0 * gamma) / 2.0
    S = 15.0 * math.log(10.0) / p + 1.0
    L, N = 2.0 * S, 2048
    s = -S + (L / N) * np.arange(N)
    u = np.cosh(s) ** (-p)
    xi = np.abs(2.0 * np.pi * np.fft.fftfreq(N, L / N))
    Pu = np.fft.ifft(theta(ModeSpec(n, gamma=gamma, m=0), xi) * np.fft.fft(u)).real
    want = math.exp(math.lgamma((n + 2.0 * gamma) / 2.0)
                    - math.lgamma((n - 2.0 * gamma) / 2.0))
    core = np.abs(s) < 3.0
    got = u[core] ** (-(n + 2.0 * gamma) / (n - 2.0 * gamma)) * Pu[core]
    assert np.max(np.abs(got / want - 1.0)) <= BUBBLE_TOL[gamma]


def test_degenerate_spec_raises():
    # B = 1/2 - gamma/2 = 5e-14 sits within the pole tolerance of Gamma's pole at 0
    with pytest.raises(DegenerateSpec):
        theta(ModeSpec(n=2, gamma=1 - 1e-13, m=0), 0.0)


def test_mode0_closed_form_n3():
    # xi * coth(pi xi / 2) in three dimensions
    xi = np.linspace(0.1, 8.0, 40)
    want = xi / np.tanh(np.pi * xi / 2.0)
    got = theta(ModeSpec(n=3, m=0), xi)
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_mode1_value_at_zero_n3():
    # Theta_1(0) = pi/2 > kappa = 4/pi: mode 1 clears the resonance level
    got = theta(ModeSpec(n=3, m=1), 0.0)
    assert abs(got - np.pi / 2.0) <= 1e-13
    assert got > constants(3).kappa


def test_large_frequency_growth():
    # Theta ~ |xi|^(2 gamma) = |xi|; checked at the top of the neck FFT grid
    for n in (2, 3):
        xi = np.array([200.0, 400.0, 800.0])
        val = theta(ModeSpec(n=n, m=0), xi)
        assert np.all(np.isfinite(val))
        assert np.all(np.abs(val / xi - 1.0) < 0.05)


def test_analytic_continuation_matches_axis():
    spec = ModeSpec(n=3, m=2)
    xi = np.linspace(-5, 5, 21)
    assert np.allclose(theta_analytic(spec, xi + 0j), theta(spec, xi), rtol=1e-12)


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_analytic_real_path_equals_the_general_path(n, gamma):
    # a 1e-300 imaginary part rounds away in A +- i zeta/2, so a real zeta
    # and its perturbed copy give the four rows the same arguments and must
    # give the same bits
    xi = np.concatenate([[0.0, 1e-3, -DOMAIN_MAX, DOMAIN_MAX], np.linspace(-40.0, 40.0, 81)])
    assert (0.5j * (xi + 1e-300j)).real.all()
    for m in range(7):
        spec = ModeSpec(n=n, gamma=gamma, m=m)
        assert np.array_equal(theta_analytic(spec, xi + 0j), theta_analytic(spec, xi + 1e-300j))


def test_analytic_real_path_zero_at_a_denominator_pole():
    spec = ModeSpec(n=2, gamma=1.0 - 1e-13)  # B = 5e-14: B + i zeta/2 is a pole at zeta = 0
    vals = theta_analytic(spec, np.array([0.0, 1.0]))
    assert vals[0] == 0.0 and np.isfinite(vals[1]) and vals[1] != 0.0
    assert theta_analytic(spec, 0.0) == 0.0
    assert theta_analytic(spec, 1.0) == vals[1]


def test_analytic_numerator_pole_raises():
    # A + i z / 2 at a non-positive integer
    spec = ModeSpec(n=3, m=0)
    z = 2j * spec.a_offset  # i z / 2 = -A
    with pytest.raises(PoleError):
        theta_analytic(spec, np.asarray(z))


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("n,m,xi", [(2, 0, DOMAIN_MAX), (2, DOMAIN_MAX, 0.0),
                                    (3, DOMAIN_MAX, -DOMAIN_MAX),
                                    (DOMAIN_MAX, DOMAIN_MAX, DOMAIN_MAX)])
def test_accurate_at_the_corners_of_the_domain(n, m, xi, gamma):
    # the log-Gamma difference cancels as n, m and |xi| grow: 1e-10 relative holds
    # up to DOMAIN_MAX, against 2^(2g) |Gamma(A + i xi/2) / Gamma(B + i xi/2)|^2
    spec = ModeSpec(n=n, gamma=gamma, m=m)
    with mpmath.workdps(40):
        h = mpmath.mpc(0, xi / 2)
        mid = (mpmath.mpf(n) / 2 + m - 1) / 2 + 0.5  # A and B are mid +- gamma/2
        ratio = mpmath.gamma(mid + gamma / 2 + h) / mpmath.gamma(mid - gamma / 2 + h)
        want = 2 ** (2 * mpmath.mpf(gamma)) * abs(ratio) ** 2
        assert abs(theta(spec, xi) - want) / want <= 1e-10
        assert abs(theta_analytic(spec, complex(xi)) - want) / want <= 1e-10


def test_outside_the_domain_refused():
    # past DOMAIN_MAX the log-Gamma difference loses its digits: a typed refusal,
    # not a silently wrong value (theta read 1.0 at xi = 1e300 and at m = 1e20)
    with pytest.raises(ValidationError, match="xi"):
        theta(ModeSpec(n=2, m=0), 1e300)
    with pytest.raises(ValidationError, match="xi"):
        theta(ModeSpec(n=3, m=0), np.array([0.0, 1.0, np.nextafter(DOMAIN_MAX, np.inf)]))
    with pytest.raises(ValidationError, match="zeta"):
        theta_analytic(ModeSpec(n=3, m=0), 0.8 * DOMAIN_MAX * (1 - 1j))
    with pytest.raises(ValidationError, match="m must be"):
        ModeSpec(n=3, m=10**20)
    with pytest.raises(ValidationError, match="n must be"):
        ModeSpec(n=DOMAIN_MAX + 1, m=0)


@pytest.mark.parametrize("n,gamma", [(2000, 400.0), (400, 150.0), (300, 100.0), (100, 40.0)])
def test_gamma_past_the_cap_refused(n, gamma):
    # Theta grows like |xi|^(2 gamma): these overflowed to inf with only a
    # RuntimeWarning, in theta, theta_analytic and constants alike
    with pytest.raises(ValidationError, match="gamma"):
        ModeSpec(n=n, gamma=gamma, m=0)
    with pytest.raises(ValidationError, match="gamma"):
        constants(n, gamma)


@pytest.mark.parametrize("n,m,xi", [(DOMAIN_MAX, DOMAIN_MAX, DOMAIN_MAX), (DOMAIN_MAX, 0, 0.0),
                                    (65, DOMAIN_MAX, -DOMAIN_MAX), (65, 0, 1.0)])
def test_accurate_just_below_the_gamma_cap(n, m, xi):
    # the largest accepted gamma stays finite and within 1e-10 relative at the
    # corners of the domain
    gamma = float(np.nextafter(GAMMA_MAX, 0.0))
    spec = ModeSpec(n=n, gamma=gamma, m=m)
    with mpmath.workdps(40):
        h = mpmath.mpc(0, xi / 2)
        ratio = mpmath.gamma(spec.a_offset + h) / mpmath.gamma(spec.b_offset + h)
        want = 2 ** (2 * mpmath.mpf(gamma)) * abs(ratio) ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, got_analytic = theta(spec, xi), theta_analytic(spec, complex(xi))
        assert abs(got - want) / want <= 1e-10
        assert abs(got_analytic - want) / want <= 1e-10


def test_bad_spec_rejected():
    with pytest.raises(ValidationError):
        ModeSpec(n=1, m=0)
    with pytest.raises(ValidationError):
        ModeSpec(n=3, m=-1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), gamma=st.floats(0.05, 0.99), m=st.integers(0, 7),
       xi=st.floats(-60, 60, allow_nan=False))
def test_even_positive(n, gamma, m, xi):
    spec = ModeSpec(n=n, gamma=gamma, m=m)
    a = theta(spec, xi)
    assert a > 0
    assert a == theta(spec, -xi)  # even bit for bit


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 8), gamma=st.floats(0.05, 0.99),
       xi=st.floats(-60, 60, allow_nan=False))
def test_monotone_in_mode(n, gamma, xi):
    vals = [theta(ModeSpec(n=n, gamma=gamma, m=m), xi) for m in range(8)]
    assert all(vals[i] < vals[i + 1] for i in range(7))
