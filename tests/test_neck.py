"""Glued-neck desk model: weights, partition, curvature error."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckforge.acceptance import EPS_SWEEP
from neckforge.errors import NumericalError, ValidationError
from neckforge.neck import (CUTOFF_WIDTH, NeckConfig, approximate_curvature_error,
                            build_glued_factor, covariance_selftest, curvature,
                            error_sweep, glued_u, weight, weighted_norm, window, _cutoff)
from neckforge.symbol import ModeSpec, constants, theta, theta_table


def test_weight_anchors_centered():
    cfg = NeckConfig(epsilon=0.05)
    S = cfg.S_eps
    w = weight(cfg, np.array([-S / 2, 0.0, S / 2]))
    assert w[0] == 1.0 and w[2] == 1.0          # exactly 1 at the neck ends
    assert abs(w[1] - 1.0 / np.cosh(S / 2)) <= 1e-15


def test_weight_cap_and_symmetry():
    cfg = NeckConfig(epsilon=0.05)
    s = np.linspace(-cfg.L / 2, cfg.L / 2, 1001)
    w = weight(cfg, s)
    assert np.all(w > 0) and np.all(w < 2.0)    # capped extension outside
    assert np.max(np.abs(w - w[::-1])) <= 5e-15


def test_norm_monotone_toward_weaker_weight():
    # for data supported in the funnel (weight <= 1 there), more negative
    # exponents discount the neck more: |v|_mu <= |v|_mu' for mu < mu' < 0.
    # outside the neck the capped weight exceeds 1, so the comparison is
    # deliberately restricted to neck-supported data.
    cfg = NeckConfig(epsilon=0.05)
    s = window(cfg.L, cfg.n_s)
    norms = [weighted_norm(mu, cfg, s, np.exp(-4.0 * s ** 2))
             for mu in (-0.3, -0.7, -1.2)]
    assert norms[0] > norms[1] > norms[2]


@settings(max_examples=20, deadline=None)
@given(scale=st.floats(0.1, 50.0), mu=st.floats(-1.4, -0.1))
def test_norm_homogeneous(scale, mu):
    cfg = NeckConfig(epsilon=0.1, n_s=512)
    s = window(cfg.L, cfg.n_s)
    a = weighted_norm(mu, cfg, s, np.cos(s))
    b = weighted_norm(mu, cfg, s, scale * np.cos(s))
    assert abs(b - scale * a) <= 1e-12 * max(1.0, b)


def test_window_is_the_config_grid():
    # L = S + 2 pad is exactly twice the half window 0.5 S + pad, so the
    # window starts at -(0.5 S + pad) and steps by L / n_s
    for eps, pad in ((0.1, 4.0), (0.025, 3.0), (6.25e-3, 2.5)):
        cfg = NeckConfig(epsilon=eps, pad=pad, n_s=512)
        s = window(cfg.L, cfg.n_s)
        assert s[0] == -(0.5 * cfg.S_eps + pad)
        assert np.array_equal(s, s[0] + (cfg.L / 512) * np.arange(512))


def test_partition_exact_for_symmetric_profile():
    cfg = NeckConfig(epsilon=0.05)
    s = window(cfg.L, cfg.n_s)
    chi = _cutoff(s)
    flipped = np.interp(-s, s, chi)
    assert np.max(np.abs(chi + flipped - 1.0)) <= 5e-15
    # plateaus: pure summand 1 beyond the seam band
    assert np.all(chi[s < -CUTOFF_WIDTH] > 1.0 - 1e-12)
    assert np.all(chi[s > CUTOFF_WIDTH] < 1e-12)


def test_perturbed_factor_size():
    cfg = NeckConfig(epsilon=0.05)
    U = build_glued_factor(cfg, window(cfg.L, cfg.n_s))
    dev = np.max(np.abs(U - 1.0))
    d2 = cfg.delta ** 2
    assert 0.1 * d2 <= dev <= 1.5 * d2


@settings(max_examples=40, deadline=None)
@given(epsilon=st.floats(0.0, 0.25, exclude_min=True, exclude_max=True))
def test_glued_factor_at_least_one(epsilon):
    # the cutoff lies in [0, 1] and both chart factors are 1 + delta^2 q with
    # q > 0, so the glued factor never drops below 1
    cfg = NeckConfig(epsilon=epsilon)
    for N in (256, 1024, 4096):
        assert build_glued_factor(cfg, window(cfg.L, N)).min() >= 1.0


# E(epsilon) over EPS_SWEEP at the default exponent mu = -(n-1)/4, frozen
# from the construction on the config grid -(S/2 + pad) + ((S + 2 pad)/n_s) k
E_PINNED = {
    2: (0.0404368121182527, 0.028172446931771792, 0.019217963840512206,
        0.013603259175997017, 0.009854051048782312),
    3: (0.11185752635715819, 0.0837321086291093, 0.06180741833554071,
        0.04512719397562394, 0.032674428603774314),
}
# the same for n_s = 512 and pad = 3
VARIANT = dict(n_s=512, pad=3.0)
E_PINNED_VARIANT = {
    2: (0.040434170884654404, 0.028170899018253148, 0.019216936492489997,
        0.013405484815768878, 0.009724807942190664),
    3: (0.10958947744396283, 0.08219149325092362, 0.06075540626585558,
        0.04440826680956819, 0.032182540471766115),
}


@pytest.mark.parametrize("n", [2, 3])
def test_error_norm_values_pinned(n):
    for kw, pinned in (({}, E_PINNED[n]), (VARIANT, E_PINNED_VARIANT[n])):
        for eps, ref in zip(EPS_SWEEP, pinned):
            _, E = approximate_curvature_error(NeckConfig(epsilon=eps, **kw), n)
            assert abs(E - ref) <= 1e-13 * ref, (kw, eps)


def _flat_curvature(n, cfg):
    # u == 1 is the unglued cylinder: P0 1 keeps only the zero-frequency bin,
    # and theta_table's Theta_0(0) = c, so Q(1) = c on every window
    N = cfg.n_s
    one = np.ones(N)
    P1 = np.fft.irfft(theta_table(n, 0.5, 0, N, cfg.L / N)[0] * np.fft.rfft(one), N)
    return curvature(n, one, P1)


def test_factor_is_one_without_perturbation():
    # the factor without the chart deviation is u == 1, and its curvature
    # comes out exact, not merely to roundoff
    for n in (2, 3, 4):
        for kw in ({}, VARIANT):
            for eps in EPS_SWEEP:
                Q = _flat_curvature(n, NeckConfig(epsilon=eps, **kw))
                assert np.all(Q == constants(n).c), (n, kw, eps)


def test_unperturbed_error_is_roundoff():
    cfg = NeckConfig(epsilon=0.05)
    s = window(cfg.L, cfg.n_s)
    E = weighted_norm(-0.5, cfg, s, _flat_curvature(3, cfg) - constants(3).c)
    assert E <= 1e-10


def test_error_sweep_decreasing():
    rows = error_sweep(3, (1e-1, 2.5e-2), mu=-0.5)
    assert rows[0]["E"] > rows[1]["E"] > 0


def test_error_amplitude_tracks_perturbation_size():
    # leading curvature defect of 1 + delta^2 q is -c delta^2 q + O(delta^4),
    # so the raw sup should sit near c * delta^2 / 2 (q <= 1, plateau ~ 1/2)
    cfg = NeckConfig(epsilon=0.05)
    err, E = approximate_curvature_error(cfg, 3)
    scale = constants(3).c * cfg.delta ** 2 / 2.0
    sup = np.max(np.abs(err))
    assert 0.5 * scale <= sup <= 2.0 * scale
    assert E > 0


def test_epsilon_range_validated():
    with pytest.raises(ValidationError):
        NeckConfig(epsilon=0.3)
    with pytest.raises(ValidationError):
        NeckConfig(epsilon=-0.01)


@pytest.mark.parametrize("n", [2, 3])
def test_covariance_selftest_tiny(n):
    cfg = NeckConfig(epsilon=0.05, n_s=1024)
    assert covariance_selftest(cfg, n) <= 1e-6


@pytest.mark.parametrize("n,N", [(2, 1024), (3, 4096), (4, 2048)])
def test_glued_u_matches_full_spectrum_multiplier(n, N):
    # P0 u on the half spectrum against the signed full frequency grid, with
    # the multiplier built here from theta
    cfg = NeckConfig(epsilon=0.05)
    u, Pu = glued_u(cfg, n, cfg.L, N)
    xi = 2.0 * np.pi * np.fft.fftfreq(N, d=cfg.L / N)
    want = np.real(np.fft.ifft(theta(ModeSpec(n=n, m=0), xi) * np.fft.fft(u)))
    assert np.max(np.abs(Pu - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("mu", [0.0, 0.3, float("nan"), float("-inf")])
def test_error_norm_needs_finite_negative_exponent(mu):
    with pytest.raises(ValidationError, match="finite negative"):
        approximate_curvature_error(NeckConfig(epsilon=0.05), 3, mu)


def test_overflowing_error_norm_raises():
    # the weight (-mu)-th power overflows on the caps for mu near -1100
    with pytest.raises(NumericalError, match="not finite"):
        approximate_curvature_error(NeckConfig(epsilon=0.1), 3, -2000.0)
