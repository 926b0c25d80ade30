"""Mode-wise line solves: inversion identities, tails, kernel symmetry."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neckforge import modegreen
from neckforge.errors import (AliasWarning, PoleError, ResonanceError, TailMismatch,
                              ValidationError)
from neckforge.indicial import first_root, root_catalog
from neckforge.modegreen import (DecayProfile, LineFunction, apply_L0,
                                 classify_growth, fit_tail_rate, green_solve,
                                 homogeneous_basis, synthesize_kernel)
from neckforge.symbol import ModeSpec, constants, frequencies, theta_analytic

DELTA = 0.5


def _rhs(m, delta=DELTA, a=2.0, half=30.0, N=4096):
    return LineFunction.from_callable(
        lambda s: np.exp(-delta * np.sqrt(s * s + a * a)),
        s0=-half, s1=half, N=N, mode=m)


def _round_trip_error(m, delta=DELTA, a=2.0, half=30.0, N=4096):
    spec = ModeSpec(n=3, m=m)
    h = _rhs(m, delta=delta, a=a, half=half, N=N)
    back = apply_L0(spec, green_solve(spec, h, DecayProfile(delta=delta)))
    interior = np.abs(h.grid()) <= 15.0
    return np.max(np.abs(back.materialize()[interior] - h.values[interior]))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_apply_after_solve_is_identity(m):
    assert _round_trip_error(m) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(m=st.integers(0, 3), delta=st.floats(0.3, 0.9), a=st.floats(1.0, 3.0))
@example(m=0, delta=0.375, a=1.0)
def test_apply_after_solve_round_trip(m, delta, a):
    # the identity above over a family of sources, decay rate delta and core
    # width a drawn, same interior and bound.  Mode 0's contour sits at
    # 0.4 delta, so below delta ~0.4 the shifted source still exceeds 1e-3
    # of its sup at s = 30 and green_solve refuses (the example above, found
    # by this test); the window its message asks for must then round-trip.
    try:
        err = _round_trip_error(m, delta, a)
    except TailMismatch as exc:
        assert m == 0 and "widen the window" in str(exc)
        err = _round_trip_error(m, delta, a, half=60.0, N=8192)
    assert err <= 1e-10


@pytest.mark.parametrize("m", [1, 2, 3])
def test_solution_inherits_declared_decay(m):
    # first indicial exponent of these modes exceeds delta, so the
    # particular solution must decay at the source rate, not faster
    spec = ModeSpec(n=3, m=m)
    v = green_solve(spec, _rhs(m), DecayProfile(delta=DELTA))
    assert abs(fit_tail_rate(v, "+") + DELTA) <= 0.05 * DELTA
    assert abs(fit_tail_rate(v, "-") - DELTA) <= 0.05 * DELTA


@pytest.mark.parametrize("side", ["right", "left", "", "+-", None])
def test_fit_tail_rate_rejects_unknown_side(side):
    # any side but '+' once read as the left tail: 'right' fitted +0.5 on e^{-0.5|s|}
    v = LineFunction.from_callable(lambda s: np.exp(-0.5 * np.abs(s)), -30.0, 30.0, 1024)
    with pytest.raises(ValidationError, match="side"):
        fit_tail_rate(v, side)


def _fit_tail_rate_on_masks(v, side):
    """fit_tail_rate as first written, on full-length boolean masks: the
    oracle for the index-range version."""
    band, floor_rel, blocks = (0.45, 0.82), 1e-12, 8
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
    mask = (s >= lo) & (s <= hi) & (y > floor_rel * sup)
    if mask.sum() < 8:
        return None
    edges = np.linspace(lo, hi, blocks + 1)
    xs, ys = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mb = mask & (s >= a) & (s < b)
        if np.any(mb):
            k = np.argmax(np.where(mb, y, -1.0))
            xs.append(s[k])
            ys.append(np.log(y[k]))
    if len(xs) < 3:
        return None
    return float(np.polyfit(np.array(xs), np.array(ys), 1)[0]) + v.envelope_rate


_TAIL_SAMPLES = {
    "decaying": lambda s, r, w, c, rng: np.exp(-r * np.abs(s)),
    "oscillatory": lambda s, r, w, c, rng: np.exp(-r * np.abs(s)) * np.cos(w * s),
    "narrow": lambda s, r, w, c, rng: np.exp(-((s - c) / (0.05 * w)) ** 2),
    "noisy": lambda s, r, w, c, rng: rng.normal(size=s.size) * np.exp(-r * np.abs(s)),
    "stepped": lambda s, r, w, c, rng: np.floor(8.0 * np.exp(-r * np.abs(s))) / 8.0,
    # sup 1 and a tail clipped to exactly the noise floor 1e-12, which is excluded
    "clipped": lambda s, r, w, c, rng: np.maximum(np.exp(-r * np.abs(s - s[0])), 1e-12),
}


@settings(max_examples=150, deadline=None)
@given(N=st.integers(16, 4096), half=st.floats(0.5, 80.0), shift=st.floats(-20.0, 20.0),
       kind=st.sampled_from(sorted(_TAIL_SAMPLES)), r=st.floats(0.0, 4.0),
       w=st.floats(0.01, 8.0), c=st.floats(-1.0, 1.0), seed=st.integers(0, 2**16),
       envelope=st.sampled_from([0.0, -0.75, 0.3]), side=st.sampled_from(["+", "-"]))
def test_fit_tail_rate_equals_the_mask_oracle(N, half, shift, kind, r, w, c, seed, envelope,
                                              side):
    # the band and its blocks read as index ranges pick the same points, so
    # the fit is bit-equal, None included
    s0 = shift - half
    s = s0 + (2.0 * half / N) * np.arange(N)
    values = _TAIL_SAMPLES[kind](s, r, w, c * half, np.random.default_rng(seed))
    v = LineFunction(s0=s0, ds=2.0 * half / N, N=N, values=values, envelope_rate=envelope)
    assert fit_tail_rate(v, side) == _fit_tail_rate_on_masks(v, side)


@pytest.mark.parametrize("side", ["+", "-"])
def test_fit_tail_rate_on_samples_at_the_cuts(side):
    # with s = -200 + k/4 the band [90, 164] (mirrored for '-') and its block
    # edges 90, 99.25, ..., 164 are grid points.  The band is closed, a block
    # is closed on the left and open on the right, a tie picks the first
    # sample and a sample on the floor 1e-12 * sup is left out
    v = LineFunction(s0=-200.0, ds=0.25, N=1600, values=np.zeros(1600))
    s = v.grid()
    cuts = np.linspace(90.0, 164.0, 9) * (1.0 if side == "+" else -1.0)
    assert np.isin(cuts, s).all()
    # the sup at s = -150 and eight nonzero samples in the band: the cuts
    # but one interior edge, so the count needs both ends of the band
    sparse = np.zeros(1600)
    sparse[200] = 1.0
    sparse[np.searchsorted(s, np.delete(cuts, 1))] = np.exp(-0.05 * np.abs(np.delete(cuts, 1)))
    profiles = [np.exp(-0.05 * np.abs(s)), sparse,
                np.ceil(8.0 * np.exp(-0.02 * np.abs(s))) / 8.0,       # steps of 1/8
                np.maximum(np.exp(-0.2 * np.abs(s)), 1e-12)]         # floor from |s| = 138
    for values in profiles:
        w = replace(v, values=values)
        rate = fit_tail_rate(w, side)
        assert rate is not None and rate == _fit_tail_rate_on_masks(w, side)


def test_explicit_beta_needs_no_indicial_ladder_past_delta():
    # with beta given, the declared rate only gates the right-tail fit; a
    # rate far above every tabulated exponent must not block the solve
    spec = ModeSpec(n=3, m=1)
    h = _rhs(1, delta=80.0)
    v = green_solve(spec, h, DecayProfile(delta=80.0), beta=0.5)
    back = apply_L0(spec, v).materialize()
    interior = np.abs(v.grid()) <= 15.0
    err = np.max(np.abs(back[interior] - h.values[interior]))
    assert err <= 1e-10 * np.max(np.abs(h.values))


@pytest.mark.parametrize("m,beta,delta", [(0, 0.0, DELTA), (1, 1.0005, 1.5),
                                          (1, -0.9995, 1.5)])
def test_explicit_beta_on_an_indicial_exponent_rejected(m, beta, delta):
    # n = 3: mode 0 has sigma = 0 (the oscillatory pair, whose tau0 the
    # lattice misses), mode 1 has sigma = 1; on these contours the grid minimum
    # of the shifted multiplier stays above its floor, so only the margin stops them
    with pytest.raises(ResonanceError, match="indicial exponent"):
        green_solve(ModeSpec(n=3, m=m), _rhs(m, delta=delta), DecayProfile(delta=delta),
                    beta=beta)


@pytest.mark.parametrize("m,beta,delta", [(0, None, DELTA), (1, None, DELTA),
                                          (2, None, 0.75), (3, None, DELTA), (1, 0.5, 1.5)])
def test_round_trip_bit_equal_to_an_uncached_multiplier(m, beta, delta):
    # the solve builds the shifted multiplier, the apply reads it back; both
    # halves equal the same steps with Theta_m(xi - i*rate) - kappa built here
    spec, h = ModeSpec(n=3, m=m), _rhs(m, delta=delta)
    modegreen._multiplier.cache_clear()
    v = green_solve(spec, h, DecayProfile(delta=delta), beta=beta)
    back = apply_L0(spec, v)
    rate = v.envelope_rate
    M = theta_analytic(spec, frequencies(h.N, h.ds) - 1j * rate) - constants(3).kappa
    g = h.values * np.exp(-rate * h.grid()) if rate != 0.0 else h.values
    w = np.fft.irfft(np.fft.rfft(g) / M, h.N)
    assert v.values.tobytes() == w.tobytes()
    assert back.values.tobytes() == np.fft.irfft(M * np.fft.rfft(w), h.N).tobytes()
    assert modegreen._multiplier.cache_info()[:2] == (1, 1)  # hits, misses


def _counted_theta(monkeypatch):
    calls = []

    def spy(spec, zeta):
        calls.append(np.shape(zeta))
        return theta_analytic(spec, zeta)
    monkeypatch.setattr(modegreen, "theta_analytic", spy)
    modegreen._multiplier.cache_clear()
    return calls


def test_one_symbol_continuation_per_round_trip(monkeypatch):
    calls = _counted_theta(monkeypatch)
    for m in range(4):
        spec, h = ModeSpec(n=3, m=m), _rhs(m)
        apply_L0(spec, green_solve(spec, h, DecayProfile(delta=DELTA)))
        assert len(calls) == m + 1
    assert calls == [(h.N // 2 + 1,)] * 4


def test_shared_multiplier_is_read_only():
    spec, h = ModeSpec(n=3, m=1), _rhs(1)
    v = green_solve(spec, h, DecayProfile(delta=DELTA))
    M = modegreen._multiplier(spec, h.N, h.ds, v.envelope_rate)
    assert M.dtype == np.complex128 and M.shape == (h.N // 2 + 1,)
    assert not M.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        M[0] = 0.0


def test_shared_multiplier_checked_on_every_call(monkeypatch):
    # n = 3, m = 1: sigma = 1 exactly, so on the contour beta = 1 the xi = 0
    # bin is a zero of the multiplier; with the margin off, only the grid
    # minimum stops the solve, and it must stop the second (cached) one too
    calls = _counted_theta(monkeypatch)
    spec, h, prof = ModeSpec(n=3, m=1), _rhs(1, delta=1.5), DecayProfile(delta=1.5)
    for _ in range(2):
        with pytest.raises(ResonanceError, match="indicial exponent"):
            green_solve(spec, h, prof, beta=1.0)  # the margin check
    monkeypatch.setattr(modegreen, "_BETA_MARGIN", 0.0)
    for _ in range(2):
        with pytest.raises(ResonanceError, match="nearly vanishes"):
            green_solve(spec, h, prof, beta=1.0)
    assert len(calls) == 1
    # the alias check reads each call's own spectrum
    v = LineFunction.from_callable(lambda s: 1.0 + 0.2 * np.cos(157.0 * s), -30.0, 30.0, 4096)
    for _ in range(2):
        with pytest.warns(AliasWarning, match="top frequency decade"):
            apply_L0(ModeSpec(n=3, m=0), v)
    assert len(calls) == 2


def test_pole_error_is_never_cached(monkeypatch):
    # n = 3, m = 0: A = 1, so the envelope rate +-2A puts a numerator Gamma
    # on its pole at xi = 0
    calls = _counted_theta(monkeypatch)
    spec = ModeSpec(n=3, m=0)
    for rate in (2.0, 2.0, -2.0):
        v = replace(_rhs(0), envelope_rate=rate)
        with pytest.raises(PoleError):
            apply_L0(spec, v)
    assert len(calls) == 3 and modegreen._multiplier.cache_info().currsize == 0


def test_green_solve_fits_the_right_tail_once(monkeypatch):
    # only the +inf rate is declared, so only the right tail is fitted
    sides = []

    def spy(v, side="+"):
        sides.append(side)
        return fit_tail_rate(v, side)

    monkeypatch.setattr(modegreen, "fit_tail_rate", spy)
    green_solve(ModeSpec(n=3, m=1), _rhs(1), DecayProfile(delta=DELTA))
    assert sides == ["+"]


def test_homogeneous_basis_annihilated():
    for m in range(4):
        spec = ModeSpec(n=3, m=m)
        for w in homogeneous_basis(spec):
            lw = apply_L0(spec, w)
            rel = np.max(np.abs(lw.values)) / (
                constants(3).kappa * np.max(np.abs(w.values)))
            assert rel <= 1e-9


def test_kernel_even_and_normalized():
    s_half = np.linspace(1.25, 3.0, 64)
    s = np.concatenate([-s_half[::-1], s_half])
    vals, trunc = synthesize_kernel(ModeSpec(n=3, m=0), s)
    assert np.max(np.abs(vals - vals[::-1])) <= 1e-8
    assert np.max(trunc) <= 1e-8  # first omitted residue term, pointwise


def test_mode0_sine_coefficient_value():
    # 2 / Theta'(tau0) at n = 3, frozen from a 40-digit mpmath derivative
    got = 2.0 / abs(first_root(ModeSpec(n=3, m=0)).dtheta)
    assert abs(got - 2.2971976106098572) <= 1e-13


def test_overclaimed_decay_rejected():
    # declaring faster decay than the data has leaves visible mass at the
    # shifted window ends; the solve must refuse rather than wrap it around
    h = _rhs(1, delta=0.3, half=12.0, N=1024)
    with pytest.raises(TailMismatch):
        green_solve(ModeSpec(n=3, m=1), h, DecayProfile(delta=1.2), beta=0.9)


def test_classify_growth_trivial_for_roundoff():
    spec = ModeSpec(n=3, m=1)
    cat = root_catalog(spec, 3)
    noise = LineFunction(-15.0, 30.0 / 1024, 1024,
                         1e-14 * np.ones(1024), 1, 0.0)
    verdict = classify_growth(noise, -0.5, spec, cat)
    assert verdict.verdict == "trivial"
    assert verdict.sup <= 1e-6


def test_classify_growth_flags_homogeneous_content():
    # a genuine homogeneous solution violates the weighted bound and its
    # basis coordinates are recovered
    spec = ModeSpec(n=3, m=1)
    cat = root_catalog(spec, 3)
    w = homogeneous_basis(spec)[0]
    verdict = classify_growth(w, -0.5, spec, cat)
    assert verdict.verdict != "trivial"
    assert verdict.coefficients is not None
    assert np.max(np.abs(verdict.coefficients)) > 1e-3


def test_materialize_matches_envelope_algebra():
    f = replace(LineFunction.from_callable(np.cos, -4.0, 4.0, 256), envelope_rate=0.3)
    s = f.grid()
    assert np.allclose(f.materialize(), np.cos(s) * np.exp(0.3 * s), rtol=1e-14)


@settings(max_examples=25, deadline=None)
@given(rate=st.floats(-0.5, 0.5), scale=st.floats(0.1, 10.0))
def test_apply_L0_is_linear_in_scale(rate, scale):
    spec = ModeSpec(n=3, m=1)
    f = replace(LineFunction.from_callable(lambda s: np.exp(-0.3 * s * s),
                                           -10.0, 10.0, 512, mode=1),
                envelope_rate=rate)
    g = LineFunction(f.s0, f.ds, f.N, scale * f.values, 1, rate)
    a = apply_L0(spec, f)
    b = apply_L0(spec, g)
    assert np.allclose(b.values, scale * a.values, rtol=1e-10, atol=1e-12)


def test_grid_mismatch_rejected():
    with pytest.raises(ValidationError):
        LineFunction(-1.0, 0.1, 32, np.zeros(16), 0, 0.0)


def test_complex_samples_rejected():
    with pytest.raises(ValidationError, match="real"):
        LineFunction(-1.0, 0.1, 32, np.ones(32, dtype=complex), 0, 0.0)


def test_apply_L0_matches_full_spectrum_multiplier():
    # the half-spectrum path against the signed full frequency grid, with the
    # multiplier built here from theta_analytic on xi - i*rate
    spec = ModeSpec(n=3, m=2)
    kappa = constants(3).kappa
    for N, rate in ((512, 0.0), (512, 0.3), (511, -0.2)):
        f = replace(LineFunction.from_callable(lambda s: np.exp(-0.3 * s * s) * (1 + s),
                                               -10.0, 10.0, N, mode=2),
                    envelope_rate=rate)
        xi = 2.0 * np.pi * np.fft.fftfreq(N, d=f.ds)
        M = theta_analytic(spec, xi - 1j * rate) - kappa
        want = np.real(np.fft.ifft(M * np.fft.fft(f.values)))
        got = apply_L0(spec, f).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_criterion4_right_side_raises_no_alias_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", AliasWarning)
        for m in range(4):
            spec = ModeSpec(n=3, m=m)
            h = _rhs(m)
            apply_L0(spec, h)
            apply_L0(spec, green_solve(spec, h, DecayProfile(delta=DELTA)))


def test_top_decade_cosine_warns():
    # 1 + a cos(k s) puts a^2/2 / (1 + a^2/2) = 1.5% of the full-spectrum
    # energy at +-k; the half spectrum holds only one of the two bins, so it
    # reads the fraction right only if it counts that bin twice
    N, half, a, j = 4096, 30.0, 0.1745, 1500
    k = 2.0 * np.pi * j / (2.0 * half)
    v = LineFunction.from_callable(lambda s: 1.0 + a * np.cos(k * s), -half, half, N)
    power = np.abs(np.fft.fft(v.values)) ** 2
    xi = np.abs(np.fft.fftfreq(N))
    frac = power[xi >= 0.1 * xi.max()].sum() / power.sum()
    assert 0.0149 < frac < 0.0151
    with pytest.warns(AliasWarning, match="top frequency decade"):
        apply_L0(ModeSpec(n=3, m=0), v)
