"""Mode-wise line solves: inversion identities, tails, kernel symmetry."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neckforge import modegreen, specfun, symbol
from neckforge.errors import (AliasWarning, PoleError, ResonanceError, TailMismatch,
                              ValidationError)
from neckforge.indicial import IndicialRoot, RootCatalog, first_root
from neckforge.modegreen import (DecayProfile, LineFunction, apply_L0, fit_tail_rate,
                                 green_solve, homogeneous_basis, synthesize_kernel)
from neckforge.symbol import ModeSpec, constants, frequencies, theta, theta_analytic

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


# interior round-trip bound per gamma, about three times the worst measured
# over m = 1..3 before the real contour read theta_table (1.6e-14, 3.4e-13;
# 1.4e-14 and 3.8e-13 since)
FRACTIONAL_ROUNDTRIP_TOL = {0.3: 5e-14, 0.8: 1e-12}


@pytest.mark.parametrize("gamma", sorted(FRACTIONAL_ROUNDTRIP_TOL))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_fractional_round_trip_on_the_real_contour(m, gamma):
    # beta = 0: the solve and the apply both read theta_table's row at gamma
    spec, h = ModeSpec(n=3, gamma=gamma, m=m), _rhs(m)
    v = green_solve(spec, h, DecayProfile(delta=DELTA))
    assert v.envelope_rate == 0.0
    back = apply_L0(spec, v).values
    interior = np.abs(h.grid()) <= 15.0
    err = np.max(np.abs(back[interior] - h.values[interior]))
    assert err <= FRACTIONAL_ROUNDTRIP_TOL[gamma]


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


def _tail_points_on_masks(v, side):
    """The points fit_tail_rate fits, picked as first written, on full-length
    boolean masks: the oracle for the index-range version."""
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
    return np.array(xs), np.array(ys)


def _assert_fit_matches_the_mask_oracle(v, side):
    # the index ranges pick the oracle's points bit for bit, None included;
    # the closed-form slope on them meets np.polyfit's to roundoff (worst
    # measured 3.4e-13 of 1 + |rate| over about 15,000 random fits)
    points, want = modegreen._tail_points(v, side), _tail_points_on_masks(v, side)
    rate = fit_tail_rate(v, side)
    if want is None:
        assert points is None and rate is None
        return
    assert [p.tobytes() for p in points] == [p.tobytes() for p in want]
    oracle = float(np.polyfit(*want, 1)[0]) + v.envelope_rate
    assert abs(rate - oracle) <= 1e-12 * (1.0 + abs(oracle))


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
    # the band and its blocks read as index ranges pick the same points
    s0 = shift - half
    s = s0 + (2.0 * half / N) * np.arange(N)
    values = _TAIL_SAMPLES[kind](s, r, w, c * half, np.random.default_rng(seed))
    v = LineFunction(s0=s0, ds=2.0 * half / N, N=N, values=values, envelope_rate=envelope)
    _assert_fit_matches_the_mask_oracle(v, side)


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
        assert fit_tail_rate(w, side) is not None
        _assert_fit_matches_the_mask_oracle(w, side)


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
    # the solve builds the multiplier, the apply reads it back; both halves
    # equal the same steps with Theta_m - kappa built here: on the real
    # contour from theta on the bins (theta_table's row m, bit for bit), off
    # it from the continuation Theta_m(xi - i*rate)
    spec, h = ModeSpec(n=3, m=m), _rhs(m, delta=delta)
    modegreen._multiplier.cache_clear()
    v = green_solve(spec, h, DecayProfile(delta=delta), beta=beta)
    back = apply_L0(spec, v)
    rate, xi = v.envelope_rate, frequencies(h.N, h.ds)
    assert (rate == 0.0) == (beta is None and m > 0)
    if rate == 0.0:
        M = theta(spec, xi) - constants(3).kappa
    else:
        M = theta_analytic(spec, xi - 1j * rate) - constants(3).kappa
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
    # a continuation runs on shifted contours only: one per shifted round
    # trip (mode 0, and mode 1 on an explicit contour), none on the real
    # contour (modes 1..3 at beta = 0)
    calls, shifted = _counted_theta(monkeypatch), 0
    for m, beta, delta in [(0, None, DELTA), (1, None, DELTA), (2, None, DELTA),
                           (3, None, DELTA), (1, 0.5, 1.5)]:
        spec, h = ModeSpec(n=3, m=m), _rhs(m, delta=delta)
        v = green_solve(spec, h, DecayProfile(delta=delta), beta=beta)
        apply_L0(spec, v)
        shifted += v.envelope_rate != 0.0
        assert len(calls) == shifted
    assert calls == [(h.N // 2 + 1,)] * 2


def test_warm_real_round_trip_evaluates_no_log_gamma(monkeypatch):
    # once the table rows exist, a real-contour round trip reads them: no
    # theta, no continuation, and no log-Gamma of any route
    cases = [(ModeSpec(n=3, m=m), _rhs(m)) for m in (1, 2, 3)]
    for spec, h in cases:
        apply_L0(spec, green_solve(spec, h, DecayProfile(delta=DELTA)))
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    counted(modegreen, "theta_analytic")
    counted(symbol, "theta")
    counted(specfun, "_log_gamma_core")
    for spec, h in cases:
        v = green_solve(spec, h, DecayProfile(delta=DELTA))
        assert v.envelope_rate == 0.0
        apply_L0(spec, v)
    assert calls == []
    assert modegreen._multiplier.cache_info().hits >= 3


def test_warm_shifted_round_trip_evaluates_no_log_gamma(monkeypatch):
    # the green benchmark's 8 cases: once each contour is cached, mode 0's two
    # shifted contours stay warm even with real-contour trips between them;
    # the right-tail fit is a closed-form slope, so no trip reaches a LAPACK
    # least-squares solve either
    cases = {(m, delta): (ModeSpec(n=3, m=m), _rhs(m, delta=delta))
             for m in range(4) for delta in (0.5, 0.75)}

    def sweep(order):
        out = {}
        for key in order:
            spec, h = cases[key]
            v = green_solve(spec, h, DecayProfile(delta=key[1]))
            out[key] = (v, apply_L0(spec, v))
        return out

    modegreen._multiplier.cache_clear()
    first = sweep(list(cases))
    assert all((first[m, d][0].envelope_rate != 0.0) == (m == 0) for m, d in cases)
    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)

    counted(modegreen, "theta_analytic")
    counted(symbol, "theta")
    counted(specfun, "_log_gamma_core")

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK least squares in a Green round trip")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    again = sweep([(0, 0.5), (1, 0.75), (2, 0.5), (3, 0.75),
                   (0, 0.75), (3, 0.5), (1, 0.5), (2, 0.75)])
    assert calls == []
    for key, (v, back) in first.items():
        assert again[key][0].values.tobytes() == v.values.tobytes()
        assert again[key][1].values.tobytes() == back.values.tobytes()


def test_multiplier_cache_is_bounded():
    # 20 contours for one mode (clear of the pole at rate 4): the cache keeps
    # the last 16, and the evicted first one is rebuilt bit for bit
    spec, h = ModeSpec(n=3, m=2), _rhs(2)
    modegreen._multiplier.cache_clear()
    applied = [apply_L0(spec, replace(h, envelope_rate=0.05 * k)) for k in range(1, 21)]
    assert modegreen._multiplier.cache_info().currsize == 16
    misses = modegreen._multiplier.cache_info().misses
    again = apply_L0(spec, replace(h, envelope_rate=0.05))
    assert modegreen._multiplier.cache_info().misses == misses + 1
    assert again.values.tobytes() == applied[0].values.tobytes()


def test_shared_multiplier_is_read_only():
    # float64 on the real contour (a theta_table row less kappa), complex128
    # off it; read-only either way
    for beta, delta, dtype in [(None, DELTA, np.float64), (0.5, 1.5, np.complex128)]:
        spec, h = ModeSpec(n=3, m=1), _rhs(1, delta=delta)
        v = green_solve(spec, h, DecayProfile(delta=delta), beta=beta)
        M = modegreen._multiplier(spec, h.N, h.ds, v.envelope_rate)
        assert M.dtype == dtype and M.shape == (h.N // 2 + 1,)
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
    # the alias check reads each call's own spectrum; at rate 0 the cached
    # multiplier is a table row, so no continuation runs for it
    v = LineFunction.from_callable(lambda s: 1.0 + 0.2 * np.cos(157.0 * s), -30.0, 30.0, 4096)
    for _ in range(2):
        with pytest.warns(AliasWarning, match="top frequency decade"):
            apply_L0(ModeSpec(n=3, m=0), v)
    assert len(calls) == 1
    assert modegreen._multiplier.cache_info()[:2] == (2, 2)  # hits, misses


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


def test_kernel_truncation_small_off_the_origin():
    # the series is even by construction (mirror formulas on mirrored
    # points), so only its truncation is checked here; criterion 4 checks
    # its values against green_solve
    s_half = np.linspace(1.25, 3.0, 64)
    s = np.concatenate([-s_half[::-1], s_half])
    _, trunc = synthesize_kernel(ModeSpec(n=3, m=0), s)
    assert np.max(trunc) <= 1e-8  # first omitted residue term, pointwise


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kernel_truncation_estimate_is_finite(n):
    # Theta_m is strictly increasing in |xi|, so a catalog holds at most one
    # root with sigma = 0 and a decaying root is always left past the seven
    # the series sums
    s = np.linspace(-3.0, 3.0, 13)
    for gamma in (0.3, 0.5, 0.8):
        for m in range(4):
            _, trunc = synthesize_kernel(ModeSpec(n=n, gamma=gamma, m=m), s)
            assert np.all(np.isfinite(trunc)) and np.all(trunc > 0.0)


@settings(max_examples=300, deadline=None)
@given(ladder=st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=8, unique=True),
       on_axis=st.booleans(), delta=st.floats(1e-3, 25.0))
@example(ladder=[1.0, 2.0], on_axis=False, delta=1.02)
@example(ladder=[1.0, 2.0], on_axis=True, delta=0.5)
@example(ladder=[1.0], on_axis=True, delta=0.02)
def test_select_beta_on_synthetic_ladders(ladder, on_axis, delta):
    # refused exactly when the declared rate is within 0.02 of an exponent;
    # otherwise 0 with no exponent below the rate, else strictly inside the
    # gap with the 1e-3 margin to spare on both sides
    sigmas = sorted(([0.0] if on_axis else []) + ladder)
    roots = tuple(IndicialRoot(sigma=sg, tau=0.0, residual=0.0, dtheta=1.0) for sg in sigmas)
    catalog = RootCatalog(roots=roots, search_box=(0.0, 30.0, 0.0, 1.0), certified=True)
    profile = DecayProfile(delta=delta)
    if min(abs(delta - sg) for sg in sigmas) < 0.02:
        with pytest.raises(ResonanceError, match="resonance margin"):
            modegreen._select_beta(profile, catalog)
        return
    beta = modegreen._select_beta(profile, catalog)
    below = [sg for sg in sigmas if sg < delta]
    if not below:
        assert beta == 0.0
    else:
        assert max(below) + 1e-3 < beta < delta - 1e-3


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


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("beta", [0.2, 0.45, None], ids=["beta0.2", "beta0.45", "default"])
def test_green_solve_is_additive(m, beta):
    # one contour, one linear map: G(h + h_a) = G h + G h_a to round-off
    # (at most 4.4e-16 of max|G(h + h_a)| over these cases)
    spec, prof = ModeSpec(n=3, m=m), DecayProfile(delta=0.75)
    h, h_a = _rhs(m, delta=0.75), _rhs(m, delta=0.8, a=1.0)
    kw = {} if beta is None else {"beta": beta}
    total = green_solve(spec, replace(h, values=h.values + h_a.values), prof, **kw)
    parts = [green_solve(spec, f, prof, **kw) for f in (h, h_a)]
    assert total.envelope_rate == parts[0].envelope_rate == parts[1].envelope_rate
    gap = np.max(np.abs(total.values - parts[0].values - parts[1].values))
    assert gap <= 1e-14 * np.max(np.abs(total.values))


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


@pytest.mark.parametrize("s0, ds", [(np.nan, 0.25), (np.inf, 0.25), (-np.inf, 0.25),
                                    (0.0, np.inf), (0.0, np.nan)])
def test_non_finite_grid_rejected(s0, ds):
    with pytest.raises(ValidationError, match="finite"):
        LineFunction(s0, ds, 64, np.zeros(64), 0, 0.0)


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


def _masked_power_fraction(vhat, N, ds):
    """The alias fraction as first written: |vhat|^2 with the paired bins
    doubled, summed under a full-length mask of the top decade."""
    xi = frequencies(N, ds)
    power = np.abs(vhat) ** 2
    power[1:(N + 1) // 2] *= 2.0
    return power[xi >= 0.1 * xi[-1]].sum() / power.sum()


@pytest.mark.parametrize("N", [4096, 4095])
@pytest.mark.parametrize("target", [0.009, 0.011])
def test_alias_rule_at_the_nyquist_bin(N, target):
    # a half spectrum with energy 1.5 below the top decade and the rest split
    # between the last bin (unpaired Nyquist for even N, a +-xi pair for odd
    # N) and one paired top-decade bin; the rule reads the masked fraction
    ds = 60.0 / N
    top = target * 1.5 / (1.0 - target)
    vhat = np.zeros(N // 2 + 1, dtype=complex)
    vhat[0], vhat[1] = 1.0, 0.5
    vhat[-1] = np.sqrt(0.5 * top / (1.0 if N % 2 == 0 else 2.0))
    vhat[-10] = np.sqrt(0.25 * top) * np.exp(0.3j)
    want = _masked_power_fraction(vhat, N, ds)
    assert abs(want - target) <= 1e-12
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        frac = modegreen._alias_check(vhat, N, ds, "probe")
    assert abs(frac - want) <= 1e-15 * want
    assert [w.category for w in caught] == ([AliasWarning] if want > 0.01 else [])
