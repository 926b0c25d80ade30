"""log_gamma against mpmath on the strips the symbol actually visits."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, loggamma

from neckforge import specfun, symbol
from neckforge.errors import PoleError
from neckforge.specfun import POLE_TOL, log_gamma, log_rgamma
from neckforge.symbol import ModeSpec, constants, theta_analytic


def _ref(z):
    return complex(mpmath.loggamma(complex(z)))


@pytest.mark.parametrize("z", [
    0.5, 1.0, 3.7, 12.25,
    0.75 + 0.3j, 1.25 + 4.0j, 0.25 + 17.0j, 2.0 - 9.5j,
])
def test_pointwise_against_mpmath(z):
    got = complex(log_gamma(np.asarray(z, dtype=complex)))
    want = _ref(z)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("z", [-0.25 + 0.6j, -3.6 + 2.2j, -7.1 - 0.4j])
def test_left_halfplane_matches_up_to_winding(z):
    # documented contract: principal branch up to 2*pi*i*k, which cancels
    # in the Gamma-ratio exponentials downstream
    got = complex(log_gamma(np.asarray(z, dtype=complex)))
    want = _ref(z)
    assert abs(got.real - want.real) <= 1e-12 * max(1.0, abs(want.real))
    wrap = (got.imag - want.imag) / (2.0 * np.pi)
    assert abs(wrap - round(wrap)) <= 1e-12


def test_large_imaginary_part_no_overflow():
    # reflection side used to overflow through log(sin(pi z)) near |Im| ~ 230;
    # real parts must agree exactly, imaginary parts mod 2*pi
    for y in (35.0, 120.0, 495.0, -495.0):
        z = 0.25 + 1j * y
        got = complex(log_gamma(np.asarray(z, dtype=complex)))
        want = _ref(z)
        assert np.isfinite(got.real) and np.isfinite(got.imag)
        assert abs(got.real - want.real) <= 1e-12 * abs(want.real)
        wrap = (got.imag - want.imag) / (2.0 * np.pi)
        assert abs(wrap - round(wrap)) <= 1e-12


def test_recurrence_identity():
    # log Gamma(z+1) - log Gamma(z) = log z away from the cut
    rng = np.random.default_rng(7)
    z = rng.uniform(0.3, 4.0, 50) + 1j * rng.uniform(-6.0, 6.0, 50)
    lhs = log_gamma(z + 1.0) - log_gamma(z)
    assert np.max(np.abs(lhs - np.log(z))) <= 5e-13


def test_conjugation_symmetry():
    # exact, bit for bit, on the strips the continuation visits: theta_analytic
    # evaluates the rows A - h and B - h of a real zeta as well as A + h and
    # B + h, and relies on getting the conjugates of the latter
    rng = np.random.default_rng(34)
    z = rng.uniform(0.25, 5100.0, 20_000) + 1j * rng.uniform(-5000.0, 5000.0, 20_000)
    for fn in (log_gamma, log_rgamma):
        assert np.array_equal(fn(np.conj(z)), np.conj(fn(z)))


def test_pole_raises():
    with pytest.raises(PoleError):
        log_gamma(np.asarray(-2.0 + 0.0j))


@pytest.mark.parametrize("n", range(2, 9))
def test_curvature_constant_to_the_last_digits(n):
    # c = 2 Gamma((n+1)/4)^2 / Gamma((n-1)/4)^2, all arguments on the real axis
    with mpmath.workdps(40):
        want = 2 * mpmath.gamma(mpmath.mpf(n + 1) / 4) ** 2 \
            / mpmath.gamma(mpmath.mpf(n - 1) / 4) ** 2
        assert abs((constants(n).c - want) / want) <= 5e-16


def test_right_halfplane_against_mpmath():
    # Re z in [0.5, 8], |Im z| <= 300: the strip every symbol evaluation visits
    rng = np.random.default_rng(11)
    z = rng.uniform(0.5, 8.0, 300) + 1j * rng.uniform(-300.0, 300.0, 300)
    z[:60] = z[:60].real + 1j * rng.uniform(-3.0, 3.0, 60)
    z[60:70] = z[60:70].real
    got = log_gamma(z)
    want = np.array([complex(mpmath.loggamma(complex(w))) for w in z])
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-14


_INSIDE = st.floats(-0.99 * POLE_TOL, 0.99 * POLE_TOL)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(0, 200), dx=_INSIDE, dy=_INSIDE)
def test_pole_neighbourhood_raises(k, dx, dy):
    with pytest.raises(PoleError):
        log_gamma(np.asarray(complex(-k + dx, dy)))
    with pytest.raises(PoleError):
        log_gamma(np.array([1.5 + 2.0j, complex(-k + dx, dy)]))


def _off_pole(x, y):
    nearest = round(x)
    return not (nearest <= 0 and abs(x - nearest) < POLE_TOL and abs(y) < POLE_TOL)


_NEAR = st.floats(-1e-9, 1e-9)


@settings(max_examples=300, deadline=None)
@given(z=st.one_of(
    st.builds(complex, st.floats(-200.0, 200.0), st.floats(-300.0, 300.0)),
    st.builds(lambda k, dx, dy: complex(-k + dx, dy), st.integers(0, 200), _NEAR, _NEAR),
))
def test_finite_off_the_poles(z):
    if not _off_pole(z.real, z.imag):
        return
    assert np.isfinite(complex(log_gamma(np.asarray(z))))
    assert np.all(np.isfinite(log_gamma(np.array([z, np.conj(z)]))))


def test_symbol_zero_at_denominator_poles():
    # B + i zeta/2 = -k at zeta = 2i(B + k): the symbol vanishes exactly there
    spec = ModeSpec(n=3, m=0)
    zeros = np.array([2j * (spec.b_offset + k) for k in range(4)])
    zeta = np.concatenate([zeros, -zeros, [0.7 + 0.2j]])
    vals = theta_analytic(spec, zeta)
    assert np.all(vals[:8] == 0.0)
    assert np.isfinite(vals[8]) and vals[8] != 0.0
    assert theta_analytic(spec, zeros[1]) == 0.0


def test_log_rgamma_negates_log_gamma_and_is_minus_inf_on_poles():
    z = np.array([0.5, 3.7, 0.75 + 0.3j, -2.5 + 0.1j, 2.0 - 9.5j])
    assert np.array_equal(log_rgamma(z), -log_gamma(z))
    assert log_rgamma(1.25 + 4.0j) == -log_gamma(1.25 + 4.0j)
    poles = np.array([0.0, -1.0, -7.0 + 0.5 * POLE_TOL, -3.0 - 0.5j * POLE_TOL])
    out = log_rgamma(np.concatenate([poles, z]))
    assert np.all(out[:4] == -np.inf) and np.array_equal(out[4:], -log_gamma(z))
    assert log_rgamma(-4.0) == -np.inf


def test_log_rgamma_keeps_a_2d_stack_row_by_row():
    # theta_analytic passes its Gamma arguments as one (rows, k) stack
    rows = np.array([[0.5, 3.7, 0.75 + 0.3j], [1.25 + 4.0j, -3.0, 2.0 - 9.5j],
                     [-2.5 + 0.1j, 12.25, 0.25 + 17.0j], [2.0 + 9.5j, 0.75 - 0.3j, 1.0]])
    out = log_rgamma(rows)
    assert out.shape == rows.shape
    assert np.array_equal(out, np.array([log_rgamma(r) for r in rows]))
    assert np.argwhere(out.real == -np.inf).tolist() == [[1, 1]] and out[1, 1] == -np.inf
    off = np.ones(rows.shape, dtype=bool)
    off[1, 1] = False
    assert np.array_equal(out[off], -log_gamma(rows[off]))


def _split_reference(z, reciprocal):
    """Entry by entry: gammaln on the positive real axis (a -0.0 imaginary
    part included), scipy's complex loggamma elsewhere, and for log 1/Gamma
    exactly -inf on the poles."""
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty(z.shape, dtype=np.complex128)
    for idx in np.ndindex(z.shape):
        w = z[idx]
        if reciprocal and w.imag == 0.0 and w.real <= 0.0 and w.real == np.rint(w.real):
            out[idx] = complex(-np.inf, 0.0)
            continue
        val = np.complex128(gammaln(w.real)) if w.imag == 0.0 and w.real > 0.0 else loggamma(w)
        out[idx] = -val if reciprocal else val
    return out


def _bits(x):
    return np.asarray(x, dtype=np.complex128).reshape(-1).view(np.uint64)


_SPLIT_CASES = {
    "0d-real": np.asarray(2.5 + 0.0j),
    "0d-real-minus-zero": np.asarray(complex(3.0, -0.0)),
    "0d-complex": np.asarray(1.25 + 3.0j),
    "0d-negative-real": np.asarray(-2.5 + 0.0j),
    "1d-complex": np.array([0.75 + 0.3j, 1.25 + 4.0j, -3.6 + 2.2j, 2.0 - 9.5j, 0.25 + 17.0j]),
    "1d-positive-real": np.array([1e-3, 0.5, 1.0, 3.7, 12.25, 170.5], dtype=np.complex128),
    "2d-positive-real": np.array([[0.5, 1.5, 2.5], [3.5, 4.5, 5.5]], dtype=np.complex128),
    "2d-mixed": np.array([[0.5, -2.5, 1.5 + 2.0j, complex(3.0, -0.0)],
                          [complex(-1.5, -0.0), 0.25 + 17.0j, 7.0, -0.5 - 0.25j]]),
    # one positive real entry in 128: below the share that pays for a gather
    "1d-sparse-real": np.concatenate([[1.5], np.linspace(0.5, 9.0, 127) + 0.75j]),
}
_POLE_CASES = {
    "0d-pole": np.asarray(-2.0 + 0.0j),
    "1d-poles-and-reals": np.array([0.0, 0.5, -3.0, 2.0, complex(-1.0, -0.0)]),
    "2d-mixed-with-poles": np.array([[-2.0, 0.5, 1.0 + 1.0j], [0.0, complex(-1.5, -0.0),
                                                               complex(2.0, -0.0)]]),
}


@pytest.mark.parametrize("case", sorted(_SPLIT_CASES) + sorted(_POLE_CASES))
def test_log_gamma_is_the_per_entry_split_bit_for_bit(case):
    z = _SPLIT_CASES.get(case, _POLE_CASES.get(case))
    calls = [(log_rgamma, True)] + [(log_gamma, False)] * (case in _SPLIT_CASES)
    for fn, reciprocal in calls:
        got = fn(z)
        assert np.shape(got) == z.shape
        assert np.array_equal(_bits(got), _bits(_split_reference(z, reciprocal)))


def test_loggamma_runs_off_the_positive_real_axis(monkeypatch):
    # with at least 1/64 of the entries positive real, loggamma sees the
    # others only; with fewer it runs on the whole array
    seen = []

    def spy(z):
        seen.append(np.array(z, dtype=np.complex128))
        return loggamma(z)
    monkeypatch.setattr(specfun, "loggamma", spy)
    for case, z in list(_SPLIT_CASES.items()) + list(_POLE_CASES.items()):
        seen.clear()
        log_rgamma(z)
        if case == "1d-sparse-real":
            assert [w.size for w in seen] == [z.size]
            continue
        real = (z.imag == 0.0) & (z.real > 0.0)
        poles = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.rint(z.real))
        assert sum(w.size for w in seen) == np.count_nonzero(~real & ~poles)
        assert not any(np.any((w.imag == 0.0) & (w.real > 0.0)) for w in seen)


def test_theta_analytic_masks_each_argument_once(monkeypatch):
    # one pole mask per call, on the stacked Gamma arguments: 4k of them,
    # real zeta or not, whether or not a pole is hit
    masks, near_pole = [], specfun._near_pole

    def spy(z):
        masks.append(np.size(z))
        return near_pole(z)
    monkeypatch.setattr(specfun, "_near_pole", spy)
    monkeypatch.setattr(symbol, "_near_pole", spy)
    spec = ModeSpec(n=3, m=1)
    on_b_pole = ModeSpec(n=2, gamma=1.0 - 1e-13)  # B = 5e-14: a zero at zeta = 0
    cases = [(spec, 0.7 + 0.2j, 4), (spec, -1.3j, 4), (spec, 2j * (spec.b_offset + 1), 4),
             (spec, 0.7, 4), (spec, 0.0, 4), (on_b_pole, 0.0, 4),
             (spec, np.linspace(-4.0, 4.0, 9) + 0.5j, 36), (spec, np.linspace(-4.0, 4.0, 9), 36)]
    for sp, zeta, size in cases:
        masks.clear()
        theta_analytic(sp, zeta)
        assert masks == [size]
    masks.clear()
    with pytest.raises(PoleError, match="theta_analytic pole"):
        theta_analytic(spec, np.array([0.5j, 2j * spec.a_offset]))
    assert masks == [8]
