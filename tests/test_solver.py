"""Periodic-cylinder curvature solver and the uniform invertibility study."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.sparse.linalg

from neckforge import neck, solver
from neckforge.acceptance import EPS_SWEEP
from neckforge.errors import (Diverged, NonPositiveConformalFactor, NumericalError,
                              ResonanceError, ValidationError)
from neckforge.neck import NeckConfig, build_glued_factor, glued_u, window
from neckforge.solver import (PeriodicCylinderState, _fourier, _green_multiplier,
                              _jacobian_matvec, _residual, apply_Q, newton_solve,
                              quadratic_remainder, state_norm,
                              uniform_invertibility_study)
from neckforge.symbol import ModeSpec, constants, theta, theta_table

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _shifted(state, v):
    return PeriodicCylinderState(state.n, state.L, state.values + v)


def _perturbed(n=3, m_max=8, N_s=256, modes=(1, 2), amp=0.01):
    state = PeriodicCylinderState.ones(n, m_max=m_max, N_s=N_s)
    v = np.zeros_like(state.values)
    v[list(modes)] = amp * np.cos(2.0 * np.pi * np.arange(N_s) / N_s)
    return _shifted(state, v)


def test_state_fields_are_the_samples():
    state = PeriodicCylinderState.ones(3, m_max=4, N_s=64)
    assert [f.name for f in dataclasses.fields(state)] == ["n", "L", "values"]
    assert state.values.dtype == float and state.values.shape == (5, 64)
    assert (state.m_max, state.N_s) == (4, 64)


@pytest.mark.parametrize("values", [
    np.ones((3, 64), dtype=complex),
    np.ones(64),
    np.ones((1, 3, 64)),
], ids=["complex", "1-D", "3-D"])
def test_bad_sample_table_rejected(values):
    L = PeriodicCylinderState.ones(3, m_max=2, N_s=64).L
    with pytest.raises(ValidationError, match="real 2-D"):
        PeriodicCylinderState(3, L, values)


@pytest.mark.parametrize("L", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_bad_period_rejected(L):
    # an infinite period would put every lattice frequency at 0
    with pytest.raises(ValidationError, match="period must be positive and finite"):
        PeriodicCylinderState(3, L, PeriodicCylinderState.ones(3, m_max=2, N_s=64).values)


def test_constant_state_is_exact_solution():
    state = PeriodicCylinderState.ones(3)
    q = apply_Q(state)
    want = constants(3).c
    # Q(1) = c: the mode-0 samples average to c, and nothing else carries mass
    mean = np.mean(q[0])
    assert abs(mean - want) <= 1e-14
    off = np.abs(q - mean * state.values).sum()
    assert off <= 1e-9 * np.abs(mean)


def test_scaled_constant_closed_form():
    # Q(t * 1) = c * t^(-2/(n-1)): covariance in its simplest clothing
    n = 3
    state = PeriodicCylinderState.ones(n)
    t = 1.37
    q = apply_Q(PeriodicCylinderState(n, state.L, t * state.values))
    want = constants(n).c * t ** (-2.0 / (n - 1))
    assert abs(np.mean(q[0]) - want) <= 1e-13


def test_linearized_matches_finite_difference():
    state = PeriodicCylinderState.ones(3, m_max=4, N_s=128)
    rng = np.random.default_rng(3)
    direction = rng.standard_normal((5, 128))
    direction /= state_norm(state, direction)
    eps = 1e-6
    plus = apply_Q(_shifted(state, eps * direction))
    minus = apply_Q(_shifted(state, -eps * direction))
    fd = (plus - minus) / (2 * eps)
    lin = _jacobian_matvec(state)(direction)
    assert np.max(np.abs(fd - lin)) <= 1e-4 * np.max(np.abs(lin))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("m_max", [0, 3, 8])
def test_jacobian_at_one_is_frozen_multiplier(n, m_max):
    # DR(1) = P - kappa is the per-mode multiplier Theta_m - kappa, written
    # out here through rfft/irfft (measured 7.3e-16 relative at worst)
    state = PeriodicCylinderState.ones(n, m_max=m_max, N_s=64)
    v = np.random.default_rng(n + 10 * m_max).standard_normal(state.values.shape)
    mult = theta_table(n, 0.5, m_max, 64, state.L / 64) - constants(n).kappa
    frozen = np.fft.irfft(mult * np.fft.rfft(v, axis=1), 64, axis=1)
    got = _jacobian_matvec(state)(v)
    assert np.max(np.abs(got - frozen)) <= 1e-14 * np.max(np.abs(frozen))


def test_jacobian_matches_finite_difference():
    # exact derivative of the residual P f - c f^N at a non-constant state,
    # where it differs from the frozen operator, the derivative at f = 1
    # (measured 2.5e-10 and 3.8e-4 of max|jvp|)
    state = _perturbed()
    rng = np.random.default_rng(17)
    direction = rng.standard_normal(state.values.shape)
    direction /= state_norm(state, direction)
    eps = 1e-5
    plus = _residual(_shifted(state, eps * direction))
    minus = _residual(_shifted(state, -eps * direction))
    fd = (plus - minus) / (2 * eps)
    jvp = _jacobian_matvec(state)(direction)
    assert np.max(np.abs(fd - jvp)) <= 1e-9 * np.max(np.abs(jvp))
    frozen = _jacobian_matvec(PeriodicCylinderState.ones(3, m_max=8, N_s=256))(direction)
    assert np.max(np.abs(fd - frozen)) > 1e-4 * np.max(np.abs(jvp))


def test_jacobian_is_symmetric_off_a_solution():
    # P is a real even multiplier per mode and the zonal projection carries
    # the Gauss weights, so the dense derivative P - kappa f^{N-1} is
    # symmetric at any state (measured 1.6e-16 relative), not only at a
    # solution
    state = PeriodicCylinderState.ones(3, m_max=3, N_s=64)
    noise = np.random.default_rng(0).standard_normal(state.values.shape)
    state = _shifted(state, 0.05 * noise)
    matvec = _jacobian_matvec(state)
    dense = np.column_stack([matvec(e.reshape(state.values.shape)).ravel()
                             for e in np.eye(state.values.size)])
    assert np.max(np.abs(dense - dense.T)) <= 1e-14 * np.max(np.abs(dense))


def test_solve_then_apply_roundtrip():
    state = PeriodicCylinderState.ones(3, m_max=6, N_s=128)
    rng = np.random.default_rng(11)
    h = rng.standard_normal((7, 128))
    v = _fourier(_green_multiplier(state), h)
    back = _jacobian_matvec(state)(v)
    assert np.max(np.abs(back - h)) <= 1e-12 * np.max(np.abs(h))


def test_resonant_period_rejected():
    # a period putting 2 pi k / L exactly at the mode-0 crossing frequency
    from neckforge.indicial import first_root
    from neckforge.symbol import ModeSpec
    tau0 = first_root(ModeSpec(n=3, m=0)).tau
    L_bad = 2.0 * np.pi / tau0
    with pytest.raises(ResonanceError):
        PeriodicCylinderState(3, L_bad, np.ones((1, 256)))


def test_with_table_round_trips_the_coefficient_table():
    start = _perturbed(m_max=2, N_s=64)
    back = start.with_table(start.f_hat)
    assert (back.n, back.L) == (start.n, start.L)
    assert np.max(np.abs(back.values - start.values)) <= 1e-15


def test_non_hermitian_table_rejected():
    state = PeriodicCylinderState.ones(3, m_max=2, N_s=64)
    bad = state.f_hat.copy()
    bad[1, 3] += 1.0  # no conjugate partner: grid values become complex
    with pytest.raises(ValidationError):
        state.with_table(bad)


@pytest.mark.parametrize("build", [
    lambda: PeriodicCylinderState.ones(3, m_max=-1),
    lambda: PeriodicCylinderState(n=3, L=10.0, values=np.zeros((0, 64))),
    lambda: uniform_invertibility_study(3, [0.05], mu=-0.5, m_max=-1),
], ids=["ones", "direct", "study"])
def test_negative_m_max_rejected(build):
    with pytest.raises(ValidationError, match="m_max"):
        build()


def test_newton_converges_quadratically():
    rep = newton_solve(_perturbed(), tol=1e-11, method="newton")
    assert rep.converged
    assert rep.residual_history[-1] <= 1e-10
    assert rep.iterations <= 8
    # recovered factor is the constant 1
    flat = np.abs(rep.final_f.f_hat).sum() - np.abs(rep.final_f.f_hat[0, 0])
    assert flat <= 1e-8 * np.abs(rep.final_f.f_hat[0, 0])


def test_fixed_point_converges_linearly():
    rep = newton_solve(_perturbed(), tol=1e-11, method="fixed-point")
    assert rep.converged
    hist = [r for r in rep.residual_history if r > 1e-13]
    ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 1)]
    assert max(ratios) < 0.5


@pytest.mark.parametrize("method", ["newton", "fixed-point"])
def test_solve_runs_on_real_samples(monkeypatch, method):
    # no full complex FFT inside a solve, and the Krylov solve is real
    start = _perturbed()
    calls = []
    for name in ("fft", "ifft"):
        def spy(*args, _name=name, _orig=getattr(np.fft, name), **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(solver.np.fft, name, spy)
    dtypes = []
    lgmres = scipy.sparse.linalg.lgmres

    def lgmres_spy(A, b, M=None, **kwargs):
        dtypes.append((A.dtype, M.dtype, b.dtype))
        return lgmres(A, b, M=M, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "lgmres", lgmres_spy)
    rep = newton_solve(start, tol=1e-11, method=method)
    assert rep.converged and calls == []
    assert all(dt == np.dtype(float) for step in dtypes for dt in step)
    assert len(dtypes) == (rep.iterations if method == "newton" else 0)


_LAZY_SPARSE = """
import sys
import numpy as np
from neckforge import acceptance, cli, extension, indicial, modegreen, neck, solver
print("scipy.sparse" in sys.modules, "scipy.linalg" in sys.modules)
state = solver.PeriodicCylinderState.ones(3, m_max=8, N_s=256)
v = np.zeros_like(state.values)
v[[1, 2]] = 0.01 * np.cos(2.0 * np.pi * np.arange(256) / 256)
rep = solver.newton_solve(solver.PeriodicCylinderState(3, state.L, state.values + v),
                          tol=1e-11, method="newton")
print(rep.converged, "scipy.sparse.linalg" in sys.modules)
"""


def test_sparse_linalg_loads_on_the_first_newton_step():
    # a fresh interpreter: the package's modules, the acceptance runner and
    # the CLI load no scipy.sparse and no scipy.linalg, and a Newton solve
    # loads scipy.sparse for lgmres and converges
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _LAZY_SPARSE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True", "True"]


@pytest.mark.parametrize("method", ["newton", "fixed-point"])
def test_glued_start_converges_on_a_fine_grid(method):
    # the glued factor on 1024 samples: P amplifies the samples' rounding, so
    # the residual floor is near 1e-13 here, and a Krylov solve asked for
    # 1e-13 relative stalled at 1.3e-13 and raised ResonanceError
    cfg, N_s = NeckConfig(epsilon=0.1), 1024
    L = solver.nonresonant_window(2, cfg.L, N_s)
    start = PeriodicCylinderState(2, L, glued_u(cfg, 2, L, N_s)[0][None])
    rep = newton_solve(start, tol=1e-12, method=method)
    assert rep.converged and rep.iterations == 4


def _counting_matvecs(monkeypatch):
    matvecs = []
    jacobian = solver._jacobian_matvec

    def spy(state):
        matvec = jacobian(state)

        def counted(w):
            matvecs.append(1)
            return matvec(w)
        return counted

    monkeypatch.setattr(solver, "_jacobian_matvec", spy)
    return matvecs


def test_glued_start_reaches_the_constant_at_n3(monkeypatch):
    # n = 3, eps = 0.1 on 1024 samples: a lattice frequency sits 0.003 below
    # the mode-0 branch point, yet the Newton steps on P - kappa f^{N-1}
    # reach f = 1 in 6 steps (49 matvecs measured)
    matvecs = _counting_matvecs(monkeypatch)
    cfg, N_s = NeckConfig(epsilon=0.1), 1024
    L = solver.nonresonant_window(3, cfg.L, N_s)
    start = PeriodicCylinderState(3, L, glued_u(cfg, 3, L, N_s)[0][None])
    rep = newton_solve(start, tol=1e-12, method="newton")
    assert rep.converged and rep.iterations == 6
    assert np.max(np.abs(rep.final_f.values - 1.0)) <= 1e-13
    assert len(matvecs) <= 100


def test_near_singular_newton_step_fails_fast(monkeypatch):
    # the n = 3 bubble (c_b/c)^{1/(N-1)} sech(s) = (pi/2) sech(s) solves the
    # boundary equation on the line, and its translation kernel makes the
    # Newton derivative near-singular on the window: the Krylov solve gives
    # up after its 20 restart cycles (667 matvecs measured; 200 cycles once
    # took 5,594), and criterion 7's start still converges in 3 steps
    matvecs = _counting_matvecs(monkeypatch)
    L = solver.nonresonant_window(3, 20.0, 512)
    values = np.zeros((4, 512))
    values[0] = np.pi / 2.0 / np.cosh(window(L, 512))
    with pytest.raises(ResonanceError, match="near-singular"):
        newton_solve(PeriodicCylinderState(3, L, values), method="newton")
    assert len(matvecs) <= 1500
    assert newton_solve(_perturbed(), tol=1e-11, method="newton").iterations == 3


def test_zero_start_already_converged():
    rep = newton_solve(PeriodicCylinderState.ones(3))
    assert rep.converged and rep.iterations == 0


def test_three_rising_residuals_raise_diverged():
    # a 0.5 mode-1 bump is past Newton's basin: three rises in a row end the
    # solve, and the report it carries holds the history up to the third
    with pytest.raises(Diverged, match="iteration diverged") as err:
        newton_solve(_perturbed(modes=(1,), amp=0.5), method="newton")
    report = err.value.report
    assert not report.converged and report.iterations == 3
    assert np.round(report.residual_history, 2).tolist() == [0.84, 1.06, 1.19, 2.95]


def test_large_amplitude_leaves_positivity():
    with pytest.raises((NonPositiveConformalFactor, Diverged)):
        newton_solve(_perturbed(amp=0.6), method="fixed-point")


def test_quadratic_remainder_stable_across_amplitudes():
    state = PeriodicCylinderState.ones(3, m_max=6, N_s=128)
    rng = np.random.default_rng(5)
    direction = rng.standard_normal((7, 128))
    direction /= state_norm(state, direction)
    vals = [quadratic_remainder(state, a * direction)
            for a in (1e-2, 1e-3, 1e-4)]
    assert max(vals) / min(vals) < 3.0


@pytest.mark.parametrize("m_max", [3, 8])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_zonal_transform_round_trip(n, m_max):
    # to_modes inverts to_grid on a table of per-mode samples, and each
    # sample column is transformed alone (one column by itself gives that
    # column of the table's transform); both to roundoff on the
    # scale of the grid values summed (the normalized rows reach 6 at n = 4,
    # m = 8), as matrix and vector products sum in different orders
    to_grid, to_modes = solver._zonal(n, m_max)
    v = np.random.default_rng(n).standard_normal((m_max + 1, 16))
    grid = to_grid(v)
    back = to_modes(grid)
    assert grid.shape == (2 * (m_max + 1), 16)
    assert np.max(np.abs(back - v)) <= 1e-14 * np.max(np.abs(grid))
    for k in range(v.shape[1]):
        tol = 1e-14 * np.max(np.abs(grid[:, k]))
        assert np.max(np.abs(to_grid(v[:, k]) - grid[:, k])) <= tol
        assert np.max(np.abs(to_modes(grid[:, k]) - back[:, k])) <= tol
        assert np.max(np.abs(to_modes(to_grid(v[:, k])) - v[:, k])) <= tol


def test_smallest_multiplier_at_default_period():
    # frozen from the invertibility study; also the margin the resonance
    # check enforces at construction
    L = PeriodicCylinderState.ones(3).L
    got = float(np.min(np.abs(theta_table(3, 0.5, 8, 256, L / 256) - constants(3).kappa)))
    assert abs(got - 0.18757289797052445) <= 1e-12


def test_invertibility_study_shapes():
    rep = uniform_invertibility_study(3, [1e-1, 5e-2], mu=-0.5, m_max=2,
                                      N_s=256)
    assert len(rep["rows"]) == 2
    assert rep["sigma_min_overall"] > 0
    for row in rep["rows"]:
        assert row["per_mode"] and row["sigma_min"] > 0


# per-mode smallest sup-norm singular values of
# uniform_invertibility_study(3, [0.1, 0.025], mu=-0.5, m_max=2, N_s=256),
# frozen from the dense multipliers built as FFTs of the identity
STUDY_PER_MODE = {
    0.1: (0.053194610073881696, 0.21267516157164318, 0.9506532735993496),
    0.025: (0.052957430543376684, 0.22709324751657034, 1.0528040792296898),
}

# the same for the criterion-10 shape, uniform_invertibility_study(3,
# EPS_SWEEP, mu=-0.5, m_max=3, N_s=384)
STUDY_PER_MODE_C10 = {
    0.1: (0.06896276771184763, 0.21270635539211466, 0.9506531726652234,
          1.713859644712132),
    0.05: (0.06953906540209653, 0.22200553705126044, 1.0080319853325173,
           1.8251322491441406),
    0.025: (0.06782221715774558, 0.2271618593356169, 1.052821575690594,
            1.9142676080616077),
    0.0125: (0.06415410368050513, 0.22950314557416815, 1.0877578742282143,
             1.9845340539754588),
    0.00625: (0.059087338621691486, 0.2300449655718275, 1.114678049012408,
              2.038679564120513),
}


def _c10_study():
    return uniform_invertibility_study(3, list(EPS_SWEEP), mu=-0.5, m_max=3,
                                       N_s=384)


def _assert_pinned(rows, pinned):
    assert [row["epsilon"] for row in rows] == list(pinned)
    for row in rows:
        sup = pinned[row["epsilon"]]
        assert len(row["per_mode"]) == len(sup)
        for m in range(len(sup)):
            assert abs(row["per_mode"][m] - sup[m]) <= 5e-13 * sup[m]


def test_invertibility_study_values_pinned():
    rep = uniform_invertibility_study(3, [0.1, 0.025], mu=-0.5, m_max=2, N_s=256)
    _assert_pinned(rep["rows"], STUDY_PER_MODE)
    _assert_pinned(_c10_study()["rows"], STUDY_PER_MODE_C10)


def _full_matrix_measures(rep, n, mu, N_s):
    """Each (study value, oracle value) pair of a study report run on N_s
    samples.  The oracle is the full N_s x N_s weight-conjugated matrix of
    each mode, its circulant built entry by entry, and the sup measure read
    from the row sums of its explicit inverse."""
    L, m_max = rep["L"], len(rep["rows"][0]["per_mode"]) - 1
    s = window(L, N_s)
    lag = np.subtract.outer(np.arange(N_s), np.arange(N_s)) % N_s
    xi = 2.0 * np.pi * np.fft.fftfreq(N_s, d=L / N_s)
    mults = [theta(ModeSpec(n=n, m=m), xi) for m in range(m_max + 1)]
    dense = np.real(np.fft.ifft(mults, axis=1))[:, lag]
    pairs = []
    for row in rep["rows"]:
        cfg = NeckConfig(epsilon=row["epsilon"])
        u, Pu = glued_u(cfg, n, L, N_s)
        N = (n + 1) / (n - 1)
        a, b = u ** -N, -N * u ** (-N - 1.0) * Pu  # DQ(u) = a P + b
        wl = neck.weight(cfg, s) ** (-mu)
        for m in range(m_max + 1):
            Aw = (wl * a)[:, None] * dense[m] / wl + np.diag(b)
            sup = 1.0 / np.max(np.sum(np.abs(scipy.linalg.inv(Aw)), axis=1))
            pairs.append((row["per_mode"][m], sup))
    return pairs


def test_invertibility_study_matches_full_matrix():
    # the half-window fold against the full matrix, for the criterion-10
    # study and two other dimensions
    cases = [(3, -0.5, 384, _c10_study()),
             (2, -0.4, 256, uniform_invertibility_study(2, [0.1, 0.025], mu=-0.4,
                                                        m_max=3, N_s=256)),
             (4, -0.75, 256, uniform_invertibility_study(4, [0.1, 0.025], mu=-0.75,
                                                         m_max=3, N_s=256))]
    for n, mu, N_s, rep in cases:
        pairs = _full_matrix_measures(rep, n, mu, N_s)
        assert len(pairs) == 4 * len(rep["rows"])
        for got, want in pairs:
            assert abs(got - want) <= 2e-12 * want


def test_invertibility_study_folds_are_symmetric():
    # the unhalved even fold kern[i - j] + kern[i + j] and the odd fold
    # kern[i - j] - kern[i + j] on the half window are symmetric, which is
    # what lets the study invert each block by LDL^T
    N_s, h = 384, 192
    L = solver.nonresonant_window(3, NeckConfig(epsilon=0.00625).L, N_s)
    kern = np.fft.irfft(theta_table(3, 0.5, 3, N_s, L / N_s), N_s, axis=1)
    i = np.arange(h + 1)
    lag = kern[:, np.subtract.outer(i, i) % N_s]
    lead = kern[:, np.add.outer(i, i) % N_s]
    for fold in (lag + lead, (lag - lead)[:, 1:h, 1:h]):
        scale = np.max(np.abs(fold), axis=(1, 2))
        asym = np.max(np.abs(fold - np.swapaxes(fold, 1, 2)), axis=(1, 2))
        assert np.all(asym <= 1e-13 * scale)


def test_invertibility_study_runs_one_ldlt_per_block(monkeypatch):
    # 2 (m_max + 1) symmetric factorizations and m_max + 1 symmetric matvecs
    # per epsilon, and no general (LU) inverse anywhere in the study
    # the modes run on worker threads, where calls[name] += 1 could drop a
    # count; list.append is one atomic step
    calls = []

    def spy(module, name):
        orig = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    def forbidden(*args, **kwargs):
        raise AssertionError("the invertibility study ran a general inverse")

    spy(scipy.linalg.lapack, "dsytrf")
    spy(scipy.linalg.blas, "dsymv")
    monkeypatch.setattr(scipy.linalg, "inv", forbidden)
    monkeypatch.setattr(scipy.linalg.lapack, "dgetri", forbidden)
    uniform_invertibility_study(3, [0.1, 0.05, 0.025], mu=-0.5, m_max=2, N_s=256)
    assert (calls.count("dsytrf"), calls.count("dsymv")) == (3 * 2 * 3, 3 * 3)


def test_invertibility_study_repeated_epsilon_is_bit_equal():
    # the window follows the smallest epsilon, so both 0.1 rows share it; a
    # fold buffer reused after dsytrf overwrote it would make them differ
    rows = uniform_invertibility_study(3, [0.1, 0.025, 0.1], mu=-0.5, m_max=2,
                                       N_s=256)["rows"]
    assert rows[0] == rows[2]


def test_invertibility_study_singular_block_is_typed(monkeypatch):
    # a zero symbol with u = 1 and P u = 0 (a = 1, b = 0) makes every fold
    # block zero: the study names the block instead of leaking a LinAlgError
    monkeypatch.setattr(solver, "theta_table",
                        lambda n, gamma, m_max, N, ds: np.zeros((m_max + 1, N // 2 + 1)))
    monkeypatch.setattr(solver, "glued_u",
                        lambda config, n, L, N: (np.ones(N), np.zeros(N)))
    with pytest.raises(ResonanceError, match="even fold block of mode 0 .*epsilon 0.1"):
        uniform_invertibility_study(3, [0.1], mu=-0.5, m_max=2, N_s=256)


def test_invertibility_study_names_the_lowest_singular_mode(monkeypatch):
    # with u = 1 and P u = 0 (a = 1, b = 0), a unit symbol leaves mode 0
    # invertible and a zero one makes modes 1 and 2 singular; the error names
    # mode 1, the first to fail
    def unit_mode0(n, gamma, m_max, N, ds):
        table = np.zeros((m_max + 1, N // 2 + 1))
        table[0] = 1.0
        return table

    monkeypatch.setattr(solver, "theta_table", unit_mode0)
    monkeypatch.setattr(solver, "glued_u",
                        lambda config, n, L, N: (np.ones(N), np.zeros(N)))
    with pytest.raises(ResonanceError, match="even fold block of mode 1 .*epsilon 0.1"):
        uniform_invertibility_study(3, [0.1], mu=-0.5, m_max=2, N_s=256)


def test_invertibility_study_factors_each_mode_once(monkeypatch):
    # each of the 8 modes is factored exactly once per fold and epsilon, and
    # counting the calls leaves the floors as they were
    kw = dict(mu=-0.5, m_max=7, N_s=256)
    want = uniform_invertibility_study(3, [0.1, 0.025], **kw)
    calls = []
    factor = scipy.linalg.lapack.dsytrf

    def counted(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", counted)
    assert uniform_invertibility_study(3, [0.1, 0.025], **kw) == want
    assert len(calls) == 2 * 2 * 8


def test_invertibility_study_deterministic():
    runs = [uniform_invertibility_study(3, [0.1, 0.025], mu=-0.5, m_max=2,
                                        N_s=256)["rows"] for _ in range(2)]
    assert runs[0] == runs[1]


def test_invertibility_study_samples_the_exact_window_grid(monkeypatch):
    # every epsilon samples the factor on the multiplier table's own grid,
    # step exactly L/N_s (0.03 once landed an ulp off it through a pad)
    grids = []

    def spy(config, s):
        grids.append(np.array(s))
        return build_glued_factor(config, s)

    monkeypatch.setattr(neck, "build_glued_factor", spy)
    rep = uniform_invertibility_study(3, [0.03, 0.025], mu=-0.5, m_max=2, N_s=256)
    L = rep["L"]
    want = -L / 2 + (L / 256) * np.arange(256)
    assert len(grids) == 2
    for s in grids:
        assert np.array_equal(s, want)


def test_invertibility_study_rejects_coarse_grid():
    with pytest.raises(ValidationError, match="256"):
        uniform_invertibility_study(3, [0.1], mu=-0.5, m_max=2, N_s=128)


def test_invertibility_study_rejects_odd_grid():
    with pytest.raises(ValidationError, match="even"):
        uniform_invertibility_study(3, [0.1], mu=-0.5, m_max=2, N_s=257)


def test_invertibility_study_rejects_asymmetric_factor(monkeypatch):
    # the fold assumes the glued factor is even under s -> -s
    def tilted(config, n, L, N):
        u, Pu = glued_u(config, n, L, N)
        return u * (1.0 + 1e-6 * window(L, N)), Pu

    monkeypatch.setattr(solver, "glued_u", tilted)
    with pytest.raises(NumericalError, match="reflection-even"):
        uniform_invertibility_study(3, [0.1], mu=-0.5, m_max=2, N_s=256)


def test_invertibility_study_runs_no_lanczos(monkeypatch):
    # the study reads sup-norm row sums only: no sparse eigensolver, no l2
    # keys in its report, and no echo of its inputs
    def forbidden(*args, **kwargs):
        raise AssertionError("the invertibility study called scipy.sparse.linalg")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", forbidden)
    monkeypatch.setattr(scipy.sparse.linalg, "LinearOperator", forbidden)
    rep = uniform_invertibility_study(3, [0.1, 0.025], mu=-0.5, m_max=2, N_s=256)
    assert set(rep) == {"L", "rows", "slope", "sigma_min_overall"}
    assert all(set(row) == {"epsilon", "per_mode", "sigma_min"} for row in rep["rows"])
    _assert_pinned(rep["rows"], STUDY_PER_MODE)


def test_bad_weight_rate_rejected():
    with pytest.raises(ValidationError):
        uniform_invertibility_study(3, [1e-1], mu=-2.0, m_max=2, N_s=256)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_newton_rejects_nonpositive_tolerance(tol):
    with pytest.raises(ValidationError, match="tolerance"):
        newton_solve(_perturbed(), tol=tol)
