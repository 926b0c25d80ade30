"""Acceptance gate: the ten checks the toolkit must pass end to end.

Each criterion function is self-contained, deterministic (fixed seeds),
and returns a CriterionResult with a one-line detail string; `run_all`
executes them in order and `format_line` renders one PASS/FAIL line per
result, with the criterion's wall time when it is recorded.
The same functions back both the `accept` CLI subcommand and the
acceptance test module, so there is exactly one source of truth for
tolerances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ResonanceError, ValidationError
from .extension import cross_validate
from .indicial import check_lemma, first_root, root_catalog
from .modegreen import (DecayProfile, LineFunction, apply_L0, fit_tail_rate,
                        green_solve, homogeneous_basis, homogeneous_columns,
                        synthesize_kernel)
from .neck import error_sweep, window
from .solver import (PeriodicCylinderState, _fourier, _jacobian_matvec, _theta, newton_solve,
                     quadratic_remainder, state_norm, uniform_invertibility_study)
from .symbol import ModeSpec, constants

__all__ = ["CriterionResult", "CRITERIA", "run_all", "format_line"]

EPS_SWEEP = (1e-1, 5e-2, 2.5e-2, 1.25e-2, 6.25e-3)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    elapsed: float | None  # wall time in seconds; None leaves it off the line


def criterion_1():
    """Cylinder constant anchors: c = 2 Gamma((n+1)/4)^2 / Gamma((n-1)/4)^2."""
    c3 = constants(3).c
    err_anchor = abs(c3 - 2.0 / np.pi)
    worst = 0.0
    for n in range(2, 7):
        closed = 2.0 * math.gamma((n + 1) / 4) ** 2 / math.gamma((n - 1) / 4) ** 2
        worst = max(worst, abs(constants(n).c - closed) / closed)
    ok = err_anchor <= 1e-10 and worst <= 1e-14
    return ok, f"|c(3) - 2/pi| = {err_anchor:.2e}; worst closed-form rel diff {worst:.2e}"


def criterion_2():
    """Exponent-lemma suite across dimensions."""
    fails, taus = [], []
    for n in (2, 3, 4, 5):
        rep = check_lemma(n, m_max=6, j_max=3, tol_b=1e-8)
        taus.append(f"n={n}: tau0={rep.tau0:.6f}")
        if not rep.passed:
            clauses = {"a": rep.clause_a, "b": rep.clause_b,
                       "c": rep.clause_c, "d": rep.clause_d}
            fails.append(f"n={n} failed {[k for k, v in clauses.items() if not v]}"
                         + "".join(f"; {note}" for note in rep.notes))
    return not fails, "; ".join(fails + taus)


def criterion_3():
    """Symbol formula vs extension ODE, plus grid convergence."""
    modes, xis = range(5), (0.0, 0.5, 1.0, 2.0, 4.0)
    worst = 0.0
    for n in (2, 3):
        rows = cross_validate(n, modes, xis, scheme="collocation-ODE")
        worst = max(worst, max(r["rel_err"] for r in rows))
    ratios = []
    for n in (2, 3):
        coarse = cross_validate(n, modes, xis, phi_grid=256, scheme="finite-difference")
        fine = cross_validate(n, modes, xis, phi_grid=512, scheme="finite-difference")
        ratios.append(max(r["rel_err"] for r in coarse) / max(r["rel_err"] for r in fine))
    ok = worst <= 1e-12 and min(ratios) >= 3.0
    return ok, (f"worst ODE-route rel err {worst:.2e}; "
                f"doubling ratios {[f'{r:.2f}' for r in ratios]}")


def criterion_4():
    """Mode-wise Green operator: right inverse, declared tails, and the
    residue-series kernel as a second route to the same solve."""
    delta = 0.5
    worst_rt, worst_fit, worst_ann, worst_kern = 0.0, 0.0, 0.0, 0.0
    for m in range(4):
        spec = ModeSpec(n=3, gamma=0.5, m=m)
        h = LineFunction.from_callable(lambda s: np.exp(-delta * np.sqrt(s * s + 4.0)),
                                       s0=-30.0, s1=30.0, N=4096, mode=m)
        v = green_solve(spec, h, DecayProfile(delta=delta))
        rt = apply_L0(spec, v)
        interior = np.abs(v.grid()) <= 15.0
        worst_rt = max(worst_rt, float(np.max(np.abs(
            rt.materialize()[interior] - h.values[interior]))))
        # the declared-rate clause applies when the first exponent outruns delta
        if root_catalog(spec, 1).roots[0].sigma > delta:
            for side, sign in (("+", -1.0), ("-", +1.0)):
                fit = fit_tail_rate(v, side)
                worst_fit = max(worst_fit, abs(fit - sign * delta) / delta)
        for w in homogeneous_basis(spec):
            lw = apply_L0(spec, w)
            rel = np.max(np.abs(lw.values)) / (constants(3).kappa
                                               * np.max(np.abs(w.values)))
            worst_ann = max(worst_ann, float(rel))
        if m == 0:  # its shifted contour keeps the on-axis pair the series omits
            continue
        # G g, g a unit Gaussian of width 0.1, against the series kernel * g
        g = LineFunction.from_callable(lambda s: np.exp(-50.0 * s * s) / np.sqrt(0.02 * np.pi),
                                       s0=-30.0, s1=30.0, N=4096, mode=m)
        s = g.grid()
        near, far = np.abs(s) <= 0.8, (np.abs(s) >= 2.0) & (np.abs(s) <= 8.0)
        kern, _ = synthesize_kernel(spec, np.subtract.outer(s[far], s[near]))
        gap = green_solve(spec, g, DecayProfile(delta=delta)).materialize()[far] \
            - g.ds * kern @ g.values[near]
        worst_kern = max(worst_kern, float(np.max(np.abs(gap))))
    ok = worst_rt <= 1e-6 and worst_fit <= 0.05 and worst_ann <= 1e-6 and worst_kern <= 1e-12
    return ok, (f"roundtrip {worst_rt:.2e}; tail-rate dev {worst_fit:.2%}; "
                f"annihilation {worst_ann:.2e}; kernel two-route {worst_kern:.2e}")


def criterion_5():
    """Bounded + annihilated implies trivial.  Two Green solves of one right
    side, on contours in the same indicial gap, differ by an annihilated
    function; on the central half of the window it must lie in the span of
    the homogeneous solutions to 1e-8."""
    sups = {}
    prof = DecayProfile(delta=0.75)
    for m in (0, 1):
        spec = ModeSpec(n=3, gamma=0.5, m=m)
        h = LineFunction.from_callable(lambda s: np.exp(-0.75 * np.sqrt(s * s + 4.0)),
                                       s0=-30.0, s1=30.0, N=4096, mode=m)
        sl = slice(h.N // 4, 3 * h.N // 4)  # the central half of the window
        diff = (green_solve(spec, h, prof, beta=0.2).materialize()[sl]
                - green_solve(spec, h, prof, beta=0.45).materialize()[sl])
        A = homogeneous_columns(root_catalog(spec, 3), h.grid()[sl])
        coef, *_ = np.linalg.lstsq(A, diff, rcond=None)
        sups[m] = float(np.abs(diff - A @ coef).max())
    m = max(sups, key=sups.get)
    if sups[m] > 1e-8:
        return False, f"m={m}: residual {sups[m]:.2e} off the homogeneous span"
    return True, f"all candidates trivial; worst sup {sups[m]:.2e}"


def criterion_6():
    """Construction-error decay in epsilon."""
    details = []
    ok = True
    for n in (2, 3):
        rows = error_sweep(n, EPS_SWEEP, mu=-0.5)
        E = [r["E"] for r in rows]
        decreasing = all(E[i] > E[i + 1] for i in range(len(E) - 1))
        ratio = E[-1] / E[0]
        ok = ok and decreasing and ratio < 0.5
        details.append(f"n={n}: ratio {ratio:.3f}, decreasing {decreasing}")
    return ok, "; ".join(details)


def criterion_7():
    """Periodic-neck solve: quadratic Newton tail, linear fixed-point."""
    st1 = PeriodicCylinderState.ones(3, m_max=8, N_s=256)
    values = st1.values.copy()
    values[[1, 2]] += 0.01 * np.cos(2.0 * np.pi * np.arange(st1.N_s) / st1.N_s)
    start = PeriodicCylinderState(st1.n, st1.L, values)
    rep_n = newton_solve(start, tol=1e-11, method="newton")
    tail = [r for r in rep_n.residual_history if r > 1e-13][-3:]
    Cs = [tail[i + 1] / tail[i] ** 2 for i in range(len(tail) - 1)]
    quad_ok = len(Cs) >= 1 and max(Cs) / min(Cs) <= 3.0
    final_ok = rep_n.converged and rep_n.residual_history[-1] <= 1e-10
    rep_f = newton_solve(start, tol=1e-11, method="fixed-point")
    histf = [r for r in rep_f.residual_history if r > 1e-13]
    lin_ratios = [histf[i + 1] / histf[i] for i in range(len(histf) - 1)]
    lin_ok = rep_f.converged and max(lin_ratios) < 0.5
    ok = quad_ok and final_ok and lin_ok
    return ok, (f"newton {rep_n.iterations} iters, final {rep_n.residual_history[-1]:.2e}, "
                f"C spread {max(Cs)/min(Cs):.2f}; fixed-point worst ratio "
                f"{max(lin_ratios):.3f}")


def criterion_8():
    """Remainder after subtracting the linear part is quadratic."""
    st1 = PeriodicCylinderState.ones(3, m_max=8, N_s=256)
    rng = np.random.default_rng(20260813)
    worst_spread = 0.0
    for _ in range(20):
        direction = rng.standard_normal((st1.m_max + 1, st1.N_s))
        direction /= state_norm(st1, direction)
        ratios = [quadratic_remainder(st1, amp * direction)
                  for amp in (1e-2, 1e-3, 1e-4)]
        worst_spread = max(worst_spread, max(ratios) / min(ratios))
    ok = worst_spread < 3.0
    return ok, f"worst remainder-constant spread across amplitudes {worst_spread:.3f}"


def _kernel_residual(n, m=1):
    """Scale-free residual max|DR(f) w| / max|P_m w| of the solver's Newton
    derivative, read on mode m of a state on window(40, 2048).

    f = (c_b/c)^((n-1)/2) cosh(s)^(-(n-1)/2) is the flat half ball in the
    neck coordinate s = log|x|, where Q = c_b = Gamma((n+1)/2) /
    Gamma((n-1)/2), scaled to solve P f = c f^N, and w = cosh(s)^(-(n+1)/2)
    is its conformal centre motion, a mode-1 profile, so DR(f) w = 0.
    """
    N_s = 2048
    s = window(40.0, N_s)
    c_b = math.gamma((n + 1) / 2) / math.gamma((n - 1) / 2)
    f, w = np.zeros((m + 1, N_s)), np.zeros((m + 1, N_s))
    f[0] = (c_b / constants(n).c) ** ((n - 1) / 2) * np.cosh(s) ** (-(n - 1) / 2)
    w[m] = np.cosh(s) ** (-(n + 1) / 2)
    state = PeriodicCylinderState(n, 40.0, f)
    Pw = _fourier(_theta(state), w)[m]
    return float(np.max(np.abs(_jacobian_matvec(state)(w)[m])) / np.max(np.abs(Pw)))


def criterion_9():
    """Flat-ball degeneracy: the bubble's centre motion is a mode-1 kernel
    of the solver's operator, and no periodic state is built on a lattice
    that holds the mode-0 kernel frequency tau0."""
    worst = max(_kernel_residual(n) for n in (2, 3, 4))
    refused = total = 0
    for n in (2, 3, 4):
        tau0 = first_root(ModeSpec(n=n, gamma=0.5, m=0)).tau
        for k in (1, 2, 3):
            total += 1
            try:
                PeriodicCylinderState(n, 2.0 * np.pi * k / tau0, np.ones((3, 256)))
            except ResonanceError:
                refused += 1
    ok = worst <= 2e-12 and refused == total
    return ok, (f"mode-1 kernel residual {worst:.2e}; "
                f"periods 2 pi k/tau0 refused {refused}/{total}")


def criterion_10():
    """Inversion constant does not collapse along the sweep."""
    rep = uniform_invertibility_study(3, list(EPS_SWEEP), mu=-0.5,
                                      m_max=3, N_s=384)
    ok = abs(rep["slope"]) <= 0.1
    return ok, (f"weighted-norm slope {rep['slope']:+.4f}; "
                f"floor {rep['sigma_min_overall']:.4f}")


CRITERIA = (
    (1, "constant-anchor", criterion_1),
    (2, "exponent-lemma", criterion_2),
    (3, "oracle-equivalence", criterion_3),
    (4, "green-operator", criterion_4),
    (5, "liouville", criterion_5),
    (6, "glue-error-decay", criterion_6),
    (7, "nonlinear-solve", criterion_7),
    (8, "quadratic-remainder", criterion_8),
    (9, "ball-degeneracy", criterion_9),
    (10, "uniform-invertibility", criterion_10),
)


def format_line(r: CriterionResult) -> str:
    tag = "PASS" if r.passed else "FAIL"
    took = "" if r.elapsed is None else f" ({r.elapsed:6.1f}s)"
    return f"{tag} {r.index:2d} {r.name:<22s}{took}  {r.detail}"


def run_all(indices=None) -> list:
    unknown = sorted(set(indices or ()) - {idx for idx, _, _ in CRITERIA})
    if unknown:
        raise ValidationError(f"unknown criteria {unknown}; the suite has 1..{len(CRITERIA)}")
    results = []
    for idx, name, fn in CRITERIA:
        if indices is not None and idx not in indices:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        res = CriterionResult(index=idx, name=name, passed=passed,
                              detail=detail, elapsed=time.perf_counter() - t0)
        results.append(res)
    return results
