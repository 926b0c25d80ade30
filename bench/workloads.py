"""The four benchmark workloads.

Each workload is a single-client closed loop: one op at a time, the next
starting when the previous returns.  Library functions are called through
their module attributes (so traced runs see them) and with their defaults.
A workload provides

* ``setup()``     -- warm-up before timing (counted in ``setup_s``);
* ``prepare()``   -- independent reference set-up (not counted anywhere);
* ``cases(rng)``  -- the run's case set, drawn from the seed; any per-case
  reference is computed here, outside the timed region.  A run repeats the
  whole set in rounds, each in a new seeded order;
* ``op(case, ctx)`` and ``check(case, result)`` -- one op and its verdict
  ``(ok, digits, note)``, where digits are the worst correct significant
  digits of the checked outputs against the independent reference.
"""

from __future__ import annotations

import math

import numpy as np

from neckforge import extension, indicial, modegreen, neck, solver
from neckforge.symbol import ModeSpec

import reference
from spans import OpContext, clear_package_caches

# tolerances already enforced by the test suite and the acceptance gate
TAU0_TOL = 1e-12          # mode-0 crossing frequency (tests/test_indicial.py)
SIGMA1_TOL = 1e-8         # mode-1 first exponent equals 1 (criterion 2)
ROOT_TOL = 1e-10          # ladder values (tests/test_indicial.py)
RESIDUAL_TOL = 1e-9       # |F| at catalog roots (tests/test_indicial.py)
DTHETA_TOL = 1e-8         # 2/|Theta'(tau0)| (tests/test_modegreen.py)
ODE_TOL = 1e-10           # shooting vs symbol (tests/test_extension.py)
HALFDISK_TOL = 5e-3       # 2-D hemisphere vs symbol (tests/test_extension.py)
FD_RATIO_MIN = 3.0        # error ratio per grid doubling (criterion 3)
ROUNDTRIP_TOL = 1e-6      # apply_L0(green_solve(h)) vs h (criterion 4)
NEWTON_TOL = 1e-10        # final Newton residual (criterion 7)


def _fail(note, digits=None):
    return False, digits, note


class Roots:
    """Cold certified root catalogs for the 28 (n, m) pairs of criterion 2."""

    name = "roots"
    pairs = [(n, m) for n in range(2, 6) for m in range(7)]

    def setup(self):
        spec = ModeSpec(n=2, m=0)
        indicial.first_root(spec)
        indicial.root_catalog(spec, 4)
        clear_package_caches()

    def prepare(self):
        self.ref = reference.load_roots()

    def cases(self, rng):
        return list(self.pairs)

    def op(self, case, ctx):
        n, m = case
        with ctx.bench("caches"):
            clear_package_caches()
        spec = ModeSpec(n=n, m=m)
        with ctx.time("first_root"):
            first = indicial.first_root(spec)
        with ctx.time("catalog"):
            cat = indicial.root_catalog(spec, 4)
        ctx.counts["catalogs"] += 1
        ctx.counts["certified"] += int(cat.certified)
        ctx.counts["roots"] += len(cat.roots) + 1
        return first, cat

    def check(self, case, result):
        n, m = case
        first, cat = result
        ref = self.ref[n, m]
        worst = 0.0
        if len(cat.roots) < len(ref):
            return _fail(f"catalog holds {len(cat.roots)} roots, expected {len(ref)}")
        for j, (root, (lam, dth)) in enumerate(zip(cat.roots, ref)):
            loc = abs(root.lam - lam)
            d_rel = abs(root.dtheta - dth) / abs(dth)
            worst = max(worst, loc / abs(lam), d_rel)
            if loc > ROOT_TOL:
                return _fail(f"root {j} off by {loc:.2e}", reference.digits_of(worst))
            if d_rel > DTHETA_TOL:
                return _fail(f"dtheta {j} off by {d_rel:.2e}", reference.digits_of(worst))
            if root.residual > RESIDUAL_TOL:
                return _fail(f"root {j} residual {root.residual:.2e}")
        lam0, dth0 = ref[0]
        worst = max(worst, abs(first.lam - lam0) / abs(lam0),
                    abs(first.dtheta - dth0) / abs(dth0))
        digits = reference.digits_of(worst)
        if not cat.certified:
            return _fail("catalog count not certified", digits)
        if m == 0 and not (first.sigma == 0.0 and abs(first.tau - lam0.imag) <= TAU0_TOL):
            return _fail(f"tau0 {first.tau!r} vs {lam0.imag!r}", digits)
        if m == 1 and not abs(first.sigma - 1.0) <= SIGMA1_TOL:
            return _fail(f"sigma_1 {first.sigma!r} is not 1", digits)
        if abs(first.lam - lam0) > ROOT_TOL:
            return _fail(f"first root off by {abs(first.lam - lam0):.2e}", digits)
        return True, digits, ""


class Bulk:
    """Extension-route Dirichlet-to-Neumann values checked against the symbol.

    The case set holds each (n, m) once.  Its xi sits within `jitter` of a
    fixed centre, and the centres spread the ten cases over [0, 4]: the
    cost of the ODE route varies threefold with xi at m = 4, so drawing xi
    freely made the round's cost, and with it `ops_per_s`, vary by seed.
    """

    name = "bulk"
    centres = {2: (0.5, 1.5, 2.5, 3.5, 1.5), 3: (3.5, 2.5, 1.5, 0.5, 2.5)}  # by m
    jitter = 0.1

    def setup(self):
        spec = ModeSpec(n=2, m=0)
        extension.dtn_cylinder(extension.HalfCylinderProblem(spec, xi=1.0))
        extension.dtn_cylinder(extension.HalfCylinderProblem(
            spec, xi=1.0, phi_grid=256, scheme="finite-difference"))
        extension.dtn_halfdisk_2d(1.0, 0)

    def prepare(self):
        pass

    def cases(self, rng):
        out = []
        for n, centres in self.centres.items():
            for m, centre in enumerate(centres):
                xi = centre + self.jitter * (2.0 * rng.random() - 1.0)
                out.append((n, m, xi, reference.theta_mp(n, m, xi)))
        return out

    def op(self, case, ctx):
        n, m, xi, _ = case
        with ctx.bench("caches"):
            clear_package_caches()
        spec = ModeSpec(n=n, m=m)
        with ctx.time("ode"):
            ode = extension.dtn_cylinder(extension.HalfCylinderProblem(spec, xi=xi))
        with ctx.time("fd"):
            fd = [extension.dtn_cylinder(extension.HalfCylinderProblem(
                spec, xi=xi, phi_grid=grid, scheme="finite-difference"))
                for grid in (256, 512)]
        halfdisk = None
        if n == 2 and m <= 2:
            with ctx.time("halfdisk"):
                halfdisk = extension.dtn_halfdisk_2d(xi, m)
        ctx.counts["cases"] += 1
        return ode, fd, halfdisk

    def check(self, case, result):
        n, m, xi, want = case
        ode, (coarse, fine), halfdisk = result
        rel = abs(ode - want) / want
        digits = reference.digits_of(rel)
        if not rel <= ODE_TOL:
            return _fail(f"ODE route rel err {rel:.2e} at n={n} m={m} xi={xi}", digits)
        err_c, err_f = abs(coarse - want), abs(fine - want)
        if not err_c >= FD_RATIO_MIN * err_f:
            return _fail(f"FD doubling ratio {err_c / err_f:.3f} at n={n} m={m} xi={xi}", digits)
        if halfdisk is not None:
            hd_rel = abs(halfdisk - want) / want
            if not hd_rel <= HALFDISK_TOL:
                return _fail(f"half-disk rel err {hd_rel:.2e} at m={m} xi={xi}", digits)
        return True, digits, ""


class Green:
    """Warm mode Green solves and their apply_L0 round trips (criterion 4).

    The case set is the 8 (m, delta) pairs of criterion 4's sweep, each with
    its own seeded a.
    """

    name = "green"
    N, half, n = 4096, 30.0, 3
    pairs = [(m, delta) for m in range(4) for delta in (0.5, 0.75)]

    def _rhs(self, delta, a, m):
        ds = 2.0 * self.half / self.N
        s = -self.half + ds * np.arange(self.N)
        values = np.exp(-delta * np.sqrt(s * s + a * a))
        return s, modegreen.LineFunction(s0=-self.half, ds=ds, N=self.N, values=values,
                                         mode=m)

    def setup(self):
        for m, delta in self.pairs:
            self.op((m, delta, 2.0), OpContext())

    def prepare(self):
        pass

    def cases(self, rng):
        return [(m, delta, 1.0 + 2.0 * rng.random()) for m, delta in self.pairs]

    def op(self, case, ctx):
        m, delta, a = case
        with ctx.bench("input"):
            s, h = self._rhs(delta, a, m)
        spec = ModeSpec(n=self.n, m=m)
        with ctx.time("solve"):
            v = modegreen.green_solve(spec, h, modegreen.DecayProfile(delta=delta))
        with ctx.time("apply"):
            back = modegreen.apply_L0(spec, v)
        ctx.counts["solves"] += 1
        return s, h.values, back.values, back.envelope_rate

    def check(self, case, result):
        m, delta, a = case
        s, h, back, rate = result
        interior = np.abs(s) <= 0.5 * self.half
        got = np.real(back[interior]) * np.exp(rate * s[interior])
        err = float(np.max(np.abs(got - h[interior])))
        digits = reference.digits_of(err / float(np.max(h[interior])))
        if not err <= ROUNDTRIP_TOL:
            return _fail(f"round trip error {err:.2e} at m={m} delta={delta} a={a}", digits)
        return True, digits, ""


class Glue:
    """Glued-neck error, one invertibility epsilon, and a periodic Newton solve.

    The case set takes each method at one epsilon from each of `strata`
    equal slices of log epsilon.  `digits` is the worst case of the set, so
    a small set made it vary by seed.
    """

    name = "glue"
    eps_range = (6.25e-3, 0.1)
    methods = ("newton", "fixed-point")
    strata = 8
    n, m_max, N_s = 3, 8, 256

    def setup(self):
        self.base = solver.PeriodicCylinderState.ones(self.n, m_max=self.m_max, N_s=self.N_s)
        for method in self.methods:
            self.op((method, 0.025, ((1, 1, 0.01, 0.0), (2, 1, 0.01, 0.0))), OpContext())

    def prepare(self):
        self.residual = reference.ZonalResidual(self.n, self.base.L, self.m_max, self.N_s)

    def cases(self, rng):
        lo, hi = (math.log(e) for e in self.eps_range)
        out = []
        for method in self.methods:
            for k in range(self.strata):
                eps = math.exp(lo + (hi - lo) * (k + rng.random()) / self.strata)
                pert = tuple((m, rng.randint(1, 3), 0.002 + 0.008 * rng.random(),
                              2.0 * math.pi * rng.random()) for m in (1, 2))
                out.append((method, eps, pert))
        return out

    def op(self, case, ctx):
        method, eps, pert = case
        with ctx.bench("input"):
            f_hat = self.base.f_hat.copy()
            for m, k, amp, phase in pert:
                coef = 0.5 * self.N_s * amp * complex(math.cos(phase), math.sin(phase))
                f_hat[m, k] += coef
                f_hat[m, -k] += coef.conjugate()
        errors = []
        for n in (2, 3):
            with ctx.time("error"):
                _, E = neck.approximate_curvature_error(neck.NeckConfig(epsilon=eps), n)
            errors.append(E)
        with ctx.time("invert"):
            study = solver.uniform_invertibility_study(3, [eps], mu=-0.5, m_max=3, N_s=384)
        start = self.base.with_table(f_hat)
        with ctx.time("newton"):
            report = solver.newton_solve(start, method=method)
        ctx.counts["evals"] += len(errors)
        ctx.counts["newton_iters"] += report.iterations
        return errors, study["sigma_min_overall"], report

    def check(self, case, result):
        errors, sigma_min, report = result
        res = self.residual(report.final_f.f_hat)
        digits = reference.digits_of(res / self.residual.c)
        if not all(math.isfinite(E) and E > 0.0 for E in errors):
            return _fail(f"curvature error not finite and positive: {errors}", digits)
        if not (math.isfinite(sigma_min) and sigma_min > 0.0):
            return _fail(f"invertibility floor {sigma_min!r}", digits)
        if not (report.converged and report.residual_history[-1] <= NEWTON_TOL):
            return _fail(f"{report.method} did not converge: {report.residual_history[-1]:.2e}",
                         digits)
        if not res <= NEWTON_TOL:
            return _fail(f"independent residual {res:.2e}", digits)
        return True, digits, ""


WORKLOADS = {w.name: w for w in (Roots, Bulk, Green, Glue)}
