"""Indicial roots of the linearized cylinder operator.

Convention (fixed once, used everywhere): a mode-m indicial root is a
complex exponent lambda = sigma + i*tau such that v = exp(lambda * s)
solves the linearized equation, i.e.

    Theta_m(-i * lambda) = kappa,

where Theta_m is the analytic continuation of the cylinder symbol and
kappa the linearization constant.  Equivalently, in the complex frequency
plane the zero sits at zeta = -i*lambda.  Roots come in the four-fold
family (+-sigma +- i*tau); catalogs store the closed first quadrant
representative (sigma >= 0, tau >= 0) sorted by increasing sigma, then tau.

The roots lie on the two axes, where F(lambda) = Theta_m(-i lambda) - kappa
is real-valued: the oscillatory pair on the imaginary axis (sigma = 0) and
the real decay exponents (tau = 0); each catalog checks this by a count.  Each axis is scanned for sign changes
between the known simple poles of F at +-2(A + k), A the numerator Gamma
offset, and each bracket is refined by Illinois false position; all brackets
of one scan are solved in lockstep, one vector call of F per step, to a
bracket width of BRACKET_TOL * (1 + |lambda|).  Work that does not depend on
a catalog's box is done once per spec: the imaginary-axis scan (at m >= 1
one value of Theta_m shows it empty, Theta_m being increasing in |xi|) and
the bracket solutions below the first pole 2A, which `first_root` reads
too.  The roots of one scan are then certified together, by one vector
read of F and one of the analytic derivative F'(lambda) = -i Theta'(zeta)
(the digamma form of Theta'/Theta) at all of them: each needs |F| <=
RESIDUAL_TOL, or a Newton correction |F / Theta'| within the bracket
tolerance.  Each is reported with the
residual |F| and the symbol derivative Theta' at the root (the ingredient of
Green-kernel residues).

Nothing in the scans looks off the axes; an independent count does.  By the
argument principle for meromorphic functions,

    #zeros inside = winding of F along the boundary + #poles inside,

with the winding accumulated from adaptively refined boundary samples and
the pole count read off the explicit ladder.  A catalog counts before it
locates: the quadrant count alone grows the search box until it holds
enough roots, and the axes are then scanned once, in the final box.  The
count is additive over boxes that share an edge (Delves & Lyness 1967), so
each growth step winds only the new strip, of width 2 per root still
missing, and adds it to the running count.  A catalog is certified when
the count equals the number of axis roots, which proves the open quadrant
empty.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import NonConvergence, PoleError, ValidationError
from .symbol import ModeSpec, constants, theta, theta_analytic, theta_log_derivative

__all__ = [
    "IndicialRoot",
    "RootCatalog",
    "LemmaReport",
    "first_root",
    "root_catalog",
    "check_lemma",
]

# Height of every imaginary-axis scan: the oscillatory pair's tau, and the
# top edge of every counting box.
TAU_MAX = 20.0
# Bracket width each root is solved to, relative to 1 + |lambda|, and the
# residual bound |F| that certifies a root outright.
BRACKET_TOL = 1e-14
RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class IndicialRoot:
    """One indicial root lambda = sigma + i*tau in the exp(lambda s) convention."""

    sigma: float
    tau: float
    residual: float
    dtheta: complex  # d Theta / d zeta at zeta = -i * lambda, for residues

    @property
    def lam(self) -> complex:
        return complex(self.sigma, self.tau)


@dataclass(frozen=True)
class RootCatalog:
    roots: tuple
    search_box: tuple
    certified: bool


def _char_fn(spec: ModeSpec, kappa: float):
    """F(lambda) = Theta_m(-i lambda) - kappa, with ``F.dtheta(lam, F(lam))``
    the symbol derivative Theta'(zeta) at zeta = -i lambda, read off the
    log-derivative Theta'/Theta at the same point."""
    def F(lam):
        return theta_analytic(spec, -1j * np.asarray(lam, dtype=np.complex128)) - kappa
    F.dtheta = lambda lam, f: (f + kappa) * theta_log_derivative(spec, -1j * lam)
    return F


def _pole_ladder(spec: ModeSpec, limit: float):
    """Real poles of F at +-2(A + k) with |value| <= limit."""
    a = spec.a_offset
    poles = []
    k = 0
    while 2.0 * (a + k) <= limit:
        poles.append(2.0 * (a + k))
        k += 1
    return poles


def _poles_inside(spec: ModeSpec, box):
    """Poles of F inside a counting box.  Every box straddles the real axis
    and starts at sigma >= -eta > -2A, so these are the 2(A + k) in (slo, shi)."""
    slo, shi = box[0], box[1]
    return sum(slo < p < shi for p in _pole_ladder(spec, shi))


def _box_path(box, pts_per_edge):
    slo, shi, tlo, thi = box
    corners = [complex(slo, tlo), complex(shi, tlo), complex(shi, thi), complex(slo, thi)]
    top = max(8, int(np.ceil(pts_per_edge * (shi - slo) / (thi - tlo))))
    ts = []
    for i, count in enumerate((pts_per_edge, pts_per_edge, top, pts_per_edge)):
        a, b = corners[i], corners[(i + 1) % 4]
        frac = np.linspace(0.0, 1.0, count, endpoint=False)
        ts.append(a + (b - a) * frac)
    path = np.concatenate(ts)
    return np.append(path, path[0])


def _winding(F, box, kappa_scale, max_points=120000):
    """Winding number of F along the box boundary, counterclockwise, or None
    when the boundary cannot be wound: it hits a pole of F, |F| falls below
    1e-9 kappa_scale on it (a near-zero), refinement runs out, or the phase
    sum is not an integer.

    The first pass samples each edge on its own count (`_box_path`): 96
    points on the bottom edge and the two sides, which pass within eta (or
    about 0.3) of the axis roots and poles, and max(8, ceil(96 * width /
    height)) on the top edge at tau = TAU_MAX, far from all of them.  Then it
    inserts midpoints until consecutive phase increments are below pi/2, so
    a coarse edge is refined where F turns fast.
    """
    pts = _box_path(box, 96)
    floor = 1e-9 * max(kappa_scale, 1e-30)
    try:
        vals = F(pts)
        for _ in range(48):
            if np.min(np.abs(vals)) < floor:
                return None
            d_arg = np.angle(vals[1:] / vals[:-1])
            bad = np.abs(d_arg) > 0.5 * np.pi
            if not np.any(bad):
                w = float(np.sum(d_arg)) / (2.0 * np.pi)
                return int(round(w)) if abs(w - round(w)) <= 0.05 else None
            if len(pts) > max_points:
                return None
            idx = np.nonzero(bad)[0]
            mids = 0.5 * (pts[idx] + pts[idx + 1])
            mid_vals = F(mids)
            pts = np.insert(pts, idx + 1, mids)
            vals = np.insert(vals, idx + 1, mid_vals)
    except PoleError:
        return None
    return None


def _false_position(g, a, b, fa, fb, tol=BRACKET_TOL, max_iter=200):
    """Zeros of g on the sign-change brackets [a_k, b_k] with end values
    fa_k = g(a_k), fb_k = g(b_k), by Illinois false position, each to a
    bracket width of tol * (1 + |x|).

    The brackets run in lockstep: one vector call of g on the live iterates
    per step, and per bracket the same arithmetic and exits as a scalar solve.
    A bracket still open after max_iter steps (a multiple root, where
    Illinois stalls) raises NonConvergence naming it.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    x = np.where(fa == 0.0, a, b)
    live = (fa != 0.0) & (fb != 0.0)
    bad = np.nonzero(live & (fa * fb > 0.0))[0]
    if len(bad):
        k = bad[0]
        raise NonConvergence(f"no sign change on [{float(a[k])}, {float(b[k])}]")
    side = np.zeros(len(x), dtype=int)
    for _ in range(max_iter):
        k = np.nonzero(live)[0]
        if not len(k):
            break
        x[k] = b[k] - fb[k] * (b[k] - a[k]) / (fb[k] - fa[k])
        done = ~((a[k] < x[k]) & (x[k] < b[k])) | (b[k] - a[k] < tol * (1.0 + np.abs(x[k])))
        live[k[done]] = False
        k = k[~done]
        if not len(k):
            break
        fx = g(x[k])
        live[k[fx == 0.0]] = False
        to_b = (fx > 0.0) == (fb[k] > 0.0)
        kb, ka = k[to_b], k[~to_b]
        b[kb], fb[kb] = x[kb], fx[to_b]
        fa[kb[side[kb] == -1]] *= 0.5
        side[kb] = -1
        a[ka], fa[ka] = x[ka], fx[~to_b]
        fb[ka[side[ka] == 1]] *= 0.5
        side[ka] = 1
    k = np.nonzero(live)[0]
    if len(k):
        raise NonConvergence(f"false position did not converge in {max_iter} steps "
                             f"on [{float(a[k[0]])}, {float(b[k[0]])}]")
    return x


def _fold(x, tol=1e-9):
    return 0.0 if abs(x) < tol else x


def _make_roots(F, lams):
    """The roots at lams, certified by one vector read of F and of Theta' at
    them all: each needs |F| <= RESIDUAL_TOL, or a Newton correction
    |F / Theta'| (|F'| = |Theta'|) within BRACKET_TOL * (1 + |lambda|), where
    |Theta'| is so large that one ulp of lambda moves F by more than
    RESIDUAL_TOL.  The first root that fails raises NonConvergence."""
    lams = np.asarray(lams, dtype=np.complex128)
    if not len(lams):
        return []
    fs = F(lams)
    dthetas = F.dtheta(lams, fs)
    roots = []
    for lam, f, dtheta in zip(lams.tolist(), fs.tolist(), dthetas.tolist()):
        if not (abs(f) <= RESIDUAL_TOL or (cmath.isfinite(dtheta) and
                abs(f) <= BRACKET_TOL * (1.0 + abs(lam)) * abs(dtheta))):
            raise NonConvergence(f"root {lam} not certified: |F| = {abs(f):.3g}, "
                                 f"|Theta'| = {abs(dtheta):.3g}")
        roots.append(IndicialRoot(sigma=_fold(lam.real), tau=_fold(abs(lam.imag)),
                                  residual=abs(f), dtheta=dtheta))
    return roots


def _real_brackets(F, cuts):
    """Uncertified zeros of the real-valued restriction F(lambda), lambda
    real, on the pole-free intervals between consecutive cuts: sign changes
    on one grid (one call of F), each solved by lockstep false position."""
    grids = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        pad = 1e-6 * (1.0 + b)
        lo, hi = a + pad, b - pad
        if hi > lo:
            grids.append(np.linspace(lo, hi, max(80, int(50 * (hi - lo)))))
    grid = np.concatenate(grids)
    vals = np.real(F(grid))
    flip = np.signbit(vals[1:]) != np.signbit(vals[:-1])
    flip[np.cumsum([len(g) for g in grids[:-1]], dtype=int) - 1] = False  # across a pole
    i = np.nonzero(flip)[0]
    return _false_position(lambda x: np.real(F(x)), grid[i], grid[i + 1], vals[i], vals[i + 1])


@lru_cache(maxsize=256)
def _first_interval(n, gamma, m):
    """Read-only uncertified bracket solutions on the first pole interval
    (1e-9, 2A): solved once per spec, read by `first_root` (m >= 1) and by
    every catalog's real-axis scan."""
    spec = ModeSpec(n=n, gamma=gamma, m=m)
    out = _real_brackets(_char_fn(spec, constants(n, gamma).kappa), [1e-9, 2.0 * spec.a_offset])
    out.setflags(write=False)
    return out


def _axis_roots_real(F, spec, sigma_max):
    """Certified roots of the real-valued restriction F(lambda), 0 < lambda <
    sigma_max: the first pole interval's cached solutions, then a scan of the
    intervals between the poles 2(A + k) < sigma_max and sigma_max, all
    certified by one `_make_roots` read."""
    cuts = [p for p in _pole_ladder(spec, sigma_max) if p < sigma_max] + [sigma_max]
    x0 = _first_interval(spec.n, float(spec.gamma), spec.m)
    return _make_roots(F, np.concatenate([x0, _real_brackets(F, cuts)]))


@lru_cache(maxsize=256)
def _axis_roots_imag(n, gamma, m):
    """Sign-change roots on the imaginary axis lambda = i*tau, 0 < tau <= TAU_MAX,
    as a tuple: the oscillatory pair.  They do not depend on a catalog's box,
    so one scan per spec serves `first_root` at mode 0 and every catalog.

    Returns () without a scan when Theta_m(1e-9) >= kappa (every mode m >= 1):
    on the axis F(i tau) = Theta_m(tau) - kappa, and Theta_m is strictly
    increasing in |xi| for every valid ModeSpec.  Proof: B = (n/2 + m -
    gamma)/2 > 0 since ModeSpec requires gamma < n/2, and A = B + gamma > B.
    By the product formula |Gamma(x + iy)|^2 = Gamma(x)^2 prod_{k>=0}
    (1 + y^2/(x + k)^2)^(-1), x > 0,

        Theta_m(xi) = 2^(2 gamma) Gamma(A)^2 / Gamma(B)^2
                      * prod_{k>=0} (1 + t/(B + k)^2) / (1 + t/(A + k)^2),

    t = xi^2/4, and each factor (1 + t/b^2)/(1 + t/a^2), a > b > 0, has
    t-derivative (1/b^2 - 1/a^2)/(1 + t/a^2)^2 > 0.  So Theta_m(tau) >
    Theta_m(1e-9) >= kappa on the whole scan (1e-9, TAU_MAX]: F has no sign
    change there, and the 600-point scan would return () too.
    """
    spec = ModeSpec(n=n, gamma=gamma, m=m)
    kappa = constants(n, gamma).kappa
    if theta(spec, 1e-9) >= kappa:
        return ()
    grid = np.linspace(1e-9, TAU_MAX, 600)
    vals = theta(spec, grid) - kappa
    i = np.nonzero(np.signbit(vals[1:]) != np.signbit(vals[:-1]))[0]
    t0 = _false_position(lambda t: theta(spec, t) - kappa, grid[i], grid[i + 1],
                         vals[i], vals[i + 1])
    return tuple(_make_roots(_char_fn(spec, kappa), 1j * t0))


def first_root(spec: ModeSpec) -> IndicialRoot:
    """Smallest-sigma indicial root, certified as every catalog root is.

    Mode 0 reads the oscillatory pair (sigma = 0, tau > 0) off the real
    frequency axis up to tau = TAU_MAX: the imaginary-axis scan every catalog
    of the spec reads too, run once per spec, so the root is bit for bit
    `root_catalog(spec, 1).roots[0]`.
    Mode >= 1 reads the real axis below the first pole 2A: the root lies
    below 2B < 2A, where the symbol continuation falls from
    Theta_m(0) > kappa to 0.  The bracket solutions on that interval are
    solved once per spec (`_first_interval`) and read by every catalog of
    the spec too, and certified here by the same one-read rule (each point
    of a vector F call is computed on its own), so the root is again bit
    for bit `root_catalog(spec, 1).roots[0]`.
    """
    if spec.m == 0:
        roots = _axis_roots_imag(spec.n, float(spec.gamma), spec.m)
    else:
        F = _char_fn(spec, constants(spec.n, spec.gamma).kappa)
        roots = _make_roots(F, _first_interval(spec.n, float(spec.gamma), spec.m))
    if not roots:
        raise NonConvergence(f"no real first root found by the axis scan for {spec}")
    return roots[0]


def _quadrant_count(F, spec, sigma_max, tau_max, kappa, sigma_min=None):
    """Zeros of F with sigma_min < sigma <= sigma_max and -eta < tau <= tau_max,
    via one meromorphic winding of that box; None when no margin eta keeps
    the contour clear.  The default sigma_min = -eta gives the closed first
    quadrant, axes included; a finite sigma_min gives a strip whose count
    adds to the count of the box to its left (the argument principle is
    additive over boxes sharing an edge)."""
    for eta in (0.0137, 0.0059, 0.0233):
        box = (-eta if sigma_min is None else sigma_min, sigma_max, -eta, tau_max)
        w = _winding(F, box, kappa)
        if w is not None:
            return w + _poles_inside(spec, box)
    return None


def _grow_count(F, spec, count, sigma_lo, sigma_hi, tau_max, kappa):
    """Quadrant count up to sigma_hi from the count up to sigma_lo: the count
    plus the strip between them, or the whole box when either is unknown."""
    strip = None if count is None else \
        _quadrant_count(F, spec, sigma_hi, tau_max, kappa, sigma_min=sigma_lo)
    if strip is None:
        return _quadrant_count(F, spec, sigma_hi, tau_max, kappa)
    return count + strip


@lru_cache(maxsize=256)
def _catalog_cached(n, gamma, m, j_count):
    spec = ModeSpec(n=n, gamma=gamma, m=m)
    kappa = constants(n, gamma).kappa
    F = _char_fn(spec, kappa)
    # growth offset keeps the search edge off the real pole ladder 2(A + k)
    sigma_max = 2.0 * spec.a_offset + 2.3137
    sigma_cap = 2.0 * spec.a_offset + 2.0 * j_count + 24.0
    # located roots are distinct roots inside the counted box, so a box that
    # counts short of j_count would be grown by the location loop anyway;
    # one strip of width 2 per missing root (see root_catalog)
    count = _quadrant_count(F, spec, sigma_max, TAU_MAX, kappa)
    while count is not None and count < j_count and sigma_max <= sigma_cap:
        width = 2.0 * (j_count - count)
        count = _grow_count(F, spec, count, sigma_max, sigma_max + width, TAU_MAX, kappa)
        sigma_max += width
    counted_at = sigma_max
    # the two scans return disjoint sets (sigma = 0 and tau = 0), and the
    # imaginary-axis roots do not depend on sigma_max
    imag = list(_axis_roots_imag(n, gamma, m))
    while True:
        roots = imag + _axis_roots_real(F, spec, sigma_max)
        if len(roots) >= j_count or sigma_max > sigma_cap:
            break
        sigma_max += 2.0 * (j_count - len(roots))
    if len(roots) < j_count:
        raise NonConvergence(
            f"only {len(roots)} roots located for {spec} within sigma <= {sigma_max}"
        )
    if sigma_max != counted_at:
        count = _grow_count(F, spec, count, counted_at, sigma_max, TAU_MAX, kappa)
    return RootCatalog(
        roots=tuple(sorted(roots, key=lambda r: (r.sigma, r.tau))),
        search_box=(0.0, sigma_max, 0.0, TAU_MAX), certified=count == len(roots),
    )


def root_catalog(spec: ModeSpec, j_count: int) -> RootCatalog:
    """First-quadrant catalog holding at least j_count roots, sorted by sigma.

    Counts the quadrant tau <= TAU_MAX up to sigma_max = 2A + 2.3137 by one
    meromorphic winding, then, while the count is short of j_count, winds
    only the new strip (sigma_max, sigma_max + 2 (j_count - count)) and adds
    its count to the running one (a strip no margin keeps clear is replaced
    by a whole-box count).  While no width-2 strip holds two roots, the count
    rises by at most one per width 2, so this ends at the box that growing 2
    at a time reaches, in one strip where that took several; a width-2 strip
    with two roots would end it past that box, and none of the 672 catalogs
    of `scripts/catalog_digest.py` has one.  The two axes, where the
    characteristic function is real, are then scanned once in the final box
    (the imaginary axis and the first pole interval (0, 2A) once per spec,
    shared by every catalog and `first_root`); when no counting contour can
    be cleared (no count), the real-axis scan alone grows the box, by 2
    per missing root at each step, the count's own rule.  The roots of each
    scan are certified by one vector read of F and of Theta' at their
    bracket solutions (see `_make_roots`); the first that fails raises
    NonConvergence.  The catalog is certified when the count equals the
    roots located: the count is the one guarantee that no root lies off the
    axes.
    """
    return _catalog_cached(spec.n, float(spec.gamma), spec.m, int(j_count))


@dataclass
class LemmaReport:
    """Outcome of the structural root checks across modes.

    clause_a -- mode-0 first root purely oscillatory (sigma = 0, tau > 0)
    clause_b -- mode-1 first root real and equal to 1 within tol
    clause_c -- first real exponent strictly increasing in the mode degree
    clause_d -- all higher exponents exceed (n-1)/2, in certified catalogs
    """

    clause_a: bool = False
    clause_b: bool = False
    clause_c: bool = False
    clause_d: bool = False
    tau0: float = float("nan")
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.clause_a and self.clause_b and self.clause_c and self.clause_d


def check_lemma(n: int, m_max: int = 6, j_max: int = 3, tol_b: float = 1e-8) -> LemmaReport:
    """Verify the structural picture of the indicial set for one dimension n
    at the half-power order gamma = 1/2: clauses a-d of `LemmaReport` over
    the modes 0..m_max, reading the first j_max + 1 roots of each certified
    catalog; a failed check leaves a note."""
    if not tol_b > 0.0:
        raise ValidationError(f"tol_b must be positive, got {tol_b}")
    report = LemmaReport()
    ok_d, bar, sigma_first = True, (n - 1) / 2.0, {}
    # mode 1 is read even when m_max = 0: clause b needs its first exponent
    for m in range(0, max(m_max, 1) + 1):
        cat = root_catalog(ModeSpec(n=n, m=m), j_max + 1)
        r0 = cat.roots[0]
        if m == 0:
            report.tau0 = r0.tau
            report.clause_a = (r0.sigma == 0.0) and (r0.tau > 0.0)
            if not report.clause_a:
                report.notes.append(f"mode-0 first root not purely oscillatory: {r0}")
        else:
            sigma_first[m] = r0.sigma
            if r0.tau != 0.0:
                report.notes.append(f"mode-{m} first root unexpectedly off-axis: {r0}")
        if m > m_max:
            continue
        if not cat.certified:
            ok_d = False
            report.notes.append(f"mode-{m} catalog count not certified")
        for j in range(1, j_max + 1):
            if cat.roots[j].sigma <= bar:
                ok_d = False
                report.notes.append(
                    f"mode {m} root j={j} has sigma {cat.roots[j].sigma} <= {bar}"
                )
    report.clause_b = abs(sigma_first[1] - 1.0) <= tol_b

    sigmas = [sigma_first[m] for m in range(1, m_max + 1)]
    report.clause_c = all(b > a for a, b in zip(sigmas[:-1], sigmas[1:]))
    if not report.clause_c:
        report.notes.append(f"first exponents not increasing: {sigmas}")
    report.clause_d = ok_d
    return report
