"""Indicial roots against frozen mpmath oracles.

The reference values below were produced by a 40-digit mpmath computation
(gamma products evaluated on the imaginary axis, findroot) — a different
special-function stack and a different root-finding method than the package
uses, so agreement is meaningful.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neckforge import indicial
from neckforge.errors import NonConvergence, ValidationError
from neckforge.indicial import _false_position, check_lemma, first_root, root_catalog
from neckforge.symbol import ModeSpec, constants, theta

# mode-0 crossing frequency per dimension
TAU0 = {2: 0.80990727068780252, 3: 1.2191319876982279,
        4: 1.54527531318392, 5: 1.8230586436431967}

# the first real exponents of modes 0 and 1, n = 3 (mode 0 leads with its oscillatory sigma = 0 root)
LADDER_M0 = (0.0, 2.7214109165766458, 4.8361113978734753, 6.8835616365043332)
LADDER_M1 = (1.0, 3.7787019380974985, 5.8598340748607976)

# (n, m, j): (sigma, tau, Re dTheta/dzeta, Im dTheta/dzeta) for the first four
# catalog roots, the derivative from the digamma form at zeta = -i*lambda
DTHETA = {
    (3, 0, 0): (0.0, 1.219131987698227902485506854503005650704,
                0.8706260143937039963689891546600678897043, 0.0),
    (3, 0, 1): (2.721410916576645793557662262504754205909, 0.0,
                0.0, -4.742642357187780913534192686811207968228),
    (3, 0, 2): (4.836111397873475266873818627038835089899, 0.0,
                0.0, -7.859823566519884454219141979771317061813),
    (3, 0, 3): (6.883561636504333152239851503308588796665, 0.0,
                0.0, -10.9976414669512714880723494887730798517),
    (3, 1, 0): (1.0, 0.0,
                0.0, -0.6366197723675813430755350534900574481378),
    (3, 1, 1): (3.778701938097498472955782380182741760737, 0.0,
                0.0, -5.856825357501029670085119352740681265559),
    (3, 1, 2): (5.859834074860797576888483444421245075399, 0.0,
                0.0, -9.153826794756803902074448625259682175779),
    (3, 1, 3): (7.896598077911505350541304609634750346095, 0.0,
                0.0, -12.36626561292484349959764201613137496498),
    (3, 2, 0): (2.362990880139059946774223456171201011856, 0.0,
                0.0, -1.375934674102547552770375575572162719847),
    (3, 2, 1): (4.810878001586800815378571152815730950985, 0.0,
                0.0, -6.794061103085571031471054094884797728844),
    (3, 2, 2): (6.875545317061496731187033745114826982841, 0.0,
                0.0, -10.28451448691951288132752076673791925525),
    (3, 2, 3): (8.906049508884128011546002480016366435044, 0.0,
                0.0, -13.59652953252798336660696811519205924333),
    (4, 0, 0): (0.0, 1.545275313183919980109398956971915060923,
                0.7993694319123451143685936893625505092439, 0.0),
    (4, 0, 1): (3.15605079941409985198737332656841347114, 0.0,
                0.0, -5.87358280338969598962174247431334267403),
    (4, 0, 2): (5.285860206619172707158155743060746887824, 0.0,
                0.0, -8.840198285067719495394111000527775031158),
    (4, 0, 3): (7.344009625484325887881761060608853042201, 0.0,
                0.0, -11.92074230639055022517410550731191640517),
    (4, 1, 0): (1.0, 0.0,
                0.0, -0.4863199144947725864081710979343254540576),
    (4, 1, 1): (4.212250825935458534817290118469669797345, 0.0,
                0.0, -6.750455938259146136862184205103796660658),
    (4, 1, 2): (6.312508652470389355864030068612435294465, 0.0,
                0.0, -9.994852633925062339884734877279266013481),
    (4, 1, 3): (8.359585615137572061177379052537237577626, 0.0,
                0.0, -13.18863208116565866213542244943415640275),
    (4, 2, 0): (2.544580932762638271011555328994006106892, 0.0,
                0.0, -1.171218498222232144193000803513796837165),
    (4, 2, 1): (5.247696320390396503646142731083011131223, 0.0,
                0.0, -7.54534241156932293757078364442087496955),
    (4, 2, 2): (7.331170459300638800031778157075319162729, 0.0,
                0.0, -11.02966683684106818792628612974795467905),
    (4, 2, 3): (9.371263640147651804579110560960678264712, 0.0,
                0.0, -14.34399859393643982102802030241968358564),
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mode0_first_root_is_oscillatory(n, tol=1e-12):
    root = first_root(ModeSpec(n=n, m=0))
    assert root.sigma == 0.0
    assert abs(root.tau - TAU0[n]) <= tol


def test_mode1_first_exponent_exact_n3():
    root = first_root(ModeSpec(n=3, m=1))
    assert abs(root.sigma - 1.0) <= 1e-10
    assert root.tau == 0.0


@pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_mode1_translation_exponent_every_order(n, gamma):
    # translations of R^n give the mode-1 exponent sigma = 1 exactly, for
    # every order; the shift is kappa_g = (n + 2g)/(n - 2g) * c_g
    root = first_root(ModeSpec(n=n, gamma=gamma, m=1))
    assert abs(root.sigma - 1.0) <= 1e-12
    assert root.tau == 0.0


@pytest.mark.parametrize("m,ladder", [(0, LADDER_M0), (1, LADDER_M1)])
def test_sigma_ladders_n3(m, ladder):
    roots = root_catalog(ModeSpec(n=3, m=m), len(ladder)).roots[:len(ladder)]
    got = np.array([r.sigma for r in roots])
    assert np.max(np.abs(got - ladder)) <= 1e-10


@pytest.mark.parametrize("n,m", [(3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)])
def test_dtheta_against_mpmath(n, m):
    cat = root_catalog(ModeSpec(n=n, m=m), 4)
    for j, root in enumerate(cat.roots[:4]):
        sigma, tau, d_re, d_im = DTHETA[n, m, j]
        assert abs(root.lam - complex(sigma, tau)) <= 1e-12
        want = complex(d_re, d_im)
        assert abs(root.dtheta - want) <= 1e-13 * abs(want)


def test_catalog_roots_certified_and_ordered():
    cat = root_catalog(ModeSpec(n=3, m=2), 3)
    sigmas = [r.sigma for r in cat.roots]
    assert sigmas == sorted(sigmas)
    assert cat.certified
    # each root actually solves the characteristic equation
    assert all(abs(r.residual) < 1e-9 for r in cat.roots)


def test_first_exponents_increase_with_mode():
    vals = [first_root(ModeSpec(n=3, m=m)).sigma for m in range(1, 7)]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


def test_no_genuinely_complex_roots_low_modes():
    # all roots are either on the real-frequency axis (sigma = 0) or on the
    # decay axis (tau = 0); the independent quadrant count matching the roots
    # located is what proves the open quadrant empty
    for gamma in (0.3, 0.5, 0.8):
        for n in range(2, 9):
            for m in range(8):
                cat = root_catalog(ModeSpec(n=n, gamma=gamma, m=m), 3)
                assert cat.certified, (gamma, n, m)
                for r in cat.roots:
                    assert r.sigma == 0.0 or r.tau == 0.0


def test_check_lemma_n3_all_clauses():
    rep = check_lemma(3, m_max=6, j_max=3, tol_b=1e-8)
    assert rep.passed
    assert rep.clause_a and rep.clause_b and rep.clause_c and rep.clause_d
    assert abs(rep.tau0 - TAU0[3]) <= 1e-10


@pytest.mark.parametrize("tol_b", [0.0, -1.0, float("nan")])
def test_check_lemma_rejects_nonpositive_tol_b(monkeypatch, tol_b):
    def no_root_work(*args, **kwargs):
        raise AssertionError("root work before the tolerance check")
    monkeypatch.setattr(indicial, "first_root", no_root_work)
    monkeypatch.setattr(indicial, "root_catalog", no_root_work)
    with pytest.raises(ValidationError, match="tol_b"):
        check_lemma(3, tol_b=tol_b)


@pytest.mark.parametrize("n, m", [(3, 2), (5, 6)])
def test_catalog_locates_once(monkeypatch, n, m):
    # the search box is grown by counting alone, so each axis is scanned once;
    # without a count the location loop grows the box by 2 per missing root,
    # rescanning only the real axis (the imaginary-axis roots do not depend on
    # sigma_max): the first box and one grown box
    calls = {}
    for name in ("_axis_roots_real", "_axis_roots_imag"):
        def counted(*args, _fn=getattr(indicial, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(indicial, name, counted)
    indicial._catalog_cached.cache_clear()
    cat = root_catalog(ModeSpec(n=n, m=m), 4)
    assert len(cat.roots) >= 4 and cat.certified
    assert calls == {"_axis_roots_real": 1, "_axis_roots_imag": 1}

    calls.clear()
    monkeypatch.setattr(indicial, "_quadrant_count", lambda *args, **kwargs: None)
    indicial._catalog_cached.cache_clear()
    assert not root_catalog(ModeSpec(n=n, m=m), 4).certified
    assert calls == {"_axis_roots_real": 2, "_axis_roots_imag": 1}
    indicial._catalog_cached.cache_clear()


@pytest.mark.parametrize("n, m", [(3, 2), (5, 6), (2, 0)])
def test_uncounted_catalog_is_uncertified_with_the_same_roots(monkeypatch, n, m):
    # with no counting contour cleared the location loop alone grows the box:
    # the same roots in the same box, but nothing proves the open quadrant empty
    spec = ModeSpec(n=n, m=m)
    j_counts = (6, 12, 20)
    indicial._catalog_cached.cache_clear()
    want = [root_catalog(spec, j) for j in j_counts]
    monkeypatch.setattr(indicial, "_quadrant_count", lambda *args, **kwargs: None)
    indicial._catalog_cached.cache_clear()
    got = [root_catalog(spec, j) for j in j_counts]
    indicial._catalog_cached.cache_clear()
    for w, g in zip(want, got):
        assert w.certified and not g.certified
        assert g.roots == w.roots and g.search_box == w.search_box


@pytest.mark.parametrize("n, m", [(4, 9), (11, 6)])
def test_polish_stops_at_the_last_ulp(n, m):
    # where |Theta'| is large, one ulp of lambda moves F by more than the
    # 1e-10 bound; the polish stops once its step is a few ulps of lambda
    cat = root_catalog(ModeSpec(n=n, gamma=1.7, m=m), 8)
    assert cat.certified and len(cat.roots) >= 8
    eps = np.finfo(float).eps
    for r in cat.roots:
        assert r.residual <= max(1e-10, 4.0 * eps * abs(r.lam) * abs(r.dtheta))


@pytest.mark.parametrize("n", [10, 11, 12])
def test_first_root_is_the_catalog_root_at_high_order(n):
    # at kappa near 300 |F| cannot reach 1e-12 within an ulp of the root;
    # the bracket solve's root is certified by its Newton correction instead
    spec = ModeSpec(n=n, gamma=1.7, m=0)
    root = first_root(spec)
    assert root == root_catalog(spec, 1).roots[0]


def test_root_failing_both_certification_rules_raises():
    spec = ModeSpec(n=3, m=1)
    F = indicial._char_fn(spec, constants(3).kappa)
    assert indicial._make_roots(F, [1.0])[0].sigma == 1.0
    with pytest.raises(NonConvergence, match="1.000001"):
        indicial._make_roots(F, [1.000001])


def test_batch_certification():
    spec = ModeSpec(n=3, m=1)
    F = indicial._char_fn(spec, constants(3).kappa)
    assert indicial._make_roots(F, []) == []
    # the first root that fails names itself, after the ones that pass
    with pytest.raises(NonConvergence, match=r"root \(1\.000001\+0j\) not certified"):
        indicial._make_roots(F, [1.0, 1.000001])
    # re-certifying a catalog's roots gives them back, fields as Python scalars
    roots = root_catalog(spec, 4).roots + root_catalog(ModeSpec(n=3, m=0), 4).roots[:1]
    got = indicial._make_roots(F, [r.lam for r in roots[:4]])
    assert tuple(got) == roots[:4]
    for r in got + [roots[4]]:
        assert [type(v) for v in (r.sigma, r.tau, r.residual, r.dtheta)] == \
            [float, float, float, complex]


@pytest.mark.parametrize("n, m", [(3, 0), (3, 2), (5, 6)])
def test_each_axis_scan_certifies_in_one_read(monkeypatch, n, m):
    # one vector call of Theta'/Theta per scan that finds roots, whatever
    # their number (mode 0 has one on each axis, the higher modes only real ones)
    calls = []
    log_derivative = indicial.theta_log_derivative

    def counted(spec, zeta):
        calls.append(np.size(zeta))
        return log_derivative(spec, zeta)
    monkeypatch.setattr(indicial, "theta_log_derivative", counted)
    indicial._catalog_cached.cache_clear()
    indicial._axis_roots_imag.cache_clear()
    cat = root_catalog(ModeSpec(n=n, m=m), 4)
    indicial._catalog_cached.cache_clear()
    assert len(calls) == len({r.tau == 0.0 for r in cat.roots}) == (2 if m == 0 else 1)
    assert sum(calls) == len(cat.roots) >= 4


@pytest.mark.parametrize("n", range(2, 11))
def test_mode0_first_root_is_the_catalog_root(n):
    # at mode 0 both read the same imaginary-axis scan
    spec = ModeSpec(n=n, gamma=0.5, m=0)
    assert first_root(spec) == root_catalog(spec, 1).roots[0]


@pytest.mark.parametrize("gamma, n, m", [(0.05, 10, 1), (0.05, 2, 1), (0.3, 7, 3),
                                         (0.5, 3, 2), (0.8, 5, 6), (1.7, 12, 10)])
def test_first_root_within_the_bracket_tolerance_of_the_catalog_root(gamma, n, m):
    # at m >= 1 first_root certifies the bracket solutions on the first pole
    # interval (0, 2A) that every catalog of the spec reads
    spec = ModeSpec(n=n, gamma=gamma, m=m)
    got, want = first_root(spec), root_catalog(spec, 1).roots[0]
    assert got.tau == want.tau == 0.0
    assert got == want


def _imag_scan(spec):
    """The 600-point imaginary-axis scan with no early exit: sign changes of
    Theta_m(tau) - kappa on (1e-9, TAU_MAX], solved and certified."""
    kappa = constants(spec.n, spec.gamma).kappa
    grid = np.linspace(1e-9, indicial.TAU_MAX, 600)
    vals = theta(spec, grid) - kappa
    i = np.nonzero(np.signbit(vals[1:]) != np.signbit(vals[:-1]))[0]
    t0 = _false_position(lambda t: theta(spec, t) - kappa, grid[i], grid[i + 1],
                         vals[i], vals[i + 1])
    return tuple(indicial._make_roots(indicial._char_fn(spec, kappa), 1j * t0))


def test_imaginary_axis_of_a_higher_mode_is_read_from_one_value(monkeypatch):
    # Theta_m is increasing in |xi| and Theta_m(0) > kappa at m >= 1, so one
    # value at the scan's first point rules out every sign change on the axis
    calls = []

    def counted(spec, xi):
        calls.append(np.size(xi))
        return theta(spec, xi)
    specs = [ModeSpec(n=n, gamma=gamma, m=m) for n in range(2, 9) for m in range(1, 8)
             for gamma in (0.3, 0.5, 0.8, 1.7) if gamma < n / 2]
    monkeypatch.setattr(indicial, "theta", counted)
    indicial._axis_roots_imag.cache_clear()
    for spec in specs:
        calls.clear()
        assert indicial._axis_roots_imag(spec.n, spec.gamma, spec.m) == () == _imag_scan(spec)
        assert calls == [1]
    indicial._axis_roots_imag.cache_clear()
    # mode 0 still scans, and finds the oscillatory root
    spec = ModeSpec(n=3, m=0)
    assert indicial._axis_roots_imag(3, 0.5, 0) == _imag_scan(spec) != ()
    assert len(specs) == 182


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), frac=st.floats(0.02, 0.98), m=st.integers(0, 12),
       ks=st.lists(st.integers(0, 2000), min_size=2, max_size=60, unique=True))
def test_theta_strictly_increasing_in_frequency(n, frac, m, ks):
    # the monotonicity the imaginary-axis early exit rests on, at grid
    # spacing 0.01 on [0, TAU_MAX], for gamma anywhere in (0, min(n/2, 4))
    spec = ModeSpec(n=n, gamma=frac * min(n / 2.0, 4.0), m=m)
    vals = theta(spec, np.array(sorted(ks)) / 100.0)
    assert np.all(np.diff(vals) > 0.0)


@pytest.mark.parametrize("n, m", [(3, 1), (5, 6), (8, 3)])
def test_first_interval_is_bracketed_once(monkeypatch, n, m):
    # a cold first_root and catalog solve the brackets below the first pole
    # 2A once, and read the same solutions
    spec = ModeSpec(n=n, m=m)
    below = []
    solve = indicial._false_position

    def recorded(g, a, b, fa, fb, **kwargs):
        below.append(int(np.sum(np.asarray(b) < 2.0 * spec.a_offset)))
        return solve(g, a, b, fa, fb, **kwargs)
    monkeypatch.setattr(indicial, "_false_position", recorded)
    for cached in (indicial._first_interval, indicial._catalog_cached,
                   indicial._axis_roots_imag):
        cached.cache_clear()
    root = first_root(spec)
    cat = root_catalog(spec, 4)
    indicial._catalog_cached.cache_clear()
    assert root == cat.roots[0] and cat.certified
    assert sum(below) == 1 and below[0] == 1


def _dense_winding(F, box, per_edge=2048):
    """Winding of F along the box boundary from the phase sum over per_edge
    points on every edge, each step checked to turn by less than pi/2."""
    slo, shi, tlo, thi = box
    corners = [complex(slo, tlo), complex(shi, tlo), complex(shi, thi), complex(slo, thi)]
    path = np.concatenate([a + (b - a) * np.linspace(0.0, 1.0, per_edge, endpoint=False)
                           for a, b in zip(corners, corners[1:] + corners[:1])])
    vals = F(np.append(path, path[0]))
    d_arg = np.angle(vals[1:] / vals[:-1])
    assert np.max(np.abs(d_arg)) < 0.5 * np.pi
    w = np.sum(d_arg) / (2.0 * np.pi)
    assert abs(w - round(w)) < 1e-6
    return round(w)


def test_sized_top_edge_winds_as_a_dense_path(monkeypatch):
    # every box a criterion-2 catalog winds (the first box and its one growth
    # strip, of width 4), with the top edge's first pass sized by its length
    wound, winding = [], indicial._winding

    def recorded(F, box, kappa_scale):
        w = winding(F, box, kappa_scale)
        wound.append((F, box, w))
        return w
    monkeypatch.setattr(indicial, "_winding", recorded)
    indicial._catalog_cached.cache_clear()
    for n in range(2, 6):
        for m in range(7):
            before = len(wound)
            root_catalog(ModeSpec(n=n, m=m), 4)
            assert len(wound) - before == 2
    indicial._catalog_cached.cache_clear()
    assert len(wound) == 56
    assert {round(box[1] - box[0], 9) for _, box, _ in wound[1::2]} == {4.0}
    for F, box, w in wound:
        width, height = box[1] - box[0], box[3] - box[2]
        top = max(8, int(np.ceil(96 * width / height)))
        assert len(indicial._box_path(box, 96)) == 3 * 96 + top + 1
        assert w == _dense_winding(F, box)


def test_uncertified_catalog_fails_clause_d(monkeypatch):
    # certification is the only guard against an off-axis root, so a catalog
    # whose count does not match its roots fails the clause that reads it
    build = indicial.root_catalog
    monkeypatch.setattr(indicial, "root_catalog", lambda *args: dataclasses.replace(
        build(*args), certified=False))
    rep = check_lemma(3)
    assert rep.clause_a and rep.clause_b and rep.clause_c
    assert not rep.clause_d and not rep.passed
    assert "mode-0 catalog count not certified" in rep.notes


@pytest.mark.parametrize("n", range(2, 9))
def test_strip_counts_add_up_to_the_whole_box(n):
    # the catalog's running count (first box, then one strip per growth step)
    # against an independent winding of the whole grown box, and a width-4
    # strip (a criterion-2 catalog's one growth step) against its two halves
    kappa = constants(n).kappa
    grew = 0
    for m in range(8):
        spec = ModeSpec(n=n, m=m)
        F = indicial._char_fn(spec, kappa)
        sigma_max = 2.0 * spec.a_offset + 2.3137
        count = indicial._quadrant_count(F, spec, sigma_max, 20.0, kappa)
        wide = indicial._quadrant_count(F, spec, sigma_max + 4.0, 20.0, kappa,
                                        sigma_min=sigma_max)
        strips = []
        for _ in range(3):
            strip = indicial._quadrant_count(F, spec, sigma_max + 2.0, 20.0, kappa,
                                             sigma_min=sigma_max)
            count, sigma_max, grew = count + strip, sigma_max + 2.0, grew + strip
            assert count == indicial._quadrant_count(F, spec, sigma_max, 20.0, kappa)
            strips.append(strip)
        assert wide == strips[0] + strips[1]
    assert grew > 0


def test_failed_strip_falls_back_to_the_whole_box(monkeypatch):
    # a strip that no margin keeps clear is replaced by a whole-box count
    spec = ModeSpec(n=3, m=2)
    indicial._catalog_cached.cache_clear()
    want = root_catalog(spec, 4)
    strip_calls = []
    count = indicial._quadrant_count

    def no_strips(*args, sigma_min=None):
        if sigma_min is not None:
            strip_calls.append(sigma_min)
            return None
        return count(*args)
    monkeypatch.setattr(indicial, "_quadrant_count", no_strips)
    indicial._catalog_cached.cache_clear()
    assert root_catalog(spec, 4) == want and want.certified
    assert strip_calls


@pytest.mark.parametrize("n", [3, 4])
def test_contour_through_a_root_or_a_pole_counts_nothing(n):
    # every margin keeps the right edge where it is: on the mode-1 root
    # lambda = 1 |F| drops below the 1e-9 kappa floor, and on the pole
    # 2(A + 1) F cannot be evaluated; the catalog's own first edge is clear
    spec = ModeSpec(n=n, m=1)
    kappa = constants(n).kappa
    F = indicial._char_fn(spec, kappa)
    a = spec.a_offset
    assert indicial._quadrant_count(F, spec, 1.0, indicial.TAU_MAX, kappa) is None
    assert indicial._quadrant_count(F, spec, 2.0 * a + 2.0, indicial.TAU_MAX, kappa) is None
    count = indicial._quadrant_count(F, spec, 2.0 * a + 2.3137, indicial.TAU_MAX, kappa)
    assert isinstance(count, int)


def _illinois_one(g, a, b, fa, fb, tol=1e-14, max_iter=200):
    """One bracket at a time, in Python floats: the loop each lockstep bracket
    must reproduce exactly."""
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    side = 0
    for _ in range(max_iter):
        x = b - fb * (b - a) / (fb - fa)
        if not a < x < b or b - a < tol * (1.0 + abs(x)):
            return x
        fx = g(x)
        if fx == 0.0:
            return x
        if (fx > 0.0) == (fb > 0.0):
            b, fb = x, fx
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            a, fa = x, fx
            if side == 1:
                fb *= 0.5
            side = 1
    return x


def test_false_position_lockstep():
    sizes = []

    def g(x):
        sizes.append(len(x))
        return np.cos(x)

    a, b = np.array([1.0, 4.0, 7.0]), np.array([2.5, 5.0, 8.5])
    alone, steps = [], []
    for k in range(3):
        sizes.clear()
        alone.append(_false_position(g, a[k:k + 1], b[k:k + 1], np.cos(a[k:k + 1]),
                                     np.cos(b[k:k + 1]))[0])
        steps.append(len(sizes))
        scalar_calls = []

        def g_scalar(x):
            scalar_calls.append(x)
            return float(np.cos(x))

        ref = _illinois_one(g_scalar, float(a[k]), float(b[k]), float(np.cos(a[k])),
                            float(np.cos(b[k])))
        assert alone[k] == ref and steps[k] == len(scalar_calls)
    sizes.clear()
    got = _false_position(g, a, b, np.cos(a), np.cos(b))
    assert list(got) == alone
    assert np.max(np.abs(got - np.pi * np.array([0.5, 1.5, 2.5]))) <= 1e-14
    # one call of g per step, for as many steps as the slowest bracket takes
    assert len(sizes) == max(steps)
    assert sizes == sorted(sizes, reverse=True) and sizes[0] == 3

    # a zero end value returns that end, beside a bracket that still runs
    p = lambda x: (x - 1.0) * (x - 3.0) * (x - 5.0)
    a, b = np.array([1.0, 2.0, 4.0]), np.array([2.0, 3.0, 6.0])
    got = _false_position(p, a, b, p(a), p(b))
    assert got[0] == 1.0 and got[1] == 3.0 and abs(got[2] - 5.0) <= 1e-13
    with pytest.raises(NonConvergence, match="no sign change"):
        _false_position(p, [2.0, 3.5], [2.5, 4.5], p(np.array([2.0, 3.5])),
                        p(np.array([2.5, 4.5])))


def test_false_position_raises_at_max_iter():
    # a quintuple root: Illinois stalls and would need 202 steps on [0, 1]
    g = lambda x: (x - 0.3) ** 5
    # beside a simple root of cos that converges, the stalled bracket is named
    both = lambda x: np.where(x < 3.0, g(x), np.cos(x))
    a, b = np.array([0.0, 4.0]), np.array([1.0, 5.0])
    with pytest.raises(NonConvergence, match=r"200 steps on \[0\.29"):
        _false_position(both, a, b, both(a), both(b))
    x = _false_position(g, a[:1], b[:1], g(a[:1]), g(b[:1]), max_iter=400)
    assert abs(x[0] - 0.3) <= 6e-15
