"""Regenerate roots_ref.json: 40-digit indicial roots and symbol derivatives.

For n = 2..5 and m = 0..6 at gamma = 1/2 this finds the first four roots
lambda = sigma + i tau (first quadrant, tau <= 20, sorted by sigma then tau)
of

    F(lambda) = Theta_m(-i lambda) - kappa,
    Theta_m(zeta) = 2 Gamma(A + i zeta/2) Gamma(A - i zeta/2)
                      / (Gamma(B + i zeta/2) Gamma(B - i zeta/2)),

and the derivative dTheta/dzeta at zeta = -i lambda, from the digamma form

    Theta'(zeta) = Theta(zeta) (i/2) [psi(A + i zeta/2) - psi(A - i zeta/2)
                                      - psi(B + i zeta/2) + psi(B - i zeta/2)].

Everything is mpmath at 50 working digits; nothing is imported from the
package under test.  On the two axes F is real, so roots there are
bracketed by sign changes on a fine grid and refined with mpmath's
bisection-type solver.  The open quadrant is checked root-free by the
argument principle (F has poles only on the real axis), so the axis roots
are the complete list.

Run from the repository root:  python3 bench/make_roots_ref.py
"""

from __future__ import annotations

import json
import os

import mpmath as mp

GAMMA = mp.mpf(1) / 2
TAU_MAX = 20
N_ROOTS = 4
DIGITS = 40
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "roots_ref.json")


def offsets(n, m):
    base = (mp.mpf(n) / 2 + m - 1) / 2
    return mp.mpf(1) / 2 + GAMMA / 2 + base, mp.mpf(1) / 2 - GAMMA / 2 + base


def theta(n, m, zeta):
    a, b = offsets(n, m)
    h = 1j * zeta / 2
    return (2 ** (2 * GAMMA) * mp.gamma(a + h) * mp.gamma(a - h)
            * mp.rgamma(b + h) * mp.rgamma(b - h))


def kappa(n):
    c = theta(n, 0, mp.mpf(0)).real
    return mp.mpf(n + 1) / (n - 1) * c


def dtheta(n, m, zeta):
    a, b = offsets(n, m)
    h = 1j * zeta / 2
    bracket = (mp.digamma(a + h) - mp.digamma(a - h)
               - mp.digamma(b + h) + mp.digamma(b - h))
    return theta(n, m, zeta) * 0.5j * bracket


def real_axis_F(n, m, k):
    """F on the real lambda axis (decay exponents), as a real function."""
    a, b = offsets(n, m)

    def f(x):
        h = x / 2
        return (2 ** (2 * GAMMA) * mp.gamma(a + h) * mp.gamma(a - h)
                * mp.rgamma(b + h) * mp.rgamma(b - h)) - k
    return f, [2 * (a + j) for j in range(200)]


def imag_axis_F(n, m, k):
    """F on the imaginary lambda axis (real frequency tau), a real function."""
    a, b = offsets(n, m)

    def f(t):
        h = 1j * t / 2
        return (2 ** (2 * GAMMA) * abs(mp.gamma(a + h)) ** 2
                / abs(mp.gamma(b + h)) ** 2) - k
    return f


def sign_change_roots(f, lo, hi, step):
    """Roots of a real function on (lo, hi) by grid scan plus bisection."""
    out = []
    steps = int(mp.ceil((hi - lo) / step))
    xs = [lo + (hi - lo) * j / steps for j in range(steps + 1)]
    vals = [f(x) for x in xs]
    for x0, x1, v0, v1 in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if v0 == 0:
            out.append(x0)
        elif v0 * v1 < 0:
            out.append(mp.findroot(f, (x0, x1), solver="anderson"))
    return out


def real_roots(n, m, k, sigma_max):
    f, poles = real_axis_F(n, m, k)
    cuts = [mp.mpf(0)] + [p for p in poles if p < sigma_max] + [mp.mpf(sigma_max)]
    roots = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pad = mp.mpf("1e-8")
        roots += sign_change_roots(f, lo + pad, hi - pad, mp.mpf("0.01"))
    return roots


def winding(n, m, k, box, pts_per_edge=200):
    """Winding number of F around a box in the open first quadrant.

    Counting needs only a few digits, so it runs at 20 digits; an edge
    segment is halved until F turns by less than pi/4 along it.
    """
    s0, s1, t0, t1 = box
    corners = [mp.mpc(s0, t0), mp.mpc(s1, t0), mp.mpc(s1, t1), mp.mpc(s0, t1)]
    path = []
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        path += [a + (b - a) * j / pts_per_edge for j in range(pts_per_edge)]
    path.append(path[0])
    total = mp.mpf(0)
    with mp.workdps(20):
        f = lambda lam: theta(n, m, -1j * lam) - k  # noqa: E731
        for p0, p1 in zip(path[:-1], path[1:]):
            stack = [(p0, f(p0), p1, f(p1), 0)]
            while stack:
                a, fa, b, fb, depth = stack.pop()
                d = mp.arg(fb / fa)
                if abs(d) < mp.pi / 4:
                    total += d
                    continue
                if depth > 40:
                    raise RuntimeError(f"F near zero on the contour of box {box}")
                mid = (a + b) / 2
                fm = f(mid)
                stack.append((mid, fm, b, fb, depth + 1))
                stack.append((a, fa, mid, fm, depth + 1))
        w = total / (2 * mp.pi)
    if abs(w - mp.nint(w)) > mp.mpf("1e-6"):
        raise RuntimeError(f"winding {w} not integral on box {box}")
    return int(mp.nint(w))


def catalog(n, m):
    k = kappa(n)
    a, _ = offsets(n, m)
    imag = sign_change_roots(imag_axis_F(n, m, k), mp.mpf("1e-9"), mp.mpf(TAU_MAX),
                             mp.mpf("0.01"))
    sigma_max = 2 * a + 6
    while True:
        real = real_roots(n, m, k, sigma_max)
        if len(imag) + len(real) >= N_ROOTS:
            break
        sigma_max += 4
    roots = sorted([(mp.mpf(0), t) for t in imag] + [(s, mp.mpf(0)) for s in real])
    roots = roots[:N_ROOTS]
    box = (mp.mpf("0.02"), roots[-1][0] + mp.mpf("0.5"), mp.mpf("0.02"), mp.mpf(TAU_MAX))
    if winding(n, m, k, box) != 0:
        raise RuntimeError(f"complex roots in the open quadrant for n={n}, m={m}")
    rows = []
    for sigma, tau in roots:
        lam = mp.mpc(sigma, tau)
        zeta = -1j * lam
        residual = abs(theta(n, m, zeta) - k)
        if residual > mp.mpf("1e-40"):
            raise RuntimeError(f"root residual {residual} for n={n}, m={m}")
        d = dtheta(n, m, zeta)
        rows.append({"sigma": mp.nstr(sigma, DIGITS), "tau": mp.nstr(tau, DIGITS),
                     "dtheta_re": mp.nstr(d.real, DIGITS),
                     "dtheta_im": mp.nstr(d.imag, DIGITS)})
    return rows


def main():
    mp.mp.dps = 50
    table = {}
    for n in range(2, 6):
        for m in range(0, 7):
            table[f"{n},{m}"] = catalog(n, m)
            print(n, m, [(r["sigma"][:12], r["tau"][:12]) for r in table[f"{n},{m}"]],
                  flush=True)
    with open(OUT, "w") as fh:
        json.dump({"gamma": "0.5", "tau_max": TAU_MAX, "digits": DIGITS,
                   "roots": table}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
