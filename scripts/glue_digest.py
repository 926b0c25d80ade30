"""One SHA-256 over a sweep of glued-neck errors, invertibility studies and solves.

Every output of the sweep is written out exactly: numbers with `repr`, arrays
as their raw bytes with shape and dtype, or the error type and message when
the call raises.  Two checkouts that print the same digest return the same
neck and solver numbers bit for bit, so the script checks that a change to
the glue layer is a pure refactor.  It is the glue-layer counterpart of
`catalog_digest.py`, and shares its loop and printing (`_digest.py`).

Sweep:
    error      E and the pointwise error Q - c for n 2..4, epsilon in
               EPS_SWEEP + (0.2, 0.003), mu default and -0.5, under the
               default config and one variant of each CLI-settable option
               (n_s 512, pad 3)
    selftest   covariance_selftest for n 2, 3 at two epsilons
    study      per-mode sup-norm sigmas of 12 single-epsilon studies (n 2
               and 3, six epsilons each)
    c10        the criterion-10 study: its window, sup-norm slope and
               per-mode sup-norm sigmas
    solve      criterion 7's Newton and fixed-point histories with their
               final samples, and apply_Q at its start
`--quick` runs a small subset of each (a few seconds).

Usage: python scripts/glue_digest.py [--quick]
"""

import numpy as np

from _digest import main
from neckforge.acceptance import EPS_SWEEP
from neckforge.neck import NeckConfig, approximate_curvature_error, covariance_selftest
from neckforge.solver import (PeriodicCylinderState, apply_Q, newton_solve,
                              uniform_invertibility_study)

VARIANTS = ({}, {"n_s": 512}, {"pad": 3.0})
STUDY_MU = {2: -0.4, 3: -0.5}
FULL = {
    "error": dict(n=(2, 3, 4), eps=EPS_SWEEP + (0.2, 0.003), mu=(None, -0.5),
                  variant=range(len(VARIANTS))),
    "selftest": dict(n=(2, 3), eps=(0.1, 0.0125)),
    "study": dict(n=(2, 3), eps=(0.2, 0.1, 0.04, 0.015, 0.006, 0.003)),
    "c10": dict(N_s=(384,)),
    "solve": dict(method=("newton", "fixed-point")),
}
QUICK = {
    "error": dict(n=(2, 3), eps=(0.1, 0.003), mu=(None,), variant=(1, 2)),
    "selftest": dict(n=(3,), eps=(0.1,)),
    "study": dict(n=(3,), eps=(0.025,)),
    "c10": dict(N_s=()),
    "solve": dict(method=("fixed-point",)),
}


def _error(n, eps, mu, variant):
    cfg = NeckConfig(epsilon=eps, **VARIANTS[variant])
    err, E = approximate_curvature_error(cfg, n, mu)
    return getattr(err, "values", err), E  # a LineFunction in older checkouts


def _selftest(n, eps):
    return covariance_selftest(NeckConfig(epsilon=eps, n_s=1024), n)


def _rows(rep):
    return [(r["epsilon"], r["per_mode"]) for r in rep["rows"]]


def _study(n, eps):
    rep = uniform_invertibility_study(n, [eps], mu=STUDY_MU[n], m_max=2, N_s=256)
    return rep["L"], _rows(rep)


def _c10(N_s):
    rep = uniform_invertibility_study(3, list(EPS_SWEEP), mu=-0.5, m_max=3, N_s=N_s)
    return rep["L"], rep["slope"], _rows(rep)


def _solve(method):
    """Criterion 7: modes 1 and 2 of the constant factor raised by 0.01 at k = 1."""
    st1 = PeriodicCylinderState.ones(3, m_max=8, N_s=256)
    values = st1.values.copy()
    values[[1, 2]] += 0.01 * np.cos(2.0 * np.pi * np.arange(st1.N_s) / st1.N_s)
    start = PeriodicCylinderState(st1.n, st1.L, values)
    rep = newton_solve(start, tol=1e-11, method=method)
    return apply_Q(start), rep.iterations, rep.residual_history, rep.final_f.values


KINDS = {"error": _error, "selftest": _selftest, "study": _study, "c10": _c10,
         "solve": _solve}


def _encode(out) -> bytes:
    """Arrays as their shape, dtype and raw bytes and everything else by
    repr, recursively; dicts as their item lists, numpy scalars as the
    Python numbers they equal."""
    if isinstance(out, np.generic):
        out = out.item()
    elif isinstance(out, dict):
        out = list(out.items())
    if isinstance(out, np.ndarray):
        return repr((out.shape, out.dtype.str)).encode() + np.ascontiguousarray(out).tobytes()
    if isinstance(out, (tuple, list)):
        return f"[{len(out)}".encode() + b"".join(map(_encode, out)) + b"]"
    return repr(out).encode()


def _record(kind, args, out, messages):
    """The encoding of one call; warnings do not enter it."""
    return _encode((kind, args, out))


if __name__ == "__main__":
    main(KINDS, FULL, QUICK, _record)
