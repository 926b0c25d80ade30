"""One SHA-256 over a sweep of mode Green solves and applies of the line operator.

Every `green_solve` and `apply_L0` output of the sweep is written out with
`repr` (exact floats): grid, mode, envelope rate and every sample, with the
messages of any warnings the call emitted, or the error type and message
when the call raises.  Two checkouts that print the same digest return the
same line functions bit for bit, so the script checks that a change to the
mode Green layer is a pure refactor.  It is the `modegreen` counterpart of
`catalog_digest.py`.

Sweep (n = 3, gamma = 1/2, 4,096 points on [-30, 30)):
    c4     criterion 4: the round trip apply_L0(green_solve(h)) for
           h = exp(-0.5 sqrt(s^2 + 4)), m 0..3, and apply_L0 on each
           homogeneous basis function                            (4 modes)
    c5     criterion 5: the round trips of its three right sides
           (exp(-0.75 sqrt(s^2 + 4)), exp(-0.8 sqrt(s^2 + 1)) and their
           sum) at delta 0.75 on both contours beta {0.2, 0.45}, m 0, 1
                                                                  (12 solves)
    bench  the 8 (m, delta) pairs of the `green` benchmark, m 0..3, delta
           {0.5, 0.75}, at core widths a {1, 2, 3}               (24 round trips)
    beta   explicit contours beta {-0.3, 0, 0.2, 0.45, 1, 2, 3, 4} for
           m 0..3 at delta 1.5: the round trip, and apply_L0 on the right
           side carried at envelope rate beta (a pole of the symbol at
           +-2A, A the numerator Gamma offset)                    (64 calls)
`--quick` runs a small subset of each (about a second).  The first line is
the digest of the whole sweep with the call counts; one line per kind
follows with the digest of that kind alone, so a change that moves some
outputs shows which.

Usage: python scripts/green_digest.py [--quick]
"""

import hashlib
import sys
import warnings
from itertools import product

import numpy as np

from neckforge.errors import NeckforgeError
from neckforge.modegreen import (DecayProfile, LineFunction, apply_L0, green_solve,
                                 homogeneous_basis)
from neckforge.symbol import ModeSpec

N, HALF = 4096, 30.0
C5_RHS = {"h": (0.75, 2.0), "h_a": (0.8, 1.0)}  # rate and core width of each summand
FULL = {
    "c4": dict(m=range(4)),
    "c5": dict(m=(0, 1), rhs=("h", "h_a", "h_sum"), beta=(0.2, 0.45)),
    "bench": dict(m=range(4), delta=(0.5, 0.75), a=(1.0, 2.0, 3.0)),
    "beta": dict(m=range(4), beta=(-0.3, 0.0, 0.2, 0.45, 1.0, 2.0, 3.0, 4.0),
                 op=("solve", "apply")),
}
QUICK = {
    "c4": dict(m=(0, 1)),
    "c5": dict(m=(1,), rhs=("h_sum",), beta=(0.2, 0.45)),
    "bench": dict(m=(0, 2), delta=(0.5,), a=(2.0,)),
    "beta": dict(m=(0, 1), beta=(0.0, 0.2, 2.0), op=("solve", "apply")),
}


def _rhs(m, delta, a):
    return LineFunction.from_callable(lambda s: np.exp(-delta * np.sqrt(s * s + a * a)),
                                      s0=-HALF, s1=HALF, N=N, mode=m)


def _line(v):
    return (v.s0, v.ds, v.N, v.mode, v.envelope_rate, v.values.tolist())


def _round_trip(m, h, delta, beta=None):
    spec = ModeSpec(n=3, m=m)
    v = green_solve(spec, h, DecayProfile(delta=delta), beta=beta)
    return _line(v), _line(apply_L0(spec, v))


def _c4(m):
    spec = ModeSpec(n=3, m=m)
    return (_round_trip(m, _rhs(m, 0.5, 2.0), 0.5),
            [_line(apply_L0(spec, w)) for w in homogeneous_basis(spec)])


def _c5(m, rhs, beta):
    if rhs == "h_sum":
        h = _rhs(m, *C5_RHS["h"])
        h = LineFunction(h.s0, h.ds, h.N, h.values + _rhs(m, *C5_RHS["h_a"]).values, m)
    else:
        h = _rhs(m, *C5_RHS[rhs])
    return _round_trip(m, h, 0.75, beta)


def _bench(m, delta, a):
    return _round_trip(m, _rhs(m, delta, a), delta)


def _beta(m, beta, op):
    h = _rhs(m, 1.5, 2.0)
    if op == "solve":
        return _round_trip(m, h, 1.5, beta)
    return _line(apply_L0(ModeSpec(n=3, m=m),
                          LineFunction(h.s0, h.ds, h.N, h.values, m, beta)))


KINDS = {"c4": _c4, "c5": _c5, "bench": _bench, "beta": _beta}


def digest(sweep):
    """SHA-256 over the whole sweep, the count of calls per kind, and one
    SHA-256 per kind over that kind's calls alone."""
    h = hashlib.sha256()
    by_kind = {}
    counts = dict.fromkeys(KINDS, 0) | {"raised": 0}
    for kind, fn in KINDS.items():
        hk = by_kind[kind] = hashlib.sha256()
        axes = sweep[kind]
        for args in product(*axes.values()):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = fn(*args)
                except NeckforgeError as err:
                    out = (type(err).__name__, str(err))
                    counts["raised"] += 1
            record = repr((kind, args, out, [str(w.message) for w in caught])).encode()
            h.update(record)
            hk.update(record)
            counts[kind] += 1
    return h.hexdigest(), counts, {k: hk.hexdigest() for k, hk in by_kind.items()}


if __name__ == "__main__":
    hexdigest, counts, by_kind = digest(QUICK if "--quick" in sys.argv[1:] else FULL)
    print(f"{hexdigest}  " + " ".join(f"{k}={v}" for k, v in counts.items()))
    for kind, kind_digest in by_kind.items():
        print(f"{kind:<6}{kind_digest}")
