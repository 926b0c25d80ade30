"""One SHA-256 over a sweep of indicial root catalogs and first roots.

Every `root_catalog` and every `first_root` of the sweep is written out
with `repr` (exact floats): roots, `dtheta`, residuals, search boxes and
`certified` flags, or the error type and message when the call raises.
Two checkouts that print the same digest return the same catalogs bit for
bit, so the script checks that a change to the root machinery is a pure
refactor.  After the total line it prints one digest per kind (`catalog`,
`first`), so a change that moves first roots alone shows the catalogs
unchanged.

Sweep:
    root_catalog  gamma {0.5, 0.3, 0.8}, n 2..8, m 0..7, j_count {1, 2, 4, 6}
                                                                 (672 catalogs)
    first_root    gamma {0.5, 0.3, 0.8, 0.15}, n 2..10, m 0..9   (360 specs)
`--quick` runs a small subset of both (about a second).

Usage: python scripts/catalog_digest.py [--quick]
"""

import hashlib
import sys
from itertools import product

from neckforge.errors import NeckforgeError
from neckforge.indicial import first_root, root_catalog
from neckforge.symbol import ModeSpec

FULL = {
    "catalog": dict(gamma=(0.5, 0.3, 0.8), n=range(2, 9), m=range(8),
                    j_count=(1, 2, 4, 6)),
    "first": dict(gamma=(0.5, 0.3, 0.8, 0.15), n=range(2, 11), m=range(10)),
}
QUICK = {
    "catalog": dict(gamma=(0.5, 0.3), n=range(2, 5), m=range(4),
                    j_count=(1, 4)),
    "first": dict(gamma=(0.5, 0.15), n=range(2, 5), m=range(4)),
}


def _root(r):
    return (r.sigma, r.tau, r.residual, r.dtheta)


def _catalog(gamma, n, m, j_count):
    cat = root_catalog(ModeSpec(n=n, gamma=gamma, m=m), j_count)
    return (cat.kappa, tuple(_root(r) for r in cat.roots), cat.search_box, cat.certified)


def _first(gamma, n, m):
    return _root(first_root(ModeSpec(n=n, gamma=gamma, m=m)))


def digest(sweep):
    h = hashlib.sha256()
    by_kind = {}
    counts = {"catalog": 0, "first": 0, "raised": 0}
    for kind, fn in (("catalog", _catalog), ("first", _first)):
        hk = by_kind[kind] = hashlib.sha256()
        axes = sweep[kind]
        for args in product(*axes.values()):
            try:
                out = fn(*args)
            except NeckforgeError as err:
                out = (type(err).__name__, str(err))
                counts["raised"] += 1
            record = repr((kind, args, out)).encode()
            h.update(record)
            hk.update(record)
            counts[kind] += 1
    return h.hexdigest(), counts, {k: hk.hexdigest() for k, hk in by_kind.items()}


if __name__ == "__main__":
    hexdigest, counts, by_kind = digest(QUICK if "--quick" in sys.argv[1:] else FULL)
    print(f"{hexdigest}  catalogs={counts['catalog']} first_roots={counts['first']} "
          f"raised={counts['raised']}")
    for kind, kind_digest in by_kind.items():
        print(f"{kind:<9}{kind_digest}")
