"""One SHA-256 over a sweep of indicial root catalogs and first roots.

Every `root_catalog` and every `first_root` of the sweep is written out
with `repr` (exact floats): roots, `dtheta`, residuals, search boxes and
`certified` flags, or the error type and message when the call raises.
Two checkouts that print the same digest return the same catalogs bit for
bit, so the script checks that a change to the root machinery is a pure
refactor.  After the total line it prints one digest per kind (`catalog`,
`first`), so a change that moves first roots alone shows the catalogs
unchanged.  The loop and printing are `_digest.py`'s.

Sweep:
    root_catalog  gamma {0.5, 0.3, 0.8}, n 2..8, m 0..7, j_count {1, 2, 4, 6}
                                                                 (672 catalogs)
    first_root    gamma {0.5, 0.3, 0.8, 0.15}, n 2..10, m 0..9   (360 specs)
`--quick` runs a small subset of both (about a second).

Usage: python scripts/catalog_digest.py [--quick]
"""

from _digest import main
from neckforge.indicial import first_root, root_catalog
from neckforge.symbol import ModeSpec, constants

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
    # the record leads with kappa, which catalogs once carried, so records
    # written before and after they dropped it compare byte for byte
    cat = root_catalog(ModeSpec(n=n, gamma=gamma, m=m), j_count)
    return (constants(n, gamma).kappa, tuple(_root(r) for r in cat.roots), cat.search_box,
            cat.certified)


def _first(gamma, n, m):
    return _root(first_root(ModeSpec(n=n, gamma=gamma, m=m)))


KINDS = {"catalog": _catalog, "first": _first}


def _record(kind, args, out, messages):
    """The exact repr of one call; warnings do not enter it."""
    return repr((kind, args, out)).encode()


if __name__ == "__main__":
    main(KINDS, FULL, QUICK, _record)
