"""The sweep loop, hashes and printing shared by the digest scripts.

A digest script names its kinds (one function per kind), a full and a
quick sweep (the argument axes of each kind) and its record encoding.
Every call of the sweep becomes one record: the encoding of its kind, its
arguments, its output (or the error type and message when it raises a
NeckforgeError) and the messages of the warnings it emitted, which the
loop records instead of printing.  The records of the whole sweep make
one SHA-256, and the records of each kind one more, so a change that
moves some outputs shows which.

The first printed line is the total digest with the call count of each
kind and the count of calls that raised; one line per kind follows with
that kind's digest.
"""

import hashlib
import sys
import warnings
from itertools import product

from neckforge.errors import NeckforgeError


def main(kinds, full, quick, encode):
    """Digest the quick sweep under `--quick`, else the full one, and print
    it.  encode(kind, args, out, messages) is the bytes of one record."""
    sweep = quick if "--quick" in sys.argv[1:] else full
    h = hashlib.sha256()
    by_kind = {}
    counts = dict.fromkeys(kinds, 0) | {"raised": 0}
    for kind, fn in kinds.items():
        hk = by_kind[kind] = hashlib.sha256()
        for args in product(*sweep[kind].values()):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = fn(*args)
                except NeckforgeError as err:
                    out = (type(err).__name__, str(err))
                    counts["raised"] += 1
            record = encode(kind, args, out, [str(w.message) for w in caught])
            h.update(record)
            hk.update(record)
            counts[kind] += 1
    print(f"{h.hexdigest()}  " + " ".join(f"{k}={v}" for k, v in counts.items()))
    width = max(map(len, by_kind)) + 1
    for kind, hk in by_kind.items():
        print(f"{kind:<{width}}{hk.hexdigest()}")
