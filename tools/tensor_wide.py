"""Reference rows for a tensor-wide workload: all-character tensor sweeps
of corpus bases slid and back, whose frontiers carry one block per
character.

    python3 tools/tensor_wide.py [ROOT] > rows.json

ROOT is a source checkout, this one by default; its ``src/``, ``corpus/``
and ``tests/conftest.py`` (for ``slid_and_back``) are used, so the same
script times an older checkout.  Each base is slid and back to d closed
alphas and read at the anchor multipoint, at every character of H_1 into
Z/n.  A row holds the shape of H_1, the number of characters, the median
CPU time of one ``invariant_hn_values(..., engine="tensor")`` for all of
them (after one warm-up call, so the package's rules and the diagram's
memo are built), and a digest of the values, which must agree between
checkouts.  The rows are not gated.
"""

import json
import sys

from reference_rows import checkout, cpu_s, digest

checkout("tests")

from conftest import load, slid_and_back  # noqa: E402
from suturant import foxcalc, invariant  # noqa: E402
from suturant.kuperberg import CharacterAssignment  # noqa: E402

SWEEPS = (("hopf", 4, 3), ("hopf", 6, 2), ("figure8", 4, 4),
          ("trefoil", 4, 3))
REPEATS = 7


def cpu_ms(call):
    return round(cpu_s(call, REPEATS) * 1e3, 3)


def main():
    rows = []
    for base, d, n in SWEEPS:
        diag = slid_and_back(load(base), d)
        group = foxcalc.homology(diag)
        chars = [CharacterAssignment.from_character(chi)
                 for chi in foxcalc.all_characters(group, n)]
        spinc = invariant.SpincRelative(invariant.anchor_multipoint(diag))

        def sweep():
            return invariant.invariant_hn_values(diag, n, chars, spinc,
                                                 engine="tensor")
        values = sweep()
        rows.append({
            "input": f"{base} slid and back to d = {d}, n = {n}",
            "h1_rank": group.rank, "h1_torsion": list(group.torsion),
            "characters": len(chars),
            "tensor_all_chars_ms": cpu_ms(sweep),
            "digest": digest([(v.order, v.coeffs) for v in values]),
        })
    json.dump(rows, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
