"""Reference rows for long tensor sweeps: ``contract_values`` with H_2 on
the long diagrams of ``tests/test_long_diagrams.py``, and one sweep in each
beta's own order.

    python3 tools/long_sweep.py [ROOT] > rows.json

ROOT is a source checkout, this one by default; its ``src/``, ``corpus/``
and ``tests/`` (for ``chain_text``, ``stabilized_trefoil_text``,
``slid_and_back``, ``exterior_package`` and ``in_beta_order``) are used,
so the same script times an older checkout.  The chain and the stabilized
trefoil are read at d = 1,000, 2,500, 4,000 and 10,000, each at two
assignments given by beta exponents alone, with no H_1: the chain at all
0 and at all 1, the trefoil at all 0 and at b2 = 1 alone.  The last row
sweeps the exterior-algebra fixture, forced into beta order, on the
trefoil slid and back to d = 3 at the trivial character.  A row holds the
median CPU time of three calls (after one untimed call, which gives the
values and builds the package's rules) and a digest of the values, which
must agree between checkouts.  The rows are not gated.
"""

import json
import sys

from reference_rows import checkout, cpu_s, digest

checkout("tests")

from conftest import load, slid_and_back  # noqa: E402
from test_kuperberg import exterior_package, in_beta_order  # noqa: E402
from test_long_diagrams import (chain_text,  # noqa: E402
                                stabilized_trefoil_text)
from suturant import (CharacterAssignment, build_hn,  # noqa: E402
                      contract_values, parse_diagram)

DEPTHS = (1000, 2500, 4000, 10000)
REPEATS = 3


def row(label, diag, pkg, chars):
    def sweep():
        return contract_values(diag, pkg, chars)
    values = sweep()
    return {"input": label, "cpu_s": round(cpu_s(sweep, REPEATS), 3),
            "digest": digest([(v.order, v.coeffs) for v in values])}


def main():
    hn, rows = build_hn(2), []
    for d in DEPTHS:
        for name, text, ones in (("chain", chain_text(d), None),
                                 ("stabilized trefoil",
                                  stabilized_trefoil_text(d), ["b2"])):
            diag = parse_diagram(text)
            ones = ones or [c.id for c in diag.family("beta")]
            chars = [CharacterAssignment(2, {}),
                     CharacterAssignment(2, dict.fromkeys(ones, 1))]
            rows.append(row(f"{name}, d = {d}, H_2", diag, hn, chars))
    rows.append(row("trefoil slid and back to d = 3, exterior fixture in "
                    "beta order, trivial character",
                    slid_and_back(load("trefoil"), 3),
                    in_beta_order(exterior_package()),
                    [CharacterAssignment.trivial()]))
    json.dump(rows, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
