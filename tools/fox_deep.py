"""Reference rows for a fox-deep workload: the Fox determinant and a cold
torsion class of corpus bases grown to d = 12..24.

    python3 tools/fox_deep.py [ROOT] > rows.json

ROOT is a source checkout, this one by default; its ``src/``, ``corpus/``
and ``perfbench/grow.py`` are used, so the same script times an older
checkout.  Each base is grown by the benchmark's stabilize-and-handleslide
recipe (base, d, cap, recipe seed) with flip seed 1.  A row holds the
shape of H_1, the median CPU time of ``fox_determinant`` (H_1 given) and
of ``torsion_class`` on a copy with an empty memo (so H_1 is computed
too, as ``suturant class`` does), and a digest of the determinant's terms,
which must agree between checkouts.  The rows are not gated.
"""

import dataclasses
import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else
            Path(__file__).resolve().parents[1]).resolve()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import grow  # noqa: E402
from suturant import foxcalc, invariant  # noqa: E402

RECIPES = (("hopf", 12, 14), ("trefoil", 8, 0), ("figure8", 8, 2),
           ("lens_3_1", 10, 3), ("s1s2", 8, 0))
DEPTHS = (12, 16, 20, 24)
REPEATS = 5


def cpu_ms(call):
    times = []
    for _ in range(REPEATS):
        start = time.process_time()
        call()
        times.append(time.process_time() - start)
    return round(statistics.median(times) * 1e3, 3)


def main():
    rows = []
    for base, cap, seed in RECIPES:
        start = grow.load_corpus(ROOT, base)
        for d in DEPTHS:
            diag = grow.grow(start, grow.Recipe(base, d, cap, seed), 1).diag
            group = foxcalc.homology(diag)
            det = foxcalc.fox_determinant(diag, group)
            rows.append({
                "input": f"{base}-d{d}-c{cap}-r{seed} flip 1",
                "h1_rank": group.rank, "h1_torsion": list(group.torsion),
                "fox_determinant_ms": cpu_ms(
                    lambda: foxcalc.fox_determinant(diag, group)),
                "torsion_class_ms": cpu_ms(
                    lambda: invariant.torsion_class(dataclasses.replace(diag))),
                "digest": hashlib.sha256(
                    repr(det.sorted_terms()).encode()).hexdigest()[:16],
            })
    json.dump(rows, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
