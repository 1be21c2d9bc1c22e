"""Pinned output of the Smith normal form, an oracle for it, and the
inputs on which it once ran without end.

``snf_golden.json`` holds, for the H_1 relation matrix of every corpus
file and of grown copies of each (seeded moves with fixed seeds, rotated,
and slid to d = 4, 7 and 8), the exact ``(diag, V, Vinv)``; and the
invariant factors of a seeded set of random matrices, 0-6 rows by 1-7
columns with entries of at most 9 in absolute value.  V is not pinned on
the random set: where a reduction leaves a remainder, the pivot rule
decides V, and the oracle below checks it by its properties instead.
A matrix whose normal form took longer than the file's limit when the
pins were made is left out: a diagram keeps its rows with ``snf`` null
(the four in ``GROWN``, which the child-process test runs), and a random
matrix is listed by its index among ``skipped``.

The oracle shares no code with the elimination: the k-th determinantal
divisor d_k is the gcd of the k x k minors (each a
``diagram.fraction_free_det``), and the invariant factors are
d_k / d_(k-1).

Regenerate with ``PYTHONPATH=src python tests/test_smith_normal_form.py``.
"""

import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from suturant import parse_diagram, validate
from suturant.diagram import fraction_free_det
from suturant.foxcalc import smith_normal_form

from conftest import corpus_names, load, moved_and_rotated, slid_and_back

EXPECTED = Path(__file__).with_name("snf_golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"
RANDOM_SEED = 2601
RANDOM_COUNT = 3000
ORACLE_COUNT = 300

# The relation matrices on which the normal form once ran without end:
# two random ones, and grown corpus diagrams (base, d).
RECORDED = {
    "6x6": [[6, 0, 9, 5, 3, 5], [6, -10, -2, 0, -10, 9],
            [-10, 2, -10, 3, 0, 3], [5, 2, -10, 9, 2, 4],
            [-10, 9, 6, 4, -6, 0], [6, 12, 6, 6, 0, 4]],
    "6x7": [[4, -2, 4, 9, 3, -1, 1], [4, 2, 2, -6, 2, 9, 2],
            [1, 1, -2, -1, 9, 3, -1], [9, -6, 2, 0, -2, 2, 3],
            [4, 0, 3, 1, 3, 9, 2], [-1, 3, 0, 4, -1, 4, 0]],
}
GROWN = (("lens_1_1", 8), ("unknot", 8), ("lens_6_1", 7), ("lens_7_1", 7))

# The pinned diagrams whose V and Vinv moved when the swap-and-retry
# clearing gave way to one pivot rule.  On each of them a reduction left a
# remainder when the pins were made, so the rule that picks the next
# pivot decides V; their invariant factors are pinned, and V is checked by
# the oracle.  On every other pinned diagram no reduction leaves one.
MOVED = frozenset(
    [f"{base} grown to {d}" for base in ("lens_2_1", "lens_3_1", "lens_4_1",
                                          "lens_5_1", "trefoil")
     for d in (4, 7, 8)] +
    [f"{base} grown to {d}" for base in ("lens_1_1", "unknot")
     for d in (4, 7)] +
    ["lens_6_1 grown to 4", "lens_6_1 grown to 8", "lens_7_1 grown to 4",
     "lens_7_1 grown to 8", "s1s2 grown to 7", "s1s2 grown to 8"])


def relation_rows(diag):
    """H_1's relation matrix: one row per closed alpha, one column per
    beta, each crossing's sign summed at its beta."""
    pos = {g: i for i, g in enumerate(diag.beta_generators())}
    rows = []
    for c in diag.closed_alphas:
        row = [0] * len(pos)
        for x in diag.ordered[c.id]:
            row[pos[x.beta]] += x.sign
        rows.append(row)
    return rows


def pinned_diagrams():
    """(label, diagram): every corpus file, its seeded move and rotated
    copies, and it slid to d = 4, 7 and 8."""
    bases = [(name, load(name)) for name in corpus_names()]
    yield from moved_and_rotated(bases, seeds=(0, 1))
    for name, diag in bases:
        for d in (4, 7, 8):
            diag = slid_and_back(diag, d)
            yield f"{name} grown to {d}", diag


def random_matrices():
    rng = random.Random(RANDOM_SEED)
    for _ in range(RANDOM_COUNT):
        m, n = rng.randint(0, 6), rng.randint(1, 7)
        yield [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], n


# -- the oracle ---------------------------------------------------------------

def determinantal_divisors(rows, n):
    """[d_1, d_2, ...] up to the rank: d_k is the gcd of the k x k minors.
    Each d_(k-1) divides every k x k minor (expand it along a row), so the
    gcd stops as soon as it reaches d_(k-1)."""
    out, prev = [], 1
    for k in range(1, min(len(rows), n) + 1):
        g = 0
        for ri, cj in itertools.product(
                itertools.combinations(range(len(rows)), k),
                itertools.combinations(range(n), k)):
            g = math.gcd(g, fraction_free_det(
                [[rows[i][j] for j in cj] for i in ri]))
            if g == prev:
                break
        if g == 0:
            break
        out.append(g)
        prev = g
    return out


def check_snf(rows, n, snf):
    """``snf`` is the normal form of ``rows``: its invariant factors are
    d_k / d_(k-1) and form a divisibility chain; V is unimodular with
    inverse Vinv; column j of R V is a multiple of the j-th factor, and
    zero beyond the rank."""
    diag, v, vinv = snf
    divisors = determinantal_divisors(rows, n)
    assert diag == [d // p for d, p in zip(divisors, [1] + divisors)], rows
    assert all(b % a == 0 for a, b in zip(diag, diag[1:])), rows
    assert [[sum(v[i][k] * vinv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == \
        [[int(i == j) for j in range(n)] for i in range(n)], rows
    for row in rows:
        image = [sum(row[k] * v[k][j] for k in range(n)) for j in range(n)]
        for j, x in enumerate(image):
            assert x % diag[j] == 0 if j < len(diag) else x == 0, rows


# -- the pins -----------------------------------------------------------------

def pinned_outputs(limit_s=0.05):
    """The JSON form of the pins.  A normal form that takes longer than
    ``limit_s`` is left out (``snf`` null, or the index among
    ``skipped``)."""
    def late(*_):
        raise TimeoutError

    def timed(rows, n):
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            return smith_normal_form(rows, n)
        except TimeoutError:
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    signal.signal(signal.SIGALRM, late)
    diagrams = []
    for label, diag in pinned_diagrams():
        rows = relation_rows(diag)
        n = len(diag.beta_generators())
        diagrams.append({"label": label, "rows": rows, "ncols": n,
                         "snf": timed(rows, n)})
    factors, skipped = [], []
    for k, (rows, n) in enumerate(random_matrices()):
        snf = timed(rows, n)
        if snf is None:
            skipped.append(k)
        else:
            factors.append(snf[0])
    return json.loads(json.dumps({
        "diagrams": diagrams,
        "random": {"seed": RANDOM_SEED, "count": RANDOM_COUNT,
                   "limit_s": limit_s, "skipped": skipped,
                   "factors": factors}}))


@pytest.fixture(scope="module")
def expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def test_relation_matrices_match_the_pinned_normal_form(expected):
    cases = list(pinned_diagrams())
    assert [e["label"] for e in expected["diagrams"]] == \
        [label for label, _ in cases]
    for want, (label, diag) in zip(expected["diagrams"], cases):
        assert relation_rows(diag) == want["rows"], label
        if want["snf"] is None:
            continue
        got = list(smith_normal_form(want["rows"], want["ncols"]))
        if label in MOVED:
            assert got[0] == want["snf"][0], label
            check_snf(want["rows"], want["ncols"], got)
        else:
            assert got == want["snf"], label


def test_seeded_invariant_factors_match_the_pins(expected):
    pins = expected["random"]
    assert (pins["seed"], pins["count"]) == (RANDOM_SEED, RANDOM_COUNT)
    skipped = set(pins["skipped"])
    got = [smith_normal_form(rows, n)[0]
           for k, (rows, n) in enumerate(random_matrices())
           if k not in skipped]
    assert got == pins["factors"]


def test_seeded_matrices_meet_the_determinantal_divisor_oracle(expected):
    skipped = set(expected["random"]["skipped"])
    cases = [case for k, case in enumerate(random_matrices())
             if k not in skipped]
    for rows, n in cases[:ORACLE_COUNT]:
        check_snf(rows, n, smith_normal_form(rows, n))


# -- the recorded hangs, each run in a child process with a 10 s limit -------

def in_child(args, stdin=""):
    return subprocess.run([sys.executable, *args], input=stdin,
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


@pytest.mark.parametrize("name", ["6x6", "6x7", "grown"])
def test_the_recorded_matrices_finish(name):
    if name == "grown":
        cases = [relation_rows(slid_and_back(load(base), d))
                 for base, d in GROWN]
    else:
        cases = [RECORDED[name]]
    done = in_child(["-c", "import json, sys\n"
                     "from suturant.foxcalc import smith_normal_form\n"
                     "print(json.dumps([smith_normal_form(rows, len(rows[0]))"
                     " for rows in json.load(sys.stdin)]))"],
                    json.dumps(cases))
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    for rows, snf in zip(cases, results, strict=True):
        check_snf(rows, len(rows[0]), snf)
    if name == "6x6":
        assert results[0][0] == [1, 1, 1, 1, 1, 2399650]


def recorded_diagram(rows):
    """A diagram whose relation matrix is ``rows``: closed alphas a1..,
    closed betas b1.., and for each entry e, |e| crossings of sign(e) of
    its alpha and beta; every order lists its crossings in id order."""
    lines = ["diagram recorded"]
    lines += [f"alpha a{i + 1} closed" for i in range(len(rows))]
    lines += [f"beta b{j + 1} closed" for j in range(len(rows[0]))]
    orders, ids = {}, itertools.count(1)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            for _ in range(abs(e)):
                x = f"x{next(ids)}"
                lines.append(f"crossing {x} a{i + 1} b{j + 1} "
                             f"{'+' if e > 0 else '-'}")
                orders.setdefault(f"alpha a{i + 1}", []).append(x)
                orders.setdefault(f"beta b{j + 1}", []).append(x)
    lines += [f"order {c} : {' '.join(xs)}" for c, xs in orders.items()]
    return "\n".join(lines) + "\n"


def test_compute_finishes_on_the_recorded_diagram(tmp_path):
    rows = RECORDED["6x6"]
    text = recorded_diagram(rows)
    diag = parse_diagram(text)
    assert (len(diag.crossings), relation_rows(diag)) == (194, rows)
    assert validate(diag).failures() == []
    path = tmp_path / "recorded.hd"
    path.write_text(text)
    done = in_child(["-m", "suturant.cli", "compute", str(path),
                     "--engine", "tensor", "--n", "2", "--char", "t=1"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1 and lines[0].endswith("(mod Φ_2)"), done.stdout


if __name__ == "__main__":
    out = pinned_outputs()
    lines = [json.dumps(d) for d in out["diagrams"]]
    EXPECTED.write_text(
        '{"diagrams": [\n' + ",\n".join(lines) + '\n],\n"random": ' +
        json.dumps(out["random"]) + "}\n", encoding="utf-8")
