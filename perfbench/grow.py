"""Seeded growth of corpus diagrams by stabilize-and-handleslide.

Only the public move API is used: ``apply_move`` with ``Stabilize``,
``HandleslideCurve`` and ``ReverseCurve``, and ``generator_map`` composed
along the way so that classes of the base diagram can be transferred to the
grown one.

Two seeds drive a growth.  The recipe seed picks the over-curve of every
handleslide, so it fixes the shape of the result.  The flip seed reverses
curves before slides and at the end.  Reversal changes crossing signs, and
with them every value the engines compute, but not the shape: d, the
crossing count, the closed-alpha slots, the homology group and the
multipoint count depend only on the recipe.  A workload therefore pins one
recipe per input and takes its flip seeds from the workload seed, so that
every workload seed gives different diagrams of identical size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from suturant import diagram, foxcalc, moves


@dataclass(frozen=True)
class Recipe:
    base: str
    d: int
    cap: int           # longest over-curve a slide may use
    seed: int          # recipe seed: picks the over-curves

    @property
    def name(self):
        return f"{self.base}-d{self.d}-c{self.cap}-r{self.seed}"


@dataclass(frozen=True)
class Grown:
    recipe: Recipe
    base: object       # ExtendedDiagram the growth started from
    diag: object       # the grown ExtendedDiagram
    gmap: dict         # composed generator map, base duals -> grown duals
    moves: tuple


def load_corpus(root, name):
    with open(root / "corpus" / f"{name}.hd", encoding="utf-8") as fh:
        return diagram.parse_diagram(fh.read())


def grow(base, recipe, flip_seed):
    """Stabilize until d reaches the recipe's d; after each stabilization
    slide the new closed alpha and the new closed beta over an existing
    closed curve of their family and slide that curve back over them."""
    plan = random.Random(recipe.seed)
    flips = random.Random(flip_seed)
    cur, gmap, seq = base, {}, []

    def do(mv):
        nonlocal cur, gmap
        gmap = moves.compose_generator_maps(gmap, moves.generator_map(cur, mv))
        cur = moves.apply_move(cur, mv)
        seq.append(mv)

    def maybe_reverse(cid):
        if flips.random() < 0.5:
            do(moves.ReverseCurve(cid))

    while cur.d < recipe.d:
        before = {c.id for c in cur.curves}
        do(moves.Stabilize())
        for fam in ("alpha", "beta"):
            closed = cur.family(fam, "closed")
            new = next(c.id for c in closed if c.id not in before)
            over_opts = [c.id for c in closed
                         if c.id != new and len(c.order) <= recipe.cap]
            if not over_opts:
                continue
            over = plan.choice(over_opts)
            maybe_reverse(new)
            maybe_reverse(over)
            do(moves.HandleslideCurve(new, over))
            if len(cur.curve(new).order) <= recipe.cap:
                do(moves.HandleslideCurve(over, new))
    for c in sorted(cur.curves, key=lambda c: c.id):
        maybe_reverse(c.id)
    return Grown(recipe, base, cur, gmap, tuple(seq))


# ---------------------------------------------------------------------------
# size profile, computed without the program's exponential paths
# ---------------------------------------------------------------------------

def count_matrix(diag):
    """Crossings between closed alpha i and closed beta j."""
    apos = {c.id: i for i, c in enumerate(diag.closed_alphas)}
    bpos = {c.id: i for i, c in enumerate(diag.closed_betas)}
    mat = [[0] * len(bpos) for _ in apos]
    for x in diag.crossings:
        if x.alpha in apos and x.beta in bpos:
            mat[apos[x.alpha]][bpos[x.beta]] += 1
    return mat


def permanent(mat):
    """Ryser's formula; the permanent of the count matrix is the number of
    multipoints (one, the empty one, when d = 0)."""
    n = len(mat)
    if n == 0:
        return 1
    total = 0
    for mask in range(1, 1 << n):
        prod = 1
        for row in mat:
            prod *= sum(v for j, v in enumerate(row) if mask >> j & 1)
        total += (-1) ** bin(mask).count("1") * prod
    return (-1) ** n * total


def profile(diag):
    """The shape of an input, as pinned in ``inputs.json``."""
    group = foxcalc.homology(diag)
    return {
        "d": diag.d,
        "crossings": len(diag.crossings),
        "alpha_slots": sum(len(c.order) for c in diag.closed_alphas),
        "h1_rank": group.rank,
        "h1_torsion": list(group.torsion),
        "multipoints": permanent(count_matrix(diag)),
    }


def random_multipoint(diag, rng):
    """A seeded perfect matching of closed alphas to closed betas, found by
    backtracking over shuffled crossings; None when there is none."""
    betas = {c.id for c in diag.closed_betas}
    options = []
    for a in diag.closed_alphas:
        opts = [x for x in diag.crossings
                if x.alpha == a.id and x.beta in betas]
        rng.shuffle(opts)
        options.append(opts)

    def rec(i, used):
        if i == len(options):
            return []
        for x in options[i]:
            if x.beta not in used:
                rest = rec(i + 1, used | {x.beta})
                if rest is not None:
                    return [x.id] + rest
        return None

    picks = rec(0, frozenset())
    return None if picks is None else diagram.Multipoint(tuple(sorted(picks)))


def random_character(group, order, rng):
    """A seeded character of H_1 into Z/order."""
    exps = [rng.randrange(order) for _ in range(group.rank)]
    for d in group.torsion:
        step = order // math.gcd(d, order)
        exps.append(rng.randrange(0, order, step))
    return foxcalc.Character(group, order, tuple(exps))

