"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
comparison is exact (integer, group-ring or cyclotomic equality), with unit
classes used exactly where stated.
"""

import dataclasses
import itertools
import math
import random

import pytest

from suturant import (Character, CharacterAssignment, CyclotomicScalar,
                      FreeWord, GroupRingElement, abelianize, all_characters,
                      alexander_from_torsion, apply_move, build_cyclic_group_algebra,
                      build_hn, canonical_class, check_axioms, class_equal,
                      compose_generator_maps, contract, determinant,
                      divide_by_element_minus_one, enumerate_multipoints,
                      epsilon_class, evaluate, fox_derivative,
                      fox_determinant, fox_matrix, generator_map, homology,
                      invariant_hn, multipoint_expansion, presented_group,
                      random_move_sequence, rebase, torsion_class,
                      transfer_exponents, validate)
from suturant.invariant import OrientationSign, SpincRelative

from conftest import SEED, corpus_names, load


def _meridian_characters(group, n):
    """Characters sending the last generator (the meridian in the knot
    corpus files) to a primitive n-th root."""
    out = []
    for chi in all_characters(group, n):
        e = chi.on_generators()[group.gens[-1]]
        if math.gcd(e, n) == 1:
            out.append(chi)
    return out


def test_criterion_01_trefoil_value():
    """Both engines give 1 - q + q^2 for every n in 2..8 and every
    primitive meridian character, up to the documented unit."""
    diag = load("trefoil")
    g = homology(diag)
    ref = enumerate_multipoints(diag)[0]
    checked = 0
    for n in range(2, 9):
        for chi in _meridian_characters(g, n):
            e = chi.on_generators()[g.gens[-1]]       # q = zeta^e, primitive
            want = (CyclotomicScalar.one(n)
                    - CyclotomicScalar.root_power(e, n)
                    + CyclotomicScalar.root_power(2 * e, n))
            ca = CharacterAssignment.from_character(chi)
            for engine in ("fox", "tensor"):
                got = invariant_hn(diag, n, ca, SpincRelative(ref),
                                   OrientationSign(1), engine=engine)
                assert got.unit_equal(want), (n, chi.exps, engine)
                checked += 1
    assert checked >= 14
    print(f"criterion 1 (trefoil value, {checked} checks): PASS")


def test_criterion_02_torsion_theorem():
    """Torsion classes: trefoil = Alexander of the trefoil; Hopf divides to
    Delta = 1 (against the Wirtinger oracle); figure-eight matches the
    Wirtinger oracle t^2 - 3t + 1."""
    # trefoil
    diag = load("trefoil")
    g = homology(diag)
    t = GroupRingElement.monomial(g, g.project([0, 1]))
    one = GroupRingElement.one(g)
    assert class_equal(torsion_class(diag), canonical_class(one - t + t * t))

    # Hopf link: oracle by Fox calculus on <x, y | x y x^-1 y^-1>
    w = FreeWord((("x", 1), ("y", 1), ("x", -1), ("y", -1)))
    gw = presented_group(("x", "y"), [[0, 0]])
    dx = abelianize(fox_derivative(w, "x"), gw)           # 1 - t2
    delta_oracle = divide_by_element_minus_one(-1 * dx, (0, 1))
    assert class_equal(canonical_class(delta_oracle),
                       canonical_class(GroupRingElement.one(gw)))
    hopf = load("hopf")
    gh = homology(hopf)
    t1 = GroupRingElement.monomial(gh, gh.project([0, 0, 1, 0]))
    t2 = GroupRingElement.monomial(gh, gh.project([0, 0, 0, 1]))
    cls = torsion_class(hopf)
    assert class_equal(
        cls, canonical_class((GroupRingElement.one(gh) - t1)
                             * (GroupRingElement.one(gh) - t2)))
    alex = alexander_from_torsion(cls, [t1, t2])
    assert class_equal(alex, canonical_class(GroupRingElement.one(gh)))

    # figure-eight: oracle by Fox calculus on the Wirtinger presentation
    # <x, y | w x w^-1 y^-1> with w = x y^-1 x^-1 y
    wv = FreeWord((("x", 1), ("y", -1), ("x", -1), ("y", 1)))
    r = wv * FreeWord((("x", 1),)) * wv.inverse() * FreeWord((("y", -1),))
    gk = presented_group(("x", "y"), [[1, -1]])
    oracle = abelianize(fox_derivative(r, "x"), gk)
    fig8 = load("figure8")
    gf = homology(fig8)
    tf = GroupRingElement.monomial(gf, gf.project([0, 1]))
    expected = (GroupRingElement.one(gf) - 3 * tf + tf * tf)
    assert class_equal(canonical_class(oracle), canonical_class(
        GroupRingElement(gk, dict(expected.terms))))
    assert class_equal(torsion_class(fig8), canonical_class(expected))
    print("criterion 2 (torsion theorem: trefoil, Hopf, figure-eight): PASS")


def test_criterion_03_closed_manifold_corollary():
    """L(p,1): augmentation of the torsion class is +-p and the invariant
    vanishes at every nontrivial character of Z/p."""
    for p in range(1, 8):
        diag = load(f"lens_{p}_1")
        cls = torsion_class(diag)
        assert abs(cls.representative.augmentation()) == p
        g = homology(diag)
        ref = enumerate_multipoints(diag)[0]
        for chi in all_characters(g, p):
            if chi.is_trivial():
                continue
            ca = CharacterAssignment.from_character(chi)
            for engine in ("fox", "tensor"):
                v = invariant_hn(diag, p, ca, SpincRelative(ref),
                                 OrientationSign(1), engine=engine)
                assert v.is_zero(), (p, chi.exps, engine)
    print("criterion 3 (closed-manifold corollary, p = 1..7): PASS")


def test_criterion_04_engine_equivalence():
    """Tensor contraction equals the Fox determinant evaluation on every
    corpus diagram for n <= 6 and every character of order dividing 6;
    well over 200 (diagram, n, character) triples."""
    triples = 0
    for name in corpus_names():
        diag = load(name)
        g = homology(diag)
        mps = enumerate_multipoints(diag)
        based = rebase(diag, mps[0]) if mps else diag
        for n in range(1, 7):
            pkg = build_hn(n)
            det = fox_determinant(based, g)
            for chi in all_characters(g, n):
                ca = CharacterAssignment.from_character(chi)
                zt = contract(based, pkg, ca)
                zf = evaluate(det, chi)
                assert zt == zf, (name, n, chi.exps)
                triples += 1
    assert triples >= 200
    print(f"criterion 4 (engine equivalence, {triples} triples): PASS")


def test_criterion_05_multipoint_sum_lemma():
    """determinant(fox_matrix) equals the multipoint expansion,
    coefficientwise in Z[H_1], on every corpus diagram."""
    for name in corpus_names():
        diag = load(name)
        g = homology(diag)
        lhs = fox_determinant(diag, g)
        rhs = multipoint_expansion(diag, g)
        assert lhs == rhs, name
        # also after rebasing at each multipoint
        for mp in enumerate_multipoints(diag):
            based = rebase(diag, mp)
            assert fox_determinant(based, g) == \
                multipoint_expansion(based, g), (name, mp)
    print("criterion 5 (multipoint-sum lemma on the corpus): PASS")


def test_criterion_06_normalization_independence():
    """zeta-corrected contractions agree across all multipoint pairs, and
    the zeta ratio is the evaluated change-of-basepoint class."""
    pairs = 0
    n = 6
    for name in corpus_names():
        diag = load(name)
        g = homology(diag)
        mps = enumerate_multipoints(diag)
        if len(mps) < 2:
            continue
        chis = all_characters(g, n)
        rng = random.Random(SEED)
        if len(chis) > 6:
            chis = rng.sample(chis, 6)
        for chi in chis:
            ca = CharacterAssignment.from_character(chi)
            pkg = build_hn(n)
            x0 = mps[0]
            z_at = {x: contract(rebase(diag, x), pkg, ca) for x in mps}
            normalized = []
            for x in mps:
                zeta = CyclotomicScalar.root_power(chi.exponent(
                    g.project_word(epsilon_class(diag, x0, x))), n)
                normalized.append(zeta * z_at[x])
            assert all(v == normalized[0] for v in normalized), name
            for x, y in itertools.combinations(mps, 2):
                ratio = CyclotomicScalar.root_power(chi.exponent(
                    g.project_word(epsilon_class(diag, x, y))), n)
                assert z_at[x] == ratio * z_at[y], (name, x, y)
                pairs += 1
    assert pairs > 0
    print(f"criterion 6 (normalization independence, {pairs} pairs): PASS")


def _transferred_class(cls, gens_old, gens_new, gmap, new_group):
    rep = cls.representative
    terms = {}
    for key, c in rep.terms.items():
        v_new = transfer_exponents(rep.group.lift(key), gens_old,
                                   gens_new, gmap)
        k_new = new_group.project(v_new)
        terms[k_new] = terms.get(k_new, 0) + c
    return canonical_class(GroupRingElement(new_group, terms))


def test_criterion_07_move_invariance():
    """100 seeded random legal move sequences of length <= 10 per corpus
    diagram preserve the torsion class exactly (compared through the
    explicit dual-generator transfer of the beta-side moves)."""
    sequences = 0
    for name in corpus_names():
        diag0 = load(name)
        cls0 = torsion_class(diag0)
        gens0 = homology(diag0).gens
        for seed in range(SEED, SEED + 100):
            length = 1 + seed % 10
            seq = random_move_sequence(diag0, seed, length)
            cur, gmap = diag0, {}
            for mv in seq:
                gmap = compose_generator_maps(gmap, generator_map(cur, mv))
                cur = apply_move(cur, mv)
            assert validate(cur).passed, (name, seed)
            g_new = homology(cur)
            want = _transferred_class(cls0, gens0, g_new.gens, gmap, g_new)
            assert class_equal(torsion_class(cur), want), (name, seed)
            sequences += 1
    assert sequences == 100 * len(corpus_names())
    print(f"criterion 7 (move invariance, {sequences} sequences): PASS")


def test_criterion_08_algebra_axiom_suite():
    """check_axioms passes exhaustively for the 2n-dimensional family up to
    n = 16 and the group algebras up to m = 16, including the compatibility
    conditions and the three handleslide identities; a corrupted antipode
    fails with a witness."""
    for n in range(1, 17):
        rep = check_axioms(build_hn(n))
        assert rep.passed, f"n={n}:\n{rep}"
        names = {e.check for e in rep.entries}
        assert sum(1 for c in names if c.startswith("compatibility")) == 6
        assert sum(1 for c in names if c.startswith("handleslide")) == 3
    for m in range(1, 17):
        rep = check_axioms(build_cyclic_group_algebra(m))
        assert rep.passed, f"m={m}:\n{rep}"
    pkg = build_hn(2)
    x = next(i for i, p in enumerate(pkg.algebra.parity) if p)
    bad_sc = dict(pkg.algebra.antipode_sc)
    bad_sc[x] = {k: -v for k, v in bad_sc[x].items()}
    bad = dataclasses.replace(
        pkg, algebra=dataclasses.replace(pkg.algebra, antipode_sc=bad_sc))
    rep = check_axioms(bad)
    assert not rep.passed
    assert any(e.check == "antipode" and e.witness == "X"
               for e in rep.failures())
    print("criterion 8 (axiom suite, n,m <= 16 + corruption witness): PASS")


def test_criterion_09_group_algebra_cross_check():
    """Contraction of L(p,1) against the Z/m group algebra counts the
    homomorphisms Z/p -> Z/m (brute-force oracle), which is gcd(p, m)."""
    for p in range(1, 8):
        diag = load(f"lens_{p}_1")
        based = rebase(diag, enumerate_multipoints(diag)[0])
        for m in range(1, 8):
            z = contract(based, build_cyclic_group_algebra(m),
                         CharacterAssignment.trivial())
            oracle = sum(1 for j in range(m) if (p * j) % m == 0)
            assert z == CyclotomicScalar.integer(oracle, 1), (p, m)
            assert oracle == math.gcd(p, m)
    print("criterion 9 (group-algebra cross-check, p,m <= 7): PASS")


def _recursive_fox(word, gen, group):
    out = GroupRingElement.zero(group)
    prefix = [0] * len(group.gens)
    pos = {g: i for i, g in enumerate(group.gens)}
    for g, e in word.letters:
        if g == gen:
            if e == 1:
                out = out + GroupRingElement.monomial(group,
                                                      group.project(prefix))
            else:
                shifted = list(prefix)
                shifted[pos[g]] -= 1
                out = out - GroupRingElement.monomial(group,
                                                      group.project(shifted))
        prefix[pos[g]] += e
    return out


def test_criterion_10_fox_micro_oracles():
    """The closed occurrence formula agrees with the recursive product rule
    on 1000 seeded random words; determinants by elimination of the Laurent
    lift agree with the full permutation expansion on random 4x4 matrices
    over Z[Z/3], where zero divisors live."""
    rng = random.Random(SEED)
    gens = ("x", "y", "z", "w")
    group = presented_group(gens, [])
    for _ in range(1000):
        word = FreeWord(tuple((rng.choice(gens), rng.choice((1, -1)))
                              for _ in range(rng.randint(0, 20))))
        gen = rng.choice(gens)
        assert abelianize(fox_derivative(word, gen), group) == \
            _recursive_fox(word, gen, group)

    g3 = presented_group(("s",), [[3]])
    elems = [GroupRingElement(g3, {(r,): c})
             for r in range(3) for c in (-2, -1, 1, 2)]
    for _ in range(12):
        mat = [[rng.choice(elems) + rng.choice(elems) for _ in range(4)]
               for _ in range(4)]
        got = determinant(mat)
        want = GroupRingElement.zero(g3)
        for perm in itertools.permutations(range(4)):
            sgn = 1
            for i, j in itertools.combinations(range(4), 2):
                if perm[i] > perm[j]:
                    sgn = -sgn
            prod = GroupRingElement.one(g3)
            for i in range(4):
                prod = prod * mat[i][perm[i]]
            want = want + sgn * prod
        assert got == want
    print("criterion 10 (Fox micro-oracles, 1000 words + 12 dets): PASS")
