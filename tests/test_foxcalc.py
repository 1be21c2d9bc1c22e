import itertools
import random
from dataclasses import replace

import pytest

import suturant
from suturant import (Character, CharacterAssignment, FreeWord,
                      GroupRingElement, OrientationSign, SpincRelative,
                      abelianize, all_characters, alpha_word,
                      canonical_class, class_equal,
                      determinant, divide_by_element_minus_one,
                      enumerate_multipoints, epsilon_class, evaluate,
                      fox_derivative, fox_determinant, fox_matrix, homology,
                      invariant_h0, invariant_hn_values, multipoint_expansion,
                      presented_group, smith_normal_form, torsion_class)
from suturant.errors import (InvalidCharacterError, NonSquareError,
                             NotDivisibleError, UnknownCurveError,
                             UnknownGeneratorError)
from suturant.diagram import fraction_free_det
from suturant.foxcalc import _Laurent, crossing_classes, multipoint_class
from suturant.invariant import _normalization, anchor_multipoint

from conftest import (SEED, corpus_names, load, moved_and_rotated,
                      slid_and_back)


def W(*letters):
    return FreeWord(tuple(letters))


# -- Fox derivatives --------------------------------------------------------

def test_fox_derivative_of_generators():
    assert fox_derivative(W(("x", 1)), "x") == [(W(), 1)]
    assert fox_derivative(W(("x", -1)), "x") == [(W(("x", -1)), -1)]
    assert fox_derivative(W(("y", 1)), "x") == []


def test_trefoil_fox_derivative(trefoil):
    g = homology(trefoil)
    w = W(("b1", 1), ("b2", 1), ("b1", -1), ("b2", 1), ("b1", 1))
    d = abelianize(fox_derivative(w, "b1"), g)
    t = GroupRingElement.monomial(g, g.project([0, 1]))
    assert d == GroupRingElement.one(g) - t + t * t


def _recursive_fox(word, gen, group):
    """Independent oracle: the recursive product rule
    d(uv) = du * aug(v) + u * dv, one letter at a time."""
    out = GroupRingElement.zero(group)
    prefix = [0] * len(group.gens)
    pos = {g: i for i, g in enumerate(group.gens)}
    for g, e in word.letters:
        if g == gen:
            if e == 1:
                out = out + GroupRingElement.monomial(
                    group, group.project(prefix))
            else:
                shifted = list(prefix)
                shifted[pos[g]] -= 1
                out = out - GroupRingElement.monomial(
                    group, group.project(shifted))
        prefix[pos[g]] += e
    return out


def test_closed_formula_matches_recursive_rule():
    rng = random.Random(SEED)
    gens = ("x", "y", "z", "w")
    group = presented_group(gens, [])
    for _ in range(200):
        word = W(*[(rng.choice(gens), rng.choice((1, -1)))
                   for _ in range(rng.randint(0, 20))])
        for g in gens:
            got = abelianize(fox_derivative(word, g), group)
            assert got == _recursive_fox(word, g, group)


def test_product_rule_property():
    rng = random.Random(SEED + 1)
    gens = ("x", "y")
    group = presented_group(gens, [])
    for _ in range(100):
        u = W(*[(rng.choice(gens), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 8))])
        v = W(*[(rng.choice(gens), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 8))])
        for g in gens:
            du = fox_derivative(u, g)
            dv = fox_derivative(v, g)
            lhs = abelianize(fox_derivative(u * v, g), group)
            rhs = (abelianize(du, group) * abelianize(v, group).augmentation()
                   + abelianize(u, group) * abelianize(dv, group))
            assert lhs == rhs


# -- homology ----------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 7])
def test_lens_homology(p):
    g = homology(load(f"lens_{p}_1"))
    assert (g.rank, g.torsion) == (0, (p,))


def test_trefoil_homology(trefoil):
    g = homology(trefoil)
    assert (g.rank, g.torsion) == (1, ())


def test_unknot_homology():
    g = homology(load("unknot"))
    assert (g.rank, g.torsion) == (1, ())


# (rows, the exact (diag, V, Vinv)): each takes the divisibility repair
_SNF_PINNED = [
    ([[2, 0], [0, 3]], ([1, 6], [[1, 3], [1, 2]], [[-2, 3], [1, -1]])),
    ([[4, 0], [0, 6]], ([2, 12], [[1, 3], [1, 2]], [[-2, 3], [1, -1]])),
    ([[0, 4], [6, 0]], ([2, 12], [[1, 2], [1, 3]], [[3, -2], [-1, 1]])),
    ([[2, 0, 0], [0, 3, 0], [0, 0, 5]],
     ([1, 1, 30], [[1, 3, 15], [1, 2, 10], [0, 1, 6]],
      [[-2, 3, 0], [6, -6, -5], [-1, 1, 1]])),
]


def test_smith_normal_form_properties():
    rng = random.Random(SEED + 2)
    cases = []
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        cases.append([[rng.randint(-5, 5) for _ in range(n)]
                      for _ in range(m)])
    cases += [rows for rows, _ in _SNF_PINNED]
    for rows in cases:
        n = len(rows[0])
        diag = smith_normal_form(rows, n)[0]
        assert all(b % a == 0 for a, b in zip(diag, diag[1:])), rows
        group = presented_group([f"g{i}" for i in range(n)], rows)
        # every relation row projects to the identity
        for row in rows:
            assert group.project(row) == group.identity()
        # every section row projects to its unit vector
        for c, row in enumerate(group.section):
            assert group.project(row) == group.normalize(
                [int(c == k) for k in range(group.ncoords)]), rows
        # full-rank square case: |det| = product of torsion orders
        if len(rows) == n:
            det = _permutation_det(rows)
            if det != 0:
                prod = 1
                for d in group.torsion:
                    prod *= d
                assert group.rank == 0
                assert prod == abs(det)
    for rows, pinned in _SNF_PINNED:
        assert smith_normal_form(rows, len(rows[0])) == pinned


def _permutation_det(mat):
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        sgn = 1
        for i, j in itertools.combinations(range(n), 2):
            if perm[i] > perm[j]:
                sgn = -sgn
        prod = sgn
        for i in range(n):
            prod *= mat[i][perm[i]]
        total += prod
    return total


def test_bareiss_determinant_matches_the_permutation_expansion():
    from suturant.diagram import fraction_free_det as bareiss
    rng = random.Random(SEED + 9)
    assert bareiss([]) == 1
    for n in range(1, 8):
        for trial in range(12):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if trial % 3 == 1:              # a zero leading pivot
                rows[0][0] = 0
            if trial % 3 == 2 and n > 1:    # singular: a row repeats
                rows[-1] = list(rows[rng.randrange(n - 1)])
            assert bareiss(rows) == _permutation_det(rows), rows


def test_section_lifts_normal_forms():
    for name in corpus_names():
        g = homology(load(name))
        for t in range(g.ncoords):
            coords = tuple(1 if i == t else 0 for i in range(g.ncoords))
            assert g.project(g.lift(coords)) == coords


# -- abelianization and group rings ------------------------------------------

def test_abelianize_basics(trefoil):
    g = homology(trefoil)
    assert abelianize(W(), g) == GroupRingElement.one(g)
    assert abelianize(W(("b1", 1), ("b1", -1)), g) == GroupRingElement.one(g)


def test_group_ring_is_a_ring():
    g = presented_group(("x", "y"), [[0, 3]])      # Z + Z/3
    rng = random.Random(SEED + 3)

    def rand_elem():
        return GroupRingElement(g, {
            g.normalize((rng.randint(-2, 2), rng.randint(0, 2))):
                rng.randint(-3, 3)
            for _ in range(3)})

    for _ in range(50):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


# -- fox matrix, determinant, expansion ---------------------------------------

@pytest.mark.parametrize("p", [2, 5])
def test_lens_fox_matrix(p):
    diag = load(f"lens_{p}_1")
    g = homology(diag)
    mat = fox_matrix(diag, g)
    t = GroupRingElement.monomial(g, g.project([1]))
    want = GroupRingElement.zero(g)
    acc = GroupRingElement.one(g)
    for _ in range(p):
        want = want + acc
        acc = acc * t
    assert mat == [[want]]


def test_empty_determinant_is_one():
    diag = load("unknot")
    g = homology(diag)
    assert fox_determinant(diag, g) == GroupRingElement.one(g)


def test_two_by_two_determinant():
    g = presented_group(("x",), [])
    t = GroupRingElement.monomial(g, g.project([1]))
    one = GroupRingElement.one(g)
    mat = [[one, t], [t, one]]
    assert determinant(mat) == one - t * t
    zero = GroupRingElement.zero(g)
    assert determinant([[zero, t], [t, one]]) == -(t * t)
    with pytest.raises(NonSquareError):
        determinant([[one, t]])


def test_determinant_matches_permutation_expansion():
    rng = random.Random(SEED + 4)
    g = presented_group(("s",), [[3]])             # Z/3, zero divisors live here
    elems = [GroupRingElement(g, {(r,): c})
             for r in range(3) for c in (-2, -1, 1, 2)]
    for _ in range(20):
        mat = [[rng.choice(elems) + rng.choice(elems) for _ in range(4)]
               for _ in range(4)]
        got = determinant(mat)
        want = GroupRingElement.zero(g)
        for perm in itertools.permutations(range(4)):
            sgn = 1
            for i, j in itertools.combinations(range(4), 2):
                if perm[i] > perm[j]:
                    sgn = -sgn
            prod = GroupRingElement.one(g)
            for i in range(4):
                prod = prod * mat[i][perm[i]]
            want = want + sgn * prod
        assert got == want


def _laplace(mat):
    """Reference determinant: Laplace expansion along the rows, memoized
    over the remaining column subsets; valid over any commutative ring."""
    group = mat[0][0].group
    memo = {}

    def minor(row, cols):
        if not cols:
            return GroupRingElement.one(group)
        key = (row, cols)
        if key not in memo:
            acc = GroupRingElement.zero(group)
            for t, j in enumerate(cols):
                term = mat[row][j] * minor(row + 1, cols[:t] + cols[t + 1:])
                acc = acc + (term if t % 2 == 0 else -term)
            memo[key] = acc
        return memo[key]

    return minor(0, tuple(range(len(mat))))


def test_determinant_matches_laplace_on_grown_diagrams():
    """Elimination of the Laurent lift equals the Laplace expansion on
    every corpus Fox matrix and on bases with and without torsion (lens_6_1
    has H_1 = Z/6) grown by slides to d = 4 and 8."""
    diags = [load(name) for name in corpus_names()]
    for name in ("hopf", "trefoil", "figure8", "lens_3_1", "lens_6_1"):
        diags += [slid_and_back(load(name), d) for d in (4, 8)]
    for diag in diags:
        if diag.d:
            mat = fox_matrix(diag, homology(diag))
            assert determinant(mat) == _laplace(mat)


def _lifted_det(mat):
    """Reference determinant: fraction-free elimination over the sparse
    Laurent lift of the entries, projected back to Z[H_1]."""
    return GroupRingElement(mat[0][0].group, fraction_free_det(
        [[_Laurent(el.terms) for el in row] for row in mat]))


def _packing_cases():
    """Corpus, move and rotated copies, and bases grown by slides: with
    free rank up to 3 and with torsion, to d = 16, and from d = 0 and 1."""
    yield from moved_and_rotated((name, load(name)) for name in corpus_names())
    for names, ds in ((("hopf", "trefoil", "figure8"), (4, 8, 12, 16)),
                      (("lens_3_1", "lens_6_1"), (4, 8, 12)),
                      (("unknot", "s1s2"), (2,))):
        for name in names:
            diag = load(name)
            for d in ds:
                diag = slid_and_back(diag, d)
                yield f"{name} grown to {d}", diag


def test_determinant_matches_the_lifted_elimination():
    for label, diag in _packing_cases():
        if diag.d:
            mat = fox_matrix(diag, homology(diag))
            assert determinant(mat) == _lifted_det(mat), label


def test_determinant_edge_cases():
    """Coefficients at the balanced-digit boundary (the coefficient bound
    is tight on a diagonal), vanishing lines, zero pivots that force swaps,
    negative exponents, and a matrix whose t1 is shifted by rows and whose
    t2 by columns (t1 spreads 1 along each row and up to 7 along each
    column, t2 the reverse)."""
    g = presented_group(("x", "y"), [])

    def el(*terms):
        return GroupRingElement(g, {(a, b): c for a, b, c in terms})

    zero = el()
    cases = []
    for k in (1, 7, 64):
        for c in (2 ** k, -2 ** k, 2 ** k - 1):
            cases.append(([[el((-3, 2, c))]], el((-3, 2, c))))
        cases.append(([[el((0, 0, 2 ** k), (2, -1, 1 - 2 ** k))]],
                      el((0, 0, 2 ** k), (2, -1, 1 - 2 ** k))))
        cases.append(([[el((1, 0, 2 ** k)), zero],
                       [zero, el((0, -1, -2 ** k))]], el((1, -1, -4 ** k))))
        cases.append(([[el((0, 0, 2 ** k)), zero, zero],
                       [zero, el((5, 0, 2 ** k - 1)), zero],
                       [zero, zero, el((0, 3, 2 ** k))]],
                      el((5, 3, 4 ** k * (2 ** k - 1)))))
    t1, t2, one = el((1, 0, 1)), el((0, 1, 1)), el((0, 0, 1))
    cases += [
        ([[zero, zero], [t1, one]], zero),
        ([[zero, t1], [zero, one]], zero),
        ([[t1, one + t2, t2], [one, t1, t1 * t2], [t1, one + t2, t2]], zero),
        ([[zero, t1], [t2, one]], -(t1 * t2)),
        ([[zero, t1, one], [t2, one, t1], [one, t2, zero]],
         t1 * t1 + t2 * t2 - one),
        ([[one, t1, zero], [t1, t1 * t1, one], [t2, one, t1]],
         t1 * t2 - one),
        ([[el((-2, 0, 1), (0, -1, 1)), el((-5, 0, 3))],
          [el((0, -4, 1)), el((-1, -1, 1), (0, 0, -2))]],
         el((-3, -1, 1), (-2, 0, -2), (-1, -2, 1), (0, -1, -2),
            (-5, -4, -3))),
    ]
    rng = random.Random(SEED + 12)
    cases.append(([[el((3 * i, -3 * j, rng.randint(1, 3)),
                       (3 * i + 1, -3 * j, rng.randint(-3, 3)),
                       (3 * i, 1 - 3 * j, rng.randint(-3, -1)))
                    for j in range(3)] for i in range(3)], None))
    for mat, want in cases:
        got = determinant(mat)
        assert got == _lifted_det(mat), mat
        if want is not None:
            assert got == want, mat
    assert not determinant(cases[-1][0]).is_zero()


def test_determinant_bounds_on_random_sparse_matrices():
    """Seeded sparse 1x1 to 4x4 matrices over Z^2 x Z/3: empty entries,
    negative exponents, a zero row and a zero column, and lines whose t1
    grows down the columns and t2 along the rows, so that rows give the
    smaller t1 span and columns the smaller t2 span."""
    g = presented_group(("x", "y", "z"), [[0, 0, 3]])
    assert (g.rank, g.torsion) == (2, (3,))
    rng = random.Random(SEED + 13)

    def entry(i, j, tilt):
        if rng.random() < 0.4:
            return GroupRingElement.zero(g)
        return GroupRingElement(g, {
            (rng.randint(-3, 2) + tilt * 5 * i,
             rng.randint(-3, 2) + tilt * 5 * j,
             rng.randrange(3)): rng.choice((-2, -1, 1, 3))
            for _ in range(rng.randint(1, 3))})

    zero_lines = 0
    for trial in range(400):
        n = 1 + trial % 4
        mat = [[entry(i, j, trial % 3 == 0) for j in range(n)]
               for i in range(n)]
        if trial % 5 == 1:
            mat[rng.randrange(n)] = [GroupRingElement.zero(g)] * n
        if trial % 5 == 2:
            k = rng.randrange(n)
            mat = [row[:k] + [GroupRingElement.zero(g)] + row[k + 1:]
                   for row in mat]
        got = determinant(mat)
        assert got == _lifted_det(mat), mat
        if trial % 5 in (1, 2):
            assert got.is_zero()
            zero_lines += 1
    assert zero_lines == 160


def _class_rule_cases():
    """Every corpus diagram, seeded move copies and rotated copies of each,
    and bases with and without torsion grown by slides to d = 4 and 8."""
    yield from moved_and_rotated((name, load(name)) for name in corpus_names())
    for name in ("hopf", "trefoil", "figure8", "lens_3_1", "lens_6_1"):
        for d in (4, 8):
            yield f"{name} grown to {d}", slid_and_back(load(name), d)


def test_homology_reads_the_alpha_words():
    """H_1 summed from the crossings equals the group presented by the
    exponent sums of the alpha words."""
    for label, diag in _class_rule_cases():
        gens = diag.beta_generators()
        rows = [[alpha_word(diag, c.id).exponent_sums().get(b, 0)
                 for b in gens] for c in diag.closed_alphas]
        assert homology(diag) == presented_group(gens, rows), label


def test_normalization_unit_from_the_anchor_classes():
    """The unit of the normalization, from the anchor's picks alone, equals
    the one built from the full crossing_classes dict, at a seeded offset
    and both orientation signs, on every case with a multipoint."""
    rng = random.Random(SEED + 14)
    for label, diag in _class_rule_cases():
        anchor = anchor_multipoint(diag)
        if anchor is None:
            continue
        group = homology(diag)
        classes = crossing_classes(diag, group)
        offset = tuple(rng.randint(-3, 3) for _ in range(group.ncoords))
        coords = offset
        for xid in anchor.picks:
            coords = tuple(a - b for a, b in zip(coords, classes[xid]))
        for sign in (1, -1):
            spinc = SpincRelative(anchor, GroupRingElement.monomial(
                group, offset))
            got = _normalization(diag, spinc, OrientationSign(sign))
            assert got == (group, GroupRingElement.monomial(
                group, coords, sign)), (label, sign)


def test_compute_path_reads_no_alpha_word_and_no_class_dict(monkeypatch):
    """With alpha_word and crossing_classes made to fail, torsion_class,
    invariant_h0 and invariant_hn_values on both engines still give their
    values: the corpus cases on both engines, the grown ones on Fox, the
    invariants wherever there is a multipoint."""
    rng = random.Random(SEED + 15)
    runs = []
    for label, diag in _class_rule_cases():
        calls = [lambda d=diag: torsion_class(d)]
        if anchor_multipoint(diag) is not None:
            spinc = SpincRelative(anchor_multipoint(diag))
            chars = [CharacterAssignment.from_character(rng.choice(
                all_characters(homology(diag), 2)))]
            engines = ("fox",) if "grown" in label else ("fox", "tensor")
            calls.append(lambda d=diag, s=spinc: invariant_h0(d, s))
            calls += [lambda d=diag, s=spinc, c=chars, e=e:
                      invariant_hn_values(d, 2, c, s, engine=e)
                      for e in engines]
        runs += [(label, call, call()) for call in calls]

    def fail(*args):
        raise AssertionError("the compute path read it")

    for module in (suturant, suturant.diagram, suturant.foxcalc,
                   suturant.invariant):
        for name in ("alpha_word", "crossing_classes"):
            monkeypatch.setattr(module, name, fail, raising=False)
    for label, call, want in runs:
        assert call() == want, label


def test_fox_path_errors_on_unvalidated_diagrams(trefoil):
    """A crossing whose beta is no curve raises UnknownGeneratorError, and
    an alpha order naming no crossing raises UnknownCurveError, from every
    Fox-path function."""
    g = homology(trefoil)
    bad_beta = replace(trefoil, crossings=tuple(
        replace(x, beta="zz") if x.id == "x1" else x
        for x in trefoil.crossings))
    no_crossing = trefoil.with_curves(
        replace(c, order=c.order + ("x9",)) if c.id == "a1" else c
        for c in trefoil.curves)
    for diag, error in ((bad_beta, UnknownGeneratorError),
                        (no_crossing, UnknownCurveError)):
        for call in (lambda: homology(diag),
                     lambda: crossing_classes(diag, g),
                     lambda: fox_matrix(diag), lambda: fox_matrix(diag, g),
                     lambda: torsion_class(diag)):
            with pytest.raises(error):
                call()
    with pytest.raises(UnknownGeneratorError):
        multipoint_class(bad_beta, g, ("x3",))
    with pytest.raises(UnknownCurveError):
        multipoint_class(replace(trefoil, crossings=trefoil.crossings + (
            replace(trefoil.crossing("x1"), id="x9"),)), g, ("x9",))


def test_fox_matrix_is_the_abelianized_fox_derivative():
    """The crossing-class walk builds the same Fox matrix as abelianizing
    the word-level derivative of every alpha word."""
    for label, diag in _class_rule_cases():
        g = homology(diag)
        for a, row in zip(diag.closed_alphas, fox_matrix(diag, g)):
            word = alpha_word(diag, a.id)
            assert row == [abelianize(fox_derivative(word, b.id), g)
                           for b in diag.closed_betas], (label, a.id)


def test_multipoint_class_differences_are_change_of_basepoint_classes():
    """The sum of the picks' crossing classes changes between two
    multipoints by the abelianized change-of-basepoint word: every pair on
    the corpus, move and rotated copies, and on Hopf grown to d = 4 (912
    multipoints) the first one against each other one, both ways."""
    cases = [(label, diag, None) for label, diag in moved_and_rotated(
        (name, load(name)) for name in corpus_names())]
    cases.append(("hopf grown to 4", slid_and_back(load("hopf"), 4), 0))
    for label, diag, fixed in cases:
        g = homology(diag)
        classes = crossing_classes(diag, g)
        mps = enumerate_multipoints(diag)

        def h(mp):
            return [sum(col) for col in zip(
                g.identity(), *(classes[xid] for xid in mp.picks))]

        for mp in mps:
            assert multipoint_class(diag, g, mp.picks) == g.normalize(h(mp))
        pairs = (itertools.product(mps, mps) if fixed is None else
                 [p for y in mps for p in ((mps[fixed], y), (y, mps[fixed]))])
        for x, y in pairs:
            diff = g.normalize(tuple(b - a for a, b in zip(h(x), h(y))))
            assert diff == g.project_word(epsilon_class(diag, x, y)), (
                label, x, y)


def test_multipoint_expansion_equals_determinant_on_corpus():
    for name in corpus_names():
        diag = load(name)
        g = homology(diag)
        if diag.d == 0:
            assert multipoint_expansion(diag, g) == GroupRingElement.one(g)
            continue
        assert multipoint_expansion(diag, g) == determinant(
            fox_matrix(diag, g)), name


# -- characters and evaluation -------------------------------------------------

def test_evaluate_examples(trefoil):
    g = homology(trefoil)
    t = GroupRingElement.monomial(g, g.project([0, 1]))
    el = GroupRingElement.one(g) - t + t * t
    chi6 = Character(g, 6, (1,))
    assert evaluate(el, chi6).is_zero()            # 1 - z6 + z6^2 = 0
    triv = Character(g, 1, (0,))
    assert evaluate(el, triv).coeffs == (el.augmentation(),)


def test_evaluate_kills_lens_sum_at_primitive_character():
    diag = load("lens_3_1")
    g = homology(diag)
    el = fox_determinant(diag, g)                  # 1 + t + t^2
    chi = Character(g, 3, (1,))
    assert evaluate(el, chi).is_zero()


def test_invalid_character_rejected():
    g = presented_group(("s",), [[3]])
    with pytest.raises(InvalidCharacterError):
        Character(g, 4, (1,))                       # 3*1 != 0 mod 4
    assert len(all_characters(g, 6)) == 3           # exponents 0, 2, 4


def test_evaluate_is_a_ring_homomorphism():
    g = presented_group(("x", "s"), [[0, 4]])
    rng = random.Random(SEED + 5)
    chi = Character(g, 8, (3, 2))

    def rand_elem():
        return GroupRingElement(g, {
            g.normalize((rng.randint(-2, 2), rng.randint(0, 3))):
                rng.randint(-2, 2)
            for _ in range(3)})

    for _ in range(40):
        a, b = rand_elem(), rand_elem()
        assert evaluate(a * b, chi) == evaluate(a, chi) * evaluate(b, chi)
        assert evaluate(a + b, chi) == evaluate(a, chi) + evaluate(b, chi)


# -- canonical classes -----------------------------------------------------

def test_class_equality_examples():
    g = presented_group(("t",), [])
    t = GroupRingElement.monomial(g, (1,))
    tinv = GroupRingElement.monomial(g, (-1,))
    one = GroupRingElement.one(g)
    a = one - t + t * t
    assert class_equal(canonical_class(a), canonical_class(tinv - one + t))
    assert class_equal(canonical_class(a), canonical_class(-a))
    assert not class_equal(canonical_class(a),
                           canonical_class(one + t + t * t))


def _greatest_translate(el):
    """Brute force over every +-g translate with each free coordinate's
    least exponent 0 and a positive leading coefficient: the greatest
    (coefficients, keys) pair."""
    g = el.group
    shifts = [range(-3, 4)] * g.rank + [range(d) for d in g.torsion]
    best = None
    for coords in itertools.product(*shifts):
        for sign in (1, -1):
            flat = el.translate(coords, sign).sorted_terms()
            keys = [k for k, _ in flat]
            if flat[0][1] > 0 and all(min(col) == 0
                                      for col in list(zip(*keys))[:g.rank]):
                pair = (tuple(c for _, c in flat), tuple(keys))
                best = pair if best is None else max(best, pair)
    return best


@pytest.mark.parametrize("rows", [
    [[0]],                                  # Z
    [[0, 4]],                               # Z x Z/4
    [[6]],                                  # Z/6
    [[2, 0], [0, 4]],                       # Z/2 x Z/4
    [[0, 0, 3]],                            # Z^2 x Z/3
], ids=["free1", "free1_tors4", "tors6", "tors2_4", "free2_tors3"])
def test_canonical_class_is_a_fixed_point(rows):
    g = presented_group([f"g{i}" for i in range(len(rows[0]))], rows)
    rng = random.Random(SEED + 6)
    for _ in range(40):
        el = GroupRingElement(g, {
            g.normalize([rng.randint(-3, 3) for _ in range(g.rank)]
                        + [rng.randrange(d) for d in g.torsion]):
                rng.randint(-3, 3)
            for _ in range(4)})
        cls = canonical_class(el)
        again = canonical_class(cls.representative)
        assert cls.representative == again.representative
        # every +-translate lands on the same representative
        shifted = el.translate(g.normalize(
            [rng.randint(-2, 2) for _ in range(g.rank)]
            + [rng.randrange(d) for d in g.torsion]), -1)
        assert class_equal(cls, canonical_class(shifted))
        if not el.is_zero():
            flat = cls.representative.sorted_terms()
            assert _greatest_translate(el) == (
                tuple(c for _, c in flat), tuple(k for k, _ in flat))


def test_exact_division():
    g = presented_group(("t1", "t2"), [])
    t1 = GroupRingElement.monomial(g, (1, 0))
    t2 = GroupRingElement.monomial(g, (0, 1))
    one = GroupRingElement.one(g)
    f = (one - t1) * (one - t2) * (one + t1 + t2)
    q = divide_by_element_minus_one(f, (1, 0))
    assert q * (t1 - one) == f
    with pytest.raises(NotDivisibleError):
        divide_by_element_minus_one(one - t1 + t1 * t1, (1, 0))
    with pytest.raises(NotDivisibleError):
        divide_by_element_minus_one(one + t1, (0, 1))
