import dataclasses
import random
from math import comb

import pytest

from suturant import (build_cyclic_group_algebra, build_hn, check_axioms,
                      coproduct_power)
from suturant.algebra import (_generators, apply, compose, first_difference,
                              legged, tensor)
from conftest import SEED


def labels(pkg, terms):
    return sorted((c, tuple(pkg.algebra.label(i) for i in key))
                  for c, key in terms)


def x_index(pkg):
    # X is the first odd basis element of the hn family
    return next(i for i, p in enumerate(pkg.algebra.parity) if p == 1)


def test_hn2_coproduct_of_x():
    pkg = build_hn(2)
    terms = coproduct_power(pkg, x_index(pkg), 2)
    assert labels(pkg, terms) == [(1, ("K", "X")), (1, ("X", "1"))]


def test_hn3_antipode_of_x():
    pkg = build_hn(3)
    s = pkg.algebra.antipode({x_index(pkg): 1})
    assert {pkg.algebra.label(k): v for k, v in s.items()} == {"K^2X": -1}


def test_hn1_is_the_exterior_algebra():
    pkg = build_hn(1)
    assert pkg.algebra.dim == 2
    terms = coproduct_power(pkg, x_index(pkg), 2)
    assert labels(pkg, terms) == [(1, ("1", "X")), (1, ("X", "1"))]
    assert check_axioms(pkg).passed


def test_degenerate_sizes_rejected():
    with pytest.raises(ValueError):
        build_hn(0)
    with pytest.raises(ValueError):
        build_cyclic_group_algebra(0)


def test_iterated_coproduct_of_x():
    pkg = build_hn(4)
    x = x_index(pkg)
    assert coproduct_power(pkg, x, 1) == [(1, (x,))]
    # Delta^0 = counit
    assert coproduct_power(pkg, x, 0) == []
    assert coproduct_power(pkg, 0, 0) == [(1, ())]
    # Delta^5(X): X in slot j, K before, 1 after
    terms = coproduct_power(pkg, x, 5)
    assert len(terms) == 5
    for coeff, key in terms:
        assert coeff == 1
        j = key.index(x)
        names = tuple(pkg.algebra.label(i) for i in key)
        assert names == ("K",) * j + ("X",) + ("1",) * (4 - j)


def test_cyclic_integral_and_cointegral():
    pkg = build_cyclic_group_algebra(3)
    # mu picks the coefficient of the identity out of the cointegral
    val = apply(pkg.integral.mu, apply(pkg.cointegral.iota, {0: 1}))
    assert val == {0: 1}


def test_cyclic_antipode_is_inversion():
    pkg = build_cyclic_group_algebra(4)
    alg = pkg.algebra
    for i in range(4):
        assert alg.antipode({i: 1}) == {(-i) % 4: 1}
        assert alg.antipode(alg.antipode({i: 1})) == {i: 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 32])
def test_hn_axiom_suite(n):
    rep = check_axioms(build_hn(n))
    assert rep.passed, str(rep)


@pytest.mark.parametrize("m", [1, 2, 5, 6])
def test_cyclic_axiom_suite(m):
    rep = check_axioms(build_cyclic_group_algebra(m))
    assert rep.passed, str(rep)


def test_parity_bookkeeping():
    for pkg in (build_hn(3), build_cyclic_group_algebra(4)):
        assert pkg.integral.mu_parity == pkg.cointegral.iota_parity


def test_corrupted_antipode_fails_with_witness():
    pkg = build_hn(2)
    bad_sc = dict(pkg.algebra.antipode_sc)
    x = x_index(pkg)
    bad_sc[x] = {k: -v for k, v in bad_sc[x].items()}     # S(X) = +K^-1 X
    alg = dataclasses.replace(pkg.algebra, antipode_sc=bad_sc)
    rep = check_axioms(dataclasses.replace(pkg, algebra=alg))
    assert not rep.passed
    failing = {e.check: e for e in rep.failures()}
    assert "antipode" in failing
    assert failing["antipode"].witness == "X"


def _associativity_exhaustive(pkg):
    """Reference for the associativity line: m (L_i (x) id) = L_i m for
    each left multiplication L_i = m (e_i (x) -), one i at a time over the
    whole basis; the witness is the least failing triple, "" if none."""
    alg = pkg.algebra
    m = legged(alg.mul_sc)
    ident = {(i,): {(i,): 1} for i in range(alg.dim)}
    for i in range(alg.dim):
        l_i = compose(m, tensor({(): {(i,): 1}}, ident))
        k = first_difference(compose(m, tensor(l_i, ident)), compose(l_i, m))
        if k is not None:
            return "(" + ",".join(alg.label(j) for j in (i,) + k) + ")"
    return ""


def _relabelled(table, perm):
    return {(perm[i], perm[j]): {perm[k]: c for k, c in col.items()}
            for (i, j), col in table.items()}


def _rebased(table, dim, rng):
    """The table in the basis f_a = e_a + sum_{b > a} u_ab e_b for a random
    unitriangular integer u, whose inverse is integral too: products of
    several terms with coefficients other than +-1."""
    u = [[int(a == b) or (rng.choice((0, 1, -2)) if b > a else 0)
          for b in range(dim)] for a in range(dim)]
    inv = [[0] * dim for _ in range(dim)]       # e_a in the f basis
    for a in reversed(range(dim)):
        inv[a][a] = 1
        for b in range(a + 1, dim):
            for c in range(dim):
                inv[a][c] -= u[a][b] * inv[b][c]
    out = {}
    for a in range(dim):
        for b in range(dim):
            col = {}
            for i in range(dim):
                for j in range(dim):
                    for k, c in table.get((i, j), {}).items():
                        for o in range(dim):
                            col[o] = (col.get(o, 0)
                                      + u[a][i] * u[b][j] * c * inv[k][o])
            out[(a, b)] = {o: c for o, c in col.items() if c}
    return out


def _random_table(dim, rng):
    """A seeded product table on dim basis elements: an associative one,
    unital or not (twisted Z/dim, divided powers), optionally rebased and
    corrupted in one entry, or a random magma table."""
    kind = rng.choice(("twisted", "divided", "magma"))
    if kind == "magma":
        return {(i, j): {rng.randrange(dim): rng.choice((1, -1, 2, -3))
                         for _ in range(rng.choice((0, 1, 1, 2)))}
                for i in range(dim) for j in range(dim)}
    if kind == "twisted":       # the carry 2-cocycle q^[i + j >= dim]
        q = rng.choice((2, 3, -2))
        table = {(i, j): {(i + j) % dim: q if i + j >= dim else 1}
                 for i in range(dim) for j in range(dim)}
    else:                       # x^(i+1) x^(j+1) = C(i+j+2, i+1) x^(i+j+2)
        table = {(i, j): {i + j + 1: comb(i + j + 2, i + 1)}
                 for i in range(dim) for j in range(dim) if i + j + 1 < dim}
    perm = list(range(dim))
    rng.shuffle(perm)
    table = _relabelled(table, perm)
    if rng.random() < 0.4:
        table = _rebased(table, dim, rng)
    if rng.random() < 0.7:
        key = (rng.randrange(dim), rng.randrange(dim))
        col = dict(table.get(key, {}))
        col[rng.randrange(dim)] = rng.choice((1, -1, 2))
        table[key] = {o: c for o, c in col.items() if c}
    return table


@pytest.mark.parametrize("dim", range(2, 7))
def test_associativity_line_matches_the_exhaustive_reference(dim):
    rng = random.Random(SEED * 10 + dim)
    base = build_cyclic_group_algebra(dim)
    failing = 0
    for _ in range(60):
        alg = dataclasses.replace(base.algebra,
                                  mul_sc=_random_table(dim, rng),
                                  unit_index=rng.randrange(dim))
        pkg = dataclasses.replace(base, algebra=alg)
        want = _associativity_exhaustive(pkg)
        line = next(e for e in check_axioms(pkg).entries
                    if e.check == "associativity")
        assert (line.ok, line.witness) == (not want, want), alg.mul_sc
        failing += bool(want)
    assert 0 < failing < 60


def test_generators_of_the_shipped_algebras():
    # hn(n): 1, K and X; Z/m: 1 and g, so associativity checks 3 D^2 and
    # 2 D^2 triples rather than D^3
    for n in (2, 3, 16):
        assert _generators(build_hn(n).algebra) == [0, 1, n]
    assert _generators(build_hn(1).algebra) == [0, 1]
    for m in (2, 8):
        assert _generators(build_cyclic_group_algebra(m).algebra) == [0, 1]
