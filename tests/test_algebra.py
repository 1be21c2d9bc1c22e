import dataclasses
import random
from math import comb

import pytest

from suturant import (build_cyclic_group_algebra, build_hn, check_axioms,
                      coproduct_power)
from suturant.algebra import (_check, _generators, _names, apply, compose,
                              first_difference, legged, tensor)
from suturant.report import Report
from conftest import SEED
from test_kuperberg import exterior_package


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


def pinned_packages():
    """Every basis element of these packages is pinned below."""
    return ([(f"hn({n})", build_hn(n)) for n in range(1, 7)]
            + [(f"cyclic({m})", build_cyclic_group_algebra(m))
               for m in range(1, 7)]
            + [("exterior", exterior_package())])


def first_leg_power(alg, i, k):
    """Delta^{(k)}(e_i) with each further coproduct taken on the first leg,
    (Delta (x) id) Delta^{(k-1)}, as {index tuple: coefficient}."""
    if k == 0:
        return {(): alg.counit_vec[i]} if alg.counit_vec[i] else {}
    terms = {(i,): 1}
    for _ in range(k - 1):
        nxt = {}
        for key, c in terms.items():
            for pair, d in alg.comul_sc.get(key[0], {}).items():
                nxt[pair + key[1:]] = nxt.get(pair + key[1:], 0) + c * d
        terms = {key: c for key, c in nxt.items() if c}
    return terms


def test_coproduct_power_is_coassociative_on_every_basis_element():
    """coproduct_power splits the last leg; a first-leg split gives the same
    terms (coassociativity), sorted by key, for every k <= 5."""
    for name, pkg in pinned_packages():
        alg = pkg.algebra
        for i in range(alg.dim):
            for k in range(6):
                want = [(c, key) for key, c in
                        sorted(first_leg_power(alg, i, k).items())]
                assert coproduct_power(pkg, i, k) == want, (name, i, k)
                assert coproduct_power(pkg, {i: 1}, k) == want, (name, i, k)


def test_mul_is_the_bilinear_extension_of_the_table():
    """mul on seeded three-term elements is the double sum over the table,
    zero sums dropped."""
    rng = random.Random(SEED)
    for name, pkg in pinned_packages():
        alg = pkg.algebra
        for _ in range(20):
            x, y = ({rng.randrange(alg.dim): rng.randint(-3, 3)
                     for _ in range(3)} for _ in range(2))
            want = {}
            for (i, j), col in alg.mul_sc.items():
                for k, c in col.items():
                    want[k] = want.get(k, 0) + x.get(i, 0) * y.get(j, 0) * c
            assert alg.mul(x, y) == {k: c for k, c in want.items() if c}, name


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


def koszul(par_v, par_w):
    """The flip V (x) W -> W (x) V, v (x) w -> (-1)^{|v||w|} w (x) v, as a
    table, for bases of the given parities."""
    return {(i, j): {(j, i): -1 if pi and pj else 1}
            for i, pi in enumerate(par_v) for j, pj in enumerate(par_w)}


def _product_lines_exhaustive(pkg):
    """Reference for the lines checked on generators (associativity,
    parity-compatibility, bialgebra, unit/counit morphisms, i_B(B) central,
    mu is B-linear and the trace property of mu): every equation over every
    pair (for associativity, triple) of basis indices, the Koszul flip as a
    table, as (ok, witness) by line."""
    alg, integral, coint = pkg.algebra, pkg.integral, pkg.cointegral
    m, dl, s, i_b, mu, pi_a = map(legged, (
        alg.mul_sc, alg.comul_sc, alg.antipode_sc, integral.i_b,
        integral.mu, coint.pi_a))
    ident = {(i,): {(i,): 1} for i in range(alg.dim)}
    grade = {(i,): {(i,): -1 if p else 1} for i, p in enumerate(alg.parity)}
    eps = {(i,): {(): c} for i, c in enumerate(alg.counit_vec) if c}
    eta = {(): {(alg.unit_index,): 1}}
    tau = koszul(alg.parity, alg.parity)
    H, B = alg.label, (lambda p: f"b_{p}")
    rep = Report()
    wit = _associativity_exhaustive(pkg)
    rep.add("associativity", not wit, wit)
    _check(rep, "parity-compatibility",
           (compose(grade, m), compose(m, tensor(grade, grade)),
            _names(H, H, head="m")),
           (compose(grade, compose(grade, dl), 1), compose(dl, grade),
            _names(H, head="Delta")),
           (compose(grade, s), compose(s, grade), _names(H, head="S")),
           (compose(eps, grade), eps, _names(H, head="eps")))
    _check(rep, "bialgebra", (compose(dl, m), compose(m, compose(
        m, compose(tau, tensor(dl, dl), 1), 2)), _names(H, H)))
    _check(rep, "unit/counit morphisms",
           (compose(eps, m), tensor(eps, eps), ""),
           (compose(dl, eta), tensor(eta, eta), ""),
           (compose(eps, eta), {(): {(): 1}}, ""))
    b_x = tensor(i_b, ident)
    _check(rep, "i_B(B) central",
           (compose(m, b_x), compose(m, compose(tau, b_x)), _names(B, H)))
    c_b = {(h,): {(p,): 1} for p, h in enumerate(integral.b_basis)}
    p_b = {(h,): {(h,): 1} for h in integral.b_basis}
    prod = compose(m, tensor(i_b, compose(i_b, mu)))
    _check(rep, "mu is B-linear", (compose(p_b, prod), prod, "product left B"),
           (compose(mu, compose(m, b_x)), compose(c_b, prod), _names(B, H)))
    dl_astar = compose({(p,): {(e % coint.astar_order,): 1}
                        for p, e in enumerate(coint.astar_exps)},
                       compose(pi_a, dl))
    dl_back = compose(koszul((0,) * coint.astar_order, alg.parity), dl_astar)
    _check(rep, "compatibility (3): trace property of mu",
           (compose(tensor(mu, {(): {(0,): 1}}), compose(m, tau)),
            compose(mu, compose(m, tensor(ident, dl_back))), _names(H, H)))
    return {e.check: (e.ok, e.witness) for e in rep.entries}


def _b_closed(pkg):
    """Whether i_B(B) is closed under m: each i_B(b) i_B(c) lies in the span
    of B's basis and is i_B of its coordinates there."""
    alg, integral = pkg.algebra, pkg.integral
    pos = {h: p for p, h in enumerate(integral.b_basis)}
    for b in range(len(pos)):
        for c in range(len(pos)):
            z = alg.mul(integral.i_b.get(b, {}), integral.i_b.get(c, {}))
            if any(h not in pos for h in z) or z != apply(
                    integral.i_b, {pos[h]: v for h, v in z.items()}):
                return False
    return True


def _psi(pkg, x):
    """a* pi_A(x) in the group ring of Z/astar_order, as {exponent: c}."""
    coint, out = pkg.cointegral, {}
    for p, c in apply(coint.pi_a, x).items():
        e = coint.astar_exps[p] % coint.astar_order
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _psi_multiplicative(pkg):
    """Whether psi = a* pi_A is 0 on odd basis elements and
    psi(x y) = psi(x) psi(y) for every pair of basis elements."""
    alg, order = pkg.algebra, pkg.cointegral.astar_order
    if any(_psi(pkg, {x: 1}) for x in range(alg.dim) if alg.parity[x]):
        return False
    for x in range(alg.dim):
        for y in range(alg.dim):
            want = {}
            for e, c in _psi(pkg, {x: 1}).items():
                for f, d in _psi(pkg, {y: 1}).items():
                    k = (e + f) % order
                    want[k] = want.get(k, 0) + c * d
            if _psi(pkg, alg.mul({x: 1}, {y: 1})) != {
                    k: c for k, c in want.items() if c}:
                return False
    return True


def _plain_unit(alg):
    """Whether the unit is a two-sided unit, even, with Delta(u) = u (x) u."""
    u = alg.unit_index
    return (not alg.parity[u] and alg.comul_sc.get(u) == {(u, u): 1}
            and all(alg.mul({u: 1}, {x: 1}) == {x: 1}
                    == alg.mul({x: 1}, {u: 1}) for x in range(alg.dim)))


def _left_unit_product(alg):
    """The product e_a e_b = eps(e_a) e_b: associative, even for an even
    counit, and its unit is a left unit only."""
    return {(a, b): {b: alg.counit_vec[a]} if alg.counit_vec[a] else {}
            for a in range(alg.dim) for b in range(alg.dim)}


def _corrupted(pkg, rng):
    """The package with one or two seeded corruptions: a coproduct entry set
    or removed, on any basis element or on the unit; a basis parity flipped,
    any or the unit's; a product entry set; a random product table (see
    ``_random_table``); the product of ``_left_unit_product``; i_B sending
    one b to a basis element, or adding a basis element to one i_B(b) (so
    that i_B(B) is no longer closed under m); an entry of mu set; an entry
    of pi_A set, or a* changed (so that psi = a* pi_A is not multiplicative
    or not 0 on odd elements); or psi(u) != 1, by pi_A = 0 or by pi_A(u)
    set."""
    alg, integral, coint = pkg.algebra, pkg.integral, pkg.cointegral
    dim, u = alg.dim, alg.unit_index
    for _ in range(rng.choice((1, 2))):
        kind = rng.choice(("comul", "comul", "unit comul", "parity",
                           "unit parity", "mul", "table", "left unit", "i_b",
                           "i_b sum", "mu", "psi", "psi", "psi unit"))
        if kind in ("comul", "unit comul"):
            table = {i: dict(col) for i, col in alg.comul_sc.items()}
            col = table.setdefault(
                u if kind == "unit comul" else rng.randrange(dim), {})
            col[(rng.randrange(dim), rng.randrange(dim))] = rng.choice(
                (0, 1, -1, 2))
            alg = dataclasses.replace(alg, comul_sc={
                i: {k: c for k, c in col.items() if c}
                for i, col in table.items()})
        elif kind in ("parity", "unit parity"):
            flip = u if kind == "unit parity" else rng.randrange(dim)
            alg = dataclasses.replace(alg, parity=tuple(
                1 - p if i == flip else p for i, p in enumerate(alg.parity)))
        elif kind == "mul":
            table = dict(alg.mul_sc)
            table[(rng.randrange(dim), rng.randrange(dim))] = {
                rng.randrange(dim): rng.choice((1, -1, 2))}
            alg = dataclasses.replace(alg, mul_sc=table)
        elif kind == "table":
            alg = dataclasses.replace(alg, mul_sc=_random_table(dim, rng))
        elif kind == "left unit":
            alg = dataclasses.replace(alg, mul_sc=_left_unit_product(alg))
        elif kind in ("i_b", "i_b sum"):
            i_b = dict(integral.i_b)
            b, h = rng.randrange(len(i_b)), rng.randrange(dim)
            i_b[b] = ({**i_b[b], h: i_b[b].get(h, 0) + 1}
                      if kind == "i_b sum" else {h: 1})
            integral = dataclasses.replace(integral, i_b={
                p: {k: c for k, c in col.items() if c}
                for p, col in i_b.items()})
        elif kind == "mu":
            mu = dict(integral.mu)
            mu[rng.randrange(dim)] = {
                rng.randrange(len(integral.b_basis)): rng.choice((1, -1, 2))}
            integral = dataclasses.replace(integral, mu=mu)
        elif kind == "psi" and rng.random() < 0.3:
            order = rng.choice((2, 3))
            coint = dataclasses.replace(
                coint, astar_order=order, astar_exps=tuple(
                    rng.randrange(order) for _ in coint.astar_exps))
        elif kind == "psi":
            pi_a = dict(coint.pi_a)
            pi_a[rng.randrange(dim)] = {
                rng.randrange(len(coint.a_basis)): rng.choice((1, -1, 2))}
            coint = dataclasses.replace(coint, pi_a=pi_a)
        else:
            coint = dataclasses.replace(coint, pi_a={} if rng.random() < 0.5
                                        else {**coint.pi_a, u: {0: 2}})
    return dataclasses.replace(pkg, algebra=alg, integral=integral,
                               cointegral=coint)


def _left_unit_only(pkg):
    """The package under ``_left_unit_product`` with i_B(b_0) = z, the last
    basis element: z u = m^op(z (x) u) fails at the unit u alone among the
    basis elements of Z/2, and first at u in hn(2), so u must stay a
    generator."""
    alg = dataclasses.replace(pkg.algebra,
                              mul_sc=_left_unit_product(pkg.algebra))
    integral = dataclasses.replace(pkg.integral, i_b={
        **pkg.integral.i_b, 0: {alg.dim - 1: 1}})
    return dataclasses.replace(pkg, algebra=alg, integral=integral)


def _right_unit_only(pkg):
    """The package with e_u z = 0 for the unit u and the last basis element
    z: u is a right unit only, and associativity fails first at a triple
    (u, z, y), so u must stay a generator."""
    u, z = pkg.algebra.unit_index, pkg.algebra.dim - 1
    alg = dataclasses.replace(pkg.algebra,
                              mul_sc={**pkg.algebra.mul_sc, (u, z): {}})
    return dataclasses.replace(pkg, algebra=alg)


def _right_unit_product(pkg):
    """The package under the product e_a e_b = eps(e_b) e_a: associative and
    even, its unit a right unit only, and i_B(B) closed under it, so that
    mu(i_B(b) x) = b mu(x) must still be checked at B's unit."""
    alg = pkg.algebra
    return dataclasses.replace(pkg, algebra=dataclasses.replace(alg, mul_sc={
        (a, b): {a: alg.counit_vec[b]} if alg.counit_vec[b] else {}
        for a in range(alg.dim) for b in range(alg.dim)}))


def _unit_psi_negated(pkg):
    """The package with psi(u) = -1, by pi_A(u) negated: on Z/1, whose one
    basis element is the unit, only the unit shows that the trace property
    fails, so u must stay a generator of that line."""
    coint = pkg.cointegral
    pi_a = {**coint.pi_a, pkg.algebra.unit_index: {
        p: -c for p, c in coint.pi_a[pkg.algebra.unit_index].items()}}
    return dataclasses.replace(
        pkg, cointegral=dataclasses.replace(coint, pi_a=pi_a))


def test_product_lines_match_the_exhaustive_reference():
    """Checked on generators once associativity holds (and, for mu, once
    i_B(B) is closed under m, and for the trace property of mu, once its
    gate holds), with the unit among them or not, the seven lines still
    report what their equations over the whole basis report."""
    rng = random.Random(SEED * 10 + 7)
    seen = set()
    shipped = ([build_hn(n) for n in range(1, 5)]
               + [build_cyclic_group_algebra(m) for m in range(2, 6)])
    cases = [case(pkg) for case in (_left_unit_only, _right_unit_only,
                                    _right_unit_product)
             for pkg in (build_hn(2), build_cyclic_group_algebra(2))]
    cases.append(_unit_psi_negated(build_cyclic_group_algebra(1)))
    cases += [_corrupted(pkg, rng) for pkg in shipped for _ in range(40)]
    b_runs, trace_runs = set(), set()
    for bad in cases:
        want = _product_lines_exhaustive(bad)
        got = {e.check: (e.ok, e.witness) for e in check_axioms(bad).entries}
        assert {k: got[k] for k in want} == want, (bad.name, bad.algebra)
        seen.add((_plain_unit(bad.algebra), *(want[line][0] for line in (
            "associativity", "parity-compatibility", "bialgebra"))))
        assoc = want["associativity"][0]
        b_runs.add((assoc and _b_closed(bad), want["mu is B-linear"][0]))
        trace_runs.add((
            assoc and want["parity-compatibility"][0]
            and want["bialgebra"][0] and _psi_multiplicative(bad),
            _psi(bad, bad.algebra.unit()) == {0: 1},
            want["compatibility (3): trace property of mu"][0]))
    # associative tables with the parity or the bialgebra line failing or
    # passing, and associative tables with the unit left out and kept
    lines = {s[1:] for s in seen}
    assert {(True, True, False), (True, False, False), (True, True, True),
            (False, True, False)} <= lines
    assert {(True, True), (False, True)} <= {s[:2] for s in seen}
    # each gate holding, with the line passing or failing, and failing;
    # psi(u) = 1 and not, the trace gate holding
    assert {(True, True), (True, False), (False, False)} <= b_runs
    assert {(True, True), (True, False), (False, False)} <= {
        (gate, ok) for gate, _, ok in trace_runs}
    assert {(True, True), (True, False)} <= {
        (gate, unit) for gate, unit, _ in trace_runs}


def test_generators_of_the_shipped_algebras():
    # with the plain unit already reached, hn(n): K and X; Z/m: g, so
    # associativity checks 2 D^2 and D^2 triples rather than D^3; a unit
    # that is not plain stays a generator
    def gens(pkg, reached):
        return _generators(legged(pkg.algebra.mul_sc), pkg.algebra.dim,
                           reached)
    for n in (2, 3, 16):
        assert gens(build_hn(n), [0]) == [1, n]
        assert gens(build_hn(n), []) == [0, 1, n]
    assert gens(build_hn(1), [0]) == [1]
    for m in (2, 8):
        assert gens(build_cyclic_group_algebra(m), [0]) == [1]
    assert gens(build_cyclic_group_algebra(1), [0]) == []
