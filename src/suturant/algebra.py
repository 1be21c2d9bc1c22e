"""Finite-dimensional involutive Hopf superalgebras given by structure constants.

An algebra is presented by an integer basis: multiplication, comultiplication,
antipode and counit are sparse integer structure-constant tables.  Two
families ship with the package, ``build_hn(n)`` (2n-dimensional, on K and
an odd X) and ``build_cyclic_group_algebra(m)`` (the group algebra of Z/m),
each with its relative integral and cointegral.

Elements are dicts ``{basis index: integer coefficient}``; tensors are dicts
keyed by index tuples, one index per leg, ``()`` being the ground ring.  A
linear map is a table ``{input key: {output key: coefficient}}``, and one
sparse linear-map core acts on them: ``apply`` (the image of an element),
``compose`` (one map after another, possibly on a few legs only),
``tensor``, ``koszul`` (the signed flip of two legs) and
``first_difference``.  ``check_axioms`` states every axiom as equations
``lhs == rhs`` between composites of the structure maps over the whole
basis (dimensions stay small, at most a few dozen), and a failing
equation is witnessed by the least key on which its sides differ.
Associativity is checked with the middle factor among a set of generators
(Light's test), D^2 triples per generator rather than D^3.  Once it holds,
the evenness of m and the bialgebra equation are checked with the left
factor among the generators, D columns per generator rather than D^2.  A
shortcut that fails is repeated over the whole basis, for the least
witness.  The Koszul sign convention is
``tau(v (x) w) = (-1)^{|v||w|} w (x) v``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .report import Report


def _add_term(d, key, coeff):
    if coeff == 0:
        return
    c = d.get(key, 0) + coeff
    if c:
        d[key] = c
    else:
        del d[key]


# ---------------------------------------------------------------------------
# the sparse linear-map core
# ---------------------------------------------------------------------------

def apply(table, x):
    """The image of the element x under the linear map ``table``."""
    out = {}
    for i, ci in x.items():
        for j, c in table.get(i, {}).items():
            _add_term(out, j, ci * c)
    return out


def legged(table):
    """The table with every key a tuple of legs, a basis index i becoming
    (i,); ``compose`` and ``tensor`` take tables in this form."""
    def legs(k):
        return k if isinstance(k, tuple) else (k,)
    return {legs(k): {legs(o): c for o, c in col.items() if c}
            for k, col in table.items()}


def compose(f, g, at=0):
    """f after g, with f acting on the legs of g's outputs from position
    ``at`` on and the identity on the others, over the nonzero entries of
    g; inputs that the composite sends to 0 are left out."""
    n = len(next(iter(f))) if f else 1
    out = {}
    for key, col in g.items():
        y = {}
        for k, c in col.items():
            head, tail = k[:at], k[at + n:]
            for o, d in f.get(k[at:at + n], {}).items():
                t = head + o + tail
                y[t] = y.get(t, 0) + c * d
        y = {t: v for t, v in y.items() if v}
        if y:
            out[key] = y
    return out


def tensor(f, g):
    """f (x) g, over the nonzero entries of both."""
    out = {}
    for a, fa in f.items():
        for b, gb in g.items():
            col = {}
            for o, c in fa.items():
                for p, d in gb.items():
                    cd = c * d
                    if cd:
                        col[o + p] = cd
            if col:
                out[a + b] = col
    return out


def koszul(par_v, par_w):
    """The flip V (x) W -> W (x) V, v (x) w -> (-1)^{|v||w|} w (x) v, for
    bases of the given parities."""
    return {(i, j): {(j, i): -1 if pi and pj else 1}
            for i, pi in enumerate(par_v) for j, pj in enumerate(par_w)}


def first_difference(f, g):
    """The least input key on which the maps f and g differ, or None."""
    if f == g:
        return None
    return min((k for k in f.keys() | g.keys()
                if f.get(k, {}) != g.get(k, {})), default=None)


@dataclass(frozen=True)
class PresentedAlgebra:
    """A Hopf superalgebra presented by integer structure constants."""

    dim: int
    basis_labels: tuple
    parity: tuple
    mul_sc: dict          # (i, j) -> {k: c}   expansion of e_i * e_j
    comul_sc: dict        # i -> {(j, k): c}   expansion of Delta(e_i)
    antipode_sc: dict     # i -> {j: c}
    counit_vec: tuple
    unit_index: int

    # -- elementwise operations -------------------------------------------

    def unit(self):
        return {self.unit_index: 1}

    def mul(self, x, y):
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                for k, c in self.mul_sc.get((i, j), {}).items():
                    _add_term(out, k, ci * cj * c)
        return out

    def antipode(self, x):
        return apply(self.antipode_sc, x)

    def counit(self, x):
        return sum(c * self.counit_vec[i] for i, c in x.items())

    def label(self, i):
        return self.basis_labels[i]


@dataclass(frozen=True)
class RelativeIntegralData:
    """A relative right integral (B, i_B, pi_B, mu) with distinguished b.

    ``b_basis`` lists the H-basis indices spanning B; maps in and out of B
    use positions into that list.  ``b_dlog`` records the discrete log of
    each B-basis element with respect to the group-like ``b`` (character
    evaluation assumes B is the group algebra of the cyclic group <b>,
    which holds for every shipped package).
    """

    b_basis: tuple
    i_b: dict        # b_pos -> {h_idx: c}
    pi_b: dict       # h_idx -> {b_pos: c}
    mu: dict         # h_idx -> {b_pos: c}
    glike_b: int     # position of b in b_basis
    glike_b_order: int
    b_dlog: tuple
    mu_parity: int


@dataclass(frozen=True)
class RelativeCointegralData:
    """A relative right cointegral (A, pi_A, i_A, iota) with character a*.

    ``iota`` is stored with integer coefficients; ``iota_prefactor`` is the
    exact rational applied once per cointegral at contraction time.  The
    character a* is an exponent functional: a*(e_pos) = zeta^astar_exps[pos]
    in a cyclic group of order ``astar_order``.
    """

    a_basis: tuple
    pi_a: dict       # h_idx -> {a_pos: c}
    i_a: dict        # a_pos -> {h_idx: c}
    iota: dict       # a_pos -> {h_idx: c}
    astar_exps: tuple
    astar_order: int
    iota_prefactor: Fraction
    iota_parity: int


@dataclass(frozen=True)
class HopfPackage:
    algebra: PresentedAlgebra
    integral: RelativeIntegralData
    cointegral: RelativeCointegralData
    name: str

    @property
    def unit_a(self):
        """Position of the unit of A: the first whose image under i_A is
        the unit of H, else 0."""
        return next((p for p in range(len(self.cointegral.a_basis))
                     if apply(self.cointegral.i_a, {p: 1})
                     == self.algebra.unit()), 0)


# ---------------------------------------------------------------------------
# shipped instances
# ---------------------------------------------------------------------------

def build_hn(n):
    """The 2n-dimensional superalgebra on an even K and an odd X with
    K^n = 1, X^2 = 0; basis K^i, K^i X for 0 <= i < n.

    Coproducts: Delta(K) = K (x) K and Delta(X) = K (x) X + X (x) 1;
    antipode S(X) = -K^{-1} X; relative integral mu(K^i X) = K^i,
    mu(K^i) = 0 with b = K; cointegral (1 + K + ... + K^{n-1}) X over the
    trivial A, prefactor 1/n, a* = counit.  n = 1 is the exterior algebra
    on one odd generator.
    """
    if n < 1:
        raise ValueError("n must be >= 1 (the n = 0 Borel is infinite "
                         "dimensional and handled by the Fox engine)")
    dim = 2 * n
    # indices: i -> K^i  (even), n + i -> K^i X  (odd)
    labels = []
    for i in range(n):
        labels.append("1" if i == 0 else ("K" if i == 1 else f"K^{i}"))
    for i in range(n):
        labels.append("X" if i == 0 else ("KX" if i == 1 else f"K^{i}X"))
    parity = tuple([0] * n + [1] * n)

    mul_sc = {}
    for i in range(n):
        for j in range(n):
            k = (i + j) % n
            mul_sc[(i, j)] = {k: 1}
            mul_sc[(i, n + j)] = {n + k: 1}
            mul_sc[(n + i, j)] = {n + k: 1}
            mul_sc[(n + i, n + j)] = {}   # X^2 = 0

    comul_sc = {}
    for i in range(n):
        comul_sc[i] = {(i, i): 1}
        # Delta(K^i X) = K^{i+1} (x) K^i X + K^i X (x) K^i
        comul_sc[n + i] = {((i + 1) % n, n + i): 1, (n + i, i): 1}

    antipode_sc = {}
    for i in range(n):
        antipode_sc[i] = {(-i) % n: 1}
        antipode_sc[n + i] = {n + ((-i - 1) % n): -1}

    counit_vec = tuple([1] * n + [0] * n)
    alg = PresentedAlgebra(dim, tuple(labels), parity, mul_sc, comul_sc,
                           antipode_sc, counit_vec, unit_index=0)

    b_basis = tuple(range(n))
    i_b = {pos: {pos: 1} for pos in range(n)}
    pi_b = {i: {i: 1} for i in range(n)}       # kills the X half
    mu = {n + i: {i: 1} for i in range(n)}     # mu(K^i X) = K^i, mu(K^i) = 0
    integral = RelativeIntegralData(
        b_basis=b_basis, i_b=i_b, pi_b=pi_b, mu=mu,
        glike_b=1 % n, glike_b_order=n, b_dlog=tuple(range(n)), mu_parity=1)

    cointegral = RelativeCointegralData(
        a_basis=(0,),
        pi_a={i: {0: counit_vec[i]} for i in range(dim) if counit_vec[i]},
        i_a={0: {0: 1}},
        iota={0: {n + i: 1 for i in range(n)}},
        astar_exps=(0,), astar_order=1,
        iota_prefactor=Fraction(1, n), iota_parity=1)

    return HopfPackage(alg, integral, cointegral, name="hn")


def build_cyclic_group_algebra(m):
    """Group algebra of Z/m: basis g^i, all even, integral delta_e,
    cointegral the sum of all group elements, trivial A = B = k."""
    if m < 1:
        raise ValueError("m must be >= 1")
    labels = tuple("1" if i == 0 else ("g" if i == 1 else f"g^{i}")
                   for i in range(m))
    mul_sc = {(i, j): {(i + j) % m: 1} for i in range(m) for j in range(m)}
    comul_sc = {i: {(i, i): 1} for i in range(m)}
    antipode_sc = {i: {(-i) % m: 1} for i in range(m)}
    counit_vec = tuple([1] * m)
    alg = PresentedAlgebra(m, labels, tuple([0] * m), mul_sc, comul_sc,
                           antipode_sc, counit_vec, unit_index=0)

    integral = RelativeIntegralData(
        b_basis=(0,), i_b={0: {0: 1}},
        pi_b={i: {0: counit_vec[i]} for i in range(m)},
        mu={0: {0: 1}},                       # mu(g^i) = [i == 0]
        glike_b=0, glike_b_order=1, b_dlog=(0,), mu_parity=0)

    cointegral = RelativeCointegralData(
        a_basis=(0,),
        pi_a={i: {0: 1} for i in range(m)},
        i_a={0: {0: 1}},
        iota={0: {i: 1 for i in range(m)}},
        astar_exps=(0,), astar_order=1,
        iota_prefactor=Fraction(1, 1), iota_parity=0)

    return HopfPackage(alg, integral, cointegral, name="cyclic-group-algebra")


# ---------------------------------------------------------------------------
# iterated coproduct
# ---------------------------------------------------------------------------

def coproduct_power(pkg, x, k):
    """Expansion of Delta^{(k)}(x) as a list of (coefficient, index tuple).

    Delta^{(0)} is the counit (empty tuples), Delta^{(1)} the identity.
    Terms are merged and returned in a deterministic order.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    alg = pkg.algebra
    if isinstance(x, int):
        x = {x: 1}
    if k == 0:
        c = alg.counit(x)
        return [(c, ())] if c else []
    terms = {(i,): c for i, c in x.items() if c}
    for _ in range(k - 1):
        nxt = {}
        for key, c in terms.items():
            head, last = key[:-1], key[-1]
            for (j, l), d in alg.comul_sc.get(last, {}).items():
                _add_term(nxt, head + (j, l), c * d)
        terms = nxt
    return sorted(((c, key) for key, c in terms.items()),
                  key=lambda t: t[1])


# ---------------------------------------------------------------------------
# exhaustive axiom verification
# ---------------------------------------------------------------------------

def _names(*kinds, head=""):
    """Witness text for a key, one name per leg: ``(b_0,X)``, ``S(K)``."""
    def fmt(key):
        text = ",".join(kind(leg) for kind, leg in zip(kinds, key))
        return f"{head}({text})" if head or len(kinds) > 1 else text
    return fmt


def _check(rep, name, *equations):
    """One report line: every (lhs, rhs, witness) equation must hold.  The
    witness, a formatter of the key or fixed text, is that of the least
    failing key, the earlier equation first on a tie."""
    fails = []
    for n, (lhs, rhs, wit) in enumerate(equations):
        k = first_difference(lhs, rhs)
        if k is not None:
            fails.append((k, n, wit))
    if fails:
        k, _, wit = min(fails)
        rep.add(name, False, wit if isinstance(wit, str) else wit(k))
    else:
        rep.add(name, True)


def _generators(alg):
    """Basis indices whose products reach the whole basis, chosen greedily
    in index order: an index is reached once it is chosen, or once it is
    the single output index of a product e_k e_g with k and g reached (a
    nonzero multiple of e_o); the least index not yet reached is chosen
    next."""
    gens, reached = [], set()
    for start in range(alg.dim):
        if start in reached:
            continue
        gens.append(start)
        reached.add(start)
        todo = [start]
        while todo:
            new = todo.pop()
            for k in list(reached):
                for pair in ((k, new), (new, k)):
                    col = alg.mul_sc.get(pair, {})
                    if len(col) == 1:
                        (o, c), = col.items()
                        if c and o not in reached:
                            reached.add(o)
                            todo.append(o)
    return gens


def _least_nonassociative(m, ident, middles):
    """The least triple (i, j, l) with j among ``middles`` and
    (e_i e_j) e_l != e_i (e_j e_l), or None.

    Associativity needs checking only with the middle factor among
    generators (Light's test).  For any bilinear product the set S of a
    with (x a) y = x (a y) for all x, y is a subspace closed under
    products: for a, b in S and all x, y,
        x (a b) = (x a) b                      (a in S),
        ((x a) b) y = (x a) (b y)              (b in S),
        (x a) (b y) = x (a (b y))              (a in S),
        a (b y) = (a b) y                      (b in S),
    so (x (a b)) y = x ((a b) y).  Every basis index ``_generators``
    reaches is a multiple of a product of generators, so S is everything
    once the generators lie in it."""
    best = None
    for j in middles:
        e_j = {(): {(j,): 1}}
        left = compose(m, tensor(compose(m, tensor(ident, e_j)), ident))
        right = compose(m, tensor(ident, compose(m, tensor(e_j, ident))))
        k = first_difference(left, right)
        if k is not None and (best is None or (k[0], j, k[1]) < best):
            best = (k[0], j, k[1])
    return best


def _on_generators(equation, ident, on_gens, closed):
    """The sides (lhs, rhs) of ``equation(left)``, an equation of maps on
    H (x) H whose left factor goes through ``left``: over the generators
    ``on_gens`` when ``closed`` and the sides agree there, else over the
    whole basis ``ident``, so a failing equation has its least witness.

    ``closed`` must say that the left factors a satisfying the equation
    for every right factor are closed under products; then every basis
    index ``_generators`` reaches satisfies it, as in
    :func:`_least_nonassociative`.  For an associative m this holds for
    the m equation of parity-compatibility, grade(a y) = grade(a)
    grade(y), and, m being even as well, for the bialgebra equation
    Delta(a y) = Delta(a) Delta(y): for a, b among them,
        Delta((a b) y) = Delta(a (b y)) = Delta(a) (Delta(b) Delta(y))
                       = (Delta(a) Delta(b)) Delta(y) = Delta(a b) Delta(y),
    and likewise for grade."""
    if closed:
        lhs, rhs = equation(on_gens)
        if lhs == rhs:
            return lhs, rhs
    return equation(ident)


def check_axioms(pkg):
    """Every Hopf, relative-(co)integral, compatibility and handleslide
    identity as equations between composites of the structure maps, over
    the whole basis.  A map into B or A is read in coordinates there; that
    it lands in B or A is one more equation, with a fixed witness."""
    alg, integ, coint = pkg.algebra, pkg.integral, pkg.cointegral
    rep, par = Report(), alg.parity
    m, dl, s, i_b, mu, pi_b, iota, i_a, pi_a = map(legged, (
        alg.mul_sc, alg.comul_sc, alg.antipode_sc, integ.i_b, integ.mu,
        integ.pi_b, coint.iota, coint.i_a, coint.pi_a))
    ident = {(i,): {(i,): 1} for i in range(alg.dim)}
    grade = {(i,): {(i,): -1 if p else 1} for i, p in enumerate(par)}
    eps = {(i,): {(): c} for i, c in enumerate(alg.counit_vec) if c}
    eta = {(): {(alg.unit_index,): 1}}
    tau = koszul(par, par)
    # coordinates cB, cA on B and A, projections PB, PA onto their spans
    cB = {(h,): {(p,): 1} for p, h in enumerate(integ.b_basis)}
    cA = {(h,): {(p,): 1} for p, h in enumerate(coint.a_basis)}
    PB, PA = ({(h,): {(h,): 1} for (h,) in c} for c in (cB, cA))
    id_b, id_a = ({(p,): {(p,): 1} for p in range(len(basis))}
                  for basis in (integ.b_basis, coint.a_basis))
    H, A, B = alg.label, (lambda p: f"a_{p}"), (lambda p: f"b_{p}")

    # associativity with the middle factor among generators, one equation
    # of D^2 columns per generator; the least witness of a failing table
    # may have any middle, so only then are all D middles scanned.  It is
    # decided first, as the two product equations below rely on it, and
    # reported second
    gens = _generators(alg)
    wit = ""
    if _least_nonassociative(m, ident, gens) is not None:
        wit = _names(H, H, H)(_least_nonassociative(m, ident, range(alg.dim)))
    on_gens = {(g,): {(g,): 1} for g in gens}

    def graded_m(left):
        return (compose(grade, compose(m, tensor(left, ident))),
                compose(m, tensor(compose(grade, left), grade)))

    graded = _on_generators(graded_m, ident, on_gens, not wit)
    _check(rep, "parity-compatibility", (*graded, _names(H, H, head="m")),
           (compose(grade, compose(grade, dl), 1), compose(dl, grade),
            _names(H, head="Delta")),
           (compose(grade, s), compose(s, grade), _names(H, head="S")),
           (compose(eps, grade), eps, _names(H, head="eps")))
    rep.add("associativity", not wit, wit)
    _check(rep, "unitality", (compose(m, tensor(eta, ident)), ident, ""),
           (compose(m, tensor(ident, eta)), ident, ""))
    _check(rep, "coassociativity",
           (compose(dl, dl), compose(dl, dl, 1), _names(H)))
    _check(rep, "counitality", (compose(eps, dl), ident, _names(H)),
           (compose(eps, dl, 1), ident, _names(H)))

    # Delta(xy) = sum (-1)^{|x2||y1|} x1*y1 (x) x2*y2; the product of
    # H (x) H is associative once m is and is even
    def bialgebra(left):
        return (compose(dl, compose(m, tensor(left, ident))),
                compose(m, compose(m, compose(
                    tau, tensor(compose(dl, left), dl), 1), 2)))

    _check(rep, "bialgebra", (*_on_generators(
        bialgebra, ident, on_gens, not wit and graded[0] == graded[1]),
        _names(H, H)))
    _check(rep, "unit/counit morphisms",
           (compose(eps, m), tensor(eps, eps), ""),
           (compose(dl, eta), tensor(eta, eta), ""),
           (compose(eps, eta), {(): {(): 1}}, ""))
    _check(rep, "antipode",
           (compose(m, compose(s, dl)), compose(eta, eps), _names(H)),
           (compose(m, compose(s, dl, 1)), compose(eta, eps), _names(H)))
    _check(rep, "involutivity S^2 = id", (compose(s, s), ident, _names(H)))

    _check(rep, "pi_B o i_B = id_B", (compose(PB, i_b), i_b, ""),
           (compose(pi_b, i_b), id_b, ""))
    # i_B(b) x = (-1)^{|b||x|} x i_B(b) and mu(i_B(b) x) = b * mu(x) in B
    b_x = tensor(i_b, ident)
    _check(rep, "i_B(B) central",
           (compose(m, b_x), compose(m, compose(tau, b_x)), _names(B, H)))
    prod = compose(m, tensor(i_b, compose(i_b, mu)))
    _check(rep, "mu is B-linear", (compose(PB, prod), prod, "product left B"),
           (compose(mu, compose(m, b_x)), compose(cB, prod), _names(B, H)))
    # (mu (x) id) Delta = (id (x) i_B) Delta_B mu
    d_b = compose(dl, compose(i_b, mu))
    _check(rep, "relative integral relation",
           (compose(PB, d_b), d_b, "Delta_B left B (x) B"),
           (compose(mu, dl), compose(cB, d_b), _names(H)))

    _check(rep, "pi_A o i_A = id_A", (compose(pi_a, i_a), id_a, ""))
    _check(rep, "pi_A cocentral",
           (compose(pi_a, dl), compose(pi_a, compose(tau, dl)), _names(H)))
    # (pi_A (x) id) Delta iota = (id (x) iota) Delta_A
    d_a = compose(dl, i_a)
    _check(rep, "iota is A-colinear",
           (compose(PA, compose(PA, d_a), 1), d_a, "Delta_A left A (x) A"),
           (compose(pi_a, compose(dl, iota)),
            compose(iota, compose(cA, compose(cA, d_a), 1), 1), _names(A)))
    # iota(a) x = iota(a * pi_A(x))
    prod = compose(m, tensor(i_a, compose(i_a, pi_a)))
    _check(rep, "relative cointegral relation",
           (compose(PA, prod), prod, "product left A"),
           (compose(m, tensor(iota, ident)), compose(iota, compose(cA, prod)),
            _names(A, H)))

    # b is the distinguished group-like of B; the values of the character
    # a* of A are kept as exponents in Z/astar_order, (0,) being 1
    b = compose(i_b, {(): {(integ.glike_b,): 1}})
    left_b = compose(m, tensor(b, ident))
    dl_astar = compose({(p,): {(e % coint.astar_order,): 1}
                        for p, e in enumerate(coint.astar_exps)},
                       compose(pi_a, dl))
    sign_mu = {(): {(): -1 if integ.mu_parity else 1}}
    sign_iota = {(): {(0,): -1 if coint.iota_parity else 1}}
    s_b = compose(s, compose(i_b, compose(mu, s)))
    _check(rep, "compatibility (1): mu o m_b = (-1)^{|mu|} S_B mu S_H",
           (compose(PB, s_b), s_b, "S_B left B"),
           (compose(mu, left_b), tensor(sign_mu, compose(cB, s_b)),
            _names(H)))
    s_a = compose(s, i_a)
    _check(rep, "compatibility (2): Delta_a* iota = (-1)^{|iota|} S iota S_A",
           (compose(PA, s_a), s_a, "S_A left A"),
           (compose(dl_astar, iota), tensor(sign_iota, compose(
               s, compose(iota, compose(cA, s_a)))), _names(A)))
    # mu m^op = mu m (id (x) Delta_a*), the a* exponent flipped to the front
    mu_m = compose(mu, m)
    flip = koszul(par, (0,) * coint.astar_order)
    _check(rep, "compatibility (3): trace property of mu",
           (tensor({(): {(0,): 1}}, compose(mu_m, tau)),
            compose(mu_m, compose(flip, tensor(ident, dl_astar)), 1),
            _names(H, H)))
    # Delta^op iota = (id (x) m_b) Delta iota
    dl_iota = compose(dl, iota)
    _check(rep, "compatibility (4): cotrace property of iota",
           (compose(tau, dl_iota), compose(left_b, dl_iota, 1), _names(A)))
    _check(rep, "compatibility (5): pi_B i_A = eta_B eps_A",
           (compose(pi_b, i_a),
            compose(cB, compose(eta, compose(eps, i_a))), _names(A)))
    unit_a = {(): {(pkg.unit_a,): 1}}
    value = tensor({(): {(): coint.iota_prefactor}}, compose(
        eps, compose(i_b, compose(mu, compose(iota, unit_a)))))
    _check(rep, "compatibility (6): eps_B mu iota eta_A = 1",
           (value, {(): {(): 1}}, f"value {value.get((), {}).get((), 0)}"))

    # (m (x) id)(f1 (x) Delta f2) = (f1 (x) f2)(m_A (x) id)(id (x) Delta_A)
    # on A (x) A, for f1, f2 among iota and i_A
    pairs = tensor(id_a, d_a)
    prod = compose(m, compose(i_a, compose(i_a, compose(cA, pairs, 1), 1)))
    maps = {"iota": iota, "i_A": i_a}
    for tag1, tag2 in (("iota", "iota"), ("iota", "i_A"), ("i_A", "i_A")):
        f1, f2 = maps[tag1], maps[tag2]
        _check(rep, f"handleslide identity ({tag1},{tag2})",
               (compose(PA, compose(PA, pairs, 1), 2), pairs,
                "Delta_A left A (x) A"),
               (compose(PA, prod), prod, "m_A left A"),
               (compose(m, tensor(f1, compose(dl, f2))), compose(
                   f2, compose(cA, compose(f1, compose(cA, prod)), 1), 1),
                _names(A, A)))
    return rep
