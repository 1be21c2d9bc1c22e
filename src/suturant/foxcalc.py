"""Fox calculus over free groups and exact group-ring arithmetic.

The fundamental group of a diagram is presented on the beta-curve duals with
one relation per closed alpha curve.  Its abelianization is computed by an
integer Smith normal form; group-ring elements are finitely supported integer
maps on the normal-form coordinates (free exponents first, then torsion
residues).

One kernel (:func:`_det`) takes every determinant, on raw term dicts.  It
first removes unit entries u = +-g, each an algebraic destabilization:
with u at row p and column q, det M = (-1)^(p+q) u det M' for the Schur
complement M' = M_ij - M_iq u^-1 M_pj, exactly, since u^-1 is a monomial
and nothing is divided.  The unit taken is the one with the fewest other
nonzero entries in its row and column (Markowitz's count).  What is left
is taken in the Laurent lift, a domain, even where torsion gives Z[H_1]
zero divisors: Kronecker substitution packs each lifted entry into one
integer, and fraction-free elimination runs on the integers
(:func:`_packed_det`), within a stated bit budget.

The Fox matrix reads each closed alpha's crossings from the diagram's index
twice, each once per diagram: for its relator (:func:`homology`), and in
one walk (:func:`_walk`, the only statement of the class rule) that classes
each crossing in normal form (:func:`_classes`).  Both depend on the
diagram alone and are kept in its memo.  Each call then adds each
crossing's sign at its class to entry (a, b) = sum sign * t^class over the
crossings of a with b, in sparse rows that :func:`fox_determinant` hands to
the kernel as they are.  The word-level :func:`fox_derivative` uses the
closed occurrence formula

    dw/dx = sum_j m_j (A_j x^{-eps_j})

over the occurrences x^{m_j} in w, with A_j the prefix before the j-th
occurrence and eps_j = 0 for a positive, 1 for a negative occurrence.  The
recursive product rule lives in the test suite as an independent oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, mod, mul, sub

from .cyclotomic import CyclotomicScalar, signed_sum
from .diagram import FreeWord, check_balanced, fraction_free_det
from .errors import (BudgetExceededError, GroupMismatchError,
                     InvalidCharacterError, NonSquareError, NotDivisibleError,
                     UnknownGeneratorError)

# Widest packed entry :func:`_packed_det` builds, in bits: its box
# prod_v (span_v + 1) times its digit width.  The widest that the tier-1
# tests and the benchmark's inputs reach is 35,910 bits (46,170 without
# unit pivots); fraction-free elimination of a 6 x 6 at this budget takes
# about a second.  It has no override yet.
MAX_PACKED_BITS = 1 << 18

# Most work :func:`canonical_class` ranks: the product of the torsion orders,
# one sort of the terms per torsion translate, times the number of terms.
# The tier-1 tests and the benchmark's inputs reach 49 (7 translates of 7
# terms).  L(p, 1) has p translates of p terms, so L(512, 1) is the largest
# admitted, at 262,144 (``class`` in 0.3 s); L(1,000, 1) took about a
# second, L(4,000, 1) 13 s.  It has no override.
MAX_CLASS_WORK = 1 << 18


# ---------------------------------------------------------------------------
# Fox derivative
# ---------------------------------------------------------------------------

def fox_derivative(word, gen):
    """List of (prefix word, sign): one signed word per occurrence of
    gen^{+-1}.  For a positive occurrence the word is the bare prefix; for a
    negative one the prefix times gen^{-1}."""
    return [(FreeWord(word.letters[:j + (e < 0)]), e)
            for j, (g, e) in enumerate(word.letters) if g == gen]


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(rows, ncols):
    """Return (diag, V, Vinv) with U*R*V = D for unimodular U, V.

    V maps original coordinates to normal-form coordinates (x -> x V), and
    Vinv sections them back; U is not kept.  ``diag`` lists the invariant
    factors d_1 | d_2 | ... (zeros trimmed).  R's rows and V's rows share
    one list, so a column operation is one walk over both.

    One rule picks every pivot: the first least nonzero entry of the given
    cells (``pivot``), over the rest of the matrix in the main pass, and
    over the remainders that reducing row and column t leaves in
    ``clear(t)``.  Each new pivot is such a remainder, smaller than the
    one before, so clearing ends.  No bound on the entries is proved; on
    100,000 seeded random 0-6 x 1-7 matrices with entries of at most 9,
    none took over 0.3 ms (best of 7) and V's largest entry had 73 bits.
    """
    m, n = len(rows), ncols
    a = [list(r) + [0] * (n - len(r)) for r in rows]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    stack = a + v

    def col_op(j, k, q):
        # col_k -= q * col_j  on a and v;  row_j += q * row_k on vinv
        for r in stack:
            r[k] -= q * r[j]
        for t in range(n):
            vinv[j][t] += q * vinv[k][t]

    def pivot(t, cells):
        # move the first least nonzero entry of cells to (t, t); its |x| or 0
        least = 0
        for i, j in cells:
            x = abs(a[i][j])
            if x and (not least or x < least):
                least, pi, pj = x, i, j
                if x == 1:      # none is smaller: the first least entry
                    break
        if least:
            a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for r in stack:
                    r[t], r[pj] = r[pj], r[t]
                vinv[t], vinv[pj] = vinv[pj], vinv[t]
        return least

    def clear(t):
        while True:
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for s in range(n):      # in place: the row is stacked
                        a[i][s] -= q * a[t][s]
            for j in range(t + 1, n):
                if a[t][j]:
                    col_op(t, j, a[t][j] // a[t][t])
            if not pivot(t, [(i, t) for i in range(t + 1, m) if a[i][t]] +
                         [(t, j) for j in range(t + 1, n) if a[t][j]]):
                break
        if a[t][t] < 0:
            for r in stack:
                r[t] = -r[t]
            vinv[t] = [-x for x in vinv[t]]

    t = 0
    while t < min(m, n) and pivot(t, itertools.product(range(t, m),
                                                        range(t, n))):
        clear(t)
        t += 1

    # enforce the divisibility chain by 2x2 repairs
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            if a[i + 1][i + 1] % a[i][i] != 0:
                col_op(i + 1, i, -1)   # col_i += col_{i+1}
                clear(i)
                clear(i + 1)
                changed = True
    return [a[i][i] for i in range(t)], v, vinv


# ---------------------------------------------------------------------------
# abelian groups and group rings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianGroup:
    """Z^rank + Z/d_1 + ... in normal-form coordinates (free part first).

    ``gens`` are the generator tokens (beta-curve ids); ``projection`` sends
    a generator-exponent vector to normal form, ``section`` lifts a normal
    form back to a representative exponent vector.
    """

    gens: tuple
    rank: int
    torsion: tuple
    projection: tuple    # rows: one per gen, length rank + len(torsion)
    section: tuple       # rows: one per normal coordinate, length len(gens)

    @property
    def ncoords(self):
        return self.rank + len(self.torsion)

    def normalize(self, coords):
        out = list(coords)
        for k, d in enumerate(self.torsion):
            out[self.rank + k] %= d
        return tuple(out)

    def project(self, exponents):
        """Normal form of a generator-exponent vector."""
        return self.normalize([sum(map(mul, exponents, column))
                               for column in zip(*self.projection)])

    def project_word(self, word):
        exps = [0] * len(self.gens)
        pos = {g: i for i, g in enumerate(self.gens)}
        for g, e in word.letters:
            if g not in pos:
                raise UnknownGeneratorError(g)
            exps[pos[g]] += e
        return self.project(exps)

    def lift(self, coords):
        """A representative generator-exponent vector of a normal form."""
        return tuple(sum(c * row[g] for c, row in zip(coords, self.section))
                     for g in range(len(self.gens)))

    def identity(self):
        return tuple([0] * self.ncoords)

    def same_shape(self, other):
        return self.rank == other.rank and self.torsion == other.torsion

    def check_same(self, other, message):
        """The one rule for two values to share an H_1: one group object or
        equal ones, identity first, so a memoized H_1 compares nothing."""
        if self is not other and self != other:
            raise GroupMismatchError(message)


def presented_group(gens, relation_rows):
    """The abelian group on the given generators modulo the relation rows,
    in Smith normal form (free coordinates first, then torsion)."""
    n = len(gens)
    diag_factors, v, vinv = smith_normal_form(relation_rows, n)
    free_cols = list(range(len(diag_factors), n))
    torsion_cols = [k for k, d in enumerate(diag_factors) if d > 1]
    torsion = tuple(diag_factors[k] for k in torsion_cols)
    keep = free_cols + torsion_cols
    projection = tuple(tuple(v[g][c] for c in keep) for g in range(n))
    section = tuple(tuple(vinv[c][g] for g in range(n)) for c in keep)
    return AbelianGroup(tuple(gens), len(free_cols), torsion,
                        projection, section)


def homology(diag):
    """H_1 of the diagram (:func:`_homology`), computed once per diagram
    and kept in its memo."""
    group = diag.memo.get(_homology)
    if group is None:
        group = diag.memo[_homology] = _homology(diag)
    return group


def _group(diag, group):
    """The diagram's H_1, which ``group`` must be unless it is None."""
    h1 = homology(diag)
    if group is not None:
        h1.check_same(group, "the group is not the diagram's H_1")
    return h1


def _homology(diag):
    """H_1 presented on the beta duals with one relation per closed alpha,
    its crossings' signs summed at their betas in one read of its order."""
    ordered = diag.ordered          # even at d = 0: it checks the orders
    gens = diag.beta_generators()
    pos = {g: i for i, g in enumerate(gens)}
    rows = []
    for c in diag.closed_alphas:
        row = [0] * len(gens)
        for x in ordered[c.id]:
            row[pos[x.beta]] += x.sign
        rows.append(row)
    return presented_group(gens, rows)


class GroupRingElement:
    """Finitely supported integer combination of group elements in normal
    form.  Immutable once built; zero coefficients are never stored."""

    __slots__ = ("group", "terms")

    def __init__(self, group, terms=None):
        self.group = group
        clean = {}
        for k, c in (terms or {}).items():
            if c:
                kk = group.normalize(k)
                clean[kk] = clean.get(kk, 0) + c
        self.terms = {k: c for k, c in clean.items() if c}

    @classmethod
    def zero(cls, group):
        return cls(group, {})

    @classmethod
    def one(cls, group):
        return cls(group, {group.identity(): 1})

    @classmethod
    def monomial(cls, group, coords, coeff=1):
        return cls(group, {tuple(coords): coeff})

    def _check(self, other):
        self.group.check_same(other.group, "elements live in different groups")

    def __add__(self, other):
        self._check(other)
        return GroupRingElement(self.group, _Laurent(self.terms) + other.terms)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.monomial(self.group, self.group.identity(), other)
        self._check(other)
        return GroupRingElement(self.group, _Laurent(self.terms) * other.terms)

    __rmul__ = __mul__

    def translate(self, coords, sign=1):
        return self * self.monomial(self.group, coords, sign)

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return False
        self._check(other)
        return self.terms == other.terms

    def __hash__(self):
        # the group too, so elements of two H_1 differ before == refuses;
        # read by its repr, as hash(-1) == hash(-2) makes the trefoil's and
        # figure8's H_1, whose projections are ((-2,), (1,)) and
        # ((-1,), (1,)), collide under the tuple hash
        return hash((repr(self.group), frozenset(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def augmentation(self):
        return sum(self.terms.values())

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __str__(self):
        return render_group_ring(self)

    __repr__ = __str__


class _Laurent(dict):
    """Laurent polynomial over Z, exponent tuple -> nonzero int: the lift of
    a group-ring element, with torsion exponents as free variables (no
    relation imposed), so this ring is a domain and ``//`` is exact.  The
    group-ring sum and product are taken here and projected back."""

    __slots__ = ()

    def __mul__(self, other):
        out = _Laurent()
        for k1, c1 in self.items():
            for k2, c2 in other.items():
                k = tuple(map(add, k1, k2))
                out[k] = c = out.get(k, 0) + c1 * c2
                if not c:
                    del out[k]
        return out

    def __add__(self, other):
        out = _Laurent(self)
        for k, c in other.items():
            out[k] = c = out.get(k, 0) + c
            if not c:
                del out[k]
        return out

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _Laurent({k: -c for k, c in self.items()})

    def __floordiv__(self, other):
        """Exact quotient, one lex-leading term at a time.  In a domain the
        least exponents of each coordinate add up in a product, so a
        quotient term below that floor proves a remainder (NotDivisible)
        and bounds the lex-decreasing quotient terms, which ends the loop."""
        lead = max(other)
        floor = [a - b for a, b in zip(map(min, zip(*self)),
                                       map(min, zip(*other)))]
        work, out = self, _Laurent()
        while work:
            top = max(work)
            c, r = divmod(work[top], other[lead])
            key = tuple(map(sub, top, lead))
            if r or any(e < f for e, f in zip(key, floor)):
                raise NotDivisibleError("remainder after division")
            out[key] = c
            work = work - other * _Laurent({key: c})
        return out


def abelianize(word_or_terms, group):
    """Image in Z[H_1] of a FreeWord (a single monomial) or of a signed-word
    list as produced by :func:`fox_derivative`."""
    if isinstance(word_or_terms, FreeWord):
        word_or_terms = [(word_or_terms, 1)]
    return sum((GroupRingElement.monomial(group, group.project_word(w), s)
                for w, s in word_or_terms), GroupRingElement.zero(group))


def coordinate_name(group, t):
    """Name of the t-th normal-form coordinate: ``t`` in a single-generator
    group, otherwise t1, t2, ... for the free and s1, s2, ... for the
    torsion coordinates."""
    if group.ncoords == 1:
        return "t"
    if t < group.rank:
        return f"t{t + 1}"
    return f"s{t - group.rank + 1}"


def render_group_ring(el):
    """Deterministic text form in the :func:`coordinate_name` variables,
    torsion exponents bracketed unless the group has a single generator."""
    g = el.group
    parts = []
    for key, coeff in el.sorted_terms():
        pieces = []
        for t, e in enumerate(key):
            if e:
                nm = coordinate_name(g, t)
                piece = nm if e == 1 else f"{nm}^{e}"
                bracket = t >= g.rank and g.ncoords > 1
                pieces.append(f"[{piece}]" if bracket else piece)
        mono = " ".join(pieces)
        if not mono:
            body = f"{abs(coeff)}"
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{abs(coeff)} {mono}"
        parts.append((coeff, body))
    return signed_sum(parts)


# ---------------------------------------------------------------------------
# Fox matrix, determinant, multipoint expansion
# ---------------------------------------------------------------------------

def _walk(group, crossings):
    """The one walk along an alpha from its basepoint, for its crossings'
    classes in H_1, in its order.  The class rule: a crossing's class is
    that of the word up to its own basepoint, which sits before a positive
    crossing and after a negative one.  The running class is kept in
    normal form."""
    step = dict(zip(group.gens, group.projection))
    tidy = group.normalize if group.torsion else tuple
    acc, classes = group.identity(), []
    for x in crossings:
        if x.sign > 0:
            k, acc = acc, tidy(map(add, acc, step[x.beta]))
        else:
            k = acc = tidy(map(sub, acc, step[x.beta]))
        classes.append(k)
    return tuple(classes)


def _classes(diag, group):
    """Alpha id -> its crossings' classes in the diagram's H_1 ``group``,
    in its order: one :func:`_walk` per alpha curve (arcs too, for a pick
    on an arc), run once per diagram and kept in its memo.  The class rule
    makes each class a function of the diagram and H_1 alone, so the
    classes are frame data, like H_1."""
    classes = diag.memo.get(_classes)
    if classes is None:
        classes = diag.memo[_classes] = {
            c.id: _walk(group, diag.ordered[c.id])
            for c in diag.family("alpha")}
    return classes


def crossing_classes(diag, group):
    """Crossing id -> class in H_1 (:func:`_classes`) on the closed
    alphas."""
    group = _group(diag, group)
    classes = _classes(diag, group)
    return {x.id: k for c in diag.closed_alphas
            for x, k in zip(diag.ordered[c.id], classes[c.id])}


def multipoint_class(diag, group, picks):
    """The sum in H_1 of the picks' crossing classes (:func:`_classes`),
    each looked up by its position on its alpha."""
    group = _group(diag, group)
    classes, total = _classes(diag, group), group.identity()
    for xid in picks:
        k = classes[diag.crossing(xid).alpha][diag.place[xid][0]]
        total = tuple(map(add, total, k))
    return group.normalize(total)


def _fox_rows(diag, group):
    """The Fox matrix as sparse rows, column -> term dict, zero entries and
    zero terms dropped: rows the closed alpha words, columns the closed
    beta duals.  Built on every call from the crossings' signs and their
    classes (:func:`_classes`), which are in normal form, so each sign is
    added at its class as it is."""
    classes, column, rows = _classes(diag, group), diag.column, []
    for a in diag.closed_alphas:
        row = {}
        for x, k in zip(diag.ordered[a.id], classes[a.id]):
            j = column.get(x.beta)
            if j is not None:
                entry = row.setdefault(j, {})
                c = entry.get(k, 0) + x.sign
                if c:
                    entry[k] = c
                else:
                    del entry[k]
        rows.append({j: e for j, e in row.items() if e})
    return rows


def fox_matrix(diag, group=None):
    """Matrix of abelianized Fox derivatives over Z[H_1]
    (:func:`_fox_rows`)."""
    group = _group(diag, group)
    return [[GroupRingElement(group, row.get(j, {}))
             for j in range(len(diag.column))]
            for row in _fox_rows(diag, group)]


def determinant(mat):
    """det of a square matrix over Z[H_1] by the one kernel, :func:`_det`:
    unit pivots u = +-g first, least (r - 1)(c - 1) first, each exact with
    det M = (-1)^(p+q) u det M' and no division, then the Kronecker-packed
    fraction-free elimination of what is left."""
    n = len(mat)
    if n == 0:
        raise NonSquareError("empty matrix has no ring context here")
    for row in mat:
        if len(row) != n:
            raise NonSquareError(f"{len(row)} columns in a {n}-row matrix")
        for el in row:
            el._check(mat[0][0])
    group = mat[0][0].group
    return GroupRingElement(group, _det([
        {j: el.terms for j, el in enumerate(row) if el.terms}
        for row in mat], group))


def _det(rows, group):
    """det of a square matrix over Z[H_1] given by sparse rows, column ->
    term dict (keys in normal form, no zero coefficient, no empty entry),
    as terms: the one determinant kernel.

    Unit pivots come first.  While more than one row is left and some
    entry is a unit u = +-g (one term, coefficient +-1), take the unit
    whose row and column have the fewest other nonzero entries (least
    (r - 1)(c - 1), Markowitz's count; ties to the least row, then
    column) at row p and column q of the current matrix, and replace the
    rest by its Schur complement M'_ij = M_ij - M_iq u^-1 M_pj.
    Subtracting M_iq u^-1 times row p from each row i leaves det M as it
    is and column q zero but for u, so

        det M = (-1)^(p+q) u det M'

    exactly: u^-1 = +-g^-1 is a monomial, so nothing is divided.  The
    factors u and the signs are kept.  A unit is an algebraic
    destabilization (an alpha meeting a beta in one class), and the step
    is Turaev's elementary collapse.

    What is left goes to :func:`_packed_det`; a 1 x 1 remainder is its own
    entry, an empty one is 1, and a zero row or column gives 0.  Fill-in
    can make the remainder dearer to pack than M: when it has more terms
    than M and packs in no fewer bits (:func:`_width`), M is packed as it
    is, dense.  Hopf slid and back to d = 8 has one unit, in a full row
    and column, and its 7 x 7 remainder would pack in 28,160 bits against
    M's 1,344."""
    tidy = group.normalize if group.torsion else tuple
    n = len(rows)
    # the nonzero entries of each row by column, and each column's count
    mat, in_col = [dict(row) for row in rows], [0] * n
    for row in rows:
        for j in row:
            in_col[j] += 1
    live_r, live_c = list(range(n)), list(range(n))
    sign, unit = 1, group.identity()
    while len(live_r) > 1:
        best = min((((len(mat[i]) - 1) * (in_col[j] - 1), i, j)
                    for i in live_r for j, e in mat[i].items()
                    if len(e) == 1 and next(iter(e.values())) in (1, -1)),
                   default=None)
        if best is None:
            break
        _, p, q = best
        a, b = live_r.index(p), live_c.index(q)
        del live_r[a], live_c[b]
        (k, c), = mat[p].pop(q).items()
        sign *= -c if (a + b) % 2 else c
        unit = tidy(map(add, unit, k))
        for j in mat[p]:
            in_col[j] -= 1
        for i in live_r:
            row = mat[i]
            if q not in row:
                continue
            # -M_iq u^-1, u^-1 = c t^-k
            f = [(tidy(map(sub, ki, k)), -ci * c)
                 for ki, ci in row.pop(q).items()]
            for j, pe in mat[p].items():
                new = dict(row.get(j, ()))
                for kf, cf in f:
                    for kp, cp in pe.items():
                        key = tidy(map(add, kf, kp))
                        v = new.get(key, 0) + cf * cp
                        if v:
                            new[key] = v
                        else:
                            del new[key]
                if new:
                    in_col[j] += j not in row
                    row[j] = new
                elif j in row:
                    in_col[j] -= 1
                    del row[j]
    if len(live_r) > 1:
        rest = [[mat[i].get(j, {}) for j in live_c] for i in live_r]
        box = _box(rest)
        if box is None:                         # a zero row or column
            return {}
        if _terms(rest) > _terms(row.values() for row in rows):  # fill-in
            dense = [[row.get(j, {}) for j in range(n)] for row in rows]
            start = _box(dense)                 # is M cheaper to pack?
            if _width(start) <= _width(box):
                rest, box, sign, unit = dense, start, 1, group.identity()
        rest = _packed_det(rest, box)
    elif live_r:
        rest = mat[live_r[0]].get(live_c[0], {})
    else:
        rest = {group.identity(): 1}
    return {tuple(map(add, k, unit)): sign * c for k, c in rest.items()}


def _terms(rows):
    """The number of terms of a matrix of term dicts."""
    return sum(len(e) for row in rows for e in row)


def _box(rows):
    """The Kronecker box of a square matrix of term dicts (n >= 1) for
    :func:`_packed_det`: per coordinate v, each line's least exponent, the
    span and whether rows (else columns) are shifted, and the digit width
    ``bits``; None when a row or column is zero."""
    n = len(rows)
    # each line's keys and l1 norm in one pass: rows 0..n-1, columns n..2n-1
    keys, norms = [[] for _ in range(2 * n)], [0] * (2 * n)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row, n):
            if entry:
                norm = sum(map(abs, entry.values()))
                for t in (i, j):
                    keys[t] += entry
                    norms[t] += norm
    if 0 in norms:                              # a zero row or column
        return None
    coords = [list(zip(*line)) for line in keys]
    lows = [tuple(map(min, c)) for c in coords]
    spreads = [tuple(map(sub, map(max, c), lo)) for c, lo in zip(coords, lows)]
    row_spans, col_spans = ([sum(s) for s in zip(*spreads[k:k + n])]
                            for k in (0, n))
    by_row = [r <= c for r, c in zip(row_spans, col_spans)]
    spans = list(map(min, row_spans, col_spans))
    bits = min(math.prod(norms[:n]), math.prod(norms[n:])).bit_length() + 1
    return lows, spans, by_row, bits


def _width(box):
    """Bits of one packed entry: the box prod_v (span_v + 1) times the
    digit width."""
    return math.prod(s + 1 for s in box[1]) * box[3]


def _packed_det(rows, box):
    """det of a square matrix of term dicts with no zero line, given its
    :func:`_box`, one integer per entry; its terms in the Laurent lift.

    The entries are lifted to Laurent polynomials, one free variable t_v
    per coordinate (torsion too).  For each v, every row or else every
    column, whichever has the smaller span_v (the spread max - min of the
    t_v exponents summed over the lines), is multiplied by the power of
    t_v that makes its least exponent 0; every minor then has t_v
    exponents in [0, span_v].  B, the lesser product of the row or of the
    column l1 norms, bounds every coefficient of every minor.  With
    ``bits = B.bit_length() + 1``, t_v -> 2^(bits * stride_v), stride_v =
    prod_{u<v} (span_u + 1), makes each entry one integer, and
    fraction-free elimination runs on the integers.

    Exact because substitution is a ring homomorphism, so every division
    stays exact, and every pivot and entry the elimination reads is a
    minor: its exponents lie in the box and its coefficients below
    2^(bits - 1) in absolute value, so it is 0 exactly when its integer is,
    and its balanced base-2^bits digits are its coefficients.  The digits
    of the result, shifted back by the summed line shifts, project to
    Z[H_1].

    Cost: every integer is dense in the box, prod_v (span_v + 1) * bits
    bits (:func:`_width`).  That suits small rank (at most 3 in the corpus
    and its grown families); a rank-r group wide in every coordinate pays
    span^r, and a torsion coordinate up to the line count times its
    order.  Past ``MAX_PACKED_BITS`` it is refused with
    BudgetExceededError before any entry is packed."""
    width = _width(box)
    if width > MAX_PACKED_BITS:
        raise BudgetExceededError(f"a packed determinant entry would have "
                                  f"{width} bits, more than {MAX_PACKED_BITS}")
    n = len(rows)
    lows, spans, by_row, bits = box
    strides = [math.prod(s + 1 for s in spans[:v]) for v in range(len(spans))]
    on_rows = [s if r else 0 for s, r in zip(strides, by_row)]
    on_cols = list(map(sub, strides, on_rows))
    row_offs = [sum(map(mul, low, on_rows)) for low in lows[:n]]
    col_offs = [sum(map(mul, low, on_cols)) for low in lows[n:]]
    det = fraction_free_det([
        [sum(c << bits * (sum(map(mul, k, strides)) - ro - co)
             for k, c in entry.items())
         for entry, co in zip(row, col_offs)]
        for row, ro in zip(rows, row_offs)])
    shift = [sum(low[v] for low in (lows[:n] if r else lows[n:]))
             for v, r in enumerate(by_row)]
    terms, base = {}, 1 << bits
    ranges = [range(low, low + span + 1) for low, span in zip(shift, spans)]
    for key in itertools.product(*ranges[::-1]):  # t_0 varies fastest
        if not det:
            break
        digit = det & (base - 1)
        det >>= bits
        if 2 * digit >= base:
            digit -= base
            det += 1
        if digit:
            terms[key[::-1]] = digit
    return terms


def fox_determinant(diag, group=None):
    """det of the Fox matrix; the empty (d = 0) determinant is 1.  An
    unbalanced diagram is refused first (:func:`diagram.check_balanced`)."""
    check_balanced(diag)
    group = _group(diag, group)
    return GroupRingElement(group, _det(_fox_rows(diag, group), group))


def multipoint_expansion(diag, group=None):
    """Sum over multipoints of sign times the multipoint's class
    (:func:`multipoint_class`)."""
    from .diagram import enumerate_multipoints, multipoint_sign
    group = _group(diag, group)
    total = GroupRingElement.zero(group)
    for mp in enumerate_multipoints(diag):
        total = total + GroupRingElement.monomial(
            group, multipoint_class(diag, group, mp.picks),
            multipoint_sign(diag, mp))
    return total


# ---------------------------------------------------------------------------
# characters and evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Character:
    """A homomorphism H_1 -> Z/N given by exponents on the normal-form
    generators; torsion generators must satisfy d_k * e_k = 0 mod N."""

    group: AbelianGroup
    order: int
    exps: tuple

    def __post_init__(self):
        if self.order < 1:
            raise InvalidCharacterError(f"order {self.order} is below 1")
        if len(self.exps) != self.group.ncoords:
            raise InvalidCharacterError(
                f"{len(self.exps)} exponents for {self.group.ncoords} "
                "generators")
        for k, d in enumerate(self.group.torsion):
            if (self.exps[self.group.rank + k] * d) % self.order != 0:
                raise InvalidCharacterError(
                    f"torsion generator {k} of order {d} mapped to "
                    f"exponent {self.exps[self.group.rank + k]} mod "
                    f"{self.order}")

    def exponent(self, coords):
        return sum(map(mul, self.exps, coords)) % self.order

    def on_generators(self):
        """Beta-dual generator -> the exponent the character assigns it."""
        return dict(zip(self.group.gens,
                        map(self.exponent, self.group.projection)))

    def is_trivial(self):
        return all(e % self.order == 0 for e in self.exps)


def character_exponents(group, order):
    """The exponents a character into Z/order may give each normal-form
    coordinate: all on Z, the multiples of order / gcd(d, order) on Z/d.
    An order below 1 is refused, as :class:`Character` refuses it."""
    if order < 1:
        raise InvalidCharacterError(f"order {order} is below 1")
    return [range(order)] * group.rank + [
        range(0, order, order // math.gcd(d, order)) for d in group.torsion]


def all_characters(group, order):
    """Every character of the group into Z/order, deterministic order."""
    return [Character(group, order, exps) for exps in
            itertools.product(*character_exponents(group, order))]


def evaluate(el, chi):
    """Ring-homomorphic evaluation of a group-ring element into the
    cyclotomic ring of the character's order."""
    el.group.check_same(chi.group, "character on a different group")
    coeffs = [0] * chi.order
    for key, coeff in el.terms.items():
        coeffs[chi.exponent(key)] += coeff
    return CyclotomicScalar.from_coeffs(coeffs, chi.order)


# ---------------------------------------------------------------------------
# invariant classes (up to +- group element)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantClass:
    """A group-ring element modulo +-(group element), stored canonically."""

    representative: GroupRingElement

    @property
    def group(self):
        return self.representative.group

    def __str__(self):
        return str(self.representative)


def canonical_class(el):
    """Among all +-g*el, fix the free translate by the minimum-exponent
    shift, then pick the torsion translate and sign whose flattened
    (key, coefficient) sequence is lexicographically extremal with a
    positive leading coefficient.  Each translate is taken on the term
    keys, sorted once; the greatest (coefficients, keys) pair is kept.
    Past ``MAX_CLASS_WORK`` translates times terms it is refused with
    BudgetExceededError before any translate is ranked."""
    g = el.group
    if el.is_zero():
        return InvariantClass(el)
    translates = math.prod(g.torsion)
    if translates * len(el.terms) > MAX_CLASS_WORK:
        raise BudgetExceededError(
            f"ranking {len(el.terms)} term(s) at {translates} torsion "
            f"translate(s) exceeds {MAX_CLASS_WORK}")
    low = [min(k[i] for k in el.terms) for i in range(g.rank)]
    terms = [(tuple(map(sub, k[:g.rank], low)), k[g.rank:], c)
             for k, c in el.terms.items()]
    best = None
    for tshift in itertools.product(*map(range, g.torsion)):
        keys, coeffs = zip(*sorted(
            (free + tuple(map(mod, map(add, tors, tshift), g.torsion)), c)
            for free, tors, c in terms))
        sign = 1 if coeffs[0] > 0 else -1
        cand = (tuple(sign * c for c in coeffs), keys)
        best = cand if best is None else max(best, cand)
    coeffs, keys = best
    return InvariantClass(GroupRingElement(g, dict(zip(keys, coeffs))))


def class_equal(a, b):
    if not a.group.same_shape(b.group):
        raise GroupMismatchError(
            f"rank/torsion ({a.group.rank}, {a.group.torsion}) vs "
            f"({b.group.rank}, {b.group.torsion})")
    return a.representative.terms == b.representative.terms


# ---------------------------------------------------------------------------
# exact division in the Laurent ring (torsion-free groups)
# ---------------------------------------------------------------------------

def divide_by_element_minus_one(el, g_coords):
    """Exact division by (g - 1) in Z[Z^rank] for an infinite-order group
    element g; NotDivisible on any remainder.  Verified by re-multiplication.
    """
    group = el.group
    if group.torsion:
        raise NotDivisibleError("division requires a torsion-free group")
    if all(c == 0 for c in g_coords):
        raise NotDivisibleError("meridian has finite order")
    unit = GroupRingElement(group, {tuple(g_coords): 1,
                                    group.identity(): -1})
    q = GroupRingElement(group, _Laurent(el.terms) // _Laurent(unit.terms))
    if q * unit != el:
        raise NotDivisibleError("remainder after division")
    return q
